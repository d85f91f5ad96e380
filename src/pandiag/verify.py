"""Construction-blind verification by exhaustive line enumeration.

A d-dimensional array is checked through its constituent squares, built
by one rule applied d-2 times: the (k-1)-boxes of a k-box fix one local
axis to a value (k*n of them) or tie two local axes a<b equal or summing
to n-1 (2*C(k,2) of them; the tied pair becomes the first local axis and
the rest follow in order).  That gives the single square itself for d=2,
3n+6 squares for d=3, and for d=4 the 4n+12 constituent cubes with 3n+6
squares each.  Every square contributes 4n lines: n rows, n columns, n
wrapped diagonals in each of the two orientations (offset 0 being the two
main diagonals).  The canonical scan reads the squares in that order and
each square's lines in the order rows, columns, diagonal-plus,
diagonal-minus.

The verifier reads only the value grid, never construction provenance.  A
box is an affine map of its local coordinates into the grid, origin plus
one step per local axis, starting from the whole array with step e_x
along axis x.  Fixing axis a to v moves the origin by v*steps[a]; tying
a<b equal adds their steps, tying them anti subtracts steps[b] and moves
the origin by (n-1)*steps[b].  No face wraps, so each square is exactly
the map origin + r*row_step + c*col_step, and times the strides
n**(d-1-x) it is a flat map into the C-ordered grid.  A square's shape,
its face kind at each level (k*k for a k-box), gives its steps and
labels, the step s_l of the axis that level l fixes (0 at a tie) and the
sum t of the steps its anti ties subtract.  One table per d, free of n,
holds the 1, 9 and 144 shapes at d=2, 3 and 4 (_shape_table).  An index
decodes to its square's shape and fixed values v_l, a digit per level in
radix k*(n+k-1), and its origin is sum_l v_l*s_l + (n-1)*t;
enumerate_squares, the cover and a failure's name read that one decode.
One line table holds the local cells of a square's lines; enumerate_lines
and the failure report read it, and the scan reads it through the
step-class tables below.

The same line lies in many squares: at d=4 n=41 the canonical scan has
3,723,456 lines but only 1,184,360 distinct cell sets.  A family is the n
lines of one kind in one square, and the cover is the set of families, in
canonical order, that hold the first canonical occurrence of some line.
The scan tests only the cover, in chunks sized in cells, and its report
equals the canonical scan's.  A line's verdict depends only on its cell
set, so the first canonical failing line is the first occurrence of its
cell set, which lies in the cover; no earlier cover line fails, since it
would fail earlier in the canonical scan too.  Each line of the cover
carries two flags, whether its cell set is a row or column of some square
and whether it is a main diagonal of some square, and every cell set
occurs in the cover, so the grade ladder reads the same.  lines_checked
counts the canonical scan's lines.

The cover follows from a rule free of n, on the shapes and their steps.
Rows run along col_step, columns along row_step and diagonals along
row_step +- col_step; above order 2 a line's cells fix that direction u
up to sign.  Each pair of axes a<b in the support of one step s gives the
shape a relation, x_b = x_a if s_a*s_b = 1 and x_b = n-1 - x_a if not,
and a square is exactly the cells meeting its shape's relations and fixed
values.  So each line of a family of shape X is a line of a square of any
shape Y that has a family of direction u and relations among X's.  When Y
appears before X, that square comes first too (shapes appear in the order
of their face kinds, level by level, and two squares holding one line
with the same fixed-axis top face lie in one cube), and the family is
dropped.  The cover keeps the rest; the tests check them against
brute-force first occurrences and derive their counts, 4, 9n+12 and
16n^2+48n+56 at d=2, 3 and 4, from the shapes.

Every line of a row or column family is a row or column, and line 0 of a
diagonal family is a main diagonal; meeting every relation over u's
support, it is also a row or column of a square with steps u and e_x
when its square fixes axis x.  The tests check that no other cover line
is one against brute-force sets.

At order 2, -1 = +1: a cell set no longer fixes its direction's signs,
and lines of different directions coincide, even two kinds of one square.
There the cover keeps every family, 960 at d=4, with each line's flags
those of its kind: the canonical scan itself.

A family's step class is its kept (shape, kind), which fixes the kind and
the square's (row_step, col_step), so where its cells lie relative to the
square's origin.  Above order 2 no two classes share a kind and steps: two
kept (shape, kind) with one kind and one pair of row and column signs have
one direction and one set of relations, so the rule drops the later one.
That gives 4, 21 and 120 classes at d=2, 3 and 4; at order 2 every family
is kept, four classes per shape: 4, 36 and 576.  The cover keeps one int32
offset table per class, and a chunk's cells are its families' class
tables plus their origins.  A magic line is tested by its sum.  A latin
line of order n <= 63 is tested by its bit set: the values lie in [0,
n-1], so OR(1 << v) over the line's n cells is 2**n - 1, which fits an
int64, exactly when its n values are distinct.  Orders 64 to MAX_ORDER
(101) split the bit set into two int64 words, one for the values below
64 and one for the rest: the line is latin exactly when the first has
all 64 bits set and the second is 2**(n-64) - 1.

Before the cover, a torus pass tests every torus line x + t*u mod n of the
directions u of support <= 2 (e_a, e_a + e_b and e_a - e_b: 4, 9 and 16 of
the 4, 13 and 40 directions) without a gather, folding the same words
slab by slab (_torus_pass).  Each class has the direction of its lines,
read from its signs, as a row of params.DIRECTIONS; a line of a family
with cells (p, (p+k) mod n) holds origin + p*R + ((p+k) mod n)*C, which is
origin + k*C + p*(R+C) mod n, a torus line of its direction, and rows and
columns are too.  So a family whose class direction the pass proved holds
no failing line, and the scan skips it: it meets the same failing lines in
the same order, and its report is unchanged.  A passing array leaves 0, 12
and 48n+56 families to gather at d=2, 3 and 4.  The pass stops at the
first slab where a line along axes 1 .. d-1 fails, and then proves
nothing.  Its cost grows with the slabs' count, not their size, so it runs
only when a slab x_0 = p holds _TORUS_SLAB_CELLS cells or more: below
that, its per-slab overhead costs more than the whole cover gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterator

import numpy as np

from .lattice import AXIS_NAMES, MAX_ORDER, LatinArray, gather
from .magic import MagicArray, sigma
from .params import DIMENSIONS, DIRECTIONS

LINE_KINDS = ("row", "column", "diagonal-plus", "diagonal-minus")

# cells gathered per chunk of squares: enough to amortise the per-chunk
# overhead, few enough to keep the scan's memory flat and fail_fast early
_CHUNK_CELLS = 1 << 16
# cells a slab x_0 = p must hold for the torus pass to cost no more than the
# gathers it saves: measured even at 1,681 (d=3 n=41) in a warm process, and
# cheaper from 841 (n=29) in a fresh one
_TORUS_SLAB_CELLS = 2048


@dataclass(frozen=True)
class SquareView:
    """One constituent square of a larger array, as a flat affine map.

    The square's local cell (r, c) is the cell origin + r*row_step +
    c*col_step of the array's C-ordered flat grid, whose shape is
    (order,) * dimension.  An anti tie (coordinates summing to n-1) shows
    as a step that subtracts a stride.
    """

    order: int
    square_id: str
    dimension: int
    origin: int
    row_step: int
    col_step: int

    def materialize(self, values: np.ndarray) -> np.ndarray:
        """Gather the square's n x n grid out of the full array."""
        return gather(values, self.origin, self.row_step, self.col_step)

    def embed(self, r: int, c: int) -> tuple[int, ...]:
        """Global coordinates of the square's local cell (r, c)."""
        flat = self.origin + r * self.row_step + c * self.col_step
        return tuple(map(int, np.unravel_index(flat, (self.order,) * self.dimension)))


@dataclass(frozen=True)
class Line:
    """A maximal line inside one constituent square, as global cells."""

    cells: tuple[tuple[int, ...], ...]
    kind: str
    square_id: str


@dataclass(frozen=True)
class Failure:
    line: Line | None
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a full or fail-fast scan.

    property grades what actually held: for the latin check one of
    latin / diagonal-latin / pandiagonal-latin, for the magic check one of
    semi-magic / magic / pandiagonal-magic; None when even the base grade
    failed or a fail-fast scan stopped before grading was possible.
    """

    passed: bool
    property: str | None
    lines_checked: int
    magic_sum: int | None = None
    first_failure: Failure | None = None


@lru_cache(maxsize=None)
def enumerate_squares(dimension: int, order: int) -> tuple[SquareView, ...]:
    """All constituent squares in canonical scan order."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be 2, 3 or 4, got {dimension}")
    _check_order(order)
    return tuple(_square_views(dimension, order, np.arange(_square_count(dimension, order))))


def enumerate_cubes(order: int) -> list[str]:
    """Ids of the 4n+12 constituent cubes of a 4-D array."""
    _check_order(order)
    # the first square of each cube
    shapes, values, _ = _decode(4, order, np.arange(4 * order + 12) * (3 * order + 6))
    labels = _shape_table(4)[0]
    return [labels[s][0].format(*v, m=order - 1) for s, v in zip(shapes.tolist(), values.tolist())]


def enumerate_lines(square: SquareView) -> list[Line]:
    """The 4n lines of one square, in canonical order."""
    return [_line_at(square, idx) for idx in range(4 * square.order)]


def verify_latin_pandiagonal(a: LatinArray, fail_fast: bool = False) -> VerificationReport:
    """Check that every line of every constituent square hits each symbol once.

    Grades short of a pass: latin (all rows and columns of every square),
    diagonal-latin (latin plus both main diagonals of every square).
    """
    return _scan(
        a.values,
        magic_sum=None,
        grades=("latin", "diagonal-latin", "pandiagonal-latin"),
        fail_fast=fail_fast,
    )


def verify_magic_pandiagonal(m: MagicArray, fail_fast: bool = False) -> VerificationReport:
    """Check a candidate magic array by line sums.

    First requires the values to be a permutation of 0..n**d - 1, then
    checks that every line of every constituent square sums to the magic
    constant n*(n**d - 1)/2.  Grades short of a pass: semi-magic (rows and
    columns), magic (plus both main diagonals of every square).
    """
    n, d = m.order, m.dimension
    target = sigma(d, n)
    # n**d values in [0, n**d - 1] repeat one exactly when one is missing;
    # a byte per value, where bincount would copy the read-only grid
    present = np.zeros(n**d, dtype=bool)
    present[m.values.ravel()] = True
    if not present.all():
        counts = np.bincount(m.values.ravel(), minlength=n**d)
        rep = int(np.argmax(counts > 1))
        return VerificationReport(
            passed=False,
            property=None,
            lines_checked=0,
            magic_sum=target,
            first_failure=Failure(
                None, f"repeat: value {rep} appears {int(counts[rep])} times"
            ),
        )
    return _scan(
        m.values,
        magic_sum=target,
        grades=("semi-magic", "magic", "pandiagonal-magic"),
        fail_fast=fail_fast,
    )


def _scan(
    values: np.ndarray,
    magic_sum: int | None,
    grades: tuple[str, str, str],
    fail_fast: bool,
) -> VerificationReport:
    n, d = values.shape[0], values.ndim
    cover = _line_cover(d, n)
    flat = values.ravel()
    proved = _torus_pass(values, magic_sum) if n ** (d - 1) >= _TORUS_SLAB_CELLS else None
    if proved is None:
        families, cells = np.arange(len(cover.kinds)), _CHUNK_CELLS
    else:
        # every line of a family is a torus line of its class's direction
        families = np.flatnonzero(~proved[cover.directions][cover.classes])
        # the families left come in chunks whose 20 bytes a cell (the int32 index,
        # take's intp copy of it, the int64 cells) stay below a third of the grid's 8
        cells = min(_CHUNK_CELLS, flat.size // 8)
    step = max(1, cells // (n * n))
    lines_checked = cover.square_count * 4 * n
    rows_cols_ok = main_diags_ok = True
    failure_at: tuple[int, int] | None = None

    for base in range(0, len(families), step):
        chunk = families[base : base + step]
        classes = cover.classes[chunk]
        # each family's cells: its step class's offsets moved to its origin
        index = cover.offsets.take(classes, axis=0)
        index += cover.origins[chunk, None, None]
        lines = flat.take(index)
        del index  # a chunk holds at most its index and its lines at once
        bad = _failing_lines(lines, magic_sum)
        del lines
        if not bad.size:
            continue
        line = classes[bad // n], bad % n
        rows_cols_ok &= not cover.row_col[line].any()
        main_diags_ok &= not cover.main_diag[line].any()
        if failure_at is None:
            family, k = int(chunk[bad[0] // n]), int(bad[0] % n)
            failure_at = (int(cover.squares[family]), int(cover.kinds[family]) * n + k)
            if fail_fast:
                lines_checked = failure_at[0] * 4 * n + failure_at[1] + 1
                break
        if not rows_cols_ok:
            break  # the grade is None whatever the remaining lines hold

    if failure_at is None:
        return VerificationReport(True, grades[2], lines_checked, magic_sum)
    (square,) = _square_views(d, n, np.array([failure_at[0]]))
    line = _line_at(square, failure_at[1])
    found = [int(values[c]) for c in line.cells]
    if magic_sum is None:
        reason = f"repeated symbol in {line.kind} of {square.square_id}: {found}"
    else:
        reason = f"{line.kind} of {square.square_id} sums to {sum(found)}, expected {magic_sum}"
    # a fail-fast scan stops before it can grade
    grade = None if fail_fast or not rows_cols_ok else grades[1] if main_diags_ok else grades[0]
    return VerificationReport(False, grade, lines_checked, magic_sum, Failure(line, reason))


def _torus_pass(values: np.ndarray, magic_sum: int | None) -> np.ndarray | None:
    """Whether every torus line of each row of DIRECTIONS[d] passes, or None.

    Only the directions of support <= 2 are tested; the others read False.
    One walk per pair of axes a < b reads the slabs x_a = p as views and
    writes each slab's words into a buffer whose first axis is x_b.  The
    line of e_a + e_b through the slab's cell x_b lands at x_b - p mod n,
    that of e_a - e_b at x_b + p, so each slab folds (OR, or add for magic)
    into two accumulators by two slices along their first axis.  The first
    walk, a = 0 and b = 1, also folds e_0 and tests the lines along axes 1
    .. d-1 in each slab, one reduce per axis; None means one of them
    failed, and the pass stopped at that slab.
    """
    n, d = values.shape[0], values.ndim
    op, targets = _line_test(n, magic_sum)
    row = _direction_row(d)
    unit = np.eye(d, dtype=np.int64)
    proved = np.zeros(len(DIRECTIONS[d]), dtype=bool)
    out = np.empty((n,) * (d - 1), dtype=np.int64)
    # the accumulators of e_a + e_b, e_a - e_b and, in the first walk, e_0
    totals = [[np.empty_like(out) for _ in targets] for _ in range(3)]
    for a, b in combinations(range(d), 2):
        first = b == 1
        folds = [unit[a] + unit[b], unit[a] - unit[b]] + [unit[0]] * first
        for acc in totals:
            for total in acc:
                total.fill(0)
        # slab p, its axis b first
        slabs = np.moveaxis(values, (a, b), (0, 1))
        for p in range(n):
            words = _words(slabs[p], magic_sum, out)
            if first and not all(
                (op.reduce(w, axis=x) == t).all() for x in range(d - 1) for w, t in zip(words, targets)
            ):
                return None
            for shift, acc in zip(((-p) % n, p, None)[: len(folds)], totals):
                for word, total in zip(words, acc):
                    if shift is None:
                        op(total, word, out=total)
                        continue
                    # total[(x_b + shift) mod n] folds word[x_b]
                    head, tail = total[shift:], total[:shift]
                    op(head, word[: n - shift], out=head)
                    op(tail, word[n - shift :], out=tail)
        for u, acc in zip(folds, totals):
            proved[row[tuple(u.tolist())]] = all((t == target).all() for t, target in zip(acc, targets))
    # the lines along axes 1 .. d-1 passed in every x_0 slab
    for b in range(1, d):
        proved[row[tuple(unit[b].tolist())]] = True
    return proved


@lru_cache(maxsize=None)
def _direction_row(dimension: int) -> dict[tuple[int, ...], int]:
    """The row of DIRECTIONS[dimension] holding each direction u, keyed by u and -u."""
    rows = {}
    for i, (_, u) in enumerate(DIRECTIONS[dimension]):
        rows[u] = rows[tuple(-c for c in u)] = i
    return rows


def _line_test(n: int, magic_sum: int | None) -> tuple[np.ufunc, tuple[int, ...]]:
    """(op, targets): a line passes when op folds each of its words to its target."""
    if magic_sum is not None:
        return np.add, (magic_sum,)
    if n < 64:
        return np.bitwise_or, ((1 << n) - 1,)
    return np.bitwise_or, (-1, (1 << (n - 64)) - 1)


def _words(cells: np.ndarray, magic_sum: int | None, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """The words a line test folds over cells, one array per target of _line_test.

    A magic line folds its values.  A latin line of order n <= 63 folds
    1 << v, and from 64 to MAX_ORDER a low word for the values below 64 and
    a high word for the rest, each set by in-range shifts.  out is shaped
    like cells, may be cells itself, and is overwritten; every word is laid
    out like out.
    """
    if magic_sum is None and cells.shape[-1] < 64:
        return (np.left_shift(1, cells, out=out),)
    if out is not cells:
        np.copyto(out, cells)
    if magic_sum is not None:
        return (out,)
    high = np.right_shift(out, 6)  # 1 for the values from 64 on, as every value is below 128
    low = np.bitwise_xor(high, 1)
    np.bitwise_and(out, 63, out=out)
    return np.left_shift(low, out, out=low), np.left_shift(high, out, out=high)


def _failing_lines(lines: np.ndarray, magic_sum: int | None) -> np.ndarray:
    """Flat positions of the failing lines in lines, shape (..., n), ascending.

    Overwrites lines.
    """
    op, targets = _line_test(lines.shape[-1], magic_sum)
    words = _words(lines, magic_sum, lines)
    fails = [op.reduce(w, axis=-1) != t for w, t in zip(words, targets)]
    return np.flatnonzero(np.logical_or.reduce(fails))


def _line_at(square: SquareView, index: int) -> Line:
    rows, cols = _line_table(square.order)
    flat = square.origin + rows[index] * square.row_step + cols[index] * square.col_step
    coords = np.unravel_index(flat, (square.order,) * square.dimension)
    cells = tuple(zip(*(c.tolist() for c in coords)))
    return Line(cells, LINE_KINDS[index // square.order], square.square_id)


@lru_cache(maxsize=None)
def _line_table(n: int) -> np.ndarray:
    """Local (rows, cols) of a square's 4n lines, shape (2, 4n, n).

    Line k of each kind: row k, column k, and the wrapped diagonals
    through (0, k) and (0, k-1 mod n).  int32, like the cover's offset
    tables: every flat cell of an order up to lattice.MAX_ORDER is below
    2**31.
    """
    k, p = np.ogrid[:n, :n]
    rows = np.broadcast_arrays(k, p, p, p)
    cols = np.broadcast_arrays(p, k, (p + k) % n, (n - 1 - p + k) % n)
    table = np.stack([np.concatenate(rows), np.concatenate(cols)]).astype(np.int32)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class _Cover:
    """The families of lines the scan tests, in canonical order.

    Family f is the n lines of kind kinds[f] in square squares[f], and its
    line k holds the cells origins[f] + offsets[classes[f], k].  Its step
    class, classes[f], numbers its square's shape with its kind among the
    kept (shape, kind): above order 2 no two classes share a kind and
    steps (module docstring), and order 2 has four per shape.
    row_col[c, k] and main_diag[c, k] tell whether line k of class c is a
    row or column, or a main diagonal, of some square; directions[c] is
    the row of params.DIRECTIONS holding its lines' direction up to sign.
    """

    square_count: int
    squares: np.ndarray
    kinds: np.ndarray
    classes: np.ndarray
    origins: np.ndarray
    offsets: np.ndarray
    directions: np.ndarray
    row_col: np.ndarray
    main_diag: np.ndarray


@lru_cache(maxsize=None)
def _line_cover(dimension: int, order: int) -> _Cover:
    """The families holding the first canonical occurrence of some line.

    A square's shape decides which of its kinds are kept: all four at order
    2, else those _kept_kinds leaves.  Each kept (shape, kind) is a step
    class, numbered in (shape, kind) order, with the shape's signs; the
    origins are decoded from the squares of kept families alone.
    """
    n, d = order, dimension
    _, _, row_signs, col_signs, *_ = _shape_table(d)
    shapes = _decode(d, n, np.arange(_square_count(d, n)))[0]
    kept = _kept_kinds(row_signs, col_signs) if n > 2 else np.ones((len(row_signs), 4), dtype=bool)
    square, kinds = np.divmod(np.flatnonzero(kept[shapes]).astype(np.int32), 4)
    class_of = (np.cumsum(kept) - 1).astype(np.int16).reshape(kept.shape)
    shape, kind = np.nonzero(kept)
    strides = n ** np.arange(d - 1, -1, -1)
    row_step = (row_signs[shape] @ strides).astype(np.int32)
    col_step = (col_signs[shape] @ strides).astype(np.int32)
    # a diagonal's line 0 is a main diagonal, and above order 2 also a row
    # or column where its square fixes an axis
    fixes_axis = ((row_signs[shape] == 0) & (col_signs[shape] == 0)).any(axis=1) & (n > 2)
    main_diag = (kind >= 2)[:, None] & (np.arange(n) == 0)
    row_col = (kind < 2)[:, None] | main_diag & fixes_axis[:, None]
    rows, cols = _line_table(n).reshape(2, 4, n, n)
    direction_row = _direction_row(d)
    directions = _kind_directions(row_signs, col_signs)[shape, kind].tolist()
    cover = _Cover(
        square_count=len(shapes),
        squares=square,
        kinds=kinds,
        classes=class_of[shapes[square], kinds],
        origins=_decode(d, n, square)[2].astype(np.int32),
        offsets=rows[kind] * row_step[:, None, None] + cols[kind] * col_step[:, None, None],
        directions=np.array([direction_row[tuple(u)] for u in directions], dtype=np.intp),
        row_col=row_col,
        main_diag=main_diag,
    )
    for field in vars(cover).values():
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return cover


def _kept_kinds(sr: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """Whether the cover keeps each line kind of each shape above order 2, shape (X, 4).

    sr and sc are the (X, d) row and column signs of the shapes, in order
    of first appearance.  A kind is dropped when an earlier shape has a
    family of the same direction whose relations are among this one's.
    """
    d = sr.shape[-1]
    u = _kind_directions(sr, sc).reshape(-1, d)
    # the sign s_a*s_b of each pair a<b inside one step's support, else 0
    a, b = np.triu_indices(d, 1)
    relations = (sr[:, a] * sr[:, b] + sc[:, a] * sc[:, b]).repeat(4, axis=0)
    # each family f with each earlier family g of its direction: u and -u read
    # in balanced ternary are c and -c
    direction = np.abs(u @ 3 ** np.arange(d))
    f, g = np.nonzero((direction[:, None] == direction) & np.tri(len(u), k=-1, dtype=bool))
    among = ((relations[g] == 0) | (relations[g] == relations[f])).all(axis=1)
    kept = np.ones(len(u), dtype=bool)
    kept[f[among]] = False
    return kept.reshape(-1, 4)


def _kind_directions(sr: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """The direction of each line kind of each shape, shape (X, 4, d).

    Rows run along the column signs, columns along the row signs, and the
    diagonals along their sum and difference; a square's two sign vectors
    have disjoint supports, so every entry is 0 or +-1.
    """
    return np.stack([sc, sr, sr + sc, sr - sc], axis=1)


@lru_cache(maxsize=None)
def _shape_table(dimension: int) -> tuple:
    """(face labels, id, row signs, column signs, fixed steps, anti offset) of each shape.

    The shapes come in order of first appearance.  Their labels and ids
    read {l} for the value level l fixes and {m} for n-1 (module docstring).
    """
    d = dimension
    # (labels, local axis names, steps, fixed steps, anti offset) of each box
    boxes = [((), AXIS_NAMES[:d], tuple(np.eye(d, dtype=np.int64)), (), np.zeros(d, dtype=np.int64))]
    for level in range(d - 2):
        boxes = [
            (labels + (label,), sub_names, sub_steps, fixed + (s,), anti + t)
            for labels, names, steps, fixed, anti in boxes
            for label, sub_names, sub_steps, s, t in _faces(names, steps, f"{{{level}}}")
        ]
    labels, _, steps, fixed, anti = zip(*boxes)
    # a path of face labels reads cube(l=3)/i=j, or square at d=2
    ids = tuple("".join(f"cube({x})/" for x in p[:-1]) + p[-1] if p else "square" for p in labels)
    row_signs, col_signs = np.array(steps).transpose(1, 0, 2)
    fixed = np.array(fixed, dtype=np.int64).reshape(len(boxes), d - 2, d)
    table = row_signs, col_signs, fixed, np.array(anti)
    for field in table:
        field.flags.writeable = False
    return labels, ids, *table


def _square_count(d: int, n: int) -> int:
    """Squares of a d-array: a k-box has k*n + k*(k-1) faces, each a (k-1)-box."""
    return prod(k * (n + k - 1) for k in range(3, d + 1))


def _decode(d: int, n: int, squares: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shape, fixed values and flat origin of each square index.

    Level l is a face of a k-box, k = d - l: the index's digit in radix
    k*(n+k-1).  Its first k*n faces fix axis face // n to face % n, and each
    tie after them is a face kind, so the shape's digit in radix k*k is
    face // n or face - k*(n-1).  A tie's value reads 0.
    """
    shapes = np.zeros_like(squares)
    values = np.empty((len(squares), d - 2), dtype=np.int64)
    for level, k in enumerate(range(d, 2, -1)):
        face, squares = np.divmod(squares, _square_count(k - 1, n))
        fixed = face < k * n
        shapes = shapes * k * k + np.where(fixed, face // n, face - k * (n - 1))
        values[:, level] = np.where(fixed, face % n, 0)
    strides = n ** np.arange(d - 1, -1, -1)
    steps, anti = (table @ strides for table in _shape_table(d)[4:])
    return shapes, values, (values * steps[shapes]).sum(axis=1) + (n - 1) * anti[shapes]


def _square_views(d: int, n: int, squares: np.ndarray) -> list[SquareView]:
    """The SquareView of each square index."""
    _, ids, row_signs, col_signs, *_ = _shape_table(d)
    shapes, values, origins = _decode(d, n, squares)
    strides = n ** np.arange(d - 1, -1, -1)
    rows, cols = (signs[shapes] @ strides for signs in (row_signs, col_signs))
    maps = zip(shapes.tolist(), values.tolist(), origins.tolist(), rows.tolist(), cols.tolist())
    return [SquareView(n, ids[s].format(*v, m=n - 1), d, *m) for s, v, *m in maps]


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} above array cap {MAX_ORDER}")


def _faces(names: tuple[str, ...], steps: tuple[np.ndarray, ...], value: str) -> Iterator[tuple]:
    """The face kinds of a k-box as (label, local axis names, steps, fixed step, anti step).

    A face fixes local axis a to a value v, which moves the origin by v
    times its fixed step, or ties local axes a<b equal or anti, an anti tie
    moving it by n-1 times its anti step (module docstring).  Its label
    reads value for v and {m} for n-1.
    """
    k, zero = len(names), 0 * steps[0]
    for a in range(k):
        yield f"{names[a]}={value}", names[:a] + names[a + 1 :], steps[:a] + steps[a + 1 :], steps[a], zero
    for a, b in combinations(range(k), 2):
        rest = [x for x in range(k) if x not in (a, b)]
        sub_names = (names[a] + names[b], *(names[x] for x in rest))
        rest_steps = tuple(steps[x] for x in rest)
        yield f"{names[a]}={names[b]}", sub_names, (steps[a] + steps[b], *rest_steps), zero, zero
        yield f"{names[a]}+{names[b]}={{m}}", sub_names, (steps[a] - steps[b], *rest_steps), zero, steps[b]
