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

The verifier reads only the value grid, never construction provenance.
A box is an affine map of its local coordinates into the grid, origin
plus one step per local axis, starting from the whole array with step
e_x along axis x.  Fixing axis a to v moves the origin by v*steps[a];
tying a<b equal adds their steps, tying them anti subtracts steps[b] and
moves the origin by (n-1)*steps[b].  No face wraps, so each square is
exactly the map origin + r*row_step + c*col_step, and times the strides
n**(d-1-x) it is a flat map into the C-ordered grid.  The scan's table of
squares applies the rule a level at a time, to every box of a level as
arrays.  A failing square is named by its index: the k*n + k*(k-1) faces
of a k-box hold equally many squares, so the index picks one face per
level.  One line table holds the local cells of a square's lines;
enumerate_lines and the failure report read it, and the scan reads it
through the step-class tables below.

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

The cover follows from a rule free of n.  A square's shape is its face
kind at each level (a fixed axis, whatever its value, or which tie): 1, 9
and 144 shapes at d=2, 3 and 4, each with one pair of steps.  Rows run
along col_step, columns along row_step and diagonals along row_step +-
col_step; above order 2 a line's cells fix that direction u up to sign.
Each pair of axes a<b in the support of one step s gives the shape a
relation, x_b = x_a if s_a*s_b = 1 and x_b = n-1 - x_a if not, and a
square is exactly the cells meeting its shape's relations and fixed
values.  So each line of a family of shape X is a line of a square of any
shape Y that has a family of direction u and relations among X's.  When
Y appears before X, that square comes first too (shapes appear in the
order of their face kinds, level by level, and two squares holding one
line with the same fixed-axis top face lie in one cube), and the family
is dropped.  The cover keeps the rest; the tests check them against
brute-force first occurrences and the counts 4, 9n+12 and 16n^2+48n+56
at d=2, 3 and 4.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import prod
from typing import Iterator

import numpy as np

from .lattice import AXIS_NAMES, LatinArray, gather
from .magic import MagicArray, sigma
from .params import DIMENSIONS

LINE_KINDS = ("row", "column", "diagonal-plus", "diagonal-minus")

# cells gathered per chunk of squares: enough to amortise the per-chunk
# overhead, few enough to keep the scan's memory flat and fail_fast early
_CHUNK_CELLS = 1 << 16


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
    # (face labels, local axis names, origin, steps) of each box
    boxes = iter([((), *_whole_box(dimension, order))])
    for _ in range(dimension - 2):
        boxes = (
            (labels + (label,), *face)
            for labels, *box in boxes
            for label, *face in _faces(order, *box)
        )
    return tuple(
        SquareView(order, _square_id(labels), dimension, origin, *steps)
        for labels, _, origin, steps in boxes
    )


def enumerate_cubes(order: int) -> list[str]:
    """Ids of the 4n+12 constituent cubes of a 4-D array."""
    _check_order(order)
    return [label for label, *_ in _faces(order, *_whole_box(4, order))]


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
    step = max(1, _CHUNK_CELLS // (n * n))
    lines_checked = cover.square_count * 4 * n
    rows_cols_ok = main_diags_ok = True
    failure_at: tuple[int, int] | None = None

    for base in range(0, len(cover.kinds), step):
        chunk = slice(base, base + step)
        # each family's cells: its step class's offsets moved to its origin
        index = cover.offsets.take(cover.classes[chunk], axis=0)
        index += cover.origins[chunk, None, None]
        lines = flat.take(index)
        del index  # a chunk holds at most its index and its lines at once
        bad = _failing_lines(lines, magic_sum)
        del lines
        if not bad.size:
            continue
        line = cover.classes[chunk][bad // n], bad % n
        rows_cols_ok &= not cover.row_col[line].any()
        main_diags_ok &= not cover.main_diag[line].any()
        if failure_at is None:
            family, k = divmod(base * n + int(bad[0]), n)
            failure_at = (int(cover.squares[family]), int(cover.kinds[family]) * n + k)
            if fail_fast:
                lines_checked = failure_at[0] * 4 * n + failure_at[1] + 1
                break
        if not rows_cols_ok:
            break  # the grade is None whatever the remaining lines hold

    if failure_at is None:
        return VerificationReport(True, grades[2], lines_checked, magic_sum)
    square = _square_at(d, n, failure_at[0])
    line = _line_at(square, failure_at[1])
    found = [int(values[c]) for c in line.cells]
    if magic_sum is None:
        reason = f"repeated symbol in {line.kind} of {square.square_id}: {found}"
    else:
        reason = f"{line.kind} of {square.square_id} sums to {sum(found)}, expected {magic_sum}"
    # a fail-fast scan stops before it can grade
    grade = None if fail_fast or not rows_cols_ok else grades[1] if main_diags_ok else grades[0]
    return VerificationReport(False, grade, lines_checked, magic_sum, Failure(line, reason))


def _failing_lines(lines: np.ndarray, magic_sum: int | None) -> np.ndarray:
    """Flat positions of the failing lines in lines, shape (..., n), ascending.

    Overwrites lines.  A magic line fails when its sum is not magic_sum,
    and a latin line when its bit set is not full: one int64 word for
    orders below 64, and from 64 to MAX_ORDER a low word for the values
    below 64 and a high word for the rest, each set by in-range shifts.
    """
    n = lines.shape[-1]
    if magic_sum is not None:
        return np.flatnonzero(lines.sum(axis=-1) != magic_sum)
    if n < 64:
        np.left_shift(1, lines, out=lines)
        return np.flatnonzero(np.bitwise_or.reduce(lines, axis=-1) != (1 << n) - 1)
    high = np.right_shift(lines, 6)  # 1 for the values from 64 on, as every value is below 128
    low = np.bitwise_xor(high, 1)
    np.bitwise_and(lines, 63, out=lines)
    np.left_shift(low, lines, out=low)
    np.left_shift(high, lines, out=high)
    low, high = (np.bitwise_or.reduce(word, axis=-1) for word in (low, high))
    return np.flatnonzero((low != -1) | (high != (1 << (n - 64)) - 1))


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

    A family is the n lines of one kind in one square.  Family f is kind
    kinds[f] of square squares[f].  Its step class, classes[f], numbers
    its square's shape with its kind among the kept (shape, kind), and its
    line k holds the cells origins[f] + offsets[classes[f], k].  Above
    order 2 no other class has its kind and steps (module docstring); at
    order 2 there are four per shape.  row_col[c, k] and
    main_diag[c, k] tell whether line k of a family of class c is a row
    or column, or a main diagonal, of some square, by the flag rule of
    the module docstring.
    """

    square_count: int
    squares: np.ndarray
    kinds: np.ndarray
    classes: np.ndarray
    origins: np.ndarray
    offsets: np.ndarray
    row_col: np.ndarray
    main_diag: np.ndarray


@lru_cache(maxsize=None)
def _line_cover(dimension: int, order: int) -> _Cover:
    """The families holding the first canonical occurrence of some line.

    A square's shape decides which of its kinds are kept: all four at order
    2, else those _kept_kinds leaves.  Each kept (shape, kind) is a step
    class, numbered in (shape, kind) order.
    """
    n, d = order, dimension
    origins, _, _, shapes = _square_coords(d, n)
    # the row and column signs of each shape: at order 1 each face kind has one face
    _, row_signs, col_signs, _ = _square_coords(d, 1)
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
    cover = _Cover(
        square_count=len(shapes),
        squares=square,
        kinds=kinds,
        classes=class_of[shapes[square], kinds],
        origins=(origins[square] @ strides).astype(np.int32),
        offsets=rows[kind] * row_step[:, None, None] + cols[kind] * col_step[:, None, None],
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
    u = np.stack([sc, sr, sr + sc, sr - sc], axis=1).reshape(-1, d)
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


def _square_coords(dimension: int, order: int) -> tuple[np.ndarray, ...]:
    """Origin cell, row signs, column signs and shape of every square.

    The first three are (S, d) arrays.  A shape is the square's face kind
    at every level: a k-box has k*k face kinds, n faces fixing each axis
    and then one per tie, so the shapes number the squares of
    _square_coords(d, 1).  _faces runs once per box level, on the origins
    and steps of every box of the level as (boxes, d) arrays of coordinates
    and sign vectors; its face-major output is stacked box-major.  A
    failing square is named by its index instead, through _square_at, one
    face per level.
    """
    d = dimension
    # the whole array: origin 0, local axis x along global axis x
    maps = [np.zeros((1, d), dtype=np.int64), *np.eye(d, dtype=np.int64)[:, None]]
    shapes = np.zeros(1, dtype=np.int64)
    for k in range(d, 2, -1):
        faces = _faces(order, AXIS_NAMES[:k], maps[0], tuple(maps[1:]))
        # (origin, *steps) of each face over every box, stacked so box b's faces stay together
        columns = zip(*((origin, *steps) for _, _, origin, steps in faces))
        maps = [np.stack(column, axis=1).reshape(-1, d) for column in columns]
        kinds = np.repeat(np.arange(k * k), [order] * k + [1] * (k * k - k))
        shapes = (shapes[:, None] * k * k + kinds).ravel()
    origins, row_signs, col_signs = maps
    return origins, row_signs, col_signs, shapes


def _square_at(dimension: int, order: int, index: int) -> SquareView:
    """Square index of the canonical order, found by descending one face per level."""
    labels: tuple[str, ...] = ()
    box = _whole_box(dimension, order)
    for k in range(dimension, 2, -1):
        # each face of a k-box is a (k-1)-box, and a j-box has j*n + j*(j-1) faces
        face, index = divmod(index, prod(j * (order + j - 1) for j in range(3, k)))
        label, *box = next(islice(_faces(order, *box), face, None))
        labels += (label,)
    _, origin, steps = box
    return SquareView(order, _square_id(labels), dimension, origin, *steps)


def _square_id(labels: tuple[str, ...]) -> str:
    """Id of the square reached by a path of face labels: cube(l=3)/i=j, or square."""
    return "".join(f"cube({x})/" for x in labels[:-1]) + labels[-1] if labels else "square"


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")


def _whole_box(dimension: int, order: int) -> tuple[tuple[str, ...], int, tuple[int, ...]]:
    """The whole array as a box: local axis x is global axis x, with stride n**(d-1-x)."""
    strides = tuple(order ** (dimension - 1 - x) for x in range(dimension))
    return tuple(AXIS_NAMES[:dimension]), 0, strides


def _faces(
    n: int, names: tuple[str, ...], origin: int, steps: tuple[int, ...]
) -> Iterator[tuple[str, tuple[str, ...], int, tuple[int, ...]]]:
    """The (k-1)-boxes of a k-box as (label, local axis names, origin, steps).

    names labels the box's k local axes and steps holds their steps.
    A face fixes local axis a to v, or ties local axes a<b equal or anti;
    the tied pair becomes the face's first local axis and the remaining
    axes follow in order.
    """
    k = len(names)
    for a in range(k):
        sub_names, sub_steps = names[:a] + names[a + 1 :], steps[:a] + steps[a + 1 :]
        for v in range(n):
            yield f"{names[a]}={v}", sub_names, origin + v * steps[a], sub_steps
    for a, b in combinations(range(k), 2):
        rest = [x for x in range(k) if x not in (a, b)]
        sub_names = (names[a] + names[b], *(names[x] for x in rest))
        rest_steps = tuple(steps[x] for x in rest)
        yield f"{names[a]}={names[b]}", sub_names, origin, (steps[a] + steps[b], *rest_steps)
        # anti: x_b = n-1 - x_a
        anti_origin, anti_step = origin + (n - 1) * steps[b], steps[a] - steps[b]
        yield f"{names[a]}+{names[b]}={n - 1}", sub_names, anti_origin, (anti_step, *rest_steps)
