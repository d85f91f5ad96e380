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

A family's step class is its line kind with its square's (row_step,
col_step).  The class alone fixes where the family's cells lie relative
to the square's origin, and there are at most 4, 21 and 120 classes at
d=2, 3 and 4, so the cover keeps one int32 table of those offsets per
class and a chunk's cells are its families' class tables plus their
origins.  A magic line is tested by its sum.  A latin line of order
n <= 63 is tested by its bit set: the values lie in [0, n-1], so
OR(1 << v) over the line's n cells is 2**n - 1, which fits an int64,
exactly when its n values are distinct.  Larger orders sort each line.
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
from .params import DIMENSIONS, DIRECTIONS

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
        rows_cols_ok &= not cover.row_col[chunk].ravel()[bad].any()
        main_diags_ok &= not cover.main_diag[chunk].ravel()[bad].any()
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
    a latin line of order below 64 when its bit set is not full, and a
    longer latin line when sorted it is not 0..n-1; a line failed by
    sorting is listed once per misplaced value.
    """
    n = lines.shape[-1]
    if magic_sum is not None:
        return np.flatnonzero(lines.sum(axis=-1) != magic_sum)
    if n < 64:
        np.left_shift(1, lines, out=lines)
        return np.flatnonzero(np.bitwise_or.reduce(lines, axis=-1) != (1 << n) - 1)
    lines.sort(axis=-1)
    return np.flatnonzero(lines != np.arange(n)) // n


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
    kinds[f] of square squares[f].  Its step class, classes[f], is its
    kind with its square's (row_step, col_step), and its line k holds the
    cells origins[f] + offsets[classes[f], k].  row_col[f, k] and
    main_diag[f, k] tell whether line k of the family is a row or column,
    or a main diagonal, of some square.
    """

    square_count: int
    squares: np.ndarray
    kinds: np.ndarray
    classes: np.ndarray
    origins: np.ndarray
    offsets: np.ndarray
    row_col: np.ndarray
    main_diag: np.ndarray


_SEEN, _ROW_COL, _MAIN_DIAG = 1, 2, 4


@lru_cache(maxsize=None)
def _line_cover(dimension: int, order: int) -> _Cover:
    """The families holding the first canonical occurrence of some line.

    One byte per line key records whether the key was seen, and whether it
    is a row or column or a main diagonal anywhere.  Pass one walks the
    squares in chunks and keeps each family that holds a new key; pass two
    reads the flags of the kept families' lines.
    """
    n, d = order, dimension
    coords = _square_coords(d, n)
    directions = _direction_index(d)
    seen = np.zeros(len(DIRECTIONS[d]) * n ** (d - 1), dtype=np.uint8)
    step = max(1, _CHUNK_CELLS // (4 * n))  # squares whose line keys fill one chunk
    families = []
    for base in range(0, len(coords), step):
        square = np.arange(base, min(base + step, len(coords))).repeat(4)
        kinds = np.tile(np.arange(4), len(square) // 4)
        keys = _line_keys(n, directions, coords[square], kinds)
        seen[keys[kinds < 2]] |= _ROW_COL
        seen[keys[kinds >= 2, 0]] |= _MAIN_DIAG
        keys = keys.ravel()
        fresh = np.flatnonzero((seen[keys] & _SEEN) == 0)
        # each fresh key's first position: sort (key, position) packed in an int64
        pairs = np.sort(keys[fresh].astype(np.int64) << 32 | fresh)
        first = np.ones(len(pairs), dtype=bool)
        first[1:] = pairs[1:] >> 32 != pairs[:-1] >> 32
        new = pairs[first] & 0xFFFFFFFF
        seen[keys[new]] |= _SEEN
        holds = np.zeros(len(kinds), dtype=bool)
        holds[new // n] = True
        families.append(4 * base + np.flatnonzero(holds))
    square, kinds = np.divmod(np.concatenate(families).astype(np.int32), 4)
    chunks = [slice(b, b + 4 * step) for b in range(0, len(square), 4 * step)]
    flags = np.concatenate(
        [seen[_line_keys(n, directions, coords[square[c]], kinds[c])] for c in chunks]
    )
    strides = n ** np.arange(d - 1, -1, -1)
    maps = (coords[square] @ strides).astype(np.int32)  # origin, row_step, col_step
    step_classes, classes = np.unique(
        np.column_stack([kinds, maps[:, 1:]]), axis=0, return_inverse=True
    )
    kind, row_step, col_step = step_classes.T
    rows, cols = _line_table(n).reshape(2, 4, n, n)
    cover = _Cover(
        square_count=len(coords),
        squares=square,
        kinds=kinds,
        classes=classes.reshape(-1).astype(np.int16),
        origins=maps[:, 0].copy(),
        offsets=rows[kind] * row_step[:, None, None] + cols[kind] * col_step[:, None, None],
        row_col=(flags & _ROW_COL) != 0,
        main_diag=(flags & _MAIN_DIAG) != 0,
    )
    arrays = (cover.squares, cover.kinds, cover.classes, cover.origins, cover.offsets)
    for field in (*arrays, cover.row_col, cover.main_diag):
        field.flags.writeable = False
    return cover


def _line_keys(
    n: int, directions: np.ndarray, squares: np.ndarray, kinds: np.ndarray
) -> np.ndarray:
    """Key of each line of each family, shape (F, n).

    squares holds the (origin, row signs, column signs) of each family's
    square, kinds its line kind.  Line k of a family is the torus orbit of
    a direction u through a base cell b + k*w.  The key names u, made to
    start with +1 (at n=2, where -1 = +1, its support), and the base cell
    moved along u to a zero in u's first nonzero coordinate f, with
    coordinate f dropped.  Equal keys are equal cell sets.
    """
    o, sr, sc = squares.transpose(1, 0, 2)
    fam = np.arange(len(kinds))
    u = np.stack([sc, sr, sr + sc, sr - sc])[kinds, fam]
    w = np.where((kinds == 0)[:, None], sr, sc)
    b = o + np.where((kinds == 3)[:, None], (n - 1) * sc, 0)
    f = (u != 0).argmax(axis=1)
    u *= u[fam, f][:, None]
    if n == 2:
        u = np.abs(u)
    # base k moved along u: b + k*w - (b + k*w)[f]*u, whose steps lie in -2..2
    b -= b[fam, f][:, None] * u
    b %= n
    w -= w[fam, f][:, None] * u
    d = u.shape[1]
    powers = n ** np.arange(d - 1, -1, -1)
    weights = np.where(np.arange(d) < f[:, None], powers // n, powers).astype(np.int32)
    # orbit[c, s + 2, k] is coordinate c after k steps of s, mod n
    k = np.arange(n)
    orbit = ((k[:, None, None] + np.arange(-2, 3)[:, None] * k) % n).astype(np.int32)
    keys = (directions[_direction_code(u)] * n ** (d - 1))[:, None]
    for x in range(d):
        keys = keys + orbit[b[:, x], w[:, x] + 2] * weights[:, x, None]
    return keys


def _direction_code(u: np.ndarray) -> np.ndarray:
    """Base-3 code of sign vectors in {0,+-1}^d, one per row."""
    return (u % 3) @ (3 ** np.arange(u.shape[-1] - 1, -1, -1))


@lru_cache(maxsize=None)
def _direction_index(dimension: int) -> np.ndarray:
    """Row of each line direction in params.DIRECTIONS, indexed by its base-3 code."""
    units = np.array([u for _, u in DIRECTIONS[dimension]])
    units *= units[np.arange(len(units)), (units != 0).argmax(axis=1)][:, None]
    index = np.zeros(3**dimension, dtype=np.int32)
    index[_direction_code(units)] = np.arange(len(units))
    index.flags.writeable = False
    return index


def _square_coords(dimension: int, order: int) -> np.ndarray:
    """Origin cell, row signs and column signs of every square, shape (S, 3, d).

    _faces runs once per box level, on the origins and steps of every box
    of the level as (boxes, d) arrays of coordinates and sign vectors; its
    face-major output is stacked box-major.  A failing square is named by
    its index instead, through _square_at, one face per level.
    """
    d = dimension
    # the whole array: origin 0, local axis x along global axis x
    maps = [np.zeros((1, d), dtype=np.int64), *np.eye(d, dtype=np.int64)[:, None]]
    for k in range(d, 2, -1):
        faces = _faces(order, AXIS_NAMES[:k], maps[0], tuple(maps[1:]))
        # (origin, *steps) of each face over every box, stacked so box b's faces stay together
        columns = zip(*((origin, *steps) for _, _, origin, steps in faces))
        maps = [np.stack(column, axis=1).reshape(-1, d) for column in columns]
    return np.stack(maps, axis=1)


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
