"""Construction-blind verification by exhaustive line enumeration.

A d-dimensional array is checked through its constituent squares, built
by one rule applied d-2 times: the (k-1)-boxes of a k-box fix one local
axis to a value (k*n of them) or tie two local axes a<b equal or summing
to n-1 (2*C(k,2) of them; the tied pair becomes the first local axis and
the rest follow in order).  That gives the single square itself for d=2,
3n+6 squares for d=3, and for d=4 the 4n+12 constituent cubes with 3n+6
squares each.  Every square contributes 4n lines: n rows, n columns, n
wrapped diagonals in each of the two orientations (offset 0 being the two
main diagonals).

The verifier reads only the value grid, never construction provenance.
A box is a flat affine map of its local coordinates into the C-ordered
grid, origin plus one step per local axis, starting from the whole array
with steps n**(d-1-x).  Fixing axis a to v moves the origin by v*steps[a];
tying a<b equal adds their steps, tying them anti subtracts steps[b] and
moves the origin by (n-1)*steps[b].  No face wraps, so each square is
exactly the map origin + r*row_step + c*col_step.  One line table holds
the local cells of a square's lines (rows, columns, diagonal-plus,
diagonal-minus); the scan, the failure report and enumerate_lines all
read it.  The scan gathers the lines of a chunk of squares, sized in
cells, with one fancy index and tests each line with one sort (latin) or
one sum (magic).  Squares are scanned in a fixed documented order, so the
first reported failure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    # (labels, local axis names, origin, steps) of each box
    boxes = iter([((), *_whole_box(dimension, order))])
    for _ in range(dimension - 2):
        boxes = (
            (labels + (label,), *face)
            for labels, *box in boxes
            for label, *face in _faces(order, *box)
        )
    return tuple(
        SquareView(
            order,
            "".join(f"cube({x})/" for x in labels[:-1]) + labels[-1] if labels else "square",
            dimension,
            origin,
            *steps,
        )
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
    counts = np.bincount(m.values.ravel(), minlength=n**d)
    if counts.max() > 1:
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
    squares = enumerate_squares(d, n)
    table = _square_table(d, n)
    rows, cols = _line_table(n)
    step = max(1, _CHUNK_CELLS // rows.size)
    lines_checked = len(squares) * 4 * n
    rows_cols_ok = main_diags_ok = True
    failure_at: tuple[int, int] | None = None

    for base in range(0, len(squares), step):
        origin, row_step, col_step = table[base : base + step].T[:, :, None, None]
        lines = values.ravel()[origin + rows * row_step + cols * col_step]
        if magic_sum is None:
            lines.sort(axis=2)
            ok = (lines == np.arange(n)).all(axis=2)
        else:
            ok = lines.sum(axis=2) == magic_sum
        rows_cols_ok &= bool(ok[:, : 2 * n].all())
        main_diags_ok &= bool(ok[:, [2 * n, 3 * n]].all())
        if failure_at is None and not ok.all():
            s_idx, l_idx = np.argwhere(~ok)[0]
            failure_at = (base + int(s_idx), int(l_idx))
            if fail_fast:
                lines_checked = failure_at[0] * 4 * n + failure_at[1] + 1
                break

    if failure_at is None:
        return VerificationReport(True, grades[2], lines_checked, magic_sum)
    square = squares[failure_at[0]]
    line = _line_at(square, failure_at[1])
    found = [int(values[c]) for c in line.cells]
    if magic_sum is None:
        reason = f"repeated symbol in {line.kind} of {square.square_id}: {found}"
    else:
        reason = f"{line.kind} of {square.square_id} sums to {sum(found)}, expected {magic_sum}"
    # a fail-fast scan stops before it can grade
    grade = None if fail_fast or not rows_cols_ok else grades[1] if main_diags_ok else grades[0]
    return VerificationReport(False, grade, lines_checked, magic_sum, Failure(line, reason))


def _line_at(square: SquareView, index: int) -> Line:
    rows, cols = _line_table(square.order)
    cells = tuple(map(square.embed, rows[index].tolist(), cols[index].tolist()))
    return Line(cells, LINE_KINDS[index // square.order], square.square_id)


@lru_cache(maxsize=None)
def _line_table(n: int) -> np.ndarray:
    """Local (rows, cols) of a square's 4n lines, shape (2, 4n, n).

    Line k of each kind: row k, column k, and the wrapped diagonals
    through (0, k) and (0, k-1 mod n).
    """
    k, p = np.ogrid[:n, :n]
    rows = np.broadcast_arrays(k, p, p, p)
    cols = np.broadcast_arrays(p, k, (p + k) % n, (n - 1 - p + k) % n)
    table = np.stack([np.concatenate(rows), np.concatenate(cols)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _square_table(dimension: int, order: int) -> np.ndarray:
    """Flat (origin, row_step, col_step) of every constituent square, shape (S, 3)."""
    table = np.array(
        [(sq.origin, sq.row_step, sq.col_step) for sq in enumerate_squares(dimension, order)],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")


def _whole_box(dimension: int, n: int) -> tuple[tuple[str, ...], int, tuple[int, ...]]:
    """The whole array as a box: local axis x is global axis x, with C-order stride n**(d-1-x)."""
    strides = tuple(n ** (dimension - 1 - x) for x in range(dimension))
    return tuple(AXIS_NAMES[:dimension]), 0, strides


def _faces(
    n: int, names: tuple[str, ...], origin: int, steps: tuple[int, ...]
) -> Iterator[tuple[str, tuple[str, ...], int, tuple[int, ...]]]:
    """The (k-1)-boxes of a k-box as (label, local axis names, origin, steps).

    names labels the box's k local axes and steps holds their flat steps.
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
