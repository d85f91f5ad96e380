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
Bindings never wrap, so each square is a flat affine map: its cell (r, c)
is the flat cell origin + r*row_step + c*col_step of the array.  One line
table holds the local cells of a square's lines (rows, columns,
diagonal-plus, diagonal-minus); the scan, the failure report and
enumerate_lines all read it.  The scan gathers the lines of a chunk of
squares, sized in cells, with one fancy index and tests each line with
one sort (latin) or one sum (magic).  Squares are scanned in a fixed
documented order, so the first reported failure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .lattice import AXIS_NAMES, LatinArray, cell_index, gather
from .magic import MagicArray, sigma
from .params import DIMENSIONS

LINE_KINDS = ("row", "column", "diagonal-plus", "diagonal-minus")

# cells gathered per chunk of squares: enough to amortise the per-chunk
# overhead, few enough to keep the scan's memory flat and fail_fast early
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class SquareView:
    """One constituent square of a larger array.

    axes holds one binding per global axis in the lattice binding form:
    ("const", v) pins a coordinate, (0, flip) / (1, flip) map the square's
    own row or column index onto the axis, reversed when flip is set.
    Anti ties (coordinates summing to n-1) are exactly the flipped
    bindings.
    """

    order: int
    square_id: str
    axes: tuple[tuple, ...]

    def materialize(self, values: np.ndarray) -> np.ndarray:
        """Gather the square's n x n grid out of the full array."""
        return gather(values, self.axes)

    def embed(self, r: int, c: int) -> tuple[int, ...]:
        """Global coordinates of the square's local cell (r, c)."""
        return cell_index(self.axes, (r, c), self.order)


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
    n = order
    # (labels, local axis names, bindings of the global axes) of each box
    boxes = iter([((), AXIS_NAMES[:dimension], _unbound(dimension))])
    for _ in range(dimension - 2):
        boxes = (
            (labels + (label,), sub_names, sub_axes)
            for labels, names, axes in boxes
            for label, sub_names, sub_axes in _faces(n, names, axes)
        )
    return tuple(
        SquareView(n, "".join(f"cube({x})/" for x in labels[:-1]) + labels[-1], axes)
        if labels
        else SquareView(n, "square", axes)
        for labels, _, axes in boxes
    )


def enumerate_cubes(order: int) -> list[str]:
    """Ids of the 4n+12 constituent cubes of a 4-D array."""
    _check_order(order)
    return [label for label, _, _ in _faces(order, AXIS_NAMES, _unbound(4))]


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
    corners = [
        sq.embed(r, c)
        for sq in enumerate_squares(dimension, order)
        for r, c in ((0, 0), (1, 0), (0, 1))
    ]
    table = np.ravel_multi_index(tuple(np.array(corners).T), (order,) * dimension).reshape(-1, 3)
    table[:, 1:] -= table[:, :1]
    table.flags.writeable = False
    return table


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")


def _unbound(dimension: int) -> tuple[tuple, ...]:
    """Bindings of the whole array as a box: global axis x is local axis x."""
    return tuple((x, False) for x in range(dimension))


def _faces(
    n: int, names: Sequence[str], axes: tuple[tuple, ...]
) -> Iterator[tuple[str, tuple[str, ...], tuple[tuple, ...]]]:
    """The (k-1)-boxes of a k-box as (label, local axis names, global bindings).

    names labels the box's k local axes and axes binds every global axis
    to a constant or to one of them.  A face fixes local axis a to v, or
    ties local axes a<b equal or anti; the tied pair becomes the face's
    first local axis and the remaining axes follow in order.
    """
    k = len(names)

    def bind(face: dict[int, tuple]) -> tuple[tuple, ...]:
        # face maps each local axis of the box to ("const", v) or (face axis, flip)
        out = []
        for binding in axes:
            src, arg = binding
            if src != "const":
                binding = face[src]
                if arg:  # the box runs this axis reversed
                    src, x = binding
                    binding = ("const", (n - 1) - x) if src == "const" else (src, not x)
            out.append(binding)
        return tuple(out)

    for a in range(k):
        rest = [x for x in range(k) if x != a]
        sub_names = tuple(names[x] for x in rest)
        face = {x: (i, False) for i, x in enumerate(rest)}
        for v in range(n):
            face[a] = ("const", v)
            yield f"{names[a]}={v}", sub_names, bind(face)
    for a, b in combinations(range(k), 2):
        rest = [x for x in range(k) if x not in (a, b)]
        sub_names = (names[a] + names[b], *(names[x] for x in rest))
        face = {a: (0, False), **{x: (i, False) for i, x in enumerate(rest, 1)}}
        for anti in (False, True):
            face[b] = (0, anti)
            label = f"{names[a]}+{names[b]}={n - 1}" if anti else f"{names[a]}={names[b]}"
            yield label, sub_names, bind(face)
