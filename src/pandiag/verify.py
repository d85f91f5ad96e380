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
Squares are scanned in a fixed documented order and lines within a square
in the order rows, columns, diagonal-plus, diagonal-minus, so the first
reported failure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .lattice import AXIS_NAMES, LatinArray, cell_index, gather
from .params import DIMENSIONS

if TYPE_CHECKING:  # pragma: no cover
    from .magic import MagicArray

LINE_KINDS = ("row", "column", "diagonal-plus", "diagonal-minus")

# squares are checked in batches to keep fancy-indexing overhead down while
# still letting fail_fast stop early on big d=4 scans
_CHUNK = 256


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
    return [label for label, _, _ in _faces(order, AXIS_NAMES, _unbound(4))]


def enumerate_lines(square: SquareView) -> list[Line]:
    """The 4n lines of one square, in canonical order."""
    n = square.order
    return [_line_at(square, idx) for idx in range(4 * n)]


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


def verify_magic_pandiagonal(m: "MagicArray", fail_fast: bool = False) -> VerificationReport:
    """Check a candidate magic array by line sums.

    First requires the values to be a permutation of 0..n**d - 1, then
    checks that every line of every constituent square sums to the magic
    constant n*(n**d - 1)/2.  Grades short of a pass: semi-magic (rows and
    columns), magic (plus both main diagonals of every square).
    """
    n, d = m.order, m.dimension
    target = n * (n**d - 1) // 2
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
    lines_checked = len(squares) * 4 * n
    rows_cols_ok = True
    main_diags_ok = True
    all_ok = True
    stopped_early = False
    failure_at: tuple[int, int] | None = None

    for base in range(0, len(squares), _CHUNK):
        chunk = squares[base : base + _CHUNK]
        grids = np.stack([sq.materialize(values) for sq in chunk])
        ok = _line_ok(grids, magic_sum)
        rows_cols_ok &= bool(ok[:, : 2 * n].all())
        main_diags_ok &= bool(ok[:, 2 * n].all()) and bool(ok[:, 3 * n].all())
        if not ok.all():
            all_ok = False
            if failure_at is None:
                s_idx, l_idx = np.argwhere(~ok)[0]
                failure_at = (base + int(s_idx), int(l_idx))
            if fail_fast:
                lines_checked = failure_at[0] * 4 * n + failure_at[1] + 1
                stopped_early = True
                break

    if all_ok:
        prop: str | None = grades[2]
    elif stopped_early:
        prop = None
    elif rows_cols_ok:
        prop = grades[1] if main_diags_ok else grades[0]
    else:
        prop = None

    first_failure = None
    if failure_at is not None:
        square = squares[failure_at[0]]
        line = _line_at(square, failure_at[1])
        cells_vals = [int(values[c]) for c in line.cells]
        if magic_sum is None:
            reason = f"repeated symbol in {line.kind} of {square.square_id}: {cells_vals}"
        else:
            reason = (
                f"{line.kind} of {square.square_id} sums to {sum(cells_vals)},"
                f" expected {magic_sum}"
            )
        first_failure = Failure(line, reason)

    return VerificationReport(
        passed=all_ok,
        property=prop,
        lines_checked=lines_checked,
        magic_sum=magic_sum,
        first_failure=first_failure,
    )


def _line_ok(grids: np.ndarray, magic_sum: int | None) -> np.ndarray:
    """(squares, 4n) line outcomes in canonical within-square order."""
    n = grids.shape[1]
    coords = np.arange(n)
    offsets = coords[:, None]
    positions = coords[None, :]
    # entry (offset o, position p) of the two diagonal families reads the
    # square at row p, column (p +/- ...) wrapped mod n
    dplus = grids[:, positions, (positions + offsets) % n]
    dminus = grids[:, positions, (n - 1 - positions + offsets) % n]
    blocks = (grids, grids.transpose(0, 2, 1), dplus, dminus)
    oks = []
    for block in blocks:
        if magic_sum is None:
            oks.append((np.sort(block, axis=2) == coords).all(axis=2))
        else:
            oks.append(block.sum(axis=2, dtype=np.int64) == magic_sum)
    return np.concatenate(oks, axis=1)


def _line_at(square: SquareView, index: int) -> Line:
    n = square.order
    kind = LINE_KINDS[index // n]
    k = index % n
    if kind == "row":
        local = [(k, c) for c in range(n)]
    elif kind == "column":
        local = [(r, k) for r in range(n)]
    elif kind == "diagonal-plus":
        local = [(p, (p + k) % n) for p in range(n)]
    else:
        local = [(p, (n - 1 - p + k) % n) for p in range(n)]
    cells = tuple(square.embed(r, c) for r, c in local)
    return Line(cells, kind, square.square_id)


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
