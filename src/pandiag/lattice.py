"""Linear-form arrays over Z_n and views into them.

Coordinates are (x_0 .. x_{d-1}) with axis 0 slowest; for a square that
means axis 0 indexes rows top to bottom and axis 1 indexes columns left to
right.  Values live in [0, n-1] as int64.

build sums the linear form without reducing any cell by arithmetic: a
sum of two residues lies below 2n, so its residue is read from the
doubled table arange(2n) % n, first for the sub-grid over axes 1 .. d-1
and then for each slab of axis 0, from the window of n entries that
starts at that slab's residue.  The same read makes the base-n code of
several linear forms at once (_read_codes): each form's table is
relabeled and scaled to its digit's worth, so a magic array's digits are
read straight into one grid.

Every 2-D view, a SliceSpec as well as a constituent square of the
verifier, is a plane through the grid that never wraps, so it is one flat
affine map: its cell (r, c) is the cell origin + r*row_step + c*col_step
of the grid in C order, where axis x has stride n**(d-1-x).  gather reads
the view's n x n grid through that map.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .params import DIMENSIONS, ParamVector

# Hard cap on array order: n**4 cells at int64 must stay in memory.
MAX_ORDER = 101

AXIS_NAMES = "ijkl"

# grids this module froze itself, by id; an entry dies with its grid, so an id
# found here names the very array that was frozen
_OWN_GRIDS: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def value_grid(values: np.ndarray, kind: str = "latin") -> np.ndarray:
    """values as a read-only C-ordered int64 grid, after checking its shape and range.

    The grid must have 2, 3 or 4 axes of one length n in [2, MAX_ORDER].
    Entries must lie in [0, n-1] for kind "latin" and in [0, n**d - 1]
    for kind "magic".

    A grid that pandiag froze itself, or a C-ordered int64 view of one, is
    checked and returned as it is.  Any other array, read-only or not, is
    copied first, so that its owner cannot change the grid afterwards.
    """
    if _is_own(values):
        vals = values
    else:
        try:
            vals = _own_grid(np.array(values, dtype=np.int64, order="C"))
        except OverflowError:
            raise ValueError("values must fit in 64-bit integers") from None
    if vals.ndim not in DIMENSIONS:
        raise ValueError(f"array must have 2, 3 or 4 axes, got {vals.ndim}")
    n = vals.shape[0]
    if any(s != n for s in vals.shape):
        raise ValueError(f"array must be square along every axis, got {vals.shape}")
    if not 2 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} outside [2, {MAX_ORDER}]")
    top = n - 1 if kind == "latin" else n**vals.ndim - 1
    if vals.size and (vals.min() < 0 or vals.max() > top):
        raise ValueError(f"values must lie in [0, {top}]")
    return vals


def _own_grid(fresh: np.ndarray) -> np.ndarray:
    """fresh, an array that nothing else refers to, frozen in place and marked as pandiag's own.

    value_grid then takes it without a copy.  Callers hand over only
    arrays they have just made: a build's accumulator, an index or
    arithmetic result, a parsed document.
    """
    fresh.flags.writeable = False
    _OWN_GRIDS[id(fresh)] = fresh
    return fresh


def _is_own(values: object) -> bool:
    """True for a C-ordered int64 grid _own_grid froze, or a view of one, while it stays frozen."""
    if not isinstance(values, np.ndarray):
        return False
    owner = values if values.base is None else values.base
    return (
        _OWN_GRIDS.get(id(owner)) is owner
        and not owner.flags.writeable
        and values.dtype == np.int64
        and values.flags.c_contiguous
    )


@dataclass(frozen=True, eq=False)
class LatinArray:
    """A d-dimensional n x ... x n grid of symbols in [0, n-1].

    The type does not promise latin-ness; the verifier decides that.
    params records the generating coefficients when the array came from
    build(), and is None for arrays of unknown origin or after transforms
    that leave linear-form territory.
    """

    values: np.ndarray
    params: ParamVector | None = None

    def __post_init__(self) -> None:
        vals = value_grid(self.values)
        if self.params is not None:
            if self.params.dimension != vals.ndim or self.params.order != vals.shape[0]:
                raise ValueError("params do not match array dimension/order")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.ndim


@dataclass(frozen=True)
class Tie:
    """Couples a fixed axis to a free one: equal, or summing to n-1 (anti)."""

    axis: int
    anti: bool = False


@dataclass(frozen=True)
class SliceSpec:
    """A 2-D view: two free axes and a binding for every other axis.

    fixed maps an axis index either to a constant coordinate or to a Tie
    referencing one of the free axes.  Rows run along row_axis, columns
    along col_axis.
    """

    row_axis: int
    col_axis: int
    fixed: Mapping[int, int | Tie] = field(default_factory=dict)


def build(v: ParamVector) -> LatinArray:
    """Materialize the array of sum(alpha_m * x_m) mod n over all coordinates.

    The one-vector case of _read_codes: slab x_0 is the window of the
    residue table that starts at alpha_0*x_0 mod n, read at sub, the
    sub-grid over axes 1 .. d-1, straight into the grid.
    """
    return LatinArray(_read_codes((v,)), v)


def _read_codes(
    vectors: Sequence[ParamVector], perms: Sequence[Sequence[int]] | None = None
) -> np.ndarray:
    """The frozen grid of sum_j T_j[alpha_j . x mod n] for k vectors of one order n and dimension d.

    T_j = perm_j[arange(2n) % n] * n**(k-1-j), with perm_j the identity
    when perms is None: cell x holds the base-n numeral of the relabeled
    digits perm_j(alpha_j . x mod n), the first vector most significant.
    Each vector's sub-grid over axes 1 .. d-1 is read from the unscaled
    residue table.  Digit j of slab x_0 is then the window of T_j that
    starts at alpha_j0*x_0 mod n, read at sub_j: one take per slab and
    digit, the first straight into the grid and every later one through
    one slab-sized temporary added in place.  Besides the grid the read
    holds the k sub-grids and that temporary.
    """
    n, d = vectors[0].order, vectors[0].dimension
    _check_order(n)
    k = len(vectors)
    residue = np.arange(2 * n, dtype=np.int64) % n
    labels = [np.arange(n)] * k if perms is None else [_bijection(p, n) for p in perms]
    tables = [label[residue] * n ** (k - 1 - j) for j, label in enumerate(labels)]
    starts, subs = [], []
    for v in vectors:
        first, *rest = (a * np.arange(n, dtype=np.int64) % n for a in v.alphas)
        sub = rest.pop()
        for residues in reversed(rest):
            sub = residue.take(np.add.outer(residues, sub))
        starts.append(first.tolist())
        subs.append(sub)
    grid = np.empty((n,) * d, dtype=np.int64)
    digit = np.empty_like(subs[0]) if k > 1 else None
    (table, start, sub), *later = zip(tables, starts, subs)
    for x0, slab in enumerate(grid):
        # under mode="raise" take writes through a buffer; every index is below n
        table[start[x0] : start[x0] + n].take(sub, out=slab, mode="clip")
        for t, f, s in later:
            slab += t[f[x0] : f[x0] + n].take(s, out=digit, mode="clip")
    return _own_grid(grid)


def _check_order(order: int) -> None:
    """Refuse an order no array is built at: below 2 or above MAX_ORDER."""
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} above array cap {MAX_ORDER}")


def slice_view(a: LatinArray, spec: SliceSpec) -> np.ndarray:
    """Extract the n x n grid selected by spec.

    Entry (r, c) reads the cell whose row_axis coordinate is r, col_axis
    coordinate is c, and remaining coordinates follow spec.fixed.
    """
    return slice_values(a.values, spec)


def slice_values(values: np.ndarray, spec: SliceSpec) -> np.ndarray:
    """slice_view on a bare value grid (shape (n,) * d), as a new read-only grid."""
    n, d = values.shape[0], values.ndim
    free = (spec.row_axis, spec.col_axis)
    if spec.row_axis == spec.col_axis:
        raise ValueError("row and column axes must differ")
    covered = set(free) | set(spec.fixed)
    if covered != set(range(d)) or len(spec.fixed) != d - 2:
        raise ValueError(
            f"spec must bind every axis of a {d}-D array exactly once"
        )
    strides = [n ** (d - 1 - x) for x in range(d)]
    origin, steps = 0, [strides[spec.row_axis], strides[spec.col_axis]]
    for axis, binding in spec.fixed.items():
        if isinstance(binding, Tie):
            if binding.axis not in free:
                got = AXIS_NAMES[binding.axis] if 0 <= binding.axis < d else binding.axis
                raise ValueError(
                    f"tie on axis {AXIS_NAMES[axis]} must reference a free axis, got {got}"
                )
            local = free.index(binding.axis)
            if binding.anti:  # x_axis = n-1 - x_free
                origin += (n - 1) * strides[axis]
                steps[local] -= strides[axis]
            else:
                steps[local] += strides[axis]
        else:
            if not 0 <= int(binding) < n:
                raise ValueError(f"fixed coordinate {binding} outside [0, {n - 1}]")
            origin += int(binding) * strides[axis]
    return _own_grid(gather(values, origin, *steps))


def gather(values: np.ndarray, origin: int, row_step: int, col_step: int) -> np.ndarray:
    """The n x n grid of the flat affine view origin + r*row_step + c*col_step of values."""
    rows, cols = _local_coords(values.shape[0])
    return values.ravel()[origin + rows * row_step + cols * col_step]


@lru_cache(maxsize=None)
def _local_coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of an n x n view, read-only because they are shared."""
    rows, cols = np.ogrid[:n, :n]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def permute_symbols(a: LatinArray, perm: Sequence[int]) -> LatinArray:
    """Relabel symbols through a bijection on [0, n-1]."""
    return LatinArray(_own_grid(_bijection(perm, a.order)[a.values]))


def _bijection(perm: Sequence[int], n: int) -> np.ndarray:
    """perm as an int64 table, after checking that it is a bijection on [0, n-1]."""
    table = np.asarray(perm, dtype=np.int64)
    if table.shape != (n,) or not np.array_equal(np.sort(table), np.arange(n)):
        raise ValueError(f"perm must be a bijection on 0..{n - 1}")
    return table


def shift_axis(a: LatinArray, axis: int, amount: int) -> LatinArray:
    """Cyclically advance one coordinate: new[.., x, ..] = old[.., x+amount mod n, ..]."""
    if not 0 <= axis < a.dimension:
        raise ValueError(f"axis {axis} outside [0, {a.dimension - 1}]")
    return LatinArray(_own_grid(np.roll(a.values, -amount, axis=axis)))
