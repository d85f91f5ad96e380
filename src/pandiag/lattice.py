"""Linear-form arrays over Z_n and views into them.

Coordinates are (x_0 .. x_{d-1}) with axis 0 slowest; for a square that
means axis 0 indexes rows top to bottom and axis 1 indexes columns left to
right.  Values live in [0, n-1] as int64.

Every 2-D view, a SliceSpec as well as a constituent square of the
verifier, is a plane through the grid that never wraps, so it is one flat
affine map: its cell (r, c) is the cell origin + r*row_step + c*col_step
of the grid in C order, where axis x has stride n**(d-1-x).  gather reads
the view's n x n grid through that map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .params import DIMENSIONS, ParamVector

# Hard cap on array order: n**4 cells at int64 must stay in memory.
MAX_ORDER = 101

AXIS_NAMES = "ijkl"


def value_grid(values: np.ndarray, kind: str = "latin") -> np.ndarray:
    """values as a read-only C-ordered int64 grid, after checking its shape and range.

    The grid must have 2, 3 or 4 axes of one length n in [2, MAX_ORDER].
    Entries must lie in [0, n-1] for kind "latin" and in [0, n**d - 1]
    for kind "magic".
    """
    try:
        vals = np.array(values, dtype=np.int64, order="C")
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
    vals.flags.writeable = False
    return vals


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
    """Materialize the array of sum(alpha_m * x_m) mod n over all coordinates."""
    n, d = v.order, v.dimension
    if n > MAX_ORDER:
        raise ValueError(f"order {n} above array cap {MAX_ORDER}")
    acc = np.zeros((n,) * d, dtype=np.int64)
    axis_shape = [1] * d
    for axis, a in enumerate(v.alphas):
        axis_shape[axis] = n
        acc += a * np.arange(n, dtype=np.int64).reshape(axis_shape)
        axis_shape[axis] = 1
    acc %= n
    return LatinArray(acc, v)


def slice_view(a: LatinArray, spec: SliceSpec) -> np.ndarray:
    """Extract the n x n grid selected by spec.

    Entry (r, c) reads the cell whose row_axis coordinate is r, col_axis
    coordinate is c, and remaining coordinates follow spec.fixed.
    """
    return slice_values(a.values, spec)


def slice_values(values: np.ndarray, spec: SliceSpec) -> np.ndarray:
    """slice_view on a bare value grid (shape (n,) * d)."""
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
    return gather(values, origin, *steps)


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
    n = a.order
    table = np.asarray(perm, dtype=np.int64)
    if table.shape != (n,) or not np.array_equal(np.sort(table), np.arange(n)):
        raise ValueError(f"perm must be a bijection on 0..{n - 1}")
    return LatinArray(table[a.values])


def shift_axis(a: LatinArray, axis: int, amount: int) -> LatinArray:
    """Cyclically advance one coordinate: new[.., x, ..] = old[.., x+amount mod n, ..]."""
    if not 0 <= axis < a.dimension:
        raise ValueError(f"axis {axis} outside [0, {a.dimension - 1}]")
    return LatinArray(np.roll(a.values, -amount, axis=axis))
