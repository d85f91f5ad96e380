"""Orthogonality of families of linear-form arrays.

A family of d parameter vectors (one per array) is orthogonal when
superposing the d arrays yields every d-tuple of symbols exactly once.
For linear forms that reduces to an integer condition: the d x d matrix
of coefficients must have determinant coprime to n.  The brute-force
superposition check stays available as an independent oracle.

Counting orthogonal families needs the determinant test on every ordered
family drawn from a candidate set; unit_determinant_masks runs it in bulk
with exact integer arithmetic reduced mod n, while determinant gives the
exact integer for a single family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .lattice import LatinArray
from .modarith import Residue, gcd, reduce, unit_table
from .params import ParamVector, check


@dataclass(frozen=True)
class ParamMatrix:
    """d parameter vectors over a common order, stacked as matrix rows."""

    rows: tuple[ParamVector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        d = self.rows[0].dimension
        n = self.rows[0].order
        for row in self.rows:
            if row.dimension != d or row.order != n:
                raise ValueError("all rows must share dimension and order")
        if len(self.rows) != d:
            raise ValueError(
                f"need exactly {d} rows for dimension {d}, got {len(self.rows)}"
            )

    @property
    def order(self) -> int:
        return self.rows[0].order

    @property
    def dimension(self) -> int:
        return self.rows[0].dimension


def determinant(m: ParamMatrix) -> int:
    """Exact integer determinant of the coefficient matrix."""
    return _det([list(row.alphas) for row in m.rows])


def determinant_mod(m: ParamMatrix) -> tuple[int, Residue]:
    """The determinant both as a plain integer and reduced mod n."""
    det = determinant(m)
    return det, reduce(det, m.order)


def check_orthogonal_fast(m: ParamMatrix) -> bool:
    """Determinant test for orthogonality of a feasible family.

    Every row must pass its own feasibility check; a family containing an
    infeasible vector is rejected with an error rather than a verdict.
    """
    for idx, row in enumerate(m.rows):
        report = check(row)
        if not report.feasible:
            first = report.violations[0][0]
            raise ValueError(
                f"not a pandiagonal family: row {idx} {row} fails {first}"
            )
    det = determinant(m)
    return gcd(det % m.order, m.order) == 1


def verify_orthogonal_brute(arrays: Sequence[LatinArray]) -> bool:
    """Superpose the arrays and test that all n**d value tuples are distinct.

    Independent of the determinant shortcut; works on any arrays of equal
    shape, one per axis of their common dimension.  The n**d codes lie in
    [0, n**d) because LatinArray bounds every value, so they are distinct
    exactly when marking each one in a byte per code leaves none unmarked.
    """
    return _codes_distinct(superpose(arrays))


def _codes_distinct(code: np.ndarray) -> bool:
    """True when the codes, code.size values in [0, code.size), are distinct.

    Each code is marked in a byte per code; they are distinct exactly when
    none is left unmarked.
    """
    seen = np.zeros(code.size, dtype=bool)
    seen[code.ravel()] = True
    return bool(seen.all())


def superpose(arrays: Sequence[LatinArray]) -> np.ndarray:
    """Each cell's value tuple as one base-n integer, the first array most significant.

    Needs exactly d arrays sharing dimension d and order n.
    """
    if not arrays:
        raise ValueError("need at least one array")
    d = arrays[0].dimension
    n = arrays[0].order
    for a in arrays:
        if a.dimension != d or a.order != n:
            raise ValueError("mismatched shapes: arrays must share dimension and order")
    if len(arrays) != d:
        raise ValueError(f"need exactly {d} arrays for dimension {d}, got {len(arrays)}")
    code = np.zeros(arrays[0].values.shape, dtype=np.int64)
    for a in arrays:
        code = code * n + a.values
    return code


def unit_determinant_masks(rows: np.ndarray, order: int) -> Iterator[np.ndarray]:
    """Determinant test on every ordered family drawn from a set of rows.

    rows is a (K, d) integer array.  For each row r in turn, the yielded
    boolean mask has one entry per ordered (d-1)-tuple of rows, in
    itertools.product order, and is True where the d x d matrix with r on
    top of that tuple has a determinant that is a unit mod order.

    The determinant is expanded along the top row,
    det = sum_j (-1)**j * r[j] * M_j, where M_j is the minor of the tuple
    without column j.  The minors of every tuple are computed once, exactly
    and reduced mod order, so each top row costs one vector-matrix product.
    Memory stays at d + 2 arrays of K**(d-1) integers.
    """
    rows = np.asarray(rows, dtype=np.int64) % order
    k, d = rows.shape
    unit = unit_table(order)
    # minors of the bottom m rows of every tuple, one per column set, m = 0 .. d-2
    minors = {(): np.ones(1, dtype=np.int64)}
    for m in range(1, d - 1):
        minors = {cols: _expand(rows, minors, cols, order) for cols in combinations(range(d), m)}
    top_minors = np.empty((d, k ** (d - 1)), dtype=np.int64)
    for j in range(d):
        top_minors[j] = _expand(rows, minors, tuple(c for c in range(d) if c != j), order)
    for r in rows * (-1) ** np.arange(d):
        yield unit[(r @ top_minors) % order]


def _expand(rows: np.ndarray, minors: dict, cols: tuple[int, ...], n: int) -> np.ndarray:
    """Minor on cols of every (new top row, tuple of the rows below), mod n.

    Laplace expansion along the new top row; the top row is the slowest
    index of the flattened result.
    """
    acc = np.zeros((len(rows), minors[cols[1:]].size), dtype=np.int64)
    for i, c in enumerate(cols):
        acc += np.multiply.outer((-1) ** i * rows[:, c], minors[cols[:i] + cols[i + 1 :]])
    acc %= n
    return acc.ravel()


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    total = 0
    sign = 1
    for col, lead in enumerate(m[0]):
        minor = [row[:col] + row[col + 1 :] for row in m[1:]]
        total += sign * lead * _det(minor)
        sign = -sign
    return total
