"""Pandiagonal magic arrays composed from orthogonal latin-array families.

Superposing d mutually orthogonal arrays and reading each cell's value
tuple as a base-n numeral yields a candidate magic array on the symbols
0 .. n**d - 1; array q supplies the q-th most significant digit.  When the
family is orthogonal and each digit array is pandiagonal-latin, every line
of every constituent square sums to the magic constant
sigma = n * (n**d - 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Sequence

import numpy as np

from .lattice import LatinArray, _own_grid, _read_codes, build, value_grid
from .modarith import gcd
from .orthogonal import ParamMatrix, determinant, superpose, unit_determinant_masks
from .params import ParamVector, _check_dimension, _feasible_blocks, check, count_feasible

# distinct-grid counting materializes every family x relabeling combination;
# beyond d=2, n=5 that is no longer desk-scale
MAX_DISTINCT_ORDER = 5

# cap on canonical-family combinations scanned by the counting helpers
_MAX_FAMILY_COMBOS = 5_000_000


@dataclass(frozen=True, eq=False)
class MagicArray:
    """A d-dimensional grid meant to carry each of 0 .. n**d - 1 once.

    The permutation property is checked by the verifier, not assumed here;
    only the value range is enforced.  params/perms record provenance when
    the array came from compose_checked.
    """

    values: np.ndarray
    params: tuple[ParamVector, ...] | None = None
    perms: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", value_grid(self.values, "magic"))

    @property
    def order(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.ndim


def sigma(dimension: int, order: int) -> int:
    """The magic line sum n * (n**d - 1) / 2 (always an integer)."""
    _check_dimension(dimension)
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    return order * (order**dimension - 1) // 2


def compose(arrays: Sequence[LatinArray]) -> MagicArray:
    """Base-n superposition of d digit arrays, most significant first.

    No orthogonality or latin-ness is required here; degenerate input
    simply produces an array that fails verification.
    """
    return MagicArray(_own_grid(superpose(arrays)))


def decompose(m: MagicArray) -> list[LatinArray]:
    """Recover the d base-n digit arrays, most significant first."""
    n, d = m.order, m.dimension
    return [
        LatinArray(_own_grid((m.values // n ** (d - 1 - q)) % n)) for q in range(d)
    ]


def compose_checked(
    vectors: Sequence[ParamVector],
    perms: Sequence[Sequence[int]] | None = None,
) -> MagicArray:
    """Compose the magic array of a family, checking hypotheses.

    Each vector must be feasible and the family must pass the determinant
    orthogonality test; failures raise ValueError naming the failed
    hypothesis.  perms optionally relabels the symbols of each digit array
    (one bijection per array) before composing, which preserves both
    orthogonality and pandiagonality.  Every digit is read, already
    relabeled and scaled, from its residue table into the one composed
    grid (lattice._read_codes); no digit array is built.
    """
    matrix = ParamMatrix(vectors)
    vectors, d, n = matrix.rows, matrix.dimension, matrix.order
    for v in vectors:
        report = check(v)
        if not report.feasible:
            names = ", ".join(c for c, _ in report.violations)
            raise ValueError(f"hypothesis failed: {v} is infeasible ({names})")
    det = determinant(matrix)
    g = gcd(det % n, n)
    if g != 1:
        raise ValueError(
            f"hypothesis failed: family is not orthogonal"
            f" (determinant {det} shares factor {g} with order {n})"
        )
    if perms is None:
        perm_tuples = tuple(tuple(range(n)) for _ in range(d))
    else:
        if len(perms) != d:
            raise ValueError(f"need exactly {d} symbol permutations, got {len(perms)}")
        perm_tuples = tuple(tuple(int(x) for x in p) for p in perms)
    return MagicArray(_read_codes(vectors, perm_tuples), params=vectors, perms=perm_tuples)


def count_orthogonal_families(dimension: int, order: int) -> int:
    """Ordered d-tuples of canonical feasible vectors passing the determinant test."""
    rows = _family_rows(dimension, order)
    return sum(int(np.count_nonzero(mask)) for mask in unit_determinant_masks(rows, order))


def count_constructed(dimension: int, order: int, distinct: bool = False) -> int:
    """How many magic arrays the construction yields.

    With distinct=False this is the raw product: (ordered orthogonal
    families over canonical vectors) x (n!)**d symbol relabelings, with no
    deduplication.  With distinct=True every family x relabeling
    combination is materialized and duplicate grids are counted once;
    that is only desk-scale for d=2, n <= MAX_DISTINCT_ORDER.
    """
    if not distinct:
        families = count_orthogonal_families(dimension, order)
        return families * factorial(order) ** dimension
    if dimension != 2 or order > MAX_DISTINCT_ORDER:
        raise ValueError(
            "out of supported range: distinct counting is limited to"
            f" dimension 2, order <= {MAX_DISTINCT_ORDER}"
        )
    n = order
    seen: set[bytes] = set()
    relabelings = list(permutations(range(n)))
    for family in _iter_families(dimension, order):
        high, low = (build(v).values for v in family)
        # precompute each relabeling of both digit arrays once
        high_variants = [np.asarray(p, dtype=np.int64)[high] * n for p in relabelings]
        low_variants = [np.asarray(p, dtype=np.int64)[low] for p in relabelings]
        for hv in high_variants:
            for lv in low_variants:
                seen.add((hv + lv).tobytes())
    return len(seen)


def _family_rows(dimension: int, order: int) -> np.ndarray:
    """The canonical feasible vectors as a (K, d) array, within the census cap."""
    count = count_feasible(dimension, order, canonical_only=True)
    if count**dimension > _MAX_FAMILY_COMBOS:
        raise ValueError(
            "out of supported range: too many candidate families"
            f" ({count}**{dimension})"
        )
    empty = np.empty((0, dimension), dtype=np.int64)
    return np.concatenate([empty, *_feasible_blocks(dimension, order, canonical_only=True)])


def _iter_families(dimension: int, order: int):
    """Orthogonal families of canonical vectors, in itertools.product order."""
    rows = _family_rows(dimension, order)
    vectors = [ParamVector(r, order) for r in rows.tolist()]
    below = (len(vectors),) * (dimension - 1)
    for top, mask in zip(vectors, unit_determinant_masks(rows, order)):
        for idx in zip(*np.unravel_index(np.flatnonzero(mask), below)):
            yield (top, *(vectors[i] for i in idx))
