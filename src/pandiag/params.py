"""Parameter vectors for linear-form arrays and their feasibility checks.

A vector of d coefficients over Z_n defines the d-dimensional array whose
cell at coordinates (x_0 .. x_{d-1}) holds sum(alpha_m * x_m) mod n.  The
array is pandiagonal-latin exactly when alpha . u is a unit mod n for every
line direction u in {0,+-1}^d / +-: 4, 13 and 40 directions for d = 2, 3, 4.

DIRECTIONS[d] lists those directions once each, as (condition id, u) rows
in reporting order.  The ids name the integer that must be coprime to n
(pair_sum(0,1) is alpha_0 + alpha_1, total_less_double(2) is the total
less twice alpha_2, and so on), and each u carries the sign its id implies,
so a violation reports (alpha . u) mod n.  A value of 0 (gcd n) counts as
a violation.  The checks walk the table one vector at a time.  The search
fixes one coordinate per level: one numpy pass tests a whole block of
prefixes with every unit candidate for the next coordinate against the
directions whose last nonzero entry is that coordinate, and the vectors it
yields are built without being checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, repeat
from operator import mul
from typing import Iterator

import numpy as np

from .modarith import MAX_MODULUS, gcd, mod_inverse, unit_table

DIMENSIONS = (2, 3, 4)


def _direction_table(d: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Condition ids and directions for dimension d, in reporting order.

    The condition families are listed for every d and a direction whose
    sign-flip is already listed is dropped, so each direction appears once
    under its first id: at d=3 total_less_component(0) is pair_sum(1,2),
    and at d=4 total_less_two_doubles(2,3) is minus (0,1).
    """

    def vec(base: int, *terms: tuple[int, int]) -> tuple[int, ...]:
        u = [base] * d
        for m, c in terms:
            u[m] += c
        return tuple(u)

    pairs = list(combinations(range(d), 2))
    rows = [(f"component({m})", vec(0, (m, 1))) for m in range(d)]
    rows += [(f"pair_sum({a},{b})", vec(0, (a, 1), (b, 1))) for a, b in pairs]
    rows += [(f"pair_diff({a},{b})", vec(0, (a, 1), (b, -1))) for a, b in pairs]
    rows += [("total", vec(1))]
    rows += [(f"total_less_component({m})", vec(1, (m, -1))) for m in range(d)]
    rows += [(f"total_less_double({m})", vec(1, (m, -2))) for m in range(d)]
    rows += [
        (f"total_less_component_less_double({a},{b})", vec(1, (a, -1), (b, -2)))
        for a, b in permutations(range(d), 2)
    ]
    rows += [(f"total_less_two_doubles({a},{b})", vec(1, (a, -2), (b, -2))) for a, b in pairs]
    table: list[tuple[str, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for cid, u in rows:
        if u in seen or tuple(-c for c in u) in seen:
            continue
        seen.add(u)
        table.append((cid, u))
    return tuple(table)


DIRECTIONS = {d: _direction_table(d) for d in DIMENSIONS}


def _search_levels(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per coordinate k, the directions whose last nonzero entry is k.

    Level k holds (head, last): head has one column per such direction
    with its entries on coordinates 0 .. k-1, last has its entry on k.  The
    direction e_k is left out: the search only offers units for alpha_k.
    """
    levels = []
    for k in range(d):
        us = [u for _, u in DIRECTIONS[d] if any(u[:k]) and u[k] and not any(u[k + 1 :])]
        head = np.array([u[:k] for u in us], dtype=np.int64).reshape(len(us), k).T.copy()
        levels.append((head, np.array([u[k] for u in us], dtype=np.int64)))
    return tuple(levels)


_SEARCH_LEVELS = {d: _search_levels(d) for d in DIMENSIONS}


@dataclass(frozen=True)
class ParamVector:
    """Coefficients of a linear form over Z_n, one per axis."""

    alphas: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        _check_dimension(self.dimension)
        if not 2 <= self.order <= MAX_MODULUS:
            raise ValueError(f"order {self.order} outside [2, {MAX_MODULUS}]")
        for a in self.alphas:
            if not 1 <= a <= self.order - 1:
                raise ValueError(
                    f"component {a} outside [1, {self.order - 1}] for order {self.order}"
                )

    @property
    def dimension(self) -> int:
        return len(self.alphas)

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.alphas) + f"> mod {self.order}"


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of a feasibility check.

    violations holds (constraint id, offending value) pairs; the offending
    value is the residue in [0, n) that failed to be coprime to n.
    """

    feasible: bool
    violations: tuple[tuple[str, int], ...] = field(default=())


def check(v: ParamVector) -> ConstraintReport:
    """Feasibility check for any supported dimension."""
    return _check(v, v.dimension)


def check_pair(v: ParamVector) -> ConstraintReport:
    """d=2 feasibility: components, their sum and their difference coprime to n."""
    return _check(v, 2)


def check_triple(v: ParamVector) -> ConstraintReport:
    """d=3 feasibility: pair conditions plus the total and total-less-a-double."""
    return _check(v, 3)


def check_quad(v: ParamVector) -> ConstraintReport:
    """d=4 feasibility.

    Beyond the component and pairwise conditions, the total B = sum(alphas)
    must stay coprime to n after removing one component once or twice, a
    component once and another twice, or two distinct components twice.
    """
    return _check(v, 4)


def canonicalize(v: ParamVector) -> ParamVector:
    """Scale so the leading component becomes 1.

    Requires the leading component to be invertible mod n; feasible vectors
    always satisfy that.
    """
    lead = v.alphas[0]
    if gcd(lead, v.order) != 1:
        raise ValueError(
            f"cannot canonicalize: leading component {lead} not invertible mod {v.order}"
        )
    return scale(v, int(mod_inverse(lead, v.order)))


def scale(v: ParamVector, k: int) -> ParamVector:
    """Multiply every component by k mod n; k must be coprime to n."""
    n = v.order
    if gcd(k % n, n) != 1:
        raise ValueError(f"scale factor {k} not coprime to order {n}")
    return ParamVector(tuple((a * k) % n for a in v.alphas), n)


def enumerate_feasible(
    dimension: int, order: int, canonical_only: bool = False
) -> list[ParamVector]:
    """All feasible vectors for (dimension, order) in lexicographic order.

    canonical_only restricts to leading component 1; since scaling by a
    unit preserves feasibility, every feasible vector is a scaled copy of
    a canonical one.
    """
    return list(iter_feasible(dimension, order, canonical_only))


def iter_feasible(
    dimension: int, order: int, canonical_only: bool = False
) -> Iterator[ParamVector]:
    """Lazy lexicographic feasibility search.

    The walk fixes one coordinate per level and works on blocks of
    prefixes, kept in lexicographic order.  At level k one numpy pass
    tests every (prefix, unit candidate) pair of a block against the
    directions whose last nonzero entry is k; their other entries are
    already fixed, so a prefix is pruned at the first level where one of
    its directions fails.  The survivors, still in order, are split into
    the blocks of level k + 1, each small enough that its pass stays
    within a fixed cell budget, and walked depth first, so the search is
    lazy at block granularity: a next() runs at most the passes needed to
    reach the next block of feasible vectors, and vectors are built one
    per next().  Arguments are validated eagerly; only the search itself
    is deferred.
    """
    blocks = _feasible_blocks(dimension, order, canonical_only)

    def vectors() -> Iterator[ParamVector]:
        for block in blocks:
            # zipping Python-int columns is leaner than a list per row
            yield from map(_trusted_vector, zip(*(c.tolist() for c in block.T)), repeat(order))

    return vectors()


def minimal_order(dimension: int, max_order: int) -> int | None:
    """Smallest order in [2, max_order] admitting a feasible vector, else None."""
    _check_dimension(dimension)
    for n in range(2, max_order + 1):
        # canonical search suffices: scaling by the inverse of the leading
        # component maps any feasible vector to a canonical feasible one
        if next(iter_feasible(dimension, n, canonical_only=True), None) is not None:
            return n
    return None


# cells of the (prefix, candidate, direction) test that one search pass
# may cover; a single prefix whose candidates exceed it still makes a pass
_BLOCK_CELLS = 1 << 12


def _feasible_rows(dimension: int, order: int, canonical_only: bool) -> np.ndarray:
    """Every feasible vector as one row of a (K, dimension) int64 array, in order."""
    blocks = _feasible_blocks(dimension, order, canonical_only)
    return np.concatenate([np.empty((0, dimension), dtype=np.int64), *blocks])


def _feasible_blocks(
    dimension: int, order: int, canonical_only: bool
) -> Iterator[np.ndarray]:
    """The feasible vectors as (P, dimension) int64 blocks, in lexicographic order.

    Arguments are validated before the walk starts.
    """
    _check_dimension(dimension)
    if not 2 <= order <= MAX_MODULUS:
        raise ValueError(f"order {order} outside [2, {MAX_MODULUS}]")
    unit = unit_table(order)
    units = np.flatnonzero(unit)
    # a reduced fixed part plus a reduced candidate term lies in [0, 2n)
    reach = np.concatenate((unit, unit))
    levels = []
    for k, (head, last) in enumerate(_SEARCH_LEVELS[dimension]):
        choices = units[:1] if (canonical_only and not k) else units
        term = np.multiply.outer(choices, last) % order
        levels.append((head, term, choices, reach, order))

    def walk(block: np.ndarray) -> Iterator[np.ndarray]:
        k = block.shape[1]
        children = _extend(block, levels[k])
        if k + 1 == dimension:
            if len(children):
                yield children
            return
        # a prefix of the next level costs one cell per (candidate, direction)
        step = max(1, _BLOCK_CELLS // levels[k + 1][1].size)
        for lo in range(0, len(children), step):
            yield from walk(children[lo : lo + step])

    return walk(np.empty((1, 0), dtype=np.int64))


def _extend(block: np.ndarray, level) -> np.ndarray:
    """One pass: the (prefix, candidate) pairs of a block that pass a level, in order."""
    head, term, choices, reach, n = level
    fixed = block @ head % n
    ok = reach[fixed[:, None, :] + term].all(axis=2)
    rows, cols = np.nonzero(ok)
    return np.column_stack((block[rows], choices[cols]))


def _trusted_vector(alphas: tuple[int, ...], order: int) -> ParamVector:
    """A ParamVector from values the search already knows to be valid, unchecked."""
    v = object.__new__(ParamVector)
    # as the frozen __init__ does; touching v.__dict__ would cost a dict per vector
    object.__setattr__(v, "alphas", alphas)
    object.__setattr__(v, "order", order)
    return v


def _check_dimension(dimension: int) -> None:
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be one of {DIMENSIONS}, got {dimension}")


def _check(v: ParamVector, d: int) -> ConstraintReport:
    if v.dimension != d:
        raise ValueError(f"expected {d} components, got {v.dimension}")
    n, alphas = v.order, v.alphas
    unit = unit_table(n)
    bad = []
    for cid, u in DIRECTIONS[d]:
        value = sum(map(mul, u, alphas)) % n
        if not unit[value]:
            bad.append((cid, value))
    return ConstraintReport(not bad, tuple(bad))
