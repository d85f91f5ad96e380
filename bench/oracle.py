"""Independent oracle for the pandiag benchmark.

Shares no code with ``src/pandiag``: everything here is derived from the
paper's statement of the construction and the README's wire format, and is
evaluated with numpy.  The one fact everything rests on is the set of line
directions ``{0,+-1}^d / +-`` (4, 13 and 40 of them for d = 2, 3, 4): the
linear-form array of a coefficient vector alpha is pandiagonal latin exactly
when ``alpha . u`` is a unit mod n for every direction u.

``self_check`` tests the oracle against facts the paper and README state
before any program output is judged by it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from functools import lru_cache

import numpy as np


class OracleError(AssertionError):
    """The oracle disagrees with a fact the paper states."""


# --- directions, units, feasibility -----------------------------------------


@lru_cache(maxsize=None)
def directions(d: int) -> np.ndarray:
    """Nonzero vectors of {0,+-1}^d with first nonzero entry +1, one per +- pair."""
    out = [
        u
        for u in itertools.product((0, 1, -1), repeat=d)
        if any(u) and next(x for x in u if x) == 1
    ]
    return np.array(sorted(out, reverse=True), dtype=np.int64)


@lru_cache(maxsize=None)
def unit_table(n: int) -> np.ndarray:
    return np.gcd(np.arange(n), n) == 1


def feasible_mask(vectors: np.ndarray, n: int) -> np.ndarray:
    """Row m is True when alpha_m . u is a unit mod n for every direction u."""
    d = vectors.shape[1]
    return unit_table(n)[(vectors @ directions(d).T) % n].all(axis=1)


def is_feasible(alphas, n: int) -> bool:
    return bool(feasible_mask(np.array([alphas], dtype=np.int64), n)[0])


def _vectors_with_prefix(d: int, n: int, prefix: tuple[int, ...]) -> np.ndarray:
    """All vectors (*prefix, a_k .. a_d), a_i in [1, n-1], in lexicographic order."""
    k = d - len(prefix)
    rest = np.indices((n - 1,) * k, dtype=np.int64).reshape(k, -1).T + 1
    return np.hstack([np.tile(np.array(prefix, dtype=np.int64), (len(rest), 1)), rest])


def iter_feasible_vectors(d: int, n: int, canonical: bool = False):
    """Feasible vectors in lexicographic order, built in blocks of (n-1)^2 or fewer.

    Each block fixes the leading max(1, d-2) components, so no search holds
    more than one small block at a time.
    """
    first = [1] if canonical else range(1, n)
    for prefix in itertools.product(first, *[range(1, n)] * (max(1, d - 2) - 1)):
        block = _vectors_with_prefix(d, n, prefix)
        yield from map(tuple, block[feasible_mask(block, n)].tolist())


@lru_cache(maxsize=None)
def feasible_vectors(d: int, n: int, canonical: bool = False) -> tuple[tuple[int, ...], ...]:
    return tuple(iter_feasible_vectors(d, n, canonical))


def infeasible_vectors(d: int, n: int, rng: np.random.Generator, k: int) -> list[tuple[int, ...]]:
    """k seeded vectors with components in [1, n-1] that the oracle rejects."""
    out: list[tuple[int, ...]] = []
    while len(out) < k:
        cand = rng.integers(1, n, size=(4 * k, d))
        out.extend(map(tuple, cand[~feasible_mask(cand, n)].tolist()))
    return out[:k]


def minimal_order(d: int, max_order: int) -> int | None:
    for n in range(2, max_order + 1):
        if feasible_vectors(d, n, canonical=True):
            return n
    return None


# --- counting: CRT structure and families ----------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(n: int) -> int:
    return math.prod((p - 1) * p ** (k - 1) for p, k in factorize(n))


def crt_count(d: int, n: int) -> int:
    """count(d, n) = prod over p^k || n of count(d, p) * p^((k-1) d)."""
    return math.prod(
        len(feasible_vectors(d, p)) * p ** ((k - 1) * d) for p, k in factorize(n)
    )


def d2_prime_family_count(p: int) -> int:
    """Ordered pairs of canonical feasible d=2 vectors that are orthogonal mod a prime p."""
    return (p - 3) * (p - 4)


def family_count(d: int, n: int) -> int:
    """Ordered d-tuples of canonical feasible vectors whose determinant is a unit mod n."""
    c = np.array(feasible_vectors(d, n, canonical=True), dtype=np.int64)
    unit = unit_table(n)
    if d == 2:
        det = c[None, :, 1] - c[:, None, 1]  # rows (1, a), (1, b)
        return int(unit[det % n].sum())
    if d != 3:
        raise ValueError("family_count covers d = 2 and 3")
    total = 0
    for r0 in c:
        # rule of Sarrus on rows (r0, r1, r2), r1 and r2 over every canonical vector
        r1 = c[:, None, :]
        r2 = c[None, :, :]
        det = (
            r0[0] * (r1[..., 1] * r2[..., 2] - r1[..., 2] * r2[..., 1])
            - r0[1] * (r1[..., 0] * r2[..., 2] - r1[..., 2] * r2[..., 0])
            + r0[2] * (r1[..., 0] * r2[..., 1] - r1[..., 1] * r2[..., 0])
        )
        total += int(unit[det % n].sum())
    return total


# --- arrays and lines ---------------------------------------------------------


def linear_array(alphas, n: int) -> np.ndarray:
    """The array sum(alpha_m x_m) mod n, axis 0 slowest."""
    d = len(alphas)
    acc = np.zeros((n,) * d, dtype=np.int64)
    for axis, a in enumerate(alphas):
        shape = [1] * d
        shape[axis] = n
        acc = acc + (a * np.arange(n, dtype=np.int64)).reshape(shape)
    return acc % n


def compose_digits(digit_arrays, n: int) -> np.ndarray:
    out = np.zeros_like(digit_arrays[0])
    for a in digit_arrays:
        out = out * n + a
    return out


def square_count(d: int, n: int) -> int:
    return {2: 1, 3: 3 * n + 6, 4: (4 * n + 12) * (3 * n + 6)}[d]


def lines_total(d: int, n: int) -> int:
    """Lines a full scan reads: 4n lines in every constituent square."""
    return 4 * n * square_count(d, n)


def sigma(d: int, n: int) -> int:
    return n * (n**d - 1) // 2


def all_lines_pass(values: np.ndarray, magic: bool = False) -> bool:
    """Every wrapped line x + t u, every cell x, every direction u, holds all symbols.

    This is the strong "all orbits" property; for linear-form arrays it is
    equivalent to feasibility.  Used only in self_check, on small arrays.
    """
    n, d = values.shape[0], values.ndim
    target = sigma(d, n)
    for u in directions(d):
        line = np.stack(
            [np.roll(values, tuple(-t * int(x) for x in u), axis=tuple(range(d))) for t in range(n)]
        )
        if magic:
            if not (line.sum(axis=0) == target).all():
                return False
        elif not (np.sort(line, axis=0) == np.arange(n).reshape((n,) + (1,) * d)).all():
            return False
    return True


def line_fails(values: np.ndarray, cells, magic_sum: int | None = None) -> bool:
    """True when cells form one wrapped line of the array and that line fails.

    Re-reads the cells from the array: a latin line fails when a symbol
    repeats, a magic line when its sum differs from magic_sum.
    """
    n, d = values.shape[0], values.ndim
    pts = np.array(cells, dtype=np.int64)
    if pts.shape != (n, d) or ((pts < 0) | (pts >= n)).any():
        return False
    steps = (np.diff(pts, axis=0, append=pts[:1]) % n).tolist()
    step = steps[0]
    if any(s != step for s in steps) or not any(step):
        return False
    if any(x not in (0, 1, n - 1) for x in step):
        return False
    vals = values[tuple(pts.T)]
    if magic_sum is None:
        return len(set(vals.tolist())) != n
    return int(vals.sum()) != magic_sum


# --- wire format (README) -----------------------------------------------------


CHUNK = 1 << 16  # values per piece, so no document is ever held as one list of strings


def _ints(values):
    """Comma-separated decimal values, yielded in pieces of CHUNK values."""
    flat = np.asarray(values).ravel()
    for lo in range(0, len(flat), CHUNK):
        yield ("," if lo else "") + ",".join(map(str, flat[lo : lo + CHUNK].tolist()))


def document_pieces(d: int, n: int, kind: str, values, params=None):
    """Document bytes as the README specifies: sorted keys, compact, one newline."""
    yield f'{{"dimension":{d},"kind":"{kind}","order":{n},'
    if params is not None:
        if kind == "latin":
            yield '"params":[' + "".join(_ints(params[0])) + "],"
        else:
            yield '"params":[' + ",".join("[" + "".join(_ints(p)) + "]" for p in params) + "],"
    yield '"values":['
    yield from _ints(values)
    yield "]}\n"


def document_text(d: int, n: int, kind: str, values, params=None) -> str:
    return "".join(document_pieces(d, n, kind, values, params))


def document_digest(d: int, n: int, kind: str, values, params=None) -> tuple[str, int]:
    """SHA-256 and length of the document, without holding its text."""
    h, size = hashlib.sha256(), 0
    for piece in document_pieces(d, n, kind, values, params):
        data = piece.encode()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def render_text(values: np.ndarray, sep: str, offset: int = 0) -> str:
    """Blank-line separated 2-D blocks over the leading coordinates, last two axes as rows."""
    n = values.shape[0]
    blocks = []
    for block in values.reshape(-1, n, n):
        blocks.append("\n".join(sep.join(map(str, row)) for row in (block + offset).tolist()))
    return "\n\n".join(blocks) + "\n"


# --- self check ---------------------------------------------------------------


def self_check() -> None:
    """Test the oracle against facts stated by the paper and the README."""

    def expect(ok: bool, fact: str) -> None:
        if not ok:
            raise OracleError(f"oracle disagrees with: {fact}")

    expect([len(directions(d)) for d in (2, 3, 4)] == [4, 13, 40], "4, 13 and 40 directions")
    expect(
        [minimal_order(d, 20) for d in (2, 3, 4)] == [5, 11, 17],
        "smallest feasible orders 5, 11 and 17",
    )
    cube = linear_array((1, 2, 7), 11)
    expect(is_feasible((1, 2, 7), 11) and all_lines_pass(cube), "cube (1,2,7) mod 11 passes")
    family = [(1, 2, 4), (1, 5, 8), (1, 6, 8)]
    magic = compose_digits([linear_array(v, 11) for v in family], 11)
    expect(
        sigma(3, 11) == 7315
        and np.array_equal(np.sort(magic.ravel()), np.arange(11**3))
        and all_lines_pass(magic, magic=True),
        "family (1,2,4),(1,5,8),(1,6,8) mod 11 composes to magic sum 7315",
    )
    expect(
        len(feasible_vectors(2, 121)) == crt_count(2, 121)
        and len(feasible_vectors(3, 121, canonical=True)) * totient(121) == crt_count(3, 121),
        "count(d, n) = prod count(d, p) p^((k-1) d) at (2,121) and (3,121)",
    )
    expect(
        all(family_count(2, p) == d2_prime_family_count(p) for p in (11, 13, 17)),
        "d=2 prime family count (p-3)(p-4)",
    )
    expect(
        not feasible_vectors(3, 49) and not feasible_vectors(4, 13),
        "no feasible vector when the smallest prime factor is below the minimal order",
    )
    expect(
        [square_count(d, 11) for d in (2, 3, 4)] == [1, 39, 56 * 39],
        "constituent squares 1, 3n+6 and (4n+12)(3n+6)",
    )


def det(rows) -> int:
    """Exact integer determinant by cofactor expansion along the first row."""
    rows = [list(r) for r in rows]
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** col * lead * det([r[:col] + r[col + 1 :] for r in rows[1:]])
        for col, lead in enumerate(rows[0])
    )


def failing_directions(alphas, n: int) -> list[tuple[int, ...]]:
    """Directions u whose alpha . u is not a unit mod n."""
    d = len(alphas)
    dots = (directions(d) @ np.array(alphas, dtype=np.int64)) % n
    return [tuple(u) for u, ok in zip(directions(d).tolist(), unit_table(n)[dots]) if not ok]
