"""Small exact integer helpers for arithmetic modulo n.

Everything here works on plain Python ints so results are exact at any
size; callers that care about runtime pass moduli well below MAX_MODULUS.
The one exception is unit_table, a boolean lookup over the residues mod n
that batched callers index with whole arrays of reduced values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Moduli are capped so downstream enumeration and array work stay desk-scale.
MAX_MODULUS = 1000


@dataclass(frozen=True)
class Residue:
    """An integer reduced modulo a fixed modulus, kept in [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(
                f"residue {self.value} out of range for modulus {self.modulus}"
            )

    def __int__(self) -> int:
        return self.value


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers.

    gcd(0, n) is n, which is how "shares every factor with n" shows up in
    the feasibility checks.  gcd(0, 0) is rejected rather than given a
    conventional value.
    """
    if a < 0 or b < 0:
        raise ValueError(f"gcd requires nonnegative inputs, got ({a}, {b})")
    if a == 0 and b == 0:
        raise ValueError("undefined gcd: gcd(0, 0)")
    return math.gcd(a, b)


def reduce(a: int, n: int) -> Residue:
    """Reduce an arbitrary integer into [0, n)."""
    _check_modulus(n)
    return Residue(a % n, n)


def mod_inverse(a: int, n: int) -> Residue:
    """Multiplicative inverse of a modulo n.

    Raises ValueError("not invertible ...") when gcd(a, n) > 1.
    """
    _check_modulus(n)
    r = a % n
    if gcd(r, n) != 1:
        raise ValueError(f"not invertible: {a} has no inverse modulo {n}")
    return Residue(pow(r, -1, n), n)


def is_coprime(a: int, n: int) -> bool:
    """True when a (reduced mod n) shares no factor with n."""
    return gcd(a % n, n) == 1


@cache
def unit_table(n: int) -> np.ndarray:
    """Read-only boolean table over [0, n): entry r is True when r is a unit mod n."""
    _check_modulus(n)
    table = np.gcd(np.arange(n), n) == 1
    table.flags.writeable = False
    return table


def _check_modulus(n: int) -> None:
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} above supported cap {MAX_MODULUS}")
