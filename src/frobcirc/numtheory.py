"""Exact integer and modular arithmetic: factorization, the unit check,
the order test with the fixed point steps, primitive roots, CRT.

Everything here works on plain Python integers, so results are exact at any
size.  Factorization is deterministic trial division, memoized in a bounded
cache, and deliberately capped at 10**9; this library targets desk-scale
moduli, not cryptographic ones.  No multiplicative order is computed: each
order the package uses is a degree its caller holds (|S| for a rotation, d
for a class), and `order_steps` checks it by `pow` against the primes of
that degree, and reads a rotation's fixed point steps off the same powers.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .errors import EvenKernel, NotAUnit

FACTOR_LIMIT = 10**9


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition n = p_1^e_1 * ... * p_l^e_l.

    `factors` is a tuple of (prime, exponent) pairs with primes strictly
    ascending.  factorize(1) yields the empty product.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def num_primes(self) -> int:
        return len(self.factors)

    @property
    def smallest_prime(self) -> int:
        if not self.factors:
            raise ValueError("1 has no prime factors")
        return self.factors[0][0]


@lru_cache
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to sqrt(n); the last 128 results are kept."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > FACTOR_LIMIT:
        raise ValueError(f"n = {n} exceeds the supported limit {FACTOR_LIMIT}")
    m = n
    factors = []
    p = 2
    while p <= isqrt(m):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def require_unit(a: int, m: int):
    """Raise NotAUnit unless gcd(a, m) = 1."""
    if gcd(a, m) != 1:
        raise NotAUnit(f"{a} is not a unit mod {m}")


def order_steps(x: int, d: int, n: int) -> tuple[int, ...] | None:
    """None unless x has order d mod n, else the distinct m_l < n, ascending, of
    m_l = n / gcd(n, x^(d/l) - 1), l a prime of d: the fixed point steps
    (rotation.RotationReport).  m_l = 1 iff x^(d/l) = 1, so x has order d
    iff x^d = 1 and no m_l is 1, as a proper divisor of d divides some d/l."""
    if pow(x, d, n) != 1:
        return None
    steps = {n // gcd(n, pow(x, d // l, n) - 1) for l in factorize(d).primes}
    return None if 1 in steps else tuple(sorted(steps - {n}))


def primitive_root(p: int, e: int = 1) -> int:
    """Smallest generator (>= 2) of the unit group modulo p**e, p an odd prime.

    A primitive root modulo p**e is automatically one modulo p as well.
    """
    if p == 2:
        raise EvenKernel("primitive roots are only needed for odd prime powers here")
    if e < 1:
        raise ValueError(f"exponent {e} must be >= 1")
    m = p**e
    phi = p ** (e - 1) * (p - 1)
    for eta in range(2, m):
        if order_steps(eta, phi, m) is not None:  # None for a multiple of p
            return eta
    raise ValueError(f"no primitive root found mod {p}^{e}")  # unreachable for odd p


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Unique x mod prod(m_i) with x = r_i (mod m_i), for pairwise coprime m_i.

    Implemented as x = sum (n/m_i) * b_i * r_i with b_i * (n/m_i) = 1 (mod m_i);
    the m_i are pairwise coprime, so each b_i exists.
    """
    if not residues:
        raise ValueError("need at least one residue")
    n = 1
    for _, m in residues:
        if m < 2:
            raise ValueError(f"modulus {m} must be >= 2")
        if gcd(n, m) != 1:
            raise ValueError("moduli are not pairwise coprime")
        n *= m
    x = 0
    for r, m in residues:
        ni = n // m
        x = (x + ni * pow(ni, -1, m) * r) % n
    return x
