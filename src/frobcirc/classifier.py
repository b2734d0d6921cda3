"""Construction and enumeration of rotational first-kind Frobenius circulants.

For an odd modulus n = p_1^e_1 ... p_l^e_l and any even divisor d of
D = gcd(p_1 - 1, ..., p_l - 1), there are exactly phi(d)^(l-1) isomorphism
classes.  Each class is Cay(Z_n, <h>) where h is glued by CRT from local
components eta_i^(m_i * phi(p_i^e_i) / d), with m_i coprime to d.

Two exponent tuples give the same subgroup H = <h> exactly when they differ
by a common unit factor mod d, so every class has a unique representative
tuple with m_1 = 1; enumeration iterates those directly.  A brute-force
materialize-and-dedup oracle over all phi(d)^l tuples lives in the tests.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .circulant import SEARCH_LIMIT
from .errors import BadExponent, EvenKernel, InadmissibleDegree
from .numtheory import Factorization, crt_combine, factorize, order_steps
from .numtheory import primitive_root, require_unit


@dataclass(frozen=True)
class FrobeniusClass:
    """One isomorphism class, Cay(Z_n, <h>) with h the canonical rotation of
    order d, as a plain value: equal classes get equal verdicts."""

    n: int
    d: int
    h: int
    m_vector: tuple[int, ...]

    @property
    def subgroup(self) -> tuple[int, ...]:
        """S = <h> as `subgroup_of` gives it, walked on each access, not kept."""
        return subgroup_of(self.h, self.n)


def max_degree_D(f: Factorization) -> int:
    """D = gcd(p_1 - 1, ..., p_l - 1)."""
    if f.n < 3:
        raise ValueError(f"modulus {f.n} must be >= 3")
    if f.n % 2 == 0:
        raise EvenKernel(f"kernel modulus {f.n} is even")
    D = 0
    for p, _ in f.factors:
        D = gcd(D, p - 1)
    return D


def admissible_degrees(f: Factorization) -> list[int]:
    """Ascending even divisors of D; the valid degrees for kernel Z_n."""
    D = max_degree_D(f)
    pairs = [(k, D // k) for k in range(1, isqrt(D) + 1) if D % k == 0]
    return sorted({d for pair in pairs for d in pair if d % 2 == 0})


def _local_components(f: Factorization):
    comps = []
    for p, e in f.factors:
        q = p**e
        eta = primitive_root(p, e)
        phi = p ** (e - 1) * (p - 1)
        comps.append((q, eta, phi))
    return comps


def _glue_h(comps, d: int, m: tuple[int, ...]) -> int:
    """CRT-glue h from the local components and a validated exponent tuple."""
    return crt_combine([(pow(eta, mi * phi // d, q), q) for (q, eta, phi), mi in zip(comps, m)])


def _check_degree(f: Factorization, d: int):
    if d not in admissible_degrees(f):
        raise InadmissibleDegree(f"degree {d} is not an even divisor of D for n={f.n}")


def construct_h(f: Factorization, d: int, m: tuple[int, ...]) -> int:
    """Glue h from local prime-power components for the exponent tuple m."""
    _check_degree(f, d)
    if len(m) != f.num_primes:
        raise BadExponent(f"expected {f.num_primes} exponents, got {len(m)}")
    for mi in m:
        if not 1 <= mi < d or gcd(mi, d) != 1:
            raise BadExponent(f"m = {mi} is not a unit mod d = {d}")
    return _glue_h(_local_components(f), d, m)


def subgroup_of(h: int, n: int) -> tuple[int, ...]:
    """Sorted element list of <h> in Z_n^*; h must be a unit mod n."""
    require_unit(h, n)
    elems = []
    x = h % n
    while x != 1:
        elems.append(x)
        x = x * h % n
    elems.append(1)
    return tuple(sorted(elems))


def _classes(f: Factorization, degrees: list[int]) -> list[FrobeniusClass]:
    """The classes at each of the ascending admissible `degrees`, ascending by
    (d, h).  A largest degree above SEARCH_LIMIT raises ValueError before any
    class is built, and the primitive roots are found once for all degrees."""
    if degrees[-1] > SEARCH_LIMIT:
        raise ValueError(f"degree {degrees[-1]} exceeds the supported limit {SEARCH_LIMIT}")
    comps = _local_components(f)
    classes = []
    for d in degrees:
        tuples = [(1,)]
        if f.num_primes > 1:
            units = [m for m in range(1, d) if gcd(m, d) == 1]
            for _ in range(f.num_primes - 1):
                tuples = [t + (u,) for t in tuples for u in units]
        at_d = [FrobeniusClass(f.n, d, _glue_h(comps, d, m), m) for m in tuples]
        classes += sorted(at_d, key=lambda c: c.h)
    return classes


def enumerate_classes(f: Factorization, d: int) -> list[FrobeniusClass]:
    """All phi(d)^(l-1) classes at degree d, ascending by canonical h.

    The canonical representative of each class is the h built from the
    m-tuple with m_1 = 1 (every class contains exactly one such tuple).
    A degree that is not admissible raises InadmissibleDegree, and one above
    SEARCH_LIMIT raises ValueError.
    """
    _check_degree(f, d)
    return _classes(f, [d])


def all_classes(f: Factorization) -> list[FrobeniusClass]:
    """Classes for every admissible degree, ascending by (d, h); a largest
    degree above SEARCH_LIMIT raises ValueError before any class is built."""
    return _classes(f, admissible_degrees(f))


@dataclass(frozen=True)
class FrobeniusReport:
    regular_on_s: bool  # h has order d, so H = <h> acts regularly on S = <h>
    semiregular: bool  # h has order d and no fixed point steps: gcd(h^(d/l) - 1, n) = 1, l | d
    connected: bool  # 1 is in S, so S generates Z_n
    degree_bound: bool  # d < smallest prime factor of n
    symmetric: bool  # S = -S: d is even and h^(d/2) = -1 mod n

    @property
    def ok(self) -> bool:
        return (
            self.semiregular
            and self.connected
            and self.degree_bound
            and self.symmetric
        )


def verify_first_kind_frobenius(c: FrobeniusClass) -> FrobeniusReport:
    """Check the defining conditions of Cay(Z_n, S), S = <h>, off n, h and d.

    No element of S is read, and S is not built.  h must be a unit mod n
    (NotAUnit otherwise).

    H = <h> acts regularly on S = H (multiplication is transitive on a group
    and its stabilizers are trivial), and |H| = d exactly when h has order
    d (`regular_on_s`: `order_steps` is not None).

    <h> of order d is semiregular iff no nonzero residue lies in an orbit
    shorter than d, that is, iff h has no fixed point steps (`semiregular`:
    `order_steps` is (), proved at rotation.RotationReport).

    The group S is closed under negation iff it holds -1.  A cyclic group of
    even order d has exactly one involution, h^(d/2), and one of odd order
    has none; -1 != 1 is an involution, as n >= 3.  So S = -S iff d is even
    and h^(d/2) = -1 mod n.  S holds 1, so Cay(Z_n, S) is connected.

    When h does not have order d, `regular_on_s`, `semiregular` and `ok`
    are False, and `symmetric` is the same test read through d, which then
    need not describe <h>.
    """
    h, n, d = c.h, c.n, c.d
    require_unit(h, n)
    steps = order_steps(h, d, n)
    return FrobeniusReport(
        regular_on_s=steps is not None,
        semiregular=steps == (),
        connected=True,
        degree_bound=d < factorize(n).smallest_prime,
        symmetric=d % 2 == 0 and pow(h, d // 2, n) == n - 1,
    )
