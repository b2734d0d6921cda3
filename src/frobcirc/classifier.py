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

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt

from .circulant import Circulant
from .errors import BadExponent, EvenKernel, InadmissibleDegree
from .numtheory import Factorization, crt_combine, factorize, primitive_root, require_unit

# Largest degree enumerated.  On a 2-vCPU machine `classify 1999993`, whose
# K_p has d = 1,999,992, takes about 6 s at 463 MB peak RSS (10 s and the
# same peak with --format json).
DEGREE_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class FrobeniusClass:
    """One isomorphism class: Cay(Z_n, subgroup) with canonical rotation h.

    `subgroup` is the ascending element list of <h>, as `subgroup_of` gives.
    `n_factors` and `d_factors` are factorize(n) and factorize(d), which the
    enumeration shares among its classes; a class built without them has
    them computed when they are needed.
    """

    n: int
    d: int
    h: int
    subgroup: tuple[int, ...]
    m_vector: tuple[int, ...]
    n_factors: Factorization | None = field(default=None, repr=False, compare=False)
    d_factors: Factorization | None = field(default=None, repr=False, compare=False)

    @cached_property
    def graph(self) -> Circulant:
        """Cay(Z_n, subgroup), built on first access and kept."""
        return Circulant(self.n, self.subgroup)


def _check_odd(f: Factorization):
    if f.n < 3:
        raise ValueError(f"modulus {f.n} must be >= 3")
    if f.n % 2 == 0:
        raise EvenKernel(f"kernel modulus {f.n} is even")


def max_degree_D(f: Factorization) -> int:
    """D = gcd(p_1 - 1, ..., p_l - 1)."""
    _check_odd(f)
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
    _check_odd(f)
    if d % 2 != 0 or max_degree_D(f) % d != 0:
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


def _check_limit(d: int):
    if d > DEGREE_LIMIT:
        raise ValueError(f"degree {d} exceeds the supported limit {DEGREE_LIMIT}")


def _classes_at(f: Factorization, d: int, comps) -> list[FrobeniusClass]:
    tuples = [(1,)]
    if f.num_primes > 1:
        units = [m for m in range(1, d) if gcd(m, d) == 1]
        for _ in range(f.num_primes - 1):
            tuples = [t + (u,) for t in tuples for u in units]
    fd = factorize(d)
    classes = [
        FrobeniusClass(f.n, d, h, subgroup_of(h, f.n), m, f, fd)
        for m in tuples
        for h in [_glue_h(comps, d, m)]
    ]
    classes.sort(key=lambda c: c.h)
    return classes


def enumerate_classes(f: Factorization, d: int) -> list[FrobeniusClass]:
    """All phi(d)^(l-1) classes at degree d, ascending by canonical h.

    The canonical representative of each class is the h built from the
    m-tuple with m_1 = 1 (every class contains exactly one such tuple).
    A degree above DEGREE_LIMIT raises ValueError.
    """
    _check_degree(f, d)
    _check_limit(d)
    return _classes_at(f, d, _local_components(f))


def all_classes(f: Factorization) -> list[FrobeniusClass]:
    """Classes for every admissible degree, ascending by (d, h).

    The primitive roots are found once for all degrees, and a largest
    degree above DEGREE_LIMIT raises ValueError before any class is built.
    """
    degrees = admissible_degrees(f)
    _check_limit(degrees[-1])
    comps = _local_components(f)
    return [c for d in degrees for c in _classes_at(f, d, comps)]


def is_semiregular(n: int, subgroup) -> bool:
    """H acts semiregularly on Z_n \\ {0} iff gcd(h - 1, n) = 1 for every
    non-identity h in H."""
    return all(gcd(h - 1, n) == 1 for h in subgroup if h % n != 1)


@dataclass(frozen=True)
class FrobeniusReport:
    regular_on_s: bool  # S = <h> as sets, so H acts regularly on S
    semiregular: bool
    connected: bool
    degree_bound: bool  # d < smallest prime factor of n
    symmetric: bool  # S = -S, so -1 is in H and |H| is even

    @property
    def ok(self) -> bool:
        return (
            self.regular_on_s
            and self.semiregular
            and self.connected
            and self.degree_bound
            and self.symmetric
        )


def verify_first_kind_frobenius(c: FrobeniusClass) -> FrobeniusReport:
    """Check the defining conditions on a constructed class, S = c.subgroup.

    No graph is built: S is read as it is, and S generates Z_n, so
    Cay(Z_n, S) is connected, iff gcd(n, s_1, ..., s_k) = 1.

    S = <h> makes H regular on S: multiplication by H is transitive on the
    group H itself and stabilizers in a group action on itself are trivial.
    1 in S and h S = S put <h> inside S, so S = <h> exactly when the order
    of h, checked by its powers h^(d/l) for the primes l | d, is |S| = d.
    A group S is closed under negation iff it holds -1, which is then one
    membership test; otherwise every element's negative is looked up.

    Semiregularity then needs one gcd per prime l | d.  An element x of H
    fixes a nonzero residue v iff gcd(x - 1, n) > 1.  If x != 1 fixes v,
    some power of x of prime order l fixes v, and it generates the unique
    subgroup of order l of the cyclic group <h>, as does h^(d/l); every
    generator of a cyclic group fixes exactly what the group fixes.  So
    <h> is semiregular iff gcd(h^(d/l) - 1, n) = 1 for every prime l | d.
    When S != <h>, `semiregular` still describes S, by `is_semiregular`.
    """
    S, h, n, d = c.subgroup, c.h, c.n, c.d
    members = set(S)
    gens = [pow(h, d // l, n) for l in (c.d_factors or factorize(d)).primes]
    regular_on_s = (
        1 in members
        and len(members) == d
        and pow(h, d, n) == 1
        and 1 not in gens
        and {h * s % n for s in S} == members
    )
    if regular_on_s:
        semiregular = all(gcd(x - 1, n) == 1 for x in gens)
        symmetric = n - 1 in members
    else:
        semiregular = is_semiregular(n, S)
        symmetric = all(n - s in members for s in members)
    return FrobeniusReport(
        regular_on_s=regular_on_s,
        semiregular=semiregular,
        connected=gcd(n, *S) == 1,
        degree_bound=d < (c.n_factors or factorize(n)).smallest_prime,
        symmetric=symmetric,
    )
