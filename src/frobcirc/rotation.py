"""Complete rotations: verification, fixed points, gossip certificates.

A complete rotation of a circulant is a unit w whose multiplication action
fixes the connection set S setwise and permutes it in a single |S|-cycle.
Its fixed points are the nonzero residues lying in <w>-orbits shorter than
the order of w.
"""

from dataclasses import dataclass
from math import gcd

from .circulant import Circulant
from .errors import NotARotation
from .numtheory import factorize, multiplicative_order, require_unit


@dataclass(frozen=True)
class RotationReport:
    """The fixed point set F of a unit w of order d acting on Z_n \\ {0}.

    A residue v lies in a <w>-orbit shorter than d exactly when
    w^(d/l) v = v for some prime l | d, that is, when v is a multiple of
    m_l = n / gcd(n, w^(d/l) - 1).  So F (`fixed`) is the union, over the
    primes l | d, of the arithmetic progressions range(m_l, n, m_l), in
    ascending order: at most omega(d) of them, and none when every m_l = n.
    """

    n: int
    w: int
    d: int  # order of w mod n
    fixed: tuple[int, ...]  # union of short orbits


def is_complete_rotation(g: Circulant, w: int) -> bool:
    """Does multiplication by w fix conn setwise and drive it in one cycle?

    w is a unit, so x -> w x is injective and w S within S already means
    w S = S.  Then w permutes S, the <w>-orbit of s0 = conn[0] is a cycle
    inside S, and S is one orbit exactly when that cycle has length |S|:
    the walk from s0 must not come back to s0 within |S| - 1 steps.
    """
    require_unit(w, g.n)
    n, conn = g.n, g.conn
    if not set(conn).issuperset([w * s % n for s in conn]):
        return False
    s0 = x = conn[0]
    for _ in range(len(conn) - 1):
        x = x * w % n
        if x == s0:
            return False
    return True


def rotation_report(n: int, w: int) -> RotationReport:
    """The order of w and its fixed points on Z_n \\ {0}.

    F is read off the steps m_l < n (see RotationReport): empty when there
    is none, one range when there is one (as for Gamma_{q,r}), and the
    sorted union of the ranges otherwise.  No array of length n is built.
    """
    d = multiplicative_order(w, n)  # NotAUnit unless w is a unit
    w %= n
    steps = {n // gcd(n, pow(w, d // ell, n) - 1) for ell in factorize(d).primes} - {n}
    if len(steps) == 1:
        (m,) = steps
        fixed = tuple(range(m, n, m))
    else:  # none, or several progressions to merge
        fixed = tuple(sorted({v for m in steps for v in range(m, n, m)}))
    return RotationReport(n, w, d, fixed)


def find_all_rotations(g: Circulant) -> list[int]:
    """Every complete rotation of g, ascending; empty means not rotational.

    Restricting to units is sound: a complete rotation of a circulant is an
    automorphism of Z_n, and those are exactly the unit multiplications.
    S is a single <w>-orbit, so every element of S has the same gcd k with
    n, and w sends s0 = conn[0] to some s in S.  Then w (s0/k) = s/k
    (mod n/k), so w is one of the k lifts to Z_n of (s/k)(s0/k)^(-1)
    mod n/k: at most |S| gcd(s0, n) candidates, each checked in full.

    A circulant embeds as a balanced regular Cayley map exactly when it is
    rotational, so `bool(find_all_rotations(g))` also answers that question.
    """
    n = g.n
    gcds = {gcd(s, n) for s in g.conn}
    if len(gcds) != 1:
        return []
    (k,) = gcds
    m = n // k
    s0_inv = pow(g.conn[0] // k, -1, m)
    found = []
    for s in g.conn:
        base = s // k * s0_inv % m
        for w in range(base, n, m):
            if gcd(w, n) == 1 and is_complete_rotation(g, w):
                found.append(w)
    return sorted(found)


@dataclass(frozen=True)
class GossipCertificate:
    """Evidence that the gossiping time of g meets the rotation-based bound.

    The bound is ceil((n-1)/d).  When the fixed point set is empty every
    orbit has length d, so d divides n-1 and the bound is the exact trivial
    value; otherwise independence plus non-cut certify it.
    """

    n: int
    w: int
    d: int
    fixed: tuple[int, ...]
    independent: bool
    vertex_cut: bool
    holds: bool
    bound: int
    exact: bool


def gossip_certificate(g: Circulant, w: int) -> GossipCertificate:
    """Certificate for the complete rotation w of g; NotARotation otherwise."""
    if not is_complete_rotation(g, w):
        raise NotARotation(f"{w} is not a complete rotation of Cay(Z_{g.n}, S)")
    rep = rotation_report(g.n, w)
    exact = not rep.fixed
    independent = exact or g.is_independent_set(rep.fixed)
    vertex_cut = not exact and g.is_vertex_cut(rep.fixed)
    return GossipCertificate(
        n=g.n,
        w=rep.w,
        d=rep.d,
        fixed=rep.fixed,
        independent=independent,
        vertex_cut=vertex_cut,
        holds=independent and not vertex_cut,
        bound=-(-(g.n - 1) // rep.d),
        exact=exact,
    )
