"""Complete rotations: verification, fixed points, gossip certificates.

A complete rotation of a circulant is a unit w whose multiplication action
fixes the connection set S setwise and permutes it in a single |S|-cycle.
Its fixed points are the nonzero residues lying in <w>-orbits shorter than
the order of w.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .circulant import SEARCH_LIMIT, Circulant
from .errors import Disconnected, NotARotation
from .numtheory import factorize, order_steps, require_unit


@dataclass(frozen=True)
class RotationReport:
    """The fixed point set F of a unit w of order d acting on Z_n \\ {0}.

    A residue v lies in a <w>-orbit shorter than d iff its stabilizer in
    the cyclic group <w> holds the subgroup of some prime order l | d, which
    x = w^(d/l) generates; and x v = v mod n iff v is a multiple of
    m_l = n / gcd(n, x - 1).  So F is the union, over the `steps` m_l < n
    (`numtheory.order_steps`), of the progressions range(m_l, n, m_l).
    """

    n: int
    w: int
    d: int  # order of w mod n
    steps: tuple[int, ...]  # the distinct m_l below n, ascending

    @cached_property
    def fixed_array(self):
        """F, ascending, as an int64 array off one mask of length n (numpy)."""
        if self.n > SEARCH_LIMIT:
            raise ValueError(
                f"n = {self.n} exceeds the limit {SEARCH_LIMIT} for fixed points of {self.w}"
            )
        import numpy as np

        mask = np.zeros(self.n, dtype=np.bool_)
        for m in self.steps:
            mask[m::m] = True
        return np.flatnonzero(mask)

    @cached_property
    def fixed(self) -> tuple[int, ...]:
        """`fixed_array` as a tuple; an empty F at any n, without numpy."""
        return tuple(self.fixed_array.tolist()) if self.steps else ()


def _rotation_steps(g: Circulant, w: int) -> tuple[int, ...] | None:
    """`order_steps` of w, |S| and n / gcd(conn[0], n) if w S = S, else None."""
    require_unit(w, g.n)
    n, conn = g.n, g.conn
    if not set(conn).issuperset([w * s % n for s in conn]):
        return None
    return order_steps(w, g.degree, n // gcd(conn[0], n))


def is_complete_rotation(g: Circulant, w: int) -> bool:
    """Does multiplication by w fix conn setwise and drive it in one cycle?

    w is a unit, so x -> w x is injective, and w S within S means w S = S.
    Then the <w>-orbit of s0 = conn[0] lies in S, and it is S iff it has
    |S| elements.  s0 w^j = s0 mod n iff w^j = 1 mod n' = n / gcd(s0, n),
    so that is the order of w mod n' (`_rotation_steps`), with no walk."""
    return _rotation_steps(g, w) is not None


def invariant_set_independent(g: Circulant, members) -> bool:
    """Is F = `members` independent in g, when S = s0 G for s0 = conn[0]
    and a group G of units that maps F onto itself?  The caller vouches for
    G; the answer is then one translate: F is independent iff F and F + s0
    are disjoint.  If x and x + s are both in F with s = s0 u, u in G, then
    so are u^(-1) x and u^(-1) x + s0.  O(|F|) work beyond one mask of
    length n; members must be vertices in [0, n).  Without such a G use
    `Circulant.is_independent_set`."""
    vs = g._vertices(members)
    return not g._mask(vs)[(vs + g.conn[0]) % g.n].any()


def rotation_report(n: int, w: int, d: int) -> RotationReport:
    """The steps m_l < n of the fixed points on Z_n \\ {0} of the unit w of
    order d (see RotationReport), at any n: F itself is not listed.  d is
    the caller's, checked: ValueError unless w has order d (`order_steps`)."""
    require_unit(w, n)
    steps = order_steps(w, d, n)
    if steps is None:
        raise ValueError(f"{w} does not have order {d} mod {n}")
    return RotationReport(n, w % n, d, steps)


def find_all_rotations(g: Circulant) -> list[int]:
    """Every complete rotation of g, ascending; empty means not rotational.

    Restricting to units is sound: a complete rotation of a circulant is an
    automorphism of Z_n, and those are exactly the unit multiplications.
    S is a single <w>-orbit, so every element of S has the same gcd k with
    n, and s -> s/k maps S one-to-one into the units mod m = n/k.  Let
    T = {(s/k)(s0/k)^(-1) mod m : s in S}, s0 = conn[0], which holds 1.  w
    is a complete rotation iff u = w mod m has uT = T and order |S| (the
    orbit length of s0); then T = <u> is a group, which every element of T
    maps onto itself.  uT = T alone makes ord(u) divide |S|, so one element
    of T with u^(|S|/l) != 1 for the primes l | |S| is checked for uT = T,
    and the rotations are the unit lifts to Z_n of all that pass, or none.
    The filter is the order test of `order_steps` without u^|S| = 1, which
    uT = T implies: that `pow` per element of T is saved (`order_steps` took
    1.8-2.9x as long on K_20011 and K_199999, 2 vCPUs).  With k > 1 there
    can be phi(n) lifts, so n above SEARCH_LIMIT is refused before listing.

    A connected circulant embeds as a balanced regular Cayley map exactly
    when this list is non-empty.  A disconnected one embeds as none (S must
    generate Z_n), yet Cay(Z_9, {3, 6}) has the rotations [2, 5, 8].
    """
    n, conn = g.n, g.conn
    gcds = {gcd(s, n) for s in conn}
    if len(gcds) != 1:
        return []
    (k,) = gcds
    m, size = n // k, len(conn)
    s0_inv = pow(conn[0] // k, -1, m)
    T = {s // k * s0_inv % m for s in conn}
    cofactors = [size // ell for ell in factorize(size).primes]
    generators = [u for u in T if all(pow(u, c, m) != 1 for c in cofactors)]
    if not generators or {generators[0] * t % m for t in T} != T:
        return []
    if k > 1 and n > SEARCH_LIMIT:
        raise ValueError(
            f"n = {n} exceeds the limit {SEARCH_LIMIT} for the rotations of a disconnected graph"
        )
    return sorted(w for u in generators for w in range(u, n, m) if gcd(w, n) == 1)


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
    """Certificate for the complete rotation w of a connected g; Disconnected
    for a disconnected g, NotAUnit for a non-unit w, NotARotation otherwise.

    w has order |S|.  S is one <w>-orbit, so every s in S has the same gcd
    with n, and that gcd is 1 as S generates Z_n, so `_rotation_steps` has
    read the order and the steps of w mod n.  (Cay(Z_9, {3, 6}) is
    disconnected, and its rotation 2 has order 6.)  S = s0 <w> with w
    mapping F onto itself, so one translate decides independence
    (`invariant_set_independent`).  Both kernels read one `fixed_array`.
    """
    if not g.is_connected():
        raise Disconnected("gossip certificate of a disconnected graph")
    steps = _rotation_steps(g, w)
    if steps is None:
        raise NotARotation(f"{w} is not a complete rotation of Cay(Z_{g.n}, S)")
    rep = RotationReport(g.n, w % g.n, g.degree, steps)
    exact = not rep.steps
    independent = exact or invariant_set_independent(g, rep.fixed_array)
    vertex_cut = not exact and g.is_vertex_cut(rep.fixed_array)
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
