"""The prime-power family Gamma_{q,r} = Cay(Z_q, <(p-1)^(p^r)>), q = p^e.

For an odd prime p, e >= 3 and 0 <= r <= e-1 this is a connected rotational
circulant of degree 2 p^(e-r-1).  The set F of nonzero multiples of p is
always independent, and a vertex-cut exactly when r >= 1 (the r >= 1
instances generalize Lichiardopol's counterexample; the r = 0 instances
certify the gossip bound).  For r <= e-2, F is the fixed point set of the
rotation h; at r = e-1 the graph is the q-cycle and h = -1 fixes nothing.
"""

from dataclasses import dataclass

from .circulant import SEARCH_LIMIT, Circulant
from .errors import ExponentTooSmall
from .numtheory import factorize, order_steps
from .rotation import invariant_set_independent


@dataclass(frozen=True)
class GammaSpec:
    p: int
    e: int
    r: int
    q: int  # p**e
    h: int  # (p-1)**(p**r) mod q
    degree: int  # 2 * p**(e-r-1)


def _validate(p: int, e: int, r: int):
    if p < 3:
        raise ValueError(f"p = {p} must be an odd prime")
    if e < 3:
        raise ExponentTooSmall(f"e = {e}; the family needs e >= 3")
    if not 0 <= r <= e - 1:
        raise ValueError(f"r = {r} outside [0, {e - 1}]")
    q = 1
    for _ in range(e):  # stops at the limit, so a huge e costs nothing
        q *= p
        if q > SEARCH_LIMIT:  # the report searches Gamma - F
            raise ValueError(f"q = {p}^{e} exceeds the supported limit {SEARCH_LIMIT}")
    if factorize(p).factors != ((p, 1),):  # last, once q <= SEARCH_LIMIT bounds p <= 125
        raise ValueError(f"p = {p} must be an odd prime")


def build_gamma(p: int, e: int, r: int) -> tuple[GammaSpec, Circulant]:
    """Construct Gamma_{q,r}, its connection set from `connection_closed_form`
    (`verify_theorem_q` checks that this is <h>).  The exponent p^r is
    handled inside pow, so (p-1)^(p^r) is never materialized as an integer."""
    _validate(p, e, r)
    q = p**e
    spec = GammaSpec(p, e, r, q, pow(p - 1, p**r, q), 2 * p ** (e - r - 1))
    return spec, Circulant(q, connection_closed_form(spec))


def connection_closed_form(spec: GammaSpec) -> tuple[int, ...]:
    """The subgroup <h> as {p^(r+1) k +- 1 mod q : 0 <= k < p^(e-r-1)}, that
    is, the residues congruent to +-1 mod step = p^(r+1): two disjoint ranges,
    as step >= 3, and unsorted; `Circulant` puts them in order."""
    step = spec.p ** (spec.r + 1)
    return (*range(1, spec.q, step), *range(step - 1, spec.q, step))


@dataclass(frozen=True)
class GammaReport:
    spec: GammaSpec
    degree_ok: bool  # order of h equals 2 p^(e-r-1)
    closed_form_ok: bool  # h = -1 mod p^(r+1); with degree_ok, <h> is the closed form
    fixed_formula_ok: bool  # h has order 2 p^(e-r-1) and steps (p,) for r <= e-2, () at r = e-1
    independent: bool
    vertex_cut: bool
    dichotomy_ok: bool  # vertex_cut == (r >= 1)
    witness: int | None  # p + 1 when F is a cut: unreachable by the argument in verify_theorem_q
    gossip_bound: int | None  # ceil((q-1)/degree), when F is not a cut

    @property
    def ok(self) -> bool:
        return (
            self.closed_form_ok
            and self.fixed_formula_ok
            and self.independent
            and self.dichotomy_ok
        )


def verify_theorem_q(p: int, e: int, r: int) -> GammaReport:
    """Run every structural check for one (p, e, r) instance; all checks are
    evaluated even if an early one fails.  One `order_steps` call reads
    `degree_ok` (not None) and `fixed_formula_ok` (its steps, so degree_ok).

    The graph's S is the closed form, the residues congruent to +-1 mod
    t = p^(r+1), and no walk of <h> checks it.  t divides q, so those
    residues form a subgroup of Z_q^*: the kernel of Z_q^* -> Z_t^*, of
    order q/t, times {+-1}, which meets it only in 1 (t >= 3), so of order
    2p^(e-r-1).  When h = -1 mod t (`closed_form_ok`) the subgroup holds h,
    so it is <h> exactly when ord(h) = 2p^(e-r-1) (`degree_ok`).

    One BFS on Gamma - F decides the cut.  The witness p + 1 needs no second
    search for r >= 1: every s in S is +-1 mod t, and every x = +-p mod t
    is a nonzero multiple of p, so in F.  A walk from 0 in Gamma - F thus
    keeps x mod t in (-p, p), and t >= p^2 >= 2p + 1 puts p + 1, which
    survives, outside.

    Independence takes one translate (`invariant_set_independent` with
    G = S): S is a subgroup that holds s0 = 1, and a unit maps the nonzero
    multiples of p onto themselves.  So it does not depend on h.
    """
    spec, g = build_gamma(p, e, r)
    import numpy as np  # after build_gamma's checks: refused input never loads it

    q, h, deg = spec.q, spec.h, spec.degree
    t = p ** (r + 1)
    fixed = np.arange(p, q, p, dtype=np.int64)  # F, the nonzero multiples of p, for every r
    steps = order_steps(h, deg, q)
    vertex_cut = g.is_vertex_cut(fixed)
    return GammaReport(
        spec=spec,
        degree_ok=steps is not None,
        closed_form_ok=h % t == t - 1,
        fixed_formula_ok=steps == ((p,) if r <= e - 2 else ()),
        independent=invariant_set_independent(g, fixed),
        vertex_cut=vertex_cut,
        dichotomy_ok=vertex_cut == (r >= 1),
        witness=p + 1 if vertex_cut else None,
        gossip_bound=None if vertex_cut else -(-(q - 1) // deg),
    )
