"""HARTS (hexagonal mesh) networks and the degree-6 circulants TL_{n_k}.

TL_{n_k} = Cay(Z_{n_k}, <3k+2>) with n_k = 3k^2 + 3k + 1; 3k+2 solves
x^2 - x + 1 = 0 mod n_k, so the subgroup is {+-1, +-(3k+1), +-(3k+2)}.
The size-k hexagonal mesh lives on n_{k-1} = 3k^2 - 3k + 1 vertices with
connection set {+-(k-1), +-k, +-(2k-1)} and is isomorphic to TL_{n_{k-1}}
via multiplication by 3k.

Diameters (Chen, Shin & Kandlur, "Addressing, routing, and broadcasting in
hexagonal mesh multiprocessors", IEEE Trans. Computers 39(1), 1990): TL_{n_k}
has diameter k, so the size-k mesh has diameter k - 1.  `tl_diameter`
returns this closed form; the tests compare it with a BFS.
"""

from .circulant import Circulant
from .errors import SizeTooSmall


def tl_vertex_count(k: int) -> int:
    return 3 * k * k + 3 * k + 1


def _check_size(k: int):
    if k < 2:
        raise SizeTooSmall(f"size k = {k} must be >= 2")


def _tl_conn(k: int) -> set[int]:
    n = tl_vertex_count(k)
    a = 3 * k + 2
    return {1, n - 1, a % n, (n - a) % n, a - 1, n - (a - 1)}


def _mesh_conn(k: int) -> set[int]:
    n = tl_vertex_count(k - 1)
    return {t % n for s in (k - 1, k, 2 * k - 1) for t in (s, -s)}


def tl_graph(k: int) -> Circulant:
    _check_size(k)
    return Circulant(tl_vertex_count(k), tuple(_tl_conn(k)))


def harts_graph(k: int) -> Circulant:
    _check_size(k)
    return Circulant(tl_vertex_count(k - 1), tuple(_mesh_conn(k)))


def harts_iso_tl(k: int) -> int:
    """Multiplier 3k mapping the size-k mesh onto TL_{n_{k-1}}, verified
    setwise on the connection sets."""
    _check_size(k)
    n = tl_vertex_count(k - 1)
    sigma = (3 * k) % n
    mapped = {sigma * s % n for s in _mesh_conn(k)}
    if mapped != _tl_conn(k - 1):
        raise AssertionError(f"multiplier {sigma} failed to map the mesh onto TL")
    return sigma


def tl_diameter(k: int) -> int:
    """Diameter of TL_{n_k}, k >= 1: it is k (Chen, Shin & Kandlur 1990).

    Z_{n_k} is Z[z] (z a primitive sixth root of unity) modulo the ideal
    generated by (k+1) + kz, of norm n_k, with z -> 3k+2; the six units
    go to S, so TL_{n_k} is the triangular lattice folded by that ideal.
    The n_k lattice points within hexagonal distance k of 0 tile the plane
    under the ideal's translates, so each residue has exactly one lift in
    that hexagon, and its distance is the lift's: at most k, and exactly k
    on the hexagon's rim.
    """
    if k < 1:
        raise SizeTooSmall(f"size k = {k} must be >= 1")
    return k
