"""Circulant graphs Cay(Z_n, S) with BFS-based structural queries.

Adjacency is never materialized: a vertex v is adjacent to v + s (mod n) for
s in the connection set, so BFS works straight off the residue list.  The
heavy scans live in _kernels.  A graph is built and `is_connected` answers
at any n >= 3; the queries that build arrays of length n need n <= SEARCH_LIMIT.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import _kernels
from .errors import DegenerateCut, Disconnected

# Largest n searched, the one cap on arrays of length n, on F, on the rotations
# of a disconnected graph and on q (gamma).  Fresh process, shared 2-vCPU machine:
# `gamma 3 12 0` 0.24-0.26 s at 60 MB peak RSS, `gamma 3 13 0` 0.44-0.53 s at
# 121 MB, `gamma 3 13 1` 0.50-0.58 s at 154 MB.  Below 2^31 (see _kernels).
SEARCH_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class Circulant:
    """Cay(Z_n, conn): conn is symmetric, excludes 0, and is kept sorted without repeats."""

    n: int
    conn: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"modulus {self.n} must be >= 3")
        conn = tuple(sorted(set(self.conn)))
        if not conn:
            raise ValueError("connection set is empty")
        if conn[0] < 1 or conn[-1] >= self.n:
            # the first element outside [1, n) in sorted order
            bad = conn[0] if conn[0] < 1 else conn[bisect_left(conn, self.n)]
            raise ValueError(f"connection element {bad} outside [1, {self.n})")
        # reversed, n - s runs over -conn ascending
        if conn != tuple(self.n - s for s in reversed(conn)):
            raise ValueError("connection set is not symmetric under negation")
        object.__setattr__(self, "conn", conn)

    @cached_property
    def _conn_arr(self):
        """conn as an int64 array for the kernels, built on the first kernel
        call, so that a graph that is only validated and read (`harts`,
        `verify` with no fixed points) never loads numpy."""
        import numpy as np

        return np.array(self.conn, dtype=np.int64)

    @property
    def degree(self) -> int:
        return len(self.conn)

    def _require_search(self):
        if self.n > SEARCH_LIMIT:
            raise ValueError(f"n = {self.n} exceeds the search limit {SEARCH_LIMIT}")

    def _vertices(self, members):
        """`members` as an int64 array, each checked to be a vertex in [0, n);
        an int64 array is taken as it is."""
        import numpy as np

        if isinstance(members, np.ndarray) and members.dtype == np.int64:
            vs = members
        else:
            try:
                vs = np.fromiter(members, dtype=np.int64)
            except OverflowError:  # beyond int64: outside [0, n) for a searchable n
                self._require_search()
                vs = np.array([-1])
        if vs.size and (vs.min() < 0 or vs.max() >= self.n):
            raise ValueError(f"member outside [0, {self.n})")
        return vs

    def _mask(self, vertices):
        """The indicator of an array of vertices: the first array of length n of every search."""
        import numpy as np

        self._require_search()
        mask = np.zeros(self.n, dtype=np.bool_)
        mask[vertices] = True
        return mask

    def _distances(self, source: int, blocked):
        """BFS distances from the vertex `source`, the vertices of the bool
        mask `blocked` removed, as an int64 array."""
        (source,) = self._vertices((source,)).tolist()
        return _kernels.bfs_distances(self.n, self._conn_arr, source, blocked)

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")
        return sorted((v + s) % self.n for s in self.conn)

    def is_connected(self) -> bool:
        """Arithmetic connectivity criterion: S generates Z_n, that is,
        gcd(n, s_1, ..., s_k) = 1."""
        g = self.n
        for s in self.conn:
            g = gcd(g, s)
            if g == 1:
                return True
        return False

    is_connected_gcd = is_connected  # the criterion's earlier name, kept for callers

    def is_independent_set(self, members) -> bool:
        """No two members adjacent: no vertex of the member set F lies in
        F + conn, at any F, by one kernel step kept to the mask of F.
        Members must be vertices in [0, n).  When S = s0 G for a group G of
        units that maps F onto itself, `rotation.invariant_set_independent`
        answers with one translate."""
        vs = self._vertices(members)
        mask = self._mask(vs)  # before _conn_arr: the search limit refuses first
        return not _kernels._step(self.n, self._conn_arr, vs, mask)[0].size

    def is_vertex_cut(self, members) -> bool:
        """Does removing `members` disconnect the graph?  Requires a connected
        graph and at least two surviving vertices.  Members must be vertices
        in [0, n)."""
        vs = self._vertices(members)
        if not self.is_connected():
            raise Disconnected("vertex-cut query on a disconnected graph")
        if not vs.size:  # n >= 3 vertices survive: not degenerate
            return False
        removed = self._mask(vs)
        survivors = self.n - int(removed.sum())
        if survivors < 2:
            raise DegenerateCut("removal leaves fewer than two vertices")
        dist = self._distances(int(removed.argmin()), removed)  # the first survivor
        return int((dist >= 0).sum()) != survivors

    def diameter(self) -> int:
        """Eccentricity of vertex 0; valid for the whole graph by
        vertex-transitivity."""
        return self.eccentricity(0)

    def eccentricity(self, v: int) -> int:
        dist = self._distances(v, self._mask([]))
        if (dist < 0).any():
            raise Disconnected("eccentricity of a disconnected graph")
        return int(dist.max())

    def reachable_from(self, source: int, removed=()) -> set[int]:
        dist = self._distances(source, self._mask(self._vertices(removed)))
        return set((dist >= 0).nonzero()[0].tolist())

