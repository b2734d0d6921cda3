"""Hot inner loops: circulant BFS, stabilizer brute force, unit-multiplier scan.

One vectorized numpy implementation per kernel.  The tests compare each one
against a plain-loop oracle (tests/oracles.py).

All kernels take int64 arrays; moduli stay far below 2**31, so products fit
comfortably in int64.
"""

import numpy as np

BACKEND = "numpy"


def bfs_distances(n, conn, source, blocked):
    """Distances from `source` in Cay(Z_n, conn) minus the blocked vertices;
    -1 marks an unreached vertex."""
    dist = np.full(n, -1, np.int64)
    if blocked[source]:
        return dist
    dist[source] = 0
    frontier = np.array([source], np.int64)
    level = 0
    while frontier.size:
        nxt = np.unique((frontier[:, None] + conn[None, :]).ravel() % n)
        nxt = nxt[(dist[nxt] < 0) & ~blocked[nxt]]
        level += 1
        dist[nxt] = level
        frontier = nxt
    return dist


def semiregular_scan(n, subgroup):
    """Does no non-identity h in `subgroup` fix a nonzero residue mod n?"""
    xs = np.arange(1, n, dtype=np.int64)
    for h in subgroup:
        if h == 1:
            continue
        if np.any((h * xs) % n == xs):
            return False
    return True


def multiplier_scan(n, conn_a, conn_b):
    """Smallest unit sigma with sigma * conn_a inside conn_b, or 0."""
    mask = np.zeros(n, np.bool_)
    mask[conn_b] = True
    units = np.arange(1, n, dtype=np.int64)
    units = units[np.gcd(units, n) == 1]
    hits = mask[(units[:, None] * conn_a[None, :]) % n].all(axis=1)
    idx = np.flatnonzero(hits)
    return int(units[idx[0]]) if idx.size else 0
