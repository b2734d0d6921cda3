"""Hot inner loops: circulant BFS and sumsets.

One vectorized numpy implementation per kernel.  The tests compare each one
against a plain-loop oracle (tests/oracles.py).

All kernels take int64 arrays of residues mod n, for n <= SEARCH_LIMIT <
2^31, which `Circulant` enforces: the sums x + s < 2n then fit int64, and
the dense step of _sumset rounds exactly.

numpy is imported inside each kernel, not here, so that a process that never
runs one (`harts`, `classify`, `verify` with no fixed points) never loads it.
"""

BACKEND = "numpy"

# A step takes the sparse path while |X| |S| <= DENSE_RATIO * n.
DENSE_RATIO = 4


def _sumset(n, conn, members):
    """X + S mod n for the vertex set X = `members` and S = `conn`, as a
    sorted array of distinct vertices.

    Sparse step, when |X| |S| <= DENSE_RATIO * n: expand every x + s, sort
    and deduplicate, O(|X| |S| log).  Dense step otherwise: the cyclic
    convolution of the indicators of X and S by a real FFT, O(n log n).  Its
    entry v counts the pairs with x + s = v, an integer in [0, |S|], so the
    vertices of X + S are the entries above 0.5.  The error analysis of FFT
    convolution (Brent, Percival & Zimmermann 2010) bounds the error of every
    entry by ||x||_2 ||s||_2 O(u log2 n) <= O(n u log2 n), with unit
    roundoff u = 2^-53.  For n < 2^31, n u log2 n < 10^-5, which leaves the
    bound's small constant a margin of over 10^4 before an entry could round
    to the wrong side of 0.5, and `Circulant` searches only n <= SEARCH_LIMIT.
    Either step allocates O(n): at most DENSE_RATIO * n sums, or a few float
    arrays of length n.
    """
    import numpy as np

    if members.size * conn.size <= DENSE_RATIO * n:
        # sort and keep first occurrences: np.unique is over 10x slower here
        sums = np.sort((members[:, None] + conn[None, :]).ravel() % n)
        return sums[np.diff(sums, prepend=-1) > 0]
    x = np.zeros(n)
    x[members] = 1.0
    s = np.zeros(n)
    s[conn] = 1.0
    counts = np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(s), n)
    return np.flatnonzero(counts > 0.5)


def bfs_distances(n, conn, source, blocked):
    """Distances from `source` in Cay(Z_n, conn) minus the blocked vertices;
    -1 marks an unreached vertex.

    Level-synchronous and direction-optimizing (Beamer, Asanovic & Patterson,
    SC'12): each level is one _sumset step, sparse on a small frontier and
    an FFT convolution on a large one, after which the visited and blocked
    vertices are masked out.
    """
    import numpy as np

    dist = np.full(n, -1, np.int64)
    if blocked[source]:
        return dist
    seen = blocked.copy()  # visited or blocked
    seen[source] = True
    dist[source] = 0
    frontier = np.array([source], np.int64)
    level = 0
    while frontier.size:
        nxt = _sumset(n, conn, frontier)
        nxt = nxt[~seen[nxt]]
        level += 1
        seen[nxt] = True
        dist[nxt] = level
        frontier = nxt
    return dist
