"""Hot inner loops: circulant BFS and sumsets.

One vectorized numpy implementation per kernel.  The tests compare each one
against a plain-loop oracle (tests/oracles.py).

All kernels take int64 arrays of residues mod n, for n <= SEARCH_LIMIT <
2^31, which `Circulant` enforces: the sums x + s < 2n then fit int64, and
the dense step rounds exactly.

numpy is imported inside each kernel, not here, so that a process that never
runs one (`harts`, `classify`, `verify` with no fixed points) never loads it.
"""

BACKEND = "numpy"

# A step takes the sparse path while |X| |S| <= DENSE_RATIO * n.
DENSE_RATIO = 4


def _sparse_step(n, conn, members, unseen=None):
    """The distinct sums x + s mod n, ascending, keeping only the vertices
    of the bool mask `unseen` when it is given.  O(|X| |S| log) time and at
    most |X| |S| <= DENSE_RATIO * n sums."""
    import numpy as np

    sums = (members[:, None] + conn[None, :]).ravel() % n
    if unseen is not None:
        sums = sums[unseen[sums]]
    # sort and keep first occurrences: np.unique is over 10x slower here
    sums.sort()
    first = np.ones(sums.size, np.bool_)
    np.not_equal(sums[1:], sums[:-1], out=first[1:])
    return sums[first]


def _spectrum(n, conn):
    """The real FFT of the indicator of S, the factor every dense step shares."""
    import numpy as np

    s = np.zeros(n)
    s[conn] = 1.0
    return np.fft.rfft(s)


def _dense_step(n, spectrum, members):
    """X + S mod n as a bool mask of length n, by the cyclic convolution of
    the indicator of X with that of S (`spectrum`, from _spectrum).  Entry
    v counts the pairs with x + s = v, an integer in [0, |S|], so the
    vertices of X + S are the entries above 0.5.  The error analysis of FFT
    convolution (Brent, Percival & Zimmermann 2010) bounds the error of every
    entry by ||x||_2 ||s||_2 O(u log2 n) <= O(n u log2 n), with unit
    roundoff u = 2^-53.  For n < 2^31, n u log2 n < 10^-5, which leaves the
    bound's small constant a margin of over 10^4 before an entry could round
    to the wrong side of 0.5, and `Circulant` searches only n <= SEARCH_LIMIT.
    O(n log n) time and a few float arrays of length n."""
    import numpy as np

    x = np.zeros(n)
    x[members] = 1.0
    return np.fft.irfft(np.fft.rfft(x) * spectrum, n) > 0.5


def _sumset(n, conn, members):
    """X + S mod n for the vertex set X = `members` and S = `conn`, as a
    sorted array of distinct vertices: a sparse step when |X| |S| <=
    DENSE_RATIO * n, a dense step otherwise."""
    import numpy as np

    if members.size * conn.size <= DENSE_RATIO * n:
        return _sparse_step(n, conn, members)
    return np.flatnonzero(_dense_step(n, _spectrum(n, conn), members))


def bfs_distances(n, conn, source, blocked):
    """Distances from `source` in Cay(Z_n, conn) minus the blocked vertices;
    -1 marks an unreached vertex.

    Level-synchronous and direction-optimizing (Beamer, Asanovic & Patterson,
    SC'12): each level is one step from the frontier, sparse on a small
    frontier and dense on a large one, which keeps only the vertices neither
    visited nor blocked.  The spectrum of S is taken once, at the first dense
    level.  The search stops as soon as no such vertex is left, without the
    empty level that would find nothing more.
    """
    import numpy as np

    dist = np.full(n, -1, np.int64)
    if blocked[source]:
        return dist
    unseen = ~blocked  # neither visited nor blocked
    unseen[source] = False
    left = int(np.count_nonzero(unseen))
    dist[source] = 0
    frontier = np.array([source], np.int64)
    spectrum = None
    level = 0
    while frontier.size and left:
        if frontier.size * conn.size <= DENSE_RATIO * n:
            nxt = _sparse_step(n, conn, frontier, unseen)
        else:
            spectrum = _spectrum(n, conn) if spectrum is None else spectrum
            nxt = np.flatnonzero(_dense_step(n, spectrum, frontier) & unseen)
        level += 1
        unseen[nxt] = False
        left -= nxt.size
        dist[nxt] = level
        frontier = nxt
    return dist
