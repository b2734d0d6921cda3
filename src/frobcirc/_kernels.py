"""Hot inner loops: circulant BFS and its step X -> (X + S) & keep.

One vectorized numpy implementation per kernel.  The tests compare each one
against a plain-loop oracle (tests/oracles.py).  One `_step` serves both the
BFS and `Circulant.is_independent_set`.

All kernels take int64 arrays of residues mod n, for n <= SEARCH_LIMIT <
2^31, which `Circulant` enforces: the sums x + s < 2n then fit int64, and
the dense step rounds exactly.

numpy is imported inside each kernel, not here, so that a process that never
runs one (`harts`, `classify`, `verify` with no fixed points) never loads it.
"""

BACKEND = "numpy"

# _step is sparse while its |X| |S| sums number at most DENSE_RATIO per vertex.
DENSE_RATIO = 4


def _step(n, conn, members, keep, spectrum=None):
    """The vertices of X + S mod n in the bool mask `keep`, ascending, for
    X = `members` and S = `conn`, and the spectrum of S it used or passed on.

    Sparse while |X| |S| is at most DENSE_RATIO times n: every sum x + s,
    those outside `keep` dropped, sorted without repeats, in O(|X| |S| log)
    time and at most |X| |S| sums.

    Dense otherwise: the cyclic convolution of the indicator of X with that
    of S, whose spectrum is taken only when `spectrum` is None.  Entry v
    counts the pairs with x + s = v, an integer in [0, |S|], so the vertices
    of X + S are the entries above 0.5.  The error analysis of FFT
    convolution (Brent, Percival & Zimmermann 2010) bounds the error of every
    entry by ||x||_2 ||s||_2 O(u log2 n) <= O(n u log2 n), with unit
    roundoff u = 2^-53.  For n < 2^31, n u log2 n < 10^-5, which leaves the
    bound's small constant a margin of over 10^4 before an entry could round
    to the wrong side of 0.5, and `Circulant` searches only n <= SEARCH_LIMIT.
    O(n log n) time and a few float arrays of length n."""
    import numpy as np

    if members.size * conn.size <= DENSE_RATIO * n:
        sums = (members[:, None] + conn[None, :]).ravel() % n
        sums = sums[keep[sums]]
        # sort and keep first occurrences: np.unique is over 10x slower here
        sums.sort()
        first = np.ones(sums.size, np.bool_)
        np.not_equal(sums[1:], sums[:-1], out=first[1:])
        return sums[first], spectrum
    if spectrum is None:
        s = np.zeros(n)
        s[conn] = 1.0
        spectrum = np.fft.rfft(s)
    x = np.zeros(n)
    x[members] = 1.0
    return np.flatnonzero((np.fft.irfft(np.fft.rfft(x) * spectrum, n) > 0.5) & keep), spectrum


def bfs_distances(n, conn, source, blocked):
    """Distances from `source` in Cay(Z_n, conn) minus the blocked vertices;
    -1 marks an unreached vertex.

    Level-synchronous and direction-optimizing (Beamer, Asanovic & Patterson,
    SC'12): each level is one `_step` from the frontier, sparse on a small
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
        frontier, spectrum = _step(n, conn, frontier, unseen, spectrum)
        level += 1
        unseen[frontier] = False
        left -= frontier.size
        dist[frontier] = level
    return dist
