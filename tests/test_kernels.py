"""The numpy kernels must agree with the plain-loop oracles in oracles.py, and
so must the numpy scans kept there as references (semiregularity, multipliers)."""

import random

import numpy as np
import pytest
from oracles import (
    SCAN_LIMIT,
    bfs_loop,
    multiplier_loop,
    multiplier_scan,
    semiregular_loop,
    semiregular_scan,
    sumset_loop,
)

from frobcirc import _kernels


def random_case(rng):
    n = rng.randrange(5, 400)
    base = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(5, n // 2)))
    conn = sorted({x for s in base for x in (s % n, (n - s) % n)} - {0})
    return n, np.array(conn, dtype=np.int64)


def test_bfs_agreement():
    rng = random.Random(99)
    for _ in range(50):
        n, conn = random_case(rng)
        blocked = np.zeros(n, dtype=np.bool_)
        for v in rng.sample(range(n), rng.randrange(n // 3)):
            blocked[v] = True
        src = rng.randrange(n)
        got = _kernels.bfs_distances(n, conn, src, blocked)
        ref = bfs_loop(n, conn, src, blocked)
        assert np.array_equal(got, ref)


def test_bfs_agreement_dense_conn(dense_steps):
    # |S| about half of the multiples of k below n.  For k > 1 the graph is
    # disconnected, so the search ends with unreached survivors after dense
    # levels, as a cut search does; for k = 1 it mostly reaches all of them
    rng = random.Random(7)
    for k in [1] * 60 + [2, 3] * 20:
        n = k * rng.randrange(-(-8 // k), 300 // k)
        base = rng.sample(range(k, n // 2 + 1, k), max(1, n // (4 * k)))
        conn = np.array(sorted({x for s in base for x in (s, n - s)}), dtype=np.int64)
        blocked = np.zeros(n, dtype=np.bool_)
        blocked[rng.sample(range(n), int(rng.choice((0, 0.1, 0.3, 0.6)) * n))] = True
        src = rng.randrange(n)
        ref = bfs_loop(n, conn, src, blocked)
        assert np.array_equal(_kernels.bfs_distances(n, conn, src, blocked), ref), (n, k, src)
    assert len(dense_steps) >= 60


@pytest.fixture
def levels(monkeypatch):
    """A list that gets the size of X at every step taken, one per BFS level."""
    made = []

    def spy(n, conn, members, *args, step=_kernels._step):
        made.append(members.size)
        return step(n, conn, members, *args)

    monkeypatch.setattr(_kernels, "_step", spy)
    return made


@pytest.mark.parametrize("p, e, r", [(3, 4, 0), (3, 5, 0), (5, 3, 0), (3, 5, 1), (5, 3, 2), (7, 3, 1)])
def test_bfs_stops_once_every_survivor_is_reached(levels, p, e, r):
    # Gamma_{q,r} - F from 0, S the residues +-1 mod p^(r+1) and F the nonzero
    # multiples of p.  For r = 0 the search reaches every survivor and takes
    # one step per level; for r >= 1 F is a cut, and a last step finds nothing
    q, t = p**e, p ** (r + 1)
    conn = np.array([x for x in range(1, q) if x % t in (1, t - 1)], dtype=np.int64)
    blocked = np.zeros(q, dtype=np.bool_)
    blocked[p::p] = True
    dist = _kernels.bfs_distances(q, conn, 0, blocked)
    assert np.array_equal(dist, bfs_loop(q, conn, 0, blocked))
    every_survivor = int((dist >= 0).sum()) == q - int(blocked.sum())
    assert every_survivor == (r == 0)
    assert len(levels) == dist.max() + (not every_survivor)


def interval_conn(n, m):
    return np.array(sorted({x % n for s in range(1, m + 1) for x in (s, -s)}), dtype=np.int64)


def sumset(n, conn, members):
    """X + S mod n by one step that keeps every vertex."""
    got, _ = _kernels._step(n, conn, members, np.ones(n, dtype=np.bool_))
    return got


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_sumset_switch(dense_steps, extra):
    # |S| = 20 and |X| = 20, so |X| |S| = 400 against DENSE_RATIO * n = 400 + 4 extra
    assert _kernels.DENSE_RATIO == 4
    n = 100 + extra
    conn = interval_conn(n, 10)
    rng = random.Random(n)
    members = np.array(sorted(rng.sample(range(n), 20)), dtype=np.int64)
    got = sumset(n, conn, members)
    assert got.tolist() == sumset_loop(n, conn, members.tolist())
    assert len(dense_steps) == (1 if extra < 0 else 0)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_step_keeps_a_proper_subset(dense_steps, extra):
    # the switch of test_sumset_switch, with `keep` half of Z_n: a sparse
    # step drops the sums outside it before sorting, a dense one masks them
    n = 100 + extra
    conn = interval_conn(n, 10)
    rng = random.Random(-n)
    members = np.array(sorted(rng.sample(range(n), 20)), dtype=np.int64)
    keep = np.zeros(n, dtype=np.bool_)
    keep[rng.sample(range(n), n // 2)] = True
    got, _ = _kernels._step(n, conn, members, keep)
    every = sumset_loop(n, conn, members.tolist())
    want = [v for v in every if keep[v]]
    assert got.tolist() == want
    assert 0 < len(want) < len(every)
    assert len(dense_steps) == (1 if extra < 0 else 0)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_bfs_switch(dense_steps, extra):
    # Cay(Z_n, {+-1, ..., +-m}) from 0: every frontier but the first and the
    # last has 2m vertices, so |X| |S| = 4 m^2 against 4 n = 4 m^2 + 4 extra
    m = 10
    n = m * m + extra
    conn = interval_conn(n, m)
    blocked = np.zeros(n, dtype=np.bool_)
    ref = bfs_loop(n, conn, 0, blocked)
    assert np.array_equal(_kernels.bfs_distances(n, conn, 0, blocked), ref)
    assert (len(dense_steps) > 0) == (extra < 0)
    blocked[[5, n - 15]] = True
    ref = bfs_loop(n, conn, 0, blocked)
    assert np.array_equal(_kernels.bfs_distances(n, conn, 0, blocked), ref)


def test_sumset_large_modulus_exact(dense_steps):
    rng = np.random.default_rng(3)
    n = 200_003
    members = rng.choice(n, 2000, replace=False)
    conn = rng.choice(n, 500, replace=False)
    got = sumset(n, conn, members)
    assert len(dense_steps) == 1
    assert np.array_equal(got, np.unique((members[:, None] + conn[None, :]) % n))


def test_sumset_empty():
    conn = interval_conn(10, 2)
    assert sumset(10, conn, np.array([], dtype=np.int64)).size == 0


def test_semiregular_agreement():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(5, 500)
        h = rng.randrange(2, n)
        if np.gcd(h, n) != 1:
            continue
        sub = [1]
        x = h
        while x != 1:
            sub.append(x)
            x = x * h % n
        arr = np.array(sorted(sub), dtype=np.int64)
        assert semiregular_scan(n, arr) == semiregular_loop(n, arr)


def generated_subgroup(n, gens):
    """The subgroup of Z_n^* generated by the units `gens`, sorted."""
    elems = {1}
    frontier = [1]
    while frontier:
        frontier = {x * g % n for x in frontier for g in gens} - elems
        elems.update(frontier)
    return sorted(elems)


def is_cyclic(n, elems):
    """Does some element of the group `elems` have order |elems|?"""
    for g in elems:
        k, x = 1, g
        while x != 1:
            x = x * g % n
            k += 1
        if k == len(elems):
            return True
    return False


def test_semiregular_agreement_generated():
    # subgroups generated by 2-3 random units, many of them not cyclic
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        n = rng.randrange(5, 400)
        units = [u for u in range(2, n) if np.gcd(u, n) == 1]
        sub = generated_subgroup(n, rng.sample(units, min(len(units), rng.randint(2, 3))))
        ref = semiregular_loop(n, sub)
        assert semiregular_scan(n, np.array(sub, dtype=np.int64)) == ref, (n, sub)
        seen.add((is_cyclic(n, sub), ref))
    # a semiregular H embeds in the cyclic Z_p^* for each prime p | n, so a
    # non-cyclic H is never semiregular
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize(
    "n, sub, expected",
    [
        (15, [1, 4, 11, 14], False),  # Klein four-group: -1 alone fixes nothing
        (15, [1, 14], True),
        (27, generated_subgroup(27, [8]), False),
        (1019, list(range(1, 1019)), True),  # K_1019, |H| = 2 * 509
        (2039, list(range(1, 2039)), True),  # K_2039, |H| = 2 * 1019
    ],
)
def test_semiregular_cases(n, sub, expected):
    assert semiregular_loop(n, sub) == expected
    assert semiregular_scan(n, np.array(sub, dtype=np.int64)) == expected


def test_semiregular_scans_one_element_per_prime_order(scan_passes):
    # K_1019: |H| = 1018 = 2 * 509, so two subgroups of prime order
    assert semiregular_scan(1019, np.arange(1, 1019, dtype=np.int64))
    assert 0 < scan_passes.count(1018) <= 2


def test_semiregular_scan_refuses_above_limit():
    # raised before the O(n) residue arrays are allocated
    assert SCAN_LIMIT < 999999937
    with pytest.raises(ValueError, match="exceeds the scan's limit"):
        semiregular_scan(999999937, np.array([1, 999999936], dtype=np.int64))


def test_multiplier_agreement():
    rng = random.Random(17)
    for _ in range(50):
        n, conn = random_case(rng)
        sigma = rng.randrange(1, n)
        if np.gcd(sigma, n) != 1:
            continue
        conn2 = np.sort(conn * sigma % n)
        got = multiplier_scan(n, conn, conn2)
        ref = multiplier_loop(n, conn, conn2)
        assert got == ref
        assert got != 0


def test_multiplier_no_match():
    conn_a = np.array([1, 2, 6, 7], dtype=np.int64)
    conn_b = np.array([1, 3, 5, 7], dtype=np.int64)
    assert multiplier_scan(8, conn_a, conn_b) == 0
    assert multiplier_loop(8, conn_a, conn_b) == 0
