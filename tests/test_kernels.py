"""The numpy kernels must agree with the plain-loop oracles in oracles.py."""

import random

import numpy as np
from oracles import bfs_loop, multiplier_loop, semiregular_loop

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
        assert _kernels.semiregular_scan(n, arr) == semiregular_loop(n, arr)


def test_multiplier_agreement():
    rng = random.Random(17)
    for _ in range(50):
        n, conn = random_case(rng)
        sigma = rng.randrange(1, n)
        if np.gcd(sigma, n) != 1:
            continue
        conn2 = np.sort(conn * sigma % n)
        got = _kernels.multiplier_scan(n, conn, conn2)
        ref = multiplier_loop(n, conn, conn2)
        assert got == ref
        assert got != 0


def test_multiplier_no_match():
    conn_a = np.array([1, 2, 6, 7], dtype=np.int64)
    conn_b = np.array([1, 3, 5, 7], dtype=np.int64)
    assert _kernels.multiplier_scan(8, conn_a, conn_b) == 0
    assert multiplier_loop(8, conn_a, conn_b) == 0
