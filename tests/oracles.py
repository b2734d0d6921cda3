"""Slow plain-loop reference versions of the kernels in frobcirc._kernels.

They share no code with the vectorized kernels, so the comparison in
test_kernels.py checks one implementation against an independent one.
"""

import numpy as np


def bfs_loop(n, conn, source, blocked):
    dist = np.full(n, -1, np.int64)
    if blocked[source]:
        return dist
    queue = np.empty(n, np.int64)
    head = 0
    tail = 0
    dist[source] = 0
    queue[tail] = source
    tail += 1
    while head < tail:
        v = queue[head]
        head += 1
        for s in conn:
            u = (v + s) % n
            if dist[u] < 0 and not blocked[u]:
                dist[u] = dist[v] + 1
                queue[tail] = u
                tail += 1
    return dist


def semiregular_loop(n, subgroup):
    for h in subgroup:
        if h == 1:
            continue
        for x in range(1, n):
            if (h * x) % n == x:
                return False
    return True


def multiplier_loop(n, conn_a, conn_b):
    mask = np.zeros(n, np.bool_)
    for s in conn_b:
        mask[s] = True
    for sigma in range(1, n):
        a = sigma
        b = n
        while b:
            a, b = b, a % b
        if a != 1:
            continue
        ok = True
        for s in conn_a:
            if not mask[(sigma * s) % n]:
                ok = False
                break
        if ok:
            return sigma
    return 0
