"""Slow plain-loop reference versions of the fast paths in frobcirc.

They share no code with the package: the kernels in frobcirc._kernels, the
rotation search and fixed-point closed form in frobcirc.rotation, the
validation and independence test of Circulant, the arithmetic report of
frobcirc.classifier, the gcd oracle of `classify --oracle` and the
closed-form TL diameter of frobcirc.harts are each compared with an
independent implementation here.  `orbits_loop` and `ord_p` are the only
orbit partition and p-adic valuation the tests have, `euler_phi` and
`multiplicative_order` the only totient and order, `multiplier_scan` and
`multiplier_loop` the only isomorphism scans, and `semiregular_scan` and
`semiregular_loop` the only scans of every nonzero residue for a fixed
point; the package computes none of them.
"""

from math import gcd

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


def sumset_loop(n, conn, members):
    """Sorted X + S mod n, one sum at a time."""
    return sorted({(x + s) % n for x in members for s in conn})


def diameter_loop(n, conn):
    """Eccentricity of 0, which is the diameter of a connected circulant."""
    return int(bfs_loop(n, conn, 0, np.zeros(n, np.bool_)).max())


def tl_diameter_check(k):
    """BFS check that TL_{n_k} = Cay(Z_{n_k}, {+-1, +-(3k+1), +-(3k+2)})
    has diameter exactly k."""
    n = 3 * k * k + 3 * k + 1
    conn = [s % n for s in (1, -1, 3 * k + 1, -3 * k - 1, 3 * k + 2, -3 * k - 2)]
    return diameter_loop(n, conn) == k


def prime_divisors(m):
    """The distinct primes of m >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def euler_phi(n):
    """The number of units mod n >= 1, from the primes of n."""
    phi = n
    for p in prime_divisors(n):
        phi = phi // p * (p - 1)
    return phi


def multiplicative_order(a, m):
    """Least k >= 1 with a^k = 1 mod m >= 2: phi(m), its prime factors
    stripped while the power stays 1.  ValueError unless a is a unit."""
    if m < 2:
        raise ValueError(f"modulus {m} must be >= 2")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = euler_phi(m)
    for p in prime_divisors(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


# Largest n semiregular_scan takes: it holds about 24 bytes per residue of
# [1, n), so 48 MB here, where n = 10**7 peaked at 268 MB RSS.
SCAN_LIMIT = 2 * 10**6


def _prime_order_elements(n, elems, l):
    """The elements of `elems` with g^l = 1 mod n and g != 1, for a prime l:
    exactly those of order l.  Square-and-multiply over the whole array."""
    power = np.ones_like(elems)
    base = elems
    e = l
    while e:
        if e & 1:
            power = power * base % n
        base = base * base % n
        e >>= 1
    return elems[(power == 1) & (elems != 1)]


def semiregular_scan(n, subgroup):
    """Does no non-identity h in the subgroup H of Z_n^* fix a nonzero
    residue mod n?

    Scans one generator of each subgroup of prime order of H against every
    x in [1, n), which is enough: if h != 1 fixes x, so does every power of
    h, among them h^(ord h / l) of prime order l; and two elements that
    generate the same subgroup fix the same residues.  By Cauchy's theorem
    the primes l are those dividing |H|; a group of prime order is its own
    only such subgroup.  For cyclic H of order d that is omega(d) passes,
    one per distinct prime of d, instead of d - 1.  `subgroup` must be
    closed under multiplication mod n.  The products fit int64 for
    n <= SCAN_LIMIT, which it checks.
    """
    if n > SCAN_LIMIT:
        raise ValueError(f"n = {n} exceeds the scan's limit {SCAN_LIMIT}")
    elems = np.asarray(subgroup, dtype=np.int64)
    d = elems.size
    reps = []
    for l in prime_divisors(d):
        if l == d:
            reps.append(elems[0] if elems[0] != 1 else elems[1])
            continue
        covered = set()
        for g in _prime_order_elements(n, elems, l).tolist():
            if g in covered:
                continue
            reps.append(g)
            x = g
            while x != 1:
                covered.add(x)
                x = x * g % n
    xs = np.arange(1, n, dtype=np.int64)
    for h in reps:
        # h x = x mod n iff n divides (h - 1) x; numpy's floor division by a
        # scalar divisor has a fast path (libdivide) that its % lacks
        k = (h - 1) * xs
        if np.any(k // n * n == k):
            return False
    return True


def semiregular_loop(n, subgroup):
    for h in subgroup:
        if h == 1:
            continue
        for x in range(1, n):
            if (h * x) % n == x:
                return False
    return True


def cyclic_subgroups_loop(n):
    """Every cyclic subgroup <h> of Z_n^*, each once, as a sorted tuple: the
    powers of every unit h, walked until they return to 1."""
    found = set()
    for h in range(1, n):
        a = h
        b = n
        while b:
            a, b = b, a % b
        if a != 1:
            continue
        powers = [1]
        x = h % n
        while x != 1:
            powers.append(x)
            x = x * h % n
        found.add(tuple(sorted(powers)))
    return found


def face_lengths_loop(n, conn, w):
    """Face lengths of the Cayley map of Cay(Z_n, conn) whose rotation at
    every vertex is s -> w s: the face walk takes the dart (v, s) to
    (v + s, -w s mod n), the dart after the reverse of (v, s) in the
    rotation at v + s."""
    conn = list(conn)
    seen = set()
    lengths = []
    for v in range(n):
        for s in conn:
            if (v, s) in seen:
                continue
            length = 0
            dart = (v, s)
            while dart not in seen:
                seen.add(dart)
                length += 1
                u, t = dart
                dart = ((u + t) % n, -w * t % n)
            lengths.append(length)
    return lengths


def is_semiregular(n, subgroup):
    """H acts semiregularly on Z_n \\ {0} iff gcd(h - 1, n) = 1 for every
    non-identity h in H."""
    return all(gcd(h - 1, n) == 1 for h in subgroup if h % n != 1)


def maps_onto_itself(n, h, S):
    """h S = S as sets."""
    return {h * s % n for s in S} == set(S)


def symmetric_loop(n, S):
    """S = -S, element by element."""
    members = set(S)
    return all(n - s in members for s in members)


def multiplier_scan(n, conn_a, conn_b):
    """Smallest unit sigma with sigma * conn_a inside conn_b, or 0.

    Vectorized over all units at once: it holds phi(n) |conn_a| int64
    products, so it is for the desk-scale n of the tests; the products fit
    int64 for n <= 10**9."""
    if n > 10**9:
        raise ValueError(f"n = {n} exceeds the supported limit {10**9}")
    mask = np.zeros(n, np.bool_)
    mask[conn_b] = True
    units = np.arange(1, n, dtype=np.int64)
    units = units[np.gcd(units, n) == 1]
    hits = mask[(units[:, None] * conn_a[None, :]) % n].all(axis=1)
    idx = np.flatnonzero(hits)
    return int(units[idx[0]]) if idx.size else 0


def iso_multiplier(g, g2):
    """Some unit sigma with sigma * g.conn = g2.conn setwise, or None.

    A multiplier is always an isomorphism.  The converse fails in general:
    Z_n has connection sets that are not CI-subsets (Elspas & Turner 1970;
    Muzychuk 1997), so None alone does not prove non-isomorphism.  When
    g.conn lies in Z_n^*, Toida's conjecture (proved by Muzychuk,
    Klin & Poeschel 2001 and by Dobson & Morris 2002) makes the scan decide
    isomorphism.
    """
    if g.n != g2.n:
        raise ValueError(f"moduli differ: {g.n} != {g2.n}")
    if g.degree != g2.degree:
        return None
    conn_a = np.array(g.conn, dtype=np.int64)
    sigma = multiplier_scan(g.n, conn_a, np.array(g2.conn, dtype=np.int64))
    return sigma or None


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


def rotations_loop(n, conn):
    """Every unit w of Z_n that fixes conn setwise and drives it through one
    |conn|-cycle, by scanning all of Z_n."""
    conn = sorted(conn)
    found = []
    for w in range(1, n):
        a = w
        b = n
        while b:
            a, b = b, a % b
        if a != 1:
            continue
        if sorted(w * s % n for s in conn) != conn:
            continue
        orbit = set()
        x = conn[0]
        for _ in range(len(conn)):
            orbit.add(x)
            x = x * w % n
        if len(orbit) == len(conn):
            found.append(w)
    return found


def orbits_loop(n, w):
    """(orbits, fixed, free) of multiplication by the unit w on Z_n \\ {0}:
    the orbits in order of their least element, then the sorted union of the
    orbits shorter than the order of w and of the full-length ones."""
    d = 1
    x = w % n
    while x != 1:
        x = x * w % n
        d += 1
    seen = [False] * n
    orbits = []
    fixed = []
    free = []
    for v in range(1, n):
        if seen[v]:
            continue
        orbit = []
        x = v
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * w % n
        orbits.append(tuple(orbit))
        (free if len(orbit) == d else fixed).extend(orbit)
    return tuple(orbits), tuple(sorted(fixed)), tuple(sorted(free))


def ord_p(n, p):
    """Exponent of the prime p in the factorization of n != 0."""
    if n == 0:
        raise ValueError("ord_p(0) is undefined")
    if p < 2:
        raise ValueError(f"{p} is not a prime")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def gamma_fixed_points(spec):
    """The p^(e-1) - 1 nonzero multiples of p of Gamma_{q,r}; independent of r.

    For r <= e-2 this is exactly the fixed point set of the rotation h.  At
    r = e-1 the graph degenerates to the q-cycle with h = -1, whose actual
    fixed point set is empty; the multiples of p remain the set the vertex-cut
    dichotomy is about.
    """
    return tuple(range(spec.p, spec.q, spec.p))


def independent_loop(n, conn, members):
    """No pairwise difference of members lies in conn."""
    conn = set(conn)
    members = list(members)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if (u - v) % n in conn:
                return False
    return True


def circulant_validation(n, conn):
    """The set-based checks of Circulant(n, conn): the sorted distinct
    connection set, or ValueError with the message Circulant raises."""
    if n < 3:
        raise ValueError(f"modulus {n} must be >= 3")
    conn = tuple(sorted(set(conn)))
    if not conn:
        raise ValueError("connection set is empty")
    for s in conn:
        if not 1 <= s < n:
            raise ValueError(f"connection element {s} outside [1, {n})")
    conn_set = set(conn)
    if any(n - s not in conn_set for s in conn):
        raise ValueError("connection set is not symmetric under negation")
    return conn


def semiregular_by_local_orders(n, h, d):
    """Cyclic-case cross-check: for a unit h of order d, <h> is semiregular
    on Z_n \\ {0} iff h has order d modulo every prime factor of n."""
    for p in prime_divisors(n):
        order = 1
        x = h % p
        while x != 1:
            x = x * h % p
            order += 1
        if order != d:
            return False
    return True
