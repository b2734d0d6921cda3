"""Seeded make-up of the three benchmark workloads.

Each workload is one *round*: a list of frobcirc argv lists.  The same seed
gives the same round; a run repeats the round whole.  classify-sweep and
harts-verify draw one sample per size window, so two seeds give rounds of
nearly equal cost, and their largest instances are fixed anchors, so peak
memory does not depend on the seed.  gamma-dichotomy is an exhaustive grid.
"""

import random

from sympy import factorint, isprime, prevprime, primerange

NAMES = ("classify-sweep", "gamma-dichotomy", "harts-verify")

FORMATS = ("table", "json", "csv")

# classify-sweep: moduli below CLASSIFY_CAP, plus the n = 6253 of Table 1
CLASSIFY_CAP = 3000
TABLE1_N = 6253
PRIME_ANCHOR_STEP = 250  # fixed: the largest prime below each multiple in [1000, 3000]
SMALL_PRIME_WINDOW = 50  # seeded: one prime per window below 1000
PRODUCT_WINDOW = 20  # seeded: one product of >= 2 distinct primes per window
PRIME_POWERS = 12  # seeded: odd prime powers p^e, e >= 2
TRIOS = 3  # seeded products queried in all three formats, as is 6253

# gamma-dichotomy: every (p, e) with p an odd prime, e >= 3 and q = p^e <= 3^8
GAMMA_MAX_Q = 3**8

# harts-verify
HARTS_KMAX = 300  # anchor: harts 300 and verify on TL_{n_300}
HARTS_WINDOW = 10


def _odd_range(lo, hi):
    return range(lo | 1, hi, 2)


def _windows(lo, hi, width):
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def classify_sweep(rng: random.Random) -> list[list[str]]:
    anchors = [prevprime(x + 1) for x in range(1000, CLASSIFY_CAP + 1, PRIME_ANCHOR_STEP)]
    small = [
        rng.choice([n for n in _odd_range(lo, hi) if isprime(n) and n not in anchors])
        for lo, hi in _windows(3, 1000, SMALL_PRIME_WINDOW)
    ]
    products = [
        rng.choice([n for n in _odd_range(lo, hi) if len(factorint(n)) >= 2])
        for lo, hi in _windows(15, CLASSIFY_CAP, PRODUCT_WINDOW)
    ]
    powers = [n for n in _odd_range(9, CLASSIFY_CAP) if len(factorint(n)) == 1 and not isprime(n)]
    trios = rng.sample(products, TRIOS) + [TABLE1_N]
    singles = small + rng.sample(powers, PRIME_POWERS)
    singles += [n for n in products if n not in trios]
    rng.shuffle(singles)
    queries = [["classify", str(n), "--format", FORMATS[i % 3]] for i, n in enumerate(singles)]
    # the anchors' formats are fixed too, so the round's largest queries are
    # the same for every seed
    queries += [["classify", str(n), "--format", FORMATS[i % 3]] for i, n in enumerate(anchors)]
    queries += [["classify", str(n), "--format", fmt] for n in trios for fmt in FORMATS]
    # a sweep from the top down.  The largest query, K_2999, then runs on a
    # fresh heap and sets the peak memory.  Run upwards, each K_p anchor
    # landed on a heap that the seeded queries before it had fragmented, and
    # the peak moved by 5 % from seed to seed
    queries.sort(key=lambda q: -int(q[1]))
    return queries


def gamma_dichotomy(rng: random.Random) -> list[list[str]]:
    """The whole grid, every r in [0, e-1], by ascending q.  The grid is
    exhaustive and a seeded order moved the first round's peak memory by
    10 %, so this workload does not use the seed."""
    grid = [(p, e) for p in primerange(3, 20) for e in range(3, 9) if p**e <= GAMMA_MAX_Q]
    grid.sort(key=lambda pe: pe[0] ** pe[1])
    return [["gamma", str(p), str(e), str(r)] for p, e in grid for r in range(e)]


def tl_set(k: int) -> tuple[int, list[int]]:
    """n_k and the connection set {+-1, +-(3k+1), +-(3k+2)} of TL_{n_k}."""
    n = 3 * k * k + 3 * k + 1
    return n, sorted({1, n - 1, 3 * k + 1, n - 3 * k - 1, 3 * k + 2, n - 3 * k - 2})


def harts_verify(rng: random.Random) -> list[list[str]]:
    ks = [rng.randrange(lo, hi) for lo, hi in _windows(3, HARTS_KMAX, HARTS_WINDOW)]
    ks.append(HARTS_KMAX)
    queries = []
    for k in ks:
        n, conn = tl_set(k)
        queries.append(["harts", str(k)])
        queries.append(["verify", str(n), ",".join(map(str, conn))])
    rng.shuffle(queries)
    return queries


def make_round(name: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{name}:{seed}")
    builders = {
        "classify-sweep": classify_sweep,
        "gamma-dichotomy": gamma_dichotomy,
        "harts-verify": harts_verify,
    }
    return builders[name](rng)
