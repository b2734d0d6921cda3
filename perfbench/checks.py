"""Output checks made apart from the program.

Every check recomputes what a query's output must say from sympy, scipy or
plain integer arithmetic; nothing here imports frobcirc.  Each checker takes
the argv of one query and its (exit code, stdout, stderr) and returns a list
of problems; an empty list means the output is correct.
"""

import csv
import io
import json
import re
from math import ceil, gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from sympy import divisors, factorint, n_order, totient

ORACLE_AUTO_LIMIT = 2000  # the CLI's documented default for --oracle

# Table 1 of the paper: the classes of kernel Z_6253, as
# (degree, signed h, one base residue per +- pair of the connection set).
TABLE_1 = {
    (2, "-[1]", (1,)),
    (4, "-[746]", (1, 746)),
    (4, "-[2436]", (1, 2436)),
    (6, "-[1712]", (1, 1712, 1713)),
    (6, "-[1543]", (1, 1543, 1544)),
    (12, "-[2286]", (1, 746, 1540, 1712, 1713, 2286)),
    (12, "-[1272]", (1, 526, 746, 1272, 1543, 1544)),
    (12, "-[2117]", (1, 319, 1712, 1713, 2117, 2436)),
    (12, "+[3122]", (1, 695, 1543, 1544, 2436, 3122)),
}

# The graph search on Gamma - F is skipped above this many arcs; the closed
# forms stand in for it there (only q = 3^8 with r <= 1 exceeds it).
SEARCH_MAX_ARCS = 4_000_000


def cyclic_group(h: int, n: int) -> set[int]:
    """{h^k mod n : k >= 0}."""
    out = {1}
    x = h % n
    while x != 1:
        out.add(x)
        x = x * h % n
    return out


# ------------------------------------------------------------------ classify

CLASS_COLUMNS = [
    "n",
    "d",
    "m_vector",
    "h",
    "h_signed",
    "connection_pairs",
    "rotational",
    "frobenius",
    "gossip_bound",
]
LIST_COLUMNS = ("m_vector", "connection_pairs")
BOOL_COLUMNS = ("rotational", "frobenius")


def _cell(col: str, text: str):
    if col in LIST_COLUMNS:
        return [int(x) for x in text.strip("()").replace(" ", "").split(",") if x]
    if col in BOOL_COLUMNS:
        if text not in ("True", "False"):
            raise ValueError(f"{col} = {text!r} is not a boolean")
        return text == "True"
    if col == "h_signed":
        return text
    return int(text)


def parse_classify(fmt: str, out: str) -> list[dict]:
    """Records of a classify output in any of the three formats."""
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
    else:
        rows = [re.split(r" {2,}", line.strip()) for line in out.splitlines()]
    if not rows or rows[0] != CLASS_COLUMNS:
        raise ValueError(f"unexpected header {rows[:1]}")
    return [
        {col: _cell(col, text) for col, text in zip(CLASS_COLUMNS, row, strict=True)}
        for row in rows[1:]
    ]


def signed(h: int, n: int) -> str:
    return f"-[{n - h}]" if h > n // 2 else f"+[{h}]"


def check_classify_records(n: int, records: list[dict]) -> list[str]:
    """The paper's classification of kernel Z_n, checked record by record."""
    problems = []
    factors = factorint(n)
    primes = sorted(factors)
    D = 0
    for p in primes:
        D = gcd(D, p - 1)
    want_degrees = [d for d in divisors(D) if d % 2 == 0]
    by_degree: dict[int, list[dict]] = {}
    for rec in records:
        by_degree.setdefault(rec["d"], []).append(rec)
    if sorted(by_degree) != want_degrees:
        problems.append(f"n={n}: degrees {sorted(by_degree)} != even divisors of {D}")
    for d, recs in by_degree.items():
        want = int(totient(d)) ** (len(primes) - 1)
        if len(recs) != want:
            problems.append(f"n={n} d={d}: {len(recs)} records, want phi(d)^(l-1) = {want}")
        seen = set()
        for rec in recs:
            h = rec["h"]
            tag = f"n={n} d={d} h={h}"
            if rec["n"] != n:
                problems.append(f"{tag}: record names n={rec['n']}")
            group = cyclic_group(h, n)
            conn = rec.get("connection_set")
            if conn is not None and (set(conn) != group or len(conn) != len(group)):
                problems.append(f"{tag}: connection set != <h>")
            if len(group) != d:
                problems.append(f"{tag}: |<h>| = {len(group)} != d")
            if rec["connection_pairs"] != sorted({min(s, n - s) for s in group}):
                problems.append(f"{tag}: connection pairs do not match <h>")
            if rec["h_signed"] != signed(h, n):
                problems.append(f"{tag}: h_signed {rec['h_signed']!r}")
            if any(n_order(h, p) != d for p in primes):
                problems.append(f"{tag}: h does not have order d modulo every prime of n")
            g = n
            for s in group:
                g = gcd(g, s)
            if g != 1:
                problems.append(f"{tag}: gcd(n, S) = {g}, graph disconnected")
            if not d < primes[0]:
                problems.append(f"{tag}: d >= smallest prime {primes[0]}")
            if rec["gossip_bound"] * d != n - 1:
                problems.append(f"{tag}: gossip bound {rec['gossip_bound']} * d != n - 1")
            if len(rec["m_vector"]) != len(primes) or rec["m_vector"][:1] != [1]:
                problems.append(f"{tag}: m_vector {rec['m_vector']}")
            if rec["rotational"] is not True or rec["frobenius"] is not True:
                problems.append(f"{tag}: not reported rotational and Frobenius")
            key = frozenset(group)
            if key in seen:
                problems.append(f"{tag}: connection set repeated within degree {d}")
            seen.add(key)
    if n == 6253:
        rows = {(r["d"], r["h_signed"], tuple(r["connection_pairs"])) for r in records}
        if rows != TABLE_1 or len(records) != len(TABLE_1):
            problems.append("n=6253: rows differ from the paper's Table 1")
    return problems


def check_classify(argv, result) -> list[str]:
    rc, out, err = result
    n, fmt = int(argv[1]), argv[argv.index("--format") + 1]
    if rc != 0:
        return [f"{' '.join(argv)}: exit code {rc}"]
    warned = "brute-force oracle disabled" in err
    if warned != (n > ORACLE_AUTO_LIMIT):
        return [f"{' '.join(argv)}: oracle warning {'shown' if warned else 'missing'}"]
    try:
        records = parse_classify(fmt, out)
    except (ValueError, KeyError) as exc:
        return [f"{' '.join(argv)}: unparsable output ({exc})"]
    return check_classify_records(n, records)


def check_formats_agree(argvs, results) -> list[str]:
    """Table and csv outputs parse to the json output's data, for every
    modulus queried in json and in another format."""
    parsed = {}
    for argv, (rc, out, _) in zip(argvs, results):
        if argv[0] == "classify" and rc == 0:
            try:
                parsed[(argv[1], argv[argv.index("--format") + 1])] = parse_classify(
                    argv[argv.index("--format") + 1], out
                )
            except (ValueError, KeyError):
                pass  # reported by check_classify
    problems = []
    for (n, fmt), records in parsed.items():
        ref = parsed.get((n, "json"))
        if fmt == "json" or ref is None:
            continue
        stripped = [{col: rec[col] for col in CLASS_COLUMNS} for rec in ref]
        if records != stripped:
            problems.append(f"n={n}: {fmt} output differs from the json output")
    return problems


# --------------------------------------------------------------------- gamma

GAMMA_HEAD = re.compile(
    r"Gamma_\((\d+),(\d+)\): p=(\d+) e=(\d+) r=(\d+), h=(\d+), degree (\d+)$"
)
GAMMA_FIXED = re.compile(r"fixed set = nonzero multiples of (\d+): ok \(size (\d+)\)$")
GAMMA_CUT = re.compile(r"F IS a vertex-cut; witness: vertex (\d+) unreachable from 0 in Gamma - F$")
GAMMA_NOT_CUT = re.compile(r"F is NOT a vertex-cut; gossip bound (\d+)$")


def gamma_search(q: int, p: int, conn: set[int]):
    """Vertices reached from 0 in Gamma - F, F the nonzero multiples of p, or
    None when the graph has more arcs than SEARCH_MAX_ARCS."""
    keep = np.concatenate(([0], np.flatnonzero(np.arange(q) % p != 0)))
    if keep.size * len(conn) > SEARCH_MAX_ARCS:
        return None
    s = np.fromiter(conn, np.int64)
    heads = ((keep[:, None] + s[None, :]) % q).ravel()
    tails = np.repeat(keep, s.size)
    alive = (heads % p != 0) | (heads == 0)
    graph = csr_matrix(
        (np.ones(int(alive.sum()), np.int8), (tails[alive], heads[alive])), shape=(q, q)
    )
    return set(breadth_first_order(graph, 0, directed=True, return_predecessors=False).tolist())


def check_gamma(argv, result) -> list[str]:
    rc, out, _ = result
    p, e, r = map(int, argv[1:4])
    tag = f"gamma {p} {e} {r}"
    if rc != 0:
        return [f"{tag}: exit code {rc}"]
    lines = out.splitlines()
    q = p**e
    h = pow(p - 1, p**r, q)
    degree = 2 * p ** (e - r - 1)
    problems = []
    head = GAMMA_HEAD.match(lines[0]) if lines else None
    if not head or tuple(map(int, head.groups())) != (q, r, p, e, r, h, degree):
        problems.append(f"{tag}: header {lines[:1]}, want h={h} degree {degree}")
    if n_order(h, q) != degree:
        problems.append(f"{tag}: order of h is not 2p^(e-r-1)")
    fixed = [m for m in map(GAMMA_FIXED.match, lines) if m]
    if len(fixed) != 1 or tuple(map(int, fixed[0].groups())) != (p, p ** (e - 1) - 1):
        problems.append(f"{tag}: |F| is not p^(e-1) - 1")
    for line in ("degree check: ok", "connection closed form: ok", "fixed set independent: yes",
                 "dichotomy (vertex-cut iff r >= 1): ok"):
        if line not in lines:
            problems.append(f"{tag}: missing line {line!r}")
    cut = [m for m in map(GAMMA_CUT.match, lines) if m]
    not_cut = [m for m in map(GAMMA_NOT_CUT.match, lines) if m]
    if (len(cut), len(not_cut)) != ((1, 0) if r >= 1 else (0, 1)):
        problems.append(f"{tag}: vertex-cut verdict contradicts the theorem (cut iff r >= 1)")
        return problems
    reached = gamma_search(q, p, cyclic_group(h, q))
    if r >= 1:
        witness = int(cut[0].group(1))
        if witness != p + 1:
            problems.append(f"{tag}: witness {witness} != p + 1")
        if reached is not None and witness in reached:
            problems.append(f"{tag}: witness {witness} reachable from 0 in Gamma - F")
    else:
        bound = int(not_cut[0].group(1))
        if bound != ceil((q - 1) / degree):
            problems.append(f"{tag}: gossip bound {bound} != ceil((q-1)/d)")
        if reached is not None and len(reached) != q - (p ** (e - 1) - 1):
            problems.append(f"{tag}: Gamma - F is disconnected")
    return problems


# --------------------------------------------------------------------- harts


def _int_set(text: str) -> list[int]:
    return [int(x) for x in text.split(", ")]


HARTS_MESH = re.compile(r"hexagonal mesh of size (\d+): (\d+) vertices, connection set \{(.*)\}$")
HARTS_ISO = re.compile(r"isomorphic to TL_(\d+) via multiplication by (\d+)$")
HARTS_DIAM = re.compile(r"mesh diameter: (\d+)$")
HARTS_TL = re.compile(r"TL_(\d+) connection set \{(.*)\}, diameter (\d+)$")


def tl_conn(j: int) -> set[int]:
    """Connection set {+-1, +-(3j+1), +-(3j+2)} of TL_{n_j}, n_j = 3j^2+3j+1."""
    n = 3 * j * j + 3 * j + 1
    return {s % n for s in (1, -1, 3 * j + 1, -3 * j - 1, 3 * j + 2, -3 * j - 2)}


def check_harts(argv, result) -> list[str]:
    rc, out, _ = result
    k = int(argv[1])
    tag = f"harts {k}"
    if rc != 0:
        return [f"{tag}: exit code {rc}"]
    lines = out.splitlines()
    matches = [rx.match(line) for rx, line in zip((HARTS_MESH, HARTS_ISO, HARTS_DIAM, HARTS_TL), lines)]
    if len(lines) != 4 or not all(matches):
        return [f"{tag}: unexpected output {lines}"]
    mesh, iso, diam, tl = matches
    n = 3 * k * k - 3 * k + 1
    j = k - 1
    problems = []
    mesh_k, mesh_n = int(mesh.group(1)), int(mesh.group(2))
    mesh_conn = set(_int_set(mesh.group(3)))
    if (mesh_k, mesh_n) != (k, n):
        problems.append(f"{tag}: mesh has {mesh_n} vertices, want 3k^2-3k+1 = {n}")
    if mesh_conn != {s % n for t in (k - 1, k, 2 * k - 1) for s in (t, -t)}:
        problems.append(f"{tag}: mesh connection set is not +-(k-1), +-k, +-(2k-1)")
    tl_n, tl_s, tl_d = int(tl.group(1)), set(_int_set(tl.group(2))), int(tl.group(3))
    if (int(iso.group(1)), int(iso.group(2))) != (n, 3 * k % n) or tl_n != n:
        problems.append(f"{tag}: isomorphism line names TL_{iso.group(1)} and {iso.group(2)}")
    if tl_s != tl_conn(j):
        problems.append(f"{tag}: TL connection set is not the closed form")
    if {3 * k * s % n for s in mesh_conn} != tl_s:
        problems.append(f"{tag}: 3k does not map the mesh connection set onto TL's")
    if tl_d != j or int(diam.group(1)) != j:
        problems.append(f"{tag}: diameters {diam.group(1)}, {tl_d}; TL_(n_j) has diameter j = {j}")
    return problems


VERIFY_ROT = re.compile(r"complete rotations: \[(.*)\]$")
VERIFY_GOSSIP = re.compile(r"gossip certificate: holds, exact value (\d+)$")


def check_verify(argv, result) -> list[str]:
    rc, out, _ = result
    n = int(argv[1])
    conn = sorted(int(x) for x in argv[2].split(","))
    tag = f"verify {n}"
    if rc != 0:
        return [f"{tag}: exit code {rc}"]
    lines = out.splitlines()
    problems = []
    order6 = sorted(
        s for s in conn if pow(s, 6, n) == 1 and pow(s, 2, n) != 1 and pow(s, 3, n) != 1
    )
    want_head = f"graph: Cay(Z_{n}, {{{', '.join(map(str, conn))}}}), degree {len(conn)}"
    if lines[:2] != [want_head, "connected: yes"]:
        problems.append(f"{tag}: header {lines[:2]}")
    rot = [m for m in map(VERIFY_ROT.match, lines) if m]
    if len(rot) != 1 or _int_set(rot[0].group(1)) != order6:
        problems.append(f"{tag}: rotations are not the elements of order 6 in S {order6}")
    if "rotational first-kind Frobenius: yes" not in lines:
        problems.append(f"{tag}: not reported rotational first-kind Frobenius")
    if order6 and f"fixed points of {order6[0]}: empty" not in lines:
        problems.append(f"{tag}: fixed set of {order6[0]} is not empty")
    gossip = [m for m in map(VERIFY_GOSSIP.match, lines) if m]
    if len(gossip) != 1 or int(gossip[0].group(1)) * 6 != n - 1:
        problems.append(f"{tag}: gossip value is not exactly (n-1)/6")
    return problems


CHECKERS = {
    "classify": check_classify,
    "gamma": check_gamma,
    "harts": check_harts,
    "verify": check_verify,
}


def check_round(argvs, results) -> list[str]:
    """Problems in one round of outputs, query by query and across formats."""
    problems = []
    for argv, result in zip(argvs, results):
        try:
            problems += CHECKERS[argv[0]](argv, result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{' '.join(argv[:4])}: output breaks the checker ({exc!r})")
    return problems + check_formats_agree(argvs, results)
