"""Record the CLI's stdout, stderr and exit code on a fixed query set.

    PYTHONPATH=src python tests/golden/capture.py

writes tests/golden/cli.json.  Each query runs in a fresh interpreter
(`python -m frobcirc.cli`), so the file holds the bytes a user sees.
tests/test_cli.py checks that the current code reproduces them exactly.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli.json")


def tl_query(k: int) -> list[str]:
    """verify on TL_{n_k} = Cay(Z_{n_k}, {+-1, +-(3k+1), +-(3k+2)})."""
    n = 3 * k * k + 3 * k + 1
    conn = sorted({1, n - 1, 3 * k + 1, n - 3 * k - 1, 3 * k + 2, n - 3 * k - 2})
    return ["verify", str(n), ",".join(map(str, conn))]


def gamma_queries(qmax: int) -> list[list[str]]:
    """Every valid (p, e, r) with q = p^e <= qmax, for qmax < 19^3."""
    out = []
    for p in (3, 5, 7, 11, 13, 17):
        e = 3
        while p**e <= qmax:
            out.extend(["gamma", str(p), str(e), str(r)] for r in range(e))
            e += 1
    return out


QUERIES = (
    [tl_query(k) for k in range(2, 13)]  # k = 2 is `verify 19 1,7,8,11,12,18`
    + [
        ["verify", "27", "1,8,10,17,19,26"],  # Gamma_{27,1}: rotation with fixed points
        ["verify", "8", "1,2,6,7"],  # elements with mixed gcds with n
        ["verify", "15", "3,5,10,12"],  # connected, no element a unit
        ["verify", "9", "3,6"],  # disconnected
    ]
    + [["harts", str(k)] for k in range(2, 11)]
    + gamma_queries(243)
    + [["classify", n, "--format", fmt] for n in ("91", "6253") for fmt in ("table", "json", "csv")]
    # a size below the smallest, and the sizes of the harts-verify benchmark
    # up to its largest k = 300
    + [["harts", str(k)] for k in (1, 50, 120, 300)]
    + [tl_query(k) for k in (50, 300)]
    # the gamma-dichotomy benchmark's grid, q <= 3^8, and the next power of 3
    + [q for q in gamma_queries(3**8) if int(q[1]) ** int(q[2]) > 243]
    + [["gamma", "3", "9", "0"], ["gamma", "3", "9", "1"]]
    # classify queries whose oracle scans large subgroups: K_p classes with
    # |H| = p - 1, with and without the oracle past ORACLE_AUTO_LIMIT
    + [
        ["classify", "1999", "--format", "json"],
        ["classify", "1019"],
        ["classify", "1249", "--format", "csv"],
        ["classify", "2039", "--oracle"],
        ["classify", "2039", "--no-oracle"],
    ]
    # classify across record shapes: many degrees (K_2749 has d up to 2748),
    # three primes (m-tuples), the smallest n, and the table and csv writers
    # on the largest classes
    + [
        ["classify", "2749", "--format", "json"],
        ["classify", "433", "--format", "json"],
        ["classify", "1105", "--format", "json"],
        ["classify", "3", "--format", "json"],
        ["classify", "2477", "--format", "table"],
        ["classify", "2999", "--format", "csv"],
    ]
    # the limits: a degree above SEARCH_LIMIT exits 2, while degree 2 of the
    # same prime, with or without the oracle, answers; so do the TL diameter
    # at n near 3 * 10^18 and 3 * 10^20 and a verify that searches nothing;
    # verify on the cycle on 2^64 + 1 answers too, as n is never factored:
    # the rotation -1 has order |S| = 2 and no fixed points
    + [
        ["classify", "999999937", "--degree", "2"],
        ["classify", "999999937"],
        ["harts", "1000000000"],
        ["harts", "10000000000"],
        ["verify", "18446744073709551617", "1,18446744073709551616"],
        ["classify", "999999937", "--degree", "2", "--oracle"],
        ["verify", "10000000000000000000000", "1,2,9999999999999999999998,9999999999999999999999"],
    ]
    # gossip certificates whose F is not empty: Gamma_{27,0}, six rotations,
    # holds with a bound; and <17> mod 77, whose F is the multiples of 7 and
    # of 11, two progressions neither of which contains the other
    + [
        ["verify", "27", "1,2,4,5,7,8,10,11,13,14,16,17,19,20,22,23,25,26"],
        [
            "verify",
            "77",
            "1,4,6,9,10,13,15,16,17,19,23,24,25,36,37,40,41,52,53,54,58,60,61,62,64,67,68,71,73,76",
        ],
    ]
    # K_101: S is all of Z_101^*, so every unit of order 100 is a rotation
    + [["verify", "101", ",".join(map(str, range(1, 101)))]]
    # Cay(Z_{3^15}, {x = +-1 mod 3^14}): a rotation's fixed points above
    # circulant.SEARCH_LIMIT are refused before they are listed
    + [["verify", "14348907", "1,4782968,4782970,9565937,9565939,14348906"]]
    # Gamma_{3^20,18}: above FACTOR_LIMIT, and refused at SEARCH_LIMIT only
    # when its non-empty F is listed
    + [["verify", "3486784401", "1,1162261466,1162261468,2324522933,2324522935,3486784400"]]
    # Gamma_{q,r} with a cut near SEARCH_LIMIT, S from the closed form
    + [["gamma", "3", "13", "1"], ["gamma", "7", "7", "2"]]
    # a cut search that ends with unreached survivors after many dense levels
    + [["gamma", "5", "9", "1"]]
)


def run(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "frobcirc.cli", *argv], capture_output=True, text=True, check=False
    )
    return {"argv": argv, "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


if __name__ == "__main__":
    records = [run(q) for q in QUERIES]
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} queries to {GOLDEN}", file=sys.stderr)
