"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import json
import time
from math import gcd

import numpy as np
import pytest
from oracles import euler_phi, gamma_fixed_points, iso_multiplier, ord_p, semiregular_scan

from frobcirc.circulant import Circulant
from frobcirc.classifier import (
    admissible_degrees,
    enumerate_classes,
    subgroup_of,
)
from frobcirc.cli import main
from frobcirc.gamma import build_gamma
from frobcirc.harts import harts_graph, harts_iso_tl, tl_graph
from frobcirc.numtheory import factorize
from frobcirc.rotation import (
    find_all_rotations,
    gossip_certificate,
    is_complete_rotation,
)

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


def report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}{': ' + extra if extra else ''}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_table1_reproduction():
    # the first call builds the argument parser; keep that out of the timed run
    main(["classify", "91", "--format", "json"], out=io.StringIO())
    out = io.StringIO()
    t0 = time.perf_counter()
    code = main(["classify", "6253", "--format", "json"], out=out)
    elapsed = time.perf_counter() - t0
    records = json.loads(out.getvalue())
    rows = {(r["d"], r["h_signed"], tuple(r["connection_pairs"])) for r in records}
    ok = code == 0 and len(records) == 9 and rows == TABLE_1 and elapsed < 1.0
    report(1, ok, f"9 rows, {elapsed * 1e3:.0f} ms")


def test_criterion_2_class_counts():
    f = factorize(6253)
    counts = {d: len(enumerate_classes(f, d)) for d in admissible_degrees(f)}
    expected = {2: 1, 4: 2, 6: 2, 12: 4}
    formula = {
        d: euler_phi(d) ** (f.num_primes - 1) for d in admissible_degrees(f)
    }
    report(2, counts == expected == formula, str(counts))


def test_criterion_3_oracle_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n in range(3, 2001, 2):
        f = factorize(n)
        smallest = f.smallest_prime
        for d in admissible_degrees(f):
            classes = enumerate_classes(f, d)
            assert len(classes) == euler_phi(d) ** (f.num_primes - 1)
            graphs = [Circulant(n, c.subgroup) for c in classes]
            for c, g in zip(classes, graphs):
                sub = np.array(c.subgroup, dtype=np.int64)
                assert semiregular_scan(n, sub), (n, d, c.h)
                assert is_complete_rotation(g, c.h), (n, d, c.h)
                assert g.is_connected(), (n, d, c.h)
                assert d < smallest, (n, d)
                checked += 1
            for i, a in enumerate(graphs):
                for b in graphs[i + 1 :]:
                    assert iso_multiplier(a, b) is None, (n, d)
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 60.0, f"{checked} classes, {elapsed:.1f} s")


def test_criterion_4_theorem_grid():
    cases = 0
    for p in (3, 5, 7):
        for e in (3, 4):
            if p**e > 2500:
                continue
            for r in range(e):
                spec, g = build_gamma(p, e, r)
                fixed = gamma_fixed_points(spec)
                assert g.degree == 2 * p ** (e - r - 1), (p, e, r)
                assert fixed == tuple(range(p, p**e, p)), (p, e, r)
                assert len(fixed) == p ** (e - 1) - 1, (p, e, r)
                assert g.is_independent_set(fixed), (p, e, r)
                assert g.is_vertex_cut(fixed) == (r >= 1), (p, e, r)
                cases += 1
    # Lichiardopol instance Gamma_{243,1}
    spec, g = build_gamma(3, 5, 1)
    assert g.is_vertex_cut(gamma_fixed_points(spec))
    report(4, True, f"{cases} grid cases + Gamma(243,1)")


def test_criterion_5_gossip_certificates():
    spec27, g27 = build_gamma(3, 3, 0)
    cert27 = gossip_certificate(g27, spec27.h)
    spec243, g243 = build_gamma(3, 5, 0)
    cert243 = gossip_certificate(g243, spec243.h)
    tl = tl_graph(2)
    cert_tl = gossip_certificate(tl, 8)
    ok = (
        cert27.holds
        and cert27.bound == 2
        and cert243.holds
        and cert243.bound == 2
        and cert_tl.holds
        and cert_tl.exact
        and cert_tl.fixed == ()
        and cert_tl.bound == 3
    )
    report(5, ok, "Gamma(27,0)=2, Gamma(243,0)=2, TL_19=3 exact")


def test_criterion_6_harts_suite():
    t0 = time.perf_counter()
    for k in range(2, 21):
        n = 3 * k * k - 3 * k + 1
        assert harts_iso_tl(k) == (3 * k) % n, k
        assert iso_multiplier(harts_graph(k), tl_graph(k - 1) if k > 2 else harts_graph(2))
        assert tl_graph(k).diameter() == k, k
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 10.0, f"k in [2,20], {elapsed:.1f} s")


def test_criterion_7_valuation_suite():
    for p in (3, 5, 7):
        for k in range(0, 4):
            for s in range(1, p):
                base = (p - 1) ** (p**k * s)
                if s % 2 == 0:
                    assert ord_p(base - 1, p) == k + 1, (p, k, s)
                else:
                    assert ord_p(base + 1, p) == k + 1, (p, k, s)
    report(7, True, "p in {3,5,7}, k <= 3, all s")


def test_criterion_8_prime_order_arc_transitive():
    for p in (5, 7, 11, 13):
        f = factorize(p)
        for d in range(2, p, 2):
            if (p - 1) % d != 0:
                continue
            classes = enumerate_classes(f, d)
            assert len(classes) == 1, (p, d)
            assert find_all_rotations(Circulant(p, classes[0].subgroup)), (p, d)
    report(8, True, "p in {5,7,11,13}, every even d | p-1")
