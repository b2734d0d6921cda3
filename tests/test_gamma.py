import io
from dataclasses import replace
from math import gcd

import numpy as np
import pytest
from oracles import (
    bfs_loop,
    gamma_fixed_points,
    independent_loop,
    multiplicative_order,
    orbits_loop,
)

from frobcirc import _kernels, gamma
from frobcirc._kernels import bfs_distances
from frobcirc.circulant import SEARCH_LIMIT, Circulant
from frobcirc.classifier import subgroup_of
from frobcirc.cli import main
from frobcirc.errors import ExponentTooSmall
from frobcirc.gamma import build_gamma, verify_theorem_q
from frobcirc.rotation import RotationReport, gossip_certificate, rotation_report

GRID = [
    (p, e, r)
    for p in (3, 5, 7)
    for e in (3, 4)
    for r in range(e)
    if p**e <= 2500
]


class TestBuild:
    def test_27_1(self):
        spec, g = build_gamma(3, 3, 1)
        assert (spec.q, spec.h, spec.degree) == (27, 8, 6)
        assert g.conn == (1, 8, 10, 17, 19, 26)

    def test_27_0(self):
        spec, g = build_gamma(3, 3, 0)
        assert (spec.h, spec.degree) == (2, 18)
        assert g.conn == tuple(x for x in range(1, 27) if gcd(x, 27) == 1)

    def test_top_r_is_cycle(self):
        for p, e in [(3, 3), (5, 3)]:
            _, g = build_gamma(p, e, e - 1)
            assert g.conn == (1, p**e - 1)

    def test_rejects_small_exponent(self):
        with pytest.raises(ExponentTooSmall):
            build_gamma(3, 2, 0)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            build_gamma(2, 3, 0)

    def test_rejects_composite_p(self):
        for p in (9, 15, 25):
            with pytest.raises(ValueError, match="odd prime"):
                build_gamma(p, 3, 0)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            build_gamma(3, 3, 3)

    def test_q_limit(self, monkeypatch):
        def no_graph(*args):
            raise AssertionError("graph built")

        monkeypatch.setattr(gamma, "Circulant", no_graph)
        # 127^3 = 2,048,383 is the least p^e (e >= 3) above the limit
        assert 113**3 <= SEARCH_LIMIT < 127**3 and 5**9 <= SEARCH_LIMIT < 3**14
        for p, e in [(127, 3), (3, 14), (3, 10**9)]:
            with pytest.raises(ValueError, match="exceeds the supported limit"):
                build_gamma(p, e, 0)
        gamma._validate(5, 9, 0)  # 1,953,125: at most the limit


class TestStructure:
    @pytest.mark.parametrize("p,e,r", GRID)
    def test_subgroup_order_and_closed_form(self, p, e, r):
        spec, g = build_gamma(p, e, r)
        assert multiplicative_order(spec.h, spec.q) == 2 * p ** (e - r - 1)
        assert g.conn == subgroup_of(spec.h, spec.q)
        assert g.degree == spec.degree

    @pytest.mark.parametrize("p,e,r", GRID)
    def test_fixed_points(self, p, e, r):
        spec, g = build_gamma(p, e, r)
        fixed = gamma_fixed_points(spec)
        assert len(fixed) == p ** (e - 1) - 1
        assert g.is_independent_set(fixed)
        rep = rotation_report(spec.q, spec.h, spec.degree)
        if r <= e - 2:
            # the rotation's fixed points are exactly the multiples of p,
            # so the graph is never Frobenius here
            assert rep.steps == (p,)
            assert rep.fixed == fixed
        else:
            # r = e-1 degenerates to the q-cycle with rotation -1
            assert rep.steps == rep.fixed == ()

    @pytest.mark.parametrize(
        "p,e,r", [(p, e, r) for (p, e, r) in GRID if r <= e - 2]
    )
    def test_free_part_is_units(self, p, e, r):
        spec, _ = build_gamma(p, e, r)
        rep = rotation_report(spec.q, spec.h, spec.degree)
        orbits, _, free = orbits_loop(spec.q, spec.h)
        units = tuple(x for x in range(1, spec.q) if x % p != 0)
        assert free == units
        assert set(rep.fixed).isdisjoint(units)
        full_orbits = [o for o in orbits if len(o) == rep.d]
        assert len(full_orbits) == p**r * (p - 1) // 2


class TestDichotomy:
    @pytest.mark.parametrize("p,e,r", GRID)
    def test_vertex_cut_iff_r_positive(self, p, e, r):
        report = verify_theorem_q(p, e, r)
        assert report.ok, report
        assert report.vertex_cut == (r >= 1)
        assert report.witness == (p + 1 if r >= 1 else None)
        if r == 0:
            _, g = build_gamma(p, e, r)
            assert report.gossip_bound == gossip_certificate(g, report.spec.h).bound
        else:
            assert report.gossip_bound is None

    def test_rotation_fixed_points_never_listed(self, monkeypatch):
        # the report reads F off the rotation's steps, and hands the kernels
        # F as one arange
        def listed(rep):
            raise AssertionError(f"F of {rep.w} listed")

        monkeypatch.setattr(RotationReport, "fixed", property(listed))
        for p, e, r in ((3, 3, 0), (3, 4, 1), (5, 3, 2), (7, 3, 1), (3, 5, 4)):
            report = verify_theorem_q(p, e, r)
            assert report.ok and report.fixed_formula_ok, (p, e, r)

    def test_one_bfs_per_instance(self, monkeypatch):
        # one search on Gamma - F decides the cut; the witness takes none
        calls = []

        def counted(*args):
            calls.append(args[0])
            return bfs_distances(*args)

        monkeypatch.setattr(_kernels, "bfs_distances", counted)
        for p, e, r in ((3, 4, 0), (3, 4, 1), (5, 3, 2)):
            verify_theorem_q(p, e, r)
        assert calls == [81, 81, 125]

    @pytest.mark.parametrize("p,e,r", [(3, 3, 0), (3, 4, 1), (5, 3, 2)])
    def test_wrong_order_h_still_runs_every_check(self, monkeypatch, p, e, r):
        # h^2 has order p^(e-r-1), half the degree: the degree check and the
        # fixed-point formula fail, and independence and the cut are still
        # decided on the same graph
        def squared(p, e, r, original=gamma.build_gamma):
            spec, g = original(p, e, r)
            return replace(spec, h=spec.h**2 % spec.q), g

        want = verify_theorem_q(p, e, r)
        monkeypatch.setattr(gamma, "build_gamma", squared)
        report = verify_theorem_q(p, e, r)
        assert not report.degree_ok and not report.fixed_formula_ok and not report.ok
        assert report.spec.h == want.spec.h**2 % want.spec.q
        assert report.independent and want.independent
        assert (report.vertex_cut, report.dichotomy_ok, report.witness, report.gossip_bound) == (
            want.vertex_cut,
            want.dichotomy_ok,
            want.witness,
            want.gossip_bound,
        )
        out = io.StringIO()
        assert main(["gamma", str(p), str(e), str(r)], out=out) == 1
        assert "\ndegree check: FAIL\n" in out.getvalue()

    def test_no_dense_step_once_every_survivor_is_reached(self, dense_steps):
        # Gamma_{3^8,0}: S is every unit, so level 1, a sparse step from 0,
        # reaches every survivor, and no FFT follows
        assert verify_theorem_q(3, 8, 0).ok
        assert dense_steps == []

    def test_one_spectrum_per_search(self, monkeypatch, dense_steps):
        # Gamma_{17^3,0} reaches the units +-k mod 17 at level k, levels 2 to
        # 8 by dense steps: one rfft of S for the search, one of X per step
        transforms = []
        rfft = np.fft.rfft

        def spy(*args, **kwargs):
            transforms.append(args)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        assert verify_theorem_q(17, 3, 0).ok
        assert len(dense_steps) == 7
        assert len(transforms) == len(dense_steps) + 1

    def test_independence_by_one_translate(self, monkeypatch):
        # neither the report nor the gossip certificate runs the general
        # independence test
        def refused(*args):
            raise AssertionError("general independence test called")

        monkeypatch.setattr(Circulant, "is_independent_set", refused)
        for p, e, r in GRID:
            report = verify_theorem_q(p, e, r)
            assert report.ok and report.independent, (p, e, r)
            if r <= e - 2:
                cert = gossip_certificate(build_gamma(p, e, r)[1], report.spec.h)
                assert cert.fixed and cert.independent, (p, e, r)
                assert cert.vertex_cut == (r >= 1), (p, e, r)
        # <17> mod 77: F, the multiples of 7 and of 11, holds 21 and 22
        g = Circulant(77, subgroup_of(17, 77))
        cert = gossip_certificate(g, 17)
        assert cert.fixed == tuple(x for x in range(1, 77) if x % 7 == 0 or x % 11 == 0)
        assert not cert.independent and not independent_loop(77, g.conn, cert.fixed)

    def test_counterexample_243(self):
        report = verify_theorem_q(3, 5, 1)
        assert report.vertex_cut
        assert report.ok


class TestWitness:
    def test_values(self):
        # the witness comes from an argument, not a search: check it, and
        # with it the cut, against an independent BFS on Gamma - F
        for p, e, r in [(p, e, r) for (p, e, r) in GRID if r >= 1]:
            assert verify_theorem_q(p, e, r).witness == p + 1
            spec, g = build_gamma(p, e, r)
            blocked = np.zeros(spec.q, dtype=np.bool_)
            blocked[list(gamma_fixed_points(spec))] = True
            assert not blocked[p + 1]
            assert bfs_loop(spec.q, g.conn, 0, blocked)[p + 1] == -1, (p, e, r)

    def test_r0_rejected(self):
        report = verify_theorem_q(3, 3, 0)
        assert not report.vertex_cut
        assert report.witness is None
