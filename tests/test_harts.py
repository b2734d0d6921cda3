import io

import pytest
from oracles import diameter_loop, iso_multiplier, multiplicative_order, tl_diameter_check

from frobcirc import _kernels, harts
from frobcirc.classifier import FrobeniusClass, verify_first_kind_frobenius
from frobcirc.cli import main
from frobcirc.errors import SizeTooSmall
from frobcirc.harts import (
    harts_graph,
    harts_iso_tl,
    tl_diameter,
    tl_graph,
    tl_vertex_count,
)


class TestTLGraph:
    def test_k2(self):
        g = tl_graph(2)
        assert g.n == 19
        assert g.conn == (1, 7, 8, 11, 12, 18)

    def test_k3(self):
        g = tl_graph(3)
        assert g.n == 37
        assert g.conn == (1, 10, 11, 26, 27, 36)

    def test_rejects_k1(self):
        with pytest.raises(SizeTooSmall):
            tl_graph(1)

    def test_root_congruence(self):
        # 3k+2 solves x^2 - x + 1 = 0 mod n_k
        for k in range(2, 51):
            n = tl_vertex_count(k)
            x = 3 * k + 2
            assert (x * x - x + 1) % n == 0

    @pytest.mark.parametrize("k", range(2, 21))
    def test_degree6_frobenius(self, k):
        g = tl_graph(k)
        h = 3 * k + 2
        assert multiplicative_order(h, g.n) == 6
        c = FrobeniusClass(g.n, 6, h, (1,))
        assert c.subgroup == g.conn
        assert verify_first_kind_frobenius(c).ok


class TestHartsGraph:
    def test_k3(self):
        g = harts_graph(3)
        assert g.n == 19
        assert g.conn == (2, 3, 5, 14, 16, 17)

    def test_k2_complete(self):
        g = harts_graph(2)
        assert g.n == 7
        assert g.conn == (1, 2, 3, 4, 5, 6)

    def test_vertex_count(self):
        for k in range(2, 21):
            assert harts_graph(k).n == 3 * k * k - 3 * k + 1

    def test_rejects_k1(self):
        with pytest.raises(SizeTooSmall):
            harts_graph(1)


class TestIsomorphism:
    def test_k3_multiplier(self):
        assert harts_iso_tl(3) == 9
        mapped = sorted(9 * s % 19 for s in harts_graph(3).conn)
        assert mapped == list(tl_graph(2).conn)

    def test_k4(self):
        assert harts_iso_tl(4) == 12

    def test_k2(self):
        assert harts_iso_tl(2) == 6

    def test_wrong_mesh_raises(self, monkeypatch):
        monkeypatch.setattr(harts, "_mesh_conn", lambda k: {1, 2, 17, 18})
        with pytest.raises(AssertionError):
            harts_iso_tl(3)

    @pytest.mark.parametrize("k", range(3, 21))
    def test_cross_checked_by_exhaustive_scan(self, k):
        sigma = iso_multiplier(harts_graph(k), tl_graph(k - 1))
        assert sigma is not None


def printed_diameters(k):
    """(mesh diameter, TL diameter or None) as `frobcirc harts k` prints them."""
    out = io.StringIO()
    assert main(["harts", str(k)], out=out) == 0
    lines = out.getvalue().splitlines()
    mesh = int(lines[2].removeprefix("mesh diameter: "))
    tl = int(lines[3].rsplit("diameter ", 1)[1]) if k > 2 else None
    return mesh, tl


class TestDiameters:
    # the closed form against the plain-loop BFS of tests/oracles.py
    @pytest.mark.parametrize("k", range(2, 41))
    def test_tl_diameter(self, k):
        assert tl_diameter(k) == k
        assert tl_diameter_check(k)

    @pytest.mark.parametrize("k", range(2, 41))
    def test_harts_diameter(self, k):
        mesh = harts_graph(k)
        d = diameter_loop(mesh.n, mesh.conn)
        assert mesh.diameter() == d == k - 1
        assert printed_diameters(k) == (d, d if k > 2 else None)

    # larger sizes, up to the benchmark's largest k, against the API's BFS
    @pytest.mark.parametrize("k", [*range(41, 61), 120, 300])
    def test_closed_form_matches_bfs(self, k):
        assert tl_diameter(k) == tl_graph(k).diameter() == k
        mesh, tl = printed_diameters(k)
        assert mesh == tl == harts_graph(k).diameter()

    def test_size_one_is_k7(self):
        assert tl_diameter(1) == diameter_loop(7, range(1, 7)) == 1
        with pytest.raises(SizeTooSmall):
            tl_diameter(0)

    def test_harts_runs_no_bfs(self, monkeypatch):
        def no_bfs(*args):
            raise AssertionError("harts ran a BFS")

        monkeypatch.setattr(_kernels, "bfs_distances", no_bfs)
        assert printed_diameters(300) == (299, 299)
