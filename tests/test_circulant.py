import random
import tracemalloc
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from oracles import circulant_validation, independent_loop, iso_multiplier

from frobcirc.circulant import SEARCH_LIMIT, Circulant
from frobcirc.classifier import enumerate_classes, subgroup_of
from frobcirc.errors import DegenerateCut, Disconnected
from frobcirc.gamma import build_gamma
from frobcirc.harts import harts_graph, tl_graph
from frobcirc.numtheory import factorize
from frobcirc.rotation import find_all_rotations, invariant_set_independent, rotation_report

TL19 = tl_graph(2)  # Cay(Z_19, {1,7,8,11,12,18})


def cycle(n):
    return Circulant(n, (1, n - 1))


def random_circulant(rng, n):
    base = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(4, n // 2)))
    conn = set()
    for s in base:
        conn.add(s % n)
        conn.add((n - s) % n)
    conn.discard(0)
    return Circulant(n, tuple(sorted(conn)))


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Circulant(7, (1, 2, 6))

    def test_rejects_zero_member(self):
        with pytest.raises(ValueError):
            Circulant(7, (0, 1, 6))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Circulant(2, (1,))

    def test_any_modulus(self):
        # construction and the gcd criterion build no array of length n
        for n in (2**62, 2**64 + 1, 10**22):
            g = Circulant(n, (n - 1, 1, 2, n - 2))
            assert g.conn == (1, 2, n - 2, n - 1)
            assert g.is_connected()
        assert not Circulant(10**22, (2, 10**22 - 2)).is_connected()

    def test_validation_matches_set_based_checks(self):
        # duplicates, 0, n, negatives, elements past n and asymmetric sets;
        # half of the sets are made symmetric before the noise is added
        rng = random.Random(11)
        verdicts = set()
        for _ in range(3000):
            n = rng.randint(1, 40)
            conn = [rng.randint(-3, n + 3) for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.5:
                conn += [n - s for s in conn if 0 < s < n]
                conn += rng.choices([0, n, -1, n + 1, 1], k=rng.randint(0, 1))
            try:
                expected = circulant_validation(n, conn)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    Circulant(n, tuple(conn))
                assert str(got.value) == str(exc), (n, conn)
                verdicts.add(str(exc).split()[0])
            else:
                assert Circulant(n, tuple(conn)).conn == expected, (n, conn)
                verdicts.add("ok")
        assert verdicts == {"modulus", "connection", "ok"}


class TestNeighbors:
    def test_tl19(self):
        assert TL19.neighbors(0) == [1, 7, 8, 11, 12, 18]

    def test_cycle(self):
        assert cycle(10).neighbors(0) == [1, 9]

    def test_gamma_27_1(self):
        g = Circulant(27, subgroup_of(8, 27))
        assert g.neighbors(0) == [1, 8, 10, 17, 19, 26]

    def test_degree_preserved(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_circulant(rng, rng.randrange(5, 100))
            v = rng.randrange(g.n)
            assert len(g.neighbors(v)) == g.degree


class TestConnectivity:
    def test_even_step_disconnected(self):
        assert not Circulant(6, (2, 4)).is_connected()
        assert not Circulant(9, (3, 6)).is_connected()

    def test_tl19_connected(self):
        assert TL19.is_connected()

    def test_bfs_agrees_with_gcd_criterion(self):
        rng = random.Random(20240817)
        for _ in range(200):
            g = random_circulant(rng, rng.randrange(4, 501))
            assert g.is_connected() == (len(g.reachable_from(0)) == g.n), (g.n, g.conn)


class TestIndependentSet:
    def test_fixed_points_of_gamma_27_0(self):
        g = Circulant(27, subgroup_of(2, 27))
        assert g.is_independent_set(range(3, 27, 3))

    def test_empty_set(self):
        assert TL19.is_independent_set([])

    def test_adjacent_pair(self):
        assert not cycle(19).is_independent_set([0, 1])

    def test_agrees_with_pairwise_loop(self):
        rng = random.Random(23)
        for _ in range(400):
            g = random_circulant(rng, rng.randrange(4, 200))
            members = rng.sample(range(g.n), rng.randrange(0, g.n // 3 + 1))
            assert g.is_independent_set(members) == independent_loop(g.n, g.conn, members), (
                g.n,
                g.conn,
                members,
            )

    def test_gamma_multiples_of_p(self, dense_steps):
        # F = the nonzero multiples of p in every Gamma_{p^e,r} with q <= 3^6;
        # where |F| |S| > 4q the test takes the dense step
        for p, e in [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3)]:
            for r in range(e):
                spec, g = build_gamma(p, e, r)
                members = range(p, spec.q, p)
                assert g.is_independent_set(members), (p, e, r)
                assert independent_loop(g.n, g.conn, members), (p, e, r)
        assert len(dense_steps) >= 10

    def test_random_halves(self, dense_steps):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randrange(10, 300)
            base = rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))
            g = Circulant(n, tuple(sorted({x for s in base for x in (s, n - s)})))
            members = rng.sample(range(n), n // 2)
            assert g.is_independent_set(members) == independent_loop(g.n, g.conn, members)
        assert len(dense_steps) >= 100

    def test_evens_against_odd_sets(self, dense_steps):
        # an odd connection set never joins two even vertices
        rng = random.Random(37)
        for _ in range(60):
            n = 2 * rng.randrange(5, 150)
            odd = range(1, n // 2 + 1, 2)
            base = rng.sample(odd, rng.randint(1, len(odd)))
            g = Circulant(n, tuple(sorted({x for s in base for x in (s, n - s)})))
            evens = range(0, n, 2)
            assert g.is_independent_set(evens)
            assert independent_loop(g.n, g.conn, evens)
            assert not g.is_independent_set([*evens, 1])
        assert len(dense_steps) >= 30

    def test_member_outside_vertex_range(self):
        with pytest.raises(ValueError):
            cycle(19).is_independent_set([3, 19])
        with pytest.raises(ValueError):
            cycle(19).is_independent_set([-1])
        # an int64 array is read as it is, and still checked
        for bad in ([3, 19], [-1]):
            with pytest.raises(ValueError):
                cycle(19).is_vertex_cut(np.array(bad, dtype=np.int64))
        assert cycle(19).is_vertex_cut(np.array([3, 10], dtype=np.int64))


class TestVertexCut:
    def test_gamma_27_1_cut(self):
        g = Circulant(27, subgroup_of(8, 27))
        assert g.is_vertex_cut(range(3, 27, 3))

    def test_gamma_27_0_not_cut(self):
        g = Circulant(27, subgroup_of(2, 27))
        assert not g.is_vertex_cut(range(3, 27, 3))

    def test_empty_set_not_cut(self):
        assert not TL19.is_vertex_cut([])

    def test_degenerate(self):
        with pytest.raises(DegenerateCut):
            cycle(5).is_vertex_cut([0, 1, 2, 3])

    def test_requires_connected(self):
        with pytest.raises(Disconnected):
            Circulant(6, (2, 4)).is_vertex_cut([0])

    def test_repeated_query_reuses_search(self):
        g = Circulant(27, subgroup_of(8, 27))
        fixed = range(3, 27, 3)
        shuffled = list(fixed)
        random.Random(5).shuffle(shuffled)
        assert g.is_vertex_cut(fixed)
        assert 4 not in g.reachable_from(0, tuple(fixed))
        # the same set in another order, with repeats, or as a range again
        assert g.is_vertex_cut(shuffled)
        assert g.is_vertex_cut([*fixed, 3, 24, 3])
        assert 4 not in g.reachable_from(0, fixed)
        assert len(g.reachable_from(1)) == 27
        assert g.is_vertex_cut(fixed)

    def test_member_outside_vertex_range(self):
        # -1 must not wrap to vertex 6, which alone would not cut the 7-cycle
        with pytest.raises(ValueError):
            cycle(7).is_vertex_cut([-1, 6])
        with pytest.raises(ValueError):
            cycle(7).is_vertex_cut([7])
        with pytest.raises(ValueError):
            cycle(7).is_vertex_cut([2**70])
        with pytest.raises(ValueError):
            cycle(7).reachable_from(0, [7])
        with pytest.raises(ValueError):
            cycle(7).reachable_from(-1)

    def test_empty_set_allocates_nothing(self):
        # n = 2^40: a mask or distance array of length n would need a terabyte
        g = Circulant(2**40, (1, 2**40 - 1))
        tracemalloc.start()
        try:
            assert not g.is_vertex_cut([])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSearchLimit:
    HUGE = Circulant(2**64 + 1, (1, 2**64))

    QUERIES = {
        "independent_beyond_int64": lambda g: g.is_independent_set([2**63]),  # still a vertex
        "independent": lambda g: g.is_independent_set([5]),
        "independent_empty": lambda g: g.is_independent_set([]),
        "invariant_independent": lambda g: invariant_set_independent(g, [5]),
        "cut": lambda g: g.is_vertex_cut([5]),
        "cut_beyond_int64": lambda g: g.is_vertex_cut([2**63]),
        "diameter": lambda g: g.diameter(),
        "eccentricity": lambda g: g.eccentricity(2**63),
        "reachable": lambda g: g.reachable_from(0),
    }

    @pytest.mark.parametrize("query", QUERIES)
    def test_refused_before_any_allocation(self, query):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the search limit 2000000"):
                self.QUERIES[query](self.HUGE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_outside_member_still_reported(self):
        with pytest.raises(ValueError, match="outside"):
            self.HUGE.is_vertex_cut([-1])

    def test_boundary(self):
        assert cycle(SEARCH_LIMIT).is_independent_set([0, 2])
        with pytest.raises(ValueError, match="search limit"):
            cycle(SEARCH_LIMIT + 1).is_independent_set([0, 2])


class TestDiameter:
    def test_tl19(self):
        assert TL19.diameter() == 2

    def test_complete_graph(self):
        assert Circulant(5, (1, 2, 3, 4)).diameter() == 1

    def test_seven_cycle(self):
        assert cycle(7).diameter() == 3

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            Circulant(9, (3, 6)).diameter()

    def test_vertex_transitive(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_circulant(rng, rng.randrange(5, 200))
            if not g.is_connected():
                continue
            d0 = g.diameter()
            for _ in range(5):
                assert g.eccentricity(rng.randrange(g.n)) == d0

    def test_eccentricity_of_a_non_vertex(self):
        with pytest.raises(ValueError):
            cycle(7).eccentricity(7)


class TestAgainstNetworkx:
    def test_every_symmetric_set_up_to_12(self):
        # connectivity and diameter of every symmetric S for n <= 12, and the
        # cut verdict on the fixed points F of each complete rotation that
        # leaves two vertices; the Gamma_{q,r} for q <= 125 add F that cut
        nx = pytest.importorskip("networkx")
        graphs = [build_gamma(p, e, r)[1] for p, e in ((3, 3), (3, 4), (5, 3)) for r in range(e)]
        for n in range(3, 13):
            pairs = [(s, n - s) for s in range(1, n // 2 + 1)]
            for size in range(1, len(pairs) + 1):
                for chosen in combinations(pairs, size):
                    graphs.append(Circulant(n, tuple(sorted({x for p in chosen for x in p}))))
        cuts = []
        for g in graphs:
            ref = nx.circulant_graph(g.n, g.conn)
            assert g.is_connected() == nx.is_connected(ref), g
            if not g.is_connected():
                continue
            assert g.diameter() == nx.diameter(ref), g
            for w in find_all_rotations(g):
                fixed = rotation_report(g.n, w, g.degree).fixed
                survivors = set(range(g.n)) - set(fixed)
                if len(survivors) >= 2:
                    cut = not nx.is_connected(ref.subgraph(survivors))
                    assert g.is_vertex_cut(fixed) == cut, (g, w)
                    cuts.append(cut)
        assert len(graphs) == 176 + 10 and cuts.count(True) > 0 and cuts.count(False) > 0


class TestIsoMultiplier:
    def test_harts_to_tl(self):
        sigma = iso_multiplier(harts_graph(3), TL19)
        assert sigma is not None
        assert {sigma * s % 19 for s in harts_graph(3).conn} == set(TL19.conn)
        # 9 = 3k is one valid multiplier
        assert {9 * s % 19 for s in harts_graph(3).conn} == set(TL19.conn)

    def test_identity(self):
        assert iso_multiplier(TL19, TL19) == 1

    def test_distinct_classes_not_isomorphic(self):
        a, b = enumerate_classes(factorize(6253), 4)
        assert iso_multiplier(Circulant(a.n, a.subgroup), Circulant(b.n, b.subgroup)) is None

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            iso_multiplier(cycle(5), cycle(7))

    def test_modulus_limit(self):
        # the scan multiplies two residues in int64, so n stays at most 10^9
        g = cycle(10**9 + 7)
        with pytest.raises(ValueError, match="supported limit"):
            iso_multiplier(g, g)

    def test_isomorphic_pair_without_multiplier(self):
        # Z_16 is not a CI-group: these two are isomorphic, by a bijection
        # that is no multiplication, and None only says no multiplier exists
        a = Circulant(16, (2, 3, 5, 11, 13, 14))  # {+-2, +-3, +-5}
        b = Circulant(16, (3, 5, 6, 10, 11, 13))  # {+-3, +-5, +-6}

        def phi(v):
            return (v + 8) % 16 if v % 4 in (1, 2) else v

        assert sorted(map(phi, range(16))) == list(range(16))
        for u in range(16):
            for v in range(16):
                assert ((v - u) % 16 in a.conn) == ((phi(v) - phi(u)) % 16 in b.conn), (u, v)
        assert iso_multiplier(a, b) is None

    def test_multiplier_maps_neighborhoods(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(5, 200)
            g = random_circulant(rng, n)
            sigma = rng.choice([u for u in range(1, n) if gcd(u, n) == 1])
            g2 = Circulant(n, tuple(sorted(sigma * s % n for s in g.conn)))
            tau = iso_multiplier(g, g2)
            assert tau is not None
            for v in range(n):
                mapped = sorted(tau * u % n for u in g.neighbors(v))
                assert mapped == g2.neighbors(tau * v % n)
