import random
import tracemalloc
from itertools import combinations
from math import gcd

import pytest
import numpy as np
from oracles import (
    face_lengths_loop,
    gamma_fixed_points,
    independent_loop,
    is_semiregular,
    multiplicative_order,
    orbits_loop,
    rotations_loop,
)

from frobcirc import rotation
from frobcirc.circulant import SEARCH_LIMIT, Circulant
from frobcirc.classifier import (
    all_classes,
    enumerate_classes,
    subgroup_of,
)
from frobcirc.errors import Disconnected, NotARotation, NotAUnit
from frobcirc.gamma import build_gamma
from frobcirc.harts import tl_graph
from frobcirc.numtheory import factorize, order_steps
from frobcirc.rotation import (
    find_all_rotations,
    gossip_certificate,
    invariant_set_independent,
    is_complete_rotation,
    rotation_report,
)

TL19 = tl_graph(2)
S77 = tuple(sorted(subgroup_of(17, 77)))  # <17> mod 77: F is two progressions
Z8_MIXED = Circulant(8, (1, 2, 6, 7))
ORBIT_MODULI = [27, 91, 125, 169, 243]


def gamma_graph(q, h):
    return Circulant(q, subgroup_of(h, q))


class TestIsCompleteRotation:
    def test_frobenius_class_rotation(self):
        g = gamma_graph(6253, 5507)
        assert is_complete_rotation(g, 5507)

    def test_cycle(self):
        g = Circulant(12, (1, 11))
        assert is_complete_rotation(g, 11)

    def test_tl19_true_generators(self):
        # the degree-6 subgroup {1,7,8,11,12,18} has generators 8 and 12
        assert is_complete_rotation(TL19, 8)
        assert is_complete_rotation(TL19, 12)

    def test_tl19_short_order_elements(self):
        # 7 and 11 lie in S but only have order 3, so they cannot drive S
        # through a single 6-cycle
        assert not is_complete_rotation(TL19, 7)
        assert not is_complete_rotation(TL19, 11)

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            is_complete_rotation(Circulant(9, (3, 6)), 3)

    def test_every_symmetric_set_and_unit_up_to_14(self):
        # every unit, not only find_all_rotations' candidates: this reaches
        # w S = S with a short orbit of s0 (as for TL19 and w = 7) and
        # |S| = 1 (Circulant(4, (2,)))
        seen_short, seen_single = False, False
        for n in range(3, 15):
            units = [w for w in range(1, n) if gcd(w, n) == 1]
            pairs = [(s, n - s) for s in range(1, n // 2 + 1)]
            for size in range(1, len(pairs) + 1):
                for chosen in combinations(pairs, size):
                    conn = tuple(sorted({x for pair in chosen for x in pair}))
                    g = Circulant(n, conn)
                    expected = rotations_loop(n, conn)
                    for w in units:
                        assert is_complete_rotation(g, w) == (w in expected), (n, conn, w)
                        invariant = sorted(w * s % n for s in conn) == list(conn)
                        seen_short |= invariant and w not in expected
                    seen_single |= len(conn) == 1
        assert seen_short and seen_single


class TestRotationReport:
    def test_27_8(self):
        rep = rotation_report(27, 8, 6)
        assert rep.d == 6
        assert rep.fixed == tuple(range(3, 27, 3))
        assert 27 - 1 - len(rep.fixed) == 18  # the free part

    def test_prime_modulus_no_fixed_points(self):
        rep = rotation_report(19, 8, 6)
        assert rep.fixed == ()

    def test_6253_semiregular(self):
        rep = rotation_report(6253, 5507, 4)
        assert rep.fixed == ()
        assert rep.d == 4
        assert all(len(o) == 4 for o in orbits_loop(6253, 5507)[0])

    def test_orbit_partition_properties(self):
        for n in ORBIT_MODULI:
            for w in range(2, n):
                if gcd(w, n) != 1:
                    continue
                rep = rotation_report(n, w, multiplicative_order(w, n))
                orbits, _, free = orbits_loop(n, w)
                assert len(rep.fixed) + len(free) == n - 1
                assert all(rep.d % len(o) == 0 for o in orbits)
                # short orbits are proper divisors of d; free orbits full length
                fixed = set(rep.fixed)
                assert all((len(o) < rep.d) == (o[0] in fixed) for o in orbits)
                # F is <w>-invariant
                assert {w * x % n for x in fixed} == fixed

    def test_closed_form_matches_orbit_walk(self):
        for n in ORBIT_MODULI:
            for w in range(1, n):
                if gcd(w, n) != 1:
                    continue
                rep = rotation_report(n, w, multiplicative_order(w, n))
                assert rep.fixed == orbits_loop(n, w)[1], (n, w)

    @pytest.mark.parametrize("n", [91, 105, 315, 455])
    def test_union_of_several_progressions(self, n):
        # F is one progression range(m, n, m) for Gamma and the prime powers;
        # here several primes l | d give distinct steps m_l < n, so F is a
        # merge of progressions, and the orbit walk is the reference
        merged = 0
        for w in range(2, n):
            if gcd(w, n) != 1:
                continue
            fixed = orbits_loop(n, w)[1]
            assert rotation_report(n, w, multiplicative_order(w, n)).fixed == fixed, (n, w)
            merged += bool(fixed) and fixed != tuple(range(fixed[0], n, fixed[0]))
        assert merged > 0

    def test_fixed_set_limit(self):
        # Cay(Z_{3^15}, {x = +-1 mod 3^14}): the rotation fixes the multiples
        # of 3, which are refused before they are listed
        n = 3**15
        g = Circulant(n, (1, 3**14 - 1, 3**14 + 1, 2 * 3**14 - 1, 2 * 3**14 + 1, n - 1))
        (w, *_) = find_all_rotations(g)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit 2000000 for fixed points of"):
                gossip_certificate(g, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert SEARCH_LIMIT < n
        # an empty F is answered at any n
        assert rotation_report(100000007, 100000006, 2).fixed == ()

    def test_steps_at_any_n(self):
        # the report holds F as its steps: above the limit it lists nothing,
        # and only reading F refuses
        n = 3**15
        w = find_all_rotations(
            Circulant(n, (1, 3**14 - 1, 3**14 + 1, 2 * 3**14 - 1, 2 * 3**14 + 1, n - 1))
        )[0]
        tracemalloc.start()
        try:
            rep = rotation_report(n, w, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert (rep.d, rep.steps) == (6, (3,))
        with pytest.raises(ValueError, match=f"exceeds the limit 2000000 for fixed points of {w}"):
            rep.fixed
        # one step per prime l | d with m_l < n, ascending: 77 = 7 * 11
        assert rotation_report(77, 17, 30).steps == (7, 11)
        assert rotation_report(27, 8, 6).steps == (3,)
        assert rotation_report(19, 8, 6).steps == ()

    def test_order_is_checked_not_computed(self):
        # 8 has order 6 mod 19: 8^3 = -1, and 8^(12/2) = 1
        for d in (3, 12):
            with pytest.raises(ValueError, match=f"8 does not have order {d} mod 19"):
                rotation_report(19, 8, d)
        with pytest.raises(NotAUnit):
            rotation_report(27, 3, 2)

    def test_fixed_empty_iff_semiregular(self):
        for n in [91, 301, 1729, 6253]:
            for c in all_classes(factorize(n)):
                rep = rotation_report(c.n, c.h, c.d)
                assert (rep.fixed == ()) == is_semiregular(c.n, c.subgroup)
        # and a non-semiregular instance has fixed points
        assert rotation_report(27, 8, 6).fixed != ()


class TestFixedSteps:
    def test_against_the_orbit_walk_below_120(self):
        # the steps order_steps reads at the order of w: even n included; the
        # progressions of the steps are F, and each step is a proper divisor of n
        with_steps = 0
        for n in range(3, 120):
            for w in (w for w in range(1, n) if gcd(w, n) == 1):
                d = multiplicative_order(w, n)
                steps = order_steps(w, d, n)
                assert list(steps) == sorted(set(steps)), (n, w)
                assert all(m < n and n % m == 0 for m in steps), (n, w)
                union = sorted({v for m in steps for v in range(m, n, m)})
                assert tuple(union) == orbits_loop(n, w)[1], (n, w)
                with_steps += len(steps) > 1
        assert with_steps > 100

    def test_array_and_tuple_are_one_listing(self):
        rep = rotation_report(77, 17, 30)
        assert rep.fixed_array.dtype == np.int64
        assert rep.fixed == tuple(rep.fixed_array.tolist()) == orbits_loop(77, 17)[1]
        assert rotation_report(19, 8, 6).fixed_array.size == 0


class TestFindAllRotations:
    def test_tl19(self):
        assert find_all_rotations(TL19) == [8, 12]

    def test_mixed_connection_set_has_none(self):
        assert find_all_rotations(Z8_MIXED) == []

    def test_cycle(self):
        g = Circulant(10, (1, 9))
        assert find_all_rotations(g) == [9]

    def test_embeddable(self):
        # a circulant is a balanced regular Cayley map iff it is rotational
        assert find_all_rotations(TL19)
        assert find_all_rotations(Circulant(3, (1, 2)))
        assert not find_all_rotations(Z8_MIXED)

    def test_non_unit_connection_set(self):
        # every element of S is 3 times a unit mod 3: rotations lift from Z_3
        assert find_all_rotations(Circulant(9, (3, 6))) == rotations_loop(9, (3, 6)) == [2, 5, 8]

    def test_every_symmetric_set_up_to_16(self):
        for n in range(3, 17):
            pairs = [(s, n - s) for s in range(1, n // 2 + 1)]
            for size in range(1, len(pairs) + 1):
                for chosen in combinations(pairs, size):
                    g = Circulant(n, tuple(sorted({x for pair in chosen for x in pair})))
                    rotations = find_all_rotations(g)
                    assert rotations == rotations_loop(n, g.conn), (n, g.conn)
                    if g.is_connected():  # a rotation of a connected graph has order |S|
                        assert all(multiplicative_order(w, n) == g.degree for w in rotations)

    def test_random_sets_up_to_200(self):
        rng = random.Random(17)
        for _ in range(600):
            n = rng.randrange(3, 201)
            if rng.random() < 0.5:
                # k * <h, -1> for a unit h of Z_{n/k}: conn[0] is a unit only for k = 1
                k = rng.choice([k for k in range(1, n // 3 + 1) if n % k == 0])
                m = n // k
                h = rng.choice([h for h in range(1, m) if gcd(h, m) == 1])
                sub = {1, m - 1}
                while True:
                    grown = sub | {x * h % m for x in sub}
                    if grown == sub:
                        break
                    sub = grown
                conn = {k * x for x in sub}
            else:
                base = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(6, n // 2)))
                conn = {x for s in base for x in (s, n - s)}
            g = Circulant(n, tuple(sorted(conn)))
            rotations = find_all_rotations(g)
            assert rotations == rotations_loop(n, g.conn), (n, g.conn)
            if g.is_connected():
                assert all(multiplicative_order(w, n) == g.degree for w in rotations), (n, g.conn)
        assert find_all_rotations(Z8_MIXED) == rotations_loop(8, Z8_MIXED.conn) == []

    def test_no_rotation_check_per_candidate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_complete_rotation called")

        monkeypatch.setattr(rotation, "is_complete_rotation", refuse)
        k101 = Circulant(101, tuple(range(1, 101)))
        for g in (TL19, Z8_MIXED, k101, Circulant(9, (3, 6)), gamma_graph(243, 8), tl_graph(50)):
            assert find_all_rotations(g) == rotations_loop(g.n, g.conn), g.n

    def test_every_rotation_has_the_same_fixed_points(self):
        # a connected graph's rotations all generate T = S s0^(-1), so one
        # rotation's F answers for all of them (`verify` reports only one)
        rng = random.Random(23)
        with_fixed = 0
        for _ in range(600):
            n = rng.randrange(3, 300)
            units = [u for u in range(1, n) if gcd(u, n) == 1]
            u = rng.choice(units)
            T = subgroup_of(u, n)
            if n - 1 not in T:  # <-u> holds -1 when u has odd order
                T = subgroup_of(n - u, n)
            if n - 1 not in T:
                continue
            a = rng.choice(units)
            g = Circulant(n, tuple(a * t % n for t in T))
            rotations = find_all_rotations(g)
            assert rotations and g.is_connected(), (n, g.conn)
            # a complete rotation of a connected graph has order |S|
            assert all(multiplicative_order(w, n) == g.degree for w in rotations), (n, g.conn)
            (fixed,) = {rotation_report(n, w, g.degree).fixed for w in rotations}
            assert fixed == orbits_loop(n, rotations[0])[1], (n, g.conn)
            with_fixed += len(rotations) > 1 and fixed != ()
        assert with_fixed > 50

    def test_lifts_of_a_disconnected_graph_are_capped(self):
        # Cay(Z_n, {n/2}): every unit is a rotation, phi(n) of them; above
        # SEARCH_LIMIT they are refused before any is listed
        n = SEARCH_LIMIT + 2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit 2000000 for the rotations of a disconn"):
                find_all_rotations(Circulant(n, (n // 2,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        # connected graphs (one lift each) and graphs without rotations answer
        assert find_all_rotations(Circulant(n + 1, (1, n))) == [n]
        assert find_all_rotations(Circulant(n, (2, 4, n - 4, n - 2))) == []
        assert find_all_rotations(Circulant(30, (15,))) == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_every_constructed_class_is_rotational(self):
        for c in all_classes(factorize(91)):
            assert c.h in find_all_rotations(Circulant(c.n, c.subgroup))


class TestInvariantSetIndependent:
    def test_every_rotation_with_fixed_points_below_160(self):
        # every S that is one symmetric <w>-orbit, F the fixed points of w,
        # against the general test and the pairwise loop
        cases = connected = dependent = 0
        for n in range(3, 160):
            for w in (w for w in range(1, n) if gcd(w, n) == 1):
                orbits, fixed, _ = orbits_loop(n, w)
                if not fixed:
                    continue
                for orbit in orbits:
                    if {-x % n for x in orbit} != set(orbit):
                        continue
                    g = Circulant(n, orbit)
                    got = invariant_set_independent(g, fixed)
                    assert got == g.is_independent_set(fixed), (n, w, orbit)
                    assert got == independent_loop(n, g.conn, fixed), (n, w, orbit)
                    cases += 1
                    connected += g.is_connected()
                    dependent += g.is_connected() and not got
        assert (cases, connected, dependent) == (23883, 5218, 80)

    def test_gamma_grid(self):
        # the gamma-dichotomy grid, q = p^e <= 3^8, with G = S; the pairwise
        # loop only up to q = 2500, as it takes |F|^2 steps
        for p in (3, 5, 7, 11, 13, 17, 19):
            e = 3
            while p**e <= 3**8:
                for r in range(e):
                    spec, g = build_gamma(p, e, r)
                    fixed = gamma_fixed_points(spec)
                    assert invariant_set_independent(g, fixed), (p, e, r)
                    assert g.is_independent_set(fixed), (p, e, r)
                    assert spec.q > 2500 or independent_loop(spec.q, g.conn, fixed), (p, e, r)
                e += 1

    def test_members_checked(self):
        with pytest.raises(ValueError, match="outside"):
            invariant_set_independent(TL19, [19])


class TestGossipCertificate:
    def test_gamma_27_0(self):
        g = gamma_graph(27, 2)
        cert = gossip_certificate(g, 2)
        assert cert.holds and not cert.exact
        assert cert.bound == 2

    def test_gamma_27_1_fails(self):
        g = gamma_graph(27, 8)
        cert = gossip_certificate(g, 8)
        assert not cert.holds
        assert cert.independent
        assert cert.vertex_cut

    def test_tl19_exact(self):
        cert = gossip_certificate(TL19, 8)
        assert cert.holds and cert.exact
        assert cert.fixed == ()
        assert cert.bound == 3

    def test_not_a_rotation(self):
        with pytest.raises(NotARotation):
            gossip_certificate(TL19, 2)
        # a non-unit is refused as such, not as a unit that fails the check
        for w in (0, 19, 38):
            with pytest.raises(NotAUnit):
                gossip_certificate(TL19, w)

    @pytest.mark.parametrize(
        "n,conn,w", [(9, (3, 6), 8), (15, (5, 10), 14), (4, (2,), 1)], ids=["Z9", "Z15", "Z4"]
    )
    def test_disconnected_graph_raises(self, n, conn, w):
        # w is a complete rotation with no fixed points, yet the gossip
        # bound needs a connected graph
        g = Circulant(n, conn)
        assert is_complete_rotation(g, w)
        assert rotation_report(n, w, multiplicative_order(w, n)).steps == ()
        with pytest.raises(Disconnected):
            gossip_certificate(g, w)

    def test_fixed_points_built_and_read_once(self, monkeypatch):
        # F is one int64 array, handed as it is to both kernels: no vertex
        # set but the BFS source is read again, and the printed tuple is
        # that array's
        arrays, listed = [], []

        def counted(members, *args, original=np.fromiter, **kwargs):
            members = list(members)
            listed.append(len(members))
            return original(members, *args, **kwargs)

        def vertices(self, members, original=Circulant._vertices):
            if isinstance(members, np.ndarray):
                arrays.append(members)
            return original(self, members)

        monkeypatch.setattr(np, "fromiter", counted)
        monkeypatch.setattr(Circulant, "_vertices", vertices)
        cases = [(gamma_graph(243, 2), 2), (gamma_graph(27, 8), 8), (Circulant(77, S77), 17)]
        for g, w in cases:
            cert = gossip_certificate(g, w)
            (members,) = {id(m): m for m in arrays}.values()
            assert members.dtype == np.int64
            assert cert.fixed == tuple(members.tolist()) == orbits_loop(g.n, w)[1]
            assert len(arrays) == 2  # independence, then the cut's search
            assert listed == [1]  # the search's source
            arrays.clear()
            listed.clear()

    def test_one_report_and_w_read_mod_n(self, report_calls):
        # one order_steps call tests the order of w and reads its steps, in
        # the rotation check (mod n, as g is connected)
        for g, w in [(TL19, 8), (TL19, 12), (gamma_graph(27, 2), 2), (gamma_graph(27, 8), 8)]:
            cert = gossip_certificate(g, w)
            assert report_calls == [(g.n, w)]
            assert gossip_certificate(g, w + g.n) == cert
            assert cert.fixed == rotation_report(g.n, w, g.degree).fixed
            report_calls.clear()


class TestPathCriterion:
    def test_lemma_path_criterion(self):
        # F fails to cut iff every full-length orbit is reached from 0 in g - F
        for q, h in [(27, 2), (27, 8), (81, 8), (125, 4), (243, 8)]:
            g = gamma_graph(q, h)
            rep = rotation_report(q, h, g.degree)
            if not rep.fixed:
                continue
            reached = g.reachable_from(0, rep.fixed)
            orbit_reached = all(
                any(v in reached for v in orbit)
                for orbit in orbits_loop(q, h)[0]
                if len(orbit) == rep.d
            )
            assert orbit_reached == (not g.is_vertex_cut(rep.fixed)), (q, h)


class TestCayleyMap:
    """The balanced regular Cayley map of a complete rotation w: the rotation
    at every vertex is s -> w s.  A regular map is face-regular, and an
    orientable surface has even Euler characteristic V - E + F."""

    @staticmethod
    def genus(g, w):
        lengths = face_lengths_loop(g.n, g.conn, w)
        assert len(set(lengths)) == 1, (g.n, w, sorted(set(lengths)))
        chi = g.n - g.n * g.degree // 2 + len(lengths)
        assert chi % 2 == 0, (g.n, w, chi)
        return (2 - chi) // 2

    def test_every_class_is_face_regular(self):
        checked = 0
        for n in (7, 13, 19, 37, 91, 6253):
            for c in all_classes(factorize(n)):
                g = Circulant(c.n, c.subgroup)
                genus = self.genus(g, find_all_rotations(g)[0])
                assert genus >= 0
                if c.d == 2:
                    assert genus == 0  # the n-cycle bounds two n-gons
                checked += 1
        assert checked == 27

    def test_known_genera(self):
        k7 = Circulant(7, tuple(range(1, 7)))
        assert find_all_rotations(k7)[0] == 3
        assert self.genus(k7, 3) == 1  # K_7 triangulates the torus
        tl91 = tl_graph(5)
        assert 17 in find_all_rotations(tl91)
        assert self.genus(tl91, 17) == 1  # the triangular lattice folded by the ideal
        assert self.genus(TL19, 8) == 1
