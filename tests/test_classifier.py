from dataclasses import fields
from math import gcd

import pytest
from oracles import (
    cyclic_subgroups_loop,
    euler_phi,
    is_semiregular,
    iso_multiplier,
    maps_onto_itself,
    multiplicative_order,
    semiregular_by_local_orders,
    semiregular_loop,
    symmetric_loop,
)

from frobcirc import classifier, cli
from frobcirc.circulant import SEARCH_LIMIT, Circulant
from frobcirc.cli import class_record
from frobcirc.classifier import (
    FrobeniusClass,
    FrobeniusReport,
    admissible_degrees,
    all_classes,
    construct_h,
    enumerate_classes,
    max_degree_D,
    subgroup_of,
    verify_first_kind_frobenius,
)
from frobcirc.errors import BadExponent, EvenKernel, InadmissibleDegree, NotAUnit
from frobcirc.numtheory import factorize
from frobcirc.rotation import is_complete_rotation

F6253 = factorize(6253)

# (d, m_vector, h, base residues of the +- pairs of S)
TABLE_6253 = [
    (2, (1, 1), 6252, [1]),
    (4, (1, 1), 5507, [1, 746]),
    (4, (1, 3), 3817, [1, 2436]),
    (6, (1, 1), 4541, [1, 1712, 1713]),
    (6, (1, 5), 4710, [1, 1543, 1544]),
    (12, (1, 1), 3967, [1, 746, 1540, 1712, 1713, 2286]),
    (12, (1, 5), 4981, [1, 526, 746, 1272, 1543, 1544]),
    (12, (1, 7), 4136, [1, 319, 1712, 1713, 2117, 2436]),
    (12, (1, 11), 3122, [1, 695, 1543, 1544, 2436, 3122]),
]


def pairs(subgroup, n):
    return sorted({min(s, n - s) for s in subgroup})


def classes_by_bruteforce(f, d):
    """Oracle: iterate all phi(d)^l tuples, materialize every subgroup, dedup."""
    units = [m for m in range(1, d) if gcd(m, d) == 1]
    tuples = [()]
    for _ in range(f.num_primes):
        tuples = [t + (u,) for t in tuples for u in units]
    return {subgroup_of(construct_h(f, d, m), f.n) for m in tuples}


class TestDegrees:
    def test_D_6253(self):
        assert max_degree_D(F6253) == 12

    def test_D_prime(self):
        assert max_degree_D(factorize(41)) == 40

    def test_D_21(self):
        assert max_degree_D(factorize(21)) == 2

    def test_even_rejected(self):
        with pytest.raises(EvenKernel):
            max_degree_D(factorize(10))

    def test_admissible_6253(self):
        assert admissible_degrees(F6253) == [2, 4, 6, 12]

    def test_admissible_21(self):
        assert admissible_degrees(factorize(21)) == [2]

    def test_admissible_9(self):
        assert admissible_degrees(factorize(9)) == [2]

    def test_admissible_matches_even_scan(self):
        for n in range(3, 20000, 2):
            f = factorize(n)
            D = max_degree_D(f)
            assert admissible_degrees(f) == [d for d in range(2, D + 1, 2) if D % d == 0], n

    def test_admissible_large_prime(self):
        # D = p - 1 = 2^6 3^2 13 83 1609 has 6 * 3 * 2^3 = 144 even divisors
        degrees = admissible_degrees(factorize(999999937))
        assert len(degrees) == 144 and degrees[-1] == 999999936


class TestConstructH:
    def test_table1_values(self):
        assert construct_h(F6253, 4, (1, 1)) == 5507
        assert construct_h(F6253, 12, (1, 11)) == 3122
        assert construct_h(F6253, 2, (1, 1)) == 6252

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            construct_h(F6253, 4, (1, 2))

    def test_inadmissible_degree(self):
        with pytest.raises(InadmissibleDegree):
            construct_h(F6253, 8, (1, 1))
        with pytest.raises(InadmissibleDegree):
            construct_h(F6253, 3, (1, 1))

    @pytest.mark.parametrize("d", [0, -2])
    @pytest.mark.parametrize(
        "build",
        [lambda f, d: construct_h(f, d, (1,)), enumerate_classes],
        ids=["construct_h", "enumerate_classes"],
    )
    def test_degree_not_positive(self, build, d):
        # D % d is 0 for d = -2 and undefined for d = 0: only the list of
        # admissible degrees refuses both
        with pytest.raises(InadmissibleDegree):
            build(factorize(13), d)


class TestEnumerate:
    def test_table1_rows(self):
        got = [
            (c.d, c.m_vector, c.h, pairs(c.subgroup, c.n))
            for d in admissible_degrees(F6253)
            for c in enumerate_classes(F6253, d)
        ]
        assert sorted(got) == sorted(TABLE_6253)

    def test_counts_6253(self):
        for d, expected in [(2, 1), (4, 2), (6, 2), (12, 4)]:
            assert len(enumerate_classes(F6253, d)) == expected

    def test_prime_power_unique(self):
        f = factorize(125)
        for d in admissible_degrees(f):
            assert len(enumerate_classes(f, d)) == 1

    def test_matches_bruteforce_dedup(self):
        for n in [91, 301, 1729, 775, 6253]:
            f = factorize(n)
            for d in admissible_degrees(f):
                got = {c.subgroup for c in enumerate_classes(f, d)}
                assert got == classes_by_bruteforce(f, d), (n, d)

    def test_class_count_formula(self):
        for n in [35, 91, 455, 6253]:
            f = factorize(n)
            for d in admissible_degrees(f):
                expected = euler_phi(d) ** (f.num_primes - 1)
                assert len(enumerate_classes(f, d)) == expected

    def test_sorted_by_h(self):
        for d in admissible_degrees(F6253):
            hs = [c.h for c in enumerate_classes(F6253, d)]
            assert hs == sorted(hs)

    def test_pairwise_non_isomorphic(self):
        classes = enumerate_classes(F6253, 12)
        graphs = [Circulant(c.n, c.subgroup) for c in classes]
        for i, a in enumerate(graphs):
            for b in graphs[i + 1 :]:
                assert iso_multiplier(a, b) is None

    def test_degree_limit(self, monkeypatch):
        f = factorize(999999937)
        with pytest.raises(ValueError, match="supported limit"):
            enumerate_classes(f, 999999936)

        def no_class(*args):
            raise AssertionError("a class was built")

        with monkeypatch.context() as m:
            m.setattr(classifier, "FrobeniusClass", no_class)
            with pytest.raises(ValueError, match="degree 999999936 exceeds the supported limit"):
                all_classes(f)
        assert SEARCH_LIMIT < 999999936
        assert [c.subgroup for c in enumerate_classes(f, 2)] == [(1, 999999936)]

    def test_smallest_degree_above_the_limit(self):
        # 2008032 is the smallest admissible degree of 999999937 above SEARCH_LIMIT
        f = factorize(999999937)
        assert min(d for d in admissible_degrees(f) if d > SEARCH_LIMIT) == 2008032
        with pytest.raises(ValueError, match="degree 2008032 exceeds the supported limit 2000000"):
            enumerate_classes(f, 2008032)

    def test_complete_from_the_definition(self):
        """Every rotational first-kind Frobenius circulant on Z_n, odd n < 400,
        derived from the definition and matched with `all_classes`.

        Such a graph is Cay(Z_n, a^H) with H <= Aut(Z_n) = Z_n^* acting
        semiregularly on Z_n \\ {0}, and its complete rotation generates H, so
        H is cyclic (an abelian Frobenius complement is cyclic anyway).
        Every element of a^H has the gcd of a with n, so a^H generates Z_n,
        as a connected graph needs, only if a is a unit, and multiplying by
        a^(-1) turns the graph into Cay(Z_n, H).  S = H is closed under
        negation, so |H| is even.  Distinct subgroups of Z_n^* give
        non-isomorphic graphs by Toida's conjecture, now a theorem (Muzychuk,
        Klin & Poeschel 2001; Dobson & Morris 2002).  So the classes are
        exactly the cyclic subgroups of even order that act semiregularly.
        """
        count = 0
        for n in range(3, 400, 2):
            expected = {
                sub
                for sub in cyclic_subgroups_loop(n)
                if len(sub) % 2 == 0 and semiregular_loop(n, sub)
            }
            assert {c.subgroup for c in all_classes(factorize(n))} == expected, n
            count += len(expected)
        assert count == 603


class TestSemiregular:
    def test_pm_one(self):
        for n in [9, 15, 101]:
            assert is_semiregular(n, (1, n - 1))

    def test_27_fails(self):
        assert not is_semiregular(27, subgroup_of(8, 27))

    def test_6253_class(self):
        assert is_semiregular(6253, subgroup_of(5507, 6253))

    def test_agrees_with_local_orders(self):
        for c in all_classes(F6253):
            assert semiregular_by_local_orders(c.n, c.h, c.d)
        assert not semiregular_by_local_orders(27, 8, 6)


class TestVerify:
    def test_constructed_classes_pass(self):
        for c in all_classes(F6253):
            report = verify_first_kind_frobenius(c)
            assert report.ok, (c.d, c.h, report)

    def test_a_class_is_its_value(self):
        # no field beyond (n, d, h, m_vector), so equal classes get equal
        # verdicts: 12 has order 2 mod 13, not 4, whatever else a class holds
        assert [f.name for f in fields(FrobeniusClass)] == ["n", "d", "h", "m_vector"]
        assert not verify_first_kind_frobenius(FrobeniusClass(13, 4, 12, (1,))).regular_on_s

    def test_nine_cycle_passes(self):
        c = FrobeniusClass(9, 2, 8, (1,))
        assert verify_first_kind_frobenius(c).ok

    def test_27_fails_semiregularity(self):
        c = FrobeniusClass(27, 6, 8, (1,))
        report = verify_first_kind_frobenius(c)
        assert not report.semiregular
        assert not report.ok

    def test_subgroup_not_generated_by_h_fails(self):
        # d is not the order of h: 4 has order 6 mod 13, 5 has order 4.  Nor
        # is <h> read as semiregular: at (6, 5) neither 5^3 nor 5^2 is 1, so
        # the steps read through d = 6 would be empty
        for d, h in [(12, 4), (6, 5), (4, 4)]:
            report = verify_first_kind_frobenius(FrobeniusClass(13, d, h, (1,)))
            assert not report.regular_on_s, (d, h)
            assert report.semiregular is False, (d, h)
            assert not report.ok, (d, h)
            assert report.connected and report.degree_bound, (d, h)

    def test_asymmetric_subgroup_fails(self):
        # <3> = {1, 3, 9} in Z_13 is not closed under negation (d = 3 is odd)
        c = FrobeniusClass(13, 3, 3, (1,))
        assert c.subgroup == (1, 3, 9)
        report = verify_first_kind_frobenius(c)
        assert report.regular_on_s and report.semiregular and report.connected
        assert report.symmetric is False
        assert report.ok is False
        report = verify_first_kind_frobenius(FrobeniusClass(13, 3, 5, (1,)))
        assert not report.regular_on_s and not report.symmetric
        # <5> = {1, 5, 8, 12} and <12> = {1, 12} hold -1
        for d, h in [(4, 5), (2, 12)]:
            assert verify_first_kind_frobenius(FrobeniusClass(13, d, h, (1,))).symmetric

    def test_stabilizer_bruteforce_equivalence(self):
        # exhaustive stabilizer triviality equals the report's gcd criterion
        for n, h in [(91, 90), (27, 8), (6253, 5507), (169, 70)]:
            sub = subgroup_of(h, n)
            brute = all(
                h2 * x % n != x for h2 in sub if h2 != 1 for x in range(1, n)
            )
            report = verify_first_kind_frobenius(FrobeniusClass(n, len(sub), h, (1,)))
            assert brute == report.semiregular, (n, h)

    def test_report_matches_general_checks_below_700(self):
        # the report's pow and gcd tests and the record's `rotational` agree
        # with the checks that scan all of S
        for n in range(3, 700, 2):
            for c in all_classes(factorize(n)):
                report = verify_first_kind_frobenius(c)
                S = c.subgroup
                regular = 1 in S and len(S) == c.d and maps_onto_itself(n, c.h, S)
                assert report.regular_on_s == regular, (n, c.h)
                assert report.semiregular == is_semiregular(n, S), (n, c.h)
                assert report.symmetric == symmetric_loop(n, S), (n, c.h)
                rotational = class_record(c, oracle=False)["rotational"]
                assert rotational == is_complete_rotation(Circulant(n, S), c.h), (n, c.h)
        # d = 4 is not the order 6 of h = 4 mod 13: the record reads d
        wrong_degree = FrobeniusClass(13, 4, 4, (1,))
        assert not class_record(wrong_degree, oracle=False)["rotational"]

    def test_report_matches_general_checks_on_every_cyclic_subgroup(self):
        # every unit h of every odd n < 160, with d its order: the classes'
        # checks plus the semiregular and symmetric verdicts that fail, and
        # the record's --oracle verdict against the scan of every residue
        verdicts = set()
        for n in range(3, 160, 2):
            for h in range(1, n):
                if gcd(h, n) != 1:
                    continue
                S = subgroup_of(h, n)
                c = FrobeniusClass(n, len(S), h, (1,))
                report = verify_first_kind_frobenius(c)
                assert report.regular_on_s and report.connected, (n, h)
                assert report.semiregular == is_semiregular(n, S), (n, h)
                assert report.symmetric == symmetric_loop(n, S), (n, h)
                frobenius = report.ok and semiregular_loop(n, S)
                assert class_record(c, oracle=True)["frobenius"] == frobenius, (n, h)
                verdicts.add((report.semiregular, report.symmetric))
        assert verdicts == {(a, b) for a in (False, True) for b in (False, True)}

    def test_oracle_overrules_a_wrong_report(self, monkeypatch):
        # <8> mod 27 = {1, 8, 10, 17, 19, 26} holds 10, which fixes 3; with a
        # report that wrongly says ok, only the oracle sees it
        c = FrobeniusClass(27, 6, 8, (1,))
        assert not semiregular_loop(27, c.subgroup)
        always_ok = FrobeniusReport(*[True] * len(fields(FrobeniusReport)))
        monkeypatch.setattr(cli, "verify_first_kind_frobenius", lambda c: always_ok)
        assert class_record(c, oracle=True)["frobenius"] is False
        assert class_record(c, oracle=False)["frobenius"] is True

    def test_largest_degree_reads_no_element_of_s(self, monkeypatch):
        # K_1999993, d = 1999992 = SEARCH_LIMIT - 8: one class, h a primitive root
        def no_walk(h, n):
            raise AssertionError("S was walked")

        monkeypatch.setattr(classifier, "subgroup_of", no_walk)
        (c,) = enumerate_classes(factorize(1999993), 1999992)
        assert c.d <= SEARCH_LIMIT
        assert verify_first_kind_frobenius(c).ok
        assert multiplicative_order(c.h, c.n) == c.d


def test_connection_pairs_below_400():
    # the record's bisect slice of the sorted S is its half below n / 2
    for n in range(3, 400, 2):
        for c in all_classes(factorize(n)):
            pairs = class_record(c, oracle=False)["connection_pairs"]
            assert list(pairs) == [s for s in c.subgroup if 2 * s < n], (n, c.h)


class TestSubgroupOf:
    def test_cycle(self):
        assert subgroup_of(8, 27) == (1, 8, 10, 17, 19, 26)
        assert subgroup_of(1, 9) == (1,)

    @pytest.mark.parametrize("h, n", [(3, 9), (0, 9), (5, 15), (15, 5)])
    def test_non_unit_raises(self, h, n):
        with pytest.raises(NotAUnit):
            subgroup_of(h, n)
