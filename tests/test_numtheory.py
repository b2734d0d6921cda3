from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import euler_phi, multiplicative_order, ord_p

from frobcirc.errors import EvenKernel
from frobcirc.numtheory import (
    Factorization,
    crt_combine,
    factorize,
    order_steps,
    primitive_root,
)


def order_by_scan(a, m):
    """Linear-scan oracle for the multiplicative order."""
    x = a % m
    for k in range(1, m + 1):
        if x == 1:
            return k
        x = x * a % m
    raise AssertionError("not a unit")


class TestFactorize:
    def test_example_6253(self):
        assert factorize(6253).factors == ((13, 2), (37, 1))

    def test_one_is_empty_product(self):
        assert factorize(1).factors == ()

    def test_prime(self):
        assert factorize(19).factors == ((19, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            factorize(10**9 + 1)

    def test_memo_keeps_python_ints(self):
        # the memo tells numpy.int64(15) from 15: a Factorization records its
        # n, and cli._write_json prints only real ints
        factorize.cache_clear()
        factorize(np.int64(15))
        assert type(factorize(15).n) is int

    @given(st.integers(min_value=2, max_value=100_000))
    def test_reconstructs_n(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
            assert all(p % q != 0 for q in range(2, isqrt(p) + 1))  # p prime
            assert (n // p**e) % p != 0  # exponent maximal
        assert prod == n
        assert list(f.primes) == sorted(f.primes)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 27) == 18
        assert multiplicative_order(1, 100) == 1
        assert multiplicative_order(5507, 6253) == 4

    def test_not_coprime(self):
        with pytest.raises(ValueError, match="not a unit"):
            multiplicative_order(3, 27)

    @settings(max_examples=200)
    @given(st.integers(min_value=2, max_value=10_000), st.integers(min_value=2, max_value=10_000))
    def test_matches_linear_scan(self, m, a):
        if gcd(a, m) != 1:
            return
        assert multiplicative_order(a, m) == order_by_scan(a, m)


class TestHasOrder:
    def test_every_unit_and_divisor_of_phi_below_200(self):
        # order_steps is None unless d is the order of x: the order is one of
        # the divisors of phi(n), so each unit has steps for exactly one d;
        # even n and n = 2 included
        checked = 0
        for n in range(2, 200):
            phi = euler_phi(n)
            divisors = [d for d in range(1, phi + 1) if phi % d == 0]
            for x in range(1, n):
                if gcd(x, n) != 1:
                    continue
                order = multiplicative_order(x, n)
                got = [d for d in divisors if order_steps(x, d, n) is not None]
                assert got == [order], (x, n)
                checked += len(divisors)
        assert checked > 50000

    def test_non_unit_has_no_order(self):
        assert all(order_steps(6, d, 9) is None for d in (1, 2, 3, 6))


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(169) == 156
        assert euler_phi(1) == 1
        assert euler_phi(37) == 36

    @given(st.integers(min_value=1, max_value=2000))
    def test_counts_coprime_residues(self, n):
        expected = sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)
        assert euler_phi(n) == expected


class TestPrimitiveRoot:
    def test_example_values(self):
        assert primitive_root(13, 2) == 2
        assert primitive_root(37) == 2
        assert primitive_root(3) == 2

    def test_rejects_two(self):
        with pytest.raises(EvenKernel):
            primitive_root(2, 3)

    def test_generates_full_unit_group(self):
        # all odd prime powers up to 10^4
        for p in range(3, 10_000, 2):
            if factorize(p).factors != ((p, 1),):
                continue
            e = 1
            while p**e <= 10_000:
                m = p**e
                eta = primitive_root(p, e)
                phi = p ** (e - 1) * (p - 1)
                x = eta
                count = 1
                while x != 1:
                    x = x * eta % m
                    count += 1
                assert count == phi, (p, e)
                e += 1


class TestCrtCombine:
    def test_table1_values(self):
        assert crt_combine([(99, 169), (31, 37)]) == 5507
        assert crt_combine([(147, 169), (27, 37)]) == 4541

    def test_single_modulus(self):
        assert crt_combine([(10, 7)]) == 3

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine([(1, 6), (2, 9)])

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(2, 200)),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip(self, residues):
        n = 1
        for _, m in residues:
            if gcd(n, m) != 1:
                return
            n *= m
        x = crt_combine(residues)
        assert 0 <= x < n
        for r, m in residues:
            assert x % m == r % m


class TestOrdP:
    def test_examples(self):
        assert ord_p(63, 3) == 2
        assert ord_p(7, 3) == 0
        assert ord_p(513, 3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ord_p(0, 3)


class TestPadicValuationFamily:
    """(p-1)^(p^k s) -+ 1 has p-adic valuation exactly k+1, per the parity
    of s; evaluated with exact big integers."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_valuation(self, p, k):
        for s in range(1, p):
            value = (p - 1) ** (p**k * s)
            if s % 2 == 0:
                assert ord_p(value - 1, p) == k + 1
            else:
                assert ord_p(value + 1, p) == k + 1


class TestSympyCrossCheck:
    """Each routine against sympy's independent implementation; skipped when
    sympy is not installed."""

    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    def test_factorize_and_euler_phi(self, sympy):
        for n in range(1, 5000):
            f = factorize(n)
            assert dict(f.factors) == sympy.factorint(n), n
            assert euler_phi(n) == sympy.totient(n), n

    def test_multiplicative_order(self, sympy):
        for m in range(2, 800):
            for a in range(1, 40):
                if gcd(a, m) == 1:
                    assert multiplicative_order(a, m) == sympy.n_order(a, m), (a, m)

    def test_primitive_root(self, sympy):
        for p in sympy.primerange(3, 400):
            for e in (1, 2, 3):
                assert primitive_root(p, e) == sympy.primitive_root(p**e), (p, e)
