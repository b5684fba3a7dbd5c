"""Number theory tests: the algebra under the threshold scheme."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.numth import (
    crt_pair,
    egcd,
    invmod,
    is_probable_prime,
    jacobi,
    lagrange_coefficient_num_den,
    random_prime,
    random_safe_prime,
    scaled_lagrange_coefficient,
)

from tests.conftest import SeededSource


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestInvmod:
    def test_basic(self):
        assert invmod(3, 7) == 5
        assert (3 * invmod(3, 7)) % 7 == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError):
            invmod(6, 9)

    @given(st.integers(2, 10**9))
    def test_inverse_property(self, m):
        a = 0
        # Find something coprime to m deterministically.
        for candidate in range(2, 50):
            if math.gcd(candidate, m) == 1:
                a = candidate
                break
        if a:
            assert (a * invmod(a, m)) % m == 1


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 15, 91, 7917):
            assert not is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 6601, 41041):
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**127 - 3)


class TestPrimeGeneration:
    def test_random_prime_bits(self):
        p = random_prime(64)
        assert p.bit_length() == 64
        assert is_probable_prime(p)

    def test_seeded_source_replays_the_prime(self):
        assert random_prime(64, rng=SeededSource(3)) == random_prime(
            64, rng=SeededSource(3)
        )
        assert random_safe_prime(32, rng=SeededSource(3)) == random_safe_prime(
            32, rng=SeededSource(3)
        )

    def test_random_safe_prime(self):
        p = random_safe_prime(32)
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_tiny_rejected(self):
        with pytest.raises(ValueError):
            random_prime(1)


class TestLagrange:
    def test_interpolation_recovers_constant_term(self):
        # f(x) = 7 + 3x + 5x^2 over the integers, points 1..3.
        poly = lambda x: 7 + 3 * x + 5 * x * x
        subset = (1, 2, 3)
        delta = math.factorial(5)
        total = 0
        for i in subset:
            lam = scaled_lagrange_coefficient(delta, subset, i, 0)
            total += lam * poly(i)
        assert total == delta * 7

    def test_coefficient_num_den(self):
        num, den = lagrange_coefficient_num_den((1, 2), 1, 0)
        assert (num, den) == (-2, -1)

    def test_index_not_in_subset(self):
        with pytest.raises(ValueError):
            lagrange_coefficient_num_den((1, 2), 3, 0)

    @given(
        st.lists(st.integers(1, 10), min_size=2, max_size=5, unique=True),
        st.lists(st.integers(-50, 50), min_size=2, max_size=5),
    )
    @settings(max_examples=50)
    def test_scaled_interpolation_any_polynomial(self, subset, coeffs):
        subset = tuple(sorted(subset))
        coeffs = coeffs[: len(subset)]  # degree < #points
        poly = lambda x: sum(c * x**k for k, c in enumerate(coeffs))
        delta = math.factorial(10)
        total = sum(
            scaled_lagrange_coefficient(delta, subset, i, 0) * poly(i)
            for i in subset
        )
        assert total == delta * poly(0)


class TestCrt:
    def test_basic(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_non_coprime_raises(self):
        with pytest.raises(ValueError):
            crt_pair(1, 4, 1, 6)


class TestJacobi:
    def test_known_values(self):
        assert jacobi(1, 3) == 1
        assert jacobi(2, 3) == -1
        assert jacobi(4, 7) == 1
        assert jacobi(0, 3) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)

    def test_quadratic_residues(self):
        p = 23
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert jacobi(a, p) == expected
