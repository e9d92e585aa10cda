"""Sieve, bounded factorization, and primorial against naive oracles
and sympy."""
from __future__ import annotations

import math
import random
import time

import pytest
import sympy
from hypothesis import given, strategies as st

from sptorsion.criterion import prime_power_cost
from sptorsion.numtheory import (
    factor,
    primorial,
    sieve,
)


def naive_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


@pytest.mark.parametrize("limit", [2, 3, 10, 97, 100, 1000])
def test_sieve_matches_naive(limit):
    assert list(sieve(limit)) == naive_primes(limit)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve(1)


def test_prime_table_count():
    assert len(sieve(23)) == 9
    assert len(sieve(22)) == 8
    assert len(sieve(2)) == 1
    assert len(sieve(1000)) == 168


def totient(n: int) -> int:
    """phi(n) from the prime powers `factor` finds with no effective bound."""
    pairs, cofactor = factor(n, n)
    assert cofactor == 1
    return math.prod(p ** (a - 1) * (p - 1) for p, a in pairs)


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_round_trip(m):
    pairs, cofactor = factor(m, m)
    assert cofactor == 1
    assert math.prod(p**a for p, a in pairs) == m
    assert dict(pairs) == sympy.factorint(m)
    for p, a in pairs:
        assert a >= 1
        assert sympy.isprime(p)
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes))


def test_factor_large_smooth_input():
    # the divisors stop at the largest prime, far below isqrt(m)
    m = primorial(62)
    pairs, cofactor = factor(m, 10**12)
    assert cofactor == 1
    assert math.prod(p**a for p, a in pairs) == m
    assert pairs[-1] == (61, 1)


def test_factor_rejects_nonpositive():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            factor(bad, 10)


@given(st.integers(min_value=0, max_value=10**4))
def test_is_prime_matches_naive(n):
    # n >= 2 is prime exactly when no divisor up to n - 1 splits it off
    naive = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert (n >= 2 and factor(n, n - 1)[1] == n) == naive


@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=3000),
)
def test_factor_against_sympy(m, limit):
    pairs, cofactor = factor(m, limit)
    expected = sympy.factorint(m)
    assert dict(pairs) == {p: a for p, a in expected.items() if p <= limit}
    assert cofactor == math.prod(p**a for p, a in expected.items() if p > limit)


@pytest.mark.parametrize("seed", range(4))
def test_factor_against_sympy_smooth_and_rough(seed):
    # products of small primes, times one or two primes just past the limit
    rng = random.Random(seed)
    for _ in range(300):
        limit = rng.randrange(2, 400)
        small = list(sympy.primerange(2, limit + 1))
        m = math.prod(rng.choice(small) ** rng.randrange(1, 6) for _ in range(rng.randrange(8)))
        rough = [sympy.nextprime(limit + rng.randrange(20)) for _ in range(rng.randrange(3))]
        m *= math.prod(rough)
        pairs, cofactor = factor(m, limit)
        expected = sympy.factorint(m)
        assert dict(pairs) == {p: a for p, a in expected.items() if p <= limit}
        assert cofactor == math.prod(rough)


def test_factor_work_is_bounded_by_the_limit():
    # a huge m with a tiny limit, and a tiny m with a huge limit
    start = time.perf_counter()
    assert factor(1000000007 * 1000000009, 3) == ((), 1000000016000000063)
    assert factor(6, 2 * 10**12 + 1) == (((2, 1), (3, 1)), 1)
    assert factor(2**4000 * 7, 5) == (((2, 4000),), 7)
    assert time.perf_counter() - start < 0.1


def test_totient_prime_power_values():
    # c(p^a) is phi(p^a), except that c(2) = 0
    for p in sympy.primerange(2, 100):
        for a in range(1, 6):
            expected = 0 if (p, a) == (2, 1) else sympy.totient(p**a)
            assert prime_power_cost(p, a) == expected
    assert prime_power_cost(2, 3) == 4
    assert prime_power_cost(3, 2) == 6
    assert prime_power_cost(5, 1) == 4
    with pytest.raises(ValueError):
        prime_power_cost(4, 1)
    with pytest.raises(ValueError):
        prime_power_cost(3, 0)


@pytest.mark.parametrize("n", range(1, 200))
def test_totient_matches_gcd_count(n):
    assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert totient(n) == sympy.totient(n)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_totient_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert totient(a * b) == totient(a) * totient(b)


@pytest.mark.parametrize("limit", [2, 3, 4, 100, 7919, 10**5])
def test_sieve_against_sympy(limit):
    primes = sieve(limit)
    assert list(primes) == list(sympy.primerange(2, limit + 1))
    assert len(primes) == sympy.primepi(limit)


def test_primorial_values():
    assert primorial(2) == 2
    assert primorial(3) == 6
    assert primorial(10) == 210
    assert primorial(23) == 223092870
    assert primorial(24) == 223092870
    with pytest.raises(ValueError):
        primorial(1)

