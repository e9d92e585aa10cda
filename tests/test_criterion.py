"""Membership criterion: costs, exemption, enumeration, and invariants."""
from __future__ import annotations

import math
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sptorsion.criterion import (
    _prime_power_options,
    enumerate_orders,
    is_member,
    membership,
    prime_power_cost,
    support_primes,
)
from sptorsion.extremal import count_orders


def two_case_cost(m: int) -> int:
    # direct transcription of the cost definition: sum phi(p^a) over
    # sympy's factorization, dropping the prime-2 term when m == 2 (mod 4)
    total = 0
    for p, a in sympy.factorint(m).items():
        if p == 2 and m % 4 == 2:
            continue
        total += p ** (a - 1) * (p - 1)
    return total


def cost_report(m: int):
    """The complete cost table of m: at genus m every prime of m is
    below 2g + 1, so nothing is left in the cofactor."""
    report = membership(m, m).report
    assert report.cofactor == 1
    return report


def test_prime_power_cost_cases():
    assert prime_power_cost(2, 1) == 0
    assert prime_power_cost(2, 2) == 2
    assert prime_power_cost(2, 3) == 4
    assert prime_power_cost(2, 5) == 16
    assert prime_power_cost(3, 1) == 2
    assert prime_power_cost(3, 2) == 6
    assert prime_power_cost(7, 1) == 6


def test_degree_cost_examples():
    report = cost_report(12)
    assert report.total == 4
    assert not report.exemption_applied
    report = cost_report(10)
    assert report.total == 4
    assert report.exemption_applied
    report = cost_report(2)
    assert report.total == 0
    assert report.exemption_applied


def test_degree_cost_additivity_against_definition():
    for m in range(2, 10**5 + 1):
        assert cost_report(m).total == two_case_cost(m), m


def test_membership_small():
    decision = membership(6, 1)
    assert decision.member
    assert decision.budget == 2
    assert decision.deficit == 0
    decision = membership(9, 2)
    assert not decision.member
    assert decision.report.cofactor == 1
    assert decision.deficit == 2
    # 5 > 2g + 1: the factorization stops at 3 and leaves 5 over
    decision = membership(5, 1)
    assert not decision.member
    assert decision.report.terms == ()
    assert decision.report.cofactor == 5
    # the cost of 5 is not computed; phi(5) = 4 alone is 2 over budget
    assert decision.deficit == 2


def test_membership_factors_only_up_to_2g_plus_1():
    decision = membership(2**3 * 7 * 11**2 * 13, 5)
    assert [(t.prime, t.exponent) for t in decision.report.terms] == [(2, 3), (7, 1), (11, 2)]
    assert decision.report.cofactor == 13
    assert not decision.member
    # within budget on the terms found, but 13 > 11 still decides it
    decision = membership(2 * 13, 5)
    assert decision.report.total == 0
    assert not decision.member
    assert decision.deficit == 2  # a lower bound: the true cost 12 is over by 2


def test_deficit_is_a_positive_lower_bound():
    # against the complete cost table, which membership(m, m) computes
    for g in range(1, 9):
        for m in range(2, 2001):
            decision = membership(m, g)
            over = membership(m, m).report.total - 2 * g
            if decision.member:
                assert decision.deficit == 0
            else:
                assert 1 <= decision.deficit <= over, (m, g)
                if decision.report.cofactor == 1:
                    assert decision.deficit == over


def test_adversarial_orders_decide_fast():
    start = time.perf_counter()
    assert not is_member(1000000016000000063, 1)
    assert not is_member(10**4000 + 1, 3)
    assert is_member(6, 10**12)
    assert time.perf_counter() - start < 0.1


def test_identity_order_rejected():
    with pytest.raises(ValueError, match="identity"):
        membership(1, 3)
    with pytest.raises(ValueError, match="identity"):
        membership(1, 10**12)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        membership(0, 1)
    with pytest.raises(ValueError):
        membership(6, 0)


def test_enumerate_small_genera():
    assert enumerate_orders(1) == [2, 3, 4, 6]
    assert enumerate_orders(2) == [2, 3, 4, 5, 6, 8, 10, 12]
    assert enumerate_orders(3) == [
        2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 24, 30,
    ]


def test_enumeration_cap():
    # the library sets no genus cap: one past the CLI's enumeration cap it
    # enumerates all of S(41); it refuses only a genus below 1
    assert len(enumerate_orders(41)) == count_orders(41) == 13804
    with pytest.raises(ValueError):
        enumerate_orders(0)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_enumerate_matches_brute_scan(g):
    # every order is bounded by 3 e^{3g}, so a full scan is an exact oracle
    ceiling = math.ceil(3 * math.exp(3 * g))
    scanned = [m for m in range(2, ceiling + 1) if is_member(m, g)]
    assert enumerate_orders(g) == scanned


@pytest.mark.parametrize("g", [1, 2, 3, 5, 8])
def test_enumerate_is_sorted_and_member(g):
    orders = enumerate_orders(g)
    assert orders == sorted(set(orders))
    assert all(is_member(m, g) for m in orders)


@given(
    st.integers(min_value=1, max_value=10**4).filter(lambda m: m % 2 == 1),
    st.integers(min_value=1, max_value=30),
)
def test_free_doubling(m, g):
    # doubling an odd order is free: 2m == 2 (mod 4) waives the new term
    if m == 1:
        return
    assert cost_report(2 * m).total == cost_report(m).total
    if is_member(m, g):
        assert is_member(2 * m, g)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_support_bound(g):
    for m in enumerate_orders(g):
        fact = sympy.factorint(m)
        assert all(p <= 2 * g + 1 for p in fact)
        assert len(fact) <= g + 1


def test_membership_monotone_in_genus():
    for g in range(1, 12):
        smaller = set(enumerate_orders(g))
        larger = set(enumerate_orders(g + 1))
        assert smaller <= larger


def test_orders_are_the_lcms_of_cyclotomic_degree_sets():
    # necessity: an element of order m is semisimple, its characteristic
    # polynomial is a product of cyclotomic Phi_e of total degree 2g, and m
    # is the lcm of the e >= 2 that occur; -1 has even multiplicity, so
    # e = 2 costs 2, and 1 pads the rest in pairs. T(g) is the set of those
    # lcms: the lcms of the sets E of e >= 2 with sum of costs <= 2g.
    # phi(e) >= sqrt(e / 2), so every e with phi(e) <= 2g is at most 8g^2.
    top = 15
    costs = {e: 2 if e == 2 else int(sympy.totient(e)) for e in range(2, 8 * top**2 + 1)}
    for g in range(1, top + 1):
        budget = 2 * g
        cheapest = {1: 0}  # lcm(E) -> the least cost of such a set E
        for e, cost in costs.items():
            if cost > budget:
                continue
            for lcm, spent in list(cheapest.items()):
                key, total = math.lcm(lcm, e), spent + cost
                if total <= budget and total < cheapest.get(key, total + 1):
                    cheapest[key] = total
        assert sorted(cheapest.keys() - {1}) == enumerate_orders(g)


def test_least_cyclotomic_degree_of_each_order_is_its_cost():
    # the same argument one order at a time: the least total degree of a
    # set of divisors e >= 2 of m with lcm m (e = 2 costing 2) is the cost
    # of m, floored at 2 for m = 2, at any g whose factoring reaches m
    top = 10**4
    costs = {e: 2 if e == 2 else int(sympy.totient(e)) for e in range(2, top + 1)}
    for m in range(2, top + 1):
        least = {1: 0}  # lcm of a set of divisors -> its least total degree
        for e in sympy.divisors(m)[1:]:
            for lcm, spent in list(least.items()):
                key, total = math.lcm(lcm, e), spent + costs[e]
                if total < least.get(key, total + 1):
                    least[key] = total
        assert least[m] == max(membership(m, m // 2).report.total, 2), m


def test_support_primes():
    assert support_primes(1) == (2, 3)
    assert support_primes(3) == (2, 3, 5, 7)
    assert support_primes(5) == (2, 3, 5, 7, 11)


@pytest.mark.parametrize("budget", [0, 1, 2, 10, 400, 10**4])
def test_prime_power_options_against_sympy(budget):
    for p in sympy.primerange(2, 201):
        options = _prime_power_options(p, budget)
        n = len(options)
        assert [value for _, value in options] == [p**a for a in range(1, n + 1)]
        # c(2) = 0; every other prime power costs its totient
        expected = [0 if (p, a) == (2, 1) else sympy.totient(p**a) for a in range(1, n + 2)]
        assert [cost for cost, _ in options] == expected[:n]
        assert all(cost <= budget for cost in expected[:n])
        assert expected[n] > budget  # the list stops at the first over budget
