"""Counting and maximum DPs cross-validated against enumeration."""
from __future__ import annotations

import math
import random
import time

import pytest

from sptorsion import extremal
from sptorsion.criterion import is_member, membership
from sptorsion.extremal import (
    _best_products,
    brute_force_extremal,
    count_orders,
    count_orders_range,
    extremal_table,
    max_order,
    max_order_value,
    max_order_value_range,
)
from sptorsion.numtheory import sieve

# frozen from the brute-force enumeration oracle (g = 1..12)
KNOWN_F = [4, 8, 16, 23, 34, 47, 61, 81, 107, 137, 179, 222]
KNOWN_H = [6, 12, 30, 60, 120, 210, 420, 840, 1260, 2520, 2520, 5040]


@pytest.mark.parametrize("g", range(1, 9))
def test_dp_matches_oracle(g):
    record = max_order(g)
    reference = brute_force_extremal(g)
    assert record.f == reference.f
    assert record.h == reference.h
    assert count_orders(g) == reference.f
    assert max_order_value(g) == reference.h


def test_known_values():
    for g, (f, h) in enumerate(zip(KNOWN_F, KNOWN_H), start=1):
        record = max_order(g)
        assert record.f == f
        assert record.h == h


def test_record_reconstructs_maximum():
    for g in (1, 2, 3, 7, 20, 100):
        record = max_order(g)
        assert math.prod(p**a for p, a in record.h_factorization) == record.h
        assert record.h % 2 == 0
        assert membership(record.h, g).member


def test_maximum_is_member_and_maximal():
    for g in (1, 2, 3, 4, 6, 10):
        h = max_order_value(g)
        assert is_member(h, g)
        # sample the window above h: everything there must cost too much
        for m in range(h + 1, 2 * h + 1, max(1, h // 7)):
            assert not is_member(m, g)
            # the full cost: at genus m no prime of m is above 2g + 1
            assert membership(m, m).total > 2 * g


def test_monotone_and_even():
    previous_f, previous_h = 0, 0
    for g in range(1, 61):
        record = max_order(g)
        assert record.f >= previous_f
        assert record.h >= previous_h
        assert record.h % 2 == 0
        previous_f, previous_h = record.f, record.h


def test_brute_force_cap():
    # the oracle sets no genus cap: one past the CLI's enumeration cap it
    # still agrees with the DPs; it refuses only a genus below 1
    assert brute_force_extremal(41) == max_order(41)
    with pytest.raises(ValueError):
        brute_force_extremal(0)


def test_extremal_table():
    records = extremal_table(1, 6)
    assert [r.g for r in records] == [1, 2, 3, 4, 5, 6]
    assert [r.f for r in records] == KNOWN_F[:6]
    assert [r.h for r in records] == KNOWN_H[:6]
    with pytest.raises(ValueError):
        extremal_table(3, 2)


def test_extremal_table_read_off_is_window_independent():
    # one DP pass at the top genus serves every g; where the window starts
    # must not change any row
    full = extremal_table(1, 60)
    for g_from, g_to in [(1, 1), (7, 7), (5, 30), (29, 31), (41, 60)]:
        assert extremal_table(g_from, g_to) == full[g_from - 1 : g_to]
    assert [max_order(g) for g in range(50, 61)] == full[49:60]


def test_extremal_table_matches_oracle():
    table = extremal_table(1, 40)  # every genus that `extremal --oracle` admits
    for record in table:
        reference = brute_force_extremal(record.g)
        assert (record.f, record.h) == (reference.f, reference.h)
        assert record.h_factorization == reference.h_factorization


def test_range_values_match_single_genus():
    assert count_orders_range(1, 12) == KNOWN_F
    assert max_order_value_range(1, 12) == KNOWN_H
    assert count_orders_range(95, 100) == [count_orders(g) for g in range(95, 101)]
    assert max_order_value_range(95, 100) == [max_order_value(g) for g in range(95, 101)]


def test_range_values_validate():
    with pytest.raises(ValueError):
        count_orders_range(3, 2)
    with pytest.raises(ValueError):
        max_order_value_range(0, 2)


@pytest.fixture(scope="module")
def unpruned():
    """best[b] for every b <= 6000, from the knapsack with no cell pruned
    (floor 0): h(g) = best[2g] for every g <= 3000. A cell b involves
    only primes p <= b + 1, so the same cells of a knapsack at any budget
    >= b agree with these."""
    return _best_products(6000, sieve(6001))


def test_pruned_knapsack_matches_unpruned_on_small_windows(unpruned):
    # every cell from the floor up is exact, odd budgets included
    for b in range(1, 401):
        for a in sorted({1, b // 2, b - 5, b}):
            if a >= 1:
                pruned = _best_products(2 * b, sieve(2 * b + 1), 2 * a)
                assert pruned[2 * a :] == unpruned[2 * a : 2 * b + 1], (a, b)


def test_pruned_knapsack_matches_unpruned_on_seeded_windows(unpruned):
    rng = random.Random(26)
    for _ in range(40):
        b = rng.randint(400, 3000)
        a = rng.choice([b, rng.randint(b - 20, b), rng.randint(b - 300, b)])
        assert max_order_value_range(a, b) == unpruned[2 * a : 2 * b + 1 : 2], (a, b)


def test_one_genus_at_the_cap_is_fast():
    # the unpruned knapsack at budget 10000 takes about 1 s
    start = time.process_time()
    h = max_order_value_range(5000, 5000)[0]
    assert time.process_time() - start < 0.5
    assert membership(h, 5000).member


@pytest.mark.parametrize("count, maximum", [(True, False), (False, True), (False, False)])
def test_extremal_table_runs_only_the_asked_dps(count, maximum, monkeypatch):
    def refuse(*args):
        raise AssertionError("a DP that was not asked for ran")

    full = extremal_table(1, 12)
    if not count:
        monkeypatch.setattr(extremal, "count_orders_range", refuse)
    if not maximum:
        monkeypatch.setattr(extremal, "max_order_value_range", refuse)
    records = extremal_table(1, 12, count, maximum)
    assert [r.g for r in records] == list(range(1, 13))
    assert [r.f for r in records] == (KNOWN_F if count else [None] * 12)
    assert [r.h for r in records] == (KNOWN_H if maximum else [None] * 12)
    expected = [r.h_factorization for r in full] if maximum else [None] * 12
    assert [r.h_factorization for r in records] == expected
