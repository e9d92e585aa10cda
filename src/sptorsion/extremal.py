"""Exact f(g) = |S(g)| and h(g) = max S(g) by budgeted dynamic programming.

Both DPs run at the top genus G of a genus range and walk the primes
p <= 2G+1 once, treating every prime, 2 included, as one group of mutually
exclusive exponent choices: exponent 0 at no cost, or one of the
(cost, p^a) options of `criterion._prime_power_options`, priced by
`criterion.prime_power_cost` (for p = 2 the options are 2 at cost 0, then
2^a at cost 2^(a-1)).

  * The count DP convolves the groups over the budget axis 0..2G with one
    shifted slice add per option; cell b holds the number of exponent
    vectors of cost exactly b. f(g) is the sum of cells 0..2g minus 1 for
    the empty (m = 1) vector.
  * The max DP is a group knapsack over the same groups, storing in each
    budget cell the exact best product as a Python integer, so
    h(g) = best[2g]. Distinct exponent vectors give distinct integers, so
    cells never tie; equal values across budgets resolve to the smaller
    budget because cells mean "best at cost <= b".

A cell at budget b only involves primes with p - 1 <= b, and every prime
factor of a member of S(g) is at most 2g+1. So one pass of each DP at G
serves every g <= G: each range function reads every genus off its one
array, extremal_table reads the two range functions, and the one-genus
functions are the range of length one.

Exact integers in every cell keep the results platform-independent; there
is no floating comparison anywhere. One pass updates up to 2G + 1 cells
for every prime power of cost at most 2G, so its time grows roughly
quadratically in G, while each array holds only 2G + 1 integers: time,
not memory, limits G. brute_force_extremal re-derives both values from
the full enumeration of S(g), which grows at least exponentially, and
exists purely as an oracle. Every function here takes any genus range and checks
only its shape; the CLI caps the genus it passes them.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import NamedTuple

from .criterion import _prime_power_options, _require_genus, enumerate_orders
from .numtheory import Factorization, factor, sieve

__all__ = [
    "ExtremalRecord",
    "count_orders",
    "count_orders_range",
    "max_order",
    "max_order_value_range",
    "max_order_value",
    "brute_force_extremal",
    "extremal_table",
]

class ExtremalRecord(NamedTuple):
    """(g, f(g), h(g)) with the factorization of h(g). Values are exact."""

    g: int
    f: int
    h: int
    h_factorization: Factorization


def _check_range(g_from: int, g_to: int) -> None:
    _require_genus(g_from)
    if g_to < g_from:
        raise ValueError(f"invalid genus range {g_from}..{g_to}")


def _order_counts(budget: int, primes: tuple[int, ...]) -> list[int]:
    """counts[b] = number of exponent vectors of total cost exactly b."""
    counts = [0] * (budget + 1)
    counts[0] = 1
    for p in primes:
        new = counts[:]  # exponent 0
        for cost, _ in _prime_power_options(p, budget):
            new[cost:] = map(add, new[cost:], counts[: budget + 1 - cost])
        counts = new
    return counts


def _best_products(budget: int, primes: tuple[int, ...]) -> list[int]:
    """best[b] = largest product of prime powers of total cost <= b."""
    best = [1] * (budget + 1)
    for p in primes:
        new = best[:]  # exponent 0
        for cost, value in _prime_power_options(p, budget):
            for b in range(cost, budget + 1):
                cand = best[b - cost] * value
                if cand > new[b]:
                    new[b] = cand
        best = new
    return best


def count_orders_range(g_from: int, g_to: int) -> list[int]:
    """f(g) for every g in [g_from, g_to], from one count DP at budget 2*g_to."""
    _check_range(g_from, g_to)
    prefix = list(accumulate(_order_counts(2 * g_to, sieve(2 * g_to + 1))))
    # drop the all-zero vector (m = 1)
    return [prefix[2 * g] - 1 for g in range(g_from, g_to + 1)]


def max_order_value_range(g_from: int, g_to: int) -> list[int]:
    """h(g) for every g in [g_from, g_to], from one knapsack at budget 2*g_to."""
    _check_range(g_from, g_to)
    best = _best_products(2 * g_to, sieve(2 * g_to + 1))
    return [best[2 * g] for g in range(g_from, g_to + 1)]


def count_orders(g: int) -> int:
    """|S(g)|, exactly."""
    return count_orders_range(g, g)[0]


def max_order_value(g: int) -> int:
    """h(g) alone, skipping the count."""
    return max_order_value_range(g, g)[0]


def max_order(g: int) -> ExtremalRecord:
    """The exact maximum h(g) of S(g), with |S(g)| and h's factorization."""
    return extremal_table(g, g)[0]


def brute_force_extremal(g: int) -> ExtremalRecord:
    """f and h from the full enumeration of S(g); an oracle for the DPs."""
    orders = enumerate_orders(g)
    h = orders[-1]
    return ExtremalRecord(g, len(orders), h, factor(h, 2 * g + 1)[0])


def extremal_table(g_from: int, g_to: int) -> list[ExtremalRecord]:
    """Records for every g in [g_from, g_to], read off one count DP and one
    knapsack at budget 2*g_to; each new h(g) is factored up to 2g+1."""
    fs = count_orders_range(g_from, g_to)
    hs = max_order_value_range(g_from, g_to)
    records: list[ExtremalRecord] = []
    for g, f, h in zip(range(g_from, g_to + 1), fs, hs):
        # h is nondecreasing and often repeats (at 37% of the g <= 5000)
        if records and records[-1].h == h:
            fact = records[-1].h_factorization
        else:
            fact = factor(h, 2 * g + 1)[0]
        records.append(ExtremalRecord(g, f, h, fact))
    return records
