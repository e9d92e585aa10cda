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
    budget because cells mean "best at cost <= b". A range g_from..G
    needs only the cells that can lie on the path of some h(g) with
    g >= g_from, and the knapsack skips the others (see _best_products):
    a superchampion bound, as in Deléglise, Nicolas and Zimmermann's
    computation of Landau's function, prices every cell in floats, which
    only prune.

A cell at budget b only involves primes with p - 1 <= b, and every prime
factor of a member of S(g) is at most 2g+1. So one pass of each DP at G
serves every g <= G: each range function reads every genus off its one
array, extremal_table reads the two range functions, and the one-genus
functions are the range of length one.

Exact integers in every cell keep the results platform-independent; a
float only decides which knapsack cells are skipped, never a value. One
pass updates up to 2G + 1 cells for every prime power of cost at most 2G,
so the count DP's time, and the knapsack's over a range from g = 1, grows
roughly quadratically in G, while each array holds only 2G + 1 integers:
time, not memory, limits G. The knapsack for a short range near G keeps
a band of cells around h's path: h(5000) alone takes some 0.05 s, against
1 s for 1..5000. brute_force_extremal re-derives both values from
the full enumeration of S(g), which grows at least exponentially, and
exists purely as an oracle. Every function here takes any genus range and checks
only its shape; the CLI caps the genus it passes them.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add
from typing import NamedTuple

from .criterion import _prime_power_options, _require_genus, enumerate_orders
from .numtheory import factor, sieve

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
    """(g, f(g), h(g)) with the (prime, exponent) pairs of h(g). Values are
    exact; a column that extremal_table was not asked for is None."""

    g: int
    f: int | None
    h: int | None
    h_factorization: tuple[tuple[int, int], ...] | None


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


def _prune_bars(
    budget: int, groups: list[tuple[int, list[tuple[int, int]]]], floor: int
) -> tuple[float, list[float]]:
    """(rho, bars) such that, with the first k primes of `groups` in, cell
    b of the knapsack at `budget` is dead when log best[b] - rho b < bars[k].

    The steps p^(a-1) -> p^a, sorted by efficiency log p over their cost
    and kept while they fit in `floor`, multiply to N0, a member at budget
    floor: every maximum read is at least N0. rho is the efficiency of the
    first step left out. For any rho >= 0, each exponent a of p has
    a log p <= rho c(p^a) + gain_p, where gain_p = max(0, max_a(a log p -
    rho c(p^a))); so a product of cost <= C over the primes from the k-th
    on has log <= rho C + R_k, R_k their gains' sum. Cell b is live when
    log best[b] + rho (budget - b) + R_k >= log N0, less 1e-6, far above
    the error of the floats, and dead otherwise; floor 0 kills no cell.
    """
    # each prime's steps by falling efficiency (the free step 2^1 first);
    # a prime's own steps fall, and the stable sort keeps their order
    steps = []
    for p, options in groups:
        costs = [0] + [cost for cost, _ in options]
        steps += [(p, b - a) for a, b in zip(costs, costs[1:])]
    steps.sort(key=lambda step: step[1] / math.log(step[0]))
    log_n0, rho, spent = 0.0, 0.0, 0
    for p, delta in steps:
        if spent + delta > floor:
            rho = math.log(p) / delta
            break
        spent += delta
        log_n0 += math.log(p)
    gains = [
        max([0.0] + [a * math.log(p) - rho * cost for a, (cost, _) in enumerate(options, 1)])
        for p, options in groups
    ]
    least = log_n0 - 1e-6 - rho * budget if floor else -math.inf
    rest = accumulate(reversed(gains), initial=0.0)  # R_k, from the last prime down
    return rho, [least - r for r in rest][::-1]


def _live_hull(best: list[int], lo: int, hi: int, rho: float, bar: float) -> tuple[int, int]:
    """[lo, hi] less the dead cells at its ends: those with
    log best[b] - rho b < bar."""
    while lo < hi and math.log(best[lo]) - rho * lo < bar:
        lo += 1
    while hi > lo and math.log(best[hi]) - rho * hi < bar:
        hi -= 1
    return lo, hi


def _best_products(budget: int, primes: tuple[int, ...], floor: int = 0) -> list[int]:
    """best[b] = largest product of prime powers of total cost <= b, exact
    at every b in floor..budget (and wherever that maximum passes); floor
    0 keeps every cell exact.

    Cells that no such maximum can pass through are skipped: before each
    prime, a dead cell (see _prune_bars) is dropped. Why that is exact:
    the maximum at a budget B >= floor is P * Q, with P over the primes
    before the k-th and Q, of cost q, over the rest; P is then the best at
    cell B - q (anything larger there, times Q, would beat the maximum),
    and log N0 <= log P + rho q + R_k: the maximum's path is live at every
    prime. A cell fed by a dead cell, through an option of value v and
    cost c or through exponent 0, is dead at the next prime, since
    log v - rho c <= gain_p; so a live cell's best source is live. Each
    prime reads only the hull [lo, hi] of sources, with dead cells
    dropped from both ends, and hi grows to the last cell an option
    writes; a live cell is therefore computed from its best source,
    exactly. A cell outside the hull keeps some product of cost <= b, at
    most its best, and no live cell reads it."""
    groups = [(p, _prime_power_options(p, budget)) for p in primes]
    rho, bars = _prune_bars(budget, groups, floor)
    best = [1] * (budget + 1)
    lo, hi = _live_hull(best, 0, budget, rho, bars[0])
    for (_, options), bar in zip(groups, bars[1:]):
        sources = best[lo : hi + 1]  # exponent 0 keeps each cell
        reach = hi
        for cost, value in options:
            shift = lo + cost
            if shift > budget:
                break
            reach = min(hi + cost, budget)
            for b, source in enumerate(sources[: reach + 1 - shift], shift):
                cand = source * value
                if cand > best[b]:
                    best[b] = cand
        lo, hi = _live_hull(best, lo, reach, rho, bar)
    return best


def count_orders_range(g_from: int, g_to: int) -> list[int]:
    """f(g) for every g in [g_from, g_to], from one count DP at budget 2*g_to."""
    _check_range(g_from, g_to)
    prefix = list(accumulate(_order_counts(2 * g_to, sieve(2 * g_to + 1))))
    # drop the all-zero vector (m = 1)
    return [prefix[2 * g] - 1 for g in range(g_from, g_to + 1)]


def max_order_value_range(g_from: int, g_to: int) -> list[int]:
    """h(g) for every g in [g_from, g_to], from one knapsack at budget
    2*g_to, pruned to the cells that can hold h(g) for some g >= g_from."""
    _check_range(g_from, g_to)
    best = _best_products(2 * g_to, sieve(2 * g_to + 1), 2 * g_from)
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


def extremal_table(
    g_from: int, g_to: int, count: bool = True, maximum: bool = True
) -> list[ExtremalRecord]:
    """Records for every g in [g_from, g_to], read off one count DP and one
    knapsack at budget 2*g_to; each new h(g) is factored up to 2g+1.
    Without `count` the count DP is not run and every f is None; without
    `maximum` the knapsack is not run and every h and h_factorization is
    None."""
    _check_range(g_from, g_to)
    missing = [None] * (g_to - g_from + 1)
    fs = count_orders_range(g_from, g_to) if count else missing
    hs = max_order_value_range(g_from, g_to) if maximum else missing
    records: list[ExtremalRecord] = []
    for g, f, h in zip(range(g_from, g_to + 1), fs, hs):
        # h is nondecreasing and often repeats (at 37% of the g <= 5000)
        if records and records[-1].h == h:
            fact = records[-1].h_factorization
        else:
            fact = None if h is None else factor(h, 2 * g + 1)[0]
        records.append(ExtremalRecord(g, f, h, fact))
    return records
