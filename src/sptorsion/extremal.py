"""Exact f(g) = |S(g)| and h(g) = max S(g) by budgeted dynamic programming.

Both DPs run at the top genus G of a genus range and walk the primes
p <= 2G+1 once, treating each prime as a group of mutually exclusive
exponent choices priced by the additive cost of `criterion` (for p = 2 the
exponents 0 and 1 are both free; everything else costs its totient).

  * The count DP convolves per-prime choice counts over the budget axis
    0..2G; cell b holds the number of exponent vectors of cost exactly b.
    f(g) is the sum of cells 0..2g minus 1 for the empty (m = 1) vector.
  * The max DP runs a group knapsack over the odd primes, storing in each
    budget cell the exact best product as a Python integer, then grafts
    the 2-part on afterwards: the free factor 2 on the odd optimum versus
    2^a at cost 2^(a-1) for a >= 2. Distinct exponent vectors give
    distinct integers, so cells never tie; equal values across budgets
    resolve to the smaller budget because cells mean "best at cost <= b".

A cell at budget b only involves primes with p - 1 <= b, and every prime
factor of a member of S(g) is at most 2g+1. So one pass of each DP at G
serves every g <= G: the range functions and extremal_table read each
genus off the same two arrays, and the one-genus functions are the range
of length one.

Exact integers in every cell keep the results platform-independent; there
is no floating comparison anywhere. brute_force_extremal re-derives both
values from the full enumeration and exists purely as an oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .criterion import GenusCapError, _require_genus, enumerate_orders
from .numtheory import Factorization, sieve

__all__ = [
    "ExtremalRecord",
    "DEFAULT_GENUS_CAP",
    "DEFAULT_ORACLE_CAP",
    "count_orders",
    "count_orders_range",
    "max_order",
    "max_order_value_range",
    "max_order_value",
    "brute_force_extremal",
    "extremal_table",
]

# Above this genus the exact DP wants an explicit opt-in: big-integer cells
# make memory grow roughly quadratically in g.
DEFAULT_GENUS_CAP = 5000

# brute_force_extremal materializes all of S(g); keep it an oracle.
DEFAULT_ORACLE_CAP = 30


@dataclass(frozen=True)
class ExtremalRecord:
    """(g, f(g), h(g)) with the factorization of h(g). Values are exact."""

    g: int
    f: int
    h: int
    h_factorization: Factorization


def _check_genus_cap(g: int, genus_cap: int | None) -> None:
    _require_genus(g)
    if genus_cap is not None and g > genus_cap:
        raise GenusCapError(
            f"genus {g} exceeds the exact-DP cap {genus_cap}; "
            "pass a larger cap (or none) to override"
        )


def _check_range(g_from: int, g_to: int, genus_cap: int | None) -> None:
    _require_genus(g_from)
    if g_to < g_from:
        raise ValueError(f"invalid genus range {g_from}..{g_to}")
    _check_genus_cap(g_to, genus_cap)


def _order_counts(budget: int, primes: tuple[int, ...]) -> list[int]:
    """counts[b] = number of exponent vectors of total cost exactly b."""
    counts = [0] * (budget + 1)
    counts[0] = 1
    for p in primes:
        if p == 2:
            options = [(0, 2)]  # exponents 0 and 1 both cost nothing
            cost = 2
            while cost <= budget:
                options.append((cost, 1))
                cost *= 2
        else:
            options = [(0, 1)]
            cost = p - 1
            while cost <= budget:
                options.append((cost, 1))
                cost *= p
        new = [0] * (budget + 1)
        for b in range(budget + 1):
            acc = 0
            for cost, mult in options:
                if cost > b:
                    break
                acc += counts[b - cost] * mult
            new[b] = acc
        counts = new
    return counts


def _best_odd_products(budget: int, primes: tuple[int, ...]) -> list[int]:
    """best[b] = largest product of odd prime powers of total cost <= b."""
    best = [1] * (budget + 1)
    for p in primes:
        if p == 2:
            continue
        options = []
        cost, value = p - 1, p
        while cost <= budget:
            options.append((cost, value))
            cost *= p
            value *= p
        new = best[:]  # exponent 0
        for b in range(options[0][0], budget + 1):
            cur = new[b]
            for cost, value in options:
                if cost > b:
                    break
                cand = best[b - cost] * value
                if cand > cur:
                    cur = cand
            new[b] = cur
        best = new
    return best


def _graft_two(best: list[int], budget: int) -> int:
    """h at `budget`: the free single factor 2 on the odd optimum, against
    2^a at cost 2^(a-1) for a >= 2."""
    h = 2 * best[budget]
    cost, value = 2, 4
    while cost <= budget:
        cand = value * best[budget - cost]
        if cand > h:
            h = cand
        cost *= 2
        value *= 2
    return h


def _f_values(g_from: int, g_to: int, primes: tuple[int, ...]) -> list[int]:
    prefix = list(accumulate(_order_counts(2 * g_to, primes)))
    # drop the all-zero vector (m = 1)
    return [prefix[2 * g] - 1 for g in range(g_from, g_to + 1)]


def _h_values(g_from: int, g_to: int, primes: tuple[int, ...]) -> list[int]:
    best = _best_odd_products(2 * g_to, primes)
    return [_graft_two(best, 2 * g) for g in range(g_from, g_to + 1)]


def count_orders_range(
    g_from: int, g_to: int, genus_cap: int | None = DEFAULT_GENUS_CAP
) -> list[int]:
    """f(g) for every g in [g_from, g_to], from one count DP at budget 2*g_to."""
    _check_range(g_from, g_to, genus_cap)
    return _f_values(g_from, g_to, sieve(2 * g_to + 1).primes)


def max_order_value_range(
    g_from: int, g_to: int, genus_cap: int | None = DEFAULT_GENUS_CAP
) -> list[int]:
    """h(g) for every g in [g_from, g_to], from one knapsack at budget 2*g_to."""
    _check_range(g_from, g_to, genus_cap)
    return _h_values(g_from, g_to, sieve(2 * g_to + 1).primes)


def count_orders(g: int, genus_cap: int | None = DEFAULT_GENUS_CAP) -> int:
    """|S(g)|, exactly."""
    return count_orders_range(g, g, genus_cap)[0]


def max_order_value(g: int, genus_cap: int | None = DEFAULT_GENUS_CAP) -> int:
    """h(g) alone, skipping the count."""
    return max_order_value_range(g, g, genus_cap)[0]


def max_order(g: int, genus_cap: int | None = DEFAULT_GENUS_CAP) -> ExtremalRecord:
    """The exact maximum h(g) of S(g), with |S(g)| and h's factorization."""
    return extremal_table(g, g, genus_cap)[0]


def _factor_smooth(m: int, primes: tuple[int, ...]) -> Factorization:
    """Factor an integer all of whose prime factors lie in `primes`."""
    entries = []
    rem = m
    for p in primes:
        if rem % p == 0:
            a = 0
            while rem % p == 0:
                rem //= p
                a += 1
            entries.append((p, a))
    if rem != 1:
        raise AssertionError(f"{m} is not smooth over the support primes")
    return Factorization(tuple(entries))


def brute_force_extremal(g: int, cap: int = DEFAULT_ORACLE_CAP) -> ExtremalRecord:
    """f and h from the full enumeration. Oracle for the DPs; g <= cap."""
    if g > cap:
        raise GenusCapError(
            f"brute-force oracle refuses genus {g} > cap {cap}; "
            "it exists to cross-check small cases"
        )
    orders = enumerate_orders(g, cap=cap)
    h = orders[-1]
    return ExtremalRecord(g, len(orders), h, _factor_smooth(h, sieve(2 * g + 1).primes))


def extremal_table(
    g_from: int, g_to: int, genus_cap: int | None = DEFAULT_GENUS_CAP
) -> list[ExtremalRecord]:
    """Records for every g in [g_from, g_to], read off one count DP and one
    knapsack at budget 2*g_to; each h(g) is factored over the primes <= 2g+1."""
    _check_range(g_from, g_to, genus_cap)
    primes = sieve(2 * g_to + 1).primes
    fs = _f_values(g_from, g_to, primes)
    hs = _h_values(g_from, g_to, primes)
    records = []
    for g, f, h in zip(range(g_from, g_to + 1), fs, hs):
        support = primes[: bisect_right(primes, 2 * g + 1)]
        records.append(ExtremalRecord(g, f, h, _factor_smooth(h, support)))
    return records
