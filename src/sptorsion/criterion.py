"""Membership of a finite order in Sp(2g,Z), and enumeration of all of them.

An integer m = p1^a1 ... pk^ak (>= 2) occurs as the order of a nonidentity
element of Sp(2g,Z) exactly when its totient degree cost fits the budget 2g:

    cost(m) = sum of phi(pi^ai), except that the prime-2 term is waived
              (cost 0) when m == 2 (mod 4), i.e. when 2 divides m exactly once.

Equivalently the cost is additive over prime powers with

    c(2) = 0,   c(2^a) = 2^(a-1) for a >= 2,   c(p^a) = phi(p^a) for odd p,

so S(g) = { m >= 2 : cost(m) <= 2g }. Two consequences shape everything
downstream: doubling an odd member is free (m odd and admissible implies
2m admissible at the same cost), and every prime factor of a member is
<= 2g+1 (else its phi already exceeds the budget), so at most g+1 distinct
primes can appear.

m = 1 is rejected with an error rather than classified: the order set is
defined over nonidentity elements only.

All functions are pure; enumeration builds a fresh list per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numtheory import Factorization, factor, sieve, totient_prime_power

__all__ = [
    "CostTerm",
    "DegreeCostReport",
    "MembershipDecision",
    "GenusCapError",
    "DEFAULT_ENUMERATION_CAP",
    "prime_power_cost",
    "degree_cost",
    "is_member",
    "membership",
    "support_primes",
    "enumerate_orders",
]

# Enumeration refuses above this genus unless told otherwise: the order set
# grows at least exponentially, and materializing it should stay a
# deliberate act.
DEFAULT_ENUMERATION_CAP = 40


class GenusCapError(ValueError):
    """A genus exceeded a configured materialization/oracle cap."""


@dataclass(frozen=True)
class CostTerm:
    prime: int
    exponent: int
    cost: int


@dataclass(frozen=True)
class DegreeCostReport:
    """Per-prime-power totient costs of m and their total.

    exemption_applied is True exactly when m == 2 (mod 4); the prime-2
    term then carries exponent 1 and cost 0.
    """

    m: int
    terms: tuple[CostTerm, ...]
    total: int
    exemption_applied: bool


@dataclass(frozen=True)
class MembershipDecision:
    """Outcome of the budget test cost(m) <= 2g, with the full cost table."""

    m: int
    g: int
    member: bool
    report: DegreeCostReport

    @property
    def budget(self) -> int:
        return 2 * self.g

    @property
    def deficit(self) -> int:
        """How far over budget the cost is (0 when member)."""
        return max(0, self.report.total - self.budget)


def prime_power_cost(p: int, alpha: int) -> int:
    """Additive cost of the prime power p^alpha.

    c(2) = 0; c(2^a) = 2^(a-1) for a >= 2; c(p^a) = phi(p^a) for odd p.
    """
    if p == 2:
        return 0 if alpha == 1 else 2 ** (alpha - 1)
    return totient_prime_power(p, alpha)


def _require_order(m: int) -> None:
    if m == 1:
        raise ValueError(
            "m = 1 is the identity's order and is excluded by convention; "
            "orders start at 2"
        )
    if m < 2:
        raise ValueError(f"order must be an integer >= 2, got {m}")


def _require_genus(g: int) -> None:
    if g < 1:
        raise ValueError(f"genus must be an integer >= 1, got {g}")


def degree_cost(m: int, factorization: Factorization | None = None) -> DegreeCostReport:
    """Cost table for m >= 2. Optionally reuse a known factorization."""
    _require_order(m)
    fact = factor(m) if factorization is None else factorization
    exemption = m % 4 == 2
    terms = tuple(CostTerm(p, a, prime_power_cost(p, a)) for p, a in fact)
    total = sum(t.cost for t in terms)
    return DegreeCostReport(m, terms, total, exemption)


def membership(m: int, g: int) -> MembershipDecision:
    """Decide m in S(g), returning the decision with its cost report."""
    _require_genus(g)
    report = degree_cost(m)
    return MembershipDecision(m, g, report.total <= 2 * g, report)


def is_member(m: int, g: int) -> bool:
    """True iff some element of Sp(2g,Z) has order exactly m."""
    return membership(m, g).member


def support_primes(g: int) -> tuple[int, ...]:
    """The primes any member of S(g) can be built from: all p <= 2g+1."""
    _require_genus(g)
    return sieve(2 * g + 1).primes


def _prime_power_options(p: int, budget: int) -> list[tuple[int, int]]:
    """(cost, p^alpha) choices for one prime, alpha >= 1, cost <= budget,
    ascending; each priced by prime_power_cost."""
    options: list[tuple[int, int]] = []
    alpha, value = 1, p
    while (cost := prime_power_cost(p, alpha)) <= budget:
        options.append((cost, value))
        alpha += 1
        value *= p
    return options


def enumerate_orders(g: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
    """All of S(g), ascending, each order exactly once.

    Depth-first search over exponent vectors: one cost/value choice per
    prime <= 2g+1 (including "absent"), keeping the running cost within
    the budget 2g, then a final sort. Refuses g > cap (default 40) with
    GenusCapError; pass a larger cap explicitly to go further.
    """
    _require_genus(g)
    if g > cap:
        raise GenusCapError(
            f"enumerating S({g}) would materialize an at-least-exponentially "
            f"large set; the cap is {cap} (raise `cap` to proceed)"
        )
    budget = 2 * g
    per_prime = [_prime_power_options(p, budget) for p in support_primes(g)]

    found: list[int] = []

    def descend(i: int, value: int, remaining: int) -> None:
        if i == len(per_prime):
            if value >= 2:
                found.append(value)
            return
        descend(i + 1, value, remaining)  # prime absent
        for cost, pv in per_prime[i]:
            if cost > remaining:
                break
            descend(i + 1, value * pv, remaining - cost)

    descend(0, 1, budget)
    found.sort()
    return found
