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
primes can appear. The second one is also how membership factors m: by
trial division up to 2g+1 alone, where any cofactor left over decides
"not a member", so no order, however large, costs more than that loop.

Why the budget is necessary: an element A of finite order m has a
minimal polynomial dividing x^m - 1, which has distinct roots, so A is
semisimple; its characteristic polynomial, of degree 2g, is a product of
cyclotomic Phi_e with e | m, and m is the lcm of the e that occur. The
eigenvalues 1 and -1 of a symplectic matrix have even multiplicity, so
Phi_2 costs 2 and Phi_1 pads in pairs. Hence m is the lcm of a set E of
e >= 2 with sum of phi(e) (2 for e = 2) at most 2g; the cheapest such E
spends cost(m), or 2 for m = 2, which every genus affords. The witnesses
of `sptorsion.witness` realize every such m: the budget is sufficient.

m = 1 is rejected with an error rather than classified: the order set is
defined over nonidentity elements only.

All functions are pure; enumeration builds a fresh list per call.
"""

from __future__ import annotations

from typing import NamedTuple

from .numtheory import Factorization, factor, sieve

__all__ = [
    "CostTerm",
    "DegreeCostReport",
    "MembershipDecision",
    "NotRealizableError",
    "prime_power_cost",
    "is_member",
    "membership",
    "decide",
    "support_primes",
    "enumerate_orders",
]

class CostTerm(NamedTuple):
    prime: int
    exponent: int
    cost: int


class DegreeCostReport(NamedTuple):
    """Per-prime-power totient costs of m and their total.

    The terms cover the primes <= 2g+1; cofactor is the part of m left
    over, 1 exactly when m has no larger prime. exemption_applied is True
    exactly when m == 2 (mod 4); the prime-2 term then carries exponent 1
    and cost 0.
    """

    m: int
    terms: tuple[CostTerm, ...]
    total: int
    exemption_applied: bool
    cofactor: int


class MembershipDecision(NamedTuple):
    """Outcome of the budget test cost(m) <= 2g, with the cost table.

    A cofactor > 1 means a prime above 2g+1, whose totient alone exceeds
    the budget: m is then not a member whatever the other terms cost.
    """

    m: int
    g: int
    member: bool
    report: DegreeCostReport

    @property
    def budget(self) -> int:
        return 2 * self.g

    @property
    def deficit(self) -> int:
        """How far over budget the cost is (0 when member).

        With a cofactor > 1 the cost of its primes is not computed and this
        is a lower bound: each such prime p is odd and > 2g+1, so its
        phi(p) >= 2g+2 alone puts the cost at >= total + 2g + 2.
        """
        if self.report.cofactor > 1:
            return self.report.total + 2
        return max(0, self.report.total - self.budget)


class NotRealizableError(ValueError):
    """Raised when m is not in S(g); carries the membership decision.

    The message names the prime bound when m has a prime above 2g + 1,
    and the cost overrun otherwise.
    """

    def __init__(self, decision: MembershipDecision):
        self.decision = decision
        g = decision.g
        if decision.report.cofactor > 1:
            reason = (
                f"no element of Sp({2 * g},Z) has order {decision.m}: it has a "
                f"prime factor above 2g + 1 = {2 * g + 1}"
            )
        else:
            reason = (
                f"no element of order {decision.m} exists for genus {g}: "
                f"cost {decision.report.total} exceeds budget {decision.budget} "
                f"by {decision.deficit}"
            )
        super().__init__(reason)


def prime_power_cost(p: int, alpha: int) -> int:
    """Additive cost of the prime power p^alpha.

    c(2) = 0; c(2^a) = 2^(a-1) for a >= 2; c(p^a) = phi(p^a) =
    p^(alpha-1) (p-1) for odd p. Raises ValueError unless p is prime and
    alpha >= 1.
    """
    if alpha < 1:
        raise ValueError(f"exponent must be >= 1, got {alpha}")
    if p < 2 or factor(p, p - 1)[1] != p:  # p has no divisor below itself
        raise ValueError(f"{p} is not prime")
    return _cost(p, alpha)


def _cost(p: int, alpha: int) -> int:
    """prime_power_cost without the argument check, for primes that come
    from a sieve (the DPs) or from factor (membership)."""
    return 0 if p == 2 and alpha == 1 else p ** (alpha - 1) * (p - 1)


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


def membership(m: int, g: int) -> MembershipDecision:
    """Decide m in S(g), returning the decision with its cost report.

    m is factored only by trial division up to 2g+1, so the work is
    bounded by the genus whatever the size of m.
    """
    _require_genus(g)
    _require_order(m)
    return decide(m, g, *factor(m, 2 * g + 1))


def decide(m: int, g: int, fact: Factorization, cofactor: int) -> MembershipDecision:
    """The budget test of membership, on what factor(m, 2g + 1) returns
    for m >= 2 and g >= 1: the prime powers of m up to 2g + 1 and the
    cofactor left over."""
    terms = tuple(CostTerm(p, a, _cost(p, a)) for p, a in fact)
    total = sum(t.cost for t in terms)
    report = DegreeCostReport(m, terms, total, m % 4 == 2, cofactor)
    return MembershipDecision(m, g, cofactor == 1 and total <= 2 * g, report)


def is_member(m: int, g: int) -> bool:
    """True iff some element of Sp(2g,Z) has order exactly m."""
    return membership(m, g).member


def support_primes(g: int) -> tuple[int, ...]:
    """The primes any member of S(g) can be built from: all p <= 2g+1."""
    _require_genus(g)
    return sieve(2 * g + 1)


def _prime_power_options(p: int, budget: int) -> list[tuple[int, int]]:
    """(cost, p^alpha) choices for one prime, alpha >= 1, cost <= budget,
    ascending; each priced by the prime_power_cost formula."""
    options: list[tuple[int, int]] = []
    alpha, value = 1, p
    while (cost := _cost(p, alpha)) <= budget:
        options.append((cost, value))
        alpha += 1
        value *= p
    return options


def enumerate_orders(g: int) -> list[int]:
    """All of S(g), ascending, each order exactly once.

    Depth-first search over exponent vectors: one cost/value choice per
    prime <= 2g+1 (including "absent"), keeping the running cost within
    the budget 2g, then a final sort. Takes any genus g >= 1; S(g) grows
    at least exponentially in g, and the CLI caps the genus it passes.
    """
    _require_genus(g)
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
