"""Desk-scale certification of the growth and prime-distribution bounds.

Every checker yields BoundReport rows with an exact left side (integer
or exact rational, never rounded) and a guarded real right side. Every
real a row depends on is evaluated by mpmath.libmp's raw-mpf functions
at 169 bits (50 digits): no row enters a precision context or reads
mpmath's global precision. Each right side calls the functions that
mpf arithmetic on its written expression inside mp.workdps(50) calls,
in the same order, so its bits are that expression's. A right side is
the exact dyadic rational man * 2^exp, and it is tilted adversarially
by a relative guard of 1e-9 in one integer comparison: an upper bound
must clear rhs*(1-1e-9), a lower bound rhs*(1+1e-9), and
lhs < rhs*(1-1e-9) is decided as lhs * 10^9 * 2^-exp < man * (10^9 - 1).
A reported pass therefore certifies the inequality with slack that
dwarfs both the evaluation error (~1e-49) and the decimal-constant
error, and a run is reproducible bit for bit.

Rows whose point sits below an inequality's stated validity threshold
get passed=None ("precondition unmet") rather than a failure; the
thresholds K, L, and the improved-lower-bound cutoff are computed by a
search, never hard-coded:

  K = least integer >= 3 with K*log(K) >= 529    (= 23^2)
  L = least integer >= 2 with L*log(L) >= 3025   (= 55^2)
  improved cutoff = least g with g*log(g) >= 358801  (= 599^2)

These, and x = floor(sqrt(g log g)) in lemmas 3.4 and 3.5, come from one
guarded comparison of n log n, at 169 bits, with an integer: it decides
only when they differ by more than 2^-161 n log n, and otherwise raises
ArithmeticError (exit 3 in the CLI). n log n is never an integer for
n >= 2 (n^n = e^k contradicts Lindemann-Weierstrass): more bits decide.

Every check is declared once, in the CHECK_NAMES table: its sweep, the
kind of its points (genus, x or n), and its default range. run_check
refuses an empty range or one that starts below 1; a range of any size
is otherwise swept, and the CLI caps it, by point kind, before calling
run_check.

Every verdict is an exact integer comparison; no float ever decides one.
The one display-only compromise: the Mertens-type product check keeps
the running product as a raw numerator/denominator pair (tens of
thousands of digits at the top of the sweep), decides against a 256-bit
bracket of it (exact cross-multiplication when the bracket cannot
decide), and renders the left side at float precision because printing
the exact rational would be useless.

margin is rhs - lhs on the raw (unguarded) right side, so for upper
bounds pass tracks margin >= 0 and for lower bounds margin <= 0. The
rhs and margin fields are exact Fractions built from the mantissa and
exponent; rendering reads a dyadic value's numerator and power-of-two
denominator without rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_int,
    from_man_exp,
    from_str,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_int,
    to_str,
)

from .criterion import membership
from .extremal import count_orders_range, max_order_value_range
from .numtheory import primorial, sieve

__all__ = [
    "BoundReport",
    "GUARD",
    "EULER_GAMMA_20",
    "compute_K",
    "compute_L",
    "improved_lower_threshold",
    "check_thm31",
    "check_cor32",
    "check_remark_upper",
    "check_thm36",
    "check_cor37",
    "check_remark_lower",
    "check_lemma33",
    "check_lemma34",
    "check_lemma35",
    "check_dusart_sum",
    "check_dusart_pi",
    "check_dusart_product",
    "check_rosser",
    "Check",
    "CHECK_NAMES",
    "run_check",
    "default_range",
    "render_value",
    "report_to_dict",
    "REPORT_FIELDS",
]

# Relative guard applied to every real right-hand side.
GUARD = Fraction(1, 10**9)

# Euler-Mascheroni constant, correctly rounded to 20 decimal digits.
EULER_GAMMA_20 = "0.57721566490153286061"

_PREC = dps_to_prec(50)  # working precision of every real, in bits (169)
_RND = round_nearest  # mpmath's default rounding

# n log n is compared with an integer only when they differ by more than
# 2^(_SLACK - _PREC) n log n; its log and product are each off by an ulp or so
_SLACK = 8

# each right side's docstring is the mpf expression whose bits it computes
_E = mpf_e(_PREC, _RND)
_GAMMA = from_str(EULER_GAMMA_20, _PREC, _RND)
_TWO_E_GAMMA = mpf_mul_int(mpf_pow(_E, _GAMMA, _PREC, _RND), 2, _PREC, _RND)  # 2 * e^gamma
_EXP_NEG_GAMMA = mpf_pow(_E, mpf_neg(_GAMMA, _PREC, _RND), _PREC, _RND)  # e^-gamma
_DUSART_PI_CONST = from_str("1.2762", _PREC, _RND)
_FIFTH = from_str("0.2", _PREC, _RND)


class BoundReport(NamedTuple):
    """One inequality instance: exact lhs vs guarded rhs at one point.

    passed is None when the point is below the inequality's validity
    threshold. margin = rhs - lhs on the unguarded right side.
    """

    name: str
    point: int
    lhs: int | Fraction
    rhs: int | Fraction
    margin: int | Fraction
    passed: bool | None
    note: str = ""


# op -> (comparison, the right side's factor GUARD.denominator * (1 -+ GUARD),
# tilting it against a pass)
_GUARDED = {
    "<=": (operator.le, GUARD.denominator - GUARD.numerator),
    "<": (operator.lt, GUARD.denominator - GUARD.numerator),
    ">": (operator.gt, GUARD.denominator + GUARD.numerator),
    ">=": (operator.ge, GUARD.denominator + GUARD.numerator),
}


def _guarded_verdict(num: int, den: int, man: int, exp: int, op: str) -> bool:
    """num/den op man * 2^exp * (1 -+ GUARD), in one integer comparison.

    Both sides are multiplied by den * GUARD.denominator * 2^-exp (all
    positive), so the verdict is the rational one, exactly.
    """
    compare, tilt = _GUARDED[op]
    left = num * GUARD.denominator
    right = den * man * tilt
    if exp < 0:
        return compare(left << -exp, right)
    return compare(left, right << exp)


def _dyadic(man: int, exp: int, lhs: int | Fraction) -> tuple[Fraction, Fraction]:
    """rhs = man * 2^exp and rhs - lhs as exact Fractions, built from
    their integer numerators and denominators."""
    num, den = lhs.numerator, lhs.denominator
    if exp >= 0:
        man <<= exp
        return Fraction(man), Fraction(man * den - num, den)
    return Fraction(man, 1 << -exp), Fraction(man * den - (num << -exp), den << -exp)


def _real_row(
    name: str, point: int, lhs: int | Fraction, rhs: tuple, op: str, note: str = ""
) -> BoundReport:
    """A row against the raw mpf right side rhs, decided by its guard."""
    sign, man, exp, _ = rhs
    if sign or not man:
        raise AssertionError("right sides here are positive and finite by construction")
    passed = _guarded_verdict(lhs.numerator, lhs.denominator, man, exp, op)
    return BoundReport(name, point, lhs, *_dyadic(man, exp, lhs), passed, note)


def _exact_row(
    name: str, point: int, lhs: int | Fraction, rhs: int | Fraction, op: str, note: str = ""
) -> BoundReport:
    compare, _ = _GUARDED[op]
    return BoundReport(name, point, lhs, rhs, rhs - lhs, compare(lhs, rhs), note)


def _unmet_row(name: str, point: int, threshold_desc: str) -> BoundReport:
    return BoundReport(
        name, point, 0, 0, 0, None, f"precondition unmet: requires {threshold_desc}"
    )


# ---------------------------------------------------------------------------
# computed thresholds


def _log(x: int) -> tuple:
    return mpf_log(from_int(x), _PREC, _RND)


def _n_log_n(n: int) -> tuple:
    """mpf(n) * log(n)"""
    return mpf_mul(from_int(n), _log(n), _PREC, _RND)


def _n_log_n_exceeds(n: int, target: int) -> bool:
    """n log n > target, for n >= 1; ArithmeticError when the two are too
    close to tell apart at _PREC bits (never equal unless n log n = 0)."""
    _, man, exp, _ = _n_log_n(n)
    man, scaled = (man, target << -exp) if exp < 0 else (man << exp, target)
    gap = man - scaled
    if abs(gap) << _PREC <= man << _SLACK:
        raise ArithmeticError(f"{n} log {n} is too close to {target} to decide at {_PREC} bits")
    return gap > 0


def _floor_sqrt_g_log_g(g: int) -> int:
    """floor(sqrt(g log g)) for g >= 2: x with x^2 < g log g < (x + 1)^2."""
    x = math.isqrt(to_int(_n_log_n(g)))
    if not _n_log_n_exceeds(g, x * x) or _n_log_n_exceeds(g, (x + 1) ** 2):
        raise ArithmeticError(f"floor(sqrt({g} log {g})) is not {x}")
    return x


@lru_cache(maxsize=None)
def _least_n_log_n(target: int) -> int:
    """Least integer n with n log n >= target > 0, by doubling plus
    bisection (n log n increases, and 1 log 1 = 0 misses any target)."""
    lo, hi = 1, 2
    while not _n_log_n_exceeds(hi, target):
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _n_log_n_exceeds(mid, target):
            hi = mid
        else:
            lo = mid
    return hi


def compute_K() -> int:
    """Least integer K with sqrt(K log K) >= 23."""
    return _least_n_log_n(23**2)


def compute_L() -> int:
    """Least integer L with sqrt(L log L) >= 55."""
    return _least_n_log_n(55**2)


def improved_lower_threshold() -> int:
    """Least integer g with g log g >= 599^2."""
    return _least_n_log_n(599**2)


# ---------------------------------------------------------------------------
# prime lookups over a sweep


class _PrimeView:
    """Sieve-backed pi(x), sum of primes <= x, and n-th prime queries."""

    def __init__(self, limit: int):
        self.primes = sieve(max(limit, 2))
        self._cum = tuple(itertools.accumulate(self.primes))

    def pi(self, x: int | float) -> int:
        return bisect_right(self.primes, x)

    def sum_upto(self, x: int | float) -> int:
        n = self.pi(x)
        return self._cum[n - 1] if n else 0

    def nth(self, n: int) -> int:
        return self.primes[n - 1]

    def sum_first(self, n: int) -> int:
        return self._cum[n - 1]


# ---------------------------------------------------------------------------
# genus sweeps


def _dp_rows(
    g_from: int,
    g_to: int,
    dps: dict[str, Callable[[int, int], list[int]]],
    op: str,
    rhs: Callable[[int], tuple],
    level: int = 1,
    requires: str = "g >= 1",
) -> Iterator[BoundReport]:
    """For every g in [g_from, g_to], a row per name in `dps`: that range
    DP's value at g against the raw mpf right side rhs(g), evaluated once
    per genus.

    Below `level` (the check's validity threshold) each name gets an
    unmet row stating what it `requires`, and no DP runs; from
    max(g_from, level) on, each DP runs once over that whole stretch.
    """
    first = max(g_from, level)
    for g in range(g_from, min(first, g_to + 1)):
        for name in dps:
            yield _unmet_row(name, g, requires)
    if first > g_to:
        return
    columns = [dp(first, g_to) for dp in dps.values()]
    for g, values in zip(range(first, g_to + 1), zip(*columns)):
        bound = rhs(g)
        for name, value in zip(dps, values):
            yield _real_row(name, g, value, bound, op)


# ---------------------------------------------------------------------------
# growth bounds (upper)


def _thm31_rhs(g: int) -> tuple:
    """3 * e^(3g)"""
    return mpf_mul_int(mpf_pow_int(_E, 3 * g, _PREC, _RND), 3, _PREC, _RND)


def check_thm31(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """h(g) <= 3 e^{3g}, exact h from the DP."""
    dps = {"thm31": max_order_value_range}
    return _dp_rows(g_from, g_to, dps, "<=", _thm31_rhs)


def check_cor32(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """f(g) <= h(g), both exact."""
    fs = count_orders_range(g_from, g_to)
    hs = max_order_value_range(g_from, g_to)
    for g, f, h in zip(range(g_from, g_to + 1), fs, hs):
        yield _exact_row("cor32", g, f, h, "<=")


def _remark_upper_rhs(g: int) -> tuple:
    """2 * e^gamma * log(2g + 1) * e^(mpf(2g + 1) / e)"""
    power = mpf_pow(_E, mpf_div(from_int(2 * g + 1), _E, _PREC, _RND), _PREC, _RND)
    return mpf_mul(mpf_mul(_TWO_E_GAMMA, _log(2 * g + 1), _PREC, _RND), power, _PREC, _RND)


REMARK_UPPER_START = 1486  # stated validity threshold of the refined bound


def check_remark_upper(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """h(g) <= 2 e^gamma log(2g+1) e^{(2g+1)/e} for g >= 1486."""
    dps = {"remark-upper": max_order_value_range}
    level = REMARK_UPPER_START
    return _dp_rows(g_from, g_to, dps, "<=", _remark_upper_rhs, level, f"g >= {level}")


# ---------------------------------------------------------------------------
# growth bounds (lower)


def _quarter_sqrt_bound(g: int) -> tuple:
    """e^(sqrt(mpf(g) / log(g)) / 4)"""
    root = mpf_sqrt(mpf_div(from_int(g), _log(g), _PREC, _RND), _PREC, _RND)
    return mpf_pow(_E, mpf_div(root, from_int(4), _PREC, _RND), _PREC, _RND)


def _improved_bound(g: int) -> tuple:
    """e^sqrt(mpf(g) / (4 * log(g)))"""
    quotient = mpf_div(from_int(g), mpf_mul_int(_log(g), 4, _PREC, _RND), _PREC, _RND)
    return mpf_pow(_E, mpf_sqrt(quotient, _PREC, _RND), _PREC, _RND)


def check_thm36(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """f(g) > e^{(1/4) sqrt(g/log g)} for g >= L."""
    level = compute_L()
    dps = {"thm36": count_orders_range}
    return _dp_rows(g_from, g_to, dps, ">", _quarter_sqrt_bound, level, f"g >= L = {level}")


def check_cor37(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """h(g) > e^{(1/4) sqrt(g/log g)} for g >= L."""
    level = compute_L()
    dps = {"cor37": max_order_value_range}
    return _dp_rows(g_from, g_to, dps, ">", _quarter_sqrt_bound, level, f"g >= L = {level}")


def check_remark_lower(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """f(g) and h(g) > e^{sqrt(g/(4 log g))} once g log g >= 599^2."""
    cutoff = improved_lower_threshold()
    dps = {"remark-lower-f": count_orders_range, "remark-lower-h": max_order_value_range}
    requires = f"g log g >= 599^2 (g >= {cutoff})"
    return _dp_rows(g_from, g_to, dps, ">", _improved_bound, cutoff, requires)


# ---------------------------------------------------------------------------
# lemmas


def check_lemma33(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """Sum of primes <= x is < x pi(x) / 2 for x >= 23; exact halves."""
    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        if x < 23:
            yield _unmet_row("lemma33", x, "x >= 23")
            continue
        yield _exact_row(
            "lemma33", x, view.sum_upto(x), Fraction(x * view.pi(x), 2), "<"
        )


def _lemma34_rhs(g: int) -> tuple[tuple, tuple, tuple]:
    """With glg = mpf(g) * log(g) and y = sqrt(glg): 3 * y / log(glg),
    (y / log(y)) * (1 + mpf(3) / (2 * log(y))) and
    (y / log(y)) * (1 + mpf("1.2762") / log(y))"""
    glg = _n_log_n(g)
    y = mpf_sqrt(glg, _PREC, _RND)
    main = mpf_div(mpf_mul_int(y, 3, _PREC, _RND), mpf_log(glg, _PREC, _RND), _PREC, _RND)
    log_y = mpf_log(y, _PREC, _RND)
    ratio = mpf_div(y, log_y, _PREC, _RND)
    half = mpf_div(from_int(3), mpf_mul_int(log_y, 2, _PREC, _RND), _PREC, _RND)
    step_15 = mpf_mul(ratio, mpf_add(half, fone, _PREC, _RND), _PREC, _RND)
    step_dusart = mpf_add(mpf_div(_DUSART_PI_CONST, log_y, _PREC, _RND), fone, _PREC, _RND)
    return main, step_15, mpf_mul(ratio, step_dusart, _PREC, _RND)


def check_lemma34(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """pi(sqrt(g log g)) < 3 sqrt(g log g) / log(g log g) for g >= K.

    The chain behind it uses pi(y) < (y/log y)(1 + c/log y); both the
    c = 3/2 step quoted in the argument and the sharper c = 1.2762
    estimate it leans on are recorded as separate rows.
    """
    level = compute_K()
    view = _PrimeView(_floor_sqrt_g_log_g(max(g_to, 2)))
    for g in range(g_from, g_to + 1):
        if g < level:
            yield _unmet_row("lemma34", g, f"g >= K = {level}")
            continue
        lhs = view.pi(_floor_sqrt_g_log_g(g))
        main_rhs, rhs_15, rhs_dusart = _lemma34_rhs(g)
        yield _real_row("lemma34", g, lhs, main_rhs, "<")
        yield _real_row("lemma34-step-1.5", g, lhs, rhs_15, "<")
        yield _real_row("lemma34-step-1.2762", g, lhs, rhs_dusart, "<=")


def check_lemma35(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """The primorial of primes <= sqrt(g log g) is a member of S(g).

    Two rows per genus: the membership budget test itself (cost vs 2g)
    and the intermediate bound beta < (3/2) g on the odd-prime cost.
    """
    level = compute_K()
    for g in range(g_from, g_to + 1):
        if g < level:
            yield _unmet_row("lemma35", g, f"g >= K = {level}")
            continue
        decision = membership(primorial(_floor_sqrt_g_log_g(g)), g)
        report = decision.report
        beta = sum(t.cost for t in report.terms if t.prime != 2)
        yield BoundReport(
            "lemma35",
            g,
            report.total,
            decision.budget,
            decision.budget - report.total,
            decision.member,
        )
        yield _exact_row("lemma35-beta", g, beta, Fraction(3 * g, 2), "<")


# ---------------------------------------------------------------------------
# prime estimates


def check_dusart_sum(n_from: int, n_to: int) -> Iterator[BoundReport]:
    """Sum of the first n primes < n p_n / 2 for n >= 9; exact halves."""
    # p_n < n (log n + log log n) for n >= 6 sizes the sieve
    limit = max(100, int(n_to * (math.log(n_to) + math.log(math.log(n_to)))) + 10) if n_to >= 6 else 100
    view = _PrimeView(limit)
    if len(view.primes) < n_to:
        raise AssertionError(f"sieve limit {limit} too small for n = {n_to}")
    for n in range(n_from, n_to + 1):
        if n < 9:
            yield _unmet_row("dusart-sum", n, "n >= 9")
            continue
        yield _exact_row(
            "dusart-sum", n, view.sum_first(n), Fraction(n * view.nth(n), 2), "<"
        )


def _rosser_rhs(x: int) -> tuple:
    """mpf(x) / (log(x) + 2)"""
    return mpf_div(from_int(x), mpf_add(_log(x), from_int(2), _PREC, _RND), _PREC, _RND)


def _dusart_pi_rhs(x: int) -> tuple[tuple, tuple]:
    """(x/log x)(1 + 1.2762/log x) and (x/log x)(1 + 1/log x)"""
    log_x = _log(x)
    main = mpf_rdiv_int(x, log_x, _PREC, _RND)
    upper = mpf_add(mpf_div(_DUSART_PI_CONST, log_x, _PREC, _RND), fone, _PREC, _RND)
    lower = mpf_add(mpf_rdiv_int(1, log_x, _PREC, _RND), fone, _PREC, _RND)
    return mpf_mul(main, upper, _PREC, _RND), mpf_mul(main, lower, _PREC, _RND)


def _dusart_product_rhs(x: int) -> tuple:
    """(e^-gamma / log x)(1 - 0.2/log^2 x)"""
    log_x = _log(x)
    log_sq = mpf_pow_int(log_x, 2, _PREC, _RND)
    tilt = mpf_sub(fone, mpf_div(_FIFTH, log_sq, _PREC, _RND), _PREC, _RND)
    return mpf_mul(mpf_div(_EXP_NEG_GAMMA, log_x, _PREC, _RND), tilt, _PREC, _RND)


def check_dusart_pi(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """pi(x) <= (x/log x)(1 + 1.2762/log x) for x >= 2,
    and pi(x) >= (x/log x)(1 + 1/log x) for x >= 599."""
    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        lhs = view.pi(x)
        if x < 2:
            yield _unmet_row("dusart-pi-upper", x, "x >= 2")
            yield _unmet_row("dusart-pi-lower", x, "x >= 599")
            continue
        upper, lower = _dusart_pi_rhs(x)
        yield _real_row("dusart-pi-upper", x, lhs, upper, "<=")
        if x < 599:
            yield _unmet_row("dusart-pi-lower", x, "x >= 599")
        else:
            yield _real_row("dusart-pi-lower", x, lhs, lower, ">=")


# bits of the bracket q / 2^B <= prod < (q + 1) / 2^B on the running product
_BRACKET_BITS = 256


def _product_exceeds(num: int, den: int, man: int, exp: int) -> bool:
    """num/den > man * 2^exp * (1 + GUARD) by full cross-multiplication."""
    return _guarded_verdict(num, den, man, exp, ">")


def check_dusart_product(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """prod_{p <= x} (1 - 1/p) > (e^-gamma / log x)(1 - 0.2/log^2 x)
    for x >= 2973; the product side is an exact rational.

    The verdict is exact. Each time a prime enters, the running product
    num/den is bracketed as q / 2^256 <= num/den < (q + 1) / 2^256; a row
    whose guarded right side lies outside the bracket is decided by two
    integer comparisons on q, and only a right side inside it falls back
    to cross-multiplying the full numerator/denominator pair. The
    displayed lhs and margin are float approximations of the exact
    rational (noted on each row).
    """
    view = _PrimeView(x_to)
    num, den = 1, 1
    prod_float = 1.0
    next_prime_idx = 0
    primes = view.primes
    scale = 1 << _BRACKET_BITS
    bracket = None
    note = "lhs and margin displayed at float precision; verdict exact"
    for x in range(x_from, x_to + 1):
        while next_prime_idx < len(primes) and primes[next_prime_idx] <= x:
            p = primes[next_prime_idx]
            num *= p - 1
            den *= p
            prod_float *= 1 - 1 / p
            next_prime_idx += 1
            bracket = None
        if x < 2973:
            yield _unmet_row("dusart-product", x, "x >= 2973")
            continue
        if bracket is None:
            bracket = (num * scale) // den
            lhs_display = Fraction(prod_float)
        _, man, exp, _ = _dusart_product_rhs(x)
        if _guarded_verdict(bracket, scale, man, exp, ">"):
            passed = True
        elif not _guarded_verdict(bracket + 1, scale, man, exp, ">"):
            passed = False
        else:
            passed = _product_exceeds(num, den, man, exp)
        yield BoundReport(
            "dusart-product", x, lhs_display, *_dyadic(man, exp, lhs_display), passed, note
        )


def check_rosser(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """pi(x) > x / (log x + 2) for x >= 55."""
    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        if x < 55:
            yield _unmet_row("rosser", x, "x >= 55")
            continue
        yield _real_row("rosser", x, view.pi(x), _rosser_rhs(x), ">")


# ---------------------------------------------------------------------------
# named dispatch (shared by the CLI and scripts)

class Check(NamedTuple):
    """A named check: its sweep over an inclusive range, the kind of its
    points ("genus", "x" or "n"), which sets its cap in the CLI, and its
    default range (None when a range is required; a callable computes it on
    first use)."""

    sweep: Callable[[int, int], Iterator[BoundReport]]
    points: str
    default: tuple[int, int] | Callable[[], tuple[int, int]] | None


def _above(level: Callable[[], int], width: int) -> Callable[[], tuple[int, int]]:
    return lambda: (level(), level() + width)


CHECK_NAMES: dict[str, Check] = {
    "thm31": Check(check_thm31, "genus", (1, 300)),
    "cor32": Check(check_cor32, "genus", (1, 300)),
    "remark-upper": Check(check_remark_upper, "genus", (REMARK_UPPER_START, 1500)),
    "thm36": Check(check_thm36, "genus", _above(compute_L, 100)),
    "cor37": Check(check_cor37, "genus", _above(compute_L, 100)),
    # any in-precondition genus is a deliberate large run
    "remark-lower": Check(check_remark_lower, "genus", None),
    "lemma33": Check(check_lemma33, "x", (23, 10**5)),
    "lemma34": Check(check_lemma34, "genus", _above(compute_K, 500)),
    "lemma35": Check(check_lemma35, "genus", _above(compute_K, 500)),
    "dusart-sum": Check(check_dusart_sum, "n", (9, 10**4)),
    "dusart-pi": Check(check_dusart_pi, "x", (2, 10**5)),
    "dusart-product": Check(check_dusart_product, "x", (2973, 10**5)),
    "rosser": Check(check_rosser, "x", (55, 10**5)),
}


def default_range(name: str) -> tuple[int, int] | None:
    """Stated sweep range for a check; None means a range is required."""
    default = CHECK_NAMES[name].default
    return default() if callable(default) else default


def run_check(name: str, lo: int, hi: int) -> Iterator[BoundReport]:
    """Dispatch one named check over an inclusive range.

    A range that is empty or starts below 1 raises ValueError at once,
    before any DP, sieve or primorial is built; any other range is swept
    lazily, row by row, whatever its size.
    """
    try:
        check = CHECK_NAMES[name]
    except KeyError:
        raise KeyError(
            f"unknown check {name!r}; valid names: {', '.join(sorted(CHECK_NAMES))}"
        ) from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid {check.points} range {lo}..{hi}")
    return check.sweep(lo, hi)


# ---------------------------------------------------------------------------
# rendering

REPORT_FIELDS = ("name", "point", "lhs", "rhs", "margin", "pass", "note")


# a long value is printed at 20 significant digits from the quotient of
# its numerator and denominator, each rounded to 25 digits (86 bits)
# first, as mpf(num) / mpf(den) at 25 dps computes it
_RENDER_PREC = dps_to_prec(25)


def render_value(value: int | Fraction) -> str:
    """Deterministic decimal rendering; exact when short, else 20
    significant digits."""
    if isinstance(value, int):
        return str(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    if 10**12 % den == 0 and abs(num) < 10**40 * den:
        digits = f"{abs(num) * (10**12 // den):013d}"
        whole, frac = digits[:-12], digits[-12:].rstrip("0")
        sign = "-" if num < 0 else ""
        return f"{sign}{whole}.{frac}"
    if den & (den - 1) == 0:
        # den = 2^k: the division below gives these bits, but normalising
        # 2^k and rounding twice costs about 3 us more per value
        approx = from_man_exp(num, 1 - den.bit_length(), _RENDER_PREC, _RND)
    else:
        approx = mpf_div(
            from_int(num, _RENDER_PREC, _RND), from_int(den, _RENDER_PREC, _RND), _RENDER_PREC, _RND
        )
    return to_str(approx, 20)


def report_to_dict(report: BoundReport) -> dict[str, object]:
    """JSON-ready mapping; numeric values as decimal strings."""
    return {
        "name": report.name,
        "point": str(report.point),
        "lhs": render_value(report.lhs),
        "rhs": render_value(report.rhs),
        "margin": render_value(report.margin),
        "pass": report.passed,
        "note": report.note,
    }
