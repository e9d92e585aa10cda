"""The rational pipeline that the bound sweeps' integer paths are tested
against.

Each right side is evaluated as an `mpf` inside `mp.workdps(50)`,
converted to an exact `Fraction`, tilted by the guard with `Fraction`
arithmetic and compared on `Fraction`s; values are rendered through a
`Fraction * 10**12` test and an `mpf` quotient at 25 digits. This is how
the sweeps decided and printed every row before they worked on the
mantissa and exponent directly, and the genus checks' and lemma 3.4's
right sides are the expressions they evaluated before every real moved
to raw-mpf calls.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from sptorsion.bounds import EULER_GAMMA_20, GUARD

# op -> (comparison, guard factor tilting the right side against a pass)
COMPARISONS = {
    "<=": (operator.le, 1 - GUARD),
    "<": (operator.lt, 1 - GUARD),
    ">": (operator.gt, 1 + GUARD),
    ">=": (operator.ge, 1 + GUARD),
}


def mpf_to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError(f"cannot convert nonfinite value {x!r}")
    value = Fraction(-man if sign else man)
    return value * Fraction(2) ** exp


def guarded_pass(lhs: int | Fraction, rhs: Fraction, op: str) -> bool:
    """Exact comparison against the adversarially tilted right side."""
    if rhs <= 0:
        raise AssertionError("right sides here are positive by construction")
    compare, guard = COMPARISONS[op]
    return compare(lhs, rhs * guard)


class EagerReport(NamedTuple):
    """A row with every field built: the record the sweeps yielded before
    rows kept their integers."""

    name: str
    point: int
    lhs: int | Fraction
    rhs: int | Fraction
    margin: int | Fraction
    passed: bool | None
    note: str = ""


def dyadic(man: int, exp: int, lhs: int | Fraction) -> tuple[Fraction, Fraction]:
    """rhs = man * 2^exp and rhs - lhs as exact Fractions, built from
    their integer numerators and denominators."""
    num, den = lhs.numerator, lhs.denominator
    if exp >= 0:
        man <<= exp
        return Fraction(man), Fraction(man * den - num, den)
    return Fraction(man, 1 << -exp), Fraction(man * den - (num << -exp), den << -exp)


def real_row(
    name: str, point: int, lhs: int | Fraction, rhs: tuple, op: str, note: str = ""
) -> EagerReport:
    """A row against the raw mpf right side rhs, decided on Fractions."""
    sign, man, exp, _ = rhs
    if sign or not man:
        raise AssertionError("right sides here are positive and finite by construction")
    rhs_value, margin = dyadic(man, exp, lhs)
    return EagerReport(name, point, lhs, rhs_value, margin, guarded_pass(lhs, rhs_value, op), note)


def exact_row(
    name: str, point: int, lhs: int | Fraction, rhs: int | Fraction, op: str, note: str = ""
) -> EagerReport:
    compare, _ = COMPARISONS[op]
    return EagerReport(name, point, lhs, rhs, rhs - lhs, compare(lhs, rhs), note)


def render_value(value: int | Fraction) -> str:
    if isinstance(value, int):
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    scaled = value * 10**12
    if scaled.denominator == 1 and abs(value) < 10**40:
        digits = f"{abs(scaled.numerator):013d}"
        whole, frac = digits[:-12], digits[-12:].rstrip("0")
        sign = "-" if value < 0 else ""
        return f"{sign}{whole}.{frac}"
    with mp.workdps(25):
        approx = mpf(value.numerator) / mpf(value.denominator)
        return mp.nstr(approx, 20)


def rosser_rhs(x: int) -> mpf:
    with mp.workdps(50):
        return mpf(x) / (mp.log(x) + 2)


def dusart_pi_rhs(x: int) -> tuple[mpf, mpf]:
    """(upper, lower) right sides of the two pi(x) estimates."""
    with mp.workdps(50):
        dusart_const = mpf("1.2762")
        log_x = mp.log(x)
        upper = (x / log_x) * (1 + dusart_const / log_x)
        lower = (x / log_x) * (1 + 1 / log_x)
    return upper, lower


def dusart_product_rhs(x: int) -> mpf:
    with mp.workdps(50):
        exp_neg_gamma = mp.e ** -mpf(EULER_GAMMA_20)
        fifth = mpf("0.2")
        log_x = mp.log(x)
        return (exp_neg_gamma / log_x) * (1 - fifth / log_x**2)


def product_passes(num: int, den: int, rhs: mpf) -> bool:
    """num/den > rhs (1 + GUARD) by full cross-multiplication."""
    guarded = mpf_to_fraction(rhs) * (1 + GUARD)
    return num * guarded.denominator > guarded.numerator * den


def exp_neg_gamma() -> mpf:
    with mp.workdps(50):
        return mp.e ** -mpf(EULER_GAMMA_20)


def thm31_rhs(g: int) -> mpf:
    with mp.workdps(50):
        return 3 * mp.e ** (3 * g)


def remark_upper_rhs(g: int) -> mpf:
    with mp.workdps(50):
        gamma = mpf(EULER_GAMMA_20)
        return 2 * mp.e**gamma * mp.log(2 * g + 1) * mp.e ** (mpf(2 * g + 1) / mp.e)


def quarter_sqrt_bound(g: int) -> mpf:
    with mp.workdps(50):
        return mp.e ** (mp.sqrt(mpf(g) / mp.log(g)) / 4)


def improved_bound(g: int) -> mpf:
    with mp.workdps(50):
        return mp.e ** mp.sqrt(mpf(g) / (4 * mp.log(g)))


def lemma34_rhs(g: int) -> tuple[mpf, mpf, mpf]:
    """The main right side and the c = 3/2 and c = 1.2762 steps."""
    with mp.workdps(50):
        glg = mpf(g) * mp.log(g)
        y = mp.sqrt(glg)
        main_rhs = 3 * y / mp.log(glg)
        log_y = mp.log(y)
        rhs_15 = (y / log_y) * (1 + mpf(3) / (2 * log_y))
        rhs_dusart = (y / log_y) * (1 + mpf("1.2762") / log_y)
    return main_rhs, rhs_15, rhs_dusart
