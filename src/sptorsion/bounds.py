"""Desk-scale certification of the growth and prime-distribution bounds.

Every checker yields BoundReport rows with an exact left side (integer
or exact rational, never rounded) and a guarded real right side. Every
real a row depends on is evaluated in `sptorsion.reals`, the raw-mpf
layer, at 169 bits (50 digits), with the bits of its written mpf
expression inside mp.workdps(50). A check imports that layer when it
runs, and only if it evaluates a real: this module imports nothing from
mpmath, and lemma33, dusart-sum and cor32, whose rows are integers
alone, never load it. The layer loads mpmath's four raw-mpf files, never
the mpmath package (see `sptorsion._libmp`). A right side is the exact
dyadic rational man * 2^exp, and it is tilted adversarially by a
relative guard of 1e-9 in one integer comparison: an upper bound must
clear rhs*(1-1e-9), a lower bound rhs*(1+1e-9), and lhs < rhs*(1-1e-9)
is decided as lhs * 10^9 * 2^-exp < man * (10^9 - 1). A reported pass
therefore certifies the inequality with slack that dwarfs both the
evaluation error (~1e-49) and the decimal-constant error, and a run is
reproducible bit for bit.

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
kind of its points (genus, x or n), its validity threshold (its level),
the rows a point below the level gets, and its default range, which
starts at the level. A genus check that compares f(g) or h(g) with a
real is one _dp_check entry: its row names with the column each reads,
its comparison and the name of its right side in reals; its sweep is
built there. run_check writes every such precondition-unmet row,
and its sweep sees only the points from the level on (dusart-pi's lower
direction, from x = 599, keeps its own threshold). run_check refuses an
empty range or one that starts below 1; a range of any size is
otherwise swept, and the CLI caps it, by point kind, before calling it.

Every verdict is an exact integer comparison; no float ever decides one.
The halves of lemma 3.3, dusart-sum and lemma35-beta are decided as
2 * lhs < x * pi(x) (and the like), on integers. The one display-only
compromise: the Mertens-type product check keeps the running product
only as a bracket lo <= prod * 2^256 <= hi, which each entering prime
widens by at most 2 units, decides against it (building the exact
product of the primes <= x only when the bracket cannot decide), and
renders the left side at float precision because printing the exact
rational would be useless.

A row keeps the integers it was decided from: its left side, and its
right side as an int or as num * 2^exp. margin is rhs - lhs on the raw
(unguarded) right side, so for upper bounds pass tracks margin >= 0 and
for lower bounds margin <= 0; rhs and margin are built, as an int where
the right side is one and as an exact Fraction elsewhere, only when
read, and so is the Fraction of dusart-product's displayed left side,
which the row keeps as a float (fractions is imported only then, or for
GUARD). Every value a row prints is an integer or a dyadic rational:
render_value refuses any other.
Rendering never builds rhs and margin: a value whose denominator
divides 2^12 and whose magnitude is below 10^40 is printed exactly, and
any other at 20 significant digits, byte for byte as mpmath's
to_str(x, 20) prints x rounded to 86 bits (25 digits), all in integer
arithmetic. render_value also refuses a non-integer whose rounding has
its leading bit beyond 2^3500 or 2^-3500, outside to_str's fixed-point
window; no row reaches it, as a right side that large is an integer.
mpmath evaluates right sides and prints nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .criterion import membership
from .extremal import count_orders_range, max_order_value_range
from .numtheory import primorial, sieve

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BoundReport",
    "GUARD",
    "EULER_GAMMA_20",
    "compute_K",
    "compute_L",
    "improved_lower_threshold",
    "Check",
    "CHECK_NAMES",
    "run_check",
    "default_range",
    "render_value",
    "report_to_dict",
    "REPORT_FIELDS",
]

# Relative guard applied to every real right-hand side: GUARD = 1 / 10^9, a
# Fraction built when it is read (see __getattr__), so that a process whose
# rows never build a Fraction, as no CLI sweep does, never imports fractions.
_GUARD_DEN = 10**9

# Euler-Mascheroni constant, correctly rounded to 20 decimal digits.
EULER_GAMMA_20 = "0.57721566490153286061"


class BoundReport:
    """One inequality instance: exact lhs vs guarded rhs at one point.

    passed is None when the point is below the inequality's validity
    threshold. margin = rhs - lhs on the unguarded right side.

    An immutable value with the fields name, point, lhs, rhs, margin,
    passed and note, compared, hashed and shown field by field. It keeps
    the right side as the integer `num` when `exp` is None and as
    num * 2^exp otherwise, and builds rhs and margin when they are read.
    A left side given as a float (dusart-product's display) is kept as
    one, and read as its exact Fraction.
    """

    __slots__ = ("_name", "_point", "_lhs", "_num", "_exp", "_passed", "_note")

    def __init__(
        self,
        name: str,
        point: int,
        lhs: int | float | Fraction,
        num: int,
        exp: int | None,
        passed: bool | None,
        note: str = "",
    ) -> None:
        self._name, self._point, self._lhs = name, point, lhs
        self._num, self._exp, self._passed, self._note = num, exp, passed, note

    name = property(operator.attrgetter("_name"))
    point = property(operator.attrgetter("_point"))
    passed = property(operator.attrgetter("_passed"))
    note = property(operator.attrgetter("_note"))

    @property
    def lhs(self) -> int | Fraction:
        if isinstance(self._lhs, float):
            from fractions import Fraction

            return Fraction(self._lhs)
        return self._lhs

    @property
    def rhs(self) -> int | Fraction:
        from fractions import Fraction

        num, exp = self._num, self._exp
        if exp is None:
            return num
        return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)

    @property
    def margin(self) -> int | Fraction:
        from fractions import Fraction

        num, exp, lhs = self._num, self._exp, self._lhs
        if exp is None:
            return num - lhs
        top, den = lhs.as_integer_ratio()
        if exp >= 0:
            return Fraction((num << exp) * den - top, den)
        return Fraction(num * den - (top << -exp), den << -exp)

    def _values(self) -> tuple:
        return (self._name, self._point, self.lhs, self.rhs, self.margin, self._passed, self._note)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        name, point, lhs, rhs, margin, passed, note = self._values()
        return (
            f"BoundReport(name={name!r}, point={point!r}, lhs={lhs!r}, rhs={rhs!r}, "
            f"margin={margin!r}, passed={passed!r}, note={note!r})"
        )

    def rendered(self) -> tuple[str, str, str, str, str]:
        """name, point, lhs, rhs and margin as render_value prints them,
        from the integers the row keeps."""
        num, exp, lhs = self._num, self._exp, self._lhs
        if exp is None:
            rhs, margin = str(num), str(num - lhs)
        else:  # lhs = top * 2^-k: margin = num * 2^exp - top * 2^-k
            rhs = _render_dyadic(num, exp)
            top, den = lhs.as_integer_ratio()
            k = den.bit_length() - 1
            low = min(exp, -k)
            margin = _render_dyadic((num << (exp - low)) - (top << (-k - low)), low)
        return self._name, str(self._point), render_value(lhs), rhs, margin


# op -> (comparison, the right side's factor 10^9 * (1 -+ GUARD), tilting it
# against a pass)
_GUARDED = {
    "<=": (operator.le, _GUARD_DEN - 1),
    "<": (operator.lt, _GUARD_DEN - 1),
    ">": (operator.gt, _GUARD_DEN + 1),
    ">=": (operator.ge, _GUARD_DEN + 1),
}


def __getattr__(name: str) -> object:
    if name == "GUARD":
        from fractions import Fraction

        return Fraction(1, _GUARD_DEN)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _guarded_verdict(num: int, den: int, man: int, exp: int, op: str) -> bool:
    """num/den op man * 2^exp * (1 -+ GUARD), in one integer comparison.

    Both sides are multiplied by den * 10^9 * 2^-exp (all positive), so
    the verdict is the rational one, exactly.
    """
    compare, tilt = _GUARDED[op]
    left = num * _GUARD_DEN
    right = den * man * tilt
    if exp < 0:
        return compare(left << -exp, right)
    return compare(left, right << exp)


def _guarded_row(name: str, point: int, lhs: int | Fraction, rhs: tuple, op: str) -> BoundReport:
    """A row against the raw mpf right side rhs, decided by its guard."""
    sign, man, exp, _ = rhs
    if sign or not man:
        raise AssertionError("right sides here are positive and finite by construction")
    passed = _guarded_verdict(lhs.numerator, lhs.denominator, man, exp, op)
    return BoundReport(name, point, lhs, man, exp, passed)


def _half_row(name: str, point: int, lhs: int, twice_rhs: int) -> BoundReport:
    """lhs < twice_rhs / 2, decided as 2 * lhs < twice_rhs."""
    return BoundReport(name, point, lhs, twice_rhs, -1, 2 * lhs < twice_rhs)


def _unmet_row(name: str, point: int, threshold_desc: str) -> BoundReport:
    return BoundReport(name, point, 0, 0, None, None, f"precondition unmet: requires {threshold_desc}")


# ---------------------------------------------------------------------------
# computed thresholds


def compute_K() -> int:
    """Least integer K with sqrt(K log K) >= 23."""
    from .reals import _least_n_log_n

    return _least_n_log_n(23**2)


def compute_L() -> int:
    """Least integer L with sqrt(L log L) >= 55."""
    from .reals import _least_n_log_n

    return _least_n_log_n(55**2)


def improved_lower_threshold() -> int:
    """Least integer g with g log g >= 599^2."""
    from .reals import _least_n_log_n

    return _least_n_log_n(599**2)


# ---------------------------------------------------------------------------
# prime lookups over a sweep


class _PrimeView:
    """Sieve-backed primes, pi(x) and the sum of the first n primes."""

    def __init__(self, limit: int):
        self.primes = sieve(limit)
        self._cum = tuple(itertools.accumulate(self.primes))

    def pi(self, x: int | float) -> int:
        return bisect_right(self.primes, x)

    def sum_first(self, n: int) -> int:
        return self._cum[n - 1]


# ---------------------------------------------------------------------------
# genus sweeps


def check_cor32(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """f(g) <= h(g), both exact."""
    fs = count_orders_range(g_from, g_to)
    hs = max_order_value_range(g_from, g_to)
    for g, f, h in zip(range(g_from, g_to + 1), fs, hs):
        yield BoundReport("cor32", g, f, h, None, f <= h)


# ---------------------------------------------------------------------------
# lemmas


def check_lemma33(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """Sum of primes <= x is < x pi(x) / 2 for x >= 23; exact halves."""
    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        n = view.pi(x)
        yield _half_row("lemma33", x, view.sum_first(n), x * n)


def check_lemma34(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """pi(sqrt(g log g)) < 3 sqrt(g log g) / log(g log g) for g >= K.

    The chain behind it uses pi(y) < (y/log y)(1 + c/log y); both the
    c = 3/2 step quoted in the argument and the sharper c = 1.2762
    estimate it leans on are recorded as separate rows.
    """
    from .reals import _floor_sqrt_g_log_g, _lemma34_rhs

    view = _PrimeView(_floor_sqrt_g_log_g(g_to))
    for g in range(g_from, g_to + 1):
        lhs = view.pi(_floor_sqrt_g_log_g(g))
        main_rhs, rhs_15, rhs_dusart = _lemma34_rhs(g)
        yield _guarded_row("lemma34", g, lhs, main_rhs, "<")
        yield _guarded_row("lemma34-step-1.5", g, lhs, rhs_15, "<")
        yield _guarded_row("lemma34-step-1.2762", g, lhs, rhs_dusart, "<=")


def check_lemma35(g_from: int, g_to: int) -> Iterator[BoundReport]:
    """The primorial of primes <= sqrt(g log g) is a member of S(g).

    Two rows per genus: the membership budget test itself (cost vs 2g)
    and the intermediate bound beta < (3/2) g on the odd-prime cost.
    """
    from .reals import _floor_sqrt_g_log_g

    for g in range(g_from, g_to + 1):
        decision = membership(primorial(_floor_sqrt_g_log_g(g)), g)
        report = decision.report
        beta = sum(t.cost for t in report.terms if t.prime != 2)
        yield BoundReport("lemma35", g, report.total, decision.budget, None, decision.member)
        yield _half_row("lemma35-beta", g, beta, 3 * g)


# ---------------------------------------------------------------------------
# prime estimates


def check_dusart_sum(n_from: int, n_to: int) -> Iterator[BoundReport]:
    """Sum of the first n primes < n p_n / 2 for n >= 9; exact halves."""
    # p_n < n (log n + log log n) for n >= 6 sizes the sieve
    limit = max(100, int(n_to * (math.log(n_to) + math.log(math.log(n_to)))) + 10)
    view = _PrimeView(limit)
    if len(view.primes) < n_to:
        raise AssertionError(f"sieve limit {limit} too small for n = {n_to}")
    for n in range(n_from, n_to + 1):
        yield _half_row("dusart-sum", n, view.sum_first(n), n * view.primes[n - 1])


_PI_LOWER_FROM = 599  # dusart-pi's lower direction, above its check's level
_PI_LOWER = f"x >= {_PI_LOWER_FROM}"


def check_dusart_pi(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """pi(x) <= (x/log x)(1 + 1.2762/log x) for x >= 2,
    and pi(x) >= (x/log x)(1 + 1/log x) for x >= 599."""
    from .reals import _dusart_pi_rhs

    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        lhs = view.pi(x)
        upper, lower = _dusart_pi_rhs(x)
        yield _guarded_row("dusart-pi-upper", x, lhs, upper, "<=")
        if x < _PI_LOWER_FROM:
            yield _unmet_row("dusart-pi-lower", x, _PI_LOWER)
        else:
            yield _guarded_row("dusart-pi-lower", x, lhs, lower, ">=")


# bits of the bracket lo <= prod * 2^B <= hi on the running product
_BRACKET_BITS = 256


def _product_exceeds(primes: tuple[int, ...], man: int, exp: int) -> bool:
    """prod_{p in primes} (1 - 1/p) > man * 2^exp * (1 + GUARD), on the
    exact product."""
    return _guarded_verdict(math.prod(p - 1 for p in primes), math.prod(primes), man, exp, ">")


def check_dusart_product(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """prod_{p <= x} (1 - 1/p) > (e^-gamma / log x)(1 - 0.2/log^2 x)
    for x >= 2973; the product side is an exact rational.

    The verdict is exact. The running product is kept only as a bracket
    lo <= prod * 2^256 <= hi: each prime p that enters takes lo to
    floor(lo (p - 1) / p) and hi to ceil(hi (p - 1) / p), so the bracket
    widens by at most 2 units per prime. A row whose guarded right side
    lies outside the bracket is decided by two integer comparisons, and
    only a right side inside it falls back to building the exact product
    of the primes <= x. The displayed lhs and margin are float
    approximations of the exact rational (noted on each row).
    """
    from .reals import _dusart_product_rhs

    primes = _PrimeView(x_to).primes
    scale = 1 << _BRACKET_BITS
    lo = hi = scale
    prod_float = 1.0
    next_prime_idx = 0
    note = "lhs and margin displayed at float precision; verdict exact"
    for x in range(x_from, x_to + 1):
        while next_prime_idx < len(primes) and primes[next_prime_idx] <= x:
            p = primes[next_prime_idx]
            lo = lo * (p - 1) // p
            hi = -(-hi * (p - 1) // p)
            prod_float *= 1 - 1 / p
            next_prime_idx += 1
        _, man, exp, _ = _dusart_product_rhs(x)
        if _guarded_verdict(lo, scale, man, exp, ">"):
            passed = True
        elif not _guarded_verdict(hi, scale, man, exp, ">"):
            passed = False
        else:
            passed = _product_exceeds(primes[:next_prime_idx], man, exp)
        yield BoundReport("dusart-product", x, prod_float, man, exp, passed, note)


def check_rosser(x_from: int, x_to: int) -> Iterator[BoundReport]:
    """pi(x) > x / (log x + 2) for x >= 55."""
    from .reals import _rosser_rhs

    view = _PrimeView(x_to)
    for x in range(x_from, x_to + 1):
        yield _guarded_row("rosser", x, view.pi(x), _rosser_rhs(x), ">")


# ---------------------------------------------------------------------------
# named dispatch (shared by the CLI and scripts)

class Check(NamedTuple):
    """A named check: its sweep, over a range that starts at or above its
    level; the kind of its points ("genus", "x" or "n"), which sets its cap
    in the CLI; its level, the validity threshold, as an int or a callable
    that searches it when the check runs; the rows each point below the
    level gets instead, by name, with what each requires ("{}" is the
    level); and the end of its default range, which starts at the level:
    an int, a function of the level, or None when a range is required."""

    sweep: Callable[[int, int], Iterator[BoundReport]]
    points: str
    level: int | Callable[[], int]
    unmet: dict[str, str]
    end: int | Callable[[int], int] | None

    def threshold(self) -> int:
        """The level, searched now if it is computed."""
        return self.level() if callable(self.level) else self.level


def _dp_check(
    rows: dict[str, str], op: str, rhs: str,
    level: int | Callable[[], int], requires: str, end: int | Callable[[int], int] | None,
) -> Check:
    """A genus check whose rows, by name, read f(g) ("f") or h(g) ("h")
    and compare it by op with the real right side reals.<rhs>(g); every
    row below the level requires `requires`. The sweep looks up both DPs
    and the right side, and imports reals, only when it runs; it runs each
    DP it reads once over the range, and the right side once per genus."""

    def sweep(g_from: int, g_to: int) -> Iterator[BoundReport]:
        from . import reals

        bound = getattr(reals, rhs)
        dps = {"f": count_orders_range, "h": max_order_value_range}
        columns = {col: dps[col](g_from, g_to) for col in dict.fromkeys(rows.values())}
        for i, g in enumerate(range(g_from, g_to + 1)):
            value = bound(g)
            for name, col in rows.items():
                yield _guarded_row(name, g, columns[col][i], value, op)

    return Check(sweep, "genus", level, dict.fromkeys(rows, requires), end)


# A computed level calls its search by name, so that it is searched (or
# patched) only when the check runs.
CHECK_NAMES: dict[str, Check] = {
    # h(g) <= 3 e^{3g}
    "thm31": _dp_check({"thm31": "h"}, "<=", "_thm31_rhs", 1, "g >= {}", 300),
    "cor32": Check(check_cor32, "genus", 1, {}, 300),
    # h(g) <= 2 e^gamma log(2g+1) e^{(2g+1)/e}
    "remark-upper": _dp_check({"remark-upper": "h"}, "<=", "_remark_upper_rhs", 1486, "g >= {}", 1500),
    # f(g) (thm36) and h(g) (cor37) > e^{(1/4) sqrt(g/log g)}
    "thm36": _dp_check(
        {"thm36": "f"}, ">", "_quarter_sqrt_bound", lambda: compute_L(), "g >= L = {}", lambda L: L + 100
    ),
    "cor37": _dp_check(
        {"cor37": "h"}, ">", "_quarter_sqrt_bound", lambda: compute_L(), "g >= L = {}", lambda L: L + 100
    ),
    # f(g) and h(g) > e^{sqrt(g/(4 log g))}; any in-precondition genus is a
    # deliberate large run
    "remark-lower": _dp_check(
        {"remark-lower-f": "f", "remark-lower-h": "h"}, ">", "_improved_bound",
        lambda: improved_lower_threshold(), "g log g >= 599^2 (g >= {})", None,
    ),
    "lemma33": Check(check_lemma33, "x", 23, {"lemma33": "x >= {}"}, 10**5),
    "lemma34": Check(check_lemma34, "genus", lambda: compute_K(), {"lemma34": "g >= K = {}"}, lambda K: K + 500),
    "lemma35": Check(check_lemma35, "genus", lambda: compute_K(), {"lemma35": "g >= K = {}"}, lambda K: K + 500),
    "dusart-sum": Check(check_dusart_sum, "n", 9, {"dusart-sum": "n >= {}"}, 10**4),
    "dusart-pi": Check(check_dusart_pi, "x", 2, {"dusart-pi-upper": "x >= {}", "dusart-pi-lower": _PI_LOWER}, 10**5),
    "dusart-product": Check(check_dusart_product, "x", 2973, {"dusart-product": "x >= {}"}, 10**5),
    "rosser": Check(check_rosser, "x", 55, {"rosser": "x >= {}"}, 10**5),
}


def default_range(name: str) -> tuple[int, int] | None:
    """Stated sweep range for a check, from its level; None means a range
    is required."""
    check = CHECK_NAMES[name]
    if check.end is None:
        return None
    level = check.threshold()
    return level, check.end(level) if callable(check.end) else check.end


def run_check(name: str, lo: int, hi: int) -> Iterator[BoundReport]:
    """Dispatch one named check over an inclusive range.

    A range that is empty or starts below 1 raises ValueError at once,
    before any DP, sieve or primorial is built; any other range is swept
    lazily, row by row, whatever its size. This is the one place that
    writes the rows of points below a check's level: its sweep sees only
    the points from the level on, and is not called when there are none.
    """
    try:
        check = CHECK_NAMES[name]
    except KeyError:
        raise KeyError(
            f"unknown check {name!r}; valid names: {', '.join(sorted(CHECK_NAMES))}"
        ) from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid {check.points} range {lo}..{hi}")

    def rows() -> Iterator[BoundReport]:
        level = check.threshold()
        unmet = [(row, requires.format(level)) for row, requires in check.unmet.items()]
        for point in range(lo, min(level, hi + 1)):
            for row, requires in unmet:
                yield _unmet_row(row, point, requires)
        if hi >= level:
            yield from check.sweep(max(lo, level), hi)

    return rows()


# ---------------------------------------------------------------------------
# rendering

REPORT_FIELDS = ("name", "point", "lhs", "rhs", "margin", "pass", "note")

# A long value is x rounded to 86 bits (25 digits, mpmath's dps_to_prec(25)),
# printed as mpmath's to_str(x, 20) prints it, which reads 23 digits off x as
# a fixed-point number of 86 bits.
_ROUND_BITS = 86
_FIX_BITS = int(23 * math.log(10, 2)) + 10
_LOG2_10 = math.log(10, 2)
# to_str's fixed-point window: |binary exponent of the leading bit| <= 3500;
# render_value refuses a long value beyond it, which no row reaches
_FIXED_WINDOW = 3500
# the exact branch: a denominator dividing 2^12, a magnitude below 10^40
_EXACT_DIGITS = 12
_EXACT_LIMIT = 10**40


def _round(n: int) -> tuple[int, int]:
    """n > 0 rounded to _ROUND_BITS bits, to nearest with ties to even:
    (man, shift) with value man * 2^shift."""
    shift = n.bit_length() - _ROUND_BITS
    if shift <= 0:
        return n, 0
    man, rest, half = n >> shift, n & ((1 << shift) - 1), 1 << (shift - 1)
    if rest > half or (rest == half and man & 1):
        man += 1
    return man, shift


@functools.cache
def _decimal_scale(fixprec: int) -> tuple[int, int]:
    """(fixdps, 10^fixdps): the decimal digits to_str reads off a
    fixed-point number of fixprec fraction bits. _significant asks for
    fixprec <= _FIX_BITS + _FIXED_WINDOW only, so the cache stays small."""
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    return fixdps, 10**fixdps


def _significant(negative: bool, man: int, exp: int) -> str:
    """to_str(mpf(-+man * 2^exp), 20) for 0 < man <= 2^_ROUND_BITS, when
    the leading bit lies within 2^±_FIXED_WINDOW; ValueError beyond."""
    top = exp + man.bit_length()
    if abs(top) > _FIXED_WINDOW:
        raise ValueError(f"render_value prints values within 2^±{_FIXED_WINDOW} only, not 2^{top - 1}")
    fixprec = max(_FIX_BITS - top, 0)
    fixdps, scale = _decimal_scale(fixprec)
    shift = exp + fixprec  # man * 2^shift is an integer: the shift is exact
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * scale >> fixprec)
    point = len(digits) - fixdps - 1  # decimal exponent of the leading digit
    if len(digits) > 20 and digits[20] in "56789":
        digits = str(int(digits[:20]) + 1)
        if len(digits) > 20:  # twenty 9s carried into a 21st digit
            digits, point = digits[:20], point + 1
    else:
        digits = digits[:20]
    split = 1
    if -6 < point < 20:
        if point < 0:
            digits = "0" * -point + digits
        else:
            split = point + 1
        point = 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    sign = "-" if negative else ""
    return f"{sign}{text}e{point:+d}" if point else sign + text


def _exact_decimal(num: int, scale: int) -> str:
    """num / 10^12 * scale, all of its digits: the denominator divides 10^12."""
    digits = f"{abs(num) * scale:0{_EXACT_DIGITS + 1}d}"
    whole, frac = digits[:-_EXACT_DIGITS], digits[-_EXACT_DIGITS:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}"


def _render_dyadic(num: int, exp: int) -> str:
    """render_value(num * 2^exp), from the two integers."""
    if not num:
        return "0"
    if exp < 0 and not num & 1:  # to lowest terms
        zeros = min((num & -num).bit_length() - 1, -exp)
        num, exp = num >> zeros, exp + zeros
    if exp >= 0:
        return str(num << exp)
    if exp == -1 and abs(num) < _EXACT_LIMIT << 1:  # the halves of _half_row
        return f"{'-' if num < 0 else ''}{abs(num) >> 1}.5"
    if -exp <= _EXACT_DIGITS and abs(num) < _EXACT_LIMIT << -exp:
        return _exact_decimal(num, 10**_EXACT_DIGITS >> -exp)
    man, shift = _round(abs(num))
    return _significant(num < 0, man, exp + shift)


def render_value(value: int | float | Fraction) -> str:
    """Deterministic decimal rendering of an integer or a dyadic rational
    (a float is one); exact when short, else 20 significant digits. Any
    other denominator, or a long value beyond 2^±3500, raises ValueError."""
    if isinstance(value, int):
        return str(value)
    num, den = value.as_integer_ratio()
    if den & (den - 1):
        raise ValueError(f"render_value renders dyadic values only, got {value}")
    return _render_dyadic(num, 1 - den.bit_length())


def report_to_dict(report: BoundReport) -> dict[str, object]:
    """JSON-ready mapping; numeric values as decimal strings."""
    return dict(zip(REPORT_FIELDS, (*report.rendered(), report.passed, report.note)))
