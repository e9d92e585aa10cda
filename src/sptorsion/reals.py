"""The raw-mpf layer of the bound sweeps: every real a bound row depends on.

Every real is evaluated by mpmath.libmp's raw-mpf functions at 169 bits
(50 digits): nothing here enters a precision context or reads mpmath's
global precision. Each right side calls the functions that mpf arithmetic
on its written expression inside mp.workdps(50) calls, in the same order,
so its bits are that expression's; its docstring is that expression.

The functions are imported here, and only here, from
`sptorsion._libmp.libelefun` and `sptorsion._libmp.libmpf`. `_libmp` is a
path shim whose package path is mpmath's libmp directory, so these load
mpmath's own libmp files (backend, libintmath, libmpf, libelefun) without
the mpmath package: `import mpmath.libmp` would first run
mpmath/__init__.py, whose contexts and function library cost every
process some 25 ms and 3 MB and are never called here.

`sptorsion.bounds` imports this module inside the checks that evaluate a
real, when they run, so a check whose rows are integers alone (lemma33,
dusart-sum, cor32) never loads mpmath's files.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._libmp.libelefun import mpf_e, mpf_log, mpf_pow
from ._libmp.libmpf import (
    dps_to_prec,
    fone,
    from_int,
    from_str,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_int,
)

from .bounds import EULER_GAMMA_20

_PREC = dps_to_prec(50)  # working precision of every real, in bits (169)
_RND = round_nearest  # mpmath's default rounding

# n log n is compared with an integer only when they differ by more than
# 2^(_SLACK - _PREC) n log n; its log and product are each off by an ulp or so
_SLACK = 8

_E = mpf_e(_PREC, _RND)
_GAMMA = from_str(EULER_GAMMA_20, _PREC, _RND)
_TWO_E_GAMMA = mpf_mul_int(mpf_pow(_E, _GAMMA, _PREC, _RND), 2, _PREC, _RND)  # 2 * e^gamma
_EXP_NEG_GAMMA = mpf_pow(_E, mpf_neg(_GAMMA, _PREC, _RND), _PREC, _RND)  # e^-gamma
_DUSART_PI_CONST = from_str("1.2762", _PREC, _RND)
_FIFTH = from_str("0.2", _PREC, _RND)


def _log(x: int) -> tuple:
    return mpf_log(from_int(x), _PREC, _RND)


# ---------------------------------------------------------------------------
# n log n against an integer: the computed thresholds


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


# ---------------------------------------------------------------------------
# right sides of the genus checks


def _thm31_rhs(g: int) -> tuple:
    """3 * e^(3g)"""
    return mpf_mul_int(mpf_pow_int(_E, 3 * g, _PREC, _RND), 3, _PREC, _RND)


def _remark_upper_rhs(g: int) -> tuple:
    """2 * e^gamma * log(2g + 1) * e^(mpf(2g + 1) / e)"""
    power = mpf_pow(_E, mpf_div(from_int(2 * g + 1), _E, _PREC, _RND), _PREC, _RND)
    return mpf_mul(mpf_mul(_TWO_E_GAMMA, _log(2 * g + 1), _PREC, _RND), power, _PREC, _RND)


def _quarter_sqrt_bound(g: int) -> tuple:
    """e^(sqrt(mpf(g) / log(g)) / 4)"""
    root = mpf_sqrt(mpf_div(from_int(g), _log(g), _PREC, _RND), _PREC, _RND)
    return mpf_pow(_E, mpf_div(root, from_int(4), _PREC, _RND), _PREC, _RND)


def _improved_bound(g: int) -> tuple:
    """e^sqrt(mpf(g) / (4 * log(g)))"""
    quotient = mpf_div(from_int(g), mpf_mul_int(_log(g), 4, _PREC, _RND), _PREC, _RND)
    return mpf_pow(_E, mpf_sqrt(quotient, _PREC, _RND), _PREC, _RND)


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


# ---------------------------------------------------------------------------
# right sides of the prime estimates


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
