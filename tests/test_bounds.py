"""Inequality sweeps: exact verdicts, report rendering, scan constants."""
from __future__ import annotations

import ast
import copy
import hashlib
import json
import math
import operator
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bounds_oracle as oracle
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from sptorsion import bounds, cli, extremal, reals
from sptorsion.bounds import (
    EULER_GAMMA_20,
    CHECK_NAMES,
    BoundReport,
    compute_K,
    compute_L,
    default_range,
    improved_lower_threshold,
    render_value,
    report_to_dict,
    run_check,
)


def collect(name, lo, hi):
    return list(run_check(name, lo, hi))


def test_scan_constants():
    # least integers whose x log x clears 23^2, 55^2, 599^2 respectively
    assert compute_K() == 113
    assert compute_L() == 489
    assert improved_lower_threshold() == 34354


def test_scan_constants_are_minimal():
    with mp.workdps(50):
        for value, square in [(113, 529), (489, 3025), (34354, 358801)]:
            assert mpf(value) * mp.log(value) >= square
            assert mpf(value - 1) * mp.log(value - 1) < square


def sympy_g_log_g(g):
    return sympy.log(g).evalf(60) * g


def test_scan_constants_are_minimal_by_sympy():
    for value, square in [(113, 529), (489, 3025), (34354, 358801)]:
        assert sympy_g_log_g(value) >= square
        assert sympy_g_log_g(value - 1) < square


def assert_floor_sqrt_g_log_g_matches_sympy(g):
    value = sympy_g_log_g(g)
    x = math.isqrt(int(value))
    # the 60-digit value is far enough from both squares to fix the floor
    assert min(value - x * x, (x + 1) ** 2 - value) > value / 10**40
    assert reals._floor_sqrt_g_log_g(g) == x


def test_floor_sqrt_g_log_g_matches_sympy_to_5000():
    for g in range(2, 5001):
        assert_floor_sqrt_g_log_g_matches_sympy(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(5001, 10**12))
@example(10**6)
@example(10**9)
@example(10**12)
def test_floor_sqrt_g_log_g_matches_sympy_at_large_genus(g):
    assert_floor_sqrt_g_log_g_matches_sympy(g)


@pytest.fixture
def undecided(monkeypatch):
    """Every guarded n log n comparison undecided: the slack exceeds the
    working precision. K, L and the cutoff are searched afresh, and the
    cache is left empty for later tests."""
    reals._least_n_log_n.cache_clear()
    monkeypatch.setattr(reals, "_SLACK", 2 * reals._PREC)
    yield
    reals._least_n_log_n.cache_clear()


@pytest.mark.parametrize(
    "argv, k_known, frames",
    [
        # K, searched before any row
        (["--check", "lemma35", "--range", "113..113"], False, ["_least_n_log_n"]),
        (["--check", "lemma34", "--range", "113..113"], False, ["_least_n_log_n"]),
        # L, for the default range
        (["--check", "thm36"], False, ["_least_n_log_n"]),
        # K given: lemma35's primorial, and lemma34's sieve size before any row
        (["--check", "lemma35", "--range", "113..113"], True, ["check_lemma35", "_floor_sqrt_g_log_g"]),
        (["--check", "lemma34", "--range", "113..113"], True, ["check_lemma34", "_floor_sqrt_g_log_g"]),
    ],
)
def test_undecided_guard_exits_3(argv, k_known, frames, undecided, monkeypatch, capsys):
    if k_known:
        monkeypatch.setattr(bounds, "compute_K", lambda: 113)
    assert cli.main(["bounds", *argv]) == cli.EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    for frame in frames:
        assert f"in {frame}\n" in err, frame
    assert "in _n_log_n_exceeds\n" in err and "ArithmeticError: " in err


def test_euler_gamma_digits():
    with mp.workdps(40):
        stated = mpf(EULER_GAMMA_20)
        assert abs(stated - mp.euler) < mpf("1e-20")


def test_prime_sum_check_example_row():
    rows = collect("lemma33", 23, 23)
    assert len(rows) == 1
    row = rows[0]
    assert row.lhs == 100
    assert row.rhs == Fraction(207, 2)
    assert row.margin == Fraction(7, 2)
    assert row.passed is True


def test_first_n_primes_sum_row():
    rows = collect("dusart-sum", 9, 9)
    assert rows[0].lhs == 100  # 2+3+5+7+11+13+17+19+23
    assert rows[0].rhs == Fraction(207, 2)  # 9 * 23 / 2
    assert rows[0].passed is True


def test_rosser_row():
    rows = collect("rosser", 55, 55)
    assert rows[0].lhs == 16
    assert rows[0].passed is True


def test_pi_estimate_rows():
    rows = collect("dusart-pi", 2, 2)
    names = [r.name for r in rows]
    assert names == ["dusart-pi-upper", "dusart-pi-lower"]
    upper, lower = rows
    assert upper.lhs == 1
    assert upper.passed is True
    assert lower.passed is None
    assert "599" in lower.note


def test_product_estimate_row():
    rows = collect("dusart-product", 2973, 2973)
    assert len(rows) == 1
    assert rows[0].passed is True
    assert "exact" in rows[0].note


def test_unmet_rows_do_not_pass_or_fail():
    rows = collect("thm36", 10, 10)
    assert rows[0].passed is None
    assert "L = 489" in rows[0].note
    rows = collect("remark-upper", 100, 100)
    assert rows[0].passed is None


def test_pi_sqrt_check_emits_step_rows():
    rows = collect("lemma34", 113, 113)
    assert [r.name for r in rows] == [
        "lemma34",
        "lemma34-step-1.5",
        "lemma34-step-1.2762",
    ]
    assert all(r.passed for r in rows)


def test_primorial_membership_rows():
    rows = collect("lemma35", 113, 113)
    assert [r.name for r in rows] == ["lemma35", "lemma35-beta"]
    membership_row, beta_row = rows
    assert membership_row.passed is True
    assert membership_row.rhs == 226
    assert beta_row.passed is True
    assert beta_row.rhs == Fraction(339, 2)


def test_upper_bound_rows_small():
    rows = collect("thm31", 1, 3)
    assert [r.lhs for r in rows] == [6, 12, 30]
    assert all(r.passed for r in rows)
    rows = collect("cor32", 1, 3)
    assert [(r.lhs, r.rhs) for r in rows] == [(4, 6), (8, 12), (16, 30)]


def test_lower_bound_rows_at_threshold():
    rows = collect("thm36", 489, 489)
    assert rows[0].passed is True
    assert rows[0].lhs == 3725463675370  # f(489), exact DP value
    rows = collect("cor37", 489, 489)
    assert rows[0].passed is True


def test_margin_is_rhs_minus_lhs_for_exact_rows():
    row = collect("lemma33", 30, 30)[0]
    assert row.margin == row.rhs - row.lhs


@pytest.mark.parametrize(
    "name, lo, hi, message",
    [
        ("thm31", 0, 5, "invalid genus range 0..5"),
        ("lemma35", 7, 6, "invalid genus range 7..6"),
        ("lemma33", 0, 5, "invalid x range 0..5"),
        ("dusart-sum", 0, 5, "invalid n range 0..5"),
        ("rosser", 60, 55, "invalid x range 60..55"),
    ],
)
def test_range_shape_refused_at_once(name, lo, hi, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_check(name, lo, hi)


@pytest.mark.parametrize(
    "name, lo, hi",
    [
        ("thm31", 1, 12),
        ("thm31", 295, 300),
        ("cor32", 1, 12),
        ("remark-upper", 1483, 1488),
        ("thm36", 486, 492),
        ("cor37", 486, 492),
        ("remark-lower", 1, 3),
    ],
)
def test_range_rows_equal_single_point_rows(name, lo, hi):
    # one DP pass over the window reads off the same rows as a pass per genus
    single = [row for g in range(lo, hi + 1) for row in collect(name, g, g)]
    assert collect(name, lo, hi) == single


def test_remark_lower_range_rows_equal_single_point_rows(monkeypatch):
    # the real cutoff (34354) is above the genus cap; a lowered one runs
    # both DPs over the in-threshold part of the window
    monkeypatch.setattr(bounds, "improved_lower_threshold", lambda: 20)
    single = [row for g in range(17, 24) for row in collect("remark-lower", g, g)]
    rows = collect("remark-lower", 17, 23)
    assert rows == single
    assert [r.passed for r in rows[:6]] == [None] * 6
    assert all(r.passed is not None for r in rows[6:])


# SHA-256 of remark-lower's rows over 34354..35354, their JSON renderings
# one a line, with both DPs replaced by the fixed values below (the real
# ones take over a minute), frozen while its right side was an mpf
# expression inside mp.workdps(50)
REMARK_LOWER_SHA256 = "98cd9d29e566886292e8e2e22b6a82db05ff270c0032ed62dfd712c8c22b6ffe"


def test_remark_lower_rows_keep_their_digest(monkeypatch):
    monkeypatch.setattr(
        bounds, "count_orders_range", lambda lo, hi: [g * 10**8 for g in range(lo, hi + 1)]
    )
    monkeypatch.setattr(
        bounds, "max_order_value_range", lambda lo, hi: [2**42 - g**2 for g in range(lo, hi + 1)]
    )
    digest = hashlib.sha256()
    verdicts = []
    for report in run_check("remark-lower", 34354, 35354):
        digest.update(json.dumps(report_to_dict(report)).encode() + b"\n")
        verdicts.append(report.passed)
    assert digest.hexdigest() == REMARK_LOWER_SHA256
    assert (verdicts.count(True), verdicts.count(False)) == (1547, 455)


# each check that compares f or h with a real: its rows with the column
# each reads, and the name of its right side in reals
DP_CHECKS = {
    "thm31": ({"thm31": "h"}, "_thm31_rhs"),
    "remark-upper": ({"remark-upper": "h"}, "_remark_upper_rhs"),
    "thm36": ({"thm36": "f"}, "_quarter_sqrt_bound"),
    "cor37": ({"cor37": "h"}, "_quarter_sqrt_bound"),
    "remark-lower": ({"remark-lower-f": "f", "remark-lower-h": "h"}, "_improved_bound"),
}


@pytest.mark.parametrize("name", sorted(DP_CHECKS))
def test_dp_checks_look_up_their_dps_and_right_side_when_run(name, monkeypatch):
    # the table holds names, not the functions: patched after import, both
    # DPs and the right side are the ones a sweep reads, each DP once over
    # the range and the right side once per genus
    rows, rhs = DP_CHECKS[name]
    dp_calls, rhs_calls = [], []
    values = {"f": lambda g: 7 * g + 1, "h": lambda g: 11 * g + 3}

    def dp(column):
        def patched(lo, hi):
            dp_calls.append((column, lo, hi))
            return [values[column](g) for g in range(lo, hi + 1)]

        return patched

    def right_side(g):
        rhs_calls.append(g)
        return (0, 5 * g + 1, -3, (5 * g + 1).bit_length())

    monkeypatch.setattr(bounds, "count_orders_range", dp("f"))
    monkeypatch.setattr(bounds, "max_order_value_range", dp("h"))
    monkeypatch.setattr(reals, rhs, right_side)
    lo = CHECK_NAMES[name].threshold() + 1
    hi = lo + 2
    got = collect(name, lo, hi)
    assert rhs_calls == list(range(lo, hi + 1))
    assert sorted(dp_calls) == sorted({(column, lo, hi) for column in rows.values()})
    expected = [(row, g, values[column](g)) for g in range(lo, hi + 1) for row, column in rows.items()]
    assert [(r.name, r.point, r.lhs) for r in got] == expected
    assert all(r.rhs == Fraction(5 * r.point + 1, 8) for r in got)


def test_window_below_threshold_runs_no_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("DP run for a window below the threshold")

    for target in (bounds, extremal):
        monkeypatch.setattr(target, "count_orders_range", no_dp)
        monkeypatch.setattr(target, "max_order_value_range", no_dp)
    monkeypatch.setattr(extremal, "_order_counts", no_dp)
    monkeypatch.setattr(extremal, "_best_products", no_dp)
    rows = collect("remark-lower", 4990, 5000)
    assert len(rows) == 2 * 11
    assert all(r.passed is None for r in rows)
    assert all(r.passed is None for r in collect("remark-upper", 1400, 1485))
    assert all(r.passed is None for r in collect("thm36", 400, 488))
    assert all(r.passed is None for r in collect("cor37", 400, 488))

    def no_sieve(*args):
        raise AssertionError("sieve built for a window below the threshold")

    # the x-checks build no sieve below their level either
    monkeypatch.setattr(bounds, "_PrimeView", no_sieve)
    for name, lo, hi in (("rosser", 1, 54), ("lemma33", 1, 22), ("dusart-product", 1, 2972)):
        rows = collect(name, lo, hi)
        assert len(rows) == hi - lo + 1
        assert all(r.passed is None for r in rows)


def test_run_check_takes_any_range(monkeypatch):
    # the caps are the CLI's: a range past them is swept, lazily
    assert len(collect("rosser", 10**6, 10**6 + 1)) == 2

    def built(*args):
        raise AssertionError("DP, sieve or primorial built before the first row")

    for target, attr in [
        (extremal, "_order_counts"),
        (extremal, "_best_products"),
        (extremal, "sieve"),
        (bounds, "sieve"),
        (bounds, "primorial"),
    ]:
        monkeypatch.setattr(target, attr, built)
    for name in CHECK_NAMES:
        run_check(name, 1, 10**12)


def test_unknown_check_name():
    with pytest.raises(KeyError, match="valid names"):
        run_check("nosuch", 1, 2)


def test_default_ranges():
    assert default_range("thm31") == (1, 300)
    assert default_range("cor32") == (1, 300)
    assert default_range("remark-upper") == (1486, 1500)
    assert default_range("thm36") == (489, 589)
    assert default_range("cor37") == (489, 589)
    assert default_range("remark-lower") is None
    assert default_range("lemma33") == (23, 10**5)
    assert default_range("lemma34") == (113, 613)
    assert default_range("lemma35") == (113, 613)
    assert default_range("dusart-sum") == (9, 10**4)
    assert default_range("dusart-pi") == (2, 10**5)
    assert default_range("dusart-product") == (2973, 10**5)
    assert default_range("rosser") == (55, 10**5)
    assert set(CHECK_NAMES) == {
        "thm31", "cor32", "remark-upper", "thm36", "cor37", "remark-lower",
        "lemma33", "lemma34", "lemma35",
        "dusart-sum", "dusart-pi", "dusart-product", "rosser",
    }


def test_readme_check_table_matches_the_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Bound checks", 1)[1].split("\n#", 1)[0]
    stated = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `([^`]+)` \|.*\| ([^|]+) \|", line)
        if row:
            span = re.fullmatch(r"(\d+)\.\.(\d+)", row[2])
            stated[row[1]] = (int(span[1]), int(span[2])) if span else row[2]
    assert stated == {
        name: default_range(name) or "none (pass --range)" for name in CHECK_NAMES
    }


def test_render_value():
    assert render_value(42) == "42"
    assert render_value(Fraction(6, 3)) == "2"
    assert render_value(Fraction(207, 2)) == "103.5"
    assert render_value(Fraction(-7, 2)) == "-3.5"
    assert render_value(Fraction(1, 8)) == "0.125"
    big = 10**50
    assert render_value(big) == str(big)


def test_report_to_dict_schema():
    row = collect("lemma33", 23, 23)[0]
    payload = report_to_dict(row)
    assert set(payload) == {"name", "point", "lhs", "rhs", "margin", "pass", "note"}
    assert payload["lhs"] == "100"
    assert payload["rhs"] == "103.5"
    assert payload["margin"] == "3.5"
    assert payload["pass"] is True
    unmet = collect("thm36", 10, 10)[0]
    assert report_to_dict(unmet)["pass"] is None


def test_report_is_plain_data():
    row = collect("thm31", 5, 5)[0]
    assert isinstance(row, BoundReport)
    assert isinstance(row.lhs, int)
    assert isinstance(row.rhs, Fraction)
    assert row.margin == row.rhs - row.lhs


def test_report_is_an_immutable_value():
    row = collect("rosser", 55, 55)[0]
    rhs = oracle.mpf_to_fraction(oracle.rosser_rhs(55))
    fields = ("rosser", 55, 16, rhs, rhs - 16, True, "")
    for name in ("name", "point", "lhs", "rhs", "margin", "passed", "note"):
        with pytest.raises(AttributeError):
            setattr(row, name, getattr(row, name))
        with pytest.raises(AttributeError):
            delattr(row, name)
    # as the NamedTuple it replaces: field-wise ==, the hash and repr of its fields
    assert repr(row) == repr(oracle.EagerReport(*fields)).replace("EagerReport", "BoundReport")
    assert hash(row) == hash(fields) == hash(oracle.EagerReport(*fields))
    same = collect("rosser", 55, 55)[0]
    assert row == same and not row != same and hash(row) == hash(same)
    assert copy.copy(row) == row == pickle.loads(pickle.dumps(row))
    assert dict.fromkeys([row, same, collect("rosser", 56, 56)[0]]) == {
        row: None, collect("rosser", 56, 56)[0]: None
    }
    # equal fields from different integers: 103.5 as a half and as 207 * 2^-1
    half = collect("lemma33", 23, 23)[0]
    assert half == BoundReport("lemma33", 23, 100, 207 << 5, -6, True)
    for other in (collect("rosser", 56, 56)[0], fields, half):
        assert row != other and not row == other
    # an int right side is not a Fraction one, though the two are equal
    assert BoundReport("t", 1, 0, 2, None, True) == BoundReport("t", 1, 0, 2, 0, True)
    assert type(BoundReport("t", 1, 0, 2, None, True).rhs) is int


# how each row with a real right side is decided, by row name
REAL_ROW_OPS = {
    "thm31": "<=", "remark-upper": "<=", "thm36": ">", "cor37": ">",
    "remark-lower-f": ">", "remark-lower-h": ">",
    "lemma34": "<", "lemma34-step-1.5": "<", "lemma34-step-1.2762": "<=",
    "dusart-pi-upper": "<=", "dusart-pi-lower": ">=", "rosser": ">",
}


def eager_row(row):
    """What the eager builders made of the integers `row` keeps."""
    name, point, lhs, num, exp = row.name, row.point, row.lhs, row._num, row._exp
    if row.passed is None:
        return oracle.EagerReport(name, point, 0, 0, 0, None, row.note)
    if name in REAL_ROW_OPS:
        return oracle.real_row(name, point, lhs, (0, num, exp, num.bit_length()), REAL_ROW_OPS[name])
    if name == "dusart-product":  # decided on its bracket, tested below
        return oracle.EagerReport(name, point, lhs, *oracle.dyadic(num, exp, lhs), row.passed, row.note)
    if exp is None:  # cor32, lemma35
        return oracle.exact_row(name, point, lhs, num, "<=")
    return oracle.exact_row(name, point, lhs, Fraction(num, 2), "<")  # the halves


@pytest.mark.parametrize("name", sorted(CHECK_NAMES))
def test_lazy_fields_equal_the_eager_builders(name, monkeypatch):
    # every row of the check's default range (remark-lower has none, and
    # runs its DPs above a lowered cutoff); the printing of rows is pinned
    # by the frozen CLI digests and the hypothesis tests above
    if name == "remark-lower":
        monkeypatch.setattr(bounds, "improved_lower_threshold", lambda: 20)
    lo, hi = default_range(name) or (17, 23)
    verdicts = set()
    for row in run_check(name, lo, hi):
        assert_same_row(row, eager_row(row), rendered=False)
        verdicts.add(row.passed)
    assert True in verdicts


def test_lemma_genus_cap_admits_its_top(capsys):
    # the CLI admits both lemmas at its genus cap, and every row passes
    cap = cli.CAPS["genus"]
    for name, rows in [("lemma34", 3), ("lemma35", 2)]:
        argv = ["bounds", "--check", name, "--range", f"{cap}..{cap}", "--format", "csv"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[5] for line in lines] == ["pass"] + ["true"] * rows


# ---------------------------------------------------------------------------
# the integer paths against the rational pipeline of tests/bounds_oracle.py

OPS = ("<=", "<", ">", ">=")
mantissas = st.integers(1, 2**170)
exponents = st.integers(-400, 400)
dyadic_lhs = st.one_of(
    st.integers(-(2**200), 2**200),
    st.builds(
        lambda n, k: Fraction(n, 2**k), st.integers(-(2**200), 2**200), st.integers(0, 300)
    ),
)


def rhs_fraction(man, exp):
    return Fraction(man) * Fraction(2) ** exp


@settings(max_examples=400, deadline=None)
@given(dyadic_lhs, mantissas, exponents, st.sampled_from(OPS))
@example(1, 1, 0, "<")
@example(0, 3, -2, ">=")
def test_guarded_verdict_matches_fractions(lhs, man, exp, op):
    rhs = rhs_fraction(man, exp)
    verdict = bounds._guarded_verdict(lhs.numerator, lhs.denominator, man, exp, op)
    assert verdict == oracle.guarded_pass(lhs, rhs, op)


@settings(max_examples=400, deadline=None)
@given(mantissas, exponents, st.sampled_from(OPS), st.integers(-1, 1))
def test_guarded_verdict_on_the_guarded_boundary(man, exp, op, nudge):
    # lhs exactly on rhs (1 -+ GUARD), or one unit of 2^-600 beside it
    _, guard = oracle.COMPARISONS[op]
    lhs = rhs_fraction(man, exp) * guard + Fraction(nudge, 2**600)
    verdict = bounds._guarded_verdict(lhs.numerator, lhs.denominator, man, exp, op)
    assert verdict == oracle.guarded_pass(lhs, rhs_fraction(man, exp), op)
    if nudge == 0:
        assert verdict == (op in ("<=", ">="))


def assert_same_row(row, eager, rendered=True):
    """`row` has the eager row's fields, each of its type, and prints
    them as render_value prints that row's values."""
    fields = (row.name, row.point, row.lhs, row.rhs, row.margin, row.passed, row.note)
    assert fields == tuple(eager)
    assert [type(value) for value in fields] == [type(value) for value in eager]
    assert not rendered or row.rendered() == (
        eager.name, str(eager.point), *map(render_value, (eager.lhs, eager.rhs, eager.margin))
    )


@settings(max_examples=300, deadline=None)
@given(dyadic_lhs, mantissas, exponents, st.sampled_from(OPS))
def test_real_row_matches_fractions(lhs, man, exp, op):
    rhs = (0, man, exp, man.bit_length())
    assert_same_row(bounds._guarded_row("t", 7, lhs, rhs, op), oracle.real_row("t", 7, lhs, rhs, op))


@pytest.mark.parametrize("rhs", [(0, 0, 0, 0), (1, 3, -2, 2), (0, 0, 456, -2)])
def test_real_row_refuses_nonpositive_or_nonfinite_rhs(rhs):
    for builder in (bounds._guarded_row, oracle.real_row):
        with pytest.raises(AssertionError):
            builder("t", 1, 1, rhs, "<")


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200))
@example(100, 207)
@example(3, 6)
@example(0, 0)
def test_exact_row_matches_fractions(lhs, twice_rhs):
    # the halves are decided on integers, the int rows (cor32, lemma35) too
    eager = oracle.exact_row("t", 1, lhs, Fraction(twice_rhs, 2), "<")
    assert_same_row(bounds._half_row("t", 1, lhs, twice_rhs), eager)
    eager = oracle.exact_row("t", 1, lhs, twice_rhs, "<=")
    assert_same_row(BoundReport("t", 1, lhs, twice_rhs, None, lhs <= twice_rhs), eager)


render_values = st.one_of(
    # dyadic, either side of k = 12
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-(10**60), 10**60), st.integers(0, 200)),
    # just either side of 10^40 with a short dyadic denominator
    st.builds(
        lambda k, delta, sign: sign * Fraction(10**40 * 2**k + delta, 2**k),
        st.integers(1, 12), st.integers(-3, 3), st.sampled_from((1, -1)),
    ),
    st.integers(-(10**50), 10**50),
    # within about 2^-80 of a tie at the 20th digit, where the rounding
    # to 86 bits before printing decides the last digit
    st.builds(
        lambda n, k, delta: Fraction(((10 * n + 5) << k) // 10**21 + delta, 2**k),
        st.integers(10**19, 10**20 - 1), st.integers(100, 200), st.integers(-(2**20), 2**20),
    ),
)


def near_binary_exponent(top, k, low):
    """A dyadic value of 2^k-th parts whose leading bit is 2^(top - 1)."""
    return Fraction((1 << (top + k - 1)) | low, 2**k)


far_values = st.one_of(
    # leading bit on either side of 2^3500 and of 2^-3500, where to_str
    # leaves its fixed-point window and render_value refuses the value
    st.builds(
        near_binary_exponent, st.integers(3490, 3510), st.integers(13, 100), st.integers(0, 2**200)
    ),
    st.builds(
        lambda top, low: near_binary_exponent(top, 200 - top, low),
        st.integers(-3510, -3490), st.integers(0, 2**199),
    ),
)


def beyond_fixed_window(value):
    """Whether value is not an integer and its 86-bit rounding has its
    leading bit 2^(top - 1) with |top| > 3500, outside to_str's window."""
    if isinstance(value, int) or value.denominator == 1:
        return False
    with mp.workprec(86):
        _, _, exp, bc = (mpf(value.numerator) / value.denominator)._mpf_
    return abs(exp + bc) > 3500


def below_power_of_ten(p, d, k):
    """10^p * (1 - d / 10^22) at 2^-k: twenty 9s, then a digit >= 5."""
    scaled = (10**22 - d) << k
    return Fraction(scaled * 10**p // 10**22 if p >= 0 else scaled // 10 ** (22 - p), 2**k)


def dyadic_below(value, k=220):
    """The largest multiple of 2^-k that is at most value."""
    return Fraction(value.numerator * 2**k // value.denominator, 2**k)


switch_exponents = st.sampled_from((-8, -7, -6, -5, -4, 18, 19, 20, 21))
edge_values = st.one_of(
    # a carry through twenty 9s, to 1 followed by zeros one decade up
    st.builds(below_power_of_ten, st.integers(-10, 25), st.integers(1, 49), st.integers(150, 220)),
    # the fixed/scientific switch: leading digit at 10^-6/10^-5 and 10^19/10^20
    st.builds(
        lambda p, m, k: Fraction(m * 2**k * 10 ** max(p, 0) // 10 ** (20 + max(-p, 0)), 2**k),
        switch_exponents, st.integers(10**20, 10**21 - 1), st.integers(150, 220),
    ),
)
# negative margins: rhs - lhs for a dyadic right side below an integer left side
negative_margins = st.builds(
    lambda man, k, lhs: Fraction(man, 2**k) - lhs,
    st.integers(1, 2**169), st.integers(13, 200), st.integers(1, 10**60),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(render_values, far_values, edge_values, negative_margins, st.builds(operator.neg, edge_values)))
@example(Fraction(0))
@example(0)
@example(Fraction(-1, 2**13))
@example(Fraction(10**40 * 2**12 - 1, 2**12))
@example(Fraction(10**40 * 2**12, 2**12))
# leading bit 2^3499, 2^3500 and 2^-3501, 2^-3500: inside the window and beyond it
@example(near_binary_exponent(3500, 13, 1))
@example(near_binary_exponent(3501, 13, 1))
@example(near_binary_exponent(-3500, 3700, 1))
@example(near_binary_exponent(-3499, 3700, 1))
# 10^20 - 1/30 and 10^-5 - 1/(3 * 10^31), just below, carry to 1.0e+20 and 0.00001
@example(dyadic_below(Fraction(3 * 10**21 - 1, 30)))
@example(dyadic_below(Fraction(3 * 10**26 - 1, 3 * 10**31)))
@example(-dyadic_below(Fraction(3 * 10**21 - 1, 30)))
# leading digit at 10^-6 (scientific) and 10^-5 (fixed); at 10^19 (fixed) and 10^20
@example(dyadic_below(Fraction(1, 3 * 10**5)))
@example(dyadic_below(Fraction(1, 3 * 10**4)))
@example(dyadic_below(Fraction(10**20, 3)))
@example(dyadic_below(Fraction(10**21, 3)))
@example(Fraction(2**170 - 1, 2**160) - 10**6)
def test_render_value_matches_rational_rendering(value):
    if beyond_fixed_window(value):
        with pytest.raises(ValueError, match="within 2\\^±3500 only"):
            render_value(value)
    else:
        assert render_value(value) == oracle.render_value(value)


def test_render_value_refuses_non_dyadic_values():
    for value in (Fraction(1, 3), Fraction(-7, 10), Fraction(2**100, 2**64 + 1)):
        with pytest.raises(ValueError, match="dyadic values only"):
            render_value(value)


@pytest.mark.parametrize("top", [3499, 3500, 3501, 3600, -3498, -3499, -3500, -3600])
def test_render_value_leaves_the_fixed_window_only_beyond_3500(top):
    # render_value refuses exactly the values whose 86-bit rounding has its
    # leading bit beyond 2^3500 or 2^-3500, which to_str would first divide
    # by a power of ten it rounds
    k = 13 if top > 0 else 200 - top
    for value in (near_binary_exponent(top, k, 1), -near_binary_exponent(top, k, 12345)):
        if abs(top) > 3500:
            with pytest.raises(ValueError, match="within 2\\^±3500 only"):
                render_value(value)
        else:
            assert render_value(value) == oracle.render_value(value)


def assert_right_sides_keep_their_bits(x):
    assert reals._rosser_rhs(x) == oracle.rosser_rhs(x)._mpf_
    upper, lower = oracle.dusart_pi_rhs(x)
    assert reals._dusart_pi_rhs(x) == (upper._mpf_, lower._mpf_)
    if x >= 2973:
        assert reals._dusart_product_rhs(x) == oracle.dusart_product_rhs(x)._mpf_


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**6))
def test_x_sweep_right_sides_keep_their_bits(x):
    assert_right_sides_keep_their_bits(x)


def test_x_sweep_right_sides_keep_their_bits_at_thresholds():
    for x in (2, 3, 55, 598, 599, 2972, 2973, 2974, 10**5, 10**6 - 1, 10**6, 10**9):
        assert_right_sides_keep_their_bits(x)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**6))
@example(113)
@example(489)
@example(1486)
@example(34354)
def test_genus_right_sides_keep_their_bits(g):
    assert reals._thm31_rhs(g) == oracle.thm31_rhs(g)._mpf_
    assert reals._remark_upper_rhs(g) == oracle.remark_upper_rhs(g)._mpf_
    assert reals._quarter_sqrt_bound(g) == oracle.quarter_sqrt_bound(g)._mpf_
    assert reals._improved_bound(g) == oracle.improved_bound(g)._mpf_
    assert reals._lemma34_rhs(g) == tuple(rhs._mpf_ for rhs in oracle.lemma34_rhs(g))
    assert reals._EXP_NEG_GAMMA == oracle.exp_neg_gamma()._mpf_


def real_path_breaches(source: str) -> list[str]:
    """Imports of mpmath, mpmath.libmp included (mpmath/__init__.py builds
    mpmath's contexts and function library, which no command calls), uses
    of workdps or of mp.<name>, and imports of dataclasses (whose import
    alone costs every CLI process inspect, ast, dis and tokenize)."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
            if node.module == "mpmath":
                modules = [f"mpmath.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] in ("mpmath", "dataclasses"):
                breaches.append(f"line {node.lineno}: imports {module}")
        if isinstance(node, ast.Attribute) and (
            node.attr == "workdps" or (isinstance(node.value, ast.Name) and node.value.id == "mp")
        ):
            breaches.append(f"line {node.lineno}: uses .{node.attr}")
    return breaches


def names_mpmath(source: str) -> bool:
    """Whether a string constant of the module is mpmath or a dotted name
    under it, as a module name handed to an import function would be."""
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.split(".")[0] == "mpmath"
        for node in ast.walk(ast.parse(source))
    )


def imports_libmp(source: str) -> bool:
    """Whether the module imports the package-relative _libmp."""
    return any(
        isinstance(node, ast.ImportFrom) and node.level == 1 and (node.module or "").split(".")[0] == "_libmp"
        for node in ast.walk(ast.parse(source))
    )


def test_src_evaluates_reals_on_the_raw_mpf_path_only():
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "sptorsion").glob("*.py"))
    assert {"reals.py", "_libmp.py"} <= {path.name for path in paths}
    for path in paths:
        source = path.read_text()
        assert real_path_breaches(source) == [], path.name
        # _libmp alone finds mpmath's files, and reals alone evaluates with them
        assert names_mpmath(source) == (path.name == "_libmp.py"), path.name
        assert imports_libmp(source) == (path.name == "reals.py"), path.name
    # the scan itself sees each kind of breach
    assert len(real_path_breaches("from mpmath import mp, mpf\nimport mpmath\n")) == 3
    assert len(real_path_breaches("with ctx.workdps(50):\n    y = mp.floor(x)\n")) == 2
    assert len(real_path_breaches("from mpmath import libmp\nfrom mpmath.libmp import mpf_e\n")) == 2
    assert len(real_path_breaches("def f():\n    import mpmath.libmp.libmpf\n")) == 1
    assert len(real_path_breaches("import dataclasses\nfrom dataclasses import dataclass\n")) == 2
    assert names_mpmath("find_spec('mpmath')") and names_mpmath("import_module('mpmath.libmp')")
    assert not names_mpmath('"""Evaluated by the raw-mpf functions of mpmath."""')
    assert imports_libmp("from ._libmp import mpf_e") and imports_libmp("from ._libmp.libmpf import fone")
    assert not imports_libmp("from .bounds import EULER_GAMMA_20")


def test_reals_leaves_the_mpmath_package_unloaded():
    # in a fresh process: reals binds nothing under mpmath, a later import
    # of mpmath builds its own package, and the right sides that reals
    # evaluates equal the same calls made through mpmath.libmp
    script = """
import sys
from pathlib import Path
from types import ModuleType

before = set(sys.modules)
from sptorsion import reals
assert [m for m in set(sys.modules) - before if m.split(".")[0] == "mpmath"] == []

import mpmath.libmp
assert mpmath.libmp is not sys.modules["sptorsion._libmp"]
assert mpmath.libmp.libmpf is not sys.modules["sptorsion._libmp.libmpf"]
assert mpmath.libmp.mpf_log is not reals.mpf_log

# reals' own source, with its functions taken from mpmath.libmp instead
source = Path(reals.__file__).read_text()
assert source.count("from ._libmp.") == 2
via_mpmath = ModuleType("sptorsion.reals_via_mpmath")
via_mpmath.__package__ = "sptorsion"
exec(compile(source.replace("from ._libmp.", "from mpmath.libmp."), "", "exec"), vars(via_mpmath))
points = [*range(2, 200), *range(10**6 - 50, 10**6 + 50), 2**61 - 1]
for name in ("_rosser_rhs", "_dusart_pi_rhs", "_thm31_rhs"):
    mine, theirs = getattr(reals, name), getattr(via_mpmath, name)
    assert [mine(n) for n in points] == [theirs(n) for n in points], name
print("checked", len(points))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "checked 299\n"


def test_reals_imports_without_warnings():
    # in a fresh process with every warning an error: _libmp's package path
    # must not make the import system warn (an ImportWarning when a
    # module's __package__ and __spec__.parent disagree)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import sptorsion.reals"], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def cap_breaches(source: str, defines_caps: bool = False) -> list[str]:
    """Functions that take a `cap` parameter and, unless the module is
    the one that holds the size policy, names ending in _CAP that it
    defines: every size limit is an entry of cli.CAPS."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "cap" for p in params):
                breaches.append(f"line {node.lineno}: takes a cap parameter")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id.endswith("_CAP") and not defines_caps:
                breaches.append(f"line {node.lineno}: defines {node.id}")
    return breaches


def test_src_caps_sizes_in_the_cli_only():
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sptorsion").glob("*.py")):
        assert cap_breaches(path.read_text(), path.name == "cli.py") == [], path.name
    # the scan itself sees each kind of breach
    assert len(cap_breaches("def f(g, cap=40):\n    pass\n")) == 1
    assert len(cap_breaches("g = lambda *, cap: cap\nDEFAULT_ORACLE_CAP = 30\n")) == 2
    assert cap_breaches("DEFAULT_ORACLE_CAP = 30\n", defines_caps=True) == []
    assert cap_breaches("def f(g, capped=False):\n    CAPS = {}\n") == []


def test_x_sweep_rows_do_no_fraction_arithmetic(monkeypatch):
    def arithmetic(*args):
        raise AssertionError("Fraction arithmetic on the row path")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__lt__", "__le__", "__gt__", "__ge__",
    ):
        monkeypatch.setattr(Fraction, name, arithmetic)
    for name, lo, hi in (("rosser", 50, 700), ("dusart-pi", 1, 700), ("dusart-product", 2970, 3600)):
        for report in run_check(name, lo, hi):
            report_to_dict(report)


@pytest.mark.parametrize(
    "name, lo, hi",
    [
        ("rosser", 50, 700), ("dusart-pi", 1, 700), ("lemma33", 1, 700), ("dusart-sum", 1, 700),
        ("thm31", 1, 40), ("cor32", 1, 40), ("lemma34", 110, 130), ("lemma35", 110, 130),
        ("dusart-product", 2970, 3600),
    ],
)
def test_sweeps_build_no_fraction_unless_read(name, lo, hi, monkeypatch):
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    rows = list(run_check(name, lo, hi))
    for report in rows:
        report_to_dict(report)
        report.rendered()
    assert built == []
    fields = [(r.rhs, r.margin) for r in rows]
    assert len(built) == 2 * sum(type(rhs) is Fraction for rhs, _ in fields)
    # the product check's displayed left side, a float, at each read
    built.clear()
    lhs = [type(r.lhs) for r in rows]
    product = [name == "dusart-product" and r.point >= 2973 for r in rows]
    assert len(built) == sum(product)
    assert lhs == [Fraction if shown else int for shown in product]


def product_rows(lo, hi):
    return [(r.point, r.passed, report_to_dict(r)) for r in run_check("dusart-product", lo, hi)]


@pytest.fixture
def fallbacks(monkeypatch):
    """Arguments of every full cross-multiplication the product check makes."""
    calls = []
    exceeds = bounds._product_exceeds
    monkeypatch.setattr(
        bounds, "_product_exceeds", lambda *args: calls.append(args) or exceeds(*args)
    )
    return calls


def test_product_bracket_decides_without_cross_multiplication(monkeypatch, fallbacks):
    rows = product_rows(2973, 4000)
    assert all(passed for _, passed, _ in rows)
    assert fallbacks == []
    # a 0-bit bracket [0, 1] straddles every right side: the full
    # cross-multiplication then decides every row, with the same rows
    monkeypatch.setattr(bounds, "_BRACKET_BITS", 0)
    assert product_rows(2973, 4000) == rows
    assert len(fallbacks) == len(rows)


def test_product_verdict_matches_cross_multiplication():
    # the old verdict, recomputed from the exact running product
    num, den, primes = 1, 1, iter(bounds._PrimeView(9000).primes)
    p = next(primes)
    for row in run_check("dusart-product", 2973, 9000):
        while p is not None and p <= row.point:
            num, den, p = num * (p - 1), den * p, next(primes, None)
        rhs = oracle.dusart_product_rhs(row.point)
        assert row.passed == oracle.product_passes(num, den, rhs)
        assert row.rhs == oracle.mpf_to_fraction(rhs)


def test_product_straddle_falls_back_to_the_exact_verdict(monkeypatch, fallbacks):
    # guarded right sides within 2^-600 of the product on either side:
    # the 256-bit bracket holds both, the cross-multiplication tells them apart
    num = den = 1
    for p in bounds._PrimeView(2973).primes:
        num, den = num * (p - 1), den * p
    scaled = Fraction(num, den) / (1 + bounds.GUARD) * 2**600
    for extra, expected in ((0, True), (1, False)):
        man = math.floor(scaled) + extra
        monkeypatch.setattr(reals, "_dusart_product_rhs", lambda x: (0, man, -600, 0))
        fallbacks.clear()
        (row,) = run_check("dusart-product", 2973, 2973)
        assert len(fallbacks) == 1
        assert row.passed is expected
        assert row.passed == oracle.guarded_pass(Fraction(num, den), Fraction(man, 2**600), ">")


def test_product_right_side_above_the_bracket_fails_without_cross_multiplication(
    monkeypatch, fallbacks
):
    # a guarded right side of 1 lies above every product of (1 - 1/p)
    monkeypatch.setattr(reals, "_dusart_product_rhs", lambda x: (0, 1, 0, 1))
    rows = list(run_check("dusart-product", 2973, 2980))
    assert [row.passed for row in rows] == [False] * 8
    assert fallbacks == []
