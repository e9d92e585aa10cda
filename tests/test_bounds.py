"""Inequality sweeps: exact verdicts, report rendering, scan constants."""
from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from sptorsion import bounds, extremal
from sptorsion.bounds import (
    EULER_GAMMA_20,
    GENUS_CHECKS,
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
from sptorsion.criterion import GenusCapError


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


def test_genus_cap_fails_fast():
    for name in sorted(GENUS_CHECKS):
        with pytest.raises(GenusCapError):
            next(iter(run_check(name, 1, 5001)))


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


def test_window_below_threshold_runs_no_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("DP run for a window below the threshold")

    for target in (bounds, extremal):
        monkeypatch.setattr(target, "count_orders_range", no_dp)
        monkeypatch.setattr(target, "max_order_value_range", no_dp)
    monkeypatch.setattr(extremal, "_order_counts", no_dp)
    monkeypatch.setattr(extremal, "_best_products", no_dp)
    rows = list(run_check("remark-lower", 4990, 5000, None))
    assert len(rows) == 2 * 11
    assert all(r.passed is None for r in rows)
    assert all(r.passed is None for r in collect("remark-upper", 1400, 1485))
    assert all(r.passed is None for r in collect("thm36", 400, 488))
    assert all(r.passed is None for r in collect("cor37", 400, 488))


def test_x_cap_lifted_with_the_genus_cap():
    with pytest.raises(ValueError, match="--allow-large"):
        run_check("lemma33", 23, 10**6 + 1)
    assert len(collect("rosser", 10**6 - 1, 10**6)) == 2
    run_check("lemma33", 23, 10**6 + 1, None)  # lazy: nothing is sieved yet


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
