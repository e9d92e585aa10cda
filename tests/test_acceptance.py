"""Acceptance gate: one test per stated criterion, runtime caps enforced.

Each test prints a single PASS/FAIL line (visible under pytest -s or in
captured output on failure) and asserts both the mathematical content and
the runtime budget.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import subprocess
import sys
import time

import sympy
from power_oracle import binary_power, is_identity, matmul, standard_form, transpose

from sptorsion.bounds import compute_K, compute_L, report_to_dict, run_check
from sptorsion.criterion import enumerate_orders, is_member, membership
from sptorsion.extremal import brute_force_extremal, extremal_table, max_order
from sptorsion.witness import build_witness


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded {budget_s}s: {elapsed:.1f}s"


def sweep_passes(name: str, lo: int, hi: int, digest=None) -> int:
    """Rows of one sweep, none failing; each row's rendering is fed to
    `digest` (a hashlib object) when one is given."""
    rows = 0
    for report in run_check(name, lo, hi):
        assert report.passed is not False, (name, report)
        if digest is not None:
            digest.update(json.dumps(report_to_dict(report)).encode() + b"\n")
        rows += 1
    return rows


# SHA-256 of each genus sweep's rows, their JSON renderings one a line,
# frozen before the checks were declared in one table
GENUS_SWEEP_SHA256 = {
    "thm31": "ffef942c11d363f595648fb7425570eedc4de8e9a5c7e7992cd8a30d77b1f154",
    "cor32": "a5576d352289f5c197aebbb5e70bb9d28ca30e8be90f993ad43187d1d86b5947",
    "remark-upper": "954004c14ca0e599c61b86bdccf19c1666b66908cb5355b579d48aa2e1b04ac1",
    "thm36": "a53ff062e3d723171f90ba04dd6d86a901fb47cac45938bd7dafb2e78b4e390a",
    "cor37": "ed94fbcb552b562149cee42e531bc2acb024984020c1c7b9999e912f1bd2ed91",
    "lemma34": "6795c08c887239bb54d6fafaf11df01b6498be1eaeb004af3ddb8e1c5bab6902",
    "lemma35": "cfbb3f316b1b5bb2403c26f05319cd4f45fe03121d34fdab4852d50e13643ecb",
}


def frozen_sweep_passes(name: str, lo: int, hi: int) -> int:
    """sweep_passes, with the rows' bytes held to GENUS_SWEEP_SHA256."""
    digest = hashlib.sha256()
    rows = sweep_passes(name, lo, hi, digest)
    assert digest.hexdigest() == GENUS_SWEEP_SHA256[name], name
    return rows


def test_oracle_equivalence_g1_12():
    with criterion("oracle-equivalence g=1..12", 10):
        for g in range(1, 13):
            record = max_order(g)
            reference = brute_force_extremal(g)
            assert (record.f, record.h) == (reference.f, reference.h), g


def test_known_small_structure():
    with criterion("known small structure", 10):
        assert enumerate_orders(1) == [2, 3, 4, 6]
        assert brute_force_extremal(1).h == 6
        assert brute_force_extremal(2).h == 12
        assert brute_force_extremal(3).h == 30
        assert max_order(1).h == 6
        assert max_order(2).h == 12
        assert max_order(3).h == 30


def test_witness_soundness_sweep_g1_6():
    with criterion("witness soundness g=1..6", 60):
        for g in range(1, 7):
            j = standard_form(g)
            for m in enumerate_orders(g):
                witness = build_witness(m, g)
                a = witness.matrix
                assert a.size == 2 * g
                assert matmul(matmul(transpose(a), j), a) == j
                assert is_identity(binary_power(a, m))
                for p in sympy.primefactors(m):
                    assert not is_identity(binary_power(a, m // p))


def test_absolute_upper_bound_g1_300():
    with criterion("h <= 3e^{3g} and f <= h, g=1..300", 300):
        assert frozen_sweep_passes("thm31", 1, 300) == 300
        assert frozen_sweep_passes("cor32", 1, 300) == 300


def test_refined_upper_bound_g1486_1500():
    with criterion("refined upper bound g=1486..1500", 600):
        assert frozen_sweep_passes("remark-upper", 1486, 1500) == 15


def test_exponential_lower_bound_above_L():
    level = compute_L()
    assert level == 489
    with criterion("lower bounds on f and h, g in [L, L+100]", 300):
        assert frozen_sweep_passes("thm36", level, level + 100) == 101
        assert frozen_sweep_passes("cor37", level, level + 100) == 101


# (check, range, rows, SHA-256 of the rows' JSON renderings one a line),
# frozen from the code that converted every right side to a Fraction
PRIME_ESTIMATE_SWEEPS = [
    ("lemma33", 23, 10**5, 10**5 - 23 + 1,
     "1556b977ee618858a0d92b6c7a20d29e65abd42730c41fc38fe791ad74979624"),
    ("dusart-sum", 9, 10**4, 10**4 - 9 + 1,
     "e24f63bf800b0eb2225e3e41c4f44ca52281265285fca707b7890d392701212b"),
    ("rosser", 55, 10**5, 10**5 - 55 + 1,
     "501e32f9d9b213b342b16a3e78b8f54893dfc2b1becc2404c651121355efe4e2"),
    # both directions at every integer point, one row each
    ("dusart-pi", 2, 10**5, 2 * (10**5 - 1),
     "a95a10ecac9afe4fbfd3047e28c28399d691fb9f79b7b9bf9df8d8c34fd0f579"),
    ("dusart-product", 2973, 10**5, 10**5 - 2973 + 1,
     "19bcdc890dd6d48a2e410fbabc437b30125ae071255bd84ddca9cf6529533848"),
]


def test_prime_estimate_sweeps_combined():
    with criterion("prime estimate sweeps", 300):
        for name, lo, hi, rows, expected in PRIME_ESTIMATE_SWEEPS:
            digest = hashlib.sha256()
            assert sweep_passes(name, lo, hi, digest) == rows, name
            assert digest.hexdigest() == expected, name


def test_primorial_membership_above_K():
    level = compute_K()
    assert level == 113
    with criterion("prime count and primorial membership, g in [K, K+500]", 300):
        assert frozen_sweep_passes("lemma34", level, level + 500) == 3 * 501
        assert frozen_sweep_passes("lemma35", level, level + 500) == 2 * 501


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sptorsion.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_determinism_byte_identical_json(tmp_path):
    with criterion("byte-identical repeated JSON", 120):
        witness_path = tmp_path / "w.json"
        run_cli("witness", "12", "-g", "3", "-o", str(witness_path))
        commands = [
            ("member", "6", "-g", "1", "--format", "json"),
            ("orders", "-g", "4", "--format", "json"),
            ("extremal", "-g", "1..8", "--format", "json"),
            ("witness", "12", "-g", "3", "--format", "json"),
            ("verify", str(witness_path), "--format", "json"),
            ("bounds", "--check", "lemma34", "--range", "113..120", "--format", "json"),
        ]
        for args in commands:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode == 0, args
            assert first.stdout == second.stdout, args
            json.loads(first.stdout)  # payload is well-formed JSON


def test_invariant_suite():
    with criterion("invariant suite", 300):
        # cost additivity against the two-case definition, m <= 1e5; at
        # genus m every prime of m is below 2g + 1, so the table is complete
        def cost(m: int) -> int:
            decision = membership(m, m)
            assert decision.cofactor == 1
            return decision.total

        for m in range(2, 10**5 + 1):
            expected = sum(
                p ** (a - 1) * (p - 1)
                for p, a in sympy.factorint(m).items()
                if not (p == 2 and m % 4 == 2)
            )
            assert cost(m) == expected, m

        # free-doubling of odd members
        for g in range(1, 21):
            for m in enumerate_orders(g):
                if m % 2 == 1:
                    assert is_member(2 * m, g)
                    assert cost(2 * m) == cost(m)

        # monotonicity and evenness over a computed table
        table = extremal_table(1, 200)
        for earlier, later in zip(table, table[1:]):
            assert earlier.f <= later.f
            assert earlier.h <= later.h
        assert all(record.h % 2 == 0 for record in table)

        # support bound: primes <= 2g+1 and at most g+1 of them, g <= 20
        for g in range(1, 21):
            for m in enumerate_orders(g):
                fact = sympy.factorint(m)
                assert all(p <= 2 * g + 1 for p in fact)
                assert len(fact) <= g + 1
