"""End-to-end CLI behavior: exit codes, formats, golden schemas."""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    """Run the CLI in a child process.

    The child inherits this process's environment (PYTHONPATH included, so
    a source checkout works without an installed package).
    """
    return subprocess.run(
        [sys.executable, "-m", "sptorsion.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_member_exit_codes():
    assert run_cli("member", "6", "-g", "1").returncode == 0
    assert run_cli("member", "5", "-g", "1").returncode == 1
    assert run_cli("member", "1", "-g", "3").returncode == 2
    assert run_cli("member", "0", "-g", "1").returncode == 2
    assert run_cli("member", "6", "-g", "0").returncode == 2


def test_member_text_mentions_costs():
    result = run_cli("member", "5", "-g", "1")
    assert "total cost 4" in result.stdout
    assert "not a member" in result.stdout


def test_member_json_payload():
    result = run_cli("member", "10", "-g", "2", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["command"] == "member"
    assert payload["result"]["member"] is True
    assert payload["result"]["exemption_applied"] is True
    assert payload["result"]["total_cost"] == "4"
    # numeric payload values are decimal strings throughout
    assert isinstance(payload["result"]["budget"], str)


def test_orders_outputs():
    result = run_cli("orders", "-g", "1")
    assert result.returncode == 0
    assert "2 3 4 6" in result.stdout
    payload = json.loads(run_cli("orders", "-g", "2", "--format", "json").stdout)
    assert payload["result"]["orders"] == ["2", "3", "4", "5", "6", "8", "10", "12"]
    assert payload["result"]["count"] == "8"
    csv_out = run_cli("orders", "-g", "1", "--format", "csv").stdout
    assert csv_out.splitlines() == ["m", "2", "3", "4", "6"]


def test_orders_cap():
    assert run_cli("orders", "-g", "100").returncode == 2


def test_extremal_table_and_oracle():
    result = run_cli("extremal", "-g", "1..3", "--oracle")
    assert result.returncode == 0
    assert "oracle cross-check passed" in result.stdout
    csv_out = run_cli("extremal", "-g", "1..3", "--format", "csv").stdout
    lines = csv_out.splitlines()
    assert lines[0] == "g,f,h,h_factorization"
    assert lines[1] == "1,4,6,2*3"
    assert lines[3] == "3,16,30,2*3*5"


def test_extremal_column_selectors():
    count_only = run_cli("extremal", "-g", "2", "--count", "--format", "csv").stdout
    assert count_only.splitlines() == ["g,f", "2,8"]
    max_only = run_cli("extremal", "-g", "2", "--max", "--format", "csv").stdout
    assert max_only.splitlines() == ["g,h,h_factorization", "2,12,2^2*3"]


def test_extremal_oracle_cap_is_usage_error():
    assert run_cli("extremal", "-g", "1..35", "--oracle").returncode == 2


def test_extremal_genus_cap():
    assert run_cli("extremal", "-g", "5001").returncode == 2
    assert run_cli("extremal", "-g", "0").returncode == 2
    assert run_cli("extremal", "-g", "3..2").returncode == 2


def test_range_grammar():
    single = run_cli("extremal", "-g", "4", "--format", "csv").stdout
    ranged = run_cli("extremal", "-g", "4..4", "--format", "csv").stdout
    assert single == ranged
    assert run_cli("extremal", "-g", "x..y").returncode == 2
    assert run_cli("extremal", "-g", "").returncode == 2


def test_witness_verify_round_trip(tmp_path):
    path = tmp_path / "w.json"
    built = run_cli("witness", "6", "-g", "1", "-o", str(path))
    assert built.returncode == 0
    assert path.exists()
    verified = run_cli("verify", str(path))
    assert verified.returncode == 0
    assert "valid" in verified.stdout


def test_witness_non_member_exit():
    result = run_cli("witness", "5", "-g", "1")
    assert result.returncode == 1
    assert "not a member" in result.stdout


def test_witness_csv_rejected():
    assert run_cli("witness", "4", "-g", "1", "--format", "csv").returncode == 2


def test_verify_tampered_file(tmp_path):
    path = tmp_path / "w.json"
    run_cli("witness", "6", "-g", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    entries = payload["entries"]
    entries[0] = str(int(entries[0]) + 1)
    path.write_text(json.dumps(payload))
    result = run_cli("verify", str(path))
    assert result.returncode == 1
    assert "symplectic" in result.stdout + result.stderr


def test_verify_order_with_large_prime(tmp_path):
    path = tmp_path / "w.json"
    run_cli("witness", "4", "-g", "1", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["claimed_order"] = str(1000000007 * 1000000009)
    path.write_text(json.dumps(payload))
    result = run_cli("verify", str(path), "--format", "json")
    assert result.returncode == 1
    assert "prime factor above 2g + 1 = 3" in result.stderr
    verdict = json.loads(result.stdout)["result"]
    assert verdict["all_passed"] is False
    assert verdict["reason"] in result.stderr
    text = run_cli("verify", str(path))
    assert text.returncode == 1
    assert "INVALID" in text.stdout


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("verify", str(path)).returncode == 2
    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2


def test_bounds_exit_and_formats():
    result = run_cli("bounds", "--check", "rosser", "--range", "55..100")
    assert result.returncode == 0
    csv_out = run_cli(
        "bounds", "--check", "thm31", "--range", "1..3", "--format", "csv"
    ).stdout
    lines = csv_out.splitlines()
    assert lines[0] == "name,point,lhs,rhs,margin,pass,note"
    assert lines[1].startswith("thm31,1,6,")


def test_bounds_unknown_check():
    result = run_cli("bounds", "--check", "nosuch", "--range", "1..2")
    assert result.returncode == 2
    assert "thm31" in result.stderr  # usage error lists the valid names


def test_bounds_range_required_for_improved_lower():
    result = run_cli("bounds", "--check", "remark-lower")
    assert result.returncode == 2
    assert "--range" in result.stderr


def test_bounds_genus_cap_fails_fast():
    result = run_cli("bounds", "--check", "thm31", "--range", "1..6000")
    assert result.returncode == 2


def test_bounds_unmet_rows_are_not_failures():
    result = run_cli("bounds", "--check", "thm36", "--range", "10..12", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["result"]["failures"] == "0"
    assert payload["result"]["precondition_unmet"] == "3"


def test_repeated_runs_are_byte_identical():
    for args in [
        ("member", "6", "-g", "1", "--format", "json"),
        ("orders", "-g", "3", "--format", "json"),
        ("extremal", "-g", "1..5", "--format", "json"),
        ("witness", "12", "-g", "3", "--format", "json"),
        ("bounds", "--check", "lemma33", "--range", "23..30", "--format", "json"),
    ]:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout, args


@pytest.mark.parametrize(
    "golden, args",
    [
        ("member_6_g1.json", ("member", "6", "-g", "1", "--format", "json")),
        ("extremal_g1_3.json", ("extremal", "-g", "1..3", "--format", "json")),
        (
            "bounds_lemma33_23_25.json",
            ("bounds", "--check", "lemma33", "--range", "23..25", "--format", "json"),
        ),
        ("witness_4_g1.json", ("witness", "4", "-g", "1", "--format", "json")),
        ("witness_5_g2.json", ("witness", "5", "-g", "2", "--format", "json")),
    ],
)
def test_golden_json_schema_stable(golden, args):
    expected = (GOLDEN / golden).read_text()
    assert run_cli(*args).stdout == expected


def test_extremal_table_csv_digest_stable():
    # SHA-256 of the g = 1..1000 table, frozen from the DPs that still
    # special-cased the prime 2
    result = run_cli("extremal", "-g", "1..1000", "--format", "csv")
    assert result.returncode == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == "339d8e24dfce72f42e43bb2d76ee1a4d2b811efc58ad9e6b5a3c514dd0685bc1"


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
