"""End-to-end CLI behavior: exit codes, formats, golden schemas."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
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
    # 9 has no prime above 2g + 1 = 5, so the full cost table is shown
    result = run_cli("member", "9", "-g", "2")
    assert "total cost 6" in result.stdout
    assert "not a member" in result.stdout


def test_member_with_prime_above_bound():
    # 5 > 2g + 1 = 3: no cost table, the reason on stderr
    result = run_cli("member", "5", "-g", "1")
    assert result.returncode == 1
    assert result.stdout == "m = 5, genus = 1, budget = 2\n=> 5 is not a member of S(1)\n"
    reason = "no element of Sp(2,Z) has order 5: it has a prime factor above 2g + 1 = 3"
    assert result.stderr == f"not realizable: {reason}\n"
    for command in ("member", "witness"):
        result = run_cli(command, "5", "-g", "1", "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["command"] == command
        assert payload["result"] == {
            "m": "5",
            "genus": "1",
            "member": False,
            "budget": "2",
            "reason": reason,
        }


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
    assert payload["parameters"] == {"genus": "2", "allow_large": False}
    csv_out = run_cli("orders", "-g", "1", "--format", "csv").stdout
    assert csv_out.splitlines() == ["m", "2", "3", "4", "6"]


def test_orders_cap():
    assert run_cli("orders", "-g", "100").returncode == 2
    assert run_cli("orders", "-g", "1", "--cap", "0").returncode == 2  # no such option
    assert run_cli("orders", "-g", "0", "--allow-large").returncode == 2


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


@pytest.mark.parametrize(
    "flags, skipped",
    [(["--max"], "_order_counts"), (["--count"], "_best_products"), (["--max", "--count"], None)],
)
def test_extremal_runs_only_the_printed_dps(flags, skipped, monkeypatch, capsys):
    from sptorsion import cli, extremal

    def refuse(*args):
        raise AssertionError("a DP ran for a column not printed")

    if skipped:
        monkeypatch.setattr(extremal, skipped, refuse)
    assert cli.main(["extremal", "-g", "1..12", "--format", "csv", *flags]) == 0
    if skipped:  # --oracle compares both columns, so both DPs run
        assert cli.main(["extremal", "-g", "1..12", "--oracle", *flags]) == 3
        assert "a DP ran for a column not printed" in capsys.readouterr().err


def test_extremal_oracle_cap_is_usage_error():
    assert run_cli("extremal", "-g", "1..41", "--oracle").returncode == 2


def test_extremal_oracle_cap_fails_fast(monkeypatch, capsys):
    from sptorsion import cli, extremal

    def dp(*args):
        raise AssertionError("DP run for a range the oracle refuses")

    monkeypatch.setattr(extremal, "_order_counts", dp)
    monkeypatch.setattr(extremal, "_best_products", dp)
    start = time.perf_counter()
    # inside the genus cap, beyond the enumeration cap
    assert cli.main(["extremal", "-g", "1..5000", "--oracle"]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--oracle range ends at 5000, above the cap 40" in err


def test_extremal_genus_cap():
    result = run_cli("extremal", "-g", "5001")
    assert result.returncode == 2
    assert "cap 5000" in result.stderr and "--allow-large" in result.stderr
    assert run_cli("extremal", "-g", "0").returncode == 2
    assert run_cli("extremal", "-g", "3..2").returncode == 2


def test_range_grammar():
    single = run_cli("extremal", "-g", "4", "--format", "csv").stdout
    ranged = run_cli("extremal", "-g", "4..4", "--format", "csv").stdout
    assert single == ranged
    assert run_cli("extremal", "-g", "x..y").returncode == 2
    assert run_cli("extremal", "-g", "").returncode == 2
    empty = run_cli("bounds", "--check", "lemma33", "--range", "")
    assert empty.returncode == 2
    assert "cannot parse range ''" in empty.stderr
    assert empty.stdout == ""


def test_closed_stdout_exits_141_without_a_traceback():
    # far more output than a pipe buffer holds: the writes after the
    # reader has gone fail with EPIPE, and so would the last flush at exit
    child = subprocess.Popen(
        [sys.executable, "-m", "sptorsion.cli", "bounds", "--check", "lemma33",
         "--range", "23..100000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"name,point,lhs,rhs,margin,pass,note\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=300) == 141
    assert err == ""  # no traceback, and nothing from the flush at exit


def test_closed_stdout_before_the_last_flush_exits_141():
    # the output fits in the stream's buffer, so the first write to the
    # closed pipe is the flush that run() makes before its exit
    child = subprocess.Popen(
        [sys.executable, "-m", "sptorsion.cli", "extremal", "-g", "1..3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=300) == 141
    assert err == ""


def test_run_writes_all_of_a_large_table_to_a_pipe(capsys):
    from sptorsion import cli

    argv = ["bounds", "--check", "lemma33", "--range", "23..30000", "--format", "csv"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout) > 10**6
    assert result.stdout == expected


# a script that runs cli.run() with an internal error in the extremal table
_RUN_WITH_A_BUG = (
    "import sys\n"
    "from sptorsion import cli, extremal\n"
    "def bug(*args, **kwargs):\n"
    "    raise RuntimeError('a bug')\n"
    "extremal.extremal_table = bug\n"
    "sys.argv[1:] = ['extremal', '-g', '3']\n"
    "cli.run()\n"
)


def test_run_keeps_every_exit_code():
    # 0, 1 and 2 from main are test_member_exit_codes'; these are argparse's
    # own exits and an internal error
    assert run_cli("--version").returncode == 0
    assert run_cli("member", "6").returncode == 2  # -g is required
    result = subprocess.run(
        [sys.executable, "-c", _RUN_WITH_A_BUG], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 3
    assert "RuntimeError: a bug" in result.stderr


def test_run_writes_the_whole_witness_document(tmp_path, capsys):
    from sptorsion import cli

    argv = ["witness", "6846840", "-g", "30", "--format", "json"]  # h(30): 60 x 60
    in_process, child = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main([*argv, "-o", str(in_process)]) == 0
    expected = capsys.readouterr().out.replace(str(in_process), str(child))
    result = run_cli(*argv, "-o", str(child))
    assert (result.returncode, result.stdout) == (0, expected)
    assert child.read_bytes() == in_process.read_bytes()
    assert len(json.loads(child.read_text())["entries"]) == 60 * 60


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


def test_verify_order_over_budget(tmp_path):
    # 12 has no prime above 2g + 1 = 3 but costs 4 > 2: rejected before
    # any certificate is computed
    path = tmp_path / "w.json"
    run_cli("witness", "6", "-g", "1", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["claimed_order"] = "12"
    path.write_text(json.dumps(payload))
    result = run_cli("verify", str(path), "--format", "json")
    assert result.returncode == 1
    reason = "no element of order 12 exists for genus 1: cost 4 exceeds budget 2 by 2"
    assert result.stderr == f"not realizable: {reason}\n"
    assert json.loads(result.stdout)["result"] == {
        "size": "2",
        "genus": "1",
        "claimed_order": "12",
        "all_passed": False,
        "reason": reason,
    }


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("verify", str(path)).returncode == 2
    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2


def test_witness_output_into_a_missing_directory(tmp_path, capsys):
    from sptorsion import cli

    path = tmp_path / "missing" / "w.json"
    assert cli.main(["witness", "12", "-g", "3", "-o", str(path)]) == 2
    assert f"cannot write {path}" in capsys.readouterr().err
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "field, value, reason",
    [("claimed_order", "1", "claimed order must be >= 2"), ("size", "3", "positive even integer")],
)
def test_verify_refuses_order_1_and_odd_size(field, value, reason, tmp_path, capsys):
    # documents as `witness` writes them, but for an order or size that no
    # witness has
    from sptorsion import cli

    doc = tmp_path / "w.json"
    assert cli.main(["witness", "12", "-g", "3", "-o", str(doc)]) == 0
    payload = json.loads(doc.read_text())
    payload[field] = value
    doc.write_text(json.dumps(payload, indent=2))
    capsys.readouterr()
    assert cli.main(["verify", str(doc)]) == 2
    assert reason in capsys.readouterr().err


# one field of the document of `witness 12 -g 3` at a time: its path and
# the forged value (entries[14] is "1")
FORGERIES = {
    "entry-1.7": (("entries", 14), 1.7),
    "entry-true": (("entries", 14), True),
    "entry-padded": (("entries", 14), " 1 "),
    "order-underscored": (("claimed_order",), "1_2"),
    "order-12.9": (("claimed_order",), 12.9),
    "genus-9": (("genus",), "9"),
    "size-6.5": (("size",), 6.5),
    "format": (("format",), "symplectic-witnesses"),
    "version": (("version",), "2"),
    "symplectic-no": (("certificate", "symplectic"), "no"),
}


@pytest.mark.parametrize("path, value", FORGERIES.values(), ids=FORGERIES.keys())
def test_verify_refuses_documents_witness_never_writes(path, value, tmp_path, capsys):
    from sptorsion import cli

    doc = tmp_path / "w.json"
    assert cli.main(["witness", "12", "-g", "3", "-o", str(doc)]) == 0
    assert cli.main(["verify", str(doc)]) == 0
    payload = json.loads(doc.read_text())
    *keys, last = path
    field = payload
    for key in keys:
        field = field[key]
    field[last] = value
    doc.write_text(json.dumps(payload, indent=2))
    capsys.readouterr()
    assert cli.main(["verify", str(doc)]) == 2
    assert "malformed witness document" in capsys.readouterr().err


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
    # without --range the name is looked up before any default range
    for range_args in [("--range", "1..2"), ()]:
        result = run_cli("bounds", "--check", "nosuch", *range_args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "thm31" in result.stderr  # usage error lists the valid names


def test_bounds_range_required_for_improved_lower():
    result = run_cli("bounds", "--check", "remark-lower")
    assert result.returncode == 2
    assert "--range" in result.stderr


def test_bounds_genus_cap_fails_fast():
    result = run_cli("bounds", "--check", "thm31", "--range", "1..6000")
    assert result.returncode == 2
    assert result.stderr == (
        "error: thm31 range ends at 6000, above the cap 5000; "
        "pass --allow-large to lift it\n"
    )


# every command that takes a range or a genus, and its cap: 5000 where the
# points are genera for a DP (lemma34 and lemma35 included), 40 where S(g)
# is listed, 500 for a witness matrix, 10^6 where the points are x or n
CAPS = (
    dict.fromkeys(
        ["extremal", "thm31", "cor32", "remark-upper", "thm36", "cor37", "remark-lower"]
        + ["lemma34", "lemma35"],
        5000,
    )
    | dict.fromkeys(["lemma33", "dusart-sum", "dusart-pi", "dusart-product", "rosser"], 10**6)
    | {"orders": 40, "extremal --oracle": 40, "witness": 500}
)


@pytest.mark.parametrize("name", sorted(CAPS))
def test_cap_gate(name, monkeypatch, capsys):
    from sptorsion import bounds, cli, criterion, extremal, witness

    assert set(CAPS) == {"extremal", "extremal --oracle", "orders", "witness", *bounds.CHECK_NAMES}
    assert set(cli.CAPS.values()) == set(CAPS.values())
    small_witness = witness.build_witness(4, 1)

    def built(*args):
        raise AssertionError("DP, sieve, primorial, enumeration or matrix built for a refused range")

    for target, attr in [
        (extremal, "_order_counts"),
        (extremal, "_best_products"),
        (extremal, "sieve"),
        (bounds, "sieve"),
        (bounds, "primorial"),
        (criterion, "enumerate_orders"),
        (extremal, "brute_force_extremal"),
        (witness, "build_witness"),
        (witness, "membership"),
    ]:
        monkeypatch.setattr(target, attr, built)

    def argv(hi, *flags):
        if name in ("extremal", "extremal --oracle"):
            return ["extremal", "-g", str(hi), *name.split()[1:], *flags]
        if name == "orders":
            return ["orders", "-g", str(hi), *flags]
        if name == "witness":
            return ["witness", "2", "-g", str(hi), *flags]
        return ["bounds", "--check", name, "--range", f"{hi}..{hi}", *flags]

    cap = CAPS[name]
    start = time.perf_counter()
    assert cli.main(argv(cap + 1)) == 2
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {name} range ends at {cap + 1}, above the cap {cap}; "
        "pass --allow-large to lift it\n"
    )
    # the cap itself is admitted, and --allow-large lifts the cap
    calls = []
    # the table's column flags are keywords
    monkeypatch.setattr(extremal, "extremal_table", lambda *a, **columns: calls.append(a) or [])
    monkeypatch.setattr(bounds, "run_check", lambda *a: calls.append(a) or iter(()))
    monkeypatch.setattr(criterion, "enumerate_orders", lambda *a: calls.append(a) or [])
    monkeypatch.setattr(witness, "build_witness", lambda *a: calls.append(a[1:]) or small_witness)
    assert cli.main(argv(cap)) == 0
    assert cli.main(argv(cap + 1, "--allow-large")) == 0
    if name in ("orders", "witness"):
        assert calls == [(cap,), (cap + 1,)]
    else:
        point = () if name.startswith("extremal") else (name,)
        assert calls == [(*point, cap, cap), (*point, cap + 1, cap + 1)]


def test_member_trial_division_cap(capsys):
    # a prime near 10^24 at genus 10^12 would be trial-divided up to 10^12
    from sptorsion import cli

    start = time.perf_counter()
    assert cli.main(["member", str(10**24 + 7), "-g", str(10**12)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: member trial division range ends at {10**12}, above the cap {cli.CAPS['trial']}; "
        "pass --allow-large to lift it\n"
    )
    # a prime near 10^13 needs trial division up to its square root, 3162277
    argv = ["member", "10000000000037", "-g", str(10**12), "--format", "json"]
    assert cli.main(argv) == 2
    assert "ends at 3162277, above the cap" in capsys.readouterr().err
    assert cli.main([*argv, "--allow-large"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["result"]["member"] is False
    assert "prime factor above 2g + 1" in err
    # smooth orders, and a cofactor whose square root is the cap, answer at once
    start = time.perf_counter()
    assert cli.main(["member", "6", "-g", str(10**12)]) == 0
    assert cli.main(["member", str(2**200), "-g", str(10**12)]) == 1
    assert cli.main(["member", str(3 * 1000000000039), "-g", str(10**12)]) == 0
    assert time.perf_counter() - start < 1
    assert "member of S(1000000000000)" in capsys.readouterr().out


def test_member_past_the_trial_cap_divides_once(monkeypatch, capsys):
    # past the trial cap, m is trial-divided once, up to the cap: what is
    # left, 1000000000039, has its square root within the cap and is prime
    from sptorsion import cli, criterion, numtheory

    factor, passes = numtheory.factor, []

    def counted(m, limit):
        passes.append((m, limit))
        return factor(m, limit)

    monkeypatch.setattr(numtheory, "factor", counted)
    monkeypatch.setattr(criterion, "factor", counted)
    assert cli.main(["member", "3000000000117", "-g", str(10**12)]) == 0
    assert passes == [(3000000000117, cli.CAPS["trial"])]
    assert capsys.readouterr() == (
        "m = 3000000000117, genus = 1000000000000, budget = 2000000000000\n"
        "prime  exponent  cost\n"
        "    3         1     2\n"
        "1000000000039         1  1000000000038\n"
        "total cost 1000000000040 <= budget 2000000000000: True\n"
        "=> 3000000000117 is member of S(1000000000000)\n",
        "",
    )


@pytest.mark.parametrize(
    "m, g",
    [
        (3000000000117, 10**12),  # a prime cofactor below 2g + 1: a term
        (1000000000039, 10**6),  # a prime cofactor above 2g + 1: not a member
        (2 * 1000000000039, 10**6),
        (2**5 * 999983**2, 10**6),  # no cofactor
        (3 * 999983 * 1000003, 10**6),  # a prime cofactor just above the cap
    ],
)
def test_member_past_the_trial_cap_decides_as_membership(m, g):
    from sptorsion import cli
    from sptorsion.criterion import membership

    assert cli._capped_membership(m, g, False) == membership(m, g)


@pytest.mark.parametrize(
    "check", ["lemma33", "dusart-sum", "dusart-pi", "dusart-product", "rosser"]
)
def test_bounds_x_cap_fails_fast(check, capsys):
    from sptorsion import cli

    start = time.perf_counter()
    argv = ["bounds", "--check", check, "--range", "23..2000000000", "--format", "csv"]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert "cap 1000000" in err


@pytest.mark.parametrize(
    "check",
    ["lemma34", "lemma35", "thm31", "cor32", "remark-upper", "thm36", "cor37", "remark-lower"],
)
def test_bounds_lemma_genus_cap_fails_fast(check, capsys):
    from sptorsion import cli

    start = time.perf_counter()
    argv = ["bounds", "--check", check, "--range", "113..1000000000000", "--format", "csv"]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert "cap 5000" in err and "--allow-large" in err


@pytest.mark.parametrize(
    "error", [AssertionError("sieve limit too small"), KeyError("x"), ZeroDivisionError()]
)
def test_internal_error_exits_3_with_traceback(error, monkeypatch, capsys):
    from sptorsion import bounds, cli

    def broken(lo, hi):
        raise error
        yield

    entry = bounds.CHECK_NAMES["rosser"]._replace(sweep=broken)
    monkeypatch.setitem(bounds.CHECK_NAMES, "rosser", entry)
    for fmt in ("text", "json", "csv"):  # nothing is written before the first row
        start = time.perf_counter()
        argv = ["bounds", "--check", "rosser", "--range", "55..60", "--format", fmt]
        assert cli.main(argv) == cli.EXIT_INTERNAL == 3
        assert time.perf_counter() - start < 0.1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert type(error).__name__ in err


def _buffered_bounds_json(name, lo, hi, reports):
    """The bounds envelope built whole, as one json.dumps."""
    from sptorsion.bounds import report_to_dict

    rows = [report_to_dict(r) for r in reports]
    envelope = {
        "command": "bounds",
        "parameters": {"check": name, "range": f"{lo}..{hi}", "allow_large": False},
        "result": {
            "reports": rows,
            "total": str(len(rows)),
            "failures": str(sum(row["pass"] is False for row in rows)),
            "precondition_unmet": str(sum(row["pass"] is None for row in rows)),
        },
        "format": "json",
    }
    return json.dumps(envelope, indent=2) + "\n"


def test_bounds_json_streams_the_buffered_envelope(capsys):
    from sptorsion import cli
    from sptorsion.bounds import run_check

    # two rows a point, and the lower direction unmet below 599
    argv = ["bounds", "--check", "dusart-pi", "--range", "2..700", "--format", "json"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    expected = _buffered_bounds_json("dusart-pi", 2, 700, run_check("dusart-pi", 2, 700))
    assert '"precondition_unmet": "597"' in expected
    assert out == expected


def test_bounds_json_without_rows(monkeypatch, capsys):
    from sptorsion import bounds, cli

    entry = bounds.CHECK_NAMES["rosser"]._replace(sweep=lambda lo, hi: iter(()))
    monkeypatch.setitem(bounds.CHECK_NAMES, "rosser", entry)
    assert cli.main(["bounds", "--check", "rosser", "--range", "55..60", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert out == _buffered_bounds_json("rosser", 55, 60, [])


def test_bounds_csv_without_rows(monkeypatch, capsys):
    from sptorsion import bounds, cli

    entry = bounds.CHECK_NAMES["rosser"]._replace(sweep=lambda lo, hi: iter(()))
    monkeypatch.setitem(bounds.CHECK_NAMES, "rosser", entry)
    assert cli.main(["bounds", "--check", "rosser", "--range", "55..60", "--format", "csv"]) == 0
    out, _ = capsys.readouterr()
    assert out == "name,point,lhs,rhs,margin,pass,note\n"


def test_bounds_json_keeps_no_rows(monkeypatch):
    # the modules the check loads on first use, imported before any tracing,
    # so that neither traced run counts their import
    from sptorsion import bounds, cli, reals  # noqa: F401

    def peak(fmt):
        argv = ["bounds", "--check", "rosser", "--range", "55..20000", "--format", fmt]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak("json") < 2 * peak("csv")


def test_extremal_json_keeps_no_text(monkeypatch):
    from sptorsion import cli

    def peak(fmt):
        argv = ["extremal", "-g", "1..1500", "--format", fmt]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak("json") < 2 * peak("csv")


def test_witness_json_streams_the_buffered_document(tmp_path, capsys):
    from sptorsion import cli
    from sptorsion.witness import build_witness, witness_to_dict, witness_to_json

    path = tmp_path / "w.json"
    # 42 x 42 entries, written in more than one batch, and a 4 x 4 matrix
    for m, g in ((43, 21), (4, 2)):
        assert cli.main(["witness", str(m), "-g", str(g), "-o", str(path), "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        witness = build_witness(m, g)
        assert path.read_text() == witness_to_json(witness)
        envelope = {
            "command": "witness",
            "parameters": {"m": str(m), "genus": str(g)},
            "result": {"built": True, "witness": witness_to_dict(witness), "path": str(path)},
            "format": "json",
        }
        assert out == json.dumps(envelope, indent=2) + "\n"


def test_witness_json_keeps_no_document_text(monkeypatch, tmp_path):
    from sptorsion import cli

    def peak(*options):
        argv = ["witness", "2", "-g", "150", *options]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    text = peak()
    assert peak("--format", "json") < 1.2 * text
    assert peak("-o", str(tmp_path / "w.json")) < 1.2 * text


def test_bounds_allow_large_lifts_x_cap():
    # just past the cap: refused by default, run with --allow-large
    args = ("bounds", "--check", "rosser", "--range", "1000000..1000001")
    assert run_cli(*args).returncode == 2
    result = run_cli(*args, "--allow-large", "--format", "csv")
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 3


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


# SHA-256 of `member m -g g` stdout, stderr and exit code, text then JSON,
# for every m in 2..3000 whose primes are all <= 2g + 1, ascending m;
# frozen from the code that still factored every order without bound
MEMBER_DIGESTS = {
    1: (51, "f18a89323e64c7e5788316979e9a132b3dc86709e4dbdf5edd1b54a5e4e78193"),
    2: (122, "83c491ffc056f0e98769e8761b93d77becce3acf4688c2fd96420086af9915c8"),
    3: (218, "cb1c893ebf191f15bc1503199aba9675903f496e98503d4fd6f3942e1ad1acbc"),
    4: (218, "653409047e0808dd081b8200aaafdeab8371c62a00e1b8380a1527def27f9a4a"),
    5: (316, "631796fa3bf014b5d592ae75c61e489abbb1fecfb76408d1ae2a16ab44e3595e"),
    6: (420, "346aac41985f3090c5258c265041fe27be7b578ca4d33125d27893c67b2fe01b"),
    7: (420, "c5631bdf1ddf3df06fe1282ab033f5156bb60b21b20cdb23f61952be582bd216"),
    8: (520, "c984d1984152bb71493bef0335f6ddbad776f322e19d6411f869e4b48c8083da"),
}


def test_member_outputs_frozen_g1_8(capsys):
    sympy = pytest.importorskip("sympy")
    from sptorsion import cli

    for g, (expected_count, expected) in MEMBER_DIGESTS.items():
        digest = hashlib.sha256()
        count = 0
        for m in range(2, 3001):
            if max(sympy.primefactors(m)) > 2 * g + 1:
                continue
            count += 1
            for fmt in ("text", "json"):
                code = cli.main(["member", str(m), "-g", str(g), "--format", fmt])
                out, err = capsys.readouterr()
                digest.update(f"{out}{err}exit {code}\n".encode())
        assert count == expected_count, g
        assert digest.hexdigest() == expected, g


# SHA-256 of `bounds --check C --range R --format F` stdout. The first window
# of each check was frozen while rows held eager Fractions and every long
# value was printed by mpmath's to_str; the windows from rosser 1..100 on,
# which straddle every other validity threshold, while each sweep wrote its
# own precondition-unmet rows
BOUNDS_DIGESTS = {
    ("rosser", "22090..23089", "csv"): "9248df116c1e47a1e3ed08eed07b358ef01f91e86c74a9350c2aff7cd00262a5",
    ("rosser", "22090..23089", "text"): "aa27781feb196f240fabe8b1d644b7c739b362a83540a89a490e1b827915df32",
    ("rosser", "22090..23089", "json"): "b92ae6d8a4cb8bab55fcc11caf578b687fcf705b277cf1a5375e0502ddd460ca",
    ("dusart-pi", "2..1200", "csv"): "7720e21bf4917196b3f6c9ceb60e6e0c7aa61f4c54aa5db6bf477cdbeeb2dff2",
    ("dusart-pi", "2..1200", "text"): "3fb6d6fdce7dfe9acafe55af488faa2653aa4771836fdde569f661efd5f8cb07",
    ("dusart-pi", "2..1200", "json"): "ab654a11014c90b8211574a99ec7f11c8b4ac8e5cf5f016537d447082445f59b",
    ("dusart-product", "2900..4000", "csv"): "86f7baaa452ecc1f833eeaf48be239aebafa53f6e858263d671941eaed75abd0",
    ("dusart-product", "2900..4000", "text"): "04929035e2f00eee72ecbdcca240b5645dd82816dc17f426944907fc201bd398",
    ("dusart-product", "2900..4000", "json"): "199d5f4d7a3b297df048a7115f05057941187290e7b9ab1b1973cbe29413285f",
    ("lemma33", "1..3000", "csv"): "f569a6bf94d4c234993bebb7d0186e96bafe9f8db9c8dd47729b9d94d66a5909",
    ("lemma33", "1..3000", "text"): "ab94971a42713a4eece6f54ce6644415c8660a866c7ea19f8fc719c4cc3274de",
    ("lemma33", "1..3000", "json"): "cbf4da0bcf8d51139f5293747dcf5da9dbf01e3dcc11355b7817ab2112f67768",
    ("dusart-sum", "1..2000", "csv"): "87f516d2be823506de25c6e82eeeb89b9b529a319d54e18640c620cb7b9be4ec",
    ("dusart-sum", "1..2000", "text"): "e903a4da0163df7854ee48c1bca3700b626686beed68e6e00eee19748062036b",
    ("dusart-sum", "1..2000", "json"): "3c443d90afe3b56c1b5f86e6636a1621fd50a649ccce3099cf9703938cbce103",
    ("lemma34", "110..130", "csv"): "0876e469070fa5f5c7a63305928ab66d32298ba87c43c67b4259a5923d7ed7c9",
    ("lemma34", "110..130", "text"): "c91d4ecb4c78ce8d30e52a1d013e018efb1bcbfcedd3812bfad261cece337ef9",
    ("lemma34", "110..130", "json"): "c40a09c8229e1575cd09ac17f0469f08c53fb48c8960bb3c321c066cf676eef5",
    ("lemma35", "110..130", "csv"): "b8cf5ce43144a924fe81787c5a0fd04be0137d51591c2aedcd8de990ad95a507",
    ("lemma35", "110..130", "text"): "a3def10bff7214da78deecc4192e8755e3615d630f184fdf04f44c0bf3728858",
    ("lemma35", "110..130", "json"): "f0b8b8f2677bbce4a39f7384a22d2545d812cdb3fcbba76b24b9e652f69562ca",
    ("cor32", "1..100", "csv"): "69768d2dcdc75d1a1a80965b2161144ff48c10623abfbfe072ee5dff627ff237",
    ("cor32", "1..100", "text"): "6bab694c372988a0200bb8207e43b7d477b31d666a63b973577778b1292a016e",
    ("cor32", "1..100", "json"): "0a98102b07fdbfe22fa7b5072a5d79a0214273ab6697e47361400951b322ba95",
    ("thm31", "1..100", "csv"): "893f59414c168bfe05e3bf3fb23465201c9d657147668d3e96e93900b439d513",
    ("thm31", "1..100", "text"): "cb9e7c16d75380427afd4d83f89bc56c0bef0e5660ec9f146a1d9c5eaefd1de5",
    ("thm31", "1..100", "json"): "f9f4f98e1bc5ad8d70fed6b1ae67e7eb266e4af0403947c74675bdb405058d29",
    ("rosser", "1..100", "csv"): "2e74f05035912e2c1597ad9029821028a54c0ebe2f3604076fc6a36aefc6a5a7",
    ("rosser", "1..100", "text"): "cbaae44b9ac59ffad37a62e1ecb75b5277757cca28093dfbf3f519a2c57ca9ff",
    ("rosser", "1..100", "json"): "bdb4ab347f92ac0bc3be935a9c38604cc2bb67b8b9b3bc7d88c852bc23684076",
    ("thm36", "480..495", "csv"): "dc79e0efa72aef6e96cb9148e0f3078e0530d6cf6f840b91d5a4c7dfdad6c4f1",
    ("thm36", "480..495", "text"): "e281ba5b24e49ba2c4e5945591ab792981b77d2a1b1ed002a23ad939f061d20a",
    ("thm36", "480..495", "json"): "225eb5fd234c2c5d0332b8ae1a5d338b44d5e6e8e1a91dc7707b0d7c8b73f12a",
    ("cor37", "480..495", "csv"): "b9abc566ece688a5b0b7e9e4c1c30a99db0b747ebd001e5996d6e4c1b6289819",
    ("cor37", "480..495", "text"): "4863ed412161fce9fd77478ab475b55931e33df2ee7f451b0b260c03b3aabfe7",
    ("cor37", "480..495", "json"): "5466c9e6fd1617a104d9f651372dc515480d8b1074ba8aa7fc4be1f0b4715051",
    ("remark-upper", "1480..1490", "csv"): "3365762a49ccdd5484f299ac544f1b2676b968ad62ef648c3f2872c0e36043ae",
    ("remark-upper", "1480..1490", "text"): "3c69e2fd4e6d86e3328d2504dea7cf2d0d35652db4f35a00d639cf6703346f6e",
    ("remark-upper", "1480..1490", "json"): "d683d0c8654dbdbd71fa5e29ced8a89c5eb6471390e76dc3eac71825474e34e7",
    ("dusart-pi", "1..5", "csv"): "1eb5828a74a3cae258fb667661ad267b3dee32da971e61bd0c8951a4ad97bd76",
    ("dusart-pi", "1..5", "text"): "78448e78c1536415515710b7326036fbab45904e1186a7256fa636286ed67b46",
    ("dusart-pi", "1..5", "json"): "d705ccdb82198e7d97e65c77fc5d4b1cad7d3c6ad47d2eddb22e918fb402493f",
    ("remark-lower", "1..3", "csv"): "528e51a49c8380407a4882a15c1d1da81146dbfd321cfd1e8c5fbf05cc3c43ba",
    ("remark-lower", "1..3", "text"): "3fc9060b61a149683399420f93b8a730ffc845c70898614089924863fa00f14f",
    ("remark-lower", "1..3", "json"): "eb1831e0ec5fa3d6b58ae53118f71ddf8e6abc5442b1ca1270fdebd701efb466",
    ("remark-lower", "4998..5000", "csv"): "5870c44a6e94fc6a7e7010630c4d495ed110ed10b8b9aa6f56b940b70b3b0608",
    ("remark-lower", "4998..5000", "text"): "9efe99e510f9144b680978fbfa7ca11d23bc6566ceb6f59fc47c02906ce083d7",
    ("remark-lower", "4998..5000", "json"): "37648512dd1c14ad66d4b99ed9022609e412e362ad125834cffbe14184d82d5d",
}


@pytest.mark.parametrize("check, window, fmt", sorted(BOUNDS_DIGESTS))
def test_bounds_outputs_frozen(check, window, fmt, capsys):
    from sptorsion import cli

    assert cli.main(["bounds", "--check", check, "--range", window, "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_DIGESTS[check, window, fmt]


# SHA-256 of `bounds --check C --format csv` on the check's default range
# (no --range): thm31 on 1..300 and remark-upper on 1486..1500, whose right
# sides from g = 37 on print as integers, every one of their 169 bits.
# Recorded while the product check still kept its exact running product and
# the printer could still hand a value to mpmath's to_str
DEFAULT_RANGE_DIGESTS = {
    "thm31": "25c7f9a3253312d10a375e52bc7e001e9a48588f32f04a9561bf75567388114b",
    "remark-upper": "10135e4a7cc2184f2021655a62e858cba694afd8323df39986050ce471661141",
}


@pytest.mark.parametrize("check", sorted(DEFAULT_RANGE_DIGESTS))
def test_bounds_default_range_frozen(check, capsys):
    from sptorsion import cli

    assert cli.main(["bounds", "--check", check, "--format", "csv"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_RANGE_DIGESTS[check]


# SHA-256 of stdout, stderr and exit code, in-process, for the commands no
# other digest pins; `orders` runs g = 1..8 in turn. Each runs in a directory
# holding w.json, the document of `witness 12 -g 3 -o w.json`, and forged.json,
# that document with its first entry raised by one. Frozen while the CLI had
# three ways to write JSON. 9 is over its budget at g = 2; 77 has the prime
# 11 above 2g + 1 = 7.
OUTPUT_DIGESTS = {
    "member 77 -g 3 --format text": "146a35700a05d419214a3f73fe068bb482b194b7e30bb11333c9b70825fbe0e4",
    "member 77 -g 3 --format csv": "b60332db233ae287017a96b4a2b6dd0fd5da3a7ed9f331afc69957a8f0b7c6b5",
    "member 77 -g 3 --format json": "22c8f0db89bad8a3dbe5a9b2c17ac30c46801b550f88dfe0cf9b8c6ca758ed78",
    "member 9 -g 2 --format csv": "d4de1e6b21e6535bcf5f80499987c40396923506f7679f54e4d8d81888a1d3b5",
    "orders -g 1..8 --format text": "f72a7cfcdeb234015b8df4243ed8a16fff25a04a612319ccc1dc67fafa748871",
    "orders -g 1..8 --format csv": "7bdd86a3a61653788f6b2cfeb0fc6e1c91782f761224e6701c3c1504c010bdc0",
    "orders -g 1..8 --format json": "f43fe515f37e430326a4cd031ed57dbf83f363b42aa6f9d13811e3c037e2a699",
    "extremal -g 1..60 --format text": "6f3f078de473e00205ed0039174b6f60e3ce2d797b6345ab87b898a96916a4de",
    "extremal -g 1..60 --format csv": "64a1184ae5b06fd2f1b4f3decd612e4e4dccdb810ab9b29db872c4b22b519e26",
    "extremal -g 1..60 --format json": "afe0c16bded273755425ce762fc1ed8e5e3bd5541f6072fd798a51434afd58cf",
    "extremal -g 1..12 --count --format text": "ebfa32c6c56f0c31a112af279f7a9e962a2225cb29ed6b2b0a99be2bddefb969",
    "extremal -g 1..12 --count --format csv": "a52c4023bd43676d9c49a2077414ec8d7c0ec92f78e37310c1181d774d2defe3",
    "extremal -g 1..12 --count --format json": "5d5df9db0130fbc40f57c0e876abe877b255ebdc4259dc5aa5627aceae483bd3",
    "extremal -g 1..12 --max --format text": "df10ded679d586e7b08c86a857fef4f17c78e6583f6e4924d7ef22c21dee9240",
    "extremal -g 1..12 --max --format csv": "757d5bde247d5cbbb9e0f831d056d60bae0498f3461dabc1a3b48950801bb5ca",
    "extremal -g 1..12 --max --format json": "d041e5bda591595a564e6e9ffd13d0b9ccefc8cce7e26b2c8f39520c02b7d328",
    "extremal -g 1..12 --oracle --format text": "b7557441af33cc0e8c2122df5018a5b6ab2cdab384e50af479ac1f07aa875fbe",
    "extremal -g 1..12 --oracle --format csv": "4ce7b49ba359014299802fcbc64c91006c2914d80cc60486e2ef1d8ed1261305",
    "extremal -g 1..12 --oracle --format json": "281dc7b4dc370ac9892b4d3ee855e620e4324b98bdae53af2e6a8f4514fcc605",
    "witness 12 -g 3 --format text": "09f3c7adfa1da2b130b127c1a8be21fd618504a527e04a99b37256aed249e115",
    "witness 12 -g 3 --format json": "f3e61509d795b5acf6f174ee5f2214cf8a9ae710c8f0450cf5876eb7505af955",
    "witness 9 -g 2 --format text": "17af70a1f02b29085d17005a45b984c1d5e41b5572ea8e057fe7f18a7f2e75c3",
    "witness 9 -g 2 --format json": "561f1e8a3756900ab311ba1e4f8765f8c39a82641ca969995d18bf6396c8aef5",
    "witness 77 -g 3 --format text": "146a35700a05d419214a3f73fe068bb482b194b7e30bb11333c9b70825fbe0e4",
    "witness 77 -g 3 --format json": "02901a29a4bb0a2806a359072b2f7e169c5fb55d738119958efa365f2fa8bc06",
    "witness 12 -g 3 -o out.json --format text": "31bc80aee919b6892471e6195e022c3b9ca46c2d530634c857d89b512a1a0a34",
    "witness 12 -g 3 -o out.json --format json": "1cc4938a9e57a9cce99fac2c216a34c7f64dffeb2eea9bdc7b1edb3acdb8e802",
    "verify w.json --format text": "cff5f5fa21ee8a9c520491d5da29aadf28ca81489155452ab6c334fe97bc7fde",
    "verify w.json --format json": "ea4f6f8c21e2aa422b4e9ac529267be1231a7d8bc8b4be7671511cc0fa038a85",
    "verify forged.json --format text": "bfdd0fbec2603219ca958773f5c9185ad10b6ce4528bc0a676821731ec6b34ec",
    "verify forged.json --format json": "f07d71c8945755a5a6ce92ec1ee60e1024eb5288787cb958d78d133b652d0160",
}


def _frozen_argvs(command):
    """The argv lists of one OUTPUT_DIGESTS key, run in turn."""
    argv = command.split()
    if argv[0] == "orders":
        return [["orders", "-g", str(g), *argv[3:]] for g in range(1, 9)]
    return [argv]


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_outputs_frozen(command, tmp_path, monkeypatch, capsys):
    from sptorsion import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["witness", "12", "-g", "3", "-o", "w.json"]) == 0
    payload = json.loads(Path("w.json").read_text())
    payload["entries"][0] = str(int(payload["entries"][0]) + 1)
    Path("forged.json").write_text(json.dumps(payload))
    capsys.readouterr()
    digest = hashlib.sha256()
    for argv in _frozen_argvs(command):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        digest.update(f"{out}{err}exit {code}\n".encode())
    assert digest.hexdigest() == OUTPUT_DIGESTS[command]


# SHA-256 of stdout, stderr and exit code of `extremal -g 1..3 --oracle`
# with an oracle that is wrong about h(2); recorded on the writers the
# digests above were
ORACLE_MISMATCH_DIGESTS = {
    "text": "82a2e42ea85c36e3caa9ed41d063b1d996b42d2807fbb00202e1338b48a92df2",
    "csv": "6f7cadefdd2b5b03ce54ba0164cac034659a241bf5e2a8d616c02be005237ffd",
    "json": "9ba96d9381bd5a3443e30a44178eb5f5c1d7bf3fbcc5d4fa7cb36b4e9db9e022",
}


@pytest.mark.parametrize("fmt", sorted(ORACLE_MISMATCH_DIGESTS))
def test_extremal_oracle_mismatch_frozen(fmt, monkeypatch, capsys):
    from sptorsion import cli, extremal

    oracle = extremal.brute_force_extremal

    def wrong(g):
        record = oracle(g)
        return record._replace(h=record.h + 1) if g == 2 else record

    monkeypatch.setattr(extremal, "brute_force_extremal", wrong)
    code = cli.main(["extremal", "-g", "1..3", "--oracle", "--format", fmt])
    out, err = capsys.readouterr()
    assert err == "oracle mismatch at g = 2: dp (f, h) = (8, 12), enumeration (f, h) = (8, 13)\n"
    digest = hashlib.sha256(f"{out}{err}exit {code}\n".encode()).hexdigest()
    assert digest == ORACLE_MISMATCH_DIGESTS[fmt]


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0


# the modules a command may not load, by command: bounds belongs to
# `bounds` alone, the raw-mpf layer (reals, and mpmath's libmp files under
# sptorsion._libmp) to the bound checks that evaluate a real (`bounds
# --check rosser` may load it; lemma33, dusart-sum and cor32, whose rows are
# integers alone, may not), and fractions to no command: dusart-product's
# displayed left side is a float until a caller reads the row's lhs;
# matrices and witness belong to witness/verify, and no command needs the
# mpmath package (its contexts and function library, some 3 MB), or
# dataclasses or inspect (with ast, dis and tokenize behind them, over 1 MB
# of every process that loads them)
HEAVY = ["fractions", "sptorsion.bounds", "sptorsion.reals", "sptorsion._libmp"]
INTEGER_ROWS = ["sptorsion.reals", "sptorsion._libmp", "fractions"]
NEVER = ["mpmath", "dataclasses", "inspect"]
WITNESS = ["sptorsion.witness", "sptorsion.matrices"]
# json and csv are loaded by the writers that use them alone, so neither
# --version nor a text-format table loads them
WRITERS = ["json", "csv"]
FOOTPRINT_FORBIDDEN = {
    "--version": HEAVY + NEVER + WITNESS + WRITERS,
    "witness": HEAVY + NEVER,
    "verify": HEAVY + NEVER,
    "member": HEAVY + NEVER + WITNESS + WRITERS,
    "orders": HEAVY + NEVER + WITNESS + WRITERS,
    "extremal": HEAVY + NEVER + WITNESS + WRITERS,
    "bounds": ["fractions"] + NEVER + WITNESS + WRITERS,
    "bounds dusart-product": ["fractions"] + NEVER + WITNESS + WRITERS,
    "bounds lemma33": INTEGER_ROWS + NEVER + WITNESS + WRITERS,
    "bounds dusart-sum": INTEGER_ROWS + NEVER + WITNESS + WRITERS,
    "bounds cor32": INTEGER_ROWS + NEVER + WITNESS + WRITERS,
}


def loaded_modules(*args):
    """The sorted sys.modules of a fresh process after cli.main(args)."""
    script = (
        "import sys\n"
        "from sptorsion import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('-- modules --', *sorted(sys.modules), sep='\\n')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    # the command's own output comes first
    return result.stdout.rpartition("-- modules --\n")[2].splitlines()


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare interpreter (`python -c pass`, same environment) has
    loaded already: a site hook may bring in modules no command asks for."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines())


def test_version_loads_no_submodule():
    loaded = loaded_modules("--version")
    assert "sptorsion" in loaded
    assert [m for m in loaded if m.startswith("sptorsion.")] == ["sptorsion.cli"]


@pytest.mark.parametrize("command", sorted(FOOTPRINT_FORBIDDEN))
def test_command_import_footprint(command, tmp_path, bare_modules):
    document = tmp_path / "w.json"
    argv = {
        "--version": ["--version"],
        "witness": ["witness", "12", "-g", "3", "-o", str(document)],
        "verify": ["verify", str(document)],
        "member": ["member", "12", "-g", "2"],
        "orders": ["orders", "-g", "3"],
        "extremal": ["extremal", "-g", "1..5"],
        "bounds": ["bounds", "--check", "rosser", "--range", "55..60"],
        "bounds dusart-product": ["bounds", "--check", "dusart-product", "--range", "2970..3100"],
        "bounds lemma33": ["bounds", "--check", "lemma33", "--range", "20..30"],
        "bounds dusart-sum": ["bounds", "--check", "dusart-sum", "--range", "5..30"],
        "bounds cor32": ["bounds", "--check", "cor32", "--range", "1..5"],
    }[command]
    if command == "verify":
        assert run_cli("witness", "12", "-g", "3", "-o", str(document)).returncode == 0
    loaded = loaded_modules(*argv)
    assert ("sptorsion.cli" if command == "--version" else "sptorsion.criterion") in loaded  # it ran
    forbidden = set(FOOTPRINT_FORBIDDEN[command]) - bare_modules
    assert [m for m in loaded if m in forbidden] == []
    if command in ("bounds", "bounds dusart-product"):
        # the scan would see a real check's raw-mpf layer
        assert {"sptorsion.reals", "sptorsion._libmp.libelefun"} <= set(loaded)


def test_real_checks_need_mpmath_and_integer_checks_do_not():
    # without mpmath, a check that evaluates a real is an internal error
    # (exit 3, with its traceback), and an integer-row check still runs
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from sptorsion import cli\n"
        "try:\n"
        "    import sptorsion.reals\n"
        "except ModuleNotFoundError as exc:\n"
        "    assert exc.name == 'mpmath' and 'mpmath' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('sptorsion.reals imported without mpmath')\n"
        "assert cli.main(['bounds', '--check', 'rosser', '--range', '55..60']) == 3\n"
        "assert cli.main(['bounds', '--check', 'lemma33', '--range', '20..30']) == 0\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "ModuleNotFoundError: No module named 'mpmath'" in result.stderr


def test_readme_library_example():
    # every line of the README's library block runs, and each comment
    # starts with the repr of the value on its left
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
        elif code.strip():
            assert comment.strip().startswith(repr(eval(code, namespace))), line
            checked += 1
    assert checked == 7
