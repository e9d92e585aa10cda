"""sptorsion benchmark: CLI end to end, plus a traced per-layer run.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop: one client, one CLI process at a time):

  sweeps   the `extremal` table, the genus bound checks (count/max DPs) and
           the x-indexed bound checks (RHS evaluation, exact compare, row
           rendering)
  witness  `witness` build then `verify`, certify-heavy and block-heavy

The seed picks each workload's inputs inside fixed classes (workloads.py).
Every command runs as `python -m sptorsion.cli ...` with PYTHONPATH set to
this tree's src/ and without SPTORSION_CACHE_DIR, and is checked
(checks.py); a wrong exit code, a failed check, a changed output between
repetitions or a timeout counts as a failed operation.

--trace 0 repeats the command sequence for S seconds and reports the
end-to-end metrics. Each command's time is the best of its repetitions,
summed over the sequence, and passes alternate between the usable CPUs.
On a shared 2-core VM, other tenants slowed a command by up to 1.8x, on
one core or on both, in phases lasting seconds to minutes; measured
there, over 45-55 s windows the summed per-command minimum varied
5-11 % (IQR/median) between windows, the summed medians 7-20 %; taking
cores in turn lets the minimum find the quieter core. The report lines
also give medians, quartiles and sample counts. setup_s is the median
wall time of `sptorsion --version` processes (interpreter start plus
package import, paid by every command).

--trace 1 alternates an untraced pass with a traced pass
(trace_child.py: the same command in process, with spans around the calls
into each module) for S seconds, and reports the per-layer metrics of the
fastest traced pass together with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORK_DIR, WORKLOADS, Command, commands_for, dp_cells  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / WORK_DIR
# A run must end within 180 s: the timed loop stops by RUN_BUDGET_S after
# start whatever --seconds says, and the output checks get CHECK_TIMEOUT_S.
COMMAND_TIMEOUT_S = 30.0
RUN_BUDGET_S = 110.0
CHECK_TIMEOUT_S = 50.0
SETUP_SAMPLES = 15
CPUS = sorted(os.sched_getaffinity(0))  # passes take these in turn


@dataclass
class Sample:
    """One finished child process."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool
    stdout: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPTORSION_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs commands one at a time through launcher.py (see there why)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], out_path: Path, timeout: float, cpu: int) -> Sample:
        request = {"argv": argv, "stdout": str(out_path), "timeout": timeout, "cpu": cpu}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Sample(stdout=out_path.read_bytes(), **reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def cli_argv(cmd: Command) -> list[str]:
    return [sys.executable, "-m", "sptorsion.cli", *cmd.argv]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Recorder:
    """Keeps each command's first output for the full check (checks.py, run
    in its own process after the timed loop) and compares every later run
    with it by digest: identical invocations must give identical bytes."""

    def __init__(self, commands: list[Command]):
        self.commands = commands
        self.first: dict[int, tuple[str, str | None]] = {}
        self.verdicts: list[list[bool]] = [[] for _ in commands]
        self.problems: list[str] = []

    def record(self, i: int, sample: Sample) -> None:
        cmd = self.commands[i]
        problem = None
        if sample.timed_out or sample.code != 0:
            problem = "timed out" if sample.timed_out else f"exit code {sample.code}"
        else:
            doc = ROOT / cmd.doc if cmd.sub == "witness" else None
            doc_digest = digest(doc.read_bytes()) if doc and doc.exists() else None
            seen = (digest(sample.stdout), doc_digest)
            if i not in self.first:
                self.first[i] = seen
                (WORK / f"first-{i}.out").write_bytes(sample.stdout)
                if doc_digest:
                    shutil.copyfile(doc, WORK / f"first-doc-{i}.json")
            elif self.first[i] != seen:
                problem = "output differs from the first repetition"
        if problem:
            self.problems.append(f"{cmd.key}: {problem}")
        self.verdicts[i].append(problem is None)

    def failed(self, workload: str, seed: int) -> int:
        """Run the full checks on the first outputs; count failed runs."""
        checked = run_checks(workload, seed, len(self.commands))
        for i, problems in checked.items():
            self.problems += [f"{self.commands[i].key}: {p}" for p in problems]
        return sum(
            not ok or bool(checked.get(i)) for i, oks in enumerate(self.verdicts) for ok in oks
        )


def run_checks(workload: str, seed: int, count: int) -> dict[int, list[str]]:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "checks.py"), workload, str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHECK_TIMEOUT_S,
        )
        if proc.returncode == 0:
            return {int(i): problems for i, problems in json.loads(proc.stdout).items()}
        reason = f"checks.py exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        reason = "checks.py timed out"
    return {i: [reason] for i in range(count)}


class Runner:
    def __init__(self, commands: list[Command], launcher: Launcher, deadline: float):
        self.commands = commands
        self.recorder = Recorder(commands)
        self.launcher = launcher
        self.deadline = deadline
        self.missing: set[str] = set()  # traced functions this tree does not have

    def _timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))

    def untraced_pass(self, cpu: int) -> list[Sample]:
        samples = []
        for i, cmd in enumerate(self.commands):
            sample = self.launcher.run(cli_argv(cmd), WORK / "stdout.txt", self._timeout(), cpu)
            self.recorder.record(i, sample)
            samples.append(sample)
        return samples

    def traced_pass(self, cpu: int) -> list[tuple[Sample, dict]]:
        results = []
        for i, cmd in enumerate(self.commands):
            result_path = WORK / "trace.json"
            out_path = WORK / "traced-stdout.txt"
            result_path.unlink(missing_ok=True)
            out_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                    str(result_path), str(out_path), "--", *cmd.argv]
            sample = self.launcher.run(argv, WORK / "stdout.txt", self._timeout(), cpu)
            sample.stdout = out_path.read_bytes() if out_path.exists() else b""
            self.recorder.record(i, sample)
            summary = json.loads(result_path.read_text()) if result_path.exists() else None
            if summary:
                self.missing.update(summary["missing"])
            results.append((sample, summary or {}))
        return results


def measure_setup(launcher: Launcher) -> list[float]:
    argv = [sys.executable, "-m", "sptorsion.cli", "--version"]
    out = WORK / "stdout.txt"
    launcher.run(argv, out, COMMAND_TIMEOUT_S, CPUS[0])  # writes the bytecode cache
    samples = [
        launcher.run(argv, out, COMMAND_TIMEOUT_S, CPUS[k % len(CPUS)])
        for k in range(SETUP_SAMPLES)
    ]
    bad = [s for s in samples if s.code != 0]
    if bad:
        raise SystemExit(f"`sptorsion --version` failed with exit code {bad[0].code}")
    return [s.wall for s in samples]


def check_import_location(env: dict) -> None:
    probe = subprocess.run(
        [sys.executable, "-c", "import sptorsion; print(sptorsion.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    location = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or not location.is_relative_to(SRC):
        raise SystemExit(f"child imports sptorsion from {location}, not from {SRC}")


def more_time(end: float, deadline: float, last_pass: float) -> bool:
    """Whether to start another pass: the run should end as close to `end`
    as whole passes allow, and never after `deadline`."""
    now = time.perf_counter()
    return now + last_pass / 2 < end and now + last_pass < deadline


def end_to_end(runner: Runner, end: float, setup: list[float], report: list[str]) -> dict:
    passes = []
    while not passes or more_time(end, runner.deadline, sum(s.wall for s in passes[-1])):
        passes.append(runner.untraced_pass(CPUS[len(passes) % len(CPUS)]))
    per_cmd = list(zip(*passes))  # per command, its samples over repetitions
    seq_wall = [sum(s.wall for s in p) for p in passes]
    seq_cpu = [sum(s.cpu for s in p) for p in passes]
    seq_rss = [max(s.rss_mb for s in p) for p in passes]
    metrics = {
        "wall_s": (sum(min(s.wall for s in c) for c in per_cmd), "s", seq_wall),
        "cpu_s": (sum(min(s.cpu for s in c) for c in per_cmd), "s", seq_cpu),
        "peak_rss_mb": (
            max(statistics.median(s.rss_mb for s in c) for c in per_cmd), "MB", seq_rss,
        ),
        "setup_s": (statistics.median(setup), "s", setup),
    }
    report.append("end-to-end metrics (value; median [q1, q3] of the raw samples, n):")
    for name, (value, unit, raw) in metrics.items():
        q1, q2, q3 = quartiles(raw)
        report.append(f"  {name:12s} {value:10.4f} {unit:3s} median {q2:.4f} [{q1:.4f}, {q3:.4f}] n={len(raw)}")
    report.append("per subcommand (best of each command summed; median per pass):")
    for sub in ("extremal", "bounds", "witness", "verify"):
        idx = [i for i, c in enumerate(runner.commands) if c.sub == sub]
        if idx:
            best = sum(min(s.wall for s in per_cmd[i]) for i in idx)
            med = statistics.median(sum(p[i].wall for i in idx) for p in passes)
            report.append(f"  {sub}_s {best:.4f} s  median {med:.4f} s  commands={len(idx)}")
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


# spans reported with their call count and time, and with time only
CALLS_AND_TIME = (
    "numtheory.sieve", "numtheory.factor", "criterion.membership",
    "extremal.count_orders", "extremal.max_order_value", "matrices.matmul",
    "matrices.left_kernel", "matrices.determinant", "bounds.to_fraction",
    "bounds.guarded_compare", "bounds.render_value",
)
TIME_ONLY = (
    "witness.form_lattice", "witness.form_search", "witness.cyclotomic",
    "witness.symplectic_basis", "witness.certify", "bounds.run_check",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(commands: list[Command], traced: list[tuple[Sample, dict]]) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    names: dict[str, dict] = {}
    counters: dict[str, float] = {}
    dp_genera: list[int] = []
    totals = {"import_s": 0.0, "inprocess_s": 0.0, "out_bytes": 0}
    sub_s = {sub: 0.0 for sub in ("extremal", "bounds", "witness", "verify")}
    for cmd, (_, summary) in zip(commands, traced):
        for name, entry in summary.get("names", {}).items():
            acc = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in summary.get("counters", {}).items():
            if key == "dp_genera":
                dp_genera += value
            elif key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for key in totals:
            totals[key] += summary.get(key, 0)
        if cmd.sub in sub_s:
            sub_s[cmd.sub] += summary.get("main_s", 0.0)

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    self_total = sum(e["self_s"] for e in names.values()) + totals["import_s"]
    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (totals["import_s"], "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.out_bytes": (totals["out_bytes"], "bytes"),
        "cli.commands": (len(commands), "count"),
    }
    for sub, seconds in sub_s.items():
        m[f"cli.{sub}.s"] = (seconds, "s")
    for name in CALLS_AND_TIME:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.s"] = (get(name, "s"), "s")
    for name in TIME_ONLY:
        m[f"{name}.s"] = (get(name, "s"), "s")
    dp_calls, genera = len(dp_genera), len(set(dp_genera))
    candidates = counters.get("form_search_dets", 0) - get("witness.form_search", "calls")
    blocks = get("witness.form_search", "calls")
    m.update({
        "extremal.dp_cells": (sum(dp_cells(g) for g in dp_genera), "count"),
        "extremal.dp_calls": (dp_calls, "count"),
        "extremal.genera": (genera, "count"),
        "extremal.dp_runs_per_genus": (_ratio(dp_calls, genera), "ratio"),
        "extremal.h_bits_max": (counters.get("h_bits_max", 0), "bits"),
        "matrices.matmul.left_nonzeros": (counters.get("matmul_nonzeros", 0), "count"),
        "matrices.matmul.left_entries": (counters.get("matmul_entries", 0), "count"),
        "matrices.matmul.left_density": (
            _ratio(counters.get("matmul_nonzeros", 0), counters.get("matmul_entries", 0)), "ratio",
        ),
        "matrices.left_kernel.rows_max": (counters.get("left_kernel_rows_max", 0), "count"),
        "witness.form_lattice.unknowns": (counters.get("form_lattice_unknowns", 0), "count"),
        "witness.form_search.candidates": (candidates, "count"),
        "witness.blocks": (blocks, "count"),
        "witness.form_search.hit_ratio": (_ratio(blocks, candidates), "ratio"),
        "witness.certify.matmuls": (counters.get("certify_matmuls", 0), "count"),
        "bounds.rows": (counters.get("rows", 0), "count"),
        "bounds.self_s": (get("bounds.run_check", "self_s"), "s"),
        "trace.inprocess_s": (totals["inprocess_s"], "s"),
        "trace.self_s": (self_total, "s"),
        "trace.coverage": (_ratio(self_total, totals["inprocess_s"]), "ratio"),
    })
    return m


def traced_run(runner: Runner, end: float, report: list[str]) -> dict:
    untraced: list[list[Sample]] = []
    traced: list[list[tuple[Sample, dict]]] = []
    last = 0.0
    while not traced or more_time(end, runner.deadline, last):
        start = time.perf_counter()
        cpu = CPUS[len(traced) % len(CPUS)]  # both passes of a pair on one CPU
        untraced.append(runner.untraced_pass(cpu))
        traced.append(runner.traced_pass(cpu))
        last = time.perf_counter() - start
    best = min(traced, key=lambda p: sum(s.wall for s, _ in p))
    metrics = per_layer(runner.commands, best)
    plain = sum(min(p[i].wall for p in untraced) for i in range(len(runner.commands)))
    with_spans = sum(min(p[i][0].wall for p in traced) for i in range(len(runner.commands)))
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (with_spans, "s")
    metrics["trace.overhead"] = (_ratio(with_spans, plain) - 1, "ratio")
    report.append(f"per-layer metrics (fastest of {len(traced)} traced passes):")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:34s} {value:14.6g} {unit}")
    return metrics


def machine_info() -> list[str]:
    versions = []
    for package in ("mpmath", "sympy", "numpy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    return [
        f"machine: nproc={os.cpu_count()} {platform.machine()} {platform.system()} {platform.release()}",
        f"python {platform.python_version()} ({sys.executable}); " + ", ".join(versions),
        f"revision: {git_revision()}",
    ]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sptorsion" / "cli.py").is_file():
        print(f"error: no sptorsion sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    report = machine_info()
    env = child_env()
    launcher = Launcher(env)
    try:
        commands = commands_for(args.workload, args.seed)
        check_import_location(env)
        setup = measure_setup(launcher)
        runner = Runner(commands, launcher, started + RUN_BUDGET_S)
        report.append(f"workload {args.workload}, seed {args.seed}: {len(commands)} commands")
        report += [f"  {c.key}" for c in commands]
        end = time.perf_counter() + args.seconds
        if args.trace:
            metrics = traced_run(runner, end, report)
        else:
            metrics = end_to_end(runner, end, setup, report)
        recorder = runner.recorder
        attempted = sum(map(len, recorder.verdicts))
        failed = recorder.failed(args.workload, args.seed)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)
    report.append(
        f"operations: attempted {attempted}, failed {failed}, "
        f"fail_ratio {_ratio(failed, attempted):.4f}"
    )
    if runner.missing:
        report.append(f"note: traced functions not in this tree: {sorted(runner.missing)}")
    report += [f"problem: {p}" for p in dict.fromkeys(recorder.problems)]
    print("\n".join(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
