"""Output checks for the benchmark's CLI commands.

Each check takes a command that exited 0 and its stdout, and returns a
list of problems (empty when the output is right). The checks recompute a
sample of every table independently of the code under test where that is
cheap: pi(x) and prime sums with sympy, right-hand sides with mpmath from
the stated formulas, membership of h(g) from the budget criterion, and
f(g), h(g) for g <= 30 with the package's brute-force enumeration (a
separate algorithm from the DPs). Witness matrices are checked exactly
with NumPy (A^T J A = J, A^m = I, A^(m/p) != I) without pinning their
bytes, since a different construction may legitimately give another
matrix.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import sympy
from mpmath import mp, mpf

from workloads import WORK_DIR, Command, _primes, commands_for

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "csv_sha256_seed0.json"
DIGEST_SEED = 0  # the seed whose CSV outputs have recorded SHA-256 digests

BOUNDS_HEADER = ["name", "point", "lhs", "rhs", "margin", "pass", "note"]
EXTREMAL_HEADER = ["g", "f", "h", "h_factorization"]
ORACLE_GENUS_MAX = 30
SAMPLES_PER_TABLE = 5
RHS_RTOL = mpf("1e-15")

# stated right-hand side and comparison of each real-valued check
_GAMMA = "0.57721566490153286061"


def _quarter_sqrt(g):
    return mp.e ** (mp.sqrt(mpf(g) / mp.log(g)) / 4)


RHS = {
    "rosser": (lambda x: x / (mp.log(x) + 2), ">"),
    "dusart-pi-upper": (lambda x: (x / mp.log(x)) * (1 + mpf("1.2762") / mp.log(x)), "<="),
    "dusart-pi-lower": (lambda x: (x / mp.log(x)) * (1 + 1 / mp.log(x)), ">="),
    "dusart-product": (
        lambda x: (mp.e ** -mpf(_GAMMA) / mp.log(x)) * (1 - mpf("0.2") / mp.log(x) ** 2),
        ">",
    ),
    "thm31": (lambda g: 3 * mp.e ** (3 * g), "<="),
    "thm36": (_quarter_sqrt, ">"),
    "cor37": (_quarter_sqrt, ">"),
    "remark-upper": (
        lambda g: 2 * mp.e ** mpf(_GAMMA) * mp.log(2 * g + 1) * mp.e ** (mpf(2 * g + 1) / mp.e),
        "<=",
    ),
}
# checks whose lhs is h(g)
H_CHECKS = {"thm31", "cor37", "remark-upper"}


def _holds(lhs, rhs, op: str) -> bool:
    return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[op]


def _sample(rows: list, k: int = SAMPLES_PER_TABLE) -> list:
    if len(rows) <= k:
        return rows
    step = (len(rows) - 1) / (k - 1)
    return [rows[round(i * step)] for i in range(k)]


def budget_cost(factorization: list[tuple[int, int]]) -> int:
    """Totient-cost of m = prod p^a, with the prime-2 term free when 2 || m."""
    total = 0
    for p, a in factorization:
        if p == 2 and a == 1:
            continue
        total += p ** (a - 1) * (p - 1)
    return total


def factor_smooth(n: int, bound: int) -> list[tuple[int, int]] | None:
    """Factorization of n over the primes <= bound, or None if n has a
    larger prime factor."""
    entries = []
    for p in _primes():
        if p > bound or n == 1:
            break
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            entries.append((p, a))
    return entries if n == 1 else None


def is_member(m: int, g: int) -> bool:
    fact = factor_smooth(m, 2 * g + 1)
    return m >= 2 and fact is not None and budget_cost(fact) <= 2 * g


def _parse_csv(stdout: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout.decode())))


def check_extremal(cmd: Command, stdout: bytes, oracle) -> list[str]:
    rows = _parse_csv(stdout)
    if not rows or rows[0] != EXTREMAL_HEADER:
        return [f"unexpected header {rows[:1]}"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(cmd.lo, cmd.hi + 1)):
        return [f"expected genera {cmd.lo}..{cmd.hi}, got {len(body)} rows"]
    problems = []
    for g_text, f_text, h_text, fact_text in body:
        g, f, h = int(g_text), int(f_text), int(h_text)
        fact = [tuple(map(int, (t.split("^") + ["1"])[:2])) for t in fact_text.split("*")]
        value = 1
        for p, a in fact:
            value *= p**a
        if value != h or f < 1 or not is_member(h, g):
            problems.append(f"g={g}: h={h} with factorization {fact_text} is not a member")
        if g <= ORACLE_GENUS_MAX:
            ref = oracle(g)
            if (ref.f, ref.h) != (f, h):
                problems.append(f"g={g}: (f, h)=({f}, {h}), enumeration gives ({ref.f}, {ref.h})")
    return problems


def _expected_names(check: str) -> list[str]:
    return ["dusart-pi-upper", "dusart-pi-lower"] if check == "dusart-pi" else [check]


def check_bounds(cmd: Command, stdout: bytes) -> list[str]:
    rows = _parse_csv(stdout)
    if not rows or rows[0] != BOUNDS_HEADER:
        return [f"unexpected header {rows[:1]}"]
    body = rows[1:]
    names = _expected_names(cmd.check)
    expected = [(n, str(p)) for p in range(cmd.lo, cmd.hi + 1) for n in names]
    if [(r[0], r[1]) for r in body] != expected:
        return [f"expected {len(expected)} rows for points {cmd.lo}..{cmd.hi}, got {len(body)}"]
    problems = []
    for name, point, _, _, _, passed, note in body:
        if passed != "true" and not (passed == "" and note.startswith("precondition unmet")):
            problems.append(f"{name} at {point}: pass cell {passed!r}")
    with mp.workdps(30):
        for name, point, lhs_text, rhs_text, _, passed, _ in _sample(body):
            if passed != "true":
                continue
            problems.extend(_check_row(name, int(point), lhs_text, rhs_text))
    return problems


def _check_row(name: str, point: int, lhs_text: str, rhs_text: str) -> list[str]:
    where = f"{name} at {point}"
    if name in ("rosser", "dusart-pi-upper", "dusart-pi-lower"):
        if int(lhs_text) != sympy.primepi(point):
            return [f"{where}: lhs {lhs_text} != pi(x)"]
    elif name == "lemma33":
        total = sum(sympy.primerange(2, point + 1))
        if int(lhs_text) != total or mpf(rhs_text) != mpf(point * int(sympy.primepi(point))) / 2:
            return [f"{where}: lhs/rhs differ from the prime sum and x pi(x)/2"]
        return [] if total < mpf(rhs_text) else [f"{where}: inequality does not hold"]
    elif name == "cor32":
        f, h = int(lhs_text), int(rhs_text)
        return [] if f <= h and is_member(h, point) else [f"{where}: f > h or h not a member"]
    elif name in H_CHECKS and not is_member(int(lhs_text), point):
        return [f"{where}: lhs {lhs_text} is not a member of S(g)"]
    formula, op = RHS[name]
    rhs = formula(point)
    if abs(mpf(rhs_text) - rhs) > RHS_RTOL * abs(rhs):
        return [f"{where}: rhs {rhs_text} differs from the stated formula ({rhs})"]
    if not _holds(mpf(lhs_text), rhs, op):
        return [f"{where}: pass reported but lhs {op} rhs does not hold"]
    return []


def _envelope(stdout: bytes, command: str) -> dict:
    envelope = json.loads(stdout)
    if envelope.get("command") != command:
        raise ValueError(f"envelope command {envelope.get('command')!r}")
    return envelope["result"]


def check_witness(cmd: Command, stdout: bytes, doc_text: str) -> list[str]:
    result = _envelope(stdout, "witness")
    doc = json.loads(doc_text)
    problems = []
    for source, payload in (("stdout", result.get("witness", {})), ("document", doc)):
        if (payload.get("claimed_order"), payload.get("genus")) != (str(cmd.m), str(cmd.g)):
            problems.append(f"{source}: order/genus do not match the request")
    if result.get("built") is not True:
        problems.append("witness not built")
    return problems


def check_verify(cmd: Command, stdout: bytes) -> list[str]:
    result = _envelope(stdout, "verify")
    problems = []
    if result.get("all_passed") is not True:
        problems.append(f"verify failed: {result.get('failing_checks')}")
    if (result.get("claimed_order"), result.get("genus")) != (str(cmd.m), str(cmd.g)):
        problems.append("verified order/genus do not match the request")
    return problems


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact int64 product; OverflowError when a sum could leave int64."""
    if int(np.abs(x).max()) * int(np.abs(y).max()) * x.shape[1] >= 2**63:
        raise OverflowError
    return x @ y


def _power(a: np.ndarray, e: int) -> np.ndarray:
    result = np.eye(a.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            result = _matmul(result, a)
        e >>= 1
        if e:
            a = _matmul(a, a)
    return result


def check_witness_matrix(doc_text: str, m: int, g: int) -> list[str]:
    """A^T J A = J, A^m = I and A^(m/p) != I for every prime p | m.

    The powers of a matrix of finite order stay bounded, and those of the
    witnesses built here stay far inside int64; entries that would
    overflow mean A is not of the claimed order, which is reported as such
    rather than computed with ever-growing integers.
    """
    doc = json.loads(doc_text)
    n = int(doc["size"])
    if n != 2 * g:
        return [f"matrix size {n} for genus {g}"]
    entries = [int(x) for x in doc["entries"]]
    if max(map(abs, entries)) >= 2**31:
        return ["entries of A exceed 2^31"]
    a = np.array(entries, dtype=np.int64).reshape(n, n)
    j = np.zeros((n, n), dtype=np.int64)
    j[:g, g:] = np.eye(g, dtype=np.int64)
    j[g:, :g] = -np.eye(g, dtype=np.int64)
    identity = np.eye(n, dtype=np.int64)
    problems = []
    try:
        if not np.array_equal(_matmul(_matmul(a.T, j), a), j):
            problems.append("A^T J A != J")
        if not np.array_equal(_power(a, m), identity):
            problems.append(f"A^{m} != I")
        for p in sympy.primefactors(m):
            if np.array_equal(_power(a, m // p), identity):
                problems.append(f"A^({m}/{p}) == I")
    except OverflowError:
        problems.append("entries of the powers of A grow past int64: A is not of finite order m")
    return problems


def check_command(cmd: Command, stdout: bytes, doc_path: Path, oracle, golden: dict) -> list[str]:
    try:
        if cmd.sub == "extremal":
            problems = check_extremal(cmd, stdout, oracle)
        elif cmd.sub == "bounds":
            problems = check_bounds(cmd, stdout)
        elif cmd.sub == "verify":
            problems = check_verify(cmd, stdout)
        else:
            doc_text = doc_path.read_text()
            problems = check_witness(cmd, stdout, doc_text)
            problems += check_witness_matrix(doc_text, cmd.m, cmd.g)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    expected = golden.get(cmd.key)
    if expected is not None and expected != hashlib.sha256(stdout).hexdigest():
        problems.append("CSV differs from the digest recorded for this seed")
    return problems


def main(argv: list[str]) -> int:
    """checks.py WORKLOAD SEED: check the first output of each command that
    run.py saved in the work directory; print {index: [problems]} as JSON."""
    workload, seed = argv[0], int(argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sptorsion
    from sptorsion.extremal import brute_force_extremal

    if not Path(sptorsion.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sptorsion imported from {sptorsion.__file__}, not {src}")
    golden = json.loads(DIGESTS.read_text()) if seed == DIGEST_SEED else {}
    work = ROOT / WORK_DIR
    result = {}
    for i, cmd in enumerate(commands_for(workload, seed)):
        out = work / f"first-{i}.out"
        if out.exists():  # a command that never succeeded has failed already
            problems = check_command(
                cmd, out.read_bytes(), work / f"first-doc-{i}.json", brute_force_extremal, golden
            )
            if problems:
                result[i] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
