"""Command-line interface: membership, enumeration, extremal tables,
witnesses, and bound certification.

Conventions shared by every subcommand:

  * exit 0 = success / all checks pass; exit 1 = mathematically negative
    answer (non-member, failed verification, failed bound); exit 2 =
    usage or parse error, including m = 1 (excluded by the A != 1
    convention) and a range past its cap in CAPS, refused before any
    DP, sieve, primorial, enumeration or matrix is built, or any trial
    division past its cap is run, unless --allow-large; exit 3 =
    internal error (a bug, never an answer), with its traceback on
    stderr; exit 141 = stdout closed by its reader before all was
    written (128 + SIGPIPE, as a shell reports a producer killed by a
    closed pipe), with nothing on stderr.
  * --format text|json|csv. JSON payloads wrap results in an envelope
    {command, parameters, result, format}; every numeric value is a
    decimal string, so consumers never truncate big integers. CSV is
    only offered where the payload is a table (not by witness or verify).
    Output is deterministic: identical invocations produce byte-identical
    bytes.
  * every command writes through one batched stdout, the _Batched that
    main opens, and every JSON document through one writer, _write_json.
    orders, extremal, bounds and witness stream their lists (orders,
    table rows, bound rows, matrix entries), so none holds the text of a
    whole JSON document.
  * ranges are written a..b (inclusive); a bare integer means a..a.
    A genus range is computed in one pass of each DP at its top genus,
    and `extremal` runs only the DPs of the columns it prints.
  * the console script is run(): main(), then an exit that skips the
    interpreter's teardown; main() itself returns the exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

from . import __version__

# Each handler imports the library modules it runs, and each writer json
# or csv, so that a command loads only those: mpmath's raw-mpf files, for
# one, only under a `bounds` check that evaluates a real, and --version
# none of them.
if TYPE_CHECKING:
    from .criterion import MembershipDecision, NotRealizableError
    from .extremal import ExtremalRecord
    from .numtheory import Factorization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


class UsageError(Exception):
    """Bad arguments discovered after argparse; maps to exit 2."""


# The largest range end, by the kind of its points, that runs without
# --allow-large; the library takes any range, so this is every size limit
# of the package. The genus DPs' time grows roughly quadratically in g, and
# time, not their memory, sets the genus cap. S(g) grows at least
# exponentially, so `orders` and `extremal --oracle`, which list it, stop far
# lower. A witness
# matrix has 4g^2 entries. An x or n range is sieved, and its cap is 10
# times the largest default range. `member` trial-divides m up to
# min(2g + 1, isqrt(c)), c the part of m left undivided, at a few million
# odd divisors a second: up to the trial cap, under a tenth of a second.
CAPS = {"genus": 5000, "enumeration": 40, "witness": 500, "x": 10**6, "n": 10**6, "trial": 10**6}


def _refuse_over_cap(name: str, points: str, hi: int, allow_large: bool) -> None:
    """Refuse a range of `points` ending above its cap, unless lifted."""
    cap = CAPS[points]
    if hi > cap and not allow_large:
        raise UsageError(
            f"{name} range ends at {hi}, above the cap {cap}; pass --allow-large to lift it"
        )


def _parse_range(text: str) -> tuple[int, int]:
    """a..b inclusive; a bare value v means v..v."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise UsageError(
            f"cannot parse range {text!r}; expected an integer or a..b"
        ) from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}: upper end below lower end")
    return lo, hi


def _envelope(command: str, parameters: dict, result: object) -> dict:
    return {"command": command, "parameters": parameters, "result": result, "format": "json"}


class _Batched:
    """A write target that hands `target` what it is given in batches:
    with PYTHONUNBUFFERED set, or under -u, every sys.stdout.write is a
    write(2) of its own. Whatever is left is written on leaving a `with`
    block, an exception included."""

    def __init__(self, target: TextIO) -> None:
        self.target = target
        self.parts: list[str] = []

    def write(self, text: str) -> None:
        self.parts.append(text)
        if len(self.parts) >= 128:  # 128 rows of a bound sweep: some 20 kB
            self.flush()

    def write_each(self, separator: str, texts: Iterator[str]) -> None:
        """Write each text of `texts` (none empty) after `separator`, some
        20 kB to a write: the texts of a list may be matrix entries of a few
        bytes or rows of a few hundred, so the number of texts in a write
        follows the size of the last write."""
        self.flush()
        count = 128
        while batch := separator.join(itertools.islice(texts, count)):
            self.target.write(separator + batch)
            count = max(1, count * 20000 // len(batch))

    def error(self, line: str) -> None:
        """Write `line` to stderr, after all that stdout was given."""
        self.flush()
        print(line, file=sys.stderr)

    def flush(self) -> None:
        if self.parts:
            self.target.write("".join(self.parts))
            self.parts.clear()

    def __enter__(self) -> "_Batched":
        return self

    def __exit__(self, *exc: object) -> None:
        self.flush()


# In a document, the list whose items _write_json streams; json.dumps
# writes its one item as _MARK.
_STREAMED = ["\0"]
_MARK = '"\\u0000"'


def _write_json(out: _Batched, document: dict, items: Iterable = ()) -> None:
    """Write json.dumps(document, indent=2) + "\n" to `out`, byte for byte,
    with the items of `items` in place of the list _STREAMED if `document`
    holds it. The items are encoded and written one by one, and nothing is
    written before the first; the text after the list is rendered after the
    last, so it shows what reading `items` put into `document`."""
    import json

    text = json.dumps(document, indent=2)
    head, streamed, _ = text.partition(_MARK)
    if streamed:
        indent = head.rpartition("\n")[2]  # before each item
        items = iter(items)
        first = next(items, None)
        if first is not None:
            encode = _item_encoder(first, indent)
            out.write(head + encode(first))
            out.write_each(",\n" + indent, map(encode, items))
        text = json.dumps(document, indent=2)
        if first is None:
            text = text.replace(f"[\n{indent}{_MARK}\n{indent[2:]}]", "[]")
        else:
            text = text.partition(_MARK)[2]
    out.write(text + "\n")


def _item_encoder(item: object, indent: str) -> Callable[[object], str]:
    """What json.dumps(..., indent=2) writes for each item shaped as `item`
    in a list whose items start at `indent`. Strings and dicts of scalars go
    through json's C encoder; a dict that holds a list or a dict needs the
    indenting encoder, which is pure Python."""
    import json

    if isinstance(item, str):
        return json.encoder.encode_basestring_ascii
    if any(isinstance(value, (list, dict)) for value in item.values()):
        nested = json.JSONEncoder(indent=2).encode
        return lambda row: nested(row).replace("\n", "\n" + indent)
    flat = json.JSONEncoder(separators=(",\n" + indent + "  ", ": ")).encode
    return lambda row: "{\n" + indent + "  " + flat(row)[1:-1] + "\n" + indent + "}"


def _csv_writer(out: _Batched):
    import csv

    return csv.writer(out, lineterminator="\n")


def _factorization_pretty(fact: Factorization) -> str:
    return "*".join(f"{p}^{a}" if a > 1 else str(p) for p, a in fact)


# ---------------------------------------------------------------------------
# member


def _decision_result(decision: MembershipDecision) -> dict:
    report = decision.report
    return {
        "m": str(decision.m),
        "genus": str(decision.g),
        "member": decision.member,
        "budget": str(decision.budget),
        "total_cost": str(report.total),
        "deficit": str(decision.deficit),
        "exemption_applied": report.exemption_applied,
        "terms": [
            {"prime": str(t.prime), "exponent": str(t.exponent), "cost": str(t.cost)}
            for t in report.terms
        ],
    }


def _write_decision_text(out: _Batched, decision: MembershipDecision) -> None:
    report = decision.report
    out.write(f"m = {decision.m}, genus = {decision.g}, budget = {decision.budget}\n")
    out.write("prime  exponent  cost\n")
    for t in report.terms:
        out.write(f"{t.prime:>5}  {t.exponent:>8}  {t.cost:>4}\n")
    if report.exemption_applied:
        out.write("(m == 2 mod 4: the prime-2 term is free)\n")
    out.write(f"total cost {report.total} <= budget {decision.budget}: {decision.member}\n")
    verdict = "member" if decision.member else f"not a member (over by {decision.deficit})"
    out.write(f"=> {decision.m} is {verdict} of S({decision.g})\n")


def _not_realizable(
    args: argparse.Namespace, out: _Batched, parameters: dict, fields: dict, text: str, exc: NotRealizableError
) -> int:
    """An order outside S(g): `fields` and the reason as the JSON result,
    else `text`; the reason also goes to stderr. Exit 1."""
    if args.format == "json":
        _write_json(out, _envelope(args.command, parameters, {**fields, "reason": str(exc)}))
    elif args.format == "text":
        out.write(text + "\n")
    out.error(f"not realizable: {exc}")
    return EXIT_NEGATIVE


def _beyond_prime_bound(args: argparse.Namespace, out: _Batched, exc: NotRealizableError) -> int:
    """m has a prime above 2g + 1, where factoring stopped: no cost table."""
    d = exc.decision
    fields = {"m": str(d.m), "genus": str(d.g), "member": False, "budget": str(d.budget)}
    text = f"m = {d.m}, genus = {d.g}, budget = {d.budget}\n=> {d.m} is not a member of S({d.g})"
    return _not_realizable(args, out, {"m": str(d.m), "genus": str(d.g)}, fields, text, exc)


def _capped_membership(m: int, g: int, allow_large: bool) -> MembershipDecision:
    """membership(m, g), with m trial-divided once, up to the cap, when
    2g + 1 is past it. A cofactor c > 1 then has no divisor up to the cap:
    it is one prime when isqrt(c) <= cap (a term of m when c <= 2g + 1),
    and otherwise needs division up to min(2g + 1, isqrt(c)): refused."""
    import math

    from .criterion import decide, membership
    from .numtheory import Factorization, factor

    cap = CAPS["trial"]
    if m < 2 or 2 * g + 1 <= cap or allow_large:
        return membership(m, g)
    fact, cofactor = factor(m, cap)
    if cofactor > 1:
        _refuse_over_cap("member trial division", "trial", min(2 * g + 1, math.isqrt(cofactor)), False)
        if cofactor <= 2 * g + 1:
            fact, cofactor = Factorization((*fact, (cofactor, 1))), 1
    return decide(m, g, fact, cofactor)


def cmd_member(args: argparse.Namespace, out: _Batched) -> int:
    from .criterion import NotRealizableError

    decision = _capped_membership(args.m, args.genus, args.allow_large)
    if decision.report.cofactor > 1:
        return _beyond_prime_bound(args, out, NotRealizableError(decision))
    if args.format == "json":
        parameters = {"m": str(args.m), "genus": str(args.genus)}
        _write_json(out, _envelope("member", parameters, _decision_result(decision)))
    elif args.format == "csv":
        rows = [(t.prime, t.exponent, t.cost) for t in decision.report.terms]
        _csv_writer(out).writerows([("prime", "exponent", "cost"), *rows])
    else:
        _write_decision_text(out, decision)
    return EXIT_OK if decision.member else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# orders


def cmd_orders(args: argparse.Namespace, out: _Batched) -> int:
    from .criterion import enumerate_orders

    _refuse_over_cap("orders", "enumeration", args.genus, args.allow_large)
    orders = enumerate_orders(args.genus)
    if args.format == "json":
        parameters = {"genus": str(args.genus), "allow_large": bool(args.allow_large)}
        result = {"count": str(len(orders)), "orders": _STREAMED}
        _write_json(out, _envelope("orders", parameters, result), map(str, orders))
    elif args.format == "csv":
        _csv_writer(out).writerows([("m",), *((m,) for m in orders)])
    else:
        out.write(f"S({args.genus}) has {len(orders)} elements:\n")
        out.write(" ".join(str(m) for m in orders) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal


def _record_row(record: ExtremalRecord, show_f: bool, show_h: bool) -> dict:
    row: dict = {"g": str(record.g)}
    if show_f:
        row["f"] = str(record.f)
    if show_h:
        row["h"] = str(record.h)
        row["h_factorization"] = [[str(p), str(a)] for p, a in record.h_factorization]
    return row


def cmd_extremal(args: argparse.Namespace, out: _Batched) -> int:
    from .extremal import brute_force_extremal, extremal_table

    g_from, g_to = _parse_range(args.genus)
    # column selection: either flag narrows the table, neither means both
    show_f = args.count or not args.max
    show_h = args.max or not args.count
    if args.oracle:
        _refuse_over_cap("extremal --oracle", "enumeration", g_to, args.allow_large)
    _refuse_over_cap("extremal", "genus", g_to, args.allow_large)
    # each DP runs only for a column printed, or for the oracle's compare
    records = extremal_table(g_from, g_to, count=show_f or args.oracle, maximum=show_h or args.oracle)
    refs = [brute_force_extremal(record.g) for record in records] if args.oracle else []
    mismatches = [
        {"g": str(record.g), "dp": [str(record.f), str(record.h)], "oracle": [str(ref.f), str(ref.h)]}
        for record, ref in zip(records, refs)
        if (ref.f, ref.h) != (record.f, record.h)
    ]
    if args.format == "json":
        parameters = {"genus": args.genus, "oracle": bool(args.oracle), "allow_large": bool(args.allow_large)}
        result = {"records": _STREAMED, "oracle_checked": bool(args.oracle), "oracle_mismatches": mismatches}
        rows = (_record_row(record, show_f, show_h) for record in records)
        _write_json(out, _envelope("extremal", parameters, result), rows)
    elif args.format == "csv":
        writer = _csv_writer(out)
        header = ["g"] + (["f"] if show_f else []) + (["h", "h_factorization"] if show_h else [])
        writer.writerow(header)
        for record in records:
            row: list = [record.g]
            if show_f:
                row.append(record.f)
            if show_h:
                row.extend([record.h, _factorization_pretty(record.h_factorization)])
            writer.writerow(row)
    else:
        for record in records:
            parts = [f"g={record.g}"]
            if show_f:
                parts.append(f"f={record.f}")
            if show_h:
                pretty = _factorization_pretty(record.h_factorization)
                parts.append(f"h={record.h} = {pretty}")
            out.write("  ".join(parts) + "\n")
        if args.oracle and not mismatches:
            out.write(f"oracle cross-check passed for g in {g_from}..{g_to}\n")
    for mismatch in mismatches:
        out.error(
            f"oracle mismatch at g = {mismatch['g']}: dp (f, h) = ({', '.join(mismatch['dp'])}), "
            f"enumeration (f, h) = ({', '.join(mismatch['oracle'])})"
        )
    return EXIT_NEGATIVE if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# witness / verify


def cmd_witness(args: argparse.Namespace, out: _Batched) -> int:
    _refuse_over_cap("witness", "witness", args.genus, args.allow_large)
    from .witness import NotRealizableError, build_witness, witness_to_dict

    parameters = {"m": str(args.m), "genus": str(args.genus)}
    try:
        witness = build_witness(args.m, args.genus)
    except NotRealizableError as exc:
        decision = exc.decision
        if decision.report.cofactor > 1:
            return _beyond_prime_bound(args, out, exc)
        if args.format == "json":
            result = {"built": False, "reason": str(exc), "membership": _decision_result(decision)}
            _write_json(out, _envelope("witness", parameters, result))
        else:
            _write_decision_text(out, decision)
        return EXIT_NEGATIVE
    # the matrix entries are streamed, so no text of the whole document is held
    document = witness_to_dict(witness, entries=_STREAMED)
    if args.output:
        try:
            with open(args.output, "w") as file, _Batched(file) as file_out:
                _write_json(file_out, document, map(str, witness.matrix.entries))
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    if args.format == "json":
        result = {"built": True, "witness": document, "path": args.output or None}
        _write_json(out, _envelope("witness", parameters, result), map(str, witness.matrix.entries))
    else:
        n = witness.matrix.rows
        out.write(f"order-{args.m} witness in Sp({n},Z):\n")
        for i in range(n):
            out.write("  [" + " ".join(f"{x:>4}" for x in witness.matrix.row(i)) + "]\n")
        out.write(f"certificate: all checks passed = {witness.certificate.all_passed}\n")
        if args.output:
            out.write(f"written to {args.output}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: _Batched) -> int:
    from .witness import NotRealizableError, certificate_to_dict, verify_witness, witness_from_json

    try:
        text = Path(args.path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}") from None
    witness = witness_from_json(text)  # ValueError on malformed -> exit 2
    fields = {
        "size": str(witness.matrix.rows),
        "genus": str(witness.genus),
        "claimed_order": str(witness.claimed_order),
    }
    try:
        certificate = verify_witness(witness, witness.genus)
    except NotRealizableError as exc:
        text = f"claimed order {witness.claimed_order}, size {witness.matrix.rows}\nverdict: INVALID"
        return _not_realizable(args, out, {"path": args.path}, {**fields, "all_passed": False}, text, exc)
    if args.format == "json":
        result = {
            **fields,
            "all_passed": certificate.all_passed,
            "failing_checks": certificate.failing_checks(),
            "certificate": certificate_to_dict(certificate),
        }
        _write_json(out, _envelope("verify", {"path": args.path}, result))
    else:
        out.write(f"claimed order {witness.claimed_order}, size {witness.matrix.rows}\n")
        out.write(f"  symplectic (A^T J A = J): {'pass' if certificate.symplectic else 'FAIL'}\n")
        out.write(f"  A^m = I: {'pass' if certificate.power_identity else 'FAIL'}\n")
        for check in certificate.proper_powers:
            out.write(f"  A^(m/{check.prime}) != I: {'pass' if check.passed else 'FAIL'}\n")
        out.write(f"verdict: {'valid' if certificate.all_passed else 'INVALID'}\n")
    if not certificate.all_passed:
        out.error(f"failed checks: {', '.join(certificate.failing_checks())}")
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args: argparse.Namespace, out: _Batched) -> int:
    from .bounds import CHECK_NAMES, REPORT_FIELDS, default_range, report_to_dict, run_check

    name = args.check
    if name not in CHECK_NAMES:
        raise UsageError(f"unknown check {name!r}; valid names: {', '.join(sorted(CHECK_NAMES))}")
    if args.range is not None:
        lo, hi = _parse_range(args.range)
    else:
        stated = default_range(name)
        if stated is None:
            raise UsageError(
                f"check {name!r} has no default range (any genus satisfying its "
                "precondition is a large computation); pass --range a..b"
            )
        lo, hi = stated
    _refuse_over_cap(name, CHECK_NAMES[name].points, hi, args.allow_large)
    reports = run_check(name, lo, hi)
    parameters = {"check": name, "range": f"{lo}..{hi}", "allow_large": bool(args.allow_large)}
    verdicts = {True: 0, False: 0, None: 0}  # rows by verdict
    result: dict = {"reports": _STREAMED}

    def counted() -> Iterator:
        """The rows, counted by verdict; after the last, the totals in `result`."""
        for report in reports:
            verdicts[report.passed] += 1
            yield report
        result["total"] = str(sum(verdicts.values()))
        result["failures"] = str(verdicts[False])
        result["precondition_unmet"] = str(verdicts[None])

    if args.format == "json":
        _write_json(out, _envelope("bounds", parameters, result), map(report_to_dict, counted()))
    elif args.format == "csv":
        writer = _csv_writer(out)
        # the header comes with the first row: a sweep that raises before
        # it writes nothing
        for row, report in enumerate(counted()):
            if not row:
                writer.writerow(REPORT_FIELDS)
            writer.writerow((*report.rendered(), _CSV_STATUS[report.passed], report.note))
        if not any(verdicts.values()):
            writer.writerow(REPORT_FIELDS)
    else:
        for report in counted():
            check, point, lhs, rhs, margin = report.rendered()
            note = f"  ({report.note})" if report.note else ""
            out.write(
                f"{check}  point={point}  lhs={lhs}  rhs={rhs}  margin={margin}  "
                f"{_TEXT_STATUS[report.passed]}{note}\n"
            )
        out.write(
            f"{sum(verdicts.values())} rows: {verdicts[True]} pass, {verdicts[False]} fail, "
            f"{verdicts[None]} precondition-unmet\n"
        )
    return EXIT_NEGATIVE if verdicts[False] else EXIT_OK


# a row's pass cell, by its verdict
_CSV_STATUS = {True: "true", False: "false", None: ""}
_TEXT_STATUS = {True: "pass", False: "FAIL", None: "unmet"}


# ---------------------------------------------------------------------------
# parser


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json", "csv")) -> None:
    parser.add_argument("--format", choices=choices, default="text", help="output format (default: text)")


@functools.cache  # some 2 ms to build; a caller may run main many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sptorsion",
        description="Exact computations with finite-order integer symplectic matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="decide whether some element has order m")
    p.add_argument("m", type=int, help="candidate order (>= 2)")
    p.add_argument("-g", "--genus", type=int, required=True, help="genus g >= 1")
    p.add_argument("--allow-large", action="store_true", help="lift the trial-division cap")
    _add_format(p)
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("orders", help="enumerate all of S(g)")
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("--allow-large", action="store_true", help="lift the enumeration genus cap")
    _add_format(p)
    p.set_defaults(handler=cmd_orders)

    p = sub.add_parser("extremal", help="f(g) and h(g), exactly")
    p.add_argument("-g", "--genus", required=True, help="genus or range a..b")
    p.add_argument("--count", action="store_true", help="narrow the table to the f column (with --max: f and h)")
    p.add_argument("--max", action="store_true", help="narrow the table to the h columns (with --count: f and h)")
    p.add_argument("--oracle", action="store_true", help="cross-check against brute-force enumeration")
    p.add_argument("--allow-large", action="store_true", help="lift the genus and --oracle enumeration caps")
    _add_format(p)
    p.set_defaults(handler=cmd_extremal)

    p = sub.add_parser("witness", help="build an explicit matrix of order m")
    p.add_argument("m", type=int)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-o", "--output", help="write the witness document to this path")
    p.add_argument("--allow-large", action="store_true", help="lift the witness genus cap")
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("verify", help="re-check a stored witness document")
    p.add_argument("path")
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bounds", help="certify one family of inequalities")
    p.add_argument("--check", required=True, help="inequality family; an unknown name lists the valid ones")
    p.add_argument("--range", help="inclusive range a..b (default: the stated sweep)")
    p.add_argument("--allow-large", action="store_true", help="lift the genus and x caps")
    _add_format(p)
    p.set_defaults(handler=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _Batched(sys.stdout) as out:
            return args.handler(args, out)
    except BrokenPipeError:
        # stdout to devnull: the interpreter's last flush of it cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only on this path: it costs every command start-up

        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    """The console entry point: main(), then exit without the
    interpreter's teardown (its last garbage-collection pass alone costs
    some 10 ms). stdout and stderr are flushed first; a reader that has
    closed either one gives EXIT_PIPE, with nothing on stderr."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, --version, a usage error
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = EXIT_PIPE
    os._exit(code)


if __name__ == "__main__":
    run()
