"""Command-line interface: membership, enumeration, extremal tables,
witnesses, and bound certification.

Conventions shared by every subcommand:

  * exit 0 = success / all checks pass; exit 1 = mathematically negative
    answer (non-member, failed verification, failed bound); exit 2 =
    usage or parse error, including m = 1 (excluded by the A != 1
    convention) and a range past its cap in CAPS, refused before any
    DP, sieve, primorial, enumeration or matrix is built unless
    --allow-large; exit 3 =
    internal error (a bug, never an answer), with its traceback on
    stderr.
  * --format text|json|csv. JSON payloads wrap results in an envelope
    {command, parameters, result, format}; every numeric value is a
    decimal string, so consumers never truncate big integers. CSV is
    only offered where the payload is a table. Output is deterministic:
    identical invocations produce byte-identical bytes.
  * ranges are written a..b (inclusive); a bare integer means a..a.
    A genus range is computed in one pass of each DP at its top genus.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__

# Each handler imports the library modules it runs, and each writer json
# or csv, so that a command loads only those: mpmath, for one, only under a
# `bounds` check that evaluates a real, and --version none of them.
if TYPE_CHECKING:
    from .criterion import MembershipDecision, NotRealizableError
    from .extremal import ExtremalRecord
    from .numtheory import Factorization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad arguments discovered after argparse; maps to exit 2."""


# The largest range end, by the kind of its points, that runs without
# --allow-large; the library takes any range, so this is every size limit
# of the package. The genus DPs hold exact big integers, so their memory
# grows roughly quadratically in g. S(g) grows at least exponentially, so
# `orders` and `extremal --oracle`, which list it, stop far lower. A witness
# matrix has 4g^2 entries. An x or n range is sieved, and its cap is 10
# times the largest default range.
CAPS = {"genus": 5000, "enumeration": 40, "witness": 500, "x": 10**6, "n": 10**6}


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


def _envelope(command: str, parameters: dict, result: object) -> str:
    import json

    envelope = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "format": "json",
    }
    return json.dumps(envelope, indent=2)


def _emit_json(command: str, parameters: dict, result: object) -> None:
    sys.stdout.write(_envelope(command, parameters, result) + "\n")


class _Batched:
    """A write target that hands sys.stdout what it is given in batches:
    with PYTHONUNBUFFERED set, or under -u, every sys.stdout.write is a
    write(2) of its own. Whatever is left is written on leaving a `with`
    block, an exception included."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> None:
        self.parts.append(text)
        if len(self.parts) >= 128:  # 128 rows of a bound sweep: some 20 kB
            self.flush()

    def flush(self) -> None:
        if self.parts:
            sys.stdout.write("".join(self.parts))
            self.parts.clear()

    def __enter__(self) -> "_Batched":
        return self

    def __exit__(self, *exc: object) -> None:
        self.flush()


# In a document written a piece at a time, the one list [_ITEMS] stands for
# a list whose items are written one by one.
_ITEMS = "\0"


def _around_items(text: str) -> tuple[str, str, str]:
    """Cut indent=2 JSON text around its list [_ITEMS]: the text before
    the list's first item, the separator between items, and the text
    after its last item."""
    import json

    before, _, after = text.partition(json.dumps(_ITEMS))
    return before, ",\n" + before.rpartition("\n")[2], after


def _write_json_items(text: str, items: Iterator[str], out) -> None:
    """Write `text`, indent=2 JSON holding the list [_ITEMS], with that
    list's items the JSON texts `items` (at least one, none empty), then a
    newline: json.dumps(document, indent=2) + "\n" for the whole
    document, byte for byte, in writes of 4096 items."""
    before, separator, after = _around_items(text)
    chunk = separator.join(itertools.islice(items, 4096))
    out.write(before + chunk)
    while chunk := separator.join(itertools.islice(items, 4096)):
        out.write(separator + chunk)
    out.write(after + "\n")


class _JsonRows:
    """Writes what _emit_json(command, parameters, {key: rows, **totals})
    writes, byte for byte, a row at a time to `out`, so that no row is
    kept. Nothing is written before the first row; totals come at the end."""

    def __init__(self, command: str, parameters: dict, key: str, out: _Batched):
        import json

        self.command, self.parameters, self.key, self.out = command, parameters, key, out
        self.head, self.separator, _ = _around_items(self._text({}))
        self.indent = self.separator[1:]  # before a row's braces
        # a row's members one a line, as indent=2 writes them; without
        # indent json uses its C encoder, about 3 times faster per row
        self.encoder = json.JSONEncoder(separators=("," + self.indent + "  ", ": "))
        self.started = False

    def _text(self, totals: dict) -> str:
        return _envelope(self.command, self.parameters, {self.key: [_ITEMS], **totals})

    def add(self, row: dict) -> None:
        """Write one row: a non-empty dict of strings, booleans or None."""
        self.out.write(self.separator if self.started else self.head)
        self.started = True
        members = self.encoder.encode(row)[1:-1]
        self.out.write("{" + self.indent + "  " + members + self.indent + "}")

    def close(self, totals: dict) -> None:
        if not self.started:
            self.out.write(_envelope(self.command, self.parameters, {self.key: [], **totals}) + "\n")
            return
        self.out.write(_around_items(self._text(totals))[2] + "\n")


def _csv_writer(out=None):
    import csv

    return csv.writer(out or sys.stdout, lineterminator="\n")


def _factorization_pairs(fact: Factorization) -> list[list[str]]:
    return [[str(p), str(a)] for p, a in fact]


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


def _print_decision_text(decision: MembershipDecision) -> None:
    report = decision.report
    print(f"m = {decision.m}, genus = {decision.g}, budget = {decision.budget}")
    print("prime  exponent  cost")
    for t in report.terms:
        print(f"{t.prime:>5}  {t.exponent:>8}  {t.cost:>4}")
    if report.exemption_applied:
        print("(m == 2 mod 4: the prime-2 term is free)")
    print(f"total cost {report.total} <= budget {decision.budget}: {decision.member}")
    verdict = "member" if decision.member else f"not a member (over by {decision.deficit})"
    print(f"=> {decision.m} is {verdict} of S({decision.g})")


def _not_realizable(
    args: argparse.Namespace, parameters: dict, fields: dict, text: str, exc: NotRealizableError
) -> int:
    """An order outside S(g): `fields` and the reason as the JSON result,
    else `text`; the reason also goes to stderr. Exit 1."""
    if args.format == "json":
        _emit_json(args.command, parameters, {**fields, "reason": str(exc)})
    elif args.format == "text":
        print(text)
    print(f"not realizable: {exc}", file=sys.stderr)
    return EXIT_NEGATIVE


def _beyond_prime_bound(args: argparse.Namespace, exc: NotRealizableError) -> int:
    """m has a prime above 2g + 1, where factoring stopped: no cost table."""
    d = exc.decision
    fields = {"m": str(d.m), "genus": str(d.g), "member": False, "budget": str(d.budget)}
    text = f"m = {d.m}, genus = {d.g}, budget = {d.budget}\n=> {d.m} is not a member of S({d.g})"
    return _not_realizable(args, {"m": str(d.m), "genus": str(d.g)}, fields, text, exc)


def cmd_member(args: argparse.Namespace) -> int:
    from .criterion import NotRealizableError, membership

    decision = membership(args.m, args.genus)
    if decision.report.cofactor > 1:
        return _beyond_prime_bound(args, NotRealizableError(decision))
    if args.format == "json":
        _emit_json(
            "member",
            {"m": str(args.m), "genus": str(args.genus)},
            _decision_result(decision),
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["prime", "exponent", "cost"])
        for t in decision.report.terms:
            writer.writerow([t.prime, t.exponent, t.cost])
    else:
        _print_decision_text(decision)
    return EXIT_OK if decision.member else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# orders


def cmd_orders(args: argparse.Namespace) -> int:
    from .criterion import enumerate_orders

    _refuse_over_cap("orders", "enumeration", args.genus, args.allow_large)
    orders = enumerate_orders(args.genus)
    if args.format == "json":
        _emit_json(
            "orders",
            {"genus": str(args.genus), "allow_large": bool(args.allow_large)},
            {"count": str(len(orders)), "orders": [str(m) for m in orders]},
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["m"])
        for m in orders:
            writer.writerow([m])
    else:
        print(f"S({args.genus}) has {len(orders)} elements:")
        print(" ".join(str(m) for m in orders))
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal


def _record_row(record: ExtremalRecord, show_f: bool, show_h: bool) -> dict:
    row: dict = {"g": str(record.g)}
    if show_f:
        row["f"] = str(record.f)
    if show_h:
        row["h"] = str(record.h)
        row["h_factorization"] = _factorization_pairs(record.h_factorization)
    return row


def cmd_extremal(args: argparse.Namespace) -> int:
    from .extremal import brute_force_extremal, extremal_table

    g_from, g_to = _parse_range(args.genus)
    # column selection: either flag narrows the table, neither means both
    show_f = args.count or not args.max
    show_h = args.max or not args.count
    if args.oracle:
        _refuse_over_cap("extremal --oracle", "enumeration", g_to, args.allow_large)
    _refuse_over_cap("extremal", "genus", g_to, args.allow_large)
    records = extremal_table(g_from, g_to)
    mismatches = []
    if args.oracle:
        for record in records:
            reference = brute_force_extremal(record.g)
            if (reference.f, reference.h) != (record.f, record.h):
                mismatches.append((record, reference))
    if args.format == "json":
        result = {
            "records": [_record_row(r, show_f, show_h) for r in records],
            "oracle_checked": bool(args.oracle),
            "oracle_mismatches": [
                {"g": str(rec.g), "dp": [str(rec.f), str(rec.h)], "oracle": [str(ref.f), str(ref.h)]}
                for rec, ref in mismatches
            ],
        }
        parameters = {
            "genus": args.genus,
            "oracle": bool(args.oracle),
            "allow_large": bool(args.allow_large),
        }
        _emit_json("extremal", parameters, result)
    elif args.format == "csv":
        writer = _csv_writer()
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
            print("  ".join(parts))
        if args.oracle and not mismatches:
            print(f"oracle cross-check passed for g in {g_from}..{g_to}")
    if mismatches:
        for rec, ref in mismatches:
            print(
                f"oracle mismatch at g = {rec.g}: dp (f, h) = ({rec.f}, {rec.h}), "
                f"enumeration (f, h) = ({ref.f}, {ref.h})",
                file=sys.stderr,
            )
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness / verify


def _certificate_result(witness, certificate) -> dict:
    from .witness import certificate_to_dict

    return {
        "size": str(witness.matrix.rows),
        "genus": str(witness.genus),
        "claimed_order": str(witness.claimed_order),
        "all_passed": certificate.all_passed,
        "failing_checks": certificate.failing_checks(),
        "certificate": certificate_to_dict(certificate),
    }


def cmd_witness(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise UsageError("witness output is not tabular; use text or json")
    _refuse_over_cap("witness", "witness", args.genus, args.allow_large)
    from .witness import NotRealizableError, build_witness, witness_to_dict

    try:
        witness = build_witness(args.m, args.genus)
    except NotRealizableError as exc:
        decision = exc.decision
        if decision.report.cofactor > 1:
            return _beyond_prime_bound(args, exc)
        if args.format == "json":
            _emit_json(
                "witness",
                {"m": str(args.m), "genus": str(args.genus)},
                {"built": False, "reason": str(exc), "membership": _decision_result(decision)},
            )
        else:
            _print_decision_text(decision)
        return EXIT_NEGATIVE
    # the document's entries are written a few thousand at a time, so no
    # text of the whole document is ever held
    document = witness_to_dict(witness, entries=[_ITEMS])

    def entries() -> Iterator[str]:
        return (f'"{x}"' for x in witness.matrix.entries)

    if args.output:
        import json

        try:
            with open(args.output, "w") as file:
                _write_json_items(json.dumps(document, indent=2), entries(), file)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    if args.format == "json":
        result = {"built": True, "witness": document, "path": args.output or None}
        text = _envelope("witness", {"m": str(args.m), "genus": str(args.genus)}, result)
        _write_json_items(text, entries(), sys.stdout)
    else:
        n = witness.matrix.rows
        print(f"order-{args.m} witness in Sp({n},Z):")
        for i in range(n):
            print("  [" + " ".join(f"{x:>4}" for x in witness.matrix.row(i)) + "]")
        print(f"certificate: all checks passed = {witness.certificate.all_passed}")
        if args.output:
            print(f"written to {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise UsageError("verification output is not tabular; use text or json")
    from .witness import NotRealizableError, verify_witness, witness_from_json

    try:
        text = Path(args.path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}") from None
    witness = witness_from_json(text)  # ValueError on malformed -> exit 2
    try:
        certificate = verify_witness(witness, witness.genus)
    except NotRealizableError as exc:
        fields = {
            "size": str(witness.matrix.rows),
            "genus": str(witness.genus),
            "claimed_order": str(witness.claimed_order),
            "all_passed": False,
        }
        text = f"claimed order {witness.claimed_order}, size {witness.matrix.rows}\nverdict: INVALID"
        return _not_realizable(args, {"path": args.path}, fields, text, exc)
    result = _certificate_result(witness, certificate)
    if args.format == "json":
        _emit_json("verify", {"path": args.path}, result)
    else:
        print(f"claimed order {witness.claimed_order}, size {witness.matrix.rows}")
        print(f"  symplectic (A^T J A = J): {'pass' if certificate.symplectic else 'FAIL'}")
        print(f"  A^m = I: {'pass' if certificate.power_identity else 'FAIL'}")
        for check in certificate.proper_powers:
            status = "pass" if check.passed else "FAIL"
            print(f"  A^(m/{check.prime}) != I: {status}")
        print(f"verdict: {'valid' if certificate.all_passed else 'INVALID'}")
    if not certificate.all_passed:
        failing = ", ".join(certificate.failing_checks())
        print(f"failed checks: {failing}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import CHECK_NAMES, REPORT_FIELDS, default_range, report_to_dict, run_check

    name = args.check
    if name not in CHECK_NAMES:
        raise UsageError(f"unknown check {name!r}; valid names: {', '.join(sorted(CHECK_NAMES))}")
    if args.range:
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
    failures = 0
    unmet = 0
    total = 0
    with _Batched() as out:
        json_rows = _JsonRows("bounds", parameters, "reports", out) if args.format == "json" else None
        writer = _csv_writer(out) if args.format == "csv" else None
        for report in reports:
            total += 1
            passed = report.passed
            failures += passed is False
            unmet += passed is None
            if args.format == "json":
                json_rows.add(report_to_dict(report))
            elif args.format == "csv":
                # the header comes with the first row: a sweep that raises
                # before it writes nothing
                if total == 1:
                    writer.writerow(REPORT_FIELDS)
                writer.writerow((*report.rendered(), _CSV_STATUS[passed], report.note))
            else:
                check, point, lhs, rhs, margin = report.rendered()
                note = f"  ({report.note})" if report.note else ""
                out.write(
                    f"{check}  point={point}  lhs={lhs}  rhs={rhs}  margin={margin}  "
                    f"{_TEXT_STATUS[passed]}{note}\n"
                )
        if args.format == "json":
            json_rows.close(
                {"total": str(total), "failures": str(failures), "precondition_unmet": str(unmet)}
            )
        elif args.format == "csv" and not total:
            writer.writerow(REPORT_FIELDS)
        elif args.format == "text":
            out.write(
                f"{total} rows: {total - failures - unmet} pass, {failures} fail, "
                f"{unmet} precondition-unmet\n"
            )
    return EXIT_NEGATIVE if failures else EXIT_OK


# a row's pass cell, by its verdict
_CSV_STATUS = {True: "true", False: "false", None: ""}
_TEXT_STATUS = {True: "pass", False: "FAIL", None: "unmet"}


# ---------------------------------------------------------------------------
# parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )


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
    _add_format(p)
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("verify", help="re-check a stored witness document")
    p.add_argument("path")
    _add_format(p)
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
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only on this path: it costs every command start-up

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
