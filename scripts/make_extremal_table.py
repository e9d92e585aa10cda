#!/usr/bin/env python3
"""Tabulate f(g) and h(g) over a genus range and write a CSV.

The table is computed with the exact dynamic programs; pass --oracle to
cross-check a prefix against brute-force enumeration (slow, so the oracle
range is capped independently).
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from sptorsion.extremal import (
    DEFAULT_ORACLE_CAP,
    brute_force_extremal,
    extremal_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-from", type=int, default=1)
    parser.add_argument("--g-to", type=int, default=200)
    parser.add_argument(
        "--oracle", action="store_true",
        help=f"cross-check g <= {DEFAULT_ORACLE_CAP} against enumeration",
    )
    parser.add_argument("-o", "--output", type=Path, default=Path("extremal_table.csv"))
    args = parser.parse_args()

    t0 = time.monotonic()
    records = extremal_table(args.g_from, args.g_to)
    elapsed = time.monotonic() - t0
    print(f"computed {len(records)} rows in {elapsed:.2f}s")

    if args.oracle:
        checked = 0
        for rec in records:
            if rec.g > DEFAULT_ORACLE_CAP:
                break
            ref = brute_force_extremal(rec.g)
            if (rec.f, rec.h) != (ref.f, ref.h):
                print(f"oracle mismatch at g={rec.g}: {rec} vs {ref}", file=sys.stderr)
                return 1
            checked += 1
        print(f"oracle agreed on {checked} rows")

    with args.output.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "f", "h", "h_factorization"])
        for rec in records:
            fact = "*".join(
                f"{p}^{a}" if a > 1 else str(p) for p, a in rec.h_factorization
            )
            writer.writerow([rec.g, rec.f, rec.h, fact])
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
