#!/usr/bin/env python3
"""Build a witness matrix for every realizable order up to a genus.

Writes one JSON document per (m, g) pair into the output directory and
re-verifies each from its serialized form before counting it done.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from sptorsion.criterion import enumerate_orders
from sptorsion.witness import (
    build_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-to", type=int, default=6, help="largest genus to cover")
    parser.add_argument("-o", "--output", type=Path, default=Path("witnesses"))
    args = parser.parse_args()

    args.output.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    built = 0
    for g in range(1, args.g_to + 1):
        orders = enumerate_orders(g)
        for m in orders:
            witness = build_witness(m, g)
            document = witness_to_json(witness)
            path = args.output / f"witness_g{g}_m{m}.json"
            path.write_text(document)
            reloaded = witness_from_json(path.read_text())
            certificate = verify_witness(reloaded, g)
            assert certificate.all_passed, (m, g, certificate.failing_checks())
            built += 1
        print(f"g={g}: all {len(orders)} orders witnessed")
    elapsed = time.monotonic() - t0
    print(f"{built} witnesses written to {args.output} in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
