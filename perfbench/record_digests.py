"""Record the SHA-256 of every CSV output of the digest seed.

Usage (from the root of a source tree whose outputs are trusted):

    python3 perfbench/record_digests.py

Writes csv_sha256_seed0.json, keyed by the command's arguments; checks.py
compares the CSV outputs of runs with that seed against it. Witness
outputs are JSON and are not pinned: their matrices may change.
"""

import hashlib
import json
import os
import subprocess
import sys

from checks import DIGEST_SEED, DIGESTS, ROOT
from workloads import WORKLOADS, commands_for


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPTORSION_CACHE_DIR", None)
    digests = {}
    for workload in WORKLOADS:
        for cmd in commands_for(workload, DIGEST_SEED):
            if cmd.argv[-2:] != ("--format", "csv"):
                continue
            out = subprocess.run(
                [sys.executable, "-m", "sptorsion.cli", *cmd.argv],
                env=env, cwd=ROOT, capture_output=True, check=True,
            ).stdout
            digests[cmd.key] = hashlib.sha256(out).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
