"""Seed-driven command sequences for the benchmark workloads.

Each workload is a fixed mix of command classes; the seed only picks the
inputs inside each class, so two seeds give different runs of about the
same weight. Genus windows are sized by a work model, the DP cells
sum of (2g+1) * pi(2g+1) over the window, so a window that starts lower
simply runs longer. x windows have a fixed width: the per-row cost of the
x-indexed checks barely depends on x in the band used here.

Every input is chosen so that no operation fails on a correct program:
genus windows lie inside the checks' validity ranges, x windows lie above
2973 (the dusart-product threshold), and every witness order is a member
of S(g) by the budget criterion.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("sweeps", "witness")

# Witness documents are written here, relative to the checkout root.
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    ``argv`` follows ``python -m sptorsion.cli``. ``lo``/``hi`` are the
    inclusive range of an extremal or bounds command, ``check`` the bound
    name, and ``m``/``g``/``doc`` the order, genus and document path of a
    witness build or verify.
    """

    argv: tuple[str, ...]
    lo: int = 0
    hi: int = 0
    check: str = ""
    m: int = 0
    g: int = 0
    doc: str = ""

    @property
    def sub(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@lru_cache(maxsize=None)
def _primes(limit: int = 4000) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def dp_cells(g: int) -> int:
    """(2g+1) * pi(2g+1): budget cells times primes of one DP pass."""
    return (2 * g + 1) * bisect_right(_primes(), 2 * g + 1)


def _window_down(hi: int, lo_min: int, target: int) -> tuple[int, int]:
    """Grow [lo, hi] downward until its DP cells reach target."""
    lo, acc = hi, dp_cells(hi)
    while acc < target and lo > lo_min:
        lo -= 1
        acc += dp_cells(lo)
    return lo, hi


def _window_up(lo: int, target: int) -> tuple[int, int]:
    """Grow [lo, hi] upward until its DP cells reach target."""
    hi, acc = lo, dp_cells(lo)
    while acc < target:
        hi += 1
        acc += dp_cells(hi)
    return lo, hi


def _cells(lo: int, hi: int) -> int:
    return sum(dp_cells(g) for g in range(lo, hi + 1))


def _bounds(check: str, lo: int, hi: int) -> Command:
    argv = ("bounds", "--check", check, "--range", f"{lo}..{hi}", "--format", "csv")
    return Command(argv, lo=lo, hi=hi, check=check)


def genus_sweep(rng: random.Random) -> list[Command]:
    """The extremal table used wide (many genera, small cells) and the
    five genus checks, each on a seed-placed window inside its default
    range (remark-upper uses the DP deep: two genera near 1490)."""
    lo = rng.randint(1, 20)  # always includes genera the brute-force oracle reaches
    lo, hi = _window_up(lo, _cells(1, 190))
    commands = [
        Command(("extremal", "-g", f"{lo}..{hi}", "--format", "csv"), lo=lo, hi=hi)
    ]
    for check, hi_band, lo_min, reference in (
        ("thm31", (270, 300), 1, (240, 300)),
        ("cor32", (270, 300), 1, (265, 300)),
        ("thm36", (560, 589), 489, (575, 589)),
        ("cor37", (560, 589), 489, (560, 589)),
    ):
        window = _window_down(rng.randint(*hi_band), lo_min, _cells(*reference))
        commands.append(_bounds(check, *window))
    lo = rng.randint(1486, 1499)
    commands.append(_bounds("remark-upper", lo, lo + 1))
    return commands


# Certify-heavy orders: 2^4 * 3^2 * 5 * 7 * 11 * 13 * q, seven primes and
# 24 bits, built at genus 34 (68 x 68 matrices, many small blocks). The
# seed picks q; every choice costs at most 68, the budget of genus 34.
_CERTIFY_CORE = 16 * 9 * 5 * 7 * 11 * 13
_CERTIFY_LAST_PRIMES = (17, 19, 23)
_CERTIFY_GENUS = 34

# Block-heavy orders: 43 times a small cofactor. The single 42-dim block
# of Phi_43 dominates; the cofactor's cost (0 or 2) and the genus padding
# vary with the seed.
_BLOCK_PRIME = 43
_BLOCK_COFACTORS = {1: 0, 2: 0, 3: 2, 4: 2, 6: 2}


def witness(rng: random.Random) -> list[Command]:
    """Two certify-heavy orders and one block-heavy order; each is built
    with `witness` and then re-checked from its document with `verify`."""
    orders = [
        (_CERTIFY_CORE * rng.choice(_CERTIFY_LAST_PRIMES), _CERTIFY_GENUS) for _ in range(2)
    ]
    cofactor = rng.choice(sorted(_BLOCK_COFACTORS))
    g = (_BLOCK_PRIME - 1) // 2 + _BLOCK_COFACTORS[cofactor] // 2 + rng.randint(0, 2)
    orders.append((_BLOCK_PRIME * cofactor, g))
    commands = []
    for i, (m, g) in enumerate(orders):
        doc = f"{WORK_DIR}/witness-{i}.json"
        commands.append(
            Command(
                ("witness", str(m), "-g", str(g), "-o", doc, "--format", "json"),
                m=m, g=g, doc=doc,
            )
        )
        commands.append(Command(("verify", doc, "--format", "json"), m=m, g=g, doc=doc))
    return commands


def prime_sweeps(rng: random.Random) -> list[Command]:
    """The four x-indexed checks on seed-placed windows in 15000..40000."""
    commands = []
    for check, width in (
        ("rosser", 5000),
        ("dusart-pi", 2500),
        ("dusart-product", 3000),
        ("lemma33", 15000),
    ):
        lo = rng.randint(15000, 25000)
        commands.append(_bounds(check, lo, lo + width - 1))
    return commands


def commands_for(workload: str, seed: int) -> list[Command]:
    """The command sequence one run of `workload` repeats.

    `sweeps` runs the extremal table and genus checks (bound by the DPs)
    and the x checks (RHS evaluation, exact compare and rendering, no DP)
    in one sequence; `witness` runs none of them, so an optimisation of
    the DPs, of the verdict core or of the witness pipeline each has one
    workload that exercises it and one that bypasses it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweeps":
        return genus_sweep(rng) + prime_sweeps(rng)
    if workload == "witness":
        return witness(rng)
    raise KeyError(workload)
