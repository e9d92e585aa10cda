"""Run one sptorsion CLI command in process with per-layer spans.

Usage: python3 perfbench/trace_child.py RESULT_JSON STDOUT_FILE -- CLI_ARGS...

The package is imported from PYTHONPATH (run.py points it at the tree
under test). Wrappers replace each traced function under every name a
module looks it up by, since modules import by name (``witness`` calls its
own ``determinant`` binding, ``cli`` its own ``run_check``).
``IntMatrix.__matmul__`` is wrapped on the class; the generator that
``run_check`` returns is timed per ``next()``. Spans stay in memory and
are summarised into RESULT_JSON when the command has finished; the CLI's
stdout goes to STDOUT_FILE so the caller can check it, and its exit code
becomes this process's exit code.
"""

from __future__ import annotations

import io
import json
import sys
import time

T_START = time.perf_counter()


class Tracer:
    """Spans as [name, start, end, parent, info]; `active` counts open
    spans per name so wrappers can tell which layer called them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self.stack.append(idx)
        self.active[name] = self.active.get(name, 0) + 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.active[span[0]] -= 1

    def inside(self, name: str) -> bool:
        return self.active.get(name, 0) > 0


TRACER = Tracer()


def _wrap(fn, name, info=None):
    def traced(*args, **kwargs):
        idx = TRACER.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end(idx)
        if info is not None:
            try:
                TRACER.spans[idx][4] = info(args, result)
            except (IndexError, AttributeError, TypeError):
                pass  # a changed signature loses this counter, not the run
        return result

    return traced


def _traced_rows(gen):
    while True:
        idx = TRACER.begin("bounds.run_check")
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            TRACER.end(idx)
        TRACER.spans[idx][4] = 1  # one report row
        yield item


def _wrap_run_check(fn):
    def traced(*args, **kwargs):
        idx = TRACER.begin("bounds.run_check")
        try:
            gen = fn(*args, **kwargs)
        finally:
            TRACER.end(idx)
        return _traced_rows(gen)

    return traced


def _left_operand(args, result):
    entries = args[0].entries
    return (len(entries) - entries.count(0), len(entries), TRACER.inside("witness.certify"))


# span name -> (module, attribute, info recorded from arguments and result)
TARGETS = {
    "numtheory.sieve": ("numtheory", "sieve", None),
    "numtheory.factor": ("numtheory", "factor", None),
    "criterion.membership": ("criterion", "membership", None),
    "extremal.count_orders": ("extremal", "count_orders", lambda a, r: a[0]),
    "extremal.max_order_value": ("extremal", "max_order_value", lambda a, r: (a[0], r.bit_length())),
    "matrices.left_kernel": ("matrices", "left_kernel", lambda a, r: a[0].rows),
    "matrices.determinant": ("matrices", "determinant", lambda a, r: TRACER.inside("witness.form_search")),
    "witness.cyclotomic": ("witness", "cyclotomic", None),
    "witness.form_lattice": ("witness", "invariant_alternating_lattice", lambda a, r: a[0].rows),
    "witness.form_search": ("witness", "find_unimodular_form", None),
    "witness.symplectic_basis": ("witness", "symplectic_basis", None),
    "witness.certify": ("witness", "_certify", None),
    "bounds.to_fraction": ("bounds", "_mpf_to_fraction", None),
    "bounds.guarded_compare": ("bounds", "_guarded_pass", None),
    "bounds.render_value": ("bounds", "render_value", None),
}


def install() -> list[str]:
    """Wrap every target under each name bound to it; return the targets
    this tree does not have."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sptorsion"]
    missing = []

    def rebind(orig, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)

    for name, (modname, attr, info) in TARGETS.items():
        orig = getattr(sys.modules.get(f"sptorsion.{modname}"), attr, None)
        if orig is None:
            missing.append(name)
            continue
        rebind(orig, _wrap(orig, name, info))
    bounds = sys.modules.get("sptorsion.bounds")
    if getattr(bounds, "run_check", None) is None:
        missing.append("bounds.run_check")
    else:
        rebind(bounds.run_check, _wrap_run_check(bounds.run_check))
    int_matrix = getattr(sys.modules.get("sptorsion.matrices"), "IntMatrix", None)
    if int_matrix is None:
        missing.append("matrices.matmul")
    else:
        int_matrix.__matmul__ = _wrap(int_matrix.__matmul__, "matrices.matmul", _left_operand)
    return missing


def summarise(spans: list[list]) -> dict:
    """Per span name: calls, time in outermost calls, self time; plus the
    counters the wrappers recorded."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names: dict[str, dict] = {}
    counters = {
        "dp_genera": [], "h_bits_max": 0,
        "matmul_nonzeros": 0, "matmul_entries": 0, "certify_matmuls": 0,
        "left_kernel_rows_max": 0, "form_lattice_unknowns": 0,
        "form_search_dets": 0, "rows": 0,
    }
    for idx, (name, start, end, parent, info) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[idx]
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            entry["s"] += end - start
        if info is None:
            continue
        if name == "extremal.count_orders":
            counters["dp_genera"].append(info)
        elif name == "extremal.max_order_value":
            counters["dp_genera"].append(info[0])
            counters["h_bits_max"] = max(counters["h_bits_max"], info[1])
        elif name == "matrices.matmul":
            counters["matmul_nonzeros"] += info[0]
            counters["matmul_entries"] += info[1]
            counters["certify_matmuls"] += info[2]
        elif name == "matrices.left_kernel":
            counters["left_kernel_rows_max"] = max(counters["left_kernel_rows_max"], info)
        elif name == "witness.form_lattice":
            counters["form_lattice_unknowns"] += info * (info - 1) // 2
        elif name == "matrices.determinant":
            counters["form_search_dets"] += info
        elif name == "bounds.run_check":
            counters["rows"] += 1
    return {"names": names, "counters": counters}


def main(argv: list[str]) -> int:
    result_path, stdout_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py RESULT_JSON STDOUT_FILE -- CLI_ARGS...")
    t0 = time.perf_counter()
    import sptorsion.cli as cli

    import_s = time.perf_counter() - t0
    missing = install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    idx = TRACER.begin("cli.main")
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        TRACER.end(idx)
        sys.stdout = real_stdout
    main_s = TRACER.spans[idx][2] - TRACER.spans[idx][1]
    inprocess_s = time.perf_counter() - T_START
    out = captured.getvalue().encode()
    with open(stdout_path, "wb") as handle:
        handle.write(out)
    summary = summarise(TRACER.spans)
    summary.update(
        import_s=import_s, main_s=main_s, inprocess_s=inprocess_s,
        out_bytes=len(out), missing=missing,
    )
    with open(result_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
