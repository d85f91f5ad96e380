"""The measuring process of the pandiag benchmark; started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace T [--measure]

Imports pandiag from ``src/``, builds the workload's operations from the
seed and runs one unchecked warm-up round, then prints ``{"excluded_s": x}``
on a line of its own: x is the time spent generating the benchmark's own
inputs, which run.py subtracts from the time it measured since starting
this interpreter.  Without ``--measure`` the process then exits.  With it,
the process checks the oracle, runs the timed (or traced) rounds and prints
the result as a second JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from tracer import CHECK_FAMILY, Tracer
from workloads import MODULES, WORKLOADS, Program, run_round

BENCH = Path(__file__).resolve().parent
MIN_ROUNDS = 3


def timed_run(ops, args):
    rounds = []
    t0 = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - t0 < args.seconds:
        rounds.append(run_round(ops))
    metrics = {
        "accept_s": (statistics.median(r.accept for r in rounds), "s"),
        "reject_s": (statistics.median(r.reject for r in rounds), "s"),
    }
    return rounds, metrics


SELF_MS = (
    "params.iter_feasible",
    "params.minimal_order",
    "orthogonal.determinant",
    "magic.count_orthogonal_families",
    "verify.verify_latin_pandiagonal",
    "verify.verify_magic_pandiagonal",
    "cli.document_to_json",
    "cli.document_from_json",
    "cli.render_blocks",
    "cli.run",
    "lattice.build",
    "lattice.slice_values",
    "magic.compose_checked",
    "orthogonal.verify_orthogonal_brute",
)
COUNTS = {  # metric: (tracer counter, unit)
    "modarith.gcd.calls": ("modarith.gcd", "count"),
    "params.vectors_yielded": ("params.iter_feasible.yielded", "count"),
    "verify.lines_checked": ("verify.lines_checked", "count"),
    "lattice.cells_built": ("lattice.cells_built", "count"),
    "cli.bytes_out": ("cli.bytes_out", "bytes"),
    "cli.bytes_in": ("cli.bytes_in", "bytes"),
}


def traced_run(ops, args, tracer):
    """Alternate untraced and traced rounds; per-layer metrics are per traced round.

    The tracer recorded the warm-up round, spans [0, first mark).
    """
    warm_self = tracer.summarize(0, tracer.mark())["self_s"]
    plain, traced, segments, counts = [], [], [], Counter()
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < args.seconds:
        plain.append(run_round(ops))
        before, lo = Counter(tracer.counts), tracer.mark()
        tracer.install()
        try:
            traced.append(run_round(ops))
        finally:
            tracer.uninstall()
        counts.update(tracer.counts - before)
        segments.append((lo, tracer.mark()))
    tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.npz", segments)

    k = len(traced)
    calls, self_s, module_s = Counter(), Counter(), Counter()
    top_s = check_calls = leaf_checks = 0
    for lo, hi in segments:
        s = tracer.summarize(lo, hi)
        calls.update(s["calls"])
        self_s.update(s["self_s"])
        module_s.update(s["module_self_s"])
        top_s += s["top_s"]
        check_calls += s["check_calls"]
        leaf_checks += s["leaf_checks"]
    op_s = sum(r.accept + r.reject for r in traced)
    yielded = counts["params.iter_feasible.yielded"]
    metrics = {
        "params.check.calls": (check_calls / k, "count"),
        "params.check.self_ms": (sum(self_s[n] for n in CHECK_FAMILY) * 1000 / k, "ms"),
        "params.leaf_yield_ratio": (yielded / leaf_checks if leaf_checks else 0.0, "ratio"),
        "orthogonal.determinant.calls": (calls["orthogonal.determinant"] / k, "count"),
        # the squares table is filled by the first call, so it is measured in the warm-up round
        "verify.enumerate_squares.self_ms": (float(warm_self["verify.enumerate_squares"]) * 1000, "ms"),
    }
    metrics.update({f"{label}.self_ms": (self_s[label] * 1000 / k, "ms") for label in SELF_MS})
    metrics.update({name: (counts[key] / k, unit) for name, (key, unit) in COUNTS.items()})
    metrics["trace.overhead_ms"] = (
        (statistics.median(r.accept + r.reject for r in traced)
         - statistics.median(r.accept + r.reject for r in plain)) * 1000,
        "ms",
    )
    metrics["trace.top_span_share"] = (top_s / op_s, "ratio")
    # gcd is counted, not timed, so its time is part of its callers' (params') share
    metrics.update({f"share.{m}": (module_s[m] / op_s, "ratio") for m in MODULES if m != "modarith"})
    return plain + traced, metrics


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--measure", action="store_true")
    args = p.parse_args()

    pd = Program(BENCH.parent / "src")
    t0 = perf_counter()
    ops = WORKLOADS[args.workload](pd, np.random.default_rng(args.seed))
    excluded = perf_counter() - t0
    tracer = Tracer([getattr(pd, m) for m in MODULES]) if args.trace else None
    if tracer:
        tracer.install()
    try:
        run_round(ops, check=False)
    finally:
        if tracer:
            tracer.uninstall()
    print(json.dumps({"excluded_s": excluded}), flush=True)
    if not args.measure:
        return

    oracle.self_check()
    if tracer:
        rounds, metrics = traced_run(ops, args, tracer)
    else:
        rounds, metrics = timed_run(ops, args)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wrong = sorted({w for r in rounds for w in r.wrong})
    for w in wrong:
        print(f"wrong output: {w}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
