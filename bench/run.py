"""Run one workload of the pandiag benchmark and print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

The measured process is bench/worker.py: one process, one thread, one
caller in a closed loop, each operation starting when the previous one has
returned.  It repeats its workload's fixed operation list in whole rounds
until ``--seconds`` have passed (and at least three times), checking every
output against the oracle.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

- setup_s: median over SETUP_RUNS fresh interpreters of the time from
  starting the interpreter to the end of one warm-up round, less the time
  spent generating the benchmark's inputs.  The last of them goes on to
  measure the rest;
- accept_s / reject_s: median over rounds of the seconds one round spends
  on operations whose correct answer is positive / negative;
- peak_rss_mb: ru_maxrss of the measuring process at its end.

``--trace 1`` starts one worker, which alternates untraced and traced
rounds and reports the per-layer metrics of README.md; its spans are
written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150


def start_worker(args, measure: bool) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and, if it measured, its result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--measure"] if measure else [])
    # one thread: keep numpy's BLAS from starting a thread pool at import
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            t1 = perf_counter()
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    setup = t1 - t0 - json.loads(ready)["excluded_s"]
    return setup, json.loads(rest.strip().splitlines()[-1]) if measure else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "verify", "documents"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        runs = 1 if args.trace else SETUP_RUNS
        setups = [start_worker(args, measure=False)[0] for _ in range(runs - 1)]
        setup, result = start_worker(args, measure=True)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups + [setup]), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
