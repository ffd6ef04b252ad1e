#!/usr/bin/env python3
"""Traced runs: per-layer metrics of every workload, and the tracing overhead.

    python3 perfbench/traced.py --seed 1

For each workload this runs ``run.py --trace 1`` and ``run.py --trace 0``
on the same seed and prints one table: a row per per-layer metric, a
column per workload.  Names ending in ``_s`` are self times per round of
the input list (``scenarios.generate_s``: the run's one input generation);
the others are counts per round, or maxima (``linalg.max_cols``,
``lp.max_bits``).  A blank cell is a layer the workload never calls.  The
last rows give the analysis time per round with and without tracing, whose
difference is the measured tracing overhead, and the overhead estimated as
spans per round times the cost of one traced call (timed on a no-op).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, python, spec


def record(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [python(), str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec()["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed: {done.stderr.strip()}")
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def span_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds to the call itself."""
    from tracing import Recorder

    def noop():
        return None

    traced = Recorder().wrap(noop, "noop", None)
    timings = []
    for fn in (noop, traced):
        start = perf_counter()
        for _ in range(calls):
            fn()
        timings.append(perf_counter() - start)
    return (timings[1] - timings[0]) / calls


def cell(value: float) -> str:
    if not value:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def main(argv=None) -> int:
    definitions = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    traced, plain = {}, {}
    for workload in names:
        traced[workload] = record(workload, args.seed, 1)
        plain[workload] = record(workload, args.seed, 0)

    width = max(len(m["name"]) for m in definitions["per_layer"]) + 2
    print(f"{'metric':{width}s}" + "".join(f"{w:>16s}" for w in names))
    for m in definitions["per_layer"]:
        row = [cell(traced[w]["per_layer"][m["name"]]) for w in names]
        print(f"{m['name']:{width}s}" + "".join(f"{c:>16s}" for c in row))
    cost = span_cost()
    overhead = {}
    for label, pick in (
        ("spans/round", lambda w: traced[w]["spans_per_round"]),
        ("estimated_overhead_s/round", lambda w: traced[w]["spans_per_round"] * cost),
        ("analysis_s/round traced", lambda w: traced[w]["analysis_s_per_round"]),
        ("analysis_s/round plain", lambda w: plain[w]["analysis_s_per_round"]),
        ("overhead_s/round", lambda w: traced[w]["analysis_s_per_round"]
         - plain[w]["analysis_s_per_round"]),
        ("overhead_%", lambda w: 100.0 * (traced[w]["analysis_s_per_round"]
         / plain[w]["analysis_s_per_round"] - 1.0)),
    ):
        overhead[label] = {w: pick(w) for w in names}
        print(f"{label:{width}s}" + "".join(f"{overhead[label][w]:16.4g}" for w in names))
    OUT_DIR.mkdir(exist_ok=True)
    print(f"one traced call costs {cost * 1e6:.2f} us")
    (OUT_DIR / f"traced-seed{args.seed}.json").write_text(json.dumps({
        "per_layer": {w: traced[w]["per_layer"] for w in names},
        "overhead": overhead,
        "span_cost_s": cost,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
