#!/usr/bin/env python3
"""Run each workload k times, one seed per run, and report how steady the
end-to-end metrics are.

    python3 perfbench/steady.py --runs 10 --label a
    python3 perfbench/steady.py --runs 10 --label b --compare a

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(Q3 - Q1) / median`` against the metric's bound.  ``--compare`` checks a
second set of runs against a saved first: each median may differ from the
first's by at most the bound, either way, and the share of failed analyses
must be the same.  Runs use seeds 1..k and the run length of
``BENCHMARK.json``.  Sets are saved under
``.perfbench_out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, python, quartiles, spec


def run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [python(), str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec()["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: dict, metrics: list[dict]) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            verdict = "ok" if spread <= m["bound"] / 3 else "ok>1/3" if within else "WIDE"
            steady &= within
            print(f"  {m['name']:16s} median {med:10.5g} {m['unit']:4s} "
                  f"Q1 {q1:10.5g}  Q3 {q3:10.5g}  spread {spread:6.3f} "
                  f"bound {m['bound']:.3f}  {verdict}")
    return steady


def compare(first: dict, second: dict, metrics: list[dict]) -> bool:
    agree = True
    for workload in second:
        if workload not in first:
            continue
        a, b = first[workload], second[workload]
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        same = share_a == share_b and len(share_a) == 1
        agree &= same
        print(f"{workload}: failed share {sorted(share_a)} vs {sorted(share_b)}"
              f" {'same' if same else 'DIFFERENT'}")
        for m in metrics:
            med_a = quartiles([r["metrics"][m["name"]]["value"] for r in a])[1]
            med_b = quartiles([r["metrics"][m["name"]]["value"] for r in b])[1]
            change = (med_b - med_a) / med_a
            ok = abs(change) <= m["bound"]
            agree &= ok
            print(f"  {m['name']:16s} {med_a:10.5g} -> {med_b:10.5g} "
                  f"({change:+.3f}; bound {m['bound']:.3f}) {'ok' if ok else 'MOVED'}")
    return agree


def main(argv=None) -> int:
    definitions = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--label", default="steady")
    parser.add_argument("--compare", help="label of a saved set to compare against")
    args = parser.parse_args(argv)

    metrics = definitions["end_to_end"]
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(1, args.runs + 1):
            result = run(workload, seed)
            values = " ".join(
                f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: {values}", flush=True)
            results[workload].append(result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{args.label}.json").write_text(json.dumps(results))
    steady = summarize(results, metrics)
    if args.compare:
        first = json.loads((OUT_DIR / f"steady-{args.compare}.json").read_text())
        steady &= compare(first, results, metrics)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
