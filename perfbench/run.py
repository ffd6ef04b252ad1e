#!/usr/bin/env python3
"""Run one workload of the exact-pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload embedding --seed 1 --seconds 26 --trace 0

The workload runs in its own single-threaded process (``worker.py``) as a
closed loop over a seeded input list.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
``--workload all`` runs every workload in turn.  The full record of each
run is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR, OUT_DIR, SRC, WORKLOADS, child_env, python, spec, tail,
)

#: Timed set-ups per run besides the workload process's own, before and
#: after it, so the median samples the machine at both ends of the run.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 4
#: Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0


class RunError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before the workload process started")
    try:
        done = subprocess.run(
            [python(), str(BENCH_DIR / "worker.py"), *args],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process exceeded {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise RunError(
            f"workload process exited {done.returncode}: "
            + done.stderr.strip()[-2000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(record: dict, setups: list[float]) -> dict:
    """Metrics over the fixed input list: each input's time at nominal
    speed is its median over the rounds; inputs whose analysis raised are
    left out."""
    per_input = []
    for column in zip(*record["scaled"]):
        done = [t for t in column if t is not None]
        if done:
            per_input.append(statistics.median(done))
    if not per_input:
        raise RunError("no analysis completed")
    return {
        "analyses_per_s": len(per_input) / sum(per_input),
        "analysis_p50_s": statistics.median(per_input),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def probe_setups(count):
        return [worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(count)]

    setups = []
    if not trace:
        probe_setups(1)  # compiles bytecode; not timed
        setups += probe_setups(SETUP_PROBES_BEFORE)
    stem = f"{workload}-seed{seed}-trace{trace}"
    extra = ["--spans", str(OUT_DIR / f"{stem}.spans.json")] if trace else []
    record = worker(
        base + ["--trace", str(trace)] + extra, deadline
    )
    setups.append(record["setup_s"])
    if not trace:
        setups += probe_setups(SETUP_PROBES_AFTER)
    record["setup_samples"] = setups

    definitions = spec()
    wanted = definitions["per_layer"] if trace else definitions["end_to_end"]
    values = record["per_layer"] if trace else end_to_end(record, setups)
    failed = record["raised"] + record["check_failed"]
    result = {
        "correct": record["check_failed"] == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record))

    print(
        f"workload {workload}  seed {seed}  rounds {record['rounds']}  "
        f"inputs {len(record['labels'])}  trace {trace}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'wall time of the analyses/round':34s} "
          f"{record['analysis_s_per_round']:.6g} s")
    if not trace:
        all_times = [t for row in record["scaled"] for t in row if t is not None]
        found = tail(all_times)
        if found:
            pct, value = found
            print(f"  {'analysis_tail_s':34s} {value:.6g} s "
                  f"(p{pct:g} of {len(all_times)} analyses)")
        else:
            print(f"  {'analysis_tail_s':34s} not reported: "
                  f"{len(all_times)} analyses, fewer than 40")
    print(f"  attempted {result['attempted']}  failed {failed}  "
          f"correct {str(result['correct']).lower()}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contextua" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'contextua'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
