"""Paths, child-process environment and order statistics shared by the
benchmark's commands."""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("embedding", "shared-effects", "tables", "geometry")

#: Percentiles offered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


def spec() -> dict:
    """The benchmark's own definition: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    The package is imported from the checkout's ``src``; hash seeds and
    native thread pools are pinned so two runs of one input do the same
    work on one core.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def python() -> str:
    return sys.executable or "python3"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest offered percentile that leaves at
    least ten samples beyond it; None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = int(n * pct / 100.0)
        if n - rank >= 10:
            return pct, ordered[min(rank, n - 1)]
    return None
