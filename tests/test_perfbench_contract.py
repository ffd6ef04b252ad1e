"""The benchmark's contract with the package: every perfbench workload runs
one of its inputs under the tracer, and every input untraced, and each
passes its own oracle.

A renamed trace point makes ``Recorder.install`` fail, and a changed result
layout makes the oracle report a problem, here rather than in a benchmark
run.  The test imports ``perfbench/`` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        import oracles
        import tracing
        import workloads

        yield oracles, tracing, workloads
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["embedding", "shared-effects", "tables", "geometry"])
def test_one_input_of_each_workload_passes_its_oracle(bench, workload):
    oracles, tracing, workloads = bench
    case = workloads.INPUTS[workload](1)[0]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        output = workloads.ANALYSES[workload](case)
    finally:
        recorder.uninstall()
    assert recorder.spans
    assert {name for name, *_ in recorder.spans} <= set(tracing.SPAN_NAMES)
    reference = oracles.references(workload)
    assert oracles.CHECKS[workload](case, output, reference(case)) == []


@pytest.mark.parametrize("workload", ["embedding", "shared-effects", "tables", "geometry"])
def test_every_input_of_each_workload_passes_its_oracle(bench, workload):
    oracles, _, workloads = bench
    reference = oracles.references(workload)
    for case in workloads.INPUTS[workload](1):
        output = workloads.ANALYSES[workload](case)
        assert oracles.CHECKS[workload](case, output, reference(case)) == [], case.label
