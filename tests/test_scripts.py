"""The scripts under scripts/: they start, and their reports match the library."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contextua.disturbance import (
    detect_disturbance,
    extend_scenario,
    fractions_with_disturbance,
)
from contextua.core_model import (
    effect_equivalences,
    state_equivalences,
    validate_fragment,
)
from contextua.interference import all_i2
from contextua.noncontextuality import (
    contextual_fraction,
    minimal_negativity,
    noncontextual_lp,
)
from contextua.scenarios import SCENARIOS, nudged_box, planted_gap_model

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("corpus_summary.py", "disturbance_gap_report.py", "sweep_pr_noise.py")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", SCRIPTS)
def test_help_exits_0(name):
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


@pytest.mark.parametrize(
    "name, args",
    [
        ("disturbance_gap_report.py", ("--gaps", "x")),
        ("sweep_pr_noise.py", ("--grid", "1e3000000")),
        # well-formed values outside the family's range
        ("disturbance_gap_report.py", ("--gaps", "2")),
        ("disturbance_gap_report.py", ("--gaps", "0,3/4")),
        ("disturbance_gap_report.py", ("--nudges=-1/2",)),
        ("sweep_pr_noise.py", ("--grid", "2")),
        ("sweep_pr_noise.py", ("--grid", "1/2," + "9" * 5000)),
        # an overlong list is not quoted whole
        ("sweep_pr_noise.py", ("--grid", "1/4," * 5000 + "x")),
    ],
)
def test_a_bad_number_list_is_a_usage_error(name, args):
    done = run_script(name, *args)
    assert done.returncode == 2 and not done.stdout
    assert "usage:" in done.stderr and "Traceback" not in done.stderr
    assert f"argument {args[0].partition('=')[0]}" in done.stderr
    assert len(done.stderr) < 300, done.stderr[:400]


def test_disturbance_gap_report_matches_the_library():
    done = run_script("disturbance_gap_report.py")
    assert done.returncode == 0, done.stderr
    families = {
        "planted chain": planted_gap_model,
        "nudged extremal box": nudged_box,
    }
    build = None
    rows = 0
    for line in done.stdout.splitlines():
        fields = line.split()
        if not fields or fields[0] == "param":
            continue
        title = next((t for t in families if line.startswith(t)), None)
        if title is not None:
            build = families[title]
            continue
        m = build(Fraction(fields[0]))
        split = fractions_with_disturbance(m)
        after = contextual_fraction(extend_scenario(m).model).cf
        expected = [len(detect_disturbance(m)), split.ncf, split.cf, split.df, after]
        assert fields[1:] == [str(x) for x in expected]
        rows += 1
    assert rows == 10


def _corpus_row(kind, obj):
    """The fields corpus_summary.py prints for one scenario, from the library."""
    if kind == "fragment":
        loops = len(state_equivalences(obj)) + len(
            effect_equivalences(obj, include_unit=True)
        )
        return [
            str(obj.dimension),
            "ok" if validate_fragment(obj).ok else "BROKEN",
            str(loops),
            noncontextual_lp(obj).status,
            str(minimal_negativity(obj)[1]),
        ]
    if kind == "model":
        split = fractions_with_disturbance(obj)
        return [str(len(obj.hypergraph.contexts)), str(split.ncf), str(split.cf), str(split.df)]
    pairs = all_i2(obj)
    worst = max(pairs.values(), key=abs, default=Fraction(0))
    return [str(len(obj.atoms)), str(len(pairs)), f"{float(worst):.6f}"]


def test_corpus_summary_matches_the_library():
    done = run_script("corpus_summary.py")
    assert done.returncode == 0, done.stderr
    headers = {"fragment": "fragment", "table": "model", "measure": "measure"}
    kind = None
    seen = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] in headers:
            kind = headers[fields[0]]
            continue
        name, *values = fields
        made_kind, factory = SCENARIOS[name]
        assert made_kind == kind, name
        assert values == _corpus_row(kind, factory()), name
        seen[name] = kind
    assert sorted(seen) == sorted(SCENARIOS)
