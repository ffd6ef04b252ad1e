"""Exit codes, report shapes, determinism, and file round-trips for the CLI."""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import cli
from contextua.cli import main
from contextua.core_model import fragment_from_json, model_from_json, model_to_json
from contextua.interference import additive_measure, all_i3, measure_from_json, measure_to_json
from contextua.scenarios import SCENARIOS, nudged_box, planted_gap_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# splitting b for --extend would create the copy b@1, which already exists
COLLIDING_MODEL = {
    "hypergraph": [["a", "b"], ["b", "b@1"]],
    "outcomes": {"a": 2, "b": 2, "b@1": 2},
    "tables": {"0": ["1/4", "1/4", "1/4", "1/4"], "1": ["1", "0", "0", "0"]},
}


def emit(capsys, tmp_path, name, *extra):
    code, out, err = run(capsys, "scenarios", "emit", name, *extra)
    assert code == 0, err
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return str(path)


def test_scenarios_list_and_every_emit_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "scenarios", "list", "--json")
    assert code == 0
    listing = json.loads(out)["scenarios"]
    names = {row["name"] for row in listing}
    assert {"pr-box", "gbit", "halving", "random-fragment"} <= names
    for row in listing:
        extra = ("--param", "seed=3") if row["name"].startswith("random-") else ()
        path = emit(capsys, tmp_path, row["name"], *extra)
        text = Path(path).read_text()
        if row["kind"] == "fragment":
            fragment_from_json(text)
        elif row["kind"] == "model":
            model_from_json(text)
        else:
            assert json.loads(text)["masses"]


def test_fraction_of_the_pr_box(capsys, tmp_path):
    path = emit(capsys, tmp_path, "pr-box")
    code, out, _ = run(capsys, "fraction", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["cf"] == "1"
    assert report["ncf"] == "0"
    code, _, _ = run(capsys, "fraction", path, "--strict")
    assert code == 1


def test_validate_exit_codes(capsys, tmp_path):
    path = emit(capsys, tmp_path, "classical-bit")
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "structural": [], "violations": []}

    doc = json.loads(Path(path).read_text())
    doc["states"][0] = ["2", "0"]  # unit no longer pairs to 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(broken), "--json")
    assert code == 0 and not json.loads(out)["ok"]
    code, _, _ = run(capsys, "validate", str(broken), "--strict")
    assert code == 1


def test_a_huge_dimension_is_not_spelled_out(capsys, tmp_path):
    # a 301-digit dimension loads; the shape messages name lengths only
    doc = json.loads(Path(emit(capsys, tmp_path, "classical-bit")).read_text())
    doc["dimension"] = 10**300
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    code, _, err = run(capsys, "nc-check", str(wide))
    assert code == 2 and len(err.splitlines()) == 1 and len(err.encode()) < 200
    code, out, _ = run(capsys, "validate", str(wide))
    assert code == 0 and "structural" in out and len(out.encode()) < 200


def test_nc_check_and_negativity(capsys, tmp_path):
    halving = emit(capsys, tmp_path, "halving")
    code, out, _ = run(capsys, "nc-check", halving, "--json", "--strict")
    assert code == 0
    assert json.loads(out)["status"] == "optimal"

    gbit = emit(capsys, tmp_path, "gbit")
    code, out, _ = run(capsys, "nc-check", gbit, "--json")
    assert code == 0
    report = json.loads(out)
    assert report == {"status": "infeasible", "certificate_verified": True}
    assert run(capsys, "nc-check", gbit, "--strict")[0] == 1

    code, out, _ = run(capsys, "negativity", gbit, "--json")
    assert code == 0 and json.loads(out)["negativity"] == "1"
    bit = emit(capsys, tmp_path, "classical-bit")
    code, out, _ = run(capsys, "negativity", bit, "--json", "--strict")
    assert code == 0 and json.loads(out)["negativity"] == "0"

    # a structural error reaches the message, not only the invariant violations
    doc = json.loads(Path(bit).read_text())
    doc["measurements"] = [[0, 7]]
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps(doc))
    for command in ("nc-check", "negativity"):
        code, _, err = run(capsys, command, str(dangling))
        assert code == 2 and len(err.splitlines()) == 1
        assert "measurement 0 references missing effect 7" in err


def test_equivalences_report_frozen_halving_rows(capsys, tmp_path):
    path = emit(capsys, tmp_path, "halving")
    code, out, _ = run(capsys, "equivalences", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["states"] and report["transformations"] == []
    coeffs = [eq["coefficients"] for eq in report["effects"]]
    assert {"0": "1", "2": "-2"} in coeffs
    assert {"0": "1", "1": "2", "3": "-2"} in coeffs


def test_phases_curvature_and_decompose_views(capsys, tmp_path):
    gbit = emit(capsys, tmp_path, "gbit")
    code, out, _ = run(
        capsys, "phases", gbit, "--kind", "state", "--values", "1,0,0,0", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["phases"] == {"0": "1"}
    assert report["all_zero"] is False and report["monodromy"] == "nontrivial"
    assert (
        run(
            capsys, "phases", gbit, "--kind", "state", "--values", "1,0,0,0", "--strict"
        )[0]
        == 1
    )

    code, out, _ = run(
        capsys, "phases", gbit, "--kind", "state",
        "--values", "1/2,1/2,1/2,1/2", "--json",
    )
    report = json.loads(out)
    assert report["all_zero"] is True and report["monodromy"] == "trivial"

    code, out, _ = run(
        capsys, "curvature", gbit, "--kind", "state", "--values", "1,0,0,0", "--json"
    )
    assert code == 0
    assert json.loads(out)["disk_integrals"] == {"0": "1"}

    code, out, _ = run(
        capsys, "decompose", gbit, "--kind", "state", "--view", "topological",
        "--values", "1,0,0,0", "--json",
    )
    report = json.loads(out)
    assert report["view"] == "topological" and "curvature" not in report

    code, _, err = run(
        capsys, "decompose", gbit, "--kind", "state", "--values", "1,0"
    )
    assert code == 2 and "--values needs 4" in err


def test_homology_of_a_hollow_triangle(capsys, tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text("[[0,1],[1,2],[0,2]]")
    code, out, _ = run(capsys, "homology", str(path), "--n", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"betti": 1, "degree": 1, "torsion": []}


def test_complex_files_over_the_face_cap_exit_2(capsys, tmp_path):
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_text(json.dumps([list(range(10))]))  # 2**10 - 1 faces
    code, out, _ = run(capsys, "homology", str(at_cap), "--n", "0", "--json")
    assert code == 0 and json.loads(out)["betti"] == 1
    over = tmp_path / "over.json"
    over.write_text(json.dumps([list(range(11))]))  # 2**11 - 1 faces
    code, out, err = run(capsys, "homology", str(over), "--n", "0")
    assert code == 2 and out == ""
    assert "bad complex file" in err and str(cli.COMPLEX_CLI_MAX_FACES) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "doc",
    ['{"ab": 1}', '[["a", "b", "c"]]', "[[0.5, 1]]", "[[true, 2]]", "[[1e300, 2]]",
     "7", '[[0, 1], ["' + "9" * 5000 + '"]]', "[[0, 1], [2, 2]]",
     "[[" + "9" * 4000 + ", " + "9" * 4000 + "]]"],
)
def test_complex_files_take_json_integer_vertex_ids_only(capsys, tmp_path, doc):
    path = tmp_path / "complex.json"
    path.write_text(doc)
    for argv in (["homology", str(path)], ["vorobyev", "--generalized", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "bad complex file" in err and len(err.splitlines()) == 1
        assert len(err) < 200 + len(str(path))


def test_face_cap_is_checked_before_any_closure(capsys, tmp_path, monkeypatch):
    def refuse(simplices):
        raise AssertionError("a capped complex must not be closed")

    monkeypatch.setattr(cli.ddg, "SimplicialComplex", refuse)
    path = tmp_path / "thirty.json"
    path.write_text(json.dumps([list(range(30))]))
    for argv in (["homology", str(path)], ["vorobyev", "--generalized", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "command-line cap" in err
        assert len(err.splitlines()) == 1


def test_vorobyev_subcommand_paths(capsys, tmp_path):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(
        json.dumps(
            {
                "measurements": ["a", "b", "c", "d"],
                "contexts": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
            }
        )
    )
    code, out, _ = run(capsys, "vorobyev", str(cycle), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["acyclic"] is False and report["trace"] == []

    single = tmp_path / "single.json"
    single.write_text(
        json.dumps({"measurements": ["a", "b", "c"], "contexts": [["a", "b", "c"]]})
    )
    report = json.loads(run(capsys, "vorobyev", str(single), "--json")[1])
    assert report["acyclic"] is True and len(report["trace"]) == 4

    hollow = tmp_path / "hollow.json"
    hollow.write_text("[[0,1],[1,2],[0,2]]")
    report = json.loads(
        run(capsys, "vorobyev", "--generalized", str(hollow), "--json")[1]
    )
    assert report == {"verdict": "inconclusive", "betti_1": 1}
    assert run(capsys, "vorobyev", str(hollow), "--generalized") == run(
        capsys, "vorobyev", "--generalized", str(hollow)
    )
    filled = tmp_path / "filled.json"
    filled.write_text("[[0,1,2]]")
    report = json.loads(
        run(capsys, "vorobyev", "--generalized", str(filled), "--json")[1]
    )
    assert report == {"verdict": "noncontextual-certified", "betti_1": 0}

    # one file, read as a hypergraph or, with --generalized, as a complex
    for argv in ([], [str(cycle), str(single)], [str(cycle), "--generalized", str(hollow)]):
        code, out, err = run(capsys, "vorobyev", *argv)
        assert code == 2 and not out and err.startswith("usage:")
    broken = tmp_path / "broken.json"
    broken.write_text('{"measurements": ["a"]')
    code, _, err = run(capsys, "vorobyev", str(broken))
    assert code == 2 and "malformed JSON in" in err and len(err.splitlines()) == 1
    broken.write_text(json.dumps({"measurements": ["a"]}))
    code, _, err = run(capsys, "vorobyev", str(broken))
    assert code == 2 and "bad hypergraph file" in err and "contexts" in err
    assert len(err.splitlines()) == 1


def test_vorobyev_parses_a_model_file_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "pr_box.json"
    path.write_text(model_to_json(SCENARIOS["pr-box"][1]()))
    parses = []
    loads = json.loads

    def counting(text, **kwargs):
        parses.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    code, out, _ = run(capsys, "vorobyev", str(path), "--json")
    monkeypatch.undo()
    assert code == 0 and len(parses) == 1
    assert json.loads(out)["acyclic"] is False


def test_interference_orders(capsys, tmp_path):
    path = emit(capsys, tmp_path, "two-slit", "--param", "phase=0")
    code, out, _ = run(capsys, "interference", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 2
    assert report["values"] == {"a,b": "1"}
    report = json.loads(run(capsys, "interference", path, "--order", "3", "--json")[1])
    assert report["values"] == {}


def test_the_interference_report_keeps_every_pair_and_triple(capsys, tmp_path):
    # "|" joins the atoms of an event and "," the events of a key, so the
    # pairs (a, b|c) and (a|b, c) keep two entries
    masses = {"a": "1/8", "b": "1/4", "c": "1/8", "a|b": "1/2", "a|c": "1/4",
              "b|c": "3/8", "a|b|c": 1}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"atoms": ["a", "b", "c"], "masses": masses}))
    report = json.loads(run(capsys, "interference", str(path), "--order", "2", "--json")[1])
    assert report["values"] == {
        "a,b": "1/8", "a,c": "0", "b,c": "0", "a,b|c": "1/2", "a|b,c": "3/8", "a|c,b": "1/2",
    }
    powerset = measure_to_json(additive_measure(dict.fromkeys("abcd", F(1, 4))))
    path.write_text(powerset)
    report = json.loads(run(capsys, "interference", str(path), "--order", "3", "--json")[1])
    assert len(report["values"]) == len(all_i3(measure_from_json(powerset))) == 10
    assert set(report["values"].values()) == {"0"}


def test_disturbance_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "disturbance-gap", "--points", "1/4", "--json")
    assert code == 0  # warm-up also covers the sweep family itself
    planted = tmp_path / "planted.json"
    planted.write_text(
        json.dumps(
            {
                "hypergraph": [["a", "b"], ["b", "c"]],
                "outcomes": {"a": 2, "b": 2, "c": 2},
                "tables": {
                    "0": ["1/4", "1/4", "1/4", "1/4"],
                    "1": ["1/8", "1/8", "3/8", "3/8"],
                },
            }
        )
    )
    code, out, _ = run(
        capsys, "disturbance", str(planted), "--extend", "--fractions", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["disturbing"] is True
    assert report["findings"][0]["gap"] == "1/4"
    assert report["extension"]["contexts"] == [["a", "b@0"], ["b@1", "c"]]
    assert report["fractions"] == {"ncf": "3/4", "cf": "0", "df": "1/4"}
    assert run(capsys, "disturbance", str(planted), "--strict")[0] == 1

    clean = emit(capsys, tmp_path, "pr-box")
    code, out, _ = run(capsys, "disturbance", clean, "--json", "--strict")
    assert code == 0 and json.loads(out)["disturbing"] is False


# `disturbance --fractions` prints the ncf/cf split of whichever optimum the
# simplex reaches, and that optimum need not be unique; these literals pin
# the split on both disturbing scenario families, at every g/16.
NUDGED_BOX_SPLITS = {  # weight: (ncf, cf, df)
    "0": ("0", "1", "0"),
    "1/16": ("1/32", "15/16", "1/32"),
    "1/8": ("1/16", "7/8", "1/16"),
    "3/16": ("3/32", "13/16", "3/32"),
    "1/4": ("1/8", "3/4", "1/8"),
    "5/16": ("5/32", "11/16", "5/32"),
    "3/8": ("3/16", "5/8", "3/16"),
    "7/16": ("7/32", "9/16", "7/32"),
    "1/2": ("1/4", "1/2", "1/4"),
    "9/16": ("9/32", "7/16", "9/32"),
    "5/8": ("5/16", "3/8", "5/16"),
    "11/16": ("11/32", "5/16", "11/32"),
    "3/4": ("3/8", "1/4", "3/8"),
    "13/16": ("13/32", "3/16", "13/32"),
    "7/8": ("7/16", "1/8", "7/16"),
    "15/16": ("15/32", "1/16", "15/32"),
    "1": ("1/2", "0", "1/2"),
}
PLANTED_GAP_SPLITS = {  # gap: (ncf, cf, df)
    "0": ("1", "0", "0"),
    "1/16": ("15/16", "0", "1/16"),
    "1/8": ("7/8", "0", "1/8"),
    "3/16": ("13/16", "0", "3/16"),
    "1/4": ("3/4", "0", "1/4"),
    "5/16": ("11/16", "0", "5/16"),
    "3/8": ("5/8", "0", "3/8"),
    "7/16": ("9/16", "0", "7/16"),
    "1/2": ("1/2", "0", "1/2"),
}
NUDGED_BOX_QUARTER = """disturbing: True
findings:
  -
    contexts: [["a0", "b1"], ["a1", "b1"]]
    intersection: ["b1"]
    gap: 1/8
  -
    contexts: [["a1", "b0"], ["a1", "b1"]]
    intersection: ["a1"]
    gap: 1/8
fractions:
  ncf: 1/8
  cf: 3/4
  df: 1/8
"""
PLANTED_GAP_QUARTER = """disturbing: True
findings:
  -
    contexts: [["a", "b"], ["b", "c"]]
    intersection: ["b"]
    gap: 1/4
fractions:
  ncf: 3/4
  cf: 0
  df: 1/4
"""
DISTURBANCE_GAP_SWEEP = "family: disturbance-gap\nrows:\n" + "".join(
    f"  -\n    param: {g}\n    ncf: {ncf}\n    cf: 0\n    df: {g}\n    negativity: \n"
    for g, ncf in (("0", "1"), ("1/8", "7/8"), ("1/4", "3/4"), ("3/8", "5/8"), ("1/2", "1/2"))
)


@pytest.mark.parametrize(
    "family, splits, whole",
    [
        (nudged_box, NUDGED_BOX_SPLITS, NUDGED_BOX_QUARTER),
        (planted_gap_model, PLANTED_GAP_SPLITS, PLANTED_GAP_QUARTER),
    ],
    ids=["nudged-box", "planted-gap"],
)
def test_disturbance_fractions_print_the_pinned_split(capsys, tmp_path, family, splits, whole):
    path = tmp_path / "model.json"
    for param, (ncf, cf, df) in splits.items():
        path.write_text(model_to_json(family(F(param))))
        code, out, err = run(capsys, "disturbance", str(path), "--fractions")
        assert (code, err) == (0, "")
        assert out.endswith(f"fractions:\n  ncf: {ncf}\n  cf: {cf}\n  df: {df}\n"), param
        if param == "1/4":
            assert out == whole
    assert run(capsys, "sweep", "disturbance-gap") == (0, DISTURBANCE_GAP_SWEEP, "")


def test_sweep_csv_and_worker_determinism(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, serial, _ = run(
        capsys, "sweep", "disturbance-gap", "--points", "0,1/4",
        "--emit-csv", str(csv_path), "--json",
    )
    assert code == 0
    assert csv_path.read_text() == (
        "param,ncf,cf,df,negativity\n0,1,0,0,\n1/4,3/4,0,1/4,\n"
    )
    code, parallel, _ = run(
        capsys, "sweep", "disturbance-gap", "--points", "0,1/4",
        "--workers", "2", "--json",
    )
    assert code == 0 and parallel == serial

    assert run(capsys, "sweep", "disturbance-gap", "--points", "2")[0] == 2
    assert run(capsys, "sweep", "pr-noise", "--points", "3/2")[0] == 2
    assert run(capsys, "sweep", "disturbance-gap", "--points", "x")[0] == 2
    for workers in ("0", "-1"):
        code, out, err = run(capsys, "sweep", "disturbance-gap", "--workers", workers)
        assert code == 2 and out == "" and "--workers" in err
        assert len(err.splitlines()) == 1
    missing = tmp_path / "missing" / "rows.csv"
    code, out, err = run(
        capsys, "sweep", "disturbance-gap", "--points", "0", "--emit-csv", str(missing)
    )
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"input error: cannot write {missing}: ")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool by one that runs the jobs in this
    process and records each requested size, so no process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    return sizes


def test_sweep_pool_has_one_process_per_point_at_most(capsys, monkeypatch, pool_sizes):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    argv = ("sweep", "disturbance-gap", "--points", "0,1/4", "--json")
    code, serial, _ = run(capsys, *argv)
    assert code == 0 and pool_sizes == []
    code, pooled, _ = run(capsys, *argv, "--workers", "8")
    assert code == 0 and pooled == serial and pool_sizes == [2]
    code, _, _ = run(capsys, "sweep", "disturbance-gap", "--points", "0", "--workers", "8")
    assert code == 0 and pool_sizes == [2]  # one point runs in this process


def test_sweep_pool_has_one_process_per_cpu_at_most(capsys, monkeypatch, pool_sizes):
    assert cli._usable_cpus() >= 1
    argv = ("sweep", "disturbance-gap", "--points", "0,1/8,1/4,3/8", "--json")
    code, serial, _ = run(capsys, *argv)
    assert code == 0
    for cpus in (3, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code, pooled, _ = run(capsys, *argv, "--workers", "5000")
        assert code == 0 and pooled == serial
    assert pool_sizes == [3]  # a single CPU runs the points in this process


def test_an_oversized_sweep_point_is_refused_in_one_short_line(capsys):
    for family, point in (
        ("disturbance-gap", "1/" + "x" * 100_000),
        ("disturbance-gap", "1" * 4000),
        ("pr-noise", "1" * 4000),
    ):
        code, out, err = run(capsys, "sweep", family, "--points", point)
        assert code == 2 and not out and len(err.splitlines()) == 1
        assert len(err.encode()) < 200, err[:300]


@pytest.mark.parametrize(
    "argv",
    [
        ["gbit", "--param", "k" * 5000 + "=1"],
        ["chsh-quantum", "--param", "a0=" + "x" * 5000],
        ["x" * 200],
        ["gbit", "--param", "k" * 5000],
        ["classical-simplex", "--param", "n=-" + "7" * 4000],
        ["classical-simplex", "--param", "n=" + "y" * 300],
    ],
    ids=["key", "value", "name", "no-equals", "long-number", "text-for-a-whole-number"],
)
def test_scenarios_emit_is_refused_in_one_short_line(capsys, argv):
    code, out, err = run(capsys, "scenarios", "emit", *argv)
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert len(err.encode()) < 200, err[:300]


def test_pr_noise_sweep_row(capsys):
    code, out, _ = run(capsys, "sweep", "pr-noise", "--points", "1/2", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {
        "param": "1/2",
        "ncf": "1",
        "cf": "0",
        "df": "0",
        "negativity": "0",
    }


def test_fragment_without_equalities_embeds(capsys, tmp_path):
    """No measurement and no effect dependence leave the response polytope
    the whole unit cube; both embedding subcommands answer, even --strict."""
    path = tmp_path / "free.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "effects": [[1, 0]],
                "measurements": [],
                "states": [[1, 0], [0, 1]],
                "unit_effect": [1, 1],
            }
        )
    )
    code, out, err = run(capsys, "nc-check", str(path), "--json", "--strict")
    assert (code, json.loads(out), err) == (0, {"status": "optimal"}, "")
    code, out, err = run(capsys, "negativity", str(path), "--json", "--strict")
    assert (code, json.loads(out), err) == (0, {"negativity": "0"}, "")


def test_model_without_contexts_is_noncontextual(capsys, tmp_path):
    """An empty hypergraph has one global assignment, the empty one, and it
    carries the whole weight; a table or an outcome count for an absent
    context or measurement is refused, not dropped."""
    path = tmp_path / "empty.json"
    for key, extra in (("tables", {"0": [1, 0]}), ("outcomes", {"a": 2})):
        path.write_text(json.dumps({"hypergraph": [], "outcomes": {}, "tables": {}, key: extra}))
        code, out, err = run(capsys, "fraction", str(path))
        assert code == 2 and not out and len(err.splitlines()) == 1
        assert err.endswith(f"{key} has an unknown key {next(iter(extra))!r}\n")
    path.write_text(json.dumps({"hypergraph": [], "outcomes": {}, "tables": {}}))
    code, out, err = run(capsys, "fraction", str(path), "--json", "--strict")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "ncf": "1",
        "cf": "0",
        "df": "0",
        "has_noncontextual_part": True,
        "has_contextual_part": False,
    }
    code, out, err = run(capsys, "disturbance", str(path), "--fractions", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fractions"] == {"ncf": "1", "cf": "0", "df": "0"}


def test_huge_outcome_count_exits_2_with_one_short_line(capsys, tmp_path):
    # a 301-digit outcome count loads as a JSON integer; the size mismatch
    # must not spell out the product of the counts
    model = json.dumps(
        {"hypergraph": [["a", "b"]], "outcomes": {"a": 0, "b": 2},
         "tables": {"0": ["1/4"] * 4}}
    ).replace('"a": 0', '"a": 1' + "0" * 300)
    path = tmp_path / "huge-count.json"
    path.write_text(model)
    for command in ("fraction", "disturbance"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1, err
        assert len(err.replace(str(path), "")) < 120 and "0" * 20 not in err, err
        assert "table 0 has 4 entries" in err


def test_input_error_exit_codes(capsys, tmp_path):
    assert run(capsys, "nosuch")[0] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "fraction", str(bad))
    assert code == 2 and "malformed JSON" in err

    code, _, err = run(capsys, "fraction", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err

    planted = tmp_path / "planted.json"
    planted.write_text(
        json.dumps(
            {
                "hypergraph": [["a", "b"], ["b", "c"]],
                "outcomes": {"a": 2, "b": 2, "c": 2},
                "tables": {
                    "0": ["1/4", "1/4", "1/4", "1/4"],
                    "1": ["1/8", "1/8", "3/8", "3/8"],
                },
            }
        )
    )
    code, _, err = run(capsys, "fraction", str(planted))
    assert code == 2 and "disturbing model" in err

    assert run(capsys, "scenarios", "emit", "nosuch")[0] == 2
    assert run(capsys, "scenarios", "emit")[0] == 2

    # library ValueErrors on bad input end in exit 2 with one line, no traceback
    hollow = tmp_path / "hollow.json"
    hollow.write_text("[[0,1],[1,2],[0,2]]")
    code, _, err = run(capsys, "homology", str(hollow), "--n", "-1")
    assert code == 2 and "nonnegative" in err and len(err.splitlines()) == 1
    gbit = emit(capsys, tmp_path, "gbit")
    code, _, err = run(
        capsys, "decompose", gbit, "--kind", "transformation", "--values", "1"
    )
    assert code == 2 and "transformation" in err and len(err.splitlines()) == 1
    collide = tmp_path / "collide.json"
    collide.write_text(json.dumps(COLLIDING_MODEL))
    code, _, err = run(capsys, "disturbance", str(collide), "--extend")
    assert code == 2 and "b@1" in err and len(err.splitlines()) == 1
    for weight in ("inf", "1/0"):
        code, _, err = run(
            capsys, "scenarios", "emit", "noisy-pr-fragment", "--param", f"weight={weight}"
        )
        assert code == 2 and "noisy-pr-fragment" in err and len(err.splitlines()) == 1
    # the size cap is checked before anything n-by-n is built
    code, _, err = run(
        capsys, "scenarios", "emit", "classical-simplex", "--param", "n=100000"
    )
    assert code == 2 and "classical-simplex" in err and len(err.splitlines()) == 1

    # a JSON number beyond float range loads as inf, which no rational equals
    bit = emit(capsys, tmp_path, "classical-bit")
    huge = tmp_path / "huge.json"
    huge.write_text(Path(bit).read_text().replace('"effects": [[1, 0]', '"effects": [[1e400, 0]'))
    code, _, err = run(capsys, "validate", str(huge))
    assert code == 2 and "bad fragment file" in err and len(err.splitlines()) == 1

    # integer fields take JSON integers only: no float, string, bool or 1e300
    box = json.loads(Path(emit(capsys, tmp_path, "pr-box")).read_text())
    for value in (3.9, "3", True, 1e300):
        payload = json.loads(Path(bit).read_text())
        payload["dimension"] = value
        huge.write_text(json.dumps(payload))
        code, _, err = run(capsys, "validate", str(huge))
        assert code == 2 and err.endswith(f"dimension {value!r} is not an integer\n")
        assert len(err.splitlines()) == 1 and len(err) < len(str(huge)) + 100
        payload = dict(box, outcomes=dict(box["outcomes"], a0=value))
        huge.write_text(json.dumps(payload))
        code, _, err = run(capsys, "fraction", str(huge))
        assert code == 2 and err.endswith(f"count {value!r} is not an integer\n")
        assert len(err.splitlines()) == 1 and len(err) < len(str(huge)) + 100
    huge.write_text(Path(planted).read_text().replace('"1/8"', "1e400", 1))
    code, _, err = run(capsys, "fraction", str(huge))
    assert code == 2 and "bad model file" in err and len(err.splitlines()) == 1
    # an in-bound exponent whose value has too many digits to print back
    huge.write_text(Path(bit).read_text().replace('"effects": [[1, 0]', '"effects": [["1e4300", 0]'))
    code, _, err = run(capsys, "validate", str(huge))
    assert code == 2 and len(err.splitlines()) == 1
    assert "bad fragment file" in err and "'1e4300' has more than 4300 digits" in err
    # JSON values of the wrong type where an index or an object belongs
    doc = json.loads(Path(bit).read_text())
    doc["measurements"] = [[0, None]]
    huge.write_text(json.dumps(doc))
    code, _, err = run(capsys, "nc-check", str(huge))
    assert code == 2 and "effect index None" in err and len(err.splitlines()) == 1
    huge.write_text(json.dumps({"atoms": ["a"], "masses": None}))
    code, _, err = run(capsys, "interference", str(huge))
    assert code == 2 and "bad measure file" in err and len(err.splitlines()) == 1
    for mass in (None, True, [1]):
        masses = {"a": mass, "a|b": 1, "b": "1/2"}
        huge.write_text(json.dumps({"atoms": ["a", "b"], "masses": masses}))
        code, _, err = run(capsys, "interference", str(huge))
        assert code == 2 and "mass of 'a'" in err and len(err.splitlines()) == 1
    # a decimal exponent past the bound is refused before it is expanded,
    # and so is a zero denominator
    for values in ("1e100000000", "1/0"):
        code, _, err = run(capsys, "decompose", gbit, "--values", values)
        assert code == 2 and "bad --values entry" in err
        assert len(err.splitlines()) == 1


CLASSICAL_BIT = {
    "dimension": 2,
    "states": [["1", "0"], [0, 1]],
    "effects": [[1, 0], [0, 1]],
    "unit_effect": [1, 1],
    "measurements": [[0, 1]],
}
SPLIT_MODEL = {
    "hypergraph": [["a", "b"]],
    "outcomes": {"a": 2, "b": 2},
    "tables": {"0": ["1/4", "1/4", "1/4", "1/4"]},
}
TWO_ATOMS = {"atoms": ["a", "b"], "masses": {"a": "1/2", "b": 0.5, "a|b": 1}}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("nc-check", CLASSICAL_BIT),
        ("fraction", SPLIT_MODEL),
        ("vorobyev", SPLIT_MODEL),
        ("vorobyev", {"measurements": ["a", "b"], "contexts": [["a", "b"]]}),
        ("interference", TWO_ATOMS),
    ],
)
def test_rational_text_and_json_lists_load(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 0 and out and not err


@pytest.mark.parametrize(
    "command, doc, complaint",
    [
        # JSON booleans are not numbers
        ("nc-check", dict(CLASSICAL_BIT, states=[[True, False], [0, 1]]),
         "states[0] holds true, not a rational"),
        ("fraction", dict(SPLIT_MODEL, tables={"0": [True, False, False, False]}),
         'tables["0"] holds true, not a rational'),
        # masses are finite
        ("interference", dict(TWO_ATOMS, masses={"a": math.nan, "b": 0.5, "a|b": 1}),
         "mass of 'a' holds NaN, not a rational"),
        ("interference", dict(TWO_ATOMS, masses={"a": 0.5, "b": math.inf, "a|b": 1}),
         "mass of 'b' holds Infinity, not a rational"),
        # a string where a list belongs is not read character by character
        ("nc-check", dict(CLASSICAL_BIT, states=["10", "01"]),
         "states[0] is not a JSON list"),
        ("nc-check", dict(CLASSICAL_BIT, unit_effect="11"),
         "unit_effect is not a JSON list"),
        ("fraction", dict(SPLIT_MODEL, hypergraph=["ab"]),
         "hypergraph[0] is not a JSON list"),
        ("vorobyev", {"measurements": "ab", "contexts": [["a", "b"]]},
         "measurements is not a JSON list"),
        ("interference", dict(TWO_ATOMS, atoms="ab"), "atoms is not a JSON list"),
        # null, lists, objects and non-finite floats are not numbers either
        ("nc-check", dict(CLASSICAL_BIT, states=[[{"a": 1}, 0], [0, 1]]),
         'states[0] holds {"a": 1}, not a rational'),
        ("fraction", dict(SPLIT_MODEL, tables={"0": [None, 0, 0, 1]}),
         'tables["0"] holds null, not a rational'),
        ("interference", dict(TWO_ATOMS, masses={"a": [1], "b": 0, "a|b": 1}),
         "mass of 'a' holds [1], not a rational"),
        ("nc-check", dict(CLASSICAL_BIT, effects=[[math.inf, 0], [0, 1]]),
         "effects[0] holds Infinity, not a rational"),
        # one key per event, and no empty atom name, so no mass is dropped
        ("interference", dict(TWO_ATOMS, masses={"a": 0, "b": 0, "a|b": 1, "b|a": 5}),
         "event key 'b|a' repeats an earlier key's event"),
        ("interference", dict(TWO_ATOMS, masses={"a": 0, "b": 0, "a|b": 1, "a||b": 7}),
         "event key 'a||b' has an empty atom name"),
        # a key no reader reads is refused, not dropped
        ("nc-check", dict(CLASSICAL_BIT, transformation=[]),
         "a fragment has an unknown key 'transformation'"),
        ("nc-check", dict(CLASSICAL_BIT, **{"k" * 60: 1}),
         "a fragment has an unknown key 'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkk...kkkkkkkk'"),
        ("fraction", dict(SPLIT_MODEL, table={}), "a model has an unknown key 'table'"),
        ("fraction", dict(SPLIT_MODEL, outcomes={"a": 2, "b": 2, "typo": 5}),
         "outcomes has an unknown key 'typo'"),
        ("fraction", dict(SPLIT_MODEL, tables={"0": [1, 0, 0, 0], "1": [1]}),
         "tables has an unknown key '1'"),
        ("interference", dict(TWO_ATOMS, mass={}), "a measure has an unknown key 'mass'"),
        ("vorobyev", {"measurements": ["a"], "contexts": [["a"]], "context": []},
         "a hypergraph has an unknown key 'context'"),
        ("vorobyev", dict(SPLIT_MODEL, outcomes={"a": 2, "b": 2, "c": 2}),
         "outcomes has an unknown key 'c'"),
        # a key every reader needs is named when it is missing
        ("nc-check", {k: v for k, v in CLASSICAL_BIT.items() if k != "measurements"},
         "a fragment has no key 'measurements'"),
        ("fraction", {k: v for k, v in SPLIT_MODEL.items() if k != "tables"},
         "a model has no key 'tables'"),
        ("fraction", dict(SPLIT_MODEL, tables={}), "tables has no key '0'"),
        ("interference", {"atoms": ["a", "b"]}, "a measure has no key 'masses'"),
        ("vorobyev", {"measurements": ["a"]}, "a hypergraph has no key 'contexts'"),
        # masses are keyed by event, so they form a JSON object
        ("interference", dict(TWO_ATOMS, masses=[["a", 1]]), "masses is not a JSON object"),
        # a measurement is named by a JSON string
        ("fraction", dict(SPLIT_MODEL, hypergraph=[[["a"], "b"]]),
         'hypergraph[0] holds ["a"], not a JSON string'),
        ("vorobyev", {"measurements": ["a", "b"], "contexts": [[["a"], "b"]]},
         'contexts[0] holds ["a"], not a JSON string'),
        ("vorobyev", {"measurements": [["a"], "b"], "contexts": [["a", "b"]]},
         'measurements holds ["a"], not a JSON string'),
        ("vorobyev", {"measurements": [1], "contexts": [[1]]},
         "measurements holds 1, not a JSON string"),
        # a name listed twice is refused, not read as one
        ("vorobyev", {"measurements": ["a", "a"], "contexts": [["a"]]},
         "measurement 'a' is listed twice"),
        ("interference", {"atoms": ["a", "a"], "masses": {"a": 1}},
         "atom 'a' is listed twice"),
    ],
)
def test_malformed_entries_exit_2_naming_the_field(
    capsys, tmp_path, command, doc, complaint
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert err.endswith(f"{complaint}\n")


LONG_KEY = "k" * 60


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("validate", "{" + '"dimension": 99, ' + json.dumps(CLASSICAL_BIT)[1:], "dimension"),
        ("validate", "{" + f'"{LONG_KEY}": 1, "{LONG_KEY}": 2, ' + json.dumps(CLASSICAL_BIT)[1:],
         "kkkkkkkkkkkkkkkkkkkkkkkkkkkkkk...kkkkkkkk"),
        ("fraction", json.dumps(SPLIT_MODEL).replace('"0": ', '"0": ["1", 0, 0, 0], "0": '), "0"),
        ("interference", '{"atoms": ["a", "b"], "masses": {"a": 0, "b": 0, "a|b": 1, "a|b": 7}}',
         "a|b"),
        ("homology", '[[0, 1], {"v": 0, "v": 1}]', "v"),
    ],
    ids=["fragment", "fragment-long-key", "model", "measure", "complex"],
)
def test_a_repeated_json_key_exits_2_naming_it(capsys, tmp_path, command, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert err.endswith(f"a JSON object repeats the key {key!r}\n")


def test_json_float_literals_read_as_the_shortest_decimal_naming_the_double(capsys, tmp_path):
    path = tmp_path / "bit.json"
    path.write_text(json.dumps(dict(CLASSICAL_BIT, states=[[0.1, 0.9], [0, 1]])))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out.splitlines()[0], err) == (0, "ok: True", "")


def test_a_closed_stdout_ends_quietly(tmp_path):
    """A reader that leaves early, as ``| head -1`` does, is no error."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "contextua.cli", "scenarios", "emit", "gbit"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_integer_masses_are_exact(capsys, tmp_path):
    path = tmp_path / "measure.json"
    for masses in ({"a": 1, "b": 0, "a|b": 1}, {"a": "1", "b": "0", "a|b": "1"}):
        path.write_text(json.dumps({"atoms": ["a", "b"], "masses": masses}))
        code, out, err = run(capsys, "interference", str(path))
        assert (code, out, err) == (0, "order: 2\nvalues:\n  a,b: 0\n", "")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("validate", dict(CLASSICAL_BIT, dimension="9" * 100_000)),
        ("fraction", dict(SPLIT_MODEL, outcomes={"a": [2] * 50_000, "b": 2})),
        ("interference", dict(TWO_ATOMS, masses={"a": [1] * 50_000, "a|b": 1})),
        ("validate", dict(CLASSICAL_BIT, states=[[{"a": "1" * 50_000}, 0]])),
        ("validate", dict(CLASSICAL_BIT, states=[["1/" + "x" * 4000, 0]])),
    ],
    ids=["dimension", "outcome-count", "mass", "object-in-a-state", "bad-literal"],
)
def test_an_oversized_value_is_refused_in_one_short_line(
    capsys, tmp_path, command, doc
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert len(err.replace(str(path), "").encode()) < 200, err[:300]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("validate", dict(CLASSICAL_BIT, states=[["HUGE", 0], [0, 1]])),
        ("validate", dict(CLASSICAL_BIT, dimension="HUGE")),
        ("fraction", dict(SPLIT_MODEL, tables={"0": ["HUGE", 0, 0, 0]})),
        ("fraction", dict(SPLIT_MODEL, outcomes={"a": "HUGE", "b": 2})),
        ("interference", dict(TWO_ATOMS, masses={"a": "HUGE", "b": 0, "a|b": 1})),
        ("homology", [[0, "HUGE"]]),
    ],
    ids=["state", "dimension", "table", "outcome-count", "mass", "vertex"],
)
def test_a_number_beyond_float_range_exits_2(capsys, tmp_path, command, doc):
    # 1e400 loads as a float infinity, which names no rational
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and not out and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "masses, order, expected",
    [
        ({"a": 0.5, "b": "1e400", "a|b": 1}, "2", {"a,b": F(1, 2) - 10**400}),
        # masses whose differences leave the float range
        ({"a": 0.5, "b": 0.5, "c": 0.5, "a|b": "1e308", "a|c": 0.5, "b|c": 0.5,
          "a|b|c": "-1e308"}, "2",
         {"a,b": 10**308 - 1, "a,c": F(-1, 2), "b,c": F(-1, 2), "a,b|c": -(10**308) - 1,
          "a|b,c": -2 * 10**308 - F(1, 2), "a|c,b": -(10**308) - 1}),
        ({"a": 0.5, "b": 0.5, "c": 0.5, "a|b": "1e308", "a|c": 0.5, "b|c": 0.5,
          "a|b|c": "-1e308"}, "3", {"a,b,c": -2 * 10**308 + F(1, 2)}),
    ],
    ids=["mixed-masses", "order-2-past-float-range", "order-3-past-float-range"],
)
def test_exact_masses_beyond_float_range_are_read_exactly(
    capsys, tmp_path, masses, order, expected
):
    # a JSON float mass is the shortest decimal naming it, and every term is exact
    path = tmp_path / "doc.json"
    atoms = sorted({atom for key in masses for atom in key.split("|")})
    path.write_text(json.dumps({"atoms": atoms, "masses": masses}))
    code, out, err = run(capsys, "interference", str(path), "--order", order, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == {k: str(v) for k, v in expected.items()}


def test_a_nan_phase_emits_no_two_slit_measure(capsys):
    code, out, err = run(capsys, "scenarios", "emit", "two-slit", "--param", "phase=nan")
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert "two-slit" in err and "'nan'" in err


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["two-slit", "--param", "phase=1e-5000"], "phase: decimal exponent beyond"),
        (["two-slit", "--param", "phase=abc"], "phase: Invalid literal for Fraction: 'abc'"),
        (["chsh-quantum", "--param", "a0=inf"], "a0: Invalid literal for Fraction: 'inf'"),
        (["classical-simplex", "--param", "n=5", "--param", "n=2"], "--param names 'n' twice"),
        (["gbit", "--param", "seed=7"], "bad parameters for gbit: unknown parameter 'seed'"),
        (["random-fragment", "--param", "seed=1/2"], "seed must be a whole number"),
    ],
    ids=["exponent", "text", "infinity", "repeated-key", "seed-elsewhere", "half-seed"],
)
def test_param_values_are_rationals_given_once(capsys, argv, complaint):
    code, out, err = run(capsys, "scenarios", "emit", *argv)
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert complaint in err and argv[0] in err


@pytest.mark.parametrize(
    "name, param", [("chsh-quantum", "a0"), ("two-slit", "phase")]
)
def test_a_param_beyond_float_range_is_refused_by_name(capsys, name, param):
    code, out, err = run(capsys, "scenarios", "emit", name, "--param", f"{param}=1e400")
    assert code == 2 and not out and len(err.splitlines()) == 1
    assert err.endswith(f"for {name}: {param} is beyond the float range\n")


def test_random_scenarios_take_their_seed_as_a_param(capsys):
    seeded = run(capsys, "scenarios", "emit", "random-fragment", "--param", "seed=7")
    assert seeded[0] == 0 and seeded != run(capsys, "scenarios", "emit", "random-fragment")
    code, out, err = run(capsys, "scenarios", "emit", "random-fragment", "--seed", "7")
    assert code == 2 and not out and err.startswith("usage:")


def test_classical_simplex_takes_a_whole_n_only(capsys):
    for n in ("5/2", "1/2", "2.5"):
        code, out, err = run(
            capsys, "scenarios", "emit", "classical-simplex", "--param", f"n={n}"
        )
        assert code == 2 and out == ""
        assert "whole number" in err and len(err.splitlines()) == 1
    # the cap message does not spell out a huge n
    code, _, err = run(
        capsys, "scenarios", "emit", "classical-simplex", "--param", "n=1e400"
    )
    assert code == 2 and "cap of 64" in err and len(err) < 120
    for n in ("4", "4.0", "8/2"):
        code, out, _ = run(
            capsys, "scenarios", "emit", "classical-simplex", "--param", f"n={n}"
        )
        assert code == 0 and fragment_from_json(out).dimension == 4


def test_the_cli_and_the_scenarios_load_without_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "import contextua.cli, contextua.scenarios\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0 and done.stdout == "False\n", done.stderr


def test_input_errors_survive_optimized_mode(tmp_path):
    """``python -O`` drops asserts; every check here must still raise."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    collide = tmp_path / "collide.json"
    collide.write_text(json.dumps(COLLIDING_MODEL))
    cli = subprocess.run(
        [sys.executable, "-O", "-m", "contextua.cli", "disturbance",
         str(collide), "--extend"],
        capture_output=True, text=True, env=env,
    )
    assert cli.returncode == 2 and cli.stdout == ""
    assert "b@1" in cli.stderr and len(cli.stderr.splitlines()) == 1
    # a one-dimensional state with unit pairing 2 is not a valid fragment
    script = (
        "from fractions import Fraction\n"
        "from contextua.core_model import GptFragment\n"
        "from contextua.scenarios import _check_fragment\n"
        "two, one = (Fraction(2),), (Fraction(1),)\n"
        "f = GptFragment(1, (two,), (one,), one, ((0,),))\n"
        "try:\n"
        "    _check_fragment(f)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "from contextua.noncontextuality import FractionReport\n"
        "try:\n"
        "    FractionReport(Fraction(1), Fraction(1), Fraction(0), None, None)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    lib = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert lib.returncode == 0 and "unit pairing 2" in lib.stdout
    assert "fractions sum to 2" in lib.stdout


@pytest.mark.parametrize(
    "command, scenario, cap",
    [
        pytest.param(("fraction",), "pr-box", "8", id="fraction"),
        pytest.param(("nc-check",), "gbit", "3", id="nc-check"),
        pytest.param(("negativity",), "gbit", "3", id="negativity"),
        pytest.param(
            ("disturbance", "--fractions"), "pr-box", "8",
            id="disturbance-fractions",
        ),
    ],
)
def test_scale_cap_flag_is_scoped(capsys, tmp_path, command, scenario, cap):
    path = emit(capsys, tmp_path, scenario)
    name, *flags = command
    code, _, err = run(capsys, name, path, *flags, "--scale-cap", cap)
    assert code == 2 and err.startswith("input error: scale cap: ")
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, name, missing, *flags, "--scale-cap", "0")
    assert code == 2 and "--scale-cap must be positive" in err
    # the cap holds for that one run: the next run has the default limits
    assert run(capsys, name, path, *flags, "--json")[0] == 0


def test_a_scale_cap_under_a_default_guard_lowers_it(capsys, tmp_path):
    """``--scale-cap N`` sets every size guard to N: under the default 4096
    global assignments it refuses the PR box's 16, which the default admits."""
    path = emit(capsys, tmp_path, "pr-box")
    code, out, _ = run(capsys, "fraction", path, "--json")
    assert code == 0 and json.loads(out)["cf"] == "1"
    code, out, err = run(capsys, "fraction", path, "--scale-cap", "8")
    assert (code, out) == (2, "")
    assert err == "input error: scale cap: more than 8 global assignments\n"
    code, out, _ = run(capsys, "fraction", "--help")
    assert code == 0 and "--scale-cap N  set every analysis size guard to N\n" in out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("equivalences", ()),
        ("decompose", ("--values", "1")),
        ("curvature", ("--values", "1")),
        ("phases", ("--values", "1")),
    ],
)
def test_a_fragment_with_a_shape_error_is_refused(capsys, tmp_path, command, flags):
    """A state shorter than the dimension is refused in one line, as nc-check
    refuses it, where these subcommands used to answer; validate reports it."""
    doc = {"dimension": 2, "states": [[1]], "effects": [], "unit_effect": [1, 1],
           "measurements": []}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), *flags)
    assert (code, out) == (2, "")
    assert err == "input error: fragment fails validation: ['state 0 has length 1']\n"
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 0 and json.loads(out)["structural"] == ["state 0 has length 1"]


#: Each subcommand's positionals and option strings, in parser order, after
#: the -h/--help every parser has.
FLAG_TABLE = {
    "validate": ["file", "--json", "--strict"],
    "equivalences": ["file", "--json", "--strict"],
    "nc-check": ["file", "--json", "--strict", "--scale-cap"],
    "fraction": ["file", "--json", "--strict", "--scale-cap"],
    "negativity": ["file", "--json", "--strict", "--scale-cap"],
    "decompose": ["file", "--kind", "--view", "--values", "--json", "--strict"],
    "curvature": ["file", "--kind", "--values", "--json", "--strict"],
    "phases": ["file", "--kind", "--values", "--json", "--strict"],
    "homology": ["file", "--n", "--json", "--strict"],
    "vorobyev": ["file", "--generalized", "--json", "--strict"],
    "interference": ["file", "--order", "--json", "--strict"],
    "disturbance": ["file", "--extend", "--fractions", "--json", "--strict", "--scale-cap"],
    "scenarios": ["action", "name", "--param", "--json", "--strict"],
    "sweep": ["family", "--points", "--workers", "--emit-csv", "--json", "--strict"],
}


def test_the_flag_table_is_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = [
        (name, ["/".join(a.option_strings) or a.dest for a in p._actions])
        for name, p in sub.choices.items()
    ]
    assert table == [(name, ["-h/--help", *flags]) for name, flags in FLAG_TABLE.items()]
    capped = [name for name, flags in table if "--scale-cap" in flags]
    assert capped == ["nc-check", "fraction", "negativity", "disturbance"]


def test_byte_identical_reports(capsys, tmp_path):
    path = emit(capsys, tmp_path, "halving")
    first = run(capsys, "equivalences", path, "--json")
    second = run(capsys, "equivalences", path, "--json")
    assert first == second
    human_one = run(capsys, "equivalences", path)
    human_two = run(capsys, "equivalences", path)
    assert human_one == human_two and human_one[1] != first[1]


# -- fuzzing: arbitrary JSON files and flags ----------------------------------


def _file_commands():
    """Each subcommand that reads a file, with the parser's own actions."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: p._actions
        for name, p in sub.choices.items()
        if any(a.dest == "file" for a in p._actions)
    }


FILE_COMMANDS = _file_commands()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.floats(width=32)
    | st.sampled_from(["1/2", "-1/3", "1e4300", "1/0", "0.25", "a", "m0"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)


@st.composite
def documents(draw):
    """Arbitrary JSON, or a corpus document with one part replaced by it."""
    if draw(st.booleans()):
        return draw(json_values)
    name = draw(st.sampled_from(["classical-bit", "gbit", "halving", "pr-box", "two-slit"]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["scenarios", "emit", name])
    doc = json.loads(buf.getvalue())
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
            node[key] = draw(json_values)
            break
        node = node[key]
    return doc


FUZZ_ALPHABET = "0123456789-/.,e "


@st.composite
def invocations(draw, path):
    command = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    argv = [command, path]
    for action in FILE_COMMANDS[command]:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, str(draw(st.sampled_from(action.choices)))]
        elif action.type is int:
            argv += [flag, str(draw(st.integers(-2, 40)))]
        else:
            argv += [flag, draw(st.text(alphabet=FUZZ_ALPHABET, max_size=10))]
    return argv


NUMBER_TEXT = st.text(alphabet=FUZZ_ALPHABET, max_size=10) | st.sampled_from(
    ["nan", "inf", "1e-5000"]
)


@st.composite
def number_invocations(draw):
    """``scenarios emit`` with drawn ``--param`` pairs, or ``sweep`` on
    drawn points: at most one ``pr-noise`` point, which costs 0.05-0.35 s."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(SCENARIOS)))
        keys = [*inspect.signature(SCENARIOS[name][1]).parameters, "junk", ""]
        argv = ["scenarios", "emit", name]
        for _ in range(draw(st.integers(0, 3))):
            argv += ["--param", f"{draw(st.sampled_from(keys))}={draw(NUMBER_TEXT)}"]
        return argv
    family = draw(st.sampled_from(["pr-noise", "disturbance-gap"]))
    point = NUMBER_TEXT.map(lambda text: text.replace(",", ""))
    points = draw(st.lists(point, max_size=1 if family == "pr-noise" else 3))
    return ["sweep", family, "--points", ",".join(points)]


@settings(max_examples=100, deadline=None)
@given(number_invocations())
def test_fuzzed_params_and_sweep_points_end_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data(), documents())
def test_fuzzed_files_and_flags_end_in_a_known_exit_code(data, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = data.draw(invocations(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or "--strict" in argv, argv
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
