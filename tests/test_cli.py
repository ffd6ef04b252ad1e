"""Exit codes, report shapes, determinism, and file round-trips for the CLI."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import cli
from contextua.cli import main
from contextua.core_model import fragment_from_json, model_from_json


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
        extra = ("--seed", "3") if row["name"].startswith("random-") else ()
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
    filled = tmp_path / "filled.json"
    filled.write_text("[[0,1,2]]")
    report = json.loads(
        run(capsys, "vorobyev", "--generalized", str(filled), "--json")[1]
    )
    assert report == {"verdict": "noncontextual-certified", "betti_1": 0}

    assert run(capsys, "vorobyev")[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text('{"measurements": ["a"]')
    code, _, err = run(capsys, "vorobyev", str(broken))
    assert code == 2 and "malformed JSON in" in err and len(err.splitlines()) == 1
    broken.write_text(json.dumps({"measurements": ["a"]}))
    code, _, err = run(capsys, "vorobyev", str(broken))
    assert code == 2 and "bad hypergraph file" in err and "contexts" in err
    assert len(err.splitlines()) == 1


def test_interference_orders(capsys, tmp_path):
    path = emit(capsys, tmp_path, "two-slit", "--param", "phase=0")
    code, out, _ = run(capsys, "interference", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 2
    assert set(report["values"]) == {"a|b"}
    assert abs(float(report["values"]["a|b"]) - 1.0) < 1e-9
    report = json.loads(run(capsys, "interference", path, "--order", "3", "--json")[1])
    assert report["values"] == {}


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


def test_sweep_pool_has_one_process_per_point_at_most(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the jobs in this process and records the requested size."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    argv = ("sweep", "disturbance-gap", "--points", "0,1/4", "--json")
    code, serial, _ = run(capsys, *argv)
    assert code == 0 and sizes == []
    code, pooled, _ = run(capsys, *argv, "--workers", "8")
    assert code == 0 and pooled == serial and sizes == [2]
    code, _, _ = run(capsys, "sweep", "disturbance-gap", "--points", "0", "--workers", "8")
    assert code == 0 and sizes == [2]  # one point runs in this process


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
    carries the whole weight; tables for absent contexts are not read."""
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"hypergraph": [], "outcomes": {"a": 2}, "tables": {"0": [1, 0]}})
    )
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
    assert code == 2 and "scale cap exceeded" in err
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, name, missing, *flags, "--scale-cap", "0")
    assert code == 2 and "--scale-cap must be positive" in err
    # the cap holds for that one run: the next run has the default limits
    assert run(capsys, name, path, *flags, "--json")[0] == 0


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


@st.composite
def invocations(draw, path, complex_path):
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
        elif action.metavar == "COMPLEX":
            argv += [flag, complex_path]
        else:
            argv += [flag, draw(st.text(alphabet="0123456789-/.,e ", max_size=10))]
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data(), documents(), documents())
def test_fuzzed_files_and_flags_end_in_a_known_exit_code(data, doc, complex_doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        complex_path = os.path.join(tmp, "complex.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with open(complex_path, "w") as fh:
            json.dump(complex_doc, fh)
        argv = data.draw(invocations(path, complex_path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or "--strict" in argv, argv
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
