"""End-to-end acceptance checks, one test per numbered guarantee.

Each test prints a single ``[acceptance] #n ...: PASS`` line (visible under
``pytest -s``); a failed assert means the corresponding guarantee is broken.
The corpora are seeded, so every run exercises the same instances.
"""

import math
from fractions import Fraction as F
from random import Random
from time import perf_counter

import pytest

from contextua import ddg
from contextua.connection import (
    build_object_complex,
    curvature,
    decompose,
    loop_phases,
    valuation_cochain,
    valuation_from_values,
)
from contextua.core_model import (
    GptFragment,
    OperationalEquivalence,
    effect_equivalences,
    state_equivalences,
)
from contextua.disturbance import (
    decompose_with_eta,
    detect_disturbance,
    extend_scenario,
    fractions_with_disturbance,
)
from contextua.interference import (
    additive_measure,
    born_measure,
    i2,
    i2_from_connection,
    i3,
    reconstructed_measure,
)
from contextua.noncontextuality import (
    contextual_fraction,
    fraction_via_connection,
    minimal_negativity,
    noncontextual_lp,
)
from contextua.scenarios import (
    classical_simplex,
    gbit,
    halving_fragment,
    induced_singleton_model,
    noisy_pr_fragment,
    nudged_box,
    planted_gap_model,
    pr_box,
    pr_box_fragment,
    product_model,
    chsh_quantum,
    kcbs_quantum,
    qubit_fragment,
    random_acyclic_hypergraph,
    random_complex,
    random_fragment,
    random_nondisturbing_model,
    random_ontic_table,
    two_party_model_from_fragment,
)
from contextua.vorobyev import (
    CompatibilityHypergraph,
    generalized_vorobyev,
    graham_reduce,
    is_acyclic,
)
from test_interference import random_orthogonal_projectors, random_state


# -- shared corpora ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_fragments():
    return {
        "classical-bit": classical_simplex(2),
        "classical-simplex": classical_simplex(3),
        "gbit": gbit(),
        "halving": halving_fragment(),
        "qubit": qubit_fragment(),
        "pr-box": pr_box_fragment(),
        "noisy-pr-half": noisy_pr_fragment(F(1, 2)),
        "noisy-pr-strong": noisy_pr_fragment(F(3, 4)),
    }


@pytest.fixture(scope="module")
def corpus_lps(corpus_fragments):
    return {name: noncontextual_lp(f) for name, f in corpus_fragments.items()}


@pytest.fixture(scope="module")
def table_corpus():
    """Random fragments with per-kind equivalences and ontic tables.

    Grows until at least 200 tables are collected; each entry pairs one
    split-corner table (reproduces the fragment exactly) with one free
    random table (generically reproduces nothing).
    """
    entries = []
    tables = 0
    seed = 0
    while tables < 200:
        rng = Random(1000 + seed)
        seed += 1
        f = random_fragment(rng)
        for kind, eqs in (
            ("state", state_equivalences(f)),
            ("effect", effect_equivalences(f, include_unit=True)),
        ):
            if not eqs:
                continue
            reps = tuple(
                random_ontic_table(f, rng, contextual)
                for contextual in (False, True)
            )
            entries.append((f, kind, eqs, reps))
            tables += len(reps)
    return entries


# -- #1 exact calculus -------------------------------------------------------


def test_criterion_01_calculus_identities_on_random_complexes():
    rng = Random(10)
    start = perf_counter()
    checks = 0
    for _ in range(100):
        k = random_complex(rng)
        degree = 1
        while k.simplices(degree):
            chain = ddg.Chain(
                degree,
                {
                    s: F(rng.randrange(-6, 7), rng.randrange(1, 5))
                    for s in k.simplices(degree)
                },
            )
            xi = ddg.Cochain(
                degree - 1,
                {
                    s: F(rng.randrange(-6, 7), rng.randrange(1, 5))
                    for s in k.simplices(degree - 1)
                },
            )
            if degree >= 2:
                assert ddg.boundary(k, ddg.boundary(k, chain)).is_zero
            assert ddg.coboundary(k, ddg.coboundary(k, xi)).is_zero
            # discrete Stokes: integrating the derivative over a region
            # equals integrating the original over the region's boundary
            assert ddg.pair(ddg.coboundary(k, xi), chain) == ddg.pair(
                xi, ddg.boundary(k, chain)
            )
            checks += 1
            degree += 1
    elapsed = perf_counter() - start
    assert checks >= 100, f"only {checks} degree checks ran"
    assert elapsed < 5.0, f"calculus sweep took {elapsed:.2f}s"
    print("[acceptance] #1 exact calculus identities on 100 random complexes: PASS")


# -- #2 flatness equals vanishing curvature ----------------------------------


def test_criterion_02_zero_phases_iff_flat(table_corpus):
    tables = flat = curved = 0
    for f, kind, eqs, reps in table_corpus:
        oc = build_object_complex(kind, f, eqs, "geometrical")
        for rep in reps:
            for lam in range(rep.lambda_count):
                dec = decompose(oc, valuation_cochain(oc, rep, lam))
                curv = curvature(oc, dec)
                phases = loop_phases(oc, dec)
                zero_phases = all(v == 0 for v in phases.values())
                assert zero_phases == curv.values.is_zero, (
                    f"{kind} table on fragment dim {f.dimension}: "
                    f"phases {phases} vs curvature support {curv.values}"
                )
                if zero_phases:
                    flat += 1
                else:
                    curved += 1
            tables += 1
    assert tables >= 200, f"corpus only reached {tables} tables"
    assert flat > 0 and curved > 0, f"one-sided corpus: {flat} flat, {curved} curved"
    print(f"[acceptance] #2 zero phases iff zero curvature on {tables} tables: PASS")


# -- #3 flat connections: trivial phases equal exactness ---------------------


def test_criterion_03_phase_obstruction_iff_no_potential(table_corpus):
    exact_count = obstructed = 0
    for f, kind, eqs, reps in table_corpus:
        oc = build_object_complex(kind, f, eqs, "topological")
        for rep in reps:
            for lam in range(rep.lambda_count):
                dec = decompose(oc, valuation_cochain(oc, rep, lam))
                # no 2-cells are attached in this view, so the connection
                # is closed by construction; check it anyway
                assert ddg.coboundary(oc.complex, dec.connection).is_zero
                phases = loop_phases(oc, dec)
                nontrivial = any(v != 0 for v in phases.values())
                result = ddg.is_exact(oc.complex, dec.connection)
                assert result.status in ("exact", "no_potential")
                assert nontrivial == (result.status == "no_potential"), (
                    f"{kind} complex: phases {phases} but solver said {result.status}"
                )
                if result.status == "exact":
                    if result.potential is not None:
                        assert (
                            ddg.coboundary(oc.complex, result.potential)
                            == dec.connection
                        )
                    exact_count += 1
                else:
                    obstructed += 1
    assert exact_count > 0 and obstructed > 0
    print("[acceptance] #3 nonzero phase iff no global potential: PASS")


# -- #4 extremal and quantum contextual fractions ----------------------------


def test_criterion_04_fraction_anchors():
    start = perf_counter()
    report = contextual_fraction(pr_box())
    elapsed = perf_counter() - start
    assert report.cf == 1 and report.ncf == 0
    assert elapsed < 1.0, f"extremal box took {elapsed:.2f}s"

    h = CompatibilityHypergraph(("a", "b"), (("a", "b"),))
    marginals = {"a": (F(1, 4), F(3, 4)), "b": (F(1), F(0))}
    classical = product_model(h, {"a": 2, "b": 2}, marginals)
    start = perf_counter()
    report = contextual_fraction(classical)
    elapsed = perf_counter() - start
    assert report.cf == 0 and report.ncf == 1
    assert elapsed < 1.0, f"classical table took {elapsed:.2f}s"

    start = perf_counter()
    report = contextual_fraction(chsh_quantum())
    elapsed = perf_counter() - start
    assert abs(float(report.cf) - (math.sqrt(2) - 1)) < 1e-6, (
        f"quantum pair fraction was {float(report.cf)}"
    )
    assert elapsed < 1.0, f"quantum table took {elapsed:.2f}s"
    print("[acceptance] #4 fraction anchors (1, 0, sqrt(2)-1): PASS")


# -- #5 three certificates, one verdict --------------------------------------


def test_criterion_05_feasibility_negativity_fraction_agree(
    corpus_fragments, corpus_lps
):
    half = corpus_fragments["noisy-pr-half"]
    strong = corpus_fragments["noisy-pr-strong"]
    models = {
        "classical-bit": induced_singleton_model(corpus_fragments["classical-bit"], 0),
        "classical-simplex": induced_singleton_model(
            corpus_fragments["classical-simplex"], 0
        ),
        "halving": induced_singleton_model(corpus_fragments["halving"], 0),
        "qubit": induced_singleton_model(corpus_fragments["qubit"], 0),
        "pr-box": pr_box(),
        "noisy-pr-half": two_party_model_from_fragment(half),
        "noisy-pr-strong": two_party_model_from_fragment(strong),
        # the square-state fragment is contextual on the preparation side
        # alone, so no single-preparation table can witness it faithfully;
        # it participates through the first two certificates only
    }
    for name, f in corpus_fragments.items():
        solution = corpus_lps[name]
        infeasible = solution.status == "infeasible"
        if infeasible:
            assert solution.certificate_checks(), f"{name}: certificate replay failed"
        _, negativity = minimal_negativity(f)
        assert (negativity > 0) == infeasible, (
            f"{name}: negativity {negativity} vs status {solution.status}"
        )
        model = models.get(name)
        if model is not None:
            cf = contextual_fraction(model).cf
            assert (cf > 0) == infeasible, f"{name}: fraction {cf} disagrees"
    print("[acceptance] #5 infeasibility = negativity = contextual fraction: PASS")


# -- #6 interference vanishes where it should --------------------------------


def test_criterion_06_no_spurious_interference():
    rng = Random(60)
    letters = "abcde"
    for _ in range(100):
        atoms = letters[: rng.randint(3, 5)]
        m = additive_measure({a: F(rng.randint(0, 8), 8) for a in atoms})
        picks = rng.sample(list(atoms), 3)
        a, b, c = ({picks[0]}, {picks[1]}, {picks[2]})
        assert i2(m, a, b) == 0
        assert i3(m, a, b, c) == 0
        if len(atoms) >= 4:
            rest = [x for x in atoms if x not in a | b]
            assert i2(m, a | b, set(rest)) == 0

    qrng = Random(61)
    for _ in range(100):
        dim = qrng.randint(3, 5)
        rho = random_state(qrng, dim)
        projectors = dict(zip("abc", random_orthogonal_projectors(qrng, dim, 3)))
        m = born_measure(rho, projectors)
        assert i3(m, {"a"}, {"b"}, {"c"}) == 0
    print("[acceptance] #6 no additive or sharp-triple interference: PASS")


# -- #7 the connection bridge computes interference --------------------------


def _join_complex():
    """Two part effects, their join, and the unit, with the join dependence."""
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2))),
        unit_effect=(F(1), F(1)),
        measurements=((2,),),
    )
    eq = OperationalEquivalence("effect", {0: F(1), 1: F(1), 2: F(-1)})
    return build_object_complex("effect", f, [eq], "geometrical")


def test_criterion_07_bridge_matches_direct_interference():
    oc = _join_complex()
    rng = Random(70)
    for _ in range(60):
        count = rng.randint(1, 3)
        decs = []
        direct = F(0)
        raw_weights = [F(rng.randint(1, 8)) for _ in range(count)]
        weights = [w / sum(raw_weights) for w in raw_weights]
        for w in weights:
            values = [
                F(rng.randrange(-24, 25), rng.randrange(1, 9)) for _ in range(4)
            ]
            dec = decompose(oc, valuation_from_values(oc, values))
            decs.append(dec)
            m = reconstructed_measure(
                oc, dec, {0: "e", 1: "f"}, joins={frozenset({"e", "f"}): 2}
            )
            direct += w * i2(m, {"e"}, {"f"})
        assert i2_from_connection(oc, decs, weights, 0, 1, 2) == direct
    print("[acceptance] #7 connection bridge equals direct interference: PASS")


# -- #8 acyclic scenarios are never contextual -------------------------------


def test_criterion_08_acyclic_models_have_zero_fraction():
    rng = Random(80)
    start = perf_counter()
    runs = 0
    for _ in range(50):
        h = random_acyclic_hypergraph(rng, max_measurements=5)
        assert is_acyclic(h)
        for _ in range(10):
            m = random_nondisturbing_model(
                h, rng, outcomes={name: 2 for name in h.measurements}
            )
            report = contextual_fraction(m)
            assert report.cf == 0, (
                f"fraction {report.cf} on acyclic contexts {h.contexts}"
            )
            runs += 1
    elapsed = perf_counter() - start
    assert runs == 500
    assert elapsed < 60.0, f"500 runs took {elapsed:.1f}s"

    box = pr_box().hypergraph
    reduced, trace = graham_reduce(box)
    assert trace == [] and reduced == box  # the 4-cycle is its own fixpoint
    assert not is_acyclic(box)
    print("[acceptance] #8 500 acyclic models all have fraction 0: PASS")


# -- #9 topological and algebraic certificates never clash -------------------


def test_criterion_09_certificates_never_contradict(corpus_fragments, corpus_lps):
    certified = inconclusive = 0
    for name, f in corpus_fragments.items():
        feasible = corpus_lps[name].status == "optimal"
        for kind, eqs in (
            ("state", state_equivalences(f)),
            ("effect", effect_equivalences(f, include_unit=True)),
        ):
            oc = build_object_complex(kind, f, eqs, "topological")
            verdict = generalized_vorobyev(oc)
            if verdict == "noncontextual-certified":
                certified += 1
                assert feasible, f"{name}/{kind}: cleared an infeasible fragment"
            else:
                inconclusive += 1
    assert certified > 0 and inconclusive > 0
    print("[acceptance] #9 no certified-yet-infeasible instance: PASS")


# -- #10 disturbance splits off cleanly --------------------------------------


def test_criterion_10_disturbance_pipeline(corpus_fragments):
    models = [
        pr_box(),
        chsh_quantum(),
        kcbs_quantum(),
        induced_singleton_model(corpus_fragments["halving"], 0),
        induced_singleton_model(corpus_fragments["qubit"], 0),
        planted_gap_model(F(1, 8)),
        planted_gap_model(F(1, 4)),
        nudged_box(F(1, 8)),
        nudged_box(F(1, 2)),
    ]
    for m in models:
        extension = extend_scenario(m)
        assert detect_disturbance(extension.model) == []
        report = fractions_with_disturbance(m)
        assert report.ncf + report.cf + report.df == 1, (
            f"split {report.ncf}+{report.cf}+{report.df} != 1"
        )
        if not detect_disturbance(m):
            assert report.df == 0
    assert fractions_with_disturbance(planted_gap_model(F(1, 8))).df == F(1, 8)

    # exact three-part recomposition on a loop complex under random charts
    g = halving_fragment()
    oc = build_object_complex(
        "effect", g, effect_equivalences(g, include_unit=True), "topological"
    )
    rng = Random(100)
    vertices = oc.complex.vertices
    for _ in range(20):
        xi = valuation_from_values(
            oc, [F(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(5)]
        )
        charts = {v: rng.randrange(2) for v in vertices}
        dec = decompose_with_eta(oc, xi, charts)
        assert dec.recomposed() == xi
    print("[acceptance] #10 disturbance detection, extension, and split: PASS")


# -- #11 the witness bridge reproduces the fraction --------------------------


def test_criterion_11_witness_bridge_reproduces_fractions(
    corpus_fragments, corpus_lps
):
    feasible_names = (
        "classical-bit",
        "classical-simplex",
        "halving",
        "qubit",
        "noisy-pr-half",
    )
    for name in feasible_names:
        f = corpus_fragments[name]
        solution = corpus_lps[name]
        assert solution.status == "optimal", f"{name} unexpectedly infeasible"
        bridged = fraction_via_connection(f, solution)
        if name == "noisy-pr-half":
            report = contextual_fraction(two_party_model_from_fragment(f))
        else:
            report = contextual_fraction(induced_singleton_model(f, 0))
        assert bridged == report.ncf == 1, f"{name}: bridge gave {bridged}"
        assert report.cf == 1 - bridged == 0
    halving = corpus_fragments["halving"]
    for s in range(3):
        for mi in range(2):
            assert (
                fraction_via_connection(
                    halving,
                    corpus_lps["halving"],
                    state_index=s,
                    measurement_index=mi,
                )
                == 1
            )
    print("[acceptance] #11 decomposed witnesses reproduce the fraction: PASS")
