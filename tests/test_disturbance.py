"""Disturbance detection, scenario extension, eta splits, and DF fractions."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from scipy.optimize import linprog

from contextua import ddg
from contextua.connection import (
    build_object_complex,
    decompose,
    decompose_cochain,
    phase,
    valuation_from_values,
)
from contextua.core_model import (
    EmpiricalModel,
    effect_equivalences,
    state_equivalences,
)
from contextua.disturbance import (
    decompose_with_eta,
    detect_disturbance,
    extend_scenario,
    fractions_with_disturbance,
)
from contextua.noncontextuality import contextual_fraction
from contextua.scenarios import (
    chsh_quantum,
    halving_fragment,
    kcbs_quantum,
    nudged_box,
    planted_gap_model,
    pr_box,
    product_model,
    random_acyclic_hypergraph,
    random_complex,
    random_fragment,
    random_nondisturbing_model,
)
from contextua.vorobyev import CompatibilityHypergraph

F = Fraction


def recompose(report, model):
    parts = []
    if report.p_nc is not None:
        parts.append((report.ncf, report.p_nc))
    if report.p_sc is not None:
        parts.append((report.cf, report.p_sc))
    if report.p_d is not None:
        parts.append((report.df, report.p_d))
    for i in range(len(model.tables)):
        for flat, value in enumerate(model.tables[i]):
            total = sum((w * m.tables[i][flat] for w, m in parts), F(0))
            assert total == value


# -- detection ---------------------------------------------------------------


def test_product_and_quantum_models_are_clean():
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    marginals = {
        "a": (F(1, 3), F(2, 3)),
        "b": (F(1, 2), F(1, 2)),
        "c": (F(1), F(0)),
    }
    m = product_model(h, {"a": 2, "b": 2, "c": 2}, marginals)
    assert detect_disturbance(m) == []
    for m in (pr_box(), chsh_quantum(), kcbs_quantum()):
        assert detect_disturbance(m) == []


def test_planted_gap_is_reported_exactly():
    findings = detect_disturbance(planted_gap_model(F(1, 4)))
    assert findings == [(("a", "b"), ("b", "c"), ("b",), F(1, 4))]


def test_findings_are_sorted_and_complete():
    h = CompatibilityHypergraph(
        ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))
    )
    tables = (
        (F(1, 4),) * 4,
        (F(0), F(1, 4), F(1, 4), F(1, 2)),  # skews both b and c marginals
        (F(1, 4),) * 4,
    )
    m = EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, tables)
    findings = detect_disturbance(m)
    assert findings == [
        (("a", "b"), ("b", "c"), ("b",), F(1, 4)),
        (("b", "c"), ("a", "c"), ("c",), F(1, 4)),
    ]


# -- extension ---------------------------------------------------------------


def test_extension_is_identity_on_clean_models():
    ext = extend_scenario(pr_box())
    assert ext.model == pr_box()
    assert ext.mapping == {m: m for m in pr_box().hypergraph.measurements}


def test_extension_splits_the_disturbing_measurement():
    m = planted_gap_model(F(1, 4))
    ext = extend_scenario(m)
    assert detect_disturbance(ext.model) == []
    assert ext.model.hypergraph.contexts == (("a", "b@0"), ("b@1", "c"))
    assert ext.mapping == {"a": "a", "c": "c", "b@0": "b", "b@1": "b"}
    assert ext.model.tables == m.tables  # renaming only, no data change
    for new, old in ext.mapping.items():
        assert ext.model.outcomes[new] == m.outcomes[old]


def test_extension_iterates_until_clean():
    h = CompatibilityHypergraph(
        ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))
    )
    tables = (
        (F(1, 4),) * 4,
        (F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
        (F(0), F(1, 2), F(1, 2), F(0)),
    )
    m = EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, tables)
    ext = extend_scenario(m)
    assert detect_disturbance(ext.model) == []
    originals = {ext.mapping[name] for name in ext.model.hypergraph.measurements}
    assert originals == {"a", "b", "c"}


def test_extension_bounds_the_contextual_fraction():
    for g in (F(1, 8), F(1, 4)):
        m = nudged_box(g)
        report = fractions_with_disturbance(m)
        ext = extend_scenario(m)
        assert contextual_fraction(ext.model).cf <= report.cf + report.df


# -- eta decomposition -------------------------------------------------------


@pytest.fixture()
def halving_complex():
    g = halving_fragment()
    eqs = effect_equivalences(g, include_unit=True)
    return build_object_complex("effect", g, eqs, "topological")


def test_constant_chart_reduces_to_plain_decomposition(halving_complex):
    oc = halving_complex
    xi = valuation_from_values(oc, [F(3), F(1, 2), F(-2), F(7, 3), F(1)])
    charts = {v: "only" for v in oc.complex.vertices}
    dec = decompose_with_eta(oc, xi, charts)
    plain = decompose(oc, xi)
    assert dec.potential == plain.potential
    assert dec.connection == plain.connection
    assert dec.disturbance.is_zero
    assert dec.recomposed() == xi


def test_single_chart_matches_plain_decomposition_on_random_complexes():
    rng = Random(21)
    checked = 0
    for seed in range(16):
        f = random_fragment(Random(seed))
        for kind, eqs in (
            ("state", state_equivalences(f)),
            ("effect", effect_equivalences(f, include_unit=True)),
        ):
            for view in ("geometrical", "topological"):
                oc = build_object_complex(kind, f, eqs, view)
                xi = valuation_from_values(
                    oc,
                    [
                        F(rng.randrange(-6, 7), rng.randrange(1, 4))
                        for _ in range(oc.object_count)
                    ],
                )
                charts = {v: 0 for v in oc.complex.vertices}
                dec = decompose_with_eta(oc, xi, charts)
                plain = decompose(oc, xi)
                assert dec.potential == plain.potential
                assert dec.connection == plain.connection
                assert dec.disturbance.is_zero
                checked += 1
    assert checked == 64


def test_two_charts_split_support_and_phases(halving_complex):
    oc = halving_complex
    rng = Random(5)
    vertices = oc.complex.vertices
    edges = oc.complex.simplices(1)
    for _ in range(10):
        xi = valuation_from_values(
            oc, [F(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(5)]
        )
        charts = {v: rng.randrange(2) for v in vertices}
        dec = decompose_with_eta(oc, xi, charts)
        assert dec.recomposed() == xi
        for e in edges:
            if charts[e[0]] != charts[e[1]]:
                assert dec.connection[e] == 0
            else:
                assert dec.disturbance[e] == 0
        for _, gamma in oc.loops:
            lhs = ddg.pair(xi, gamma)
            split = ddg.pair(dec.connection, gamma) + ddg.pair(
                dec.disturbance, gamma
            )
            assert lhs == split
            assert phase(dec, gamma) == lhs


def test_planted_crossing_value_lands_in_eta(halving_complex):
    oc = halving_complex
    vertices = oc.complex.vertices
    charts = {v: (0 if i < len(vertices) // 2 else 1) for i, v in enumerate(vertices)}
    crossing = [
        e for e in oc.complex.simplices(1) if charts[e[0]] != charts[e[1]]
    ]
    xi = ddg.Cochain(1, {crossing[0]: F(1, 4)})
    dec = decompose_with_eta(oc, xi, charts)
    assert dec.potential.is_zero
    assert dec.connection.is_zero
    assert dec.disturbance == xi


def test_chart_map_must_cover_all_vertices(halving_complex):
    oc = halving_complex
    xi = ddg.Cochain(1, {})
    with pytest.raises(ValueError, match="missing vertex"):
        decompose_with_eta(oc, xi, {0: 0})


def test_chart_split_is_the_fit_without_the_crossing_edges():
    # random complexes carry 2-cells and isolated vertices, which object
    # complexes never have
    for k in range(120):
        cx = random_complex(Random(k))
        rng = Random(2000 + k)
        edges = cx.simplices(1)
        xi = ddg.Cochain(
            1, {e: F(rng.randrange(-6, 7), rng.randrange(1, 4)) for e in edges}
        )
        charts = {v: rng.randrange(3) for v in cx.vertices}
        crossing = {e for e in edges if charts[e[0]] != charts[e[1]]}
        dec = decompose_cochain(cx, xi, charts=charts)
        assert dec.recomposed() == xi
        assert not crossing & set(dec.connection.values)
        assert set(dec.disturbance.values) <= crossing
        kept = [e for e in edges if e not in crossing]
        assert dec.potential == ddg.potential(cx, xi, kept)

        one = decompose_cochain(cx, xi, charts={v: "one" for v in cx.vertices})
        plain = decompose_cochain(cx, xi)
        assert plain.disturbance is None and one.disturbance.is_zero
        assert (one.potential, one.connection) == (plain.potential, plain.connection)
        assert one.residual == plain.residual == xi - ddg.coboundary(cx, plain.potential)


def test_a_value_off_the_complex_stays_in_the_connection(halving_complex):
    oc = halving_complex
    off = (1, max(oc.complex.vertices) + 1)
    xi = valuation_from_values(oc, [F(3), F(1, 2), F(-2), F(7, 3), F(1)])
    xi = xi + ddg.Cochain(1, {off: F(5)})
    charts = {v: v % 2 for v in oc.complex.vertices}
    dec = decompose_with_eta(oc, xi, charts)
    assert dec.recomposed() == xi == decompose(oc, xi).recomposed()
    assert dec.connection[off] == 5 and dec.disturbance[off] == 0


# -- three-part fractions ----------------------------------------------------


def test_clean_models_delegate_to_contextual_fraction():
    for m in (pr_box(), chsh_quantum()):
        report = fractions_with_disturbance(m)
        plain = contextual_fraction(m)
        assert (report.ncf, report.cf, report.df) == (plain.ncf, plain.cf, 0)
        assert report.p_d is None
        recompose(report, m)


def test_planted_family_df_equals_the_gap():
    previous = F(-1)
    for gap in (F(0), F(1, 8), F(1, 4), F(3, 8)):
        m = planted_gap_model(gap)
        report = fractions_with_disturbance(m)
        assert report.df == gap
        assert report.cf == 0  # path scenarios cannot be contextual
        assert report.ncf + report.cf + report.df == 1
        assert report.df >= previous
        previous = report.df
        recompose(report, m)


def test_perturbed_pr_family_frozen_values():
    previous_cf = F(2)
    for g in (F(0), F(1, 8), F(1, 4), F(1, 2)):
        m = nudged_box(g)
        report = fractions_with_disturbance(m)
        assert report.df == g / 2
        assert report.cf == 1 - g
        assert report.ncf == g / 2
        assert report.cf <= previous_cf  # disturbance consumes contextuality
        previous_cf = report.cf
        recompose(report, m)


def test_totally_disturbing_model_is_pure_p_d():
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    tables = (
        (F(1, 2), F(0), F(1, 2), F(0)),  # b always 0
        (F(0), F(0), F(1, 2), F(1, 2)),  # b always 1
    )
    m = EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, tables)
    report = fractions_with_disturbance(m)
    assert (report.ncf, report.cf, report.df) == (0, 0, 1)
    assert report.p_nc is None and report.p_sc is None
    assert report.p_d is not None and report.p_d.tables == m.tables


def test_randomly_disturbed_models_stay_consistent():
    rng = Random(7)
    for trial in range(6):
        h = random_acyclic_hypergraph(Random(300 + trial), max_measurements=5)
        m = random_nondisturbing_model(h, rng, outcomes={m: 2 for m in h.measurements})
        assert fractions_with_disturbance(m).df == 0
        # pull one table toward its first corner
        tables = list(m.tables)
        i = rng.randrange(len(tables))
        t = F(rng.randrange(1, 4), 4)
        corner = (F(1),) + (F(0),) * (len(tables[i]) - 1)
        tables[i] = tuple(
            (1 - t) * p + t * c for p, c in zip(tables[i], corner)
        )
        disturbed = EmpiricalModel(h, dict(m.outcomes), tuple(tables))
        report = fractions_with_disturbance(disturbed)
        assert report.ncf + report.cf + report.df == 1
        assert (report.df > 0) == (detect_disturbance(disturbed) != [])
        recompose(report, disturbed)


# -- the common-sub-mass LP against HiGHS --------------------------------------


def highs_common_mass(model):
    """Largest t with sub-tables u_i <= p_i of mass t agreeing on every
    shared marginal, built apart from the package and solved in floats."""
    h = model.hypergraph
    joint = [
        list(product(*(range(model.outcomes[x]) for x in c))) for c in h.contexts
    ]
    offsets = [1 + sum(len(j) for j in joint[:i]) for i in range(len(joint))]
    width = 1 + sum(len(j) for j in joint)
    rows = []
    for i, assignments in enumerate(joint):
        row = [0.0] * width
        row[0] = -1.0
        for k in range(len(assignments)):
            row[offsets[i] + k] = 1.0
        rows.append(row)
    for i in range(len(h.contexts)):
        for j in range(i + 1, len(h.contexts)):
            shared = [x for x in h.contexts[i] if x in h.contexts[j]]
            for key in product(*(range(model.outcomes[x]) for x in shared)):
                row = [0.0] * width
                for ctx, sign in ((i, 1.0), (j, -1.0)):
                    context = h.contexts[ctx]
                    positions = [context.index(x) for x in shared]
                    for k, a in enumerate(joint[ctx]):
                        if tuple(a[p] for p in positions) == key:
                            row[offsets[ctx] + k] = sign
                rows.append(row)
    bounds = [(0, None)] + [(0, float(p)) for table in model.tables for p in table]
    objective = [-1.0] + [0.0] * (width - 1)
    result = linprog(
        objective, A_eq=rows, b_eq=[0.0] * len(rows), bounds=bounds, method="highs"
    )
    assert result.status == 0
    return -result.fun


def skewed_cycle(rng, n, skew):
    """Binary n-cycle whose first context moves c0's marginal by ``skew``;
    the last context (c{n-1}, c0) holds c0 at position 1."""
    names = tuple(f"c{i}" for i in range(n))
    contexts = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    tables = []
    for i in range(n):
        c = F(rng.randint(-6, 6), 12)
        agree, differ = (1 + c) / 4, (1 - c) / 4
        shift = skew / 2 if i == 0 else F(0)
        tables.append((agree + shift, differ + shift, differ - shift, agree - shift))
    return EmpiricalModel(
        CompatibilityHypergraph(names, contexts), {x: 2 for x in names}, tuple(tables)
    )


def random_table(rng, size):
    weights = [rng.randint(0, 4) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


def differential_models():
    rng = Random(5)
    for n in (4, 5):
        for _ in range(4):
            yield skewed_cycle(rng, n, F(rng.randint(1, 4), 16))
    for g in (F(1, 8), F(1, 3), F(1)):
        yield nudged_box(g)
    for trial in range(8):
        h = random_acyclic_hypergraph(Random(400 + trial), max_measurements=5)
        m = random_nondisturbing_model(h, rng, outcomes={x: 2 for x in h.measurements})
        tables = list(m.tables)
        i = rng.randrange(len(tables))
        t = F(rng.randrange(1, 4), 4)
        corner = (F(1),) + (F(0),) * (len(tables[i]) - 1)
        tables[i] = tuple((1 - t) * p + t * c for p, c in zip(tables[i], corner))
        yield EmpiricalModel(h, dict(m.outcomes), tuple(tables))
    # two contexts sharing the pair (b, c) in opposite orders
    h = CompatibilityHypergraph(
        ("a", "b", "c", "d"), (("a", "b", "c"), ("c", "b", "d"))
    )
    outcomes = {"a": 2, "b": 3, "c": 2, "d": 2}
    for _ in range(4):
        yield EmpiricalModel(h, outcomes, (random_table(rng, 12), random_table(rng, 12)))


def test_disturbing_fraction_matches_highs():
    for m in differential_models():
        report = fractions_with_disturbance(m)
        assert abs(float(report.df) - (1 - highs_common_mass(m))) < 1e-7
