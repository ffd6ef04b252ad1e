import math
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import ddg
from contextua.connection import (
    ConnectionDecomposition,
    build_object_complex,
    curvature,
    decompose,
    decompose_cochain,
    decomposition_report,
    disk_integral,
    holonomy,
    loop_phases,
    monodromy_class,
    phase,
    valuation_cochain,
    valuation_from_values,
)
from contextua.core_model import (
    KINDS,
    GptFragment,
    OnticRepresentation,
    OperationalEquivalence,
    effect_equivalences,
    equivalences,
    objects,
    verify_ontic,
)
from contextua.scenarios import random_complex, random_fragment, random_ontic_table

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def counting_fragment(n_states):
    """Only the object counts matter for complex construction."""
    basis = tuple(
        tuple(F(1) if i == j else F(0) for j in range(n_states))
        for i in range(n_states)
    )
    return GptFragment(
        dimension=n_states,
        states=basis,
        effects=(tuple(F(1) for _ in range(n_states)),),
        unit_effect=tuple(F(1) for _ in range(n_states)),
        measurements=((0,),),
    )


@st.composite
def object_setups(draw):
    n_obj = draw(st.integers(min_value=2, max_value=5))
    f = counting_fragment(n_obj)
    n_eq = draw(st.integers(min_value=0, max_value=3))
    eqs = []
    for _ in range(n_eq):
        m = draw(st.integers(min_value=1, max_value=min(4, n_obj)))
        parts = sorted(draw(st.permutations(range(n_obj)))[:m])
        coeffs = {p: draw(nonzero_rationals) for p in parts}
        eqs.append(OperationalEquivalence("state", coeffs))
    view = draw(st.sampled_from(["geometrical", "topological"]))
    oc = build_object_complex("state", f, eqs, view)
    values = [draw(rationals) for _ in range(n_obj)]
    return oc, eqs, values


def bit_fragment():
    return GptFragment(
        dimension=2,
        states=((F(1), F(0)), (F(0), F(1))),
        effects=((F(1), F(1)), (F(1), F(0)), (F(0), F(1))),
        unit_effect=(F(1), F(1)),
        measurements=((1, 2),),
    )


def bit_rep():
    return OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)), (F(0), F(1))),
        effect_responses=((F(1), F(1)), (F(1), F(0)), (F(0), F(1))),
    )


def test_three_term_dependence_is_a_triangle_with_one_cell():
    f = bit_fragment()
    eqs = effect_equivalences(f)
    assert len(eqs) == 1
    oc = build_object_complex("effect", f, eqs, "geometrical")
    assert len(oc.complex.simplices(2)) == 1
    assert oc.view == "geometrical"
    eq_id, loop = oc.loops[0]
    assert ddg.boundary(oc.complex, loop).is_zero
    assert ddg.boundary(oc.complex, oc.disks[0]) == loop


def test_four_term_dependence_fans_into_two_cells():
    f = counting_fragment(4)
    eq = OperationalEquivalence("state", {0: F(1), 1: F(-1), 2: F(1), 3: F(-1)})
    oc = build_object_complex("state", f, [eq], "geometrical")
    assert len(oc.complex.simplices(2)) == 2
    assert ddg.boundary(oc.complex, oc.disks[0]) == oc.loops[0][1]


def test_no_equivalences_no_loops():
    oc = build_object_complex("state", counting_fragment(3), [], "geometrical")
    assert oc.loops == ()
    assert oc.complex.simplices(2) == ()
    # just the base spokes
    assert len(oc.complex.simplices(1)) == 3


def test_topological_view_attaches_no_cells():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "topological")
    assert oc.complex.simplices(2) == ()
    assert oc.view == "topological"
    assert oc.disks[0].is_zero


@settings(max_examples=50)
@given(object_setups())
def test_valuation_pairing_reproduces_weighted_sums(setup):
    oc, eqs, values = setup
    xi = valuation_from_values(oc, values)
    for eq_id, loop in oc.loops:
        expected = sum(
            (c * values[i] for i, c in eqs[eq_id].coefficients.items()), F(0)
        )
        assert ddg.pair(xi, loop) == expected


def test_deterministic_classical_valuation_has_zero_pairing():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "geometrical")
    rep = bit_rep()
    for lam in range(2):
        xi = valuation_cochain(oc, rep, lam)
        for _, loop in oc.loops:
            assert ddg.pair(xi, loop) == 0


def test_perturbed_response_shifts_pairing_by_its_coefficient():
    f = bit_fragment()
    eqs = effect_equivalences(f)
    oc = build_object_complex("effect", f, eqs, "geometrical")
    values = [F(1), F(1), F(0), F(1)]  # unit-object last
    values[1] += F(1, 4)  # coefficient of object 1 in the dependence is -1
    xi = valuation_from_values(oc, values)
    assert ddg.pair(xi, oc.loops[0][1]) == F(-1, 4)


def test_identity_style_square_assignment_pairs_nonzero_everywhere():
    # four states, square dependence, each state pinned to its own ontic
    # value: every single-value valuation hits the loop with +-1
    f = counting_fragment(4)
    eq = OperationalEquivalence("state", {0: F(1), 1: F(-1), 2: F(1), 3: F(-1)})
    oc = build_object_complex("state", f, [eq], "geometrical")
    rep = OnticRepresentation(
        lambda_count=4,
        state_distributions=tuple(
            tuple(F(1) if k == s else F(0) for k in range(4)) for s in range(4)
        ),
        effect_responses=((F(1),) * 4,),
    )
    pairings = [
        ddg.pair(valuation_cochain(oc, rep, lam), oc.loops[0][1])
        for lam in range(4)
    ]
    assert all(abs(p) == 1 for p in pairings), f"pairings {pairings}"


@settings(max_examples=50)
@given(object_setups())
def test_decomposition_recomposes_and_is_gauge_invariant(setup):
    oc, eqs, values = setup
    xi = valuation_from_values(oc, values)
    dec = decompose(oc, xi)
    assert dec.recomposed() == xi
    # cycles never see the potential part
    for eq_id, loop in oc.loops:
        assert ddg.pair(dec.connection, loop) == ddg.pair(xi, loop)
    # normal equations: the connection is divergence-free at every vertex
    divergence = {v: F(0) for v in oc.complex.vertices}
    for (a, b) in oc.complex.simplices(1):
        divergence[b] += dec.connection[(a, b)]
        divergence[a] -= dec.connection[(a, b)]
    assert all(v == 0 for v in divergence.values())
    # base gauge fixed
    assert dec.potential[(0,)] == 0


@settings(max_examples=50)
@given(object_setups(), nonzero_rationals)
def test_scaling_the_valuation_scales_every_phase(setup, s):
    oc, eqs, values = setup
    xi = valuation_from_values(oc, values)
    scaled = valuation_from_values(oc, [s * v for v in values])
    base = loop_phases(oc, decompose(oc, xi))
    stretched = loop_phases(oc, decompose(oc, scaled))
    assert stretched == {k: s * v for k, v in base.items()}


def hollow_triangle():
    return ddg.SimplicialComplex([(0, 1), (1, 2), (0, 2)])


@settings(max_examples=50)
@given(st.lists(rationals, min_size=3, max_size=3))
def test_least_squares_matches_dense_float_solver(values):
    k = hollow_triangle()
    edges = k.simplices(1)
    xi = ddg.Cochain(1, dict(zip(edges, values)))
    dec = decompose_cochain(k, xi)
    assert dec.recomposed() == xi
    grad = np.zeros((len(edges), 3))
    for row, (a, b) in enumerate(edges):
        grad[row][b] = 1.0
        grad[row][a] = -1.0
    c_float, *_ = np.linalg.lstsq(grad, np.array([float(v) for v in values]), rcond=None)
    dc_float = grad @ c_float
    dc_exact = ddg.coboundary(k, dec.potential)
    for row, edge in enumerate(edges):
        assert abs(float(dc_exact[edge]) - dc_float[row]) < 1e-9


@settings(max_examples=50)
@given(st.lists(rationals, min_size=3, max_size=3))
def test_exact_valuations_have_zero_connection(potential_values):
    k = hollow_triangle()
    c0 = ddg.Cochain(0, {(v,): x for v, x in enumerate(potential_values)})
    xi = ddg.coboundary(k, c0)
    dec = decompose_cochain(k, xi)
    assert dec.connection.is_zero
    assert ddg.coboundary(k, dec.potential) == xi


def test_curvature_stokes_and_disk_integrals():
    f = bit_fragment()
    eqs = effect_equivalences(f)
    oc = build_object_complex("effect", f, eqs, "geometrical")
    values = [F(1), F(1), F(0), F(1)]
    values[1] += F(1, 4)
    dec = decompose(oc, valuation_from_values(oc, values))
    curv = curvature(oc, dec)
    assert curv.values == ddg.coboundary(oc.complex, dec.connection)
    assert disk_integral(oc, curv, 0) == F(-1, 4)
    assert disk_integral(oc, curv, 0) == phase(dec, oc.loops[0][1])


def test_flat_representation_has_zero_curvature():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "geometrical")
    dec = decompose(oc, valuation_cochain(oc, bit_rep(), 0))
    assert curvature(oc, dec).values.is_zero


@settings(max_examples=50)
@given(object_setups(), st.data())
def test_curvature_additive_in_the_valuation(setup, data):
    oc, eqs, values = setup
    if oc.view != "geometrical":
        return
    other = [data.draw(rationals) for _ in values]
    xi1 = valuation_from_values(oc, values)
    xi2 = valuation_from_values(oc, other)
    both = valuation_from_values(oc, [a + b for a, b in zip(values, other)])
    f1 = curvature(oc, decompose(oc, xi1)).values
    f2 = curvature(oc, decompose(oc, xi2)).values
    f12 = curvature(oc, decompose(oc, both)).values
    assert f12 == f1 + f2


@settings(max_examples=50)
@given(object_setups())
def test_zero_phases_iff_flat_on_every_cell(setup):
    oc, eqs, values = setup
    if oc.view != "geometrical":
        return
    dec = decompose(oc, valuation_from_values(oc, values))
    curv = curvature(oc, dec)
    phases = loop_phases(oc, dec)
    assert all(v == 0 for v in phases.values()) == curv.values.is_zero
    # Stokes: each disk integral equals its loop phase exactly
    for i, (eq_id, _) in enumerate(oc.loops):
        assert disk_integral(oc, curv, i) == phases[eq_id]


def test_decomposition_disk_and_phase_refuse_the_wrong_degree_or_index():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "geometrical")
    dec = decompose(oc, valuation_cochain(oc, bit_rep(), 0))
    curv = curvature(oc, dec)
    with pytest.raises(ValueError, match="valuations have degree 1, got 2"):
        decompose_cochain(oc.complex, ddg.Cochain(2))
    for index in (-1, len(oc.disks)):
        with pytest.raises(ValueError, match=f"no loop {index}"):
            disk_integral(oc, curv, index)
    with pytest.raises(ValueError, match="phases pair with degree-1 chains"):
        phase(dec, ddg.Chain(2))


def test_curvature_rejects_topological_view():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "topological")
    dec = decompose(oc, valuation_cochain(oc, bit_rep(), 0))
    with pytest.raises(ValueError):
        curvature(oc, dec)


def test_phase_and_holonomy_group_laws():
    k = hollow_triangle()
    xi = ddg.Cochain(1, {(0, 1): F(1)})
    dec = decompose_cochain(k, xi)
    gamma = ddg.Chain(1, {(0, 1): F(1), (1, 2): F(1), (0, 2): F(-1)})
    p1, h1 = holonomy(dec, gamma)
    assert p1 == 1
    assert abs(h1 - np.e) < 1e-12
    zero = ddg.Chain(1)
    p0, h0 = holonomy(dec, zero)
    assert (p0, h0) == (0, 1.0)
    doubled = gamma + gamma
    p2, h2 = holonomy(dec, doubled)
    assert p2 == p1 + p1
    assert abs(h2 - h1 * h1) < 1e-12
    with pytest.raises(ValueError):
        phase(dec, ddg.Chain(1, {(0, 1): F(1)}))
    # phases beyond a double's exponent range saturate instead of overflowing
    for value, saturated in ((F(1000), math.inf), (F(-1000), 0.0)):
        big = decompose_cochain(k, ddg.Cochain(1, {(0, 1): value}))
        assert holonomy(big, gamma) == (value, saturated)


@settings(max_examples=50)
@given(object_setups())
def test_monodromy_matches_phases_and_global_sections(setup):
    oc, eqs, values = setup
    if oc.view != "topological":
        return
    xi = valuation_from_values(oc, values)
    dec = decompose(oc, xi)
    verdict = monodromy_class(oc, dec)
    phases = loop_phases(oc, dec)
    if all(v == 0 for v in phases.values()):
        assert verdict == "trivial"
        # a global potential for the full valuation exists
        assert ddg.is_exact(oc.complex, xi).status == "exact"
    else:
        assert verdict == "nontrivial"
        assert ddg.is_exact(oc.complex, xi).status == "no_potential"


def test_monodromy_class_invariant_under_exact_shifts():
    k = hollow_triangle()
    xi = ddg.Cochain(1, {(0, 1): F(1)})
    dec = decompose_cochain(k, xi)
    shift = ddg.coboundary(k, ddg.Cochain(0, {(1,): F(2, 3)}))
    shifted = ConnectionDecomposition(
        complex=k,
        potential=dec.potential,
        connection=dec.connection + shift,
        disturbance=None,
    )
    gamma = ddg.Chain(1, {(0, 1): F(1), (1, 2): F(1), (0, 2): F(-1)})
    assert phase(dec, gamma) == phase(shifted, gamma)
    assert ddg.is_exact(k, dec.connection).status == ddg.is_exact(
        k, shifted.connection
    ).status


def test_monodromy_rejects_geometrical_view_and_curved_input():
    f = bit_fragment()
    oc_geo = build_object_complex("effect", f, effect_equivalences(f), "geometrical")
    oc_top = build_object_complex("effect", f, effect_equivalences(f), "topological")
    values = [F(1), F(1), F(1, 4), F(1)]
    dec_geo = decompose(oc_geo, valuation_from_values(oc_geo, values))
    with pytest.raises(ValueError):
        monodromy_class(oc_geo, dec_geo)
    if not ddg.coboundary(oc_geo.complex, dec_geo.connection).is_zero:
        with pytest.raises(ValueError):
            monodromy_class(oc_top, dec_geo)


def test_builder_rejects_bad_input():
    f = bit_fragment()
    with pytest.raises(ValueError):
        build_object_complex("effect", f, [], "smooth")
    with pytest.raises(ValueError):
        build_object_complex("widget", f, [], "geometrical")
    state_eq = OperationalEquivalence("state", {0: F(1), 1: F(-1)})
    with pytest.raises(ValueError):
        build_object_complex("effect", f, [state_eq], "geometrical")
    far = OperationalEquivalence("effect", {0: F(1), 9: F(-1)})
    with pytest.raises(ValueError):
        build_object_complex("effect", f, [far], "geometrical")
    with pytest.raises(ValueError):
        build_object_complex("transformation", f, [], "geometrical")


def test_valuation_input_validation():
    f = bit_fragment()
    oc = build_object_complex("effect", f, effect_equivalences(f), "geometrical")
    with pytest.raises(ValueError):
        valuation_from_values(oc, [F(1)])
    rep = bit_rep()
    with pytest.raises(ValueError):
        valuation_cochain(oc, rep, 5)
    mismatched = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)),),
        effect_responses=((F(1), F(1)),),
    )
    with pytest.raises(ValueError):
        valuation_cochain(oc, mismatched, 0)


def test_transformation_valuations_need_kernels_and_pairs():
    flip = ((F(0), F(1)), (F(1), F(0)))
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
        transformations=(flip, flip),
    )
    eq = OperationalEquivalence("transformation", {0: F(1), 1: F(-1)})
    oc = build_object_complex("transformation", f, [eq], "geometrical")
    rep = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)),),
        effect_responses=((F(1), F(1)),),
        transition_kernels=(flip, flip),
    )
    xi = valuation_cochain(oc, rep, 0, lam_out=1)
    assert ddg.pair(xi, oc.loops[0][1]) == 0
    with pytest.raises(ValueError):
        valuation_cochain(oc, rep, 0)  # missing lam_out
    bare = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)),),
        effect_responses=((F(1), F(1)),),
    )
    with pytest.raises(ValueError):
        valuation_cochain(oc, bare, 0, lam_out=1)


def test_decomposition_report_shape():
    f = bit_fragment()
    eqs = effect_equivalences(f)
    oc = build_object_complex("effect", f, eqs, "geometrical")
    values = [F(1), F(3, 4), F(0), F(1)]
    dec = decompose(oc, valuation_from_values(oc, values))
    report = decomposition_report(oc, dec)
    assert report["view"] == "geometrical"
    assert set(report) == {
        "view",
        "potential",
        "connection",
        "disturbance",
        "phases",
        "curvature",
    }
    assert report["phases"]["0"] == "1/4"
    assert report["disturbance"] is None
    for key in report["connection"]:
        a, b = key.split(".")
        assert (int(a), int(b)) in oc.complex


def test_one_gauge_the_first_vertex_of_each_component():
    def rational(rng):
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    for seed in range(64):
        k = random_complex(Random(seed))
        rng = Random(1000 + seed)
        w = ddg.Cochain(0, {(v,): rational(rng) for v in k.vertices})
        xi = ddg.coboundary(k, w)
        dec = decompose_cochain(k, xi)
        assert dec.potential == ddg.is_exact(k, xi).potential
        assert dec.connection.is_zero
        edges = ddg.Cochain(1, {e: rational(rng) for e in k.simplices(1)})
        dec = decompose_cochain(k, edges)
        assert dec.recomposed() == edges
        for component in k.components():
            assert dec.potential[(component[0],)] == 0


@pytest.mark.parametrize("contextual", [False, True])
def test_verify_ontic_residuals_are_the_loop_phases(contextual):
    # pairing a valuation with a dependence loop gives the weighted sum of
    # the loop's object values, and the exact part pairs to 0 with a cycle
    for k in range(60):
        f = random_fragment(Random(k), with_transformations=True)
        if k % 2:
            # random transformations are independent; a repeat depends
            f = replace(f, transformations=f.transformations * 2)
        rep = random_ontic_table(f, Random(k), contextual)
        for kind in KINDS:
            if not objects(f, kind):
                continue
            eqs = equivalences(f, kind)
            residuals = verify_ontic(f, rep, eqs).equivalence_residuals
            oc = build_object_complex(kind, f, eqs, "topological")
            for key in {key[1:] for key in residuals}:
                dec = decompose(oc, valuation_cochain(oc, rep, *key))
                for e, value in loop_phases(oc, dec).items():
                    assert residuals[(e, *key)] == value, (k, kind, key, e)
