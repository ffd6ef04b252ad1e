"""Generator library: exact anchors, quantum oracles, random corpora."""

import hashlib
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from contextua._rat import rationalize
from contextua.core_model import (
    DisturbingModelError,
    EmpiricalModel,
    effect_equivalences,
    probability,
    state_equivalences,
    validate_fragment,
    verify_ontic,
)
from contextua.interference import i2
from contextua.scenarios import (
    SCENARIOS,
    TSIRELSON_ANGLES,
    _check_model,
    _rip_order,
    chsh_quantum,
    chsh_value,
    classical_simplex,
    gbit,
    halving_fragment,
    induced_singleton_model,
    kcbs_quantum,
    kcbs_value,
    noisy_pr_fragment,
    nudged_box,
    planted_gap_model,
    pr_box,
    pr_box_fragment,
    product_model,
    qubit_fragment,
    random_acyclic_hypergraph,
    random_complex,
    random_fragment,
    random_nondisturbing_model,
    random_ontic_table,
    two_party_model_from_fragment,
    two_slit_measure,
)
from contextua.vorobyev import CompatibilityHypergraph, graham_reduce, is_acyclic


def assert_consistent(m):
    """Exact marginal agreement on every intersecting context pair."""
    h = m.hypergraph
    for i in range(len(h.contexts)):
        for j in range(i + 1, len(h.contexts)):
            shared = [x for x in h.contexts[i] if x in h.contexts[j]]
            if shared:
                assert m.marginal(i, shared) == m.marginal(j, shared)


def test_classical_simplex_is_deterministic():
    for n in (2, 3, 5):
        f = classical_simplex(n)
        assert validate_fragment(f).ok
        for s in range(n):
            for r in range(n):
                expected = Fraction(1) if s == r else Fraction(0)
                assert probability(f, s, r) == expected
    with pytest.raises(ValueError):
        classical_simplex(1)


def test_gbit_has_the_single_square_dependence():
    f = gbit()
    eqs = state_equivalences(f)
    assert len(eqs) == 1
    assert eqs[0].coefficients == {
        0: Fraction(1),
        1: Fraction(-1),
        2: Fraction(1),
        3: Fraction(-1),
    }
    rank = np.linalg.matrix_rank(np.array(f.states, dtype=float).T)
    assert rank == 3


def test_halving_fragment_dependencies_are_unbalanced():
    f = halving_fragment()
    assert [e.coefficients for e in state_equivalences(f)] == [
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(-2)}
    ]
    assert [e.coefficients for e in effect_equivalences(f)] == [
        {0: Fraction(1), 2: Fraction(-2)},
        {0: Fraction(1), 1: Fraction(2), 3: Fraction(-2)},
    ]


def test_qubit_fragment_axis_probabilities():
    f = qubit_fragment()
    assert len(f.states) == 6 and len(f.effects) == 6
    # state +z against the z measurement: certainty; against x: even odds
    z_plus = 4  # states ordered +x,+y,+z,-x,-y,-z; effects (x+,x-,y+,y-,z+,z-)
    assert probability(f, 2, z_plus) == 1
    assert probability(f, 5, z_plus) == 0
    assert probability(f, 0, z_plus) == Fraction(1, 2)


def test_qubit_fragment_shrinks_float_points_into_the_ball():
    r = 1 / math.sqrt(2)
    f = qubit_fragment(points=[(r, r, 0.0), (0.6, 0.8, 0.0)])
    for state in f.states:
        assert sum(x * x for x in state[1:]) <= 1
    for i, target in enumerate([(r, r, 0.0), (0.6, 0.8, 0.0)]):
        for got, want in zip(f.states[i][1:], target):
            assert abs(float(got) - want) < 2e-6
    with pytest.raises(ValueError):
        qubit_fragment(points=[(1.2, 0.0, 0.0)])


def test_pr_fragment_measurement_tables():
    f = pr_box_fragment()
    assert len(f.effects) == 16 and len(f.measurements) == 4
    assert validate_fragment(f).ok
    for r in range(16):
        assert probability(f, 0, r) in (Fraction(0), Fraction(1, 2))
        for s in range(2, 6):
            assert probability(f, s, r) in (Fraction(0), Fraction(1))
    eqs = state_equivalences(f)
    assert len(eqs) == 1
    assert eqs[0].coefficients == {
        0: Fraction(1),
        1: Fraction(1),
        2: Fraction(-1, 2),
        3: Fraction(-1, 2),
        4: Fraction(-1, 2),
        5: Fraction(-1, 2),
    }


def test_pr_model_realizes_the_pr_fragment_state():
    f = pr_box_fragment()
    m = pr_box()
    for x in range(2):
        for y in range(2):
            for i in range(2):
                for j in range(2):
                    effect = 4 * (2 * x + y) + (2 * i + j)
                    assert (
                        probability(f, 0, effect)
                        == m.tables[2 * x + y][2 * i + j]
                    )
    assert chsh_value(m) == 4
    assert_consistent(m)


def test_noisy_pr_interpolates_between_box_and_noise():
    crisp = noisy_pr_fragment(1)
    assert crisp.states == pr_box_fragment().states
    flat = noisy_pr_fragment(0)
    assert all(s == flat.states[0] for s in flat.states)
    mid = noisy_pr_fragment(Fraction(1, 2))
    assert state_equivalences(mid)[0].participants == (0, 1, 2, 3, 4, 5)
    for r in range(16):
        assert mid.effects[r] == crisp.effects[r]
        direct = probability(mid, 0, r)
        mixed = (probability(crisp, 0, r) + Fraction(1, 4)) / 2
        assert direct == mixed
    with pytest.raises(ValueError):
        noisy_pr_fragment(2)

    # the model read off state 0 is the extremal box blended with uniform noise
    box = pr_box()
    for w in map(Fraction, ("0", "1/4", "1/2", "2/3", "1")):
        blended = tuple(
            tuple(w * p + (1 - w) * Fraction(1, 4) for p in table)
            for table in box.tables
        )
        model = two_party_model_from_fragment(noisy_pr_fragment(w))
        assert model == EmpiricalModel(box.hypergraph, box.outcomes, blended)


def test_disturbance_families_refuse_parameters_outside_their_range():
    """A negative gap would plant the gap's magnitude, and a value past the
    top of either range a negative table entry."""
    for gap in (Fraction(-1, 4), Fraction(3, 4)):
        with pytest.raises(ValueError, match=r"gap must lie in \[0, 1/2\]"):
            planted_gap_model(gap)
    for g in (Fraction(-1, 8), Fraction(9, 8)):
        with pytest.raises(ValueError, match=r"weight must lie in \[0, 1\]"):
            nudged_box(g)
    for edge in (Fraction(0), Fraction(1, 2)):
        assert planted_gap_model(edge).tables[1][0] == (Fraction(1, 2) - edge) / 2
    for edge in (Fraction(0), Fraction(1)):
        assert nudged_box(edge).tables[3][0] == edge


def test_noisy_pr_keeps_exact_weights_and_snaps_floats():
    state = noisy_pr_fragment(Fraction(1, 1234567)).states[0]
    assert {x.denominator for x in state} == {1, 1234567}
    with pytest.raises(TypeError):  # text is read at the input boundary, not here
        noisy_pr_fragment("1/1234567")
    # a float still snaps to a denominator of at most 10**6, as before
    snapped = Fraction(1 / 1234567).limit_denominator(10**6)
    assert snapped == Fraction(1, 1000000)
    assert noisy_pr_fragment(1 / 1234567).states == noisy_pr_fragment(snapped).states
    assert noisy_pr_fragment(0.5).states == noisy_pr_fragment(Fraction(1, 2)).states


def _correlation_oracle(alpha: float, beta: float) -> float:
    """Born-rule correlator for the maximally correlated two-qubit state."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)

    def axis(t):
        return math.cos(t) * z + math.sin(t) * x

    op = np.kron(axis(alpha), axis(beta))
    return float(np.real(phi.conj() @ op @ phi))


def test_chsh_quantum_matches_the_born_oracle():
    m = chsh_quantum()
    a0, a1, b0, b1 = TSIRELSON_ANGLES
    pairs = [(a0, b0), (a0, b1), (a1, b0), (a1, b1)]
    oracle = [_correlation_oracle(x, y) for x, y in pairs]
    assert abs(sum(oracle[:3]) - oracle[3] - 2 * math.sqrt(2)) < 1e-12
    for i, value in enumerate(oracle):
        table = m.tables[i]
        correlator = table[0] - table[1] - table[2] + table[3]
        assert abs(float(correlator) - value) < 2e-6
    assert abs(float(chsh_value(m)) - 2 * math.sqrt(2)) < 1e-5
    assert_consistent(m)


def test_chsh_quantum_with_aligned_angles_is_classical():
    m = chsh_quantum((0.0, 0.0, 0.0, 0.0))
    assert chsh_value(m) == 2
    assert_consistent(m)


def test_tsirelson_angles_are_a_local_optimum():
    base = float(chsh_value(chsh_quantum()))
    for which in range(4):
        for delta in (-0.1, 0.1):
            angles = list(TSIRELSON_ANGLES)
            angles[which] += delta
            assert float(chsh_value(chsh_quantum(angles))) < base


def _kcbs_rays():
    """Unit rays with adjacent pairs orthogonal, symmetric about the axis."""
    c2 = math.cos(math.pi / 5) / (1 + math.cos(math.pi / 5))
    ct = math.sqrt(c2)
    st = math.sqrt(1 - c2)
    rays = []
    for i in range(5):
        phi = 4 * math.pi * i / 5
        rays.append(np.array([st * math.cos(phi), st * math.sin(phi), ct]))
    return rays


def test_kcbs_quantum_matches_the_born_oracle():
    rays = _kcbs_rays()
    psi = np.array([0.0, 0.0, 1.0])
    for i in range(5):
        assert abs(rays[i] @ rays[(i + 1) % 5]) < 1e-12
        assert abs((psi @ rays[i]) ** 2 - 1 / math.sqrt(5)) < 1e-12
    m = kcbs_quantum()
    for i, context in enumerate(m.hypergraph.contexts):
        fire_first = m.marginal(i, context[:1])[(1,)]
        assert abs(float(fire_first) - 1 / math.sqrt(5)) < 1e-6
        assert m.table_value(i, (1, 1)) == 0
    assert abs(float(kcbs_value(m)) - math.sqrt(5)) < 1e-5
    assert float(kcbs_value(m)) > 2
    assert_consistent(m)


def test_product_and_singleton_models_are_consistent():
    h = CompatibilityHypergraph(
        ("a", "b", "c"), (("a", "b"), ("b", "c"))
    )
    marginals = {
        "a": (Fraction(1, 3), Fraction(2, 3)),
        "b": (Fraction(1, 2), Fraction(1, 2)),
        "c": (Fraction(1), Fraction(0)),
    }
    m = product_model(h, {"a": 2, "b": 2, "c": 2}, marginals)
    assert m.marginal(0, ["a"])[(1,)] == Fraction(2, 3)
    assert m.table_value(0, (0, 1)) == Fraction(1, 3) * Fraction(1, 2)
    assert_consistent(m)

    f = halving_fragment()
    sm = induced_singleton_model(f, 2)
    assert sm.tables == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4)),
    )
    assert_consistent(sm)

    # the generators' own check raises a typed error, which survives python -O
    half, zero = Fraction(1, 2), Fraction(0)
    tables = ((half, zero, half, zero), (zero, zero, half, half))
    disturbing = EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, tables)
    with pytest.raises(DisturbingModelError, match=r"\('b',\)"):
        _check_model(disturbing)


def test_random_acyclic_hypergraphs_reduce_to_empty():
    rng = Random(13)
    for _ in range(25):
        h = random_acyclic_hypergraph(rng)
        assert is_acyclic(h)
        reduced, trace = graham_reduce(h)
        assert reduced.is_empty
        assert trace


def test_a_join_tree_order_exists_exactly_on_acyclic_hypergraphs():
    # random_nondisturbing_model branches on _rip_order alone, so it must
    # decide acyclicity as Graham reduction does
    names = ("a", "b", "c", "d", "e")
    subsets = [
        tuple(m for i, m in enumerate(names) if mask >> i & 1)
        for mask in range(1, 2 ** len(names))
    ]
    verdicts = set()
    for seed in range(300):
        rng = Random(seed)
        contexts = rng.sample(subsets, rng.randint(1, 5))
        used = tuple(m for m in names if any(m in c for c in contexts))
        h = CompatibilityHypergraph(used, tuple(contexts))
        order, acyclic = _rip_order(h), is_acyclic(h)
        verdicts.add(acyclic)
        assert (order is not None) == acyclic
        if order is not None:
            for k, idx in enumerate(order[1:], 1):
                earlier = [set(h.contexts[j]) for j in order[:k]]
                meet = set(h.contexts[idx]) & set().union(*earlier)
                assert any(meet <= e for e in earlier)
    assert verdicts == {True, False}


def test_random_nondisturbing_models_agree_on_intersections():
    rng = Random(99)
    for _ in range(25):
        h = random_acyclic_hypergraph(rng)
        m = random_nondisturbing_model(h, rng)
        assert_consistent(m)
        for table in m.tables:
            assert sum(table) == 1


def test_random_model_on_a_cycle_uses_global_mixtures():
    rng = Random(3)
    cycle = CompatibilityHypergraph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
    )
    for _ in range(10):
        m = random_nondisturbing_model(cycle, rng)
        assert_consistent(m)


def test_random_models_are_pinned_by_seed():
    # The benchmark's table inputs and many tests draw their models from
    # random_nondisturbing_model.  A new digest means those inputs changed.
    names = ("a", "b", "c", "d", "e")
    cycle = CompatibilityHypergraph(
        names, tuple((names[i], names[(i + 1) % 5]) for i in range(5))
    )
    text = []
    for seed in range(20):
        h = random_acyclic_hypergraph(Random(seed))
        text.append(repr(random_nondisturbing_model(h, Random(seed))))
        binary = {m: 2 for m in h.measurements}
        text.append(repr(random_nondisturbing_model(h, Random(seed), binary)))
        text.append(repr(random_nondisturbing_model(cycle, Random(seed))))
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == "87281d15fdc7c6342471933e9c74f73d4c8e51c58da30c8377fb08b92c8cef74"


def test_random_fragments_validate_and_carry_dependencies():
    rng = Random(7)
    for i in range(20):
        f = random_fragment(rng, with_transformations=i % 3 == 0)
        assert validate_fragment(f).ok
        assert effect_equivalences(f, include_unit=True)


def test_random_ontic_tables_split_exactly_or_break():
    rng = Random(21)
    clean = flagged = 0
    for i in range(20):
        f = random_fragment(rng, with_transformations=i % 2 == 0)
        eqs = state_equivalences(f) + effect_equivalences(f)
        good = random_ontic_table(f, rng, contextual=False)
        report = verify_ontic(f, good, eqs)
        assert report.reproduction_error == 0
        assert not report.flagged
        assert all(v == 0 for v in report.linearity_residuals.values())
        clean += 1
        free = random_ontic_table(f, rng, contextual=True)
        if verify_ontic(f, free, eqs).reproduction_error > 0:
            flagged += 1
    assert clean == 20
    assert flagged >= 15  # free tables reproduce nothing but by accident


def test_random_complexes_stay_small():
    rng = Random(2)
    for _ in range(20):
        k = random_complex(rng)
        total = sum(len(k.simplices(d)) for d in range(k.dimension + 1))
        assert 0 < total <= 30


def test_two_slit_measure_interference_follows_the_phase():
    a, b = frozenset("a"), frozenset("b")
    bright = two_slit_measure()
    assert bright.masses == {a: Fraction(1, 2), b: Fraction(1, 2), a | b: 2}
    assert i2(bright, a, b) == 1
    dark = two_slit_measure(math.pi)
    assert i2(dark, a, b) == -1
    phase = 2.0
    twisted = i2(two_slit_measure(phase), a, b)
    assert twisted == rationalize(math.cos(phase))
    assert abs(twisted - Fraction(math.cos(phase))) < Fraction(1, 10**12)
    for phase in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            two_slit_measure(phase)


def test_registry_entries_build_their_kind():
    from contextua.core_model import EmpiricalModel, GptFragment
    from contextua.interference import EventMeasure

    kinds = {
        "fragment": GptFragment,
        "model": EmpiricalModel,
        "measure": EventMeasure,
    }
    for name, (kind, build) in SCENARIOS.items():
        made = build()
        assert isinstance(made, kinds[kind]), name
    _, build = SCENARIOS["classical-simplex"]
    assert len(build(n=4).states) == 4
    _, build = SCENARIOS["noisy-pr-fragment"]
    assert build(weight=Fraction(1, 2)).states[0][5] == Fraction(1, 2)
    # the random scenarios are the generators at a seed, the model's tables
    # drawn from the next seed
    _, build = SCENARIOS["random-fragment"]
    assert build(seed=Fraction(7)) == random_fragment(Random(7))
    _, build = SCENARIOS["random-acyclic-model"]
    h = random_acyclic_hypergraph(Random(7), max_measurements=6)
    assert build(seed=Fraction(7)) == random_nondisturbing_model(
        h, Random(8), outcomes=dict.fromkeys(h.measurements, 2)
    )
    for name in ("classical-simplex", "random-fragment"):
        _, build = SCENARIOS[name]
        with pytest.raises(ValueError, match="must be a whole number"):
            build(Fraction(5, 2))
