import itertools
import json
from fractions import Fraction as F
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua._rat import parse_rational
from contextua.core_model import (
    EmpiricalModel,
    GptFragment,
    NcReport,
    OnticRepresentation,
    OperationalEquivalence,
    additive_effect_triples,
    apply_matrix,
    dot,
    effect_equivalences,
    find_equivalences,
    fragment_from_json,
    fragment_to_json,
    model_from_json,
    model_to_json,
    probability,
    restriction,
    state_equivalences,
    validate_fragment,
    verify_ontic,
)
from contextua.vorobyev import CompatibilityHypergraph

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=8
)


def normalized_rows(n_rows, width):
    """Rows of nonnegative rationals, each summing to one."""

    def build(raw):
        rows = []
        for weights in raw:
            total = sum(weights)
            if total == 0:
                weights = [w + 1 for w in weights]
                total = sum(weights)
            rows.append(tuple(F(w, total) for w in weights))
        return rows

    return st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=width, max_size=width),
        min_size=n_rows,
        max_size=n_rows,
    ).map(build)


@st.composite
def classical_fragments(draw):
    """Classical fragments: distributions as states, a fuzzy partition as a
    measurement, and column-stochastic transformations."""
    d = draw(st.integers(min_value=2, max_value=4))
    n_states = draw(st.integers(min_value=1, max_value=4))
    states = tuple(draw(normalized_rows(n_states, d)))
    n_effects = draw(st.integers(min_value=2, max_value=4))
    # columns indexed by the ontic cell: responses of the effects sum to 1
    columns = draw(normalized_rows(d, n_effects))
    effects = tuple(
        tuple(columns[i][r] for i in range(d)) for r in range(n_effects)
    )
    n_trans = draw(st.integers(min_value=0, max_value=2))
    transformations = tuple(
        tuple(
            tuple(col[i] for col in cols) for i in range(d)
        )
        for cols in (draw(normalized_rows(d, d)) for _ in range(n_trans))
    )
    return GptFragment(
        dimension=d,
        states=states,
        effects=effects,
        unit_effect=tuple(F(1) for _ in range(d)),
        measurements=(tuple(range(n_effects)),),
        transformations=transformations,
    )


@settings(max_examples=50)
@given(classical_fragments())
def test_classical_fragments_validate(f):
    report = validate_fragment(f)
    assert report.ok, f"unexpected problems: {report.structural + report.violations}"


@settings(max_examples=50)
@given(classical_fragments(), st.data())
def test_probability_range_and_bilinearity(f, data):
    s = data.draw(st.integers(min_value=0, max_value=len(f.states) - 1))
    r = data.draw(st.integers(min_value=0, max_value=len(f.effects) - 1))
    p = probability(f, s, r)
    assert 0 <= p <= 1
    if len(f.states) >= 2:
        s2 = data.draw(st.integers(min_value=0, max_value=len(f.states) - 1))
        w = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        mixed = tuple(
            w * a + (1 - w) * b for a, b in zip(f.states[s], f.states[s2])
        )
        assert dot(f.effects[r], mixed) == w * p + (1 - w) * probability(f, s2, r)


@settings(max_examples=50)
@given(classical_fragments())
def test_transformed_probabilities_in_range(f):
    for t in range(len(f.transformations)):
        for s in range(len(f.states)):
            for r in range(len(f.effects)):
                assert 0 <= probability(f, s, r, t) <= 1


def test_validation_catches_structural_and_invariant_problems():
    bad_shape = GptFragment(
        dimension=2,
        states=((F(1), F(0), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
    )
    report = validate_fragment(bad_shape)
    assert not report.ok and report.structural

    unnormalized = GptFragment(
        dimension=2,
        states=((F(1), F(1)),),
        effects=((F(1, 2), F(1, 2)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
    )
    report = validate_fragment(unnormalized)
    assert any("unit pairing" in v for v in report.violations)

    incomplete = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1, 2), F(0)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
    )
    report = validate_fragment(incomplete)
    assert any("does not sum" in v for v in report.violations)

    missing_effect = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0, 5),),
    )
    assert validate_fragment(missing_effect).structural


def test_probability_index_errors():
    f = GptFragment(
        dimension=1,
        states=((F(1),),),
        effects=((F(1),),),
        unit_effect=(F(1),),
        measurements=((0,),),
    )
    with pytest.raises(IndexError):
        probability(f, 1, 0)
    with pytest.raises(IndexError):
        probability(f, 0, 1)
    with pytest.raises(IndexError):
        probability(f, 0, 0, 0)


small_vector_lists = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=1,
    max_size=6,
).map(lambda vs: [tuple(map(F, v)) for v in vs])


@settings(max_examples=50)
@given(small_vector_lists)
def test_find_equivalences_spans_the_kernel(vectors):
    eqs = find_equivalences(vectors, "effect")
    matrix = sympy.Matrix([[v[i] for v in vectors] for i in range(3)])
    assert len(eqs) == len(vectors) - matrix.rank()
    for eq in eqs:
        zero = eq.combination(vectors)
        assert all(x == 0 for x in zero), f"combination {zero} is not zero"
        first = min(eq.coefficients)
        assert eq.coefficients[first] == 1


def test_unit_and_complement_dependency():
    # unit, a two-valued effect, and its complement: one dependency
    vectors = [(F(1), F(1)), (F(1), F(0)), (F(0), F(1))]
    eqs = find_equivalences(vectors, "effect")
    assert len(eqs) == 1
    assert eq_as_tuple(eqs[0], 3) == (F(1), F(-1), F(-1))


def eq_as_tuple(eq, n):
    return tuple(eq.coefficients.get(i, F(0)) for i in range(n))


def test_square_state_dependency():
    # four pure states of a square-shaped state space pair up diagonally
    states = [
        (F(1), F(1), F(1)),
        (F(-1), F(1), F(1)),
        (F(-1), F(-1), F(1)),
        (F(1), F(-1), F(1)),
    ]
    eqs = find_equivalences(states, "state")
    assert len(eqs) == 1
    assert eq_as_tuple(eqs[0], 4) == (F(1), F(-1), F(1), F(-1))


def test_equivalence_constructor_rejects_degenerate_input():
    with pytest.raises(ValueError):
        OperationalEquivalence("effect", {})
    with pytest.raises(ValueError):
        OperationalEquivalence("effect", {0: F(1), 1: F(0)})
    with pytest.raises(ValueError):
        OperationalEquivalence("nonsense", {0: F(1), 1: F(-1)})
    # a singleton is legal: it records that one vector is exactly zero
    single = OperationalEquivalence("effect", {2: F(1)})
    assert single.participants == (2,)


def identity_representation(f):
    """Ontic values = simplex cells; tables are the fragment's own vectors."""
    kernels = None
    if f.transformations:
        kernels = tuple(
            tuple(
                tuple(t[k2][k] for k2 in range(f.dimension))
                for k in range(f.dimension)
            )
            for t in f.transformations
        )
    return OnticRepresentation(
        lambda_count=f.dimension,
        state_distributions=f.states,
        effect_responses=f.effects,
        transition_kernels=kernels,
    )


@settings(max_examples=50)
@given(classical_fragments())
def test_identity_representation_is_exact_and_respects_equivalences(f):
    eqs = state_equivalences(f) + effect_equivalences(f)
    report = verify_ontic(f, identity_representation(f), eqs)
    assert report.reproduction_error == 0
    assert report.max_equivalence_residual == 0
    assert not report.flagged
    assert all(v == 0 for v in report.linearity_residuals.values())
    assert report.is_noncontextual


@settings(max_examples=50)
@given(classical_fragments(), st.data())
def test_perturbed_tables_get_flagged(f, data):
    rep = identity_representation(f)
    r = data.draw(st.integers(min_value=0, max_value=len(f.effects) - 1))
    k = data.draw(st.integers(min_value=0, max_value=f.dimension - 1))
    rows = [list(row) for row in rep.effect_responses]
    rows[r][k] += F(1, 3)
    bumped = OnticRepresentation(
        lambda_count=rep.lambda_count,
        state_distributions=rep.state_distributions,
        effect_responses=tuple(tuple(row) for row in rows),
        transition_kernels=rep.transition_kernels,
    )
    eqs = effect_equivalences(f)
    report = verify_ontic(f, bumped, eqs)
    touches_effect = any(r in eq.participants for eq in eqs)
    if touches_effect:
        assert report.flagged, "bumped response should break some dependency"
    # the bump shows up against any state giving the bumped cell weight
    if any(f.states[s][k] != 0 for s in range(len(f.states))):
        assert report.reproduction_error > 0


def test_verify_ontic_rejects_bad_shapes():
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
    )
    rep = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)), (F(0), F(1))),
        effect_responses=((F(1), F(1)),),
    )
    with pytest.raises(ValueError):
        verify_ontic(f, rep, [])


def test_additive_triples_found():
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)), (F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))),
        unit_effect=(F(1), F(1)),
        measurements=((1, 2),),
    )
    triples = additive_effect_triples(f)
    assert (1, 2, 0) in triples
    assert (3, 3, 0) in triples


def test_transformation_residuals_keyed_by_value_pairs():
    flip = ((F(0), F(1)), (F(1), F(0)))
    ident = ((F(1), F(0)), (F(0), F(1)))
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
        transformations=(flip, ident, flip),
    )
    rep = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)),),
        effect_responses=((F(1), F(1)),),
        transition_kernels=(flip, ident, ident),
    )
    eq = OperationalEquivalence("transformation", {0: F(1), 2: F(-1)})
    report = verify_ontic(f, rep, [eq])
    assert report.reproduction_error == 0
    bad = {k: v for k, v in report.equivalence_residuals.items() if v != 0}
    assert set(bad) == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}


def test_fragment_json_roundtrip_and_rational_format():
    f = GptFragment(
        dimension=2,
        states=((F(1, 3), F(2, 3)),),
        effects=((F(1), F(1)), (F(1), F(0)), (F(0), F(1))),
        unit_effect=(F(1), F(1)),
        measurements=((1, 2),),
        transformations=(((F(0), F(1)), (F(1), F(0))),),
    )
    text = fragment_to_json(f)
    payload = json.loads(text)
    assert payload["states"][0] == ["1/3", "2/3"]
    assert fragment_from_json(text) == f
    # integers are accepted on the way in
    assert fragment_from_json(text.replace('"1/3"', '"1/3"')) == f


def test_parse_rational_bounds_the_decimal_exponent():
    assert parse_rational("-1/4") == F(-1, 4)
    assert parse_rational(" 2.5e-3 ") == F(1, 400)
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("-1e-4299") == F(-1, 10**4299)
    # in-bound exponents whose value has 4301 digits, which CPython cannot print
    for text in ("1e4300", "-1e-4300", "99e4299"):
        with pytest.raises(ValueError, match=f"'{text}' has more than 4300 digits"):
            parse_rational(text)
    # a 4301-digit literal, which CPython refuses to read, is quoted too
    with pytest.raises(ValueError, match=r"'10+\.\.\.0+' is longer than 4300 char"):
        parse_rational("1" + "0" * 4300)
    # each would expand to a power of ten with millions of digits
    for text in ("1e100000000", "1E-4301", "7.5e+10000000", "1e100_000_000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def pr_box_model():
    h = CompatibilityHypergraph(
        measurements=("a0", "a1", "b0", "b1"),
        contexts=(("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")),
    )
    half = F(1, 2)
    agree = (half, F(0), F(0), half)
    disagree = (F(0), half, half, F(0))
    return EmpiricalModel(
        hypergraph=h,
        outcomes={m: 2 for m in h.measurements},
        tables=(agree, agree, agree, disagree),
    )


def test_model_marginals_are_uniform_for_the_pr_box():
    m = pr_box_model()
    for i, context in enumerate(m.hypergraph.contexts):
        for name in context:
            marg = m.marginal(i, (name,))
            assert marg == {(0,): F(1, 2), (1,): F(1, 2)}
        full = m.marginal(i, context)
        assert sum(full.values()) == 1
        assert full[(0, 0)] == m.table_value(i, (0, 0))


def test_table_value_row_major_order():
    h = CompatibilityHypergraph(("x", "y"), (("x", "y"),))
    table = (F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    m = EmpiricalModel(h, {"x": 2, "y": 2}, (table,))
    assert m.table_value(0, (0, 0)) == F(1, 10)
    assert m.table_value(0, (0, 1)) == F(2, 10)
    assert m.table_value(0, (1, 0)) == F(3, 10)
    assert m.table_value(0, (1, 1)) == F(4, 10)
    with pytest.raises(ValueError):
        m.table_value(0, (0, 2))
    with pytest.raises(ValueError):
        m.marginal(0, ("z",))


def test_marginal_onto_a_repeated_name_is_refused():
    h = CompatibilityHypergraph(("a0", "b0"), (("a0", "b0"),))
    m = EmpiricalModel(h, {"a0": 2, "b0": 2}, ((F(1, 4),) * 4,))
    with pytest.raises(ValueError, match="twice"):
        m.marginal(0, ("a0", "a0"))
    assert m.marginal(0, ("a0",)) == {(0,): F(1, 2), (1,): F(1, 2)}


def test_restriction_matches_a_tuple_lookup():
    rng = Random(11)
    for _ in range(200):
        names = tuple(f"m{i}" for i in range(rng.randint(0, 4)))
        outcomes = {m: rng.randint(1, 3) for m in names}
        onto = rng.sample(names, rng.randint(0, len(names)))  # permuted order
        joint = list(itertools.product(*(range(outcomes[m]) for m in names)))
        keys = list(itertools.product(*(range(outcomes[m]) for m in onto)))
        expected = [
            keys.index(tuple(a[names.index(m)] for m in onto)) for a in joint
        ]
        assert restriction(names, onto, outcomes) == expected
    with pytest.raises(ValueError, match="'z'"):
        restriction(("x", "y"), ("y", "z"), {"x": 2, "y": 2, "z": 2})


def _grouped_marginal(m, i, onto):
    """Reference marginal: group the joint outcomes of context i by key."""
    context = m.hypergraph.contexts[i]
    joint = itertools.product(*(range(m.outcomes[x]) for x in context))
    out = {}
    for a, p in zip(joint, m.tables[i]):
        key = tuple(a[context.index(x)] for x in onto)
        out[key] = out.get(key, F(0)) + p
    return out


def test_marginal_matches_a_grouping_reference():
    from contextua.scenarios import (
        chsh_quantum,
        kcbs_quantum,
        nudged_box,
        planted_gap_model,
        random_acyclic_hypergraph,
        random_nondisturbing_model,
    )

    models = [pr_box_model(), chsh_quantum(), kcbs_quantum()]
    models += [planted_gap_model(F(1, 8)), nudged_box(F(1, 4))]
    for k in range(10):
        h = random_acyclic_hypergraph(Random(k), max_measurements=5)
        models.append(random_nondisturbing_model(h, Random(100 + k)))
    for m in models:
        for i, context in enumerate(m.hypergraph.contexts):
            for r in range(len(context) + 1):
                for onto in itertools.permutations(context, r):
                    assert m.marginal(i, onto) == _grouped_marginal(m, i, onto)


def test_model_validation_rejects_bad_tables():
    h = CompatibilityHypergraph(("x",), (("x",),))
    with pytest.raises(ValueError):
        EmpiricalModel(h, {"x": 2}, ((F(1, 2), F(1, 4)),))
    with pytest.raises(ValueError):
        EmpiricalModel(h, {"x": 2}, ((F(3, 2), F(-1, 2)),))
    with pytest.raises(ValueError):
        EmpiricalModel(h, {"x": 2}, ((F(1),),))
    with pytest.raises(ValueError):
        EmpiricalModel(h, {"x": 0}, ((F(1),),))


def test_model_json_roundtrip():
    m = pr_box_model()
    text = model_to_json(m)
    back = model_from_json(text)
    assert back.hypergraph.contexts == m.hypergraph.contexts
    assert back.outcomes == m.outcomes
    assert back.tables == m.tables
    assert model_to_json(back) == text
