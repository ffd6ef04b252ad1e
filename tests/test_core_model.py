import itertools
import json
import math
from fractions import Fraction as F
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua._rat import excerpt, format_rational, parse_rational
from contextua.core_model import (
    KINDS,
    EmpiricalModel,
    GptFragment,
    NcReport,
    OnticRepresentation,
    OperationalEquivalence,
    additive_effect_triples,
    agreement_rows,
    apply_matrix,
    dot,
    effect_equivalences,
    equivalences,
    find_equivalences,
    fragment_from_json,
    fragment_to_json,
    model_from_json,
    model_to_json,
    objects,
    ontic_values,
    probability,
    restriction,
    state_equivalences,
    transformation_equivalences,
    validate_fragment,
    verify_ontic,
)
from contextua.scenarios import classical_simplex, random_fragment
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


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(
                    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)),
                    min_size=n,
                    max_size=n,
                )
                for _ in range(2)
            )
        )
    )
)
def test_dot_is_the_fraction_sum(vectors):
    a, b = vectors
    total = dot(a, b)
    assert type(total) is F
    assert total == sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


def test_dot_refuses_vectors_of_unequal_length():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        dot((F(1), F(2)), (F(1), F(2), F(3)))


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

    for dimension in (0, -1):
        report = validate_fragment(GptFragment(dimension, ((F(1),),), (), (F(1),), ()))
        assert (report.structural, report.violations) == (["dimension must be positive"], [])

    bit = classical_simplex(2)
    for matrix in (
        ((F(1), F(0)),),
        ((F(1), F(0)), (F(0),)),
        ((F(1), F(0), F(0)), (F(0), F(1), F(0))),
    ):
        report = validate_fragment(GptFragment(
            bit.dimension, bit.states, bit.effects, bit.unit_effect, bit.measurements,
            (matrix,),
        ))
        assert report.structural == ["transformation 0 has the wrong shape"]


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


def test_find_equivalences_refuses_no_vectors_and_unequal_lengths():
    with pytest.raises(ValueError, match="need at least one vector"):
        find_equivalences([])
    with pytest.raises(ValueError, match="vectors must share a dimension"):
        find_equivalences([(F(1), F(0)), (F(1),)])


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


@pytest.mark.parametrize("kind", KINDS)
def test_equivalence_constructor_refuses_negative_indices(kind):
    # -1 must not stand for the last object of a table
    with pytest.raises(ValueError, match="nonnegative"):
        OperationalEquivalence(kind, {-1: F(1), 0: F(-1)})


def test_object_table_puts_the_unit_effect_last():
    f = random_fragment(Random(4), with_transformations=True)
    assert objects(f, "state") == list(f.states)
    assert objects(f, "effect") == [*f.effects, f.unit_effect]
    assert objects(f, "transformation") == [
        tuple(x for row in t for x in row) for t in f.transformations
    ]
    with pytest.raises(ValueError, match="unknown object kind"):
        objects(f, "measurement")
    assert equivalences(f, "state") == state_equivalences(f)
    assert equivalences(f, "effect") == effect_equivalences(f, include_unit=True)
    assert equivalences(f, "transformation") == transformation_equivalences(f)
    # every measurement sums to the unit, so some dependence runs through it
    unit = len(f.effects)
    assert any(unit in eq.participants for eq in equivalences(f, "effect"))
    assert all(unit not in eq.participants for eq in effect_equivalences(f))


def test_ontic_values_follow_the_object_table():
    flip = ((F(0), F(1)), (F(1), F(0)))
    rep = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1, 3), F(2, 3)),),
        effect_responses=((F(1, 4), F(1)),),
        transition_kernels=(flip,),
    )
    assert ontic_values(rep, "state", 1) == [F(2, 3)]
    assert ontic_values(rep, "effect", 0) == [F(1, 4), F(1)]
    assert ontic_values(rep, "transformation", 0, 1) == [F(1)]
    for bad in (("state", 2), ("transformation", 0), ("transformation", 0, 2)):
        with pytest.raises(ValueError):
            ontic_values(rep, *bad)
    with pytest.raises(ValueError, match="unknown object kind"):
        ontic_values(rep, "measurement", 0)


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"lambda_count": 0}, "lambda_count must be positive"),
        ({"state_distributions": ()}, "one distribution per state required"),
        ({"state_distributions": ((F(1),),) * 2},
         "state distribution rows must have lambda_count entries"),
        ({"effect_responses": ((F(1), F(0)),)}, "one response row per effect required"),
        ({"effect_responses": ((F(1),), (F(0), F(1)))},
         "effect response rows must have lambda_count entries"),
        ({"transition_kernels": ()}, "one kernel per transformation required"),
        ({"transition_kernels": (((F(1), F(0)),),)}, "kernels must be lambda_count square"),
    ],
    ids=["lambda-count", "distributions", "distribution-row", "responses",
         "response-row", "kernels", "kernel-shape"],
)
def test_verify_ontic_refuses_each_table_shape(change, message):
    bit = classical_simplex(2)
    f = GptFragment(
        bit.dimension, bit.states, bit.effects, bit.unit_effect, bit.measurements,
        (((F(0), F(1)), (F(1), F(0))),),
    )
    identity = ((F(1), F(0)), (F(0), F(1)))
    tables = {
        "lambda_count": 2,
        "state_distributions": identity,
        "effect_responses": identity,
        "transition_kernels": (((F(0), F(1)), (F(1), F(0))),),
    }
    assert verify_ontic(f, OnticRepresentation(**tables), []).is_noncontextual
    with pytest.raises(ValueError) as refusal:
        verify_ontic(f, OnticRepresentation(**{**tables, **change}), [])
    assert str(refusal.value) == message


def test_verify_ontic_accepts_the_unit_effect_and_checks_normalisation():
    f = classical_simplex(2)
    eqs = effect_equivalences(f, include_unit=True)
    exact = OnticRepresentation(
        lambda_count=2,
        state_distributions=f.states,
        effect_responses=f.effects,
    )
    assert verify_ontic(f, exact, eqs).is_noncontextual
    # at an ontic value no preparation reaches, both outcomes of the one
    # complete measurement respond 1: nothing is reproduced wrongly, but the
    # responses there sum to 2, not to the unit's 1
    unreached = OnticRepresentation(
        lambda_count=3,
        state_distributions=((F(1), F(0), F(0)), (F(0), F(1), F(0))),
        effect_responses=((F(1), F(0), F(1)), (F(0), F(1), F(1))),
    )
    assert verify_ontic(f, unreached, effect_equivalences(f)).is_noncontextual
    report = verify_ontic(f, unreached, eqs)
    assert report.reproduction_error == 0
    assert report.flagged == [(0, 2)]
    assert report.equivalence_residuals[(0, 2)] == 1
    assert not report.is_noncontextual


def test_verify_ontic_index_errors_are_value_errors_for_every_kind():
    flip = ((F(0), F(1)), (F(1), F(0)))
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1), F(1)),),
        unit_effect=(F(1), F(1)),
        measurements=((0,),),
        transformations=(flip, flip),
    )
    rep = OnticRepresentation(
        lambda_count=2,
        state_distributions=((F(1), F(0)),),
        effect_responses=((F(1), F(1)),),
        transition_kernels=(flip, flip),
    )
    # the unit effect is object 1 of kind "effect"; object 2 is missing
    for kind, index in (("state", 1), ("effect", 2), ("transformation", 2)):
        eq = OperationalEquivalence(kind, {0: F(1), index: F(-1)})
        with pytest.raises(ValueError, match=f"missing object {index}"):
            verify_ontic(f, rep, [eq])
    unit = OperationalEquivalence("effect", {0: F(1), 1: F(-1)})
    assert verify_ontic(f, rep, [unit]).is_noncontextual


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


def test_a_refused_literal_is_quoted_by_its_excerpt():
    assert excerpt("1/3") == "1/3" and excerpt("7" * 40) == "7" * 40
    assert excerpt("a" * 30 + "b" * 100 + "c" * 8) == "a" * 30 + "..." + "c" * 8
    for text in ("x" * 3000, "1" * 4000 + "/0", "1" * 5000):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert len(str(info.value)) < 100 and "..." in str(info.value)


short_decimals = st.builds(
    lambda n, a, b: F(n, 2**a * 5**b),
    st.integers(-(10**6), 10**6),
    st.integers(0, 8),
    st.integers(0, 8),
)


def _map_leaves(doc, fn):
    if isinstance(doc, F):
        return fn(doc)
    if isinstance(doc, list):
        return [_map_leaves(x, fn) for x in doc]
    if isinstance(doc, dict):
        return {k: _map_leaves(v, fn) for k, v in doc.items()}
    return doc


def _number_literal(x: F):
    return x.numerator if x.denominator == 1 else float(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_json_number_literals_read_as_the_shortest_decimal_naming_the_double(data):
    """A short decimal written as a JSON number reads as the same rational as
    its rational text, in every numeric field of fragment and model files."""
    d = data.draw(st.integers(1, 3))
    vec = st.lists(short_decimals, min_size=d, max_size=d)
    fragment = {
        "dimension": d,
        "states": data.draw(st.lists(vec, min_size=1, max_size=3)),
        "effects": data.draw(st.lists(vec, min_size=1, max_size=3)),
        "unit_effect": data.draw(vec),
        "measurements": [],
        "transformations": data.draw(
            st.lists(st.lists(vec, min_size=d, max_size=d), max_size=2)
        ),
    }
    den = 2 ** data.draw(st.integers(0, 8)) * 5 ** data.draw(st.integers(0, 8))
    cuts = sorted(data.draw(st.lists(st.integers(0, den), min_size=5, max_size=5)))
    table = [F(y - x, den) for x, y in zip([0, *cuts], [*cuts, den])]
    model = {
        "hypergraph": [["a", "b"]],
        "outcomes": {"a": 2, "b": 3},
        "tables": {"0": table},
    }
    for doc, read in ((fragment, fragment_from_json), (model, model_from_json)):
        literals = read(json.dumps(_map_leaves(doc, _number_literal)))
        assert literals == read(json.dumps(_map_leaves(doc, format_rational)))
    assert literals.tables == (tuple(table),)


def test_a_long_json_number_literal_reads_as_its_double_not_its_digits():
    """A literal with more significant digits than a double holds reads as
    the shortest decimal naming its double; the same digits as text are
    read exactly."""
    digits = "0.12345678901234567891"
    doc = (
        '{"dimension": 1, "states": [[%s]], "effects": [], "unit_effect": [1], '
        '"measurements": []}'
    )
    literal = fragment_from_json(doc % digits).states[0][0]
    text = fragment_from_json(doc % f'"{digits}"').states[0][0]
    assert literal == F("0.12345678901234568") != text == F(digits)

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
    for assignment in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="assignment length must match the context"):
            m.table_value(0, assignment)
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


def test_agreement_rows_sum_to_the_shared_marginals():
    """Row k's two sums are the two contexts' marginals at the k-th joint
    outcome of the shared measurements, listed in measurement order."""
    from contextua.scenarios import kcbs_quantum, nudged_box

    rng = Random(5)
    h = CompatibilityHypergraph(
        ("a", "b", "c", "d"), (("c", "b", "a"), ("a", "c"), ("d",), ("b", "d"))
    )
    outcomes = {"a": 2, "b": 3, "c": 3, "d": 2}
    tables = []
    for context in h.contexts:
        weights = [rng.randint(0, 5) for _ in range(math.prod(outcomes[x] for x in context))]
        weights[0] += 1
        tables.append([F(w, sum(weights)) for w in weights])
    skewed = EmpiricalModel(h, outcomes, tables)
    for m in (pr_box_model(), kcbs_quantum(), nudged_box(F(1, 4)), skewed):
        contexts, order = m.hypergraph.contexts, m.hypergraph.measurements
        pairs = []
        for i, j, shared, rows in agreement_rows(m):
            pairs.append((i, j))
            assert shared == tuple(x for x in order if x in contexts[i] and x in contexts[j])
            left, right = _grouped_marginal(m, i, shared), _grouped_marginal(m, j, shared)
            keys = list(m.assignments(shared))
            assert len(rows) == len(keys)
            for key, (ps, qs) in zip(keys, rows):
                assert sum(m.tables[i][p] for p in ps) == left[key]
                assert sum(m.tables[j][q] for q in qs) == right[key]
        assert pairs == [
            (i, j)
            for i in range(len(contexts))
            for j in range(i + 1, len(contexts))
            if set(contexts[i]) & set(contexts[j])
        ]


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
    two = CompatibilityHypergraph(("x", "y"), (("x",), ("y",)))
    with pytest.raises(ValueError, match="one table per context required"):
        EmpiricalModel(two, {"x": 2, "y": 2}, ((F(1, 2), F(1, 2)),))


def test_model_json_roundtrip():
    m = pr_box_model()
    text = model_to_json(m)
    back = model_from_json(text)
    assert back.hypergraph.contexts == m.hypergraph.contexts
    assert back.outcomes == m.outcomes
    assert back.tables == m.tables
    assert model_to_json(back) == text
