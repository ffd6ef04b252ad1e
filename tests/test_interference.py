from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import ddg
from contextua.connection import (
    ConnectionDecomposition,
    build_object_complex,
    decompose,
    valuation_from_values,
)
from contextua.core_model import GptFragment, OperationalEquivalence
from contextua.interference import (
    EventMeasure,
    additive_measure,
    all_i2,
    all_i3,
    born_measure,
    i2,
    i2_from_connection,
    i3,
    measure_from_json,
    measure_to_json,
    quantum_i2,
    reconstructed_measure,
)
from contextua.scenarios import SCENARIOS

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=12)
atom_mass_maps = st.dictionaries(
    st.sampled_from(list("abcde")),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    min_size=3,
    max_size=5,
)


@settings(max_examples=50)
@given(atom_mass_maps, st.data())
def test_additive_measures_have_no_interference(masses, data):
    m = additive_measure(masses)
    atoms = sorted(masses)
    picks = data.draw(st.permutations(atoms))
    a, b, c = ({picks[0]}, {picks[1]}, {picks[2]})
    assert i2(m, a, b) == 0
    assert i3(m, a, b, c) == 0
    # also on compound disjoint events
    if len(atoms) >= 4:
        assert i2(m, {picks[0], picks[1]}, {picks[2], picks[3]}) == 0


def test_direct_formula_value():
    m = EventMeasure(
        atoms=("a", "b"),
        masses={
            frozenset("a"): F(1, 4),
            frozenset("b"): F(1, 4),
            frozenset("ab"): F(1),
        },
    )
    assert i2(m, {"a"}, {"b"}) == F(1, 2)


def test_planted_third_order_residual():
    base = additive_measure({"a": F(1, 8), "b": F(1, 4), "c": F(1, 2)})
    shifted = dict(base.masses)
    shifted[frozenset("abc")] = shifted[frozenset("abc")] + F(1, 8)
    m = EventMeasure(base.atoms, shifted)
    assert i3(m, {"a"}, {"b"}, {"c"}) == F(1, 8)
    assert i2(m, {"a"}, {"b"}) == 0


@settings(max_examples=50)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        min_size=7,
        max_size=7,
    )
)
def test_interference_symmetry(values):
    # arbitrary (non-additive) masses on the powerset of three atoms
    a, b, c = frozenset("a"), frozenset("b"), frozenset("c")
    m = EventMeasure(
        ("a", "b", "c"),
        {
            a: values[0],
            b: values[1],
            c: values[2],
            a | b: values[3],
            b | c: values[4],
            a | c: values[5],
            a | b | c: values[6],
        },
    )
    assert i2(m, a, b) == i2(m, b, a)
    reference = i3(m, a, b, c)
    import itertools

    for perm in itertools.permutations((a, b, c)):
        assert i3(m, *perm) == reference


def test_input_validation():
    m = additive_measure({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(ValueError):
        i2(m, {"a"}, {"a"})
    with pytest.raises(ValueError):
        i2(m, {"a"}, {"z"})
    trimmed = {k: v for k, v in m.masses.items() if k != frozenset("ab")}
    m2 = EventMeasure(("a", "b"), trimmed)
    with pytest.raises(ValueError):
        i2(m2, {"a"}, {"b"})
    with pytest.raises(ValueError):
        EventMeasure(("a",), {frozenset(): F(1, 3)})
    with pytest.raises(ValueError):
        EventMeasure(("a",), {frozenset("ab"): F(1, 3)})
    # masses are exact: a float is refused naming its event, and an exact
    # mass beyond float range sits beside any other
    with pytest.raises(ValueError, match="mass of 'b' is 0.5, not an int or Fraction"):
        EventMeasure(("a", "b"), {frozenset("a"): F(1), frozenset("b"): 0.5})
    big = EventMeasure(("a", "b"), {frozenset("a"): F(1, 2), frozenset("b"): F(10**400)})
    assert big.mass("b") == 10**400
    # an atom name cannot hold the separators of event and interference keys
    for name in ("", "a|b", "a,b", 7):
        with pytest.raises(ValueError, match="must be a non-empty string"):
            EventMeasure((name,), {})
    assert m.mass(frozenset()) == 0


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def ray(v):
    """The projector v v^T / (v . v) onto the line through v."""
    n = dot(v, v)
    return [[F(x * y) / n for y in v] for x in v]


def gram_schmidt(vectors):
    """Pairwise orthogonal rational vectors spanning what ``vectors`` span;
    a vector that depends on the earlier ones is dropped."""
    basis = []
    for v in vectors:
        u = [F(x) for x in v]
        for b in basis:
            c = dot(u, b) / dot(b, b)
            u = [x - c * y for x, y in zip(u, b)]
        if any(u):
            basis.append(u)
    return basis


def random_state(rng, dim):
    """The pure state on a seeded integer vector."""
    v = [0] * dim
    while not any(v):
        v = [rng.randint(-3, 3) for _ in range(dim)]
    return ray(v)


def random_orthogonal_projectors(rng, dim, count):
    """``count`` pairwise orthogonal projectors, each the sum of the rays of a
    run of consecutive vectors of an exact Gram-Schmidt basis."""
    basis = []
    while len(basis) < dim:
        basis = gram_schmidt([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
    ends = sorted(rng.sample(range(1, dim + 1), count))
    projectors = []
    for start, end in zip([0] + ends, ends):
        rays = [ray(u) for u in basis[start:end]]
        projectors.append([[sum(cols) for cols in zip(*rows)] for rows in zip(*rays)])
    return projectors


def test_quantum_pair_interference_vanishes_and_matches_born():
    rng = Random(7)
    for _ in range(25):
        dim = rng.randint(2, 5)
        rho = random_state(rng, dim)
        e, ep = random_orthogonal_projectors(rng, dim, 2)
        direct = quantum_i2(rho, e, ep)
        m = born_measure(rho, {"e": e, "f": ep})
        assert direct == i2(m, {"e"}, {"f"}) == 0
        assert m.mass({"e", "f"}) <= 1


def test_quantum_plus_state_example():
    half = F(1, 2)
    rho = [[half, half], [half, half]]  # |+><+|
    e = [[1, 0], [0, 0]]
    ep = [[0, 0], [0, 1]]
    value = quantum_i2(rho, e, ep)
    born = 1 - half - half  # join is the identity effect on |+>
    assert value == born == 0
    assert born_measure(rho, {"e": e, "f": ep}).masses == {
        frozenset(): 0, frozenset("e"): half, frozenset("f"): half, frozenset("ef"): 1
    }


def test_quantum_orthogonal_support_gives_zero():
    rho = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    e = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    ep = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert quantum_i2(rho, e, ep) == 0


def test_quantum_input_validation():
    half = F(1, 2)
    rho = [[half, 0], [0, half]]  # mixed
    e = [[1, 0], [0, 0]]
    ep = [[0, 0], [0, 1]]
    with pytest.raises(ValueError):
        quantum_i2(rho, e, ep)
    pure = [[1, 0], [0, 0]]
    tilted = [[half, half], [half, half]]
    with pytest.raises(ValueError):
        quantum_i2(pure, tilted, [[1, 0], [0, 0]])  # not orthogonal
    with pytest.raises(ValueError):
        quantum_i2(pure, [[half, 0], [0, 0]], ep)  # not a projector
    with pytest.raises(ValueError, match="not symmetric"):
        quantum_i2(pure, [[1, 1], [0, 0]], ep)
    with pytest.raises(ValueError, match="ints and Fractions"):
        quantum_i2(pure, [[1.0, 0], [0, 0]], ep)  # a float entry
    with pytest.raises(ValueError, match="2 by 2"):
        quantum_i2(pure, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], ep)


def test_a_pure_state_is_a_projector_not_just_a_unit_purity_matrix():
    # trace 1 and tr rho^2 = 1, yet rho^2 != rho and rho has a negative eigenvalue
    rho = [[F(2, 3), 0, 0], [0, F(2, 3), 0], [0, 0, F(-1, 3)]]
    e = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    ep = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="state is not a projector"):
        quantum_i2(rho, e, ep)


def test_i3_refuses_overlapping_events():
    m = additive_measure({"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)})
    with pytest.raises(ValueError, match="triple interference needs pairwise disjoint events"):
        i3(m, {"a"}, {"a", "b"}, {"c"})


def test_born_measure_refuses_a_state_without_unit_trace():
    p = [[1, 0], [0, 0]]
    with pytest.raises(ValueError, match="state must have unit trace"):
        born_measure([[F(1, 2), 0], [0, F(1, 4)]], {"a": p})


def test_born_measure_refuses_overlapping_projectors():
    p = [[1, 0], [0, 0]]
    with pytest.raises(ValueError, match="'a' and 'b' overlap"):
        born_measure([[1, 0], [0, 0]], {"a": p, "b": p})


def test_sharp_triples_have_no_third_order_interference():
    rng = Random(11)
    for _ in range(20):
        dim = rng.randint(3, 5)
        rho = random_state(rng, dim)
        pa, pb, pc = random_orthogonal_projectors(rng, dim, 3)
        m = born_measure(rho, {"a": pa, "b": pb, "c": pc})
        assert i3(m, {"a"}, {"b"}, {"c"}) == 0


def interference_complex():
    """Three effects (parts and their join) plus the unit object."""
    f = GptFragment(
        dimension=2,
        states=((F(1), F(0)),),
        effects=((F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2))),
        unit_effect=(F(1), F(1)),
        measurements=((2,),),  # not used by the complex
    )
    eq = OperationalEquivalence("effect", {0: F(1), 1: F(1), 2: F(-1)})
    return build_object_complex("effect", f, [eq], "geometrical")


def test_single_lambda_toy_value():
    oc = interference_complex()
    omega = ddg.Cochain(1, {oc.star_edge(2): F(1, 8)})
    dec = ConnectionDecomposition(
        complex=oc.complex,
        potential=ddg.Cochain(0),
        connection=omega,
        disturbance=None,
    )
    assert i2_from_connection(oc, [dec], [F(1)], 0, 1, 2) == F(1, 8)


@settings(max_examples=50)
@given(st.lists(rationals, min_size=4, max_size=4))
def test_bridge_matches_direct_interference_and_ignores_gauge(values):
    oc = interference_complex()
    xi = valuation_from_values(oc, values)
    dec = decompose(oc, xi)
    bridged = i2_from_connection(oc, [dec], [F(1)], 0, 1, 2)
    # direct: join valuation minus part valuations
    assert bridged == values[2] - values[0] - values[1]
    # trivial gauge (everything in the connection) gives the same number
    raw = ConnectionDecomposition(
        complex=oc.complex,
        potential=ddg.Cochain(0),
        connection=xi,
        disturbance=None,
    )
    assert i2_from_connection(oc, [raw], [F(1)], 0, 1, 2) == bridged
    # and it agrees with i2 on the reconstructed measure
    m = reconstructed_measure(
        oc, dec, {0: "e", 1: "f"}, joins={frozenset({"e", "f"}): 2}
    )
    assert i2(m, {"e"}, {"f"}) == bridged


@settings(max_examples=50)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
)
def test_bridge_is_linear_in_the_weights(values_a, values_b, w):
    oc = interference_complex()
    dec_a = decompose(oc, valuation_from_values(oc, values_a))
    dec_b = decompose(oc, valuation_from_values(oc, values_b))
    mixed = i2_from_connection(oc, [dec_a, dec_b], [w, 1 - w], 0, 1, 2)
    only_a = i2_from_connection(oc, [dec_a], [F(1)], 0, 1, 2)
    only_b = i2_from_connection(oc, [dec_b], [F(1)], 0, 1, 2)
    assert mixed == w * only_a + (1 - w) * only_b


def test_bridge_input_validation():
    oc = interference_complex()
    dec = decompose(oc, valuation_from_values(oc, [F(0)] * 4))
    with pytest.raises(ValueError):
        i2_from_connection(oc, [dec], [F(1), F(1)], 0, 1, 2)
    with pytest.raises(ValueError):
        i2_from_connection(oc, [dec], [F(1)], 0, 1, 9)


def test_enumerations_and_json_roundtrip():
    m = EventMeasure(
        ("a", "b"),
        {
            frozenset("a"): F(1, 4),
            frozenset("b"): F(1, 4),
            frozenset("ab"): F(1),
        },
    )
    pairs = all_i2(m)
    assert pairs == {("a", "b"): F(1, 2)}
    base = additive_measure({"a": F(1, 8), "b": F(1, 4), "c": F(1, 8)})
    assert set(all_i3(base)) == {("a", "b", "c")}
    assert all(v == 0 for v in all_i2(base).values())
    # every built-in measure and an additive one, whose empty event has key ""
    built_in = [make() for kind, make in SCENARIOS.values() if kind == "measure"]
    for measure in (m, base, *built_in):
        text = measure_to_json(measure)
        back = measure_from_json(text)
        assert back.atoms == measure.atoms
        assert back.masses == measure.masses
        assert measure_to_json(back) == text

