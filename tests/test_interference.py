from fractions import Fraction as F

import numpy as np
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
    # an exact mass beside float masses must have a float value
    with pytest.raises(ValueError, match="'b' is beyond float range"):
        EventMeasure(("a", "b"), {frozenset("a"): 0.5, frozenset("b"): F(10**400)})
    big = EventMeasure(("a", "b"), {frozenset("a"): F(1), frozenset("b"): F(10**400)})
    assert big.mass("b") == 10**400  # all exact, so no float is involved
    assert m.mass(frozenset()) == 0


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_orthogonal_projectors(rng, dim, count):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(count)]


def test_quantum_pair_interference_vanishes_and_matches_born():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        rho = random_state(rng, dim)
        e, ep = random_orthogonal_projectors(rng, dim, 2)
        direct = quantum_i2(rho, e, ep)
        m = born_measure(rho, {"e": e, "f": ep})
        assert abs(direct - i2(m, {"e"}, {"f"})) < 1e-10
        assert abs(direct) < 1e-10


def test_quantum_plus_state_example():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.outer(plus, plus)
    e = np.diag([1.0, 0.0])
    ep = np.diag([0.0, 1.0])
    value = quantum_i2(rho, e, ep)
    born = 1.0 - 0.5 - 0.5  # join is the identity effect on |+>
    assert abs(value - born) < 1e-12


def test_quantum_orthogonal_support_gives_zero():
    rho = np.diag([1.0, 0.0, 0.0])
    e = np.diag([0.0, 1.0, 0.0])
    ep = np.diag([0.0, 0.0, 1.0])
    assert quantum_i2(rho, e, ep) == 0


def test_quantum_input_validation():
    rho = np.diag([0.5, 0.5])  # mixed
    e = np.diag([1.0, 0.0])
    ep = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        quantum_i2(rho, e, ep)
    pure = np.diag([1.0, 0.0])
    tilted = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        quantum_i2(pure, tilted, np.diag([1.0, 0.0]))  # not orthogonal
    with pytest.raises(ValueError):
        quantum_i2(pure, np.array([[0.5, 0.0], [0.0, 0.0]]), ep)  # not a projector


def test_sharp_triples_have_no_third_order_interference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(3, 6))
        rho = random_state(rng, dim)
        pa, pb, pc = random_orthogonal_projectors(rng, dim, 3)
        m = born_measure(rho, {"a": pa, "b": pb, "c": pc})
        assert abs(i3(m, {"a"}, {"b"}, {"c"})) < 1e-10


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
        view="geometrical",
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
        view=oc.view,
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
    text = measure_to_json(m)
    back = measure_from_json(text)
    assert back.atoms == m.atoms
    assert back.masses == m.masses
    assert measure_to_json(back) == text
