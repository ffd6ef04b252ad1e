"""Graham reduction and the cohomological certificate."""

from random import Random

import pytest

from contextua import ddg
from contextua.connection import build_object_complex
from contextua.core_model import effect_equivalences, state_equivalences
from contextua.scenarios import (
    classical_simplex,
    halving_fragment,
    pr_box,
    random_acyclic_hypergraph,
)
from contextua.vorobyev import (
    CompatibilityHypergraph,
    generalized_vorobyev,
    graham_reduce,
    is_acyclic,
)


def test_hypergraph_validation():
    with pytest.raises(ValueError, match="repeated"):
        CompatibilityHypergraph(("a",), (("a", "a"),))
    with pytest.raises(ValueError, match="duplicate"):
        CompatibilityHypergraph(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError, match="unknown measurement"):
        CompatibilityHypergraph(("a",), (("a", "b"),))
    with pytest.raises(ValueError, match="no context"):
        CompatibilityHypergraph(("a", "b"), (("a",),))


def test_single_context_reduces_in_four_steps():
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b", "c"),))
    reduced, trace = graham_reduce(h)
    assert reduced.is_empty
    assert trace == [
        ("lone-measurement", "a", ("a", "b", "c")),
        ("lone-measurement", "b", ("b", "c")),
        ("lone-measurement", "c", ("c",)),
        ("empty-context", ()),
    ]


def test_path_of_two_contexts_is_acyclic():
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    reduced, trace = graham_reduce(h)
    assert reduced.is_empty
    assert is_acyclic(h)
    kinds = [step[0] for step in trace]
    assert "subset-context" in kinds or kinds.count("lone-measurement") >= 3


def test_four_cycle_is_its_own_fixpoint():
    h = pr_box().hypergraph
    reduced, trace = graham_reduce(h)
    assert trace == []
    assert reduced == h
    assert not is_acyclic(h)


def test_triangle_is_cyclic_but_loses_nothing_by_subsets():
    h = CompatibilityHypergraph(
        ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))
    )
    reduced, _ = graham_reduce(h)
    assert set(reduced.measurements) == {"a", "b", "c"}
    assert len(reduced.contexts) == 3


def test_verdict_is_order_independent():
    rng = Random(23)
    samples = [random_acyclic_hypergraph(Random(100 + i)) for i in range(8)]
    samples.append(pr_box().hypergraph)
    samples.append(
        CompatibilityHypergraph(
            ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))
        )
    )
    # a 4-cycle with a pendant context, which reduces to the bare cycle
    samples.append(
        CompatibilityHypergraph(
            tuple("abcdef"),
            (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e", "f")),
        )
    )
    for h in samples:
        baseline = graham_reduce(h)[0]
        for _ in range(5):
            # relabelling the measurements and shuffling the contexts changes
            # which lone measurement and which subset pair come first
            names = list(h.measurements)
            relabel = dict(zip(names, rng.sample(names, len(names))))
            contexts = [tuple(relabel[m] for m in c) for c in h.contexts]
            rng.shuffle(contexts)
            moved = CompatibilityHypergraph(tuple(relabel.values()), tuple(contexts))
            back = {new: old for old, new in relabel.items()}
            reduced = graham_reduce(moved)[0]
            # the reduction is confluent: the fixpoint maps onto the baseline's
            assert {back[m] for m in reduced.measurements} == set(baseline.measurements)
            assert {frozenset(back[m] for m in c) for c in reduced.contexts} == {
                frozenset(c) for c in baseline.contexts
            }


def test_random_acyclic_generator_agrees_with_reduction():
    for i in range(25):
        assert is_acyclic(random_acyclic_hypergraph(Random(i)))


def test_certificate_on_a_dependence_free_star():
    f = classical_simplex(3)
    assert state_equivalences(f) == []
    oc = build_object_complex("state", f, [], "topological")
    assert generalized_vorobyev(oc) == "noncontextual-certified"
    assert ddg.homology(oc.complex, 1).betti == 0


def test_certificate_is_inconclusive_on_hollow_loops():
    g = halving_fragment()
    eqs = effect_equivalences(g, include_unit=True)
    assert eqs
    oc = build_object_complex("effect", g, eqs, "topological")
    assert generalized_vorobyev(oc) == "inconclusive"
    assert ddg.homology(oc.complex, 1).betti == len(eqs)


def test_certificate_rejects_disk_filled_view():
    g = halving_fragment()
    eqs = effect_equivalences(g, include_unit=True)
    oc = build_object_complex("effect", g, eqs, "geometrical")
    with pytest.raises(ValueError, match="topological"):
        generalized_vorobyev(oc)
