"""Compatibility hypergraphs, Graham reduction, and the cohomological
noncontextuality certificate for object complexes.

Graham reduction repeatedly (1) deletes a measurement that belongs to exactly
one context and (2) deletes a context contained in another.  A hypergraph that
reduces to nothing is acyclic; on acyclic scenarios every non-disturbing
behaviour extends to a global distribution, so acyclicity certifies the
absence of contextuality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import ddg
from ._rat import excerpt

if TYPE_CHECKING:  # pragma: no cover
    from .connection import ObjectComplex


@dataclass(frozen=True)
class CompatibilityHypergraph:
    """Measurement names plus the list of jointly measurable subsets."""

    measurements: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        object.__setattr__(
            self, "contexts", tuple(tuple(c) for c in self.contexts)
        )
        listed = set()
        for m in self.measurements:
            if m in listed:
                raise ValueError(f"measurement {excerpt(repr(m))} is listed twice")
            listed.add(m)
        seen = set()
        for context in self.contexts:
            if len(set(context)) != len(context):
                raise ValueError(f"repeated measurement in context {context}")
            key = frozenset(context)
            if key in seen:
                raise ValueError(f"duplicate context {context}")
            seen.add(key)
            for m in context:
                if m not in listed:
                    raise ValueError(f"context {context} uses unknown measurement {m!r}")
        covered = {m for c in self.contexts for m in c}
        missing = [m for m in self.measurements if m not in covered]
        if missing:
            raise ValueError(f"measurements in no context: {missing}")

    @property
    def is_empty(self) -> bool:
        return not self.contexts and not self.measurements


#: A reduction step: (rule name, payload...).  Rules are
#: ("lone-measurement", m, context), ("subset-context", child, parent) and
#: ("empty-context", context).
ReductionStep = tuple


def graham_reduce(
    h: CompatibilityHypergraph,
) -> tuple[CompatibilityHypergraph, list[ReductionStep]]:
    """Reduce to the fixpoint; return it plus the replayable step trace.

    The order is deterministic: the lexicographically least lone measurement
    first, then the first empty context, then the first subset pair.  The
    reduction is confluent, so the fixpoint does not depend on that order.
    """
    contexts = [list(c) for c in h.contexts]
    trace: list[ReductionStep] = []
    while True:
        # rule 1: a measurement in exactly one context
        counts: dict[str, int] = {}
        for context in contexts:
            for m in context:
                counts[m] = counts.get(m, 0) + 1
        lone = [m for m, n in counts.items() if n == 1]
        if lone:
            m = min(lone)
            idx = next(i for i, c in enumerate(contexts) if m in c)
            trace.append(("lone-measurement", m, tuple(contexts[idx])))
            contexts[idx].remove(m)
            continue
        # empty contexts count as subsets of anything and simply drop out
        if [] in contexts:
            trace.append(("empty-context", ()))
            contexts.remove([])
            continue
        # rule 2: a context contained in another
        pair = next(
            (
                (i, j)
                for i, ci in enumerate(contexts)
                for j, cj in enumerate(contexts)
                if i != j and set(ci) <= set(cj)
            ),
            None,
        )
        if pair is not None:
            i, j = pair
            trace.append(("subset-context", tuple(contexts[i]), tuple(contexts[j])))
            contexts.pop(i)
            continue
        break
    remaining = sorted({m for c in contexts for m in c})
    reduced = CompatibilityHypergraph(tuple(remaining), tuple(tuple(c) for c in contexts))
    return reduced, trace


def is_acyclic(h: CompatibilityHypergraph) -> bool:
    """True iff Graham reduction empties the hypergraph."""
    reduced, _ = graham_reduce(h)
    return reduced.is_empty


def h1_certificate(complex_: ddg.SimplicialComplex) -> tuple[str, int]:
    """The verdict of :func:`generalized_vorobyev` on a bare complex, and b1."""
    betti = ddg.homology(complex_, 1).betti
    return ("noncontextual-certified" if betti == 0 else "inconclusive"), betti


def generalized_vorobyev(oc: "ObjectComplex") -> str:
    """Cohomological noncontextuality certificate for an object complex.

    With no attached disks, a trivial first cohomology means every closed
    valuation difference integrates to a potential, so no equivalence loop can
    carry a phase: the verdict is "noncontextual-certified".  A nontrivial
    group certifies nothing in either direction, hence "inconclusive".
    """
    if oc.view != "topological":
        raise ValueError("certificate requires the topological view (no attached disks)")
    return h1_certificate(oc.complex)[0]
