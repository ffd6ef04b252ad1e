"""Operational fragments, empirical models, and ontic representations.

A fragment is a finite slice of a generalized probability theory: exact
rational state / effect / transformation vectors with a designated unit
effect, plus the grouping of effects into complete measurements.  Operational
equivalences are exact linear dependencies among the vectors of one kind; an
ontic representation assigns classical response tables that may or may not
respect them.  Everything here is pure and exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import linalg
from ._rat import (
    format_rational, int_in, json_in, key_in, list_in, name_in, object_in, rational_in,
)
from .vorobyev import CompatibilityHypergraph

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def _vec(values: Iterable) -> Vec:
    return tuple(Fraction(x) for x in values)


def _mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(_vec(row) for row in rows)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact a . b of int or Fraction entries: the products of each vector's
    ints over the lcm of its denominators, summed, make one Fraction."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    ints_a, den_a = linalg.over_lcm(a)
    ints_b, den_b = linalg.over_lcm(b)
    return Fraction(sum(map(mul, ints_a, ints_b)), den_a * den_b)


def apply_matrix(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


@dataclass(frozen=True)
class GptFragment:
    """A finite prepare(-transform)-measure fragment over exact rationals."""

    dimension: int
    states: tuple[Vec, ...]
    effects: tuple[Vec, ...]
    unit_effect: Vec
    measurements: tuple[tuple[int, ...], ...]
    transformations: tuple[Mat, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "states", _mat(self.states))
        object.__setattr__(self, "effects", _mat(self.effects))
        object.__setattr__(self, "unit_effect", _vec(self.unit_effect))
        object.__setattr__(
            self, "measurements", tuple(tuple(m) for m in self.measurements)
        )
        object.__setattr__(
            self, "transformations", tuple(_mat(t) for t in self.transformations)
        )


@dataclass
class ValidationReport:
    """Structural errors (shape problems) and invariant violations, separately."""

    structural: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.structural and not self.violations

    def refuse(self, what: str) -> None:
        """Raise ``ValueError("{what} fails validation: [...]")``, listing every
        problem, unless the report is ok."""
        if not self.ok:
            raise ValueError(f"{what} fails validation: {self.structural + self.violations}")


def validate_fragment(f: GptFragment) -> ValidationReport:
    """Check shapes, normalization, probability ranges and completeness.

    A shape message names the vector or matrix whose length differs from the
    dimension, never the dimension itself, which a file may give at any size.
    """
    report = ValidationReport()
    d = f.dimension
    if d <= 0:
        report.structural.append("dimension must be positive")
        return report
    for name, vectors in (("state", f.states), ("effect", f.effects)):
        for i, v in enumerate(vectors):
            if len(v) != d:
                report.structural.append(f"{name} {i} has length {len(v)}")
    if len(f.unit_effect) != d:
        report.structural.append(f"unit effect has length {len(f.unit_effect)}")
    for t, m in enumerate(f.transformations):
        if len(m) != d or any(len(row) != d for row in m):
            report.structural.append(f"transformation {t} has the wrong shape")
    for k, m in enumerate(f.measurements):
        for r in m:
            if not 0 <= r < len(f.effects):
                report.structural.append(f"measurement {k} references missing effect {r}")
    if report.structural:
        return report

    for s, state in enumerate(f.states):
        total = dot(f.unit_effect, state)
        if total != 1:
            report.violations.append(f"state {s} has unit pairing {total}, expected 1")
    channels: list[tuple[int | None, Mat | None]] = [(None, None)]
    channels += list(enumerate(f.transformations))
    for t, matrix in channels:
        for s, state in enumerate(f.states):
            moved = apply_matrix(matrix, state) if matrix is not None else state
            for r, effect in enumerate(f.effects):
                p = dot(effect, moved)
                if not 0 <= p <= 1:
                    where = f"effect {r}, state {s}" + (
                        f", transformation {t}" if t is not None else ""
                    )
                    report.violations.append(f"probability {p} out of range for {where}")
    for k, m in enumerate(f.measurements):
        total = tuple(
            sum((f.effects[r][i] for r in m), Fraction(0)) for i in range(d)
        )
        if total != f.unit_effect:
            report.violations.append(f"measurement {k} does not sum to the unit effect")
    return report


def probability(
    f: GptFragment,
    state: int,
    effect: int,
    transformation: int | None = None,
) -> Fraction:
    """Outcome probability of an effect on a (possibly transformed) state."""
    if not 0 <= state < len(f.states):
        raise IndexError(f"state index {state} out of range")
    if not 0 <= effect < len(f.effects):
        raise IndexError(f"effect index {effect} out of range")
    vector = f.states[state]
    if transformation is not None:
        if not 0 <= transformation < len(f.transformations):
            raise IndexError(f"transformation index {transformation} out of range")
        vector = apply_matrix(f.transformations[transformation], vector)
    return dot(f.effects[effect], vector)


KINDS = ("state", "effect", "transformation")


def objects(f: GptFragment, kind: str) -> list[Vec]:
    """One kind's objects as vectors: the effects end with the unit effect,
    at index ``len(f.effects)``, so completeness dependencies have an object
    to run through; each transformation is flattened row by row."""
    if kind == "state":
        return list(f.states)
    if kind == "effect":
        return [*f.effects, f.unit_effect]
    if kind == "transformation":
        return [tuple(x for row in m for x in row) for m in f.transformations]
    raise ValueError(f"unknown object kind {kind!r}")


@dataclass(frozen=True)
class OperationalEquivalence:
    """An exact linear dependence among same-kind objects.

    ``coefficients`` maps object index to a nonzero rational; the defining
    property is that the coefficient-weighted vectors sum to zero exactly.
    """

    kind: str  # one of KINDS
    coefficients: Mapping[int, Fraction]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown equivalence kind {self.kind!r}")
        coeffs = {int(i): Fraction(c) for i, c in self.coefficients.items()}
        if any(c == 0 for c in coeffs.values()):
            raise ValueError("equivalence coefficients must be nonzero")
        if any(i < 0 for i in coeffs):
            raise ValueError("equivalence object indices must be nonnegative")
        if not coeffs:
            raise ValueError("an equivalence needs at least one participant")
        # a singleton dependency just says one vector is zero; it is allowed
        # here so kernel bases stay complete, but most consumers want >= 2
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def participants(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    def combination(self, vectors: Sequence[Sequence[Fraction]]) -> Vec:
        width = len(vectors[0])
        total = [Fraction(0)] * width
        for i, c in self.coefficients.items():
            for k in range(width):
                total[k] += c * vectors[i][k]
        return tuple(total)


def find_equivalences(
    vectors: Sequence[Sequence[Fraction]], kind: str = "effect"
) -> list[OperationalEquivalence]:
    """Canonical basis of exact linear dependencies among the given vectors.

    The basis spans the nullspace of the matrix whose columns are the vectors,
    each element scaled so its first nonzero coefficient is +1, ordered by
    first participating index.  Re-substituting any output into the vectors
    gives the exact zero vector.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("vectors must share a dimension")
    columns = [[Fraction(v[i]) for v in vectors] for i in range(width)]
    out = []
    for basis_vec in linalg.nullspace(columns):
        coeffs = {i: c for i, c in enumerate(basis_vec) if c != 0}
        out.append(OperationalEquivalence(kind, coeffs))
    return out


def equivalences(f: GptFragment, kind: str) -> list[OperationalEquivalence]:
    """Dependencies among :func:`objects` of one kind."""
    vectors = objects(f, kind)
    return find_equivalences(vectors, kind) if vectors else []


def state_equivalences(f: GptFragment) -> list[OperationalEquivalence]:
    return equivalences(f, "state")


def effect_equivalences(
    f: GptFragment, include_unit: bool = False
) -> list[OperationalEquivalence]:
    """Dependencies among the listed effects.

    With ``include_unit`` the unit effect joins the list as a final extra
    column, so coefficients on index ``len(f.effects)`` refer to it.
    """
    if include_unit:
        return equivalences(f, "effect")
    return find_equivalences(f.effects, "effect") if f.effects else []


def transformation_equivalences(f: GptFragment) -> list[OperationalEquivalence]:
    return equivalences(f, "transformation")


@dataclass(frozen=True)
class OnticRepresentation:
    """Finite classical response tables for a fragment.

    ``state_distributions[s][k]`` is the probability of ontic value ``k``
    under preparation ``s``; ``effect_responses[r][k]`` the response of effect
    ``r`` at ontic value ``k``; ``transition_kernels[t][k][k2]`` the
    probability that transformation ``t`` maps ontic value ``k`` to ``k2``.
    """

    lambda_count: int
    state_distributions: tuple[Vec, ...]
    effect_responses: tuple[Vec, ...]
    transition_kernels: tuple[Mat, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "state_distributions", _mat(self.state_distributions)
        )
        object.__setattr__(self, "effect_responses", _mat(self.effect_responses))
        if self.transition_kernels is not None:
            object.__setattr__(
                self,
                "transition_kernels",
                tuple(_mat(k) for k in self.transition_kernels),
            )


def ontic_values(
    rep: OnticRepresentation, kind: str, lam: int, lam_out: int | None = None
) -> list[Fraction]:
    """Each object's value at ontic index ``lam``, in :func:`objects` order:
    the unit effect responds 1, and a transformation gives its probability
    of moving ``lam`` to ``lam_out``."""
    if not 0 <= lam < rep.lambda_count:
        raise ValueError(f"ontic index {lam} out of range")
    if kind == "state":
        return [row[lam] for row in rep.state_distributions]
    if kind == "effect":
        return [*(row[lam] for row in rep.effect_responses), Fraction(1)]
    if kind == "transformation":
        if rep.transition_kernels is None:
            raise ValueError("representation has no transition kernels")
        if lam_out is None:
            raise ValueError("transformation valuations need lam_out")
        if not 0 <= lam_out < rep.lambda_count:
            raise ValueError(f"ontic index {lam_out} out of range")
        return [kernel[lam][lam_out] for kernel in rep.transition_kernels]
    raise ValueError(f"unknown object kind {kind!r}")


def _check_tables(f: GptFragment, rep: OnticRepresentation) -> None:
    n = rep.lambda_count
    if n <= 0:
        raise ValueError("lambda_count must be positive")
    if len(rep.state_distributions) != len(f.states):
        raise ValueError("one distribution per state required")
    if any(len(row) != n for row in rep.state_distributions):
        raise ValueError("state distribution rows must have lambda_count entries")
    if len(rep.effect_responses) != len(f.effects):
        raise ValueError("one response row per effect required")
    if any(len(row) != n for row in rep.effect_responses):
        raise ValueError("effect response rows must have lambda_count entries")
    if rep.transition_kernels is not None:
        if len(rep.transition_kernels) != len(f.transformations):
            raise ValueError("one kernel per transformation required")
        for kernel in rep.transition_kernels:
            if len(kernel) != n or any(len(row) != n for row in kernel):
                raise ValueError("kernels must be lambda_count square")


@dataclass
class NcReport:
    """Residuals of the classical-representation conditions.

    ``reproduction_error`` is the largest absolute gap between the fragment's
    probabilities and the chain-rule reconstruction.  ``equivalence_residuals``
    holds, for every supplied equivalence and ontic value (pair of values for
    transformations), the coefficient-weighted sum of the tables — zero
    exactly when the representation respects that equivalence there.
    ``linearity_residuals`` covers effect triples whose vectors satisfy
    A + B = C: the entry is the response gap at each ontic value.
    """

    reproduction_error: Fraction
    equivalence_residuals: dict[tuple, Fraction]
    linearity_residuals: dict[tuple, Fraction]

    @property
    def flagged(self) -> list[tuple]:
        return sorted(k for k, v in self.equivalence_residuals.items() if v != 0)

    @property
    def max_equivalence_residual(self) -> Fraction:
        return max(
            (abs(v) for v in self.equivalence_residuals.values()), default=Fraction(0)
        )

    @property
    def is_noncontextual(self) -> bool:
        return (
            self.reproduction_error == 0
            and all(v == 0 for v in self.equivalence_residuals.values())
            and all(v == 0 for v in self.linearity_residuals.values())
        )


def additive_effect_triples(f: GptFragment) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a <= b and vector(a) + vector(b) = vector(c)."""
    triples = []
    for a in range(len(f.effects)):
        for b in range(a, len(f.effects)):
            target = tuple(x + y for x, y in zip(f.effects[a], f.effects[b]))
            for c, vec in enumerate(f.effects):
                if vec == target:
                    triples.append((a, b, c))
    return triples


def verify_ontic(
    f: GptFragment,
    rep: OnticRepresentation,
    eqs: Sequence[OperationalEquivalence],
) -> NcReport:
    """Reproduction error, equivalence residuals, and valuation linearity.

    Equivalences index :func:`objects`, so an effect equivalence may name the
    unit effect (``effect_equivalences(f, include_unit=True)``), whose
    response is 1 at every ontic value: its residuals check normalisation.
    """
    _check_tables(f, rep)
    n = rep.lambda_count

    worst = Fraction(0)
    for s, dist in enumerate(rep.state_distributions):
        # the ontic distribution after each transformation
        moved = [
            tuple(dot(dist, column) for column in zip(*kernel))
            for kernel in rep.transition_kernels or ()
        ]
        for r, response in enumerate(rep.effect_responses):
            worst = max(worst, abs(probability(f, s, r) - dot(response, dist)))
            for t, after in enumerate(moved):
                worst = max(worst, abs(probability(f, s, r, t) - dot(response, after)))

    counts = {kind: len(objects(f, kind)) for kind in KINDS}
    residuals: dict[tuple, Fraction] = {}
    for e, eq in enumerate(eqs):
        if eq.participants[-1] >= counts[eq.kind]:
            raise ValueError(
                f"equivalence {e} references missing object {eq.participants[-1]}"
            )
        # a transformation's values are indexed by ontic value pairs
        arity = 2 if eq.kind == "transformation" else 1
        for key in product(range(n), repeat=arity):
            values = ontic_values(rep, eq.kind, *key)
            residuals[(e, *key)] = sum(
                (c * values[i] for i, c in eq.coefficients.items()), Fraction(0)
            )

    linearity: dict[tuple, Fraction] = {}
    for a, b, c in additive_effect_triples(f):
        for k in range(n):
            linearity[(a, b, c, k)] = (
                rep.effect_responses[c][k]
                - rep.effect_responses[a][k]
                - rep.effect_responses[b][k]
            )

    return NcReport(worst, residuals, linearity)


# ---------------------------------------------------------------------------
# empirical models


def assignments(names: Sequence[str], outcomes: Mapping[str, int]):
    """Joint outcomes of ``names`` in row-major order (the last name varies
    fastest): the layout of every context table."""
    return product(*(range(outcomes[m]) for m in names))


def _flat_index(names: Sequence[str], outcomes: Mapping[str, int], assignment) -> int:
    flat = 0
    for m, o in zip(names, assignment):
        flat = flat * outcomes[m] + o
    return flat


def restriction(
    names: Sequence[str], onto: Sequence[str], outcomes: Mapping[str, int]
) -> list[int]:
    """For each joint outcome of ``names``, in row-major order, the
    row-major position of its restriction to ``onto``.  A measurement of
    ``onto`` missing from ``names``, or named twice in it, raises ValueError."""
    missing = [m for m in onto if m not in names]
    if missing:
        raise ValueError(f"{missing} not in context {names}")
    if len(set(onto)) != len(onto):
        raise ValueError(f"{list(onto)} names a measurement twice")
    positions = [names.index(m) for m in onto]
    return [
        _flat_index(onto, outcomes, [a[p] for p in positions])
        for a in assignments(names, outcomes)
    ]


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-context joint outcome tables over a compatibility hypergraph.

    Outcomes of measurement ``m`` are labelled ``0 .. outcomes[m] - 1``;
    context tables are flattened row-major in the context's measurement
    order (see :func:`assignments` and :func:`restriction`).  Marginals onto
    sub-contexts are always defined, also for disturbing models.
    """

    hypergraph: CompatibilityHypergraph
    outcomes: Mapping[str, int]
    tables: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", dict(self.outcomes))
        object.__setattr__(self, "tables", tuple(_vec(t) for t in self.tables))
        if len(self.tables) != len(self.hypergraph.contexts):
            raise ValueError("one table per context required")
        for m in self.hypergraph.measurements:
            if self.outcomes.get(m, 0) < 1:
                raise ValueError(f"measurement {m!r} needs a positive outcome count")
        for i, context in enumerate(self.hypergraph.contexts):
            table = self.tables[i]
            # the product is not printed: outcome counts come from the
            # input, and a long one would spell out an unbounded number
            if len(table) != math.prod(self.outcomes[m] for m in context):
                raise ValueError(
                    f"table {i} has {len(table)} entries, not one per joint "
                    f"outcome of its context"
                )
            if any(x < 0 for x in table):
                raise ValueError(f"table {i} has a negative entry")
            if sum(table) != 1:
                raise ValueError(f"table {i} sums to {sum(table)}, expected 1")

    def assignments(self, context: Sequence[str]):
        return assignments(context, self.outcomes)

    def table_value(self, ctx_index: int, assignment: Sequence[int]) -> Fraction:
        context = self.hypergraph.contexts[ctx_index]
        if len(assignment) != len(context):
            raise ValueError("assignment length must match the context")
        for m, o in zip(context, assignment):
            if not 0 <= o < self.outcomes[m]:
                raise ValueError(f"outcome {o} out of range for {m!r}")
        return self.tables[ctx_index][_flat_index(context, self.outcomes, assignment)]

    def marginal(
        self, ctx_index: int, onto: Sequence[str]
    ) -> dict[tuple[int, ...], Fraction]:
        """Marginal distribution of one context table onto a subset of it."""
        context = self.hypergraph.contexts[ctx_index]
        positions = restriction(context, onto, self.outcomes)
        sums = [Fraction(0)] * math.prod(self.outcomes[m] for m in onto)
        for pos, p in zip(positions, self.tables[ctx_index]):
            sums[pos] += p
        return dict(zip(assignments(onto, self.outcomes), sums))


def submodel(model: EmpiricalModel, masses, weight: Fraction) -> EmpiricalModel | None:
    """The tables ``masses / weight`` on ``model``'s scenario; None at weight 0."""
    if weight == 0:
        return None
    return EmpiricalModel(
        model.hypergraph,
        dict(model.outcomes),
        tuple(tuple(x / weight for x in mass) for mass in masses),
    )


def split(model: EmpiricalModel, masses, weight: Fraction):
    """:func:`submodel` of ``masses`` at ``weight`` and of the remainder
    ``tables - masses`` at ``1 - weight``."""
    remainder = [[p - x for p, x in zip(t, xs)] for t, xs in zip(model.tables, masses)]
    return submodel(model, masses, weight), submodel(model, remainder, 1 - weight)


class DisturbingModelError(ValueError):
    """Model marginals disagree on a context intersection."""


Finding = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], Fraction]


def agreement_rows(model: EmpiricalModel):
    """Yield ``(i, j, shared, rows)`` for every context pair i < j that shares
    measurements, ``shared`` in the hypergraph's measurement order.  Row k
    pairs the flat positions of tables i and j that restrict to the k-th
    joint outcome of ``shared``; the pair agrees exactly when each row's two
    sums are equal."""
    h, outcomes = model.hypergraph, model.outcomes
    for i, a in enumerate(h.contexts):
        for j in range(i + 1, len(h.contexts)):
            b = h.contexts[j]
            shared = tuple(m for m in h.measurements if m in a and m in b)
            if shared:
                rows = [([], []) for _ in model.assignments(shared)]
                for side, context in enumerate((a, b)):
                    for flat, pos in enumerate(restriction(context, shared, outcomes)):
                        rows[pos][side].append(flat)
                yield i, j, shared, rows


def detect_disturbance(model: EmpiricalModel) -> list[Finding]:
    """All context pairs whose shared marginals differ, with exact L-inf gaps.

    Returns ``(context_a, context_b, shared_measurements, gap)`` tuples in
    context-index order; an empty list is exactly non-disturbance.
    """
    contexts = model.hypergraph.contexts
    findings: list[Finding] = []
    for i, j, shared, rows in agreement_rows(model):
        a, b = model.tables[i], model.tables[j]
        gap = max(abs(sum(a[p] for p in ps) - sum(b[q] for q in qs)) for ps, qs in rows)
        if gap > 0:
            findings.append((contexts[i], contexts[j], shared, gap))
    return findings


def assert_nondisturbing(m: EmpiricalModel) -> None:
    """Raise DisturbingModelError naming the first disagreeing intersection."""
    findings = detect_disturbance(m)
    if findings:
        a, b, shared, _ = findings[0]
        raise DisturbingModelError(
            f"disturbing model: contexts {a} and {b} disagree on their "
            f"intersection {shared}"
        )


# ---------------------------------------------------------------------------
# serialization

def _rational_out(x: Fraction):
    return int(x) if x.denominator == 1 else format_rational(x)


def fragment_to_json(f: GptFragment) -> str:
    payload = {
        "dimension": f.dimension,
        "states": [[_rational_out(x) for x in v] for v in f.states],
        "effects": [[_rational_out(x) for x in v] for v in f.effects],
        "unit_effect": [_rational_out(x) for x in f.unit_effect],
        "measurements": [list(m) for m in f.measurements],
    }
    if f.transformations:
        payload["transformations"] = [
            [[_rational_out(x) for x in row] for row in t] for t in f.transformations
        ]
    return json.dumps(payload, sort_keys=True)


def _rationals_in(x, what: str) -> Vec:
    return tuple(rational_in(v, what) for v in list_in(x, what))


_FRAGMENT_KEYS = (
    "dimension", "states", "effects", "unit_effect", "measurements", "transformations",
)


def fragment_from_json(text: str) -> GptFragment:
    payload = object_in(json_in(text), "a fragment", _FRAGMENT_KEYS)

    def field(name: str):
        return key_in(payload, name, "a fragment")

    def rows(name: str) -> tuple[Vec, ...]:
        return tuple(
            _rationals_in(v, f"{name}[{i}]")
            for i, v in enumerate(list_in(field(name), name))
        )

    return GptFragment(
        dimension=int_in(field("dimension"), "dimension"),
        states=rows("states"),
        effects=rows("effects"),
        unit_effect=_rationals_in(field("unit_effect"), "unit_effect"),
        measurements=tuple(
            tuple(
                int_in(r, "effect index")
                for r in list_in(m, f"measurements[{i}]")
            )
            for i, m in enumerate(list_in(field("measurements"), "measurements"))
        ),
        transformations=tuple(
            tuple(
                _rationals_in(row, f"transformations[{t}][{r}]")
                for r, row in enumerate(list_in(m, f"transformations[{t}]"))
            )
            for t, m in enumerate(
                list_in(payload.get("transformations", []), "transformations")
            )
        ),
    )


def model_to_json(m: EmpiricalModel) -> str:
    payload = {
        "hypergraph": [list(c) for c in m.hypergraph.contexts],
        "outcomes": dict(sorted(m.outcomes.items())),
        "tables": {
            str(i): [_rational_out(x) for x in t] for i, t in enumerate(m.tables)
        },
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> EmpiricalModel:
    return model_from_document(json_in(text))


def model_from_document(doc) -> EmpiricalModel:
    """The model of an already parsed model file."""
    payload = object_in(doc, "a model", ("hypergraph", "outcomes", "tables"))
    hypergraph = list_in(key_in(payload, "hypergraph", "a model"), "hypergraph")
    contexts = tuple(
        tuple(name_in(m, f"hypergraph[{i}]") for m in list_in(c, f"hypergraph[{i}]"))
        for i, c in enumerate(hypergraph)
    )
    measurements = tuple(sorted({m for c in contexts for m in c}))
    keys = [str(i) for i in range(len(contexts))]
    tables = object_in(key_in(payload, "tables", "a model"), "tables", keys)
    outcomes = object_in(
        key_in(payload, "outcomes", "a model"), "outcomes", measurements
    )
    return EmpiricalModel(
        hypergraph=CompatibilityHypergraph(measurements, contexts),
        outcomes={
            k: int_in(v, f"measurement {k!r} outcome count")
            for k, v in outcomes.items()
        },
        tables=tuple(
            _rationals_in(key_in(tables, key, "tables"), f'tables["{key}"]')
            for key in keys
        ),
    )
