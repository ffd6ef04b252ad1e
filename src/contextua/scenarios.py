"""Canonical fragments, empirical models, and random corpora.

Everything quantum lives here: Born-rule numbers are computed in floating
point and rationalized once per independent table entry (denominator bound
10**6), so every module downstream of a generator works with exact
rationals.  Generators check their own output contracts — fragments
validate, empirical model tables are non-disturbing — rather than trusting
the construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

from ._rat import excerpt, rationalize
from .core_model import (
    EmpiricalModel,
    GptFragment,
    OnticRepresentation,
    assert_nondisturbing,
    assignments,
    probability,
    validate_fragment,
)
from .ddg import SimplicialComplex
from .interference import EventMeasure
from .vorobyev import CompatibilityHypergraph, is_acyclic

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Measurement angles maximizing c(a0,b0) + c(a0,b1) + c(a1,b0) - c(a1,b1)
# for the singlet-type correlator c(x, y) = cos(x - y): all four terms hit
# cos(pi/4), so the combination reaches 2*sqrt(2).
TSIRELSON_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

# Overlap of the optimal pentagram rays with the symmetric axis state:
# <psi|v_i><v_i|psi> = 1/sqrt(5) for every ray i.
KCBS_OVERLAP = 1.0 / math.sqrt(5.0)


def _check_model(m: EmpiricalModel) -> EmpiricalModel:
    """Raise DisturbingModelError unless every context intersection agrees."""
    assert_nondisturbing(m)
    return m


def _check_fragment(f: GptFragment) -> GptFragment:
    validate_fragment(f).refuse("generated fragment")
    return f


# ---------------------------------------------------------------------------
# exact fragments


def classical_simplex(n: int) -> GptFragment:
    """Simplex theory on ``n`` outcomes: corner states, coordinate effects."""
    if n < 2:
        raise ValueError(f"need at least two outcomes, got {excerpt(str(n))}")
    states = tuple(
        tuple(_ONE if j == i else _ZERO for j in range(n)) for i in range(n)
    )
    return _check_fragment(
        GptFragment(
            dimension=n,
            states=states,
            effects=states,
            unit_effect=tuple(_ONE for _ in range(n)),
            measurements=(tuple(range(n)),),
        )
    )


def gbit() -> GptFragment:
    """Square-state theory: 4 extremal states, 2 binary measurements.

    The four states are the corners of a square at fixed height; the two
    measurements read off the two square coordinates.  The alternating sum
    of the corners vanishes, which is the single state dependence.
    """
    half = Fraction(1, 2)
    states = (
        (_ONE, _ONE, _ONE),
        (-_ONE, _ONE, _ONE),
        (-_ONE, -_ONE, _ONE),
        (_ONE, -_ONE, _ONE),
    )
    effects = (
        (half, _ZERO, half),
        (-half, _ZERO, half),
        (_ZERO, half, half),
        (_ZERO, -half, half),
    )
    return _check_fragment(
        GptFragment(
            dimension=3,
            states=states,
            effects=effects,
            unit_effect=(_ZERO, _ZERO, _ONE),
            measurements=((0, 1), (2, 3)),
        )
    )


def halving_fragment() -> GptFragment:
    """Two-outcome classical fragment with a mixed third state.

    The third state is the even mixture of the two corners, so the state
    dependence has weights (1, 1, -2).  The second measurement halves the
    first effect, producing effect dependencies that are not sign-balanced.
    """
    half = Fraction(1, 2)
    return _check_fragment(
        GptFragment(
            dimension=2,
            states=((_ONE, _ZERO), (_ZERO, _ONE), (half, half)),
            effects=((_ONE, _ZERO), (_ZERO, _ONE), (half, _ZERO), (half, _ONE)),
            unit_effect=(_ONE, _ONE),
            measurements=((0, 1), (2, 3)),
        )
    )


_QUBIT_AXES = (
    (_ONE, _ZERO, _ZERO),
    (_ZERO, _ONE, _ZERO),
    (_ZERO, _ZERO, _ONE),
)


def _into_ball(point: Sequence[float | Fraction]) -> tuple[Fraction, ...]:
    """Rationalize a Bloch vector and shrink it exactly into the unit ball."""
    norm = math.sqrt(sum(float(x) ** 2 for x in point))
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector {tuple(point)} lies outside the unit ball")
    vec = tuple(rationalize(x) for x in point)
    sq = sum(x * x for x in vec)
    if sq > 1:
        scale = rationalize(1.0 / math.sqrt(float(sq)))
        while scale * scale * sq > 1:
            scale *= Fraction(999_999, 1_000_000)
        vec = tuple(scale * x for x in vec)
    return vec


def qubit_fragment(
    points: Sequence[Sequence[float | Fraction]] | None = None,
    axes: Sequence[Sequence[float | Fraction]] | None = None,
) -> GptFragment:
    """Qubit in the Bloch picture: state (1, r), effect (1/2, a/2).

    ``points`` are the state Bloch vectors (default: the six axis points),
    ``axes`` the measurement directions (default: x, y, z).  Inputs are
    rationalized and shrunk into the unit ball, which keeps every pairing
    (1 +- a.r)/2 inside [0, 1] exactly.
    """
    half = Fraction(1, 2)
    ball_axes = (
        _QUBIT_AXES if axes is None else tuple(_into_ball(a) for a in axes)
    )
    if points is None:
        ball_points = tuple(a for a in ball_axes) + tuple(
            tuple(-x for x in a) for a in ball_axes
        )
    else:
        ball_points = tuple(_into_ball(p) for p in points)
    states = tuple((_ONE,) + r for r in ball_points)
    effects = []
    measurements = []
    for a in ball_axes:
        measurements.append((len(effects), len(effects) + 1))
        effects.append((half,) + tuple(x / 2 for x in a))
        effects.append((half,) + tuple(-x / 2 for x in a))
    return _check_fragment(
        GptFragment(
            dimension=4,
            states=states,
            effects=tuple(effects),
            unit_effect=(_ONE, _ZERO, _ZERO, _ZERO),
            measurements=tuple(measurements),
        )
    )


def _pr_components() -> tuple[tuple[Fraction, ...], ...]:
    """Correlator-coordinate states (1, a0, a1, b0, b1, a0b0, a0b1, a1b0, a1b1)."""

    def corr(c00, c01, c10, c11):
        return (_ONE, _ZERO, _ZERO, _ZERO, _ZERO) + tuple(
            Fraction(c) for c in (c00, c01, c10, c11)
        )

    def det(a0, a1, b0, b1):
        return (_ONE,) + tuple(
            Fraction(v) for v in (a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        )

    return (
        corr(1, 1, 1, -1),
        corr(-1, -1, -1, 1),
        det(1, 1, 1, 1),
        det(1, 1, -1, -1),
        det(-1, -1, 1, 1),
        det(-1, -1, -1, -1),
    )


def pr_box_fragment() -> GptFragment:
    """Two-party binary no-signalling fragment in correlator coordinates.

    Nine components: the unit, four single-party expectations, and four
    product expectations.  Sixteen effects (one per outcome pair of each
    measurement pair), six states: the two extremal correlated boxes and
    four deterministic ones.  The average of the correlated boxes meets
    the average of the four deterministic states, which is the one state
    dependence the construction plants.
    """
    quarter = Fraction(1, 4)
    effects = []
    measurements = []
    for x in range(2):
        for y in range(2):
            measurements.append(tuple(len(effects) + k for k in range(4)))
            for i in range(2):
                for j in range(2):
                    vec = [_ZERO] * 9
                    vec[0] = quarter
                    vec[1 + x] = quarter * (-1) ** i
                    vec[3 + y] = quarter * (-1) ** j
                    vec[5 + 2 * x + y] = quarter * (-1) ** (i + j)
                    effects.append(tuple(vec))
    return _check_fragment(
        GptFragment(
            dimension=9,
            states=_pr_components(),
            effects=tuple(effects),
            unit_effect=(_ONE,) + (_ZERO,) * 8,
            measurements=tuple(measurements),
        )
    )


def noisy_pr_fragment(weight: Fraction | float = Fraction(3, 4)) -> GptFragment:
    """PR fragment with every state mixed toward the uniform box.

    ``weight`` is the surviving extremal fraction; the uniform box is the
    correlator-free state (1, 0, ..., 0).  Mixing each state with the same
    fixed vector preserves the state dependence because its coefficients
    sum to zero.  An exact weight (an int or a Fraction) stays exact; only
    a float is snapped to a denominator of at most 10**6.
    """
    w = rationalize(weight) if isinstance(weight, float) else weight
    if not 0 <= w <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {excerpt(str(w))}")
    base = pr_box_fragment()
    uniform = (_ONE,) + (_ZERO,) * 8
    states = tuple(
        tuple(w * s + (1 - w) * u for s, u in zip(state, uniform))
        for state in base.states
    )
    return _check_fragment(
        GptFragment(
            dimension=9,
            states=states,
            effects=base.effects,
            unit_effect=base.unit_effect,
            measurements=base.measurements,
        )
    )


# ---------------------------------------------------------------------------
# empirical models

_TWO_PARTY = CompatibilityHypergraph(
    measurements=("a0", "a1", "b0", "b1"),
    contexts=(("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")),
)


def _two_party_model(tables: Sequence[Sequence[Fraction]]) -> EmpiricalModel:
    """The model on ``_TWO_PARTY`` with these four context tables."""
    return _check_model(
        EmpiricalModel(
            hypergraph=_TWO_PARTY,
            outcomes={m: 2 for m in _TWO_PARTY.measurements},
            tables=tuple(tuple(t) for t in tables),
        )
    )


def _correlator_tables(correlators: Sequence[Fraction]) -> list[tuple]:
    """Uniform-marginal context tables from four exact correlators."""
    tables = []
    for c in correlators:
        if abs(c) > 1:
            raise AssertionError(f"correlator {c} out of range")
        agree = (1 + c) / 4
        differ = (1 - c) / 4
        tables.append((agree, differ, differ, agree))
    return tables


def pr_box() -> EmpiricalModel:
    """Extremal no-signalling box: outcomes agree except when x = y = 1."""
    return _two_party_model(
        _correlator_tables((Fraction(1), Fraction(1), Fraction(1), Fraction(-1)))
    )


def two_party_model_from_fragment(f: GptFragment) -> EmpiricalModel:
    """Two-party table read off state 0 of a correlator-coordinate fragment.

    Effects ``4 * ctx .. 4 * ctx + 3`` are the row-major outcome table of
    context ``ctx``, in the measurement order of :func:`pr_box_fragment`.
    """
    return _two_party_model(
        [probability(f, 0, 4 * ctx + flat) for flat in range(4)] for ctx in range(4)
    )


def planted_gap_model(gap: Fraction) -> EmpiricalModel:
    """Path a-b-c whose contexts disagree by ``gap`` on the marginal of b.

    The (a, b) table is uniform; the (b, c) table gives b = 0 the weight
    1/2 - gap, so the model disturbs for every gap in (0, 1/2].
    """
    if not 0 <= gap <= Fraction(1, 2):
        raise ValueError(f"gap must lie in [0, 1/2], got {excerpt(str(gap))}")
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    q = Fraction(1, 2) - gap
    uniform = (Fraction(1, 4),) * 4
    skewed = (q / 2, q / 2, (1 - q) / 2, (1 - q) / 2)
    return EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, (uniform, skewed))


def nudged_box(g: Fraction) -> EmpiricalModel:
    """:func:`pr_box` with context (a1, b1) pulled toward the corner
    (1, 0, 0, 0) by weight ``g``; it disturbs for every g in (0, 1]."""
    if not 0 <= g <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {excerpt(str(g))}")
    box = pr_box()
    corner = (_ONE, _ZERO, _ZERO, _ZERO)
    tables = list(box.tables)
    tables[3] = tuple((1 - g) * p + g * c for p, c in zip(tables[3], corner))
    return EmpiricalModel(box.hypergraph, dict(box.outcomes), tuple(tables))


def chsh_quantum(
    angles: Sequence[float] | None = None,
) -> EmpiricalModel:
    """Singlet-type two-party model with correlator cos(angle difference).

    ``angles`` is (a0, a1, b0, b1); the default is the maximizing set.
    Each correlator is rationalized once, after which the uniform marginals
    are exact by construction.
    """
    a0, a1, b0, b1 = TSIRELSON_ANGLES if angles is None else tuple(angles)
    correlators = tuple(
        rationalize(math.cos(x - y)) for x in (a0, a1) for y in (b0, b1)
    )
    return _two_party_model(_correlator_tables(correlators))


def chsh_value(m: EmpiricalModel) -> Fraction:
    """c00 + c01 + c10 - c11 from a two-party binary model's tables."""
    values = []
    for i in range(4):
        e = _ZERO
        for (a, b), p in zip(m.assignments(m.hypergraph.contexts[i]), m.tables[i]):
            e += p if a == b else -p
        values.append(e)
    return values[0] + values[1] + values[2] - values[3]


def kcbs_quantum() -> EmpiricalModel:
    """Pentagon of exclusive binary measurements at the symmetric optimum.

    Adjacent measurements never both fire, and each fires with the same
    rationalized probability r ~ 1/sqrt(5); the shared value makes every
    intersection marginal agree exactly.
    """
    r = rationalize(KCBS_OVERLAP)
    names = tuple(f"v{i}" for i in range(5))
    contexts = tuple((names[i], names[(i + 1) % 5]) for i in range(5))
    table = (1 - 2 * r, r, r, _ZERO)
    return _check_model(
        EmpiricalModel(
            hypergraph=CompatibilityHypergraph(names, contexts),
            outcomes={n: 2 for n in names},
            tables=tuple(table for _ in contexts),
        )
    )


def kcbs_value(m: EmpiricalModel) -> Fraction:
    """Sum over contexts of the probability that the first member fires."""
    total = _ZERO
    for i, context in enumerate(m.hypergraph.contexts):
        total += m.marginal(i, context[:1])[(1,)]
    return total


def product_model(
    h: CompatibilityHypergraph,
    outcomes: Mapping[str, int],
    marginals: Mapping[str, Sequence[Fraction]],
) -> EmpiricalModel:
    """Independent-measurement model: every context table is a product."""
    tables = []
    for context in h.contexts:
        table = []
        for assignment in assignments(context, outcomes):
            p = _ONE
            for m, o in zip(context, assignment):
                p *= Fraction(marginals[m][o])
            table.append(p)
        tables.append(tuple(table))
    return _check_model(
        EmpiricalModel(hypergraph=h, outcomes=dict(outcomes), tables=tuple(tables))
    )


def induced_singleton_model(f: GptFragment, state_index: int) -> EmpiricalModel:
    """One singleton context per fragment measurement, read off one state."""
    names = tuple(f"m{i}" for i in range(len(f.measurements)))
    outcomes = {
        name: len(meas) for name, meas in zip(names, f.measurements)
    }
    tables = tuple(
        tuple(probability(f, state_index, r) for r in meas)
        for meas in f.measurements
    )
    return _check_model(
        EmpiricalModel(
            hypergraph=CompatibilityHypergraph(names, tuple((n,) for n in names)),
            outcomes=outcomes,
            tables=tables,
        )
    )


# ---------------------------------------------------------------------------
# measures


def two_slit_measure(phase=0) -> EventMeasure:
    """Two paths of equal amplitude at relative ``phase``: masses 1/2, 1/2 and
    |psi_a + psi_b|^2 = 1 + cos(phase), the cosine rationalized once as
    :func:`chsh_quantum` rationalizes its correlators."""
    phase = _as_float("phase", phase)
    if not math.isfinite(phase):
        raise ValueError(f"phase {phase} is not finite")
    half, join = Fraction(1, 2), 1 + rationalize(math.cos(phase))
    return EventMeasure(("a", "b"), {frozenset("a"): half, frozenset("b"): half, frozenset("ab"): join})


# ---------------------------------------------------------------------------
# random corpora


def _random_distribution(rng: Random, k: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(0, 6) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_complex(rng: Random, max_simplices: int = 30) -> SimplicialComplex:
    """Face closure of a few random generators, capped at ``max_simplices``."""
    while True:
        n = rng.randint(3, 8)
        generators = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, min(4, n))
            generators.append(rng.sample(range(n), size))
        complex_ = SimplicialComplex(generators)
        total = sum(
            len(complex_.simplices(d)) for d in range(complex_.dimension + 1)
        )
        if total <= max_simplices:
            return complex_


def random_acyclic_hypergraph(
    rng: Random, max_measurements: int | None = None
) -> CompatibilityHypergraph:
    """Join-tree growth: each new context reuses part of one existing context.

    Every context after the first takes a subset of a single previous
    context plus at least one fresh measurement, so the result always
    reduces to the empty hypergraph.  ``max_measurements`` caps the total
    measurement count (useful to keep downstream LPs small).
    """
    fresh = 0
    cap = max_measurements if max_measurements is not None else 11

    def take(k):
        nonlocal fresh
        names = tuple(f"m{fresh + i}" for i in range(k))
        fresh += k
        return names

    contexts = [take(min(rng.randint(1, 3), cap))]
    for _ in range(rng.randint(0, 4)):
        if fresh >= cap:
            break
        anchor = rng.choice(contexts)
        shared = tuple(
            m for m in anchor if rng.random() < 0.5
        )
        contexts.append(shared + take(min(rng.randint(1, 2), cap - fresh)))
    measurements = tuple(f"m{i}" for i in range(fresh))
    h = CompatibilityHypergraph(measurements, tuple(contexts))
    if not is_acyclic(h):
        raise AssertionError("join-tree growth must give an acyclic hypergraph")
    return h


def _rip_order(h: CompatibilityHypergraph) -> list[int] | None:
    """Construction order in which each context meets earlier ones inside
    a single earlier context; None exactly when ``h`` is not acyclic."""
    sets = [frozenset(c) for c in h.contexts]
    remaining = list(range(len(sets)))
    peeled = []
    while remaining:
        for idx in remaining:
            others = [j for j in remaining if j != idx]
            separator = sets[idx] & frozenset().union(*(sets[j] for j in others))
            if not others or any(separator <= sets[j] for j in others):
                peeled.append(idx)
                remaining.remove(idx)
                break
        else:
            return None
    peeled.reverse()
    return peeled


def _table_marginal(
    table: dict, context: Sequence[str], onto: Sequence[str]
) -> dict:
    # Not EmpiricalModel.marginal: the keys come in the table dict's
    # insertion order, and random_nondisturbing_model draws one conditional
    # per key in that order.  Row-major keys would reorder the draws and
    # change every model (and benchmark input) generated from a seed.
    positions = [list(context).index(m) for m in onto]
    out: dict[tuple[int, ...], Fraction] = {}
    for assignment, p in table.items():
        key = tuple(assignment[pos] for pos in positions)
        out[key] = out.get(key, _ZERO) + p
    return out


def random_nondisturbing_model(
    h: CompatibilityHypergraph,
    rng: Random,
    outcomes: Mapping[str, int] | None = None,
) -> EmpiricalModel:
    """Random exactly-consistent empirical model on ``h``.

    On an acyclic hypergraph the tables are built in join-tree order:
    each context extends the marginal it inherits by a fresh random
    conditional, which parameterizes every consistent family.  On cyclic
    hypergraphs the fallback is a random mixture of deterministic global
    assignments (consistent, but never contextual).
    """
    if outcomes is None:
        outcomes = {m: rng.randint(2, 3) for m in h.measurements}
    tables: dict[int, dict] = {}
    if (order := _rip_order(h)) is not None:
        placed: list[int] = []
        for idx in order:
            context = h.contexts[idx]
            seen = {m for j in placed for m in h.contexts[j]}
            shared = tuple(m for m in context if m in seen)
            rest = tuple(m for m in context if m not in shared)
            if not placed or not shared:
                base = {(): _ONE}
                shared = ()
                rest = tuple(context)
            else:
                anchor = next(
                    j for j in placed if set(shared) <= set(h.contexts[j])
                )
                base = _table_marginal(tables[anchor], h.contexts[anchor], shared)
            rest_keys = list(assignments(rest, outcomes))
            table: dict[tuple[int, ...], Fraction] = {}
            for shared_key, mass in base.items():
                conditional = _random_distribution(rng, len(rest_keys))
                for rest_key, weight in zip(rest_keys, conditional):
                    merged = dict(zip(shared, shared_key))
                    merged.update(zip(rest, rest_key))
                    full = tuple(merged[m] for m in context)
                    table[full] = mass * weight
            tables[idx] = table
            placed.append(idx)
    else:
        count = rng.randint(1, 6)
        globals_ = [
            {m: rng.randrange(outcomes[m]) for m in h.measurements}
            for _ in range(count)
        ]
        weights = _random_distribution(rng, count)
        for idx, context in enumerate(h.contexts):
            table = {}
            for g, w in zip(globals_, weights):
                key = tuple(g[m] for m in context)
                table[key] = table.get(key, _ZERO) + w
            tables[idx] = table
    flat = []
    for idx, context in enumerate(h.contexts):
        flat.append(
            tuple(
                tables[idx].get(assignment, _ZERO)
                for assignment in assignments(context, outcomes)
            )
        )
    return _check_model(
        EmpiricalModel(hypergraph=h, outcomes=dict(outcomes), tables=tuple(flat))
    )


def random_fragment(rng: Random, with_transformations: bool = False) -> GptFragment:
    """Random simplex-embedded fragment; always validates.

    States are random distributions, each measurement is a random fuzzy
    partition of the coordinates, so with the unit included the effect
    family always outnumbers the dimension and carries dependencies.
    """
    dim = rng.randint(2, 4)
    states = tuple(_random_distribution(rng, dim) for _ in range(rng.randint(2, 4)))
    effects: list[tuple[Fraction, ...]] = []
    measurements = []
    for _ in range(rng.randint(2, 3)):
        k = rng.randint(2, 3)
        rows = [_random_distribution(rng, k) for _ in range(dim)]
        measurements.append(tuple(len(effects) + i for i in range(k)))
        for i in range(k):
            effects.append(tuple(rows[j][i] for j in range(dim)))
    transformations = ()
    if with_transformations:
        transformations = tuple(
            tuple(
                tuple(column[row] for column in columns)
                for row in range(dim)
            )
            for columns in (
                [_random_distribution(rng, dim) for _ in range(dim)]
                for _ in range(rng.randint(1, 2))
            )
        )
    return _check_fragment(
        GptFragment(
            dimension=dim,
            states=states,
            effects=tuple(effects),
            unit_effect=tuple(_ONE for _ in range(dim)),
            measurements=tuple(measurements),
            transformations=transformations,
        )
    )


def random_ontic_table(
    f: GptFragment, rng: Random, contextual: bool
) -> OnticRepresentation:
    """Random response/distribution tables for ``f``.

    With ``contextual=False`` the tables come from splitting the simplex
    corners of a simplex-embedded fragment: distributions, responses, and
    kernels are all read off the fragment's own vectors through the split,
    so every residual vanishes identically.  With ``contextual=True`` the
    tables are free random rationals and generically reproduce nothing.
    """
    n_trans = len(f.transformations)
    if contextual:
        lam = rng.randint(2, 4)
        distributions = tuple(
            _random_distribution(rng, lam) for _ in f.states
        )
        responses = tuple(
            tuple(Fraction(rng.randint(0, 8), 8) for _ in range(lam))
            for _ in f.effects
        )
        kernels = (
            tuple(
                tuple(_random_distribution(rng, lam) for _ in range(lam))
                for _ in range(n_trans)
            )
            if n_trans
            else None
        )
        return OnticRepresentation(lam, distributions, responses, kernels)

    split: list[tuple[int, Fraction]] = []
    for corner in range(f.dimension):
        if rng.random() < 0.3:
            a = Fraction(rng.randint(1, 3), 4)
            split.append((corner, a))
            split.append((corner, 1 - a))
        else:
            split.append((corner, _ONE))
    rng.shuffle(split)
    lam = len(split)
    distributions = tuple(
        tuple(c * state[j] for j, c in split) for state in f.states
    )
    responses = tuple(
        tuple(effect[j] for j, _ in split) for effect in f.effects
    )
    kernels = (
        tuple(
            tuple(
                tuple(c2 * matrix[j2][j1] for j2, c2 in split)
                for j1, _ in split
            )
            for matrix in f.transformations
        )
        if n_trans
        else None
    )
    return OnticRepresentation(lam, distributions, responses, kernels)


# ---------------------------------------------------------------------------
# named registry for the command line


#: Largest ``n`` the command line builds a simplex for: validation grows as
#: about n**3, so n = 64 takes about a second and n = 128 about ten.
CLASSICAL_SIMPLEX_CLI_MAX = 64


def _as_float(name: str, value) -> float:
    """``value`` as a float; a rational beyond the float range is refused
    by ``name``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


def _whole(name: str, value) -> int:
    if value != int(value):
        raise ValueError(f"{name} must be a whole number")
    return int(value)


def _classical_simplex_cli(n=3) -> GptFragment:
    n = _whole("n", n)
    if n > CLASSICAL_SIMPLEX_CLI_MAX:
        raise ValueError(
            f"n exceeds the command-line cap of {CLASSICAL_SIMPLEX_CLI_MAX}"
        )
    return classical_simplex(n)


def _random_fragment_cli(seed=0) -> GptFragment:
    return random_fragment(Random(_whole("seed", seed)))


def _random_acyclic_model_cli(seed=0) -> EmpiricalModel:
    """A binary model on a random acyclic hypergraph of at most six
    measurements; the tables draw from ``Random(seed + 1)``."""
    seed = _whole("seed", seed)
    h = random_acyclic_hypergraph(Random(seed), max_measurements=6)
    return random_nondisturbing_model(
        h, Random(seed + 1), outcomes={name: 2 for name in h.measurements}
    )


def _chsh_cli(a0=None, a1=None, b0=None, b1=None) -> EmpiricalModel:
    defaults = TSIRELSON_ANGLES
    angles = tuple(
        _as_float(name, v) if v is not None else d
        for name, v, d in zip(("a0", "a1", "b0", "b1"), (a0, a1, b0, b1), defaults)
    )
    return chsh_quantum(angles)


SCENARIOS: dict[str, tuple[str, object]] = {
    "classical-bit": ("fragment", lambda: classical_simplex(2)),
    "classical-simplex": ("fragment", _classical_simplex_cli),
    "gbit": ("fragment", gbit),
    "halving": ("fragment", halving_fragment),
    "qubit": ("fragment", lambda: qubit_fragment()),  # a --param is no vector list
    "pr-box-fragment": ("fragment", pr_box_fragment),
    "noisy-pr-fragment": ("fragment", noisy_pr_fragment),
    "pr-box": ("model", pr_box),
    "chsh-quantum": ("model", _chsh_cli),
    "kcbs-quantum": ("model", kcbs_quantum),
    "two-slit": ("measure", two_slit_measure),
    "random-fragment": ("fragment", _random_fragment_cli),
    "random-acyclic-model": ("model", _random_acyclic_model_cli),
}
