"""Exact LP suite: response polytope, simplex-embedding feasibility,
contextual fraction, minimal negativity.

The central solvability decision: the ontic space for the feasibility
check is the vertex set of the response polytope.  Any valuation family
lies inside that polytope, so its mixtures can be rebased onto the
vertices without changing what is reproducible — which turns a bilinear
existence question into a finite linear program.

Everything here is exact rational; no floating point touches any
certification path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .connection import build_object_complex, decompose, valuation_cochain
from .core_model import (
    DisturbingModelError,
    EmpiricalModel,
    GptFragment,
    OnticRepresentation,
    assert_nondisturbing,
    equivalences,
    probability,
    restriction,
    split,
    state_equivalences,
    submodel,
    validate_fragment,
)
from .lp import LinearProgram, LpSolution
from .vorobyev import is_acyclic

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScaleCapError(ValueError):
    """Input is beyond the desk-scale caps of the exact enumerations."""


@dataclass(frozen=True)
class Limits:
    """Desk-scale caps of the exact enumerations: effects and effect
    equivalences entering the response polytope, and global assignments
    entering the contextual-fraction LP."""

    effects: int = 20
    equivalences: int = 12
    assignments: int = 4096


# ---------------------------------------------------------------------------
# response polytope


@dataclass(frozen=True)
class ResponsePolytope:
    """Feasible effect valuations: the box [0, 1] per effect, and one
    equality per effect dependence with the unit effect valued 1.

    ``vertices`` is the irredundant, lexicographically sorted extreme-point
    list over effect indices.  ``status`` is "empty" when there is none.
    """

    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def status(self) -> str:
        return "ok" if self.vertices else "empty"

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def _cut_vertices(dim, extras):
    """Vertex set of {t in [0, 1]^dim : a.t <= beta for (a, beta) in extras}.

    Incremental double description seeded on the dim + 1 corners of the
    simplex {t >= 0, sum t <= dim}, which contains the unit cube: the origin
    and dim * e_k for each k.  The ``extras`` cut it first, and then the dim
    cuts t_k <= 1; the unit cuts come last, because cutting the simplex by
    them first would rebuild the cube's 2**dim corners.  Each vertex carries
    its incidence (a bitmask of the constraints it lies on: bit k for the
    face t_k = 0, bit dim for sum t = dim, then one per cut) forward: a
    surviving vertex gains at most the current cut, and a new vertex on the
    edge between i and j meets exactly the constraints the two share plus
    the cut.  Two vertices are adjacent when no third vertex lies on every
    constraint they share, which stays exact under degeneracy.  An edge
    lies on at least dim - 1 constraints, so a pair sharing fewer is no
    edge and skips that scan.
    """
    faces = (1 << dim) - 1  # every t_k = 0
    points = [(_ZERO,) * dim]
    zeros = [faces]
    for k in range(dim):
        points.append(tuple(Fraction(dim) if j == k else _ZERO for j in range(dim)))
        zeros.append((faces & ~(1 << k)) | (1 << dim))
    units = [([_ONE if j == k else _ZERO for j in range(dim)], _ONE) for k in range(dim)]
    for label, (a, beta) in enumerate([*extras, *units], start=dim + 1):
        bit = 1 << label
        margins = [sum(c * x for c, x in zip(a, p)) - beta for p in points]
        keep = [i for i, v in enumerate(margins) if v < 0]
        on = [i for i, v in enumerate(margins) if v == 0]
        drop = [i for i, v in enumerate(margins) if v > 0]
        if not keep and not on:
            return []
        for i in on:
            zeros[i] |= bit
        new_points = []
        new_zeros = []
        for i in keep:
            for j in drop:
                shared = zeros[i] & zeros[j]
                if shared.bit_count() < dim - 1 or any(
                    w != i and w != j and shared & zeros[w] == shared
                    for w in range(len(points))
                ):
                    continue
                lam = margins[i] / (margins[i] - margins[j])
                new_points.append(
                    tuple(
                        x + lam * (y - x)
                        for x, y in zip(points[i], points[j])
                    )
                )
                new_zeros.append(shared | bit)
        survivors = keep + on
        points = [points[i] for i in survivors] + new_points
        zeros = [zeros[i] for i in survivors] + new_zeros
    return points


def response_vertices(
    f: GptFragment, *, limits: Limits = Limits()
) -> ResponsePolytope:
    """Exact vertex enumeration of the response polytope.

    A response gives each effect a value in [0, 1] and the unit effect the
    value 1, and satisfies every dependence among them
    (``core_model.equivalences(f, "effect")``, the unit effect last).  On a
    validated fragment each measurement's normalization is one of those
    dependencies.

    One reduction of the equality system ``[A | b]`` parametrises its
    solutions by the free coordinates t: x_free = t, and each pivot
    coordinate is x_p = c_p - a_p.t.  Each pivot row gives the two cuts
    a_p.t <= c_p and -a_p.t <= 1 - c_p, and the bounds 0 <= x_free <= 1 are
    the unit cube; :func:`_cut_vertices` seeds on a simplex around that cube
    and adds the unit bounds last, so its work follows the vertices found,
    not the cube's 2**d corners.

    The enumeration is memoised in-process on the exact equality system,
    for the :data:`POLYTOPE_MEMO_SIZE` most recently used systems; the
    ``limits`` are checked on every call.
    """
    n = len(f.effects)
    if n > limits.effects:
        raise ScaleCapError(f"scale cap: {n} effects exceeds {limits.effects}")
    eqs = equivalences(f, "effect")
    if len(eqs) > limits.equivalences:
        raise ScaleCapError(
            f"scale cap: {len(eqs)} equivalences exceeds {limits.equivalences}"
        )
    # the unit effect, object n, is valued 1: its term moves to the right
    equalities = tuple(
        (tuple(c.get(r, _ZERO) for r in range(n)), -c.get(n, _ZERO))
        for c in (eq.coefficients for eq in eqs)
    )
    return _polytope(equalities, n)


#: How many equality systems keep their response polytope memoised.  A noise
#: sweep reuses one system; a round of fragments with their own effects,
#: such as the benchmark's embedding workload, uses 18.
POLYTOPE_MEMO_SIZE = 32


@lru_cache(maxsize=POLYTOPE_MEMO_SIZE)
def _polytope(
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...], n: int
) -> ResponsePolytope:
    """The response polytope of the exact system ``row . x = rhs`` over
    ``[0, 1]^n``, memoised on that system: it depends on the effects and
    their dependencies, never on the states, and its tuples are safe to
    share."""
    reduced, pivots = linalg.rref([[*row, rhs] for row, rhs in equalities])
    if pivots and pivots[-1] == n:  # a row 0 = 1: no solution at all
        return ResponsePolytope(())
    free = [j for j in range(n) if j not in pivots]
    rows = [([row[j] for j in free], row[n]) for row in reduced[: len(pivots)]]
    extras = []
    for a, c in rows:
        extras.append((a, c))
        extras.append(([-x for x in a], _ONE - c))
    found = set()
    for t in _cut_vertices(len(free), extras):
        x = dict(zip(free, t))
        for p, (a, c) in zip(pivots, rows):
            x[p] = c - sum(ak * tk for ak, tk in zip(a, t))
        found.add(tuple(x[r] for r in range(n)))
    return ResponsePolytope(tuple(sorted(found)))


# ---------------------------------------------------------------------------
# simplex-embedding feasibility and negativity


def _embedding_program(f: GptFragment, signed: bool, limits: Limits):
    """The embedding LP over the response vertices, ready to solve.

    Each ontic point lam and state s get a weight: mu_lam_s >= 0, or, when
    ``signed``, the split pos_lam_s - neg_lam_s with the total neg mass as
    the objective.  The rows make every state's weights sum to one, hold
    every state dependence pointwise, and reproduce the fragment's
    probability table through the vertex valuations.
    """
    if f.transformations:
        raise ValueError(
            "fragments with transformations are not supported by the "
            "embedding feasibility check"
        )
    validate_fragment(f).refuse("fragment")
    eqs_states = state_equivalences(f)
    polytope = response_vertices(f, limits=limits)
    if polytope.is_empty:
        raise AssertionError(
            "a validated fragment's own probabilities inhabit the polytope"
        )
    vertices = polytope.vertices
    n_states = len(f.states)
    program = LinearProgram("min")
    weight: dict[tuple[int, int], dict[str, Fraction]] = {}
    for lam in range(len(vertices)):
        for s in range(n_states):
            if signed:
                pos, neg = f"pos_{lam}_{s}", f"neg_{lam}_{s}"
                program.add_variable(pos)
                program.add_variable(neg, objective=1)
                weight[lam, s] = {pos: _ONE, neg: -_ONE}
            else:
                program.add_variable(f"mu_{lam}_{s}")
                weight[lam, s] = {f"mu_{lam}_{s}": _ONE}

    for s in range(n_states):
        row: dict[str, Fraction] = {}
        for lam in range(len(vertices)):
            row.update(weight[lam, s])
        program.add_constraint(row, "=", 1)
    for eq in eqs_states:
        for lam in range(len(vertices)):
            row = {}
            for s, c in eq.coefficients.items():
                for var, sign in weight[lam, s].items():
                    row[var] = sign * c
            program.add_constraint(row, "=", 0)
    for r in range(len(f.effects)):
        for s in range(n_states):
            row = {}
            for lam, vertex in enumerate(vertices):
                if vertex[r] == 0:
                    continue
                for var, sign in weight[lam, s].items():
                    row[var] = sign * vertex[r]
            program.add_constraint(row, "=", probability(f, s, r))
    return program


def noncontextual_lp(f: GptFragment, *, limits: Limits = Limits()) -> LpSolution:
    """Feasibility of a classical embedding over the response vertices.

    Searches for per-state mixtures mu(lam | s) >= 0 that sum to one,
    respect every state dependence pointwise, and reproduce the fragment's
    probability table through the vertex valuations.  Optimal means such
    an embedding exists; infeasible carries an exact Farkas certificate.
    """
    return _embedding_program(f, False, limits).solve()


def minimal_negativity(
    f: GptFragment, *, limits: Limits = Limits()
) -> tuple[LpSolution, Fraction | None]:
    """Cheapest signed embedding: mu = plus - minus, minimizing the total
    minus mass.  Zero exactly when the unsigned feasibility check passes."""
    solution = _embedding_program(f, True, limits).solve()
    if solution.status != "optimal":
        raise AssertionError(
            "signed mixtures always reach the table of a validated fragment"
        )
    return solution, solution.objective


# ---------------------------------------------------------------------------
# contextual fraction


@dataclass(frozen=True)
class FractionReport:
    """Convex split of an empirical model's behavior.

    ``ncf + cf + df == 1`` always.  ``p_nc`` is the normalized globally
    explainable part, ``p_sc`` the normalized remainder, ``p_d`` the
    normalized disturbing part (only from the disturbance pipeline).
    ``p_sc`` is the remainder only and carries no strong-contextuality
    certificate.
    """

    ncf: Fraction
    cf: Fraction
    df: Fraction
    p_nc: EmpiricalModel | None
    p_sc: EmpiricalModel | None
    p_d: EmpiricalModel | None = None

    def __post_init__(self):
        total = self.ncf + self.cf + self.df
        if total != 1:
            raise AssertionError(f"fractions sum to {total}")
        for part in (self.ncf, self.cf, self.df):
            if not 0 <= part <= 1:
                raise AssertionError(f"fraction {part} lies outside [0, 1]")


def contextual_fraction(
    m: EmpiricalModel, *, limits: Limits = Limits()
) -> FractionReport:
    """Largest weight of a global-assignment mixture fitting under the model.

    Maximizes the total weight of deterministic global assignments whose
    context restrictions stay below every table entry; the optimum is the
    noncontextual fraction, its complement the contextual fraction, and
    the two normalized parts recompose the input exactly.

    The model is checked to be non-disturbing, and then its assignment
    count against ``limits``, before anything else.  On an acyclic
    hypergraph (:func:`contextua.vorobyev.is_acyclic`) no LP is solved:
    by Vorob'ev's theorem every non-disturbing model there extends to a
    global distribution, so ncf = 1, ``p_nc`` is the model itself and
    ``p_sc`` is None.  That is the LP's own report, because a total
    weight of 1 under tables that each sum to 1 restricts to the tables
    exactly.
    """
    assert_nondisturbing(m)
    h = m.hypergraph
    count = math.prod(m.outcomes[x] for x in h.measurements)
    if count > limits.assignments:
        raise ScaleCapError(
            f"scale cap: more than {limits.assignments} global assignments"
        )
    if is_acyclic(h):
        return FractionReport(
            ncf=_ONE, cf=_ZERO, df=_ZERO, p_nc=submodel(m, m.tables, _ONE), p_sc=None
        )
    # restrictions[i][g]: the entry of context i that assignment g lands on
    restrictions = [restriction(h.measurements, c, m.outcomes) for c in h.contexts]
    program = LinearProgram("max")
    for g in range(count):
        program.add_variable(f"w_{g}", objective=1)
    for table, column in zip(m.tables, restrictions):
        rows: list[dict[str, Fraction]] = [{} for _ in table]
        for g, flat in enumerate(column):
            rows[flat][f"w_{g}"] = _ONE
        for row, value in zip(rows, table):
            program.add_constraint(row, "<=", value)
    solution = program.solve()
    if solution.status != "optimal":
        raise AssertionError(
            "the zero mixture is feasible and the total weight is bounded"
        )
    ncf = solution.objective

    masses = []
    for table, column in zip(m.tables, restrictions):
        mass = [_ZERO] * len(table)
        for g, flat in enumerate(column):
            mass[flat] += solution.assignment[f"w_{g}"]
        masses.append(mass)
    p_nc, p_sc = split(m, masses, ncf)
    return FractionReport(ncf=ncf, cf=1 - ncf, df=_ZERO, p_nc=p_nc, p_sc=p_sc)


# ---------------------------------------------------------------------------
# witness-decomposition bridge


def fraction_via_connection(
    f: GptFragment,
    solution: LpSolution,
    state_index: int = 0,
    measurement_index: int = 0,
    *,
    limits: Limits = Limits(),
) -> Fraction:
    """Noncontextual weight recovered from the witness's exact parts.

    Every response vertex used by the witness is turned into an effect-loop
    valuation, split into potential and connection; the potential part's
    spoke values are paired with one measurement's effects and averaged
    under the witness weights.  On feasible instances each valuation is
    fully exact, so the result equals the embedding's total weight — the
    noncontextual fraction of the reproduced behavior.  ``limits`` must be
    the witness's own, as the vertices are enumerated again.
    """
    if solution.status != "optimal":
        raise ValueError("bridge needs a feasible embedding witness")
    vertices = response_vertices(f, limits=limits).vertices
    oc = build_object_complex("effect", f, equivalences(f, "effect"), "topological")
    # each vertex is one ontic value: effect r responds vertex[r] there
    rep = OnticRepresentation(len(vertices), (), tuple(zip(*vertices)))
    total = _ZERO
    for lam in range(len(vertices)):
        weight = solution.assignment.get(f"mu_{lam}_{state_index}", _ZERO)
        if weight == 0:
            continue
        xi = valuation_cochain(oc, rep, lam)
        dec = decompose(oc, xi)
        for r in f.measurements[measurement_index]:
            spoke = oc.star_edge(r)
            total += weight * (xi[spoke] - dec.connection[spoke])
    return total
