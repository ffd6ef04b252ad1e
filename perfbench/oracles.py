"""Checks of every analysis against computations made apart from the package.

Each ``check_<workload>`` returns a list of problems (empty when the output
is right).  Exact replays use the benchmark's own ``Fraction`` arithmetic;
dependency bases come from sympy, float references from scipy's HiGHS.
References depend only on the input, so they are computed once per input
and reused across rounds.  Nothing here runs inside a timed analysis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np
import sympy
from scipy.optimize import linprog
from sympy.matrices.normalforms import smith_normal_form

from contextua import noncontextuality as nc
from contextua.core_model import EmpiricalModel

TOL = 1e-6
ZERO = Fraction(0)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def dependencies(vectors) -> list[list[Fraction]]:
    """Basis of the exact linear dependencies among ``vectors`` (sympy)."""
    columns = sympy.Matrix(
        [[sympy.Rational(v[i].numerator, v[i].denominator) for v in vectors]
         for i in range(len(vectors[0]))]
    )
    return [
        [Fraction(int(x.p), int(x.q)) for x in vec] for vec in columns.nullspace()
    ]


def farkas_holds(certificate, matrix, rhs) -> bool:
    """y.A >= 0 in every column and y.b < 0, in exact arithmetic."""
    if certificate is None or not matrix:
        return False
    for j in range(len(matrix[0])):
        if sum((y * row[j] for y, row in zip(certificate, matrix)), ZERO) < 0:
            return False
    return _dot(certificate, rhs) < 0


def _scipy_min(cost, rows, rhs, ub_rows=None, ub_rhs=None):
    result = linprog(
        np.array(cost, dtype=float),
        A_ub=np.array(ub_rows, dtype=float) if ub_rows else None,
        b_ub=np.array(ub_rhs, dtype=float) if ub_rows else None,
        A_eq=np.array(rows, dtype=float) if rows else None,
        b_eq=np.array(rhs, dtype=float) if rows else None,
        bounds=[(0, None)] * len(cost),
        method="highs",
    )
    return result.fun if result.status == 0 else None


# ---------------------------------------------------------------------------
# embedding


#: Seeded directions along which the response polytope's maximum must be
#: reached at a listed vertex (see ``EmbeddingReference.vertex_problems``).
DIRECTIONS = 32


class EmbeddingReference:
    """What a correct embedding analysis of one fragment must agree with.

    ``vertices`` is the response-vertex list the checks replay against, in
    the order the package's LP columns use.
    """

    def __init__(self, f, vertices):
        self.f = f
        self.n_states = len(f.states)
        self.prob = [[_dot(e, s) for e in f.effects] for s in f.states]
        self.state_deps = dependencies(f.states)
        self.effect_deps = dependencies(list(f.effects) + [f.unit_effect])
        self.vertices = list(vertices)

    def is_valuation(self, v) -> bool:
        if any(not 0 <= x <= 1 for x in v):
            return False
        if any(sum(v[r] for r in m) != 1 for m in self.f.measurements):
            return False
        return all(_dot(c[:-1], v) + c[-1] == 0 for c in self.effect_deps)

    @cached_property
    def vertex_problems(self) -> list[str]:
        """Problems of the vertex list: an invalid or repeated vertex, or a
        seeded direction whose maximum over the valuation polytope (HiGHS
        on the box, the normalisations and the effect dependencies) beats
        every listed vertex, so that a vertex is missing."""
        problems = [
            f"invalid response vertex {v}" for v in self.vertices
            if not self.is_valuation(v)
        ]
        if len(set(self.vertices)) != len(self.vertices):
            problems.append("a response vertex is listed twice")
        n = len(self.f.effects)
        rows = [[1.0 if r in m else 0.0 for r in range(n)] for m in self.f.measurements]
        rhs = [1.0] * len(rows)
        for c in self.effect_deps:
            rows.append([float(x) for x in c[:-1]])
            rhs.append(-float(c[-1]))
        listed = np.array(self.vertices, dtype=float)
        rng = np.random.default_rng(n)
        for _ in range(DIRECTIONS):
            direction = rng.standard_normal(n)
            result = linprog(-direction, A_eq=np.array(rows), b_eq=np.array(rhs),
                             bounds=[(0, 1)] * n, method="highs")
            best = (listed @ direction).max()
            if result.status != 0 or -result.fun > best + TOL * (1 + abs(best)):
                problems.append(
                    f"a response vertex is missing: HiGHS reaches {-result.fun} "
                    f"along a direction where the listed vertices reach {best}"
                )
                break
        return problems

    @cached_property
    def negativity(self) -> float | None:
        """Minimal negativity from HiGHS on the signed LP over ``vertices``."""
        return self._scipy_negativity()

    def mixture_problems(self, mu, vertices=None) -> list[str]:
        """Replay a (signed) mixture mu[lam][s] against the fragment."""
        vertices = self.vertices if vertices is None else vertices
        problems = []
        lams = range(len(vertices))
        for s in range(self.n_states):
            if sum(mu[lam][s] for lam in lams) != 1:
                problems.append(f"state {s}: weights do not sum to 1")
        for c in self.state_deps:
            if any(_dot(c, mu[lam]) != 0 for lam in lams):
                problems.append("a state dependency is broken pointwise")
        for s in range(self.n_states):
            for r, p in enumerate(self.prob[s]):
                got = sum((mu[lam][s] * vertices[lam][r] for lam in lams), ZERO)
                if got != p:
                    problems.append(f"p(effect {r} | state {s}) is {got}, not {p}")
        return problems

    def rows_problems(self, matrix, rhs, vertices=None) -> list[str]:
        """Whether the solver's standard form encodes this embedding problem.

        Rows: one normalization per state, one per (dependency, vertex),
        one reproduction row per (effect, state); one column per (vertex,
        state) weight.
        """
        vertices = self.vertices if vertices is None else vertices
        ns, nl, ne = self.n_states, len(vertices), len(self.f.effects)
        col = lambda lam, s: lam * ns + s
        n_dep_rows = len(matrix) - ns - ne * ns
        if n_dep_rows != len(self.state_deps) * nl:
            return [f"{n_dep_rows} dependency rows, expected {len(self.state_deps) * nl}"]
        if len(matrix[0]) != nl * ns:
            return ["column count does not match vertices x states"]
        problems = []
        for s in range(ns):
            want = [col(lam, s) for lam in range(nl)]
            if rhs[s] != 1 or any(matrix[s][j] != 1 for j in want):
                problems.append(f"normalization row {s} is wrong")
        for k in range(n_dep_rows):
            row = matrix[ns + k]
            lam = k % nl
            c = [row[col(lam, s)] for s in range(ns)]
            combined = [
                _dot(c, [state[i] for state in self.f.states])
                for i in range(len(self.f.states[0]))
            ]
            if rhs[ns + k] != 0 or any(combined) or not any(c):
                problems.append(f"dependency row {ns + k} is not a state dependency")
        base = ns + n_dep_rows
        for r in range(ne):
            for s in range(ns):
                row = matrix[base + r * ns + s]
                if rhs[base + r * ns + s] != self.prob[s][r] or any(
                    row[col(lam, s)] != vertices[lam][r] for lam in range(nl)
                ):
                    problems.append(f"reproduction row ({r}, {s}) is wrong")
        return problems

    def _scipy_negativity(self):
        ns, nl = self.n_states, len(self.vertices)
        width = 2 * nl * ns
        pos = lambda lam, s: 2 * (lam * ns + s)
        rows, rhs = [], []

        def signed_row(entries):
            row = [0.0] * width
            for (lam, s), value in entries:
                row[pos(lam, s)] = float(value)
                row[pos(lam, s) + 1] = -float(value)
            return row

        for s in range(ns):
            rows.append(signed_row(((lam, s), 1) for lam in range(nl)))
            rhs.append(1.0)
        for c in self.state_deps:
            for lam in range(nl):
                rows.append(signed_row(((lam, s), c[s]) for s in range(ns)))
                rhs.append(0.0)
        for r in range(len(self.f.effects)):
            for s in range(ns):
                rows.append(signed_row(((lam, s), self.vertices[lam][r]) for lam in range(nl)))
                rhs.append(float(self.prob[s][r]))
        cost = [0.0, 1.0] * (nl * ns)
        return _scipy_min(cost, rows, rhs)


def witness(solution, prefix, nl, ns) -> list[list[Fraction]]:
    """Weights w[lam][s] of the variables ``<prefix>_<lam>_<s>`` in an LP's
    assignment."""
    a = solution.assignment
    return [[a.get(f"{prefix}_{lam}_{s}", ZERO) for s in range(ns)] for lam in range(nl)]


def feasibility_problems(feasibility, ref: EmbeddingReference, vertices=None) -> list[str]:
    """An nc-check verdict replayed against the fragment: a feasible witness
    exactly, an infeasible one by its Farkas certificate and by the rows
    of the standard form it refers to."""
    vertices = ref.vertices if vertices is None else vertices
    if feasibility.status == "optimal":
        mu = witness(feasibility, "mu", len(vertices), ref.n_states)
        problems = ref.mixture_problems(mu, vertices)
        if any(x < 0 for row in mu for x in row):
            problems.append("negative weight in a feasible witness")
        return problems
    if feasibility.status == "infeasible":
        problems = ref.rows_problems(feasibility.eq_matrix, feasibility.eq_rhs, vertices)
        if not farkas_holds(feasibility.certificate, feasibility.eq_matrix, feasibility.eq_rhs):
            problems.append("Farkas certificate does not replay")
        return problems
    return [f"nc-check status {feasibility.status}"]


def check_embedding(case, output, ref: EmbeddingReference) -> list[str]:
    feasibility, signed, negativity = output
    nl, ns = len(ref.vertices), ref.n_states
    problems = ref.vertex_problems + feasibility_problems(feasibility, ref)
    if feasibility.status == "optimal" and negativity != 0:
        problems.append(f"feasible but negativity {negativity}")
    if feasibility.status == "infeasible" and not negativity > 0:
        problems.append(f"infeasible but negativity {negativity}")
    if signed.status != "optimal":
        return problems + [f"negativity status {signed.status}"]
    plus, minus = witness(signed, "pos", nl, ns), witness(signed, "neg", nl, ns)
    mu = [[p - m for p, m in zip(*rows)] for rows in zip(plus, minus)]
    problems += ref.mixture_problems(mu)
    minus_mass = sum((x for row in minus for x in row), ZERO)
    if minus_mass != negativity:
        problems.append(f"negativity {negativity} is not the witness's minus mass {minus_mass}")
    if ref.negativity is None or abs(ref.negativity - float(negativity)) > TOL:
        problems.append(f"negativity {float(negativity)} vs HiGHS {ref.negativity}")
    return problems


# ---------------------------------------------------------------------------
# shared-effects


def box_vertices(f) -> list[tuple[Fraction, ...]]:
    """The 24 response vertices of the extremal-box effects, known apart
    from any enumeration: the 16 deterministic boxes (a_x, b_y = +-1,
    c_xy = a_x b_y) and the 8 extremal correlated ones (a = b = 0,
    c_xy = (-1)^(xy + ax + by + g)), each as its valuation x . e of the
    fragment's correlator-coordinate effects."""
    boxes = []
    for a0, a1, b0, b1 in product((1, -1), repeat=4):
        boxes.append((1, a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1))
    for al, be, g in product((0, 1), repeat=3):
        boxes.append((1, 0, 0, 0, 0) + tuple(
            (-1) ** (x * y + al * x + be * y + g) for x in (0, 1) for y in (0, 1)
        ))
    return sorted(tuple(_dot(e, box) for e in f.effects) for box in boxes)


def lp_vertices(matrix, n_states, n_effects):
    """The vertex list an embedding LP's standard form was built over,
    read from its reproduction rows (the last effects x states rows)."""
    if not matrix or len(matrix[0]) % n_states:
        return []
    base = len(matrix) - n_effects * n_states
    return [
        tuple(matrix[base + r * n_states][lam * n_states] for r in range(n_effects))
        for lam in range(len(matrix[0]) // n_states)
    ]


def check_shared_effects(case, output, ref: EmbeddingReference) -> list[str]:
    feasibility, report = output
    w = case.facts["w"]
    problems = list(ref.vertex_problems)
    used = lp_vertices(feasibility.eq_matrix, ref.n_states, len(ref.f.effects))
    if sorted(used) != ref.vertices:
        problems.append(f"the LP is built over {len(used)} vertices, not the 24 known ones")
    else:
        problems += feasibility_problems(feasibility, ref, used)
    if w == 1 and feasibility.status != "infeasible":
        problems.append(f"w = 1 is {feasibility.status}, expected infeasible")
    if w <= Fraction(1, 2) and feasibility.status != "optimal":
        problems.append(f"w = {w} is {feasibility.status}, expected feasible")
    expected = max(ZERO, 2 * w - 1)
    if report.cf != expected:
        problems.append(f"cf {report.cf} at w = {w}, expected {expected}")
    if report.ncf + report.cf + report.df != 1:
        problems.append("ncf + cf + df != 1")
    return problems


# ---------------------------------------------------------------------------
# tables


def marginal(model, ctx_index, onto) -> dict:
    context = model.hypergraph.contexts[ctx_index]
    positions = [context.index(m) for m in onto]
    ranges = [range(model.outcomes[m]) for m in context]
    out: dict = {}
    for flat, assignment in enumerate(product(*ranges)):
        key = tuple(assignment[p] for p in positions)
        out[key] = out.get(key, ZERO) + model.tables[ctx_index][flat]
    return out


def disagreements(model) -> list[tuple[int, int, tuple, Fraction]]:
    """(context i, context j, shared measurements, L-inf gap) with gap > 0."""
    out = []
    for i, j, shared in _shared_pairs(model):
        left, right = marginal(model, i, shared), marginal(model, j, shared)
        gap = max(abs(left[k] - right.get(k, ZERO)) for k in left)
        if gap:
            out.append((i, j, shared, gap))
    return out


def scipy_noncontextual_fraction(model) -> float | None:
    """max sum(w_g) over global assignments g, each context's restriction
    staying under the table (HiGHS)."""
    names = model.hypergraph.measurements
    globals_ = list(product(*(range(model.outcomes[m]) for m in names)))
    rows, rhs = [], []
    for i, context in enumerate(model.hypergraph.contexts):
        positions = [names.index(m) for m in context]
        ranges = [range(model.outcomes[m]) for m in context]
        for flat, local in enumerate(product(*ranges)):
            rows.append([
                1.0 if all(g[p] == o for p, o in zip(positions, local)) else 0.0
                for g in globals_
            ])
            rhs.append(float(model.tables[i][flat]))
    best = _scipy_min([-1.0] * len(globals_), None, None, rows, rhs)
    return None if best is None else -best


def scipy_agreeing_mass(model) -> float | None:
    """Largest common sub-mass t on which all contexts agree (HiGHS)."""
    h = model.hypergraph
    sizes = [len(t) for t in model.tables]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    width = 1 + sum(sizes)
    rows, rhs = [], []
    for i, size in enumerate(sizes):
        row = [0.0] * width
        row[0] = -1.0
        for k in range(size):
            row[1 + offsets[i] + k] = 1.0
        rows.append(row)
        rhs.append(0.0)
    for i, j, shared in _shared_pairs(model):
        for key in product(*(range(model.outcomes[m]) for m in shared)):
            row = [0.0] * width
            for ctx, sign in ((i, 1.0), (j, -1.0)):
                context = h.contexts[ctx]
                positions = [context.index(m) for m in shared]
                ranges = [range(model.outcomes[m]) for m in context]
                for flat, a in enumerate(product(*ranges)):
                    if tuple(a[p] for p in positions) == key:
                        row[1 + offsets[ctx] + flat] += sign
            rows.append(row)
            rhs.append(0.0)
    ub_rows, ub_rhs = [], []
    for i, table in enumerate(model.tables):
        for k, p in enumerate(table):
            row = [0.0] * width
            row[1 + offsets[i] + k] = 1.0
            ub_rows.append(row)
            ub_rhs.append(float(p))
    best = _scipy_min([-1.0] + [0.0] * (width - 1), rows, rhs, ub_rows, ub_rhs)
    return None if best is None else -best


def _shared_pairs(model):
    contexts = model.hypergraph.contexts
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            shared = tuple(m for m in model.hypergraph.measurements
                           if m in contexts[i] and m in contexts[j])
            if shared:
                yield i, j, shared


def _mix(parts, like):
    """sum(weight * part) over (weight, part) pairs, table by table."""
    tables = []
    for i, table in enumerate(like.tables):
        tables.append(tuple(
            sum((w * part.tables[i][k] for w, part in parts if w), ZERO)
            for k in range(len(table))
        ))
    return tables


class TablesReference:
    def __init__(self, model):
        self.disturbing = bool(disagreements(model))
        self.ncf = None if self.disturbing else scipy_noncontextual_fraction(model)
        self.agreeing = scipy_agreeing_mass(model) if self.disturbing else 1.0
        self._inner: dict = {}

    def inner_ncf(self, agreeing):
        key = agreeing.tables
        if key not in self._inner:
            self._inner[key] = scipy_noncontextual_fraction(agreeing)
        return self._inner[key]


def check_tables(case, output, ref: TablesReference) -> list[str]:
    report, findings, extension, reduced = output
    m = case.data
    problems = []
    if report.ncf + report.cf + report.df != 1:
        problems.append("ncf + cf + df != 1")
    if any(not 0 <= x <= 1 for x in (report.ncf, report.cf, report.df)):
        problems.append("a fraction lies outside [0, 1]")
    parts = [(report.ncf, report.p_nc), (report.cf, report.p_sc), (report.df, report.p_d)]
    if any(w and part is None for w, part in parts):
        problems.append("a part with positive weight is missing")
    elif _mix(parts, m) != list(m.tables):
        problems.append("ncf.p_nc + cf.p_sc + df.p_d does not recompose the table")
    skew = case.facts.get("skew")
    if skew:
        last = len(m.hypergraph.contexts) - 1
        want = [(m.hypergraph.contexts[0], m.hypergraph.contexts[last], ("c0",), skew)]
        if findings != want:
            problems.append(f"findings {findings}, planted {want}")
        if ref.agreeing is None or abs((1 - float(report.df)) - ref.agreeing) > TOL:
            problems.append(f"df {report.df} vs HiGHS 1 - {ref.agreeing}")
        t = report.ncf + report.cf
        if t > 0 and not problems:
            agreeing = EmpiricalModel(
                m.hypergraph,
                m.outcomes,
                [tuple(x / t for x in row) for row in _mix(parts[:2], m)],
            )
            if disagreements(agreeing):
                problems.append("the agreeing part disturbs")
            inner = ref.inner_ncf(agreeing)
            if inner is None or abs(float(report.ncf / t) - inner) > TOL:
                problems.append(f"inner ncf {report.ncf / t} vs HiGHS {inner}")
    else:
        if findings:
            problems.append(f"findings {findings} on a non-disturbing table")
        if report.df != 0:
            problems.append(f"df {report.df} on a non-disturbing table")
        if ref.ncf is None or abs(float(report.ncf) - ref.ncf) > TOL:
            problems.append(f"ncf {report.ncf} vs HiGHS {ref.ncf}")
        if extension.model.hypergraph != m.hypergraph:
            problems.append("a non-disturbing table was extended")
    if case.facts.get("acyclic") and report.cf != 0:
        problems.append(f"cf {report.cf} on an acyclic scenario")
    if disagreements(extension.model):
        problems.append("the extended scenario disturbs")
    if extension.model.tables != m.tables:
        problems.append("the extension changed the tables")
    if set(extension.mapping.values()) - set(m.hypergraph.measurements):
        problems.append("the extension maps to unknown measurements")
    if case.facts.get("acyclic") and not reduced.is_empty:
        problems.append("Graham reduction leaves an acyclic scenario non-empty")
    if case.facts.get("cycle") and reduced.is_empty:
        problems.append("Graham reduction empties a cycle")
    return problems


# ---------------------------------------------------------------------------
# geometry


def _boundary(complex_, degree):
    rows = {s: i for i, s in enumerate(complex_.simplices(degree - 1))}
    cols = complex_.simplices(degree)
    matrix = sympy.zeros(len(rows), len(cols))
    for j, spx in enumerate(cols):
        for i in range(len(spx)):
            matrix[rows[spx[:i] + spx[i + 1:]], j] = (-1) ** i
    return matrix


class HomologyReference:
    """Betti numbers from sympy ranks, torsion from sympy's Smith form."""

    def __init__(self, complex_):
        top = complex_.dimension
        counts = [len(complex_.simplices(d)) for d in range(top + 2)]
        boundaries = {d: _boundary(complex_, d) for d in range(1, top + 1)}
        ranks = {d: boundaries[d].rank() for d in boundaries}
        self.groups = []
        for d in range(top + 1):
            betti = counts[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
            torsion = ()
            if d + 1 in boundaries and ranks[d + 1]:
                snf = smith_normal_form(boundaries[d + 1])
                torsion = tuple(sorted(
                    abs(int(snf[i, i])) for i in range(min(snf.shape))
                    if abs(int(snf[i, i])) > 1
                ))
            self.groups.append((betti, torsion))


class GeometryReference:
    def __init__(self):
        self._homology: dict = {}

    def homology(self, complex_):
        key = tuple(complex_.simplices(d) for d in range(complex_.dimension + 1))
        if key not in self._homology:
            self._homology[key] = HomologyReference(complex_)
        return self._homology[key]


def _object_values(kind, rep, lam):
    if kind == "state":
        return [row[lam] for row in rep.state_distributions]
    return [row[lam] for row in rep.effect_responses] + [Fraction(1)]


def _recomposes(complex_, dec, xi) -> bool:
    for a, b in complex_.simplices(1):
        total = dec.potential[(b,)] - dec.potential[(a,)] + dec.connection[(a, b)]
        if dec.disturbance is not None:
            total += dec.disturbance[(a, b)]
        if total != xi[(a, b)]:
            return False
    return True


def check_geometry(case, output, ref: GeometryReference) -> list[str]:
    f, rep = case.data
    problems = []
    for (kind, view), run in output.items():
        where = f"{kind}/{view}"
        oc = run.oc
        for lam, (xi, dec, phases, extra) in enumerate(run.valuations):
            values = _object_values(kind, rep, lam)
            if not _recomposes(oc.complex, dec, xi) or dec.recomposed() != xi:
                problems.append(f"{where} lam {lam}: decomposition does not recompose")
            expected = {
                eq_id: sum((c * values[i] for i, c in eq.coefficients.items()), ZERO)
                for eq_id, eq in enumerate(run.eqs)
            }
            if phases != expected:
                problems.append(f"{where} lam {lam}: phases {phases} != {expected}")
            flat = not any(phases.values())
            if view == "geometrical":
                if flat != extra.values.is_zero:
                    problems.append(f"{where} lam {lam}: phases and curvature disagree")
                for eq_id, disk in enumerate(oc.disks):
                    integral = sum((extra.values[s] * c for s, c in disk.items()), ZERO)
                    if integral != phases[eq_id]:
                        problems.append(f"{where} lam {lam}: disk {eq_id} integral {integral}")
            elif (extra == "trivial") != flat:
                problems.append(f"{where} lam {lam}: monodromy {extra} with phases {phases}")
            if case.facts["split"] and not flat:
                problems.append(f"{where} lam {lam}: split-corner table has phases")
        want = ref.homology(oc.complex).groups
        got = [(g.betti, tuple(g.torsion)) for g in run.homology]
        if got != want:
            problems.append(f"{where}: homology {got}, sympy {want}")
        if view == "topological":
            verdict = "noncontextual-certified" if want[1][0] == 0 else "inconclusive"
            if run.certificate != verdict:
                problems.append(f"{where}: certificate {run.certificate}, expected {verdict}")
        split = run.chart_split
        xi0 = run.valuations[0][0]
        if not _recomposes(oc.complex, split, xi0):
            problems.append(f"{where}: chart decomposition does not recompose")
        for a, b in oc.complex.simplices(1):
            crossing = run.charts[a] != run.charts[b]
            if (split.connection[(a, b)] if crossing else split.disturbance[(a, b)]) != 0:
                problems.append(f"{where}: edge ({a}, {b}) on the wrong side of the charts")
                break
    return problems


def references(workload: str):
    """Maps an input to its reference, built on first use and kept."""
    if workload == "geometry":
        shared = GeometryReference()
        return lambda case: shared
    build = {
        "embedding": lambda case: EmbeddingReference(
            case.data, nc.response_vertices(case.data).vertices
        ),
        "shared-effects": lambda case: EmbeddingReference(
            case.data[0], box_vertices(case.data[0])
        ),
        "tables": lambda case: TablesReference(case.data),
    }[workload]
    cache: dict[int, object] = {}

    def reference(case):
        if id(case) not in cache:
            cache[id(case)] = build(case)
        return cache[id(case)]

    return reference

CHECKS = {
    "embedding": check_embedding,
    "shared-effects": check_shared_effects,
    "tables": check_tables,
    "geometry": check_geometry,
}
