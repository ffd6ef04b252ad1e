"""Exact rational linear programming: a float proposal that exact
arithmetic certifies, and the simplex method with Bland's rule.

All variables are nonnegative; callers split free variables themselves.
Infeasible problems come back with a Farkas certificate against the stored
sign-fixed standard form: certificate . matrix >= 0 componentwise while
certificate . rhs < 0, all exact.

Floats propose, exact arithmetic decides (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 35, 2007; Gleixner, Steffy & Wolter, INFORMS J.
Comput. 28, 2016).  A program whose rows are all equalities (the embedding
and negativity LPs of :mod:`contextua.noncontextuality`) first goes through
``_propose``: a dense two-phase Dantzig simplex in plain floats, with a
1e-9 tolerance, on the rows the presolve keeps.  It hands back a basis B
and a claim, and ``LinearProgram._certify`` checks them exactly, one
:func:`contextua.linalg.solve` per system:

- feasible: ``B x_B = b`` gives x_B >= 0 with every basic artificial 0;
- optimal, for a nonzero cost: also ``B^T y = c_B`` with ``c - A^T y >= 0``,
  so no feasible point costs less than ``y.b = c.x``;
- infeasible: the phase-1 duals y (``B^T y`` = 1 on the artificials) give
  the Farkas vector -y, 0 on the dropped rows, which must pass
  ``certificate_checks``.

Only that check decides the answer.  The exact Bland path below runs when
the proposal fails (a number beyond the float range, the pivot cap, an
unbounded phase 2, an inconsistent system or a failed check) and on every
other program: the contextual-fraction LPs (all ``<=``), which it solves
faster, and the disturbance LP, whose vertex ``disturbance --fractions``
prints.  It only finds a basis: ``_certify`` builds every Farkas vector,
from an infeasible phase 1's basis too, and ``_optimum`` every optimum.
Both paths give the same status and objective; the vertex and the Farkas
vector may differ.

On the Bland path the tableau holds rows of Python ints, each over its own
positive denominator, so a row stands for ``ints / den``: every entry is
exactly the rational a tableau of stdlib Fractions would hold.  Bland's
rule reads only signs and ratios, and the ints give both directly.  The
entering column is the first negative objective int.  A row's ratio b/a
has the same value in its ints (the row's denominator cancels), and two
ratios compare by cross multiplication.  Phase 1 finds the problem
infeasible exactly when the objective's rhs int is negative.  So every
pivot and the assignment are those of the Fraction tableau; Fractions
appear only in the standard form read in and in the numbers handed out.

Constraints are kept sparse, as nonzero coefficients by column, and
``_standard_form`` adds the slacks and the sign fix to them once; ``solve``
places every row's values in the stored dense form and the kept rows' ints
in the tableau.  One pricing step, cost - sum c_B * row, sets both phase
objectives.

A presolve keeps the tableau to independent rows (Andersen & Andersen,
"Presolving in linear programming", Math. Programming 71, 1995).  A row
with its own slack column is independent of every other row and always
kept.  The equality rows are scanned from the last to the first, and one
is kept when the ``[A | b]`` rows kept so far do not span it
(:func:`contextua.linalg.independent_rows`).  The kept rows enter the
tableau in their original order, each with its own artificial when phase
1 runs (see the start rule below).  A dropped
row is a combination of kept rows, right-hand side included, so the kept
rows have the same feasible set: the status and the objective are those of
every row.  A Farkas certificate over the kept rows gets multiplier 0 on
each dropped row and so replays against the whole stored form, which keeps
every row in its place.  On a feasible phase 1 the kept rows have full row
rank, so every artificial still basic pivots out on a real column.

The start rule.  When every stored row has its own slack column with
coefficient +1 after the sign fix (every ``<=`` row with b >= 0 and every
``>=`` row with b < 0, and no equality row), the slack columns are a basis
whose values are the rhs, so it is feasible: phase 2 starts from it, with
no artificial column and no phase 1.  Every contextual-fraction LP has
this form.  Any other program, such as an embedding LP (equality rows
only) or the disturbance LP (equality rows and ``<=`` rows), starts from
all artificial columns, one per kept row, and runs phase 1 first, also
where some rows have a +1 slack: a start that mixed slacks and
artificials would move the optimal vertex that Bland's rule reaches, and
with it the parts that ``disturbance --fractions`` prints.

A pivot is :func:`contextua.linalg.pivot`, the package's one elimination
step, plus the basis update.  The tableau rows are built afresh and then
updated in place, so neither the constraint rows added to the program nor
the stored standard form are ever written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping

from . import linalg
from .linalg import independent_rows, lowest_terms, over_lcm, pivot

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpSolution:
    """Outcome of one solve.

    ``eq_matrix`` / ``eq_rhs`` hold the sign-fixed equality standard form
    (declared variables first, then one slack per inequality) that the
    certificate refers to; they are kept so infeasibility proofs can be
    re-verified independently of the solver.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    assignment: dict[str, Fraction] = field(default_factory=dict)
    certificate: tuple[Fraction, ...] | None = None
    eq_matrix: tuple[tuple[Fraction, ...], ...] | None = None
    eq_rhs: tuple[Fraction, ...] | None = None

    def certificate_checks(self) -> bool:
        """Exact Farkas re-verification: cert.A >= 0 componentwise, cert.b < 0.

        Replays the certificate against ``eq_matrix``/``eq_rhs`` alone, in
        ints (:func:`_combination`).
        """
        if self.status != "infeasible" or self.certificate is None:
            return False
        sums = _combination(
            self.certificate, [(*row, b) for row, b in zip(self.eq_matrix, self.eq_rhs)]
        )
        return all(s >= 0 for s in sums[:-1]) and sums[-1] < 0


def _combination(weights, rows) -> list[int]:
    """``sum_k weights[k] * rows[k]`` times one positive number, in ints:
    each row scaled by the lcm of its denominators, every term brought over
    the lcm of those, and the weights over the lcm of their own, none of
    which changes a sign."""
    ws, _ = over_lcm(weights)
    terms = [(w, *over_lcm(row)) for w, row in zip(ws, rows) if w]
    common = lcm(*(den for _, _, den in terms))
    sums = [0] * len(rows[0])
    for w, ints, den in terms:
        w *= common // den
        sums = [s + w * x for s, x in zip(sums, ints)]
    return sums


class LinearProgram:
    """Incremental builder: nonnegative variables, <=/=/>= constraints."""

    def __init__(self, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._objective: list = []
        self._rows: list[dict[int, Fraction]] = []  # nonzero coefficients by column
        self._ops: list[str] = []
        self._rhs: list = []

    def add_variable(self, name: str, objective=0) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._objective.append(Fraction(objective))
        return name

    def add_constraint(self, coeffs: Mapping[str, object], op: str, rhs) -> None:
        if op not in ("<=", "=", ">="):
            raise ValueError(f"unknown constraint operator {op!r}")
        row = {}
        for name, c in coeffs.items():
            if name not in self._index:
                raise ValueError(f"constraint references unknown variable {name!r}")
            c = Fraction(c)
            if c:
                row[self._index[name]] = c
        self._rows.append(row)
        self._ops.append(op)
        self._rhs.append(Fraction(rhs))

    # ------------------------------------------------------------------
    def _standard_form(self):
        """Sparse equalities: each row's nonzero coefficients by column, one
        slack column per inequality after the declared variables, and rows
        negated so rhs >= 0.  Returns (rows, rhs, width)."""
        rows, rhs = [], []
        width = len(self._names)
        for row, op, b in zip(self._rows, self._ops, self._rhs):
            row = dict(row)
            if op != "=":
                row[width] = _ONE if op == "<=" else -_ONE
                width += 1
            if b < 0:
                row = {j: -x for j, x in row.items()}
                b = -b
            rows.append(row)
            rhs.append(b)
        return rows, rhs, width

    def solve(self) -> LpSolution:
        rows, rhs, width = self._standard_form()
        eq_matrix = []
        for row in rows:
            dense = [_ZERO] * width
            for j, x in row.items():
                dense[j] = x
            eq_matrix.append(tuple(dense))
        stored = dict(eq_matrix=tuple(eq_matrix), eq_rhs=tuple(rhs))

        # presolve: a row with its own slack column is independent of the
        # rest; an equality row is kept unless [A | b] rows kept after it
        # span it
        equalities = [i for i, op in enumerate(self._ops) if op == "="]
        independent = independent_rows([{**rows[i], width: rhs[i]} for i in equalities])
        kept = sorted(
            {i for i, op in enumerate(self._ops) if op != "="}
            | {equalities[p] for p in independent}
        )
        m = len(kept)

        # the program's objective, internally minimized, on every column
        sign = -_ONE if self.sense == "max" else _ONE
        n = len(self._names)
        cost = [sign * c for c in self._objective] + [_ZERO] * (width - n)

        # an all-equality program takes the float proposal first, and takes
        # its answer only when the proposed basis passes the exact checks
        if set(self._ops) == {"="}:
            solution = self._certify(
                _propose([eq_matrix[i] for i in kept], [rhs[i] for i in kept], cost),
                cost, eq_matrix, rhs, kept, stored,
            )
            if solution is not None:
                return solution

        # slack start: when every row has its own slack column with
        # coefficient +1 (so no equality row), those columns form a basis
        # with B^-1 b = b >= 0, and phase 2 starts from it
        slack_start = "=" not in self._ops and all(
            row[n + i] == 1 for i, row in enumerate(rows)
        )
        artificials = 0 if slack_start else m

        # tableau: m kept rows + objective row, each as ints over its own
        # denominator; columns = width originals + the artificials + rhs
        tableau, dens = [], []
        for k, i in enumerate(kept):
            ints, den = over_lcm([*rows[i].values(), rhs[i]])
            placed = [0] * (width + artificials) + ints[-1:]
            for j, y in zip(rows[i], ints):
                placed[j] = y
            if artificials:
                placed[width + k] = den
            tableau.append(placed)
            dens.append(den)

        if slack_start:
            basis = [n + i for i in range(m)]
        else:
            basis = [width + k for k in range(m)]
            if self._phase_one(tableau, dens, basis, width):
                solution = self._certify(("infeasible", basis), cost, eq_matrix, rhs, kept, stored)
                if solution is None:
                    raise AssertionError("Farkas certificate failed self-check")
                return solution

        # phase 2
        self._price(tableau, dens, basis, cost + [_ZERO])
        if not self._run_simplex(tableau, dens, basis, width):
            return LpSolution("unbounded", None, **stored)
        return self._optimum(basis, [Fraction(t[-1], d) for t, d in zip(tableau[:m], dens)], stored)

    def _certify(self, proposal, cost, eq_matrix, rhs, kept, stored):
        """The answer that a proposed basis certifies exactly, or None.

        ``proposal`` is None or ``(claim, basis)``, from :func:`_propose` or
        an infeasible Bland phase 1: basis position k holds kept row k's
        basic column, ``len(cost) + k`` being that row's artificial (``cost``
        spans every standard-form column), and B is the kept rows on those
        columns.  "infeasible" stands when -y, for ``B^T y`` = the phase-1
        costs (1 on an artificial, 0 elsewhere) and 0 on the dropped rows,
        passes ``certificate_checks``.  "optimal" stands when ``B x_B = b``
        is consistent, x_B >= 0 and every basic artificial is 0, so x is
        feasible; and, for a nonzero ``cost``, when ``B^T y = c_B`` is
        consistent and ``cost - A^T y >= 0``, so that every feasible x'
        costs at least ``y.b = c.x``.  Each system is one exact
        elimination (:func:`contextua.linalg.solve`).
        """
        if proposal is None:
            return None
        claim, basis = proposal
        m, width = len(kept), len(cost)
        if len(basis) != m or len(set(basis)) != m or not all(
            0 <= j < width + m for j in basis
        ):
            return None
        columns = [
            [eq_matrix[i][j] if j < width else _ONE if j == width + k else _ZERO
             for k, i in enumerate(kept)]
            for j in basis
        ]
        if claim == "infeasible":
            y = linalg.solve(columns, [_ONE if j >= width else _ZERO for j in basis], m)
            if y is None:
                return None
            certificate = [_ZERO] * len(eq_matrix)
            for i, value in zip(kept, y):
                certificate[i] = -value
            solution = LpSolution("infeasible", None, certificate=tuple(certificate), **stored)
            return solution if solution.certificate_checks() else None

        x = linalg.solve([list(row) for row in zip(*columns)], [rhs[i] for i in kept], m)
        if x is None or any(v < 0 or (v and j >= width) for j, v in zip(basis, x)):
            return None
        if any(cost):
            y = linalg.solve(columns, [cost[j] if j < width else _ZERO for j in basis], m)
            if y is None:
                return None
            reduced = _combination([_ONE, *(-v for v in y)], [cost, *(eq_matrix[i] for i in kept)])
            if any(r < 0 for r in reduced):
                return None
        return self._optimum(basis, x, stored)

    def _optimum(self, basis, x, stored):
        """The optimum with value ``x[k]`` on column ``basis[k]``: the
        declared variables' values and the declared objective ``c.x``."""
        # c.x over the nonzero terms alone: a sum over every column made the
        # contextual-fraction LPs about an eighth slower
        values, objective = [_ZERO] * len(self._names), _ZERO
        for j, v in zip(basis, x):
            if j < len(values) and v:
                values[j] = v
                if self._objective[j]:
                    objective += self._objective[j] * v
        return LpSolution("optimal", objective, dict(zip(self._names, values)), **stored)

    # ------------------------------------------------------------------
    @classmethod
    def _phase_one(cls, tableau, dens, basis, width):
        """Bland phase 1 from the all-artificial basis, in place.  Returns
        True, with ``basis`` where it stopped, when artificial mass is left
        (the program is infeasible); otherwise leaves a feasible basis of
        real columns and a tableau without the artificials, and False."""
        m = len(basis)
        # minimize the artificial total; each artificial column prices to
        # 1 - 1 = 0
        cls._price(tableau, dens, basis, [_ZERO] * width + [_ONE] * m + [_ZERO])
        if not cls._run_simplex(tableau, dens, basis, width + m):
            raise AssertionError("feasibility phase cannot be unbounded")

        dens.pop()
        if tableau.pop()[-1] < 0:
            return True

        # pivot artificials out of the basis: the kept rows of a feasible
        # program have full row rank, so each such row has a real nonzero
        for i in range(m):
            if basis[i] < width:
                continue
            j = next((j for j in range(width) if tableau[i][j]), None)
            if j is None:
                raise AssertionError("a kept row is implied by the others")
            cls._pivot(tableau, dens, basis, i, j)
        for i in range(m):
            tableau[i], dens[i] = lowest_terms(
                tableau[i][:width] + [tableau[i][-1]], dens[i]
            )
        return False

    @staticmethod
    def _price(tableau, dens, basis, cost):
        """Append the objective row cost - sum c_B * row, over one common
        denominator in lowest terms; ``cost`` holds one Fraction per column,
        rhs last, and c_B is its entry at each row's basic column."""
        obj, den = over_lcm(cost)
        basic = [(tableau[i], dens[i], cost[b]) for i, b in enumerate(basis) if cost[b]]
        total = lcm(den, *(cb.denominator * d for _, d, cb in basic))
        obj = [x * (total // den) for x in obj]
        for row, d, cb in basic:
            f = cb.numerator * (total // (cb.denominator * d))
            obj = [o - f * x for o, x in zip(obj, row)]
        obj, total = lowest_terms(obj, total)
        tableau.append(obj)
        dens.append(total)

    @staticmethod
    def _pivot(tableau, dens, basis, row, col):
        pivot(tableau, dens, row, col)
        basis[row] = col

    @classmethod
    def _run_simplex(cls, tableau, dens, basis, n_cols):
        """Minimize with Bland's rule.  Returns False iff unbounded.

        Every denominator is positive, so signs are read off the ints, and
        a row's ratio rhs/a is its ints' ratio: b_i/a_i < b_k/a_k exactly
        when b_i*a_k < b_k*a_i, as both a are positive.
        """
        m = len(tableau) - 1
        while True:
            obj = tableau[m]
            entering = -1
            for j in range(n_cols):
                if obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return True
            leaving = -1
            best_b = best_a = 0
            for i in range(m):
                a = tableau[i][entering]
                if a > 0:
                    b = tableau[i][-1]
                    if leaving < 0:
                        best_b, best_a, leaving = b, a, i
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        best_b, best_a, leaving = b, a, i
            if leaving < 0:
                return False
            cls._pivot(tableau, dens, basis, leaving, entering)


# ---------------------------------------------------------------------------
# the float proposal

#: Tolerance of the float proposal: entries, reduced costs and phase-1 mass
#: at or below it count as zero.  Only the proposal reads it.
_TOLERANCE = 1e-9


def _propose(rows, rhs, cost):
    """A basis for ``min cost.x`` on ``rows x = rhs``, x >= 0, every rhs
    >= 0, by a dense two-phase Dantzig simplex in floats.

    Returns ``("infeasible", basis)`` when phase 1 ends with artificial
    mass, ``("optimal", basis)`` otherwise, and None when a number does not
    fit a float, the pivots run out or phase 2 is unbounded.  Basis position
    k is row k's basic column, ``len(cost) + k`` being row k's artificial.
    The floats decide nothing: ``LinearProgram._certify`` checks the basis
    exactly.
    """
    m, width = len(rows), len(cost)
    try:
        tableau = [
            [float(x) if x else 0.0 for x in row] + [float(b)]
            for row, b in zip(rows, rhs)
        ]
        costs = [float(c) if c else 0.0 for c in cost] + [0.0]
    except OverflowError:
        return None
    basis = [width + k for k in range(m)]
    pivots = 20 * (m + width)

    # phase 1: minimize the artificial total, each artificial column
    # priced out (the tableau holds none: a leaving artificial never enters)
    phase_one = [0.0] * (width + 1)
    for row in tableau:
        phase_one = [o - x for o, x in zip(phase_one, row)]
    tableau.append(phase_one)
    pivots = _dantzig(tableau, basis, width, pivots)
    if pivots is None:
        return None
    if -tableau[m][-1] > _TOLERANCE:
        return "infeasible", basis
    tableau.pop()
    # artificials left at zero leave on the largest real entry of their row
    for i in range(m):
        if basis[i] >= width:
            j = max(range(width), key=lambda j: abs(tableau[i][j]), default=None)
            if j is not None and abs(tableau[i][j]) > _TOLERANCE:
                _float_pivot(tableau, basis, i, j)
    if not any(costs):
        return "optimal", basis

    # phase 2: cost - sum c_B * row
    objective = list(costs)
    for row, j in zip(tableau, basis):
        c = costs[j] if j < width else 0.0
        if c:
            objective = [o - c * x for o, x in zip(objective, row)]
    tableau.append(objective)
    if _dantzig(tableau, basis, width, pivots) is None:
        return None
    return "optimal", basis


def _dantzig(tableau, basis, width, pivots):
    """Minimize the last row in floats: the most negative reduced cost
    enters, and among the rows within tolerance of the least ratio the one
    with the largest entry leaves.  Returns the pivots left, or None when
    unbounded or when ``pivots`` run out."""
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        entering = min(range(width), key=obj.__getitem__, default=None)
        if entering is None or obj[entering] >= -_TOLERANCE:
            return pivots
        candidates = [
            (max(row[-1], 0.0) / row[entering], row[entering], i)
            for i, row in enumerate(tableau[:m])
            if row[entering] > _TOLERANCE
        ]
        if not candidates or not pivots:
            return None
        least = min(ratio for ratio, _, _ in candidates) + _TOLERANCE
        _, _, leaving = max(c for c in candidates if c[0] <= least)
        _float_pivot(tableau, basis, leaving, entering)
        pivots -= 1


def _float_pivot(tableau, basis, row, col):
    """One Gauss-Jordan step at (row, col) in floats, plus the basis update."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    pivot_row = tableau[row] = [x / p for x in pivot_row]
    for i, other in enumerate(tableau):
        f = other[col]
        if f and i != row:
            tableau[i] = [x - f * y for x, y in zip(other, pivot_row)]
    basis[row] = col
