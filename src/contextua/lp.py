"""Exact rational linear programming via the simplex method with Bland's rule.

All variables are nonnegative; callers split free variables themselves.
Infeasible problems come back with a Farkas certificate against the stored
sign-fixed standard form: certificate . matrix >= 0 componentwise while
certificate . rhs < 0, all exact.

The tableau holds rows of Python ints, each over its own positive
denominator, so a row stands for ``ints / den``: every entry is exactly the
rational a tableau of stdlib Fractions would hold.  Bland's rule reads only
signs and ratios, and the ints give both directly.  The entering column is
the first negative objective int.  A row's ratio b/a has the same value in
its ints (the row's denominator cancels), and two ratios compare by cross
multiplication.  Phase 1 finds the problem infeasible exactly when the
objective's rhs int is negative.  So every pivot, the assignment and the
Farkas certificate are those of the Fraction tableau; Fractions appear only
in the standard form read in and in the numbers handed out.

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
        ints: each row scaled by the lcm of its denominators, every term
        brought over the lcm of those, and the certificate over the lcm of
        its own, none of which changes a sign.
        """
        if self.status != "infeasible" or self.certificate is None:
            return False
        ys, _ = over_lcm(self.certificate)
        terms = [
            (y, *over_lcm(row + (b,)))
            for y, row, b in zip(ys, self.eq_matrix, self.eq_rhs)
            if y
        ]
        common = lcm(*(den for _, _, den in terms))
        sums = [0] * (len(self.eq_matrix[0]) + 1)
        for y, ints, den in terms:
            w = y * (common // den)
            sums = [s + w * x for s, x in zip(sums, ints)]
        return all(s >= 0 for s in sums[:-1]) and sums[-1] < 0


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

        # slack start: when every row has its own slack column with
        # coefficient +1 (so no equality row), those columns form a basis
        # with B^-1 b = b >= 0, and phase 2 starts from it
        n = len(self._names)
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
            infeasible = self._phase_one(tableau, dens, basis, width, kept, len(rows))
            if infeasible is not None:
                solution = LpSolution("infeasible", None, certificate=infeasible, **stored)
                if not solution.certificate_checks():
                    raise AssertionError("Farkas certificate failed self-check")
                return solution

        # phase 2: the program's objective, internally minimized
        sign = -_ONE if self.sense == "max" else _ONE
        cost = [sign * c for c in self._objective]
        self._price(tableau, dens, basis, cost + [_ZERO] * (width - len(cost) + 1))
        if not self._run_simplex(tableau, dens, basis, width):
            return LpSolution("unbounded", None, **stored)

        values = [_ZERO] * width
        for i in range(m):
            values[basis[i]] = Fraction(tableau[i][-1], dens[i])
        assignment = dict(zip(self._names, values))
        minimized = -Fraction(tableau[m][-1], dens[m])
        objective = -minimized if self.sense == "max" else minimized
        return LpSolution("optimal", objective, assignment, **stored)

    # ------------------------------------------------------------------
    @classmethod
    def _phase_one(cls, tableau, dens, basis, width, kept, n_rows):
        """Bland phase 1 from the all-artificial basis, in place.  Returns
        the Farkas certificate over all ``n_rows`` rows when the program is
        infeasible; otherwise leaves a feasible basis of real columns and a
        tableau without the artificial columns, and returns None."""
        m = len(kept)
        # minimize the artificial total; each artificial column prices to
        # 1 - 1 = 0
        cls._price(tableau, dens, basis, [_ZERO] * width + [_ONE] * m + [_ZERO])
        if not cls._run_simplex(tableau, dens, basis, width + m):
            raise AssertionError("feasibility phase cannot be unbounded")

        obj, obj_den = tableau.pop(), dens.pop()
        if obj[-1] < 0:
            cert = [_ZERO] * n_rows
            for k, i in enumerate(kept):
                cert[i] = Fraction(obj[width + k] - obj_den, obj_den)
            return tuple(cert)

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
        return None

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
