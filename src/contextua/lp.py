"""Exact rational linear programming via two-phase simplex with Bland's rule.

All variables are nonnegative; callers split free variables themselves.
Infeasible problems come back with a Farkas certificate against the stored
sign-fixed standard form: certificate . matrix >= 0 componentwise while
certificate . rhs < 0, all exact.  The tableau holds stdlib Fractions.

A pivot updates the other rows in place, and only at the columns where the
normalised pivot row is nonzero.  A zero pivot-row entry would change an
entry x to x - f*0, which is x, so skipping it is exact: the tableau after
each pivot, and therefore the entering and leaving variables that Bland's
rule picks, the assignment and the Farkas certificate, are those of the
full-row update.  The tableau rows are copies, so neither the constraint
rows added to the program nor the stored standard form are ever written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

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
        """Exact Farkas re-verification: cert.A >= 0 componentwise, cert.b < 0."""
        if self.status != "infeasible" or self.certificate is None:
            return False
        cols = len(self.eq_matrix[0]) if self.eq_matrix else 0
        for j in range(cols):
            s = sum(
                (y * row[j] for y, row in zip(self.certificate, self.eq_matrix)),
                Fraction(0),
            )
            if s < 0:
                return False
        against_rhs = sum(
            (y * b for y, b in zip(self.certificate, self.eq_rhs)), Fraction(0)
        )
        return against_rhs < 0


class LinearProgram:
    """Incremental builder: nonnegative variables, <=/=/>= constraints."""

    def __init__(self, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._objective: list = []
        self._rows: list[list] = []  # coefficients over declared variables
        self._ops: list[str] = []
        self._rhs: list = []

    def add_variable(self, name: str, objective=0) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._objective.append(Fraction(objective))
        for row in self._rows:
            row.append(_ZERO)
        return name

    def add_constraint(self, coeffs: Mapping[str, object], op: str, rhs) -> None:
        if op not in ("<=", "=", ">="):
            raise ValueError(f"unknown constraint operator {op!r}")
        row = [_ZERO] * len(self._names)
        for name, c in coeffs.items():
            if name not in self._index:
                raise ValueError(f"constraint references unknown variable {name!r}")
            row[self._index[name]] = Fraction(c)
        self._rows.append(row)
        self._ops.append(op)
        self._rhs.append(Fraction(rhs))

    # ------------------------------------------------------------------
    def _standard_form(self):
        """Equalities with slacks appended, rows negated so rhs >= 0."""
        n = len(self._names)
        n_slack = sum(1 for op in self._ops if op != "=")
        width = n + n_slack
        rows = []
        rhs = []
        slack_at = 0
        for row, op, b in zip(self._rows, self._ops, self._rhs):
            full = list(row) + [_ZERO] * n_slack
            if op != "=":
                full[n + slack_at] = _ONE if op == "<=" else -_ONE
                slack_at += 1
            if b < 0:
                full = [-x for x in full]
                b = -b
            rows.append(full)
            rhs.append(b)
        return rows, rhs, width

    def solve(self) -> LpSolution:
        rows, rhs, width = self._standard_form()
        m = len(rows)
        eq_matrix = tuple(map(tuple, rows))
        eq_rhs = tuple(rhs)

        # tableau: m constraint rows + objective row; columns = width originals
        # + m artificials + rhs
        tableau = [list(row) + [_ZERO] * m + [b] for row, b in zip(rows, rhs)]
        for i in range(m):
            tableau[i][width + i] = _ONE
        basis = [width + i for i in range(m)]

        # phase 1: minimize the artificial total
        obj = [_ZERO] * (width + m + 1)
        for j in range(width):
            obj[j] = -sum((tableau[i][j] for i in range(m)), _ZERO)
        obj[-1] = -sum((tableau[i][-1] for i in range(m)), _ZERO)
        tableau.append(obj)

        self._run_simplex(tableau, basis, width + m, allow_unbounded=False)

        phase1_value = -tableau[m][-1]
        if phase1_value > 0:
            cert = tuple(tableau[m][width + i] - 1 for i in range(m))
            solution = LpSolution(
                status="infeasible",
                objective=None,
                certificate=cert,
                eq_matrix=eq_matrix,
                eq_rhs=eq_rhs,
            )
            if not solution.certificate_checks():
                raise AssertionError("Farkas certificate failed self-check")
            return solution

        # pivot artificials out of the basis; rows with no real pivot are
        # redundant and get dropped
        drop = []
        for i in range(m):
            if basis[i] < width:
                continue
            for j in range(width):
                if tableau[i][j] != 0:
                    self._pivot(tableau, basis, i, j)
                    break
            else:
                drop.append(i)
        keep = [i for i in range(m) if i not in drop]
        tableau = [
            [tableau[i][j] for j in range(width)] + [tableau[i][-1]] for i in keep
        ]
        basis = [basis[i] for i in keep]
        m = len(keep)

        # phase 2 objective (internally minimize)
        sign = -_ONE if self.sense == "max" else _ONE
        cost = [sign * c for c in self._objective] + [_ZERO] * (width - len(self._names))
        obj = list(cost) + [_ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                row = tableau[i]
                for j in range(width):
                    obj[j] -= cb * row[j]
                obj[-1] -= cb * row[-1]
        tableau.append(obj)

        if not self._run_simplex(tableau, basis, width, allow_unbounded=True):
            return LpSolution(
                status="unbounded",
                objective=None,
                eq_matrix=eq_matrix,
                eq_rhs=eq_rhs,
            )

        values = [_ZERO] * width
        for i in range(m):
            values[basis[i]] = tableau[i][-1]
        assignment = dict(zip(self._names, values))
        minimized = -tableau[m][-1]
        objective = -minimized if self.sense == "max" else minimized
        return LpSolution(
            status="optimal",
            objective=objective,
            assignment=assignment,
            eq_matrix=eq_matrix,
            eq_rhs=eq_rhs,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _pivot(tableau, basis, row, col):
        pivot_row = tableau[row]
        inv = _ONE / pivot_row[col]
        if inv != 1:
            tableau[row] = pivot_row = [x * inv for x in pivot_row]
        # A zero pivot-row entry p leaves x - f*0 == x, so only the nonzero
        # columns change; every entry, and so every Bland choice, is the one
        # a full-row update gives.
        nonzero = [(j, p) for j, p in enumerate(pivot_row) if p]
        for i, other in enumerate(tableau):
            if i == row:
                continue
            factor = other[col]
            if factor != 0:
                for j, p in nonzero:
                    other[j] -= factor * p
        basis[row] = col

    @classmethod
    def _run_simplex(cls, tableau, basis, n_cols, allow_unbounded):
        """Minimize with Bland's rule.  Returns False iff unbounded."""
        m = len(tableau) - 1
        obj = tableau[m]
        while True:
            entering = -1
            for j in range(n_cols):
                if obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return True
            leaving = -1
            best = None
            for i in range(m):
                a = tableau[i][entering]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                if allow_unbounded:
                    return False
                raise AssertionError("feasibility phase cannot be unbounded")
            cls._pivot(tableau, basis, leaving, entering)
            obj = tableau[m]
