"""Exact rational linear programming via two-phase simplex with Bland's rule.

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

from .linalg import lowest_terms, over_lcm, pivot

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

        # tableau: m constraint rows + objective row, each as ints over its
        # own denominator; columns = width originals + m artificials + rhs
        tableau, dens = [], []
        for i, (row, b) in enumerate(zip(rows, rhs)):
            ints, den = over_lcm(row + [b])
            artificial = [0] * m
            artificial[i] = den
            tableau.append(ints[:width] + artificial + ints[width:])
            dens.append(den)
        basis = [width + i for i in range(m)]

        # phase 1: minimize the artificial total, summed over the lcm of
        # the row denominators; the artificial columns stay 0
        common = lcm(*dens)
        obj = [0] * (width + m + 1)
        for row, den in zip(tableau, dens):
            scale = common // den
            obj = [o - scale * x for o, x in zip(obj, row)]
        obj[width : width + m] = [0] * m
        obj, common = lowest_terms(obj, common)
        tableau.append(obj)
        dens.append(common)

        self._run_simplex(tableau, dens, basis, width + m, allow_unbounded=False)

        obj, obj_den = tableau[m], dens[m]
        if obj[-1] < 0:
            cert = tuple(
                Fraction(obj[width + i] - obj_den, obj_den) for i in range(m)
            )
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
            row = tableau[i]
            for j in range(width):
                if row[j] != 0:
                    self._pivot(tableau, dens, basis, i, j)
                    break
            else:
                drop.append(i)
        keep = [i for i in range(m) if i not in drop]
        truncated = [
            lowest_terms(tableau[i][:width] + [tableau[i][-1]], dens[i]) for i in keep
        ]
        tableau = [ints for ints, _ in truncated]
        dens = [den for _, den in truncated]
        basis = [basis[i] for i in keep]
        m = len(keep)

        # phase 2 objective (internally minimize): cost - sum cb * row, over
        # one common denominator
        sign = -_ONE if self.sense == "max" else _ONE
        cost = [sign * c for c in self._objective] + [_ZERO] * (
            width - len(self._names) + 1
        )
        obj, common = over_lcm(cost)
        basic = [
            (tableau[i], dens[i], cost[basis[i]]) for i in range(m) if cost[basis[i]]
        ]
        total = lcm(common, *(cb.denominator * den for _, den, cb in basic))
        if total != common:
            obj = [x * (total // common) for x in obj]
        for row, den, cb in basic:
            f = cb.numerator * (total // (cb.denominator * den))
            obj = [o - f * x for o, x in zip(obj, row)]
        obj, total = lowest_terms(obj, total)
        tableau.append(obj)
        dens.append(total)

        if not self._run_simplex(tableau, dens, basis, width, allow_unbounded=True):
            return LpSolution(
                status="unbounded",
                objective=None,
                eq_matrix=eq_matrix,
                eq_rhs=eq_rhs,
            )

        values = [_ZERO] * width
        for i in range(m):
            values[basis[i]] = Fraction(tableau[i][-1], dens[i])
        assignment = dict(zip(self._names, values))
        minimized = -Fraction(tableau[m][-1], dens[m])
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
    def _pivot(tableau, dens, basis, row, col):
        pivot(tableau, dens, row, col)
        basis[row] = col

    @classmethod
    def _run_simplex(cls, tableau, dens, basis, n_cols, allow_unbounded):
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
                if allow_unbounded:
                    return False
                raise AssertionError("feasibility phase cannot be unbounded")
            cls._pivot(tableau, dens, basis, leaving, entering)
