from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from contextua.disturbance import detect_disturbance, fractions_with_disturbance
from contextua.linalg import rank
from contextua.lp import LinearProgram, LpSolution
from contextua.noncontextuality import Limits, _embedding_program
from contextua.scenarios import (
    chsh_quantum,
    gbit,
    halving_fragment,
    kcbs_quantum,
    nudged_box,
    qubit_fragment,
)


def build(objective, rows, ops, rhs, sense="max"):
    lp = LinearProgram(sense)
    names = [f"x{i}" for i in range(len(objective))]
    for name, c in zip(names, objective):
        lp.add_variable(name, c)
    for row, op, b in zip(rows, ops, rhs):
        lp.add_constraint(dict(zip(names, row)), op, b)
    return lp, names


def scipy_solve(objective, rows, ops, rhs, sense):
    c = np.array([float(x) for x in objective])
    if sense == "max":
        c = -c
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, op, b in zip(rows, ops, rhs):
        fr = [float(x) for x in row]
        if op == "<=":
            a_ub.append(fr)
            b_ub.append(float(b))
        elif op == ">=":
            a_ub.append([-x for x in fr])
            b_ub.append(-float(b))
        else:
            a_eq.append(fr)
            b_eq.append(float(b))
    return linprog(
        c,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )


def scipy_verdict(objective, rows, ops, rhs, sense):
    """HiGHS's verdict, and the optimum when there is one, from solves that
    are bounded by construction: the constraints under a zero objective tell
    feasible from infeasible, and the recession LP, max c.d over the
    homogeneous rows with d >= 0 and c.d <= 1, reaches 1 exactly when the
    LP is unbounded.  A solve that can be unbounded may end in HiGHS's
    "model status unknown", with or without presolve."""
    feasibility = scipy_solve([0] * len(objective), rows, ops, rhs, "max")
    assert feasibility.status in (0, 2), feasibility.message
    if feasibility.status == 2:
        return "infeasible", None
    c = objective if sense == "max" else [-x for x in objective]
    recession = scipy_solve(c, [*rows, c], [*ops, "<="], [0] * len(rows) + [1], "max")
    assert recession.status == 0, recession.message
    if -recession.fun > 0.5:
        return "unbounded", None
    ref = scipy_solve(objective, rows, ops, rhs, sense)
    assert ref.status == 0, ref.message
    return "optimal", -ref.fun if sense == "max" else ref.fun


small_lps = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                st.sampled_from(["<=", "=", ">="]),
                st.integers(-4, 6),
            ),
            min_size=0,
            max_size=4,
        ),
        st.sampled_from(["max", "min"]),
    )
)


@settings(max_examples=50)
@given(small_lps)
# unbounded, but HiGHS's presolve calls it infeasible
@example(([1, 0, 0], [([1, -1, -1], ">=", -1), ([-1, 1, 1], ">=", 0)], "max"))
# unbounded, but HiGHS without presolve ends in "model status unknown"
@example(([1, 1], [([0, 2], ">=", -1), ([-2, 0], "<=", 1)], "max"))
def test_agrees_with_scipy(case):
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, names = build(objective, rows, ops, rhs, sense)
    ours = lp.solve()
    verdict, want = scipy_verdict(objective, rows, ops, rhs, sense)
    assert ours.status == verdict, f"scipy disagrees: {verdict} vs {ours.status}"
    if verdict == "optimal":
        assert abs(float(ours.objective) - want) < 1e-7, (
            f"objective {ours.objective} vs scipy {want}"
        )


@settings(max_examples=50)
@given(small_lps)
def test_optimal_assignments_satisfy_constraints_exactly(case):
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, names = build(objective, rows, ops, rhs, sense)
    sol = lp.solve()
    if sol.status != "optimal":
        return
    x = [sol.assignment[n] for n in names]
    assert all(v >= 0 for v in x)
    recomputed = sum(F(c) * v for c, v in zip(objective, x))
    assert recomputed == sol.objective
    for row, op, b in zip(rows, ops, rhs):
        lhs = sum(F(a) * v for a, v in zip(row, x))
        if op == "<=":
            assert lhs <= b
        elif op == ">=":
            assert lhs >= b
        else:
            assert lhs == b


@settings(max_examples=50)
@given(small_lps)
def test_infeasibility_certificates_reverify(case):
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, _ = build(objective, rows, ops, rhs, sense)
    sol = lp.solve()
    if sol.status != "infeasible":
        return
    assert sol.certificate is not None
    assert sol.certificate_checks()
    # independent recomputation of the two conditions
    cols = len(sol.eq_matrix[0])
    for j in range(cols):
        against = sum(y * row[j] for y, row in zip(sol.certificate, sol.eq_matrix))
        assert against >= 0, f"column {j} pairs to {against}"
    assert sum(y * b for y, b in zip(sol.certificate, sol.eq_rhs)) < 0


def test_hand_worked_vertex_optimum():
    # max x + y on x + 2y <= 4, 3x + y <= 6: corner at (8/5, 6/5)
    lp, _ = build([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6])
    sol = lp.solve()
    assert sol.status == "optimal"
    assert sol.objective == F(14, 5)
    assert sol.assignment == {"x0": F(8, 5), "x1": F(6, 5)}


def test_equality_and_geq_mix():
    # min x + y on x + y >= 2, x - y = 1 touches (3/2, 1/2)
    lp, _ = build([1, 1], [[1, 1], [1, -1]], [">=", "="], [2, 1], sense="min")
    sol = lp.solve()
    assert sol.status == "optimal"
    assert sol.objective == 2
    assert sol.assignment["x0"] - sol.assignment["x1"] == 1


def test_unbounded_detected():
    lp, _ = build([1], [], [], [])
    assert lp.solve().status == "unbounded"
    lp2, _ = build([1, 0], [[-1, 1]], ["<="], [1])
    assert lp2.solve().status == "unbounded"


def test_empty_program_optimum_zero():
    lp, _ = build([-1, -2], [], [], [])
    sol = lp.solve()
    assert sol.status == "optimal"
    assert sol.objective == 0
    assert sol.assignment == {"x0": 0, "x1": 0}


def test_infeasible_simple():
    lp, _ = build([1], [[1], [1]], ["<=", ">="], [1, 2])
    sol = lp.solve()
    assert sol.status == "infeasible"
    assert sol.certificate_checks()


def test_redundant_rows_are_harmless():
    lp, _ = build(
        [1, 1],
        [[1, 1], [2, 2], [1, 0]],
        ["=", "=", "<="],
        [1, 2, 1],
    )
    sol = lp.solve()
    assert sol.status == "optimal"
    assert sol.objective == 1


def test_implied_rows_leave_the_tableau_but_not_the_stored_form():
    # x + y = 1 twice and 2x + 2y = 2: only the last row enters the tableau
    lp, _ = build([1, 0], [[1, 1], [1, 1], [2, 2]], ["=", "=", "="], [1, 1, 2])
    sol, path = solve_recording(lp)
    assert (sol.status, sol.objective) == ("optimal", 1)
    assert len(sol.eq_matrix) == 3 and sol.eq_rhs == (1, 1, 2)
    assert {row for row, _ in path} == {0}
    # with every row entered, phase 1 leaves an artificial on a row with no
    # real entry: the full-rank invariant fails loudly instead
    with patch("contextua.lp.independent_rows", lambda rows: list(range(len(rows)))):
        with pytest.raises(AssertionError, match="implied by the others"):
            lp.solve()


def test_degenerate_cycling_instance_terminates():
    # the classic cycling instance for naive pivoting; Bland's rule must
    # terminate at value -1/20 with x = (1/25, 0, 1, 0)
    lp, _ = build(
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
        sense="min",
    )
    sol = lp.solve()
    assert sol.status == "optimal"
    assert sol.objective == F(-1, 20)
    assert sol.assignment["x2"] == 1


def test_exact_rational_data_stays_exact():
    lp = LinearProgram("max")
    lp.add_variable("a", F(1, 3))
    lp.add_variable("b", F(1, 7))
    lp.add_constraint({"a": F(2, 5), "b": 1}, "<=", F(3, 11))
    sol = lp.solve()
    assert sol.status == "optimal"
    # optimum puts everything on the better ratio: a = (3/11)/(2/5) = 15/22
    assert sol.assignment["a"] == F(15, 22)
    assert sol.objective == F(1, 3) * F(15, 22)


def test_an_optimal_solution_has_no_farkas_certificate_to_check():
    lp = LinearProgram("min")
    lp.add_variable("x", 1)
    lp.add_constraint({"x": 1}, ">=", 1)
    sol = lp.solve()
    assert sol.status == "optimal" and sol.certificate is None
    assert sol.certificate_checks() is False


def test_builder_validation():
    lp = LinearProgram("max")
    lp.add_variable("x")
    with pytest.raises(ValueError):
        lp.add_variable("x")
    with pytest.raises(ValueError):
        lp.add_constraint({"y": 1}, "<=", 1)
    with pytest.raises(ValueError):
        lp.add_constraint({"x": 1}, "<", 1)
    with pytest.raises(ValueError):
        LinearProgram("maximize")


def test_solution_bookkeeping_fields():
    lp, _ = build([1], [[1]], ["<="], [1])
    sol = lp.solve()
    assert isinstance(sol, LpSolution)
    assert sol.eq_matrix is not None and sol.eq_rhs is not None
    # one declared variable plus one slack column
    assert len(sol.eq_matrix[0]) == 2


# -- the integer simplex follows the Fraction full-row simplex exactly -------


def presolved_rows(lp, rows, rhs):
    """The rows the solver keeps, chosen by ``rank`` alone: every row with
    a slack column, and each equality row, from the last to the first, whose
    [A | b] raises the rank of the equality rows chosen after it."""
    kept = [i for i, op in enumerate(lp._ops) if op != "="]
    chosen = []
    for i in reversed(range(len(rows))):
        if lp._ops[i] == "=" and rank([*chosen, [*rows[i], rhs[i]]]) > len(chosen):
            chosen.append([*rows[i], rhs[i]])
            kept.append(i)
    return sorted(kept)


def slack_startable(lp):
    """True when every row is ``<=`` with b >= 0 or ``>=`` with b < 0: after
    the sign fix each has its own slack column with coefficient +1."""
    return all(
        (op == "<=" and b >= 0) or (op == ">=" and b < 0)
        for op, b in zip(lp._ops, lp._rhs)
    )


def fraction_simplex(lp, presolve=True, artificial_start=False):
    """Reference solver: the Bland simplex on a tableau of Fractions, where
    every pivot recomputes every other row over every column.  A program
    that is :func:`slack_startable` starts phase 2 from its slack basis,
    unless ``artificial_start`` asks for phase 1 from all artificial
    columns, the start of every other program.  With ``presolve`` the
    tableau holds only the rows of :func:`presolved_rows`, and the
    certificate is 0 on the others; without it every row enters, and rows
    left without a real pivot after phase 1 are dropped.  Returns its
    solution and the (row, column) of every pivot."""
    rows, rhs, width = lp._standard_form()
    rows = [[row.get(j, F(0)) for j in range(width)] for row in rows]
    stored = dict(eq_matrix=tuple(map(tuple, rows)), eq_rhs=tuple(rhs))
    path = []

    def pivot(row, col):
        path.append((row, col))
        pivot_row = [x / tableau[row][col] for x in tableau[row]]
        tableau[row] = pivot_row
        for i, other in enumerate(tableau):
            if i != row and other[col] != 0:
                factor = other[col]
                tableau[i] = [x - factor * p for x, p in zip(other, pivot_row)]
        basis[row] = col

    def bland(n_cols):
        """Minimize the last row; False iff unbounded."""
        while True:
            obj = tableau[-1]
            entering = next((j for j in range(n_cols) if obj[j] < 0), None)
            if entering is None:
                return True
            ratios = [
                (tableau[i][-1] / tableau[i][entering], basis[i], i)
                for i in range(len(tableau) - 1)
                if tableau[i][entering] > 0
            ]
            if not ratios:
                return False
            pivot(min(ratios)[2], entering)

    if slack_startable(lp) and not artificial_start:
        tableau = [row + [b] for row, b in zip(rows, rhs)]
        basis = [len(lp._names) + i for i in range(len(rows))]
    else:
        entered = presolved_rows(lp, rows, rhs) if presolve else list(range(len(rows)))
        m = len(entered)
        tableau = [
            list(rows[i]) + [F(int(k == a)) for a in range(m)] + [rhs[i]]
            for k, i in enumerate(entered)
        ]
        basis = [width + k for k in range(m)]
        tableau.append(
            [-sum((r[j] for r in tableau), F(0)) for j in range(width)]
            + [F(0)] * m
            + [-sum((r[-1] for r in tableau), F(0))]
        )
        assert bland(width + m), "feasibility phase cannot be unbounded"
        if tableau[m][-1] < 0:
            cert = [F(0)] * len(rows)
            for k, i in enumerate(entered):
                cert[i] = tableau[m][width + k] - 1
            return LpSolution("infeasible", None, certificate=tuple(cert), **stored), path

        drop = []
        for i in range(m):
            if basis[i] >= width:
                j = next((j for j in range(width) if tableau[i][j] != 0), None)
                if j is None:
                    drop.append(i)
                else:
                    pivot(i, j)
        keep = [i for i in range(m) if i not in drop]
        tableau[:] = [tableau[i][:width] + [tableau[i][-1]] for i in keep]
        basis[:] = [basis[i] for i in keep]
    m = len(tableau)

    sign = -1 if lp.sense == "max" else 1
    cost = [sign * c for c in lp._objective] + [F(0)] * (width - len(lp._names))
    obj = cost + [F(0)]
    for i in range(m):
        obj = [o - cost[basis[i]] * x for o, x in zip(obj, tableau[i])]
    tableau.append(obj)
    if not bland(width):
        return LpSolution("unbounded", None, **stored), path

    values = [F(0)] * width
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    minimized = -tableau[m][-1]
    objective = -minimized if lp.sense == "max" else minimized
    return LpSolution(
        "optimal", objective, dict(zip(lp._names, values)), **stored
    ), path


def solve_recording(lp):
    """``lp.solve()`` and the (row, column) of every pivot it takes."""
    path = []
    pivot = LinearProgram._pivot

    def recorded(tableau, dens, basis, row, col):
        path.append((row, col))
        pivot(tableau, dens, basis, row, col)

    with patch.object(LinearProgram, "_pivot", staticmethod(recorded)):
        return lp.solve(), path


def assert_same_path(lp):
    ours, our_path = solve_recording(lp)
    ref, ref_path = fraction_simplex(lp)
    assert our_path == ref_path
    assert ours == ref
    assert repr(ours) == repr(ref)


def programs_solved_by(analysis, model):
    """Every program that ``analysis(model)`` solves."""
    built = []
    solve = LinearProgram.solve

    def recording(lp):
        built.append(lp)
        return solve(lp)

    with patch.object(LinearProgram, "solve", recording):
        analysis(model)
    return built


@settings(max_examples=50)
@given(small_lps)
def test_sparse_pivot_matches_dense_pivot(case):
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, _ = build(objective, rows, ops, rhs, sense)
    assert_same_path(lp)


#: Equality rows the others imply: (kind, first, second, scale) appends a
#: copy of equality row ``first``, the copy times ``scale``, or the sum of
#: rows ``first`` and ``second``, each index taken modulo the equality rows.
implied_rows = st.lists(
    st.tuples(
        st.sampled_from(["copy", "scaled", "sum"]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([F(-2), F(1, 3), F(5, 2)]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60)
@given(small_lps, implied_rows)
@example(([1, 1], [([1, 1], "=", 1)], "max"), [("copy", 0, 0, F(1))])
@example(([0, 1], [([1, -1], "=", 2), ([1, 1], "=", -1)], "min"), [("sum", 0, 1, F(1))])
def test_implied_equalities_change_no_verdict(case, recipes):
    objective, constraints, sense = case
    equalities = [(row, b) for row, op, b in constraints if op == "="]
    assume(equalities)
    for kind, first, second, scale in recipes:
        row, b = equalities[first % len(equalities)]
        if kind == "scaled":
            row, b = [scale * x for x in row], scale * b
        elif kind == "sum":
            other, c = equalities[second % len(equalities)]
            row, b = [x + y for x, y in zip(row, other)], b + c
        constraints = [*constraints, (row, "=", b)]
    lp, _ = build(objective, *map(list, zip(*constraints)), sense)
    ours = lp.solve()
    ref, _ = fraction_simplex(lp, presolve=False)
    assert (ours.status, ours.objective) == (ref.status, ref.objective)
    assert (ours.eq_matrix, ours.eq_rhs) == (ref.eq_matrix, ref.eq_rhs)
    if ours.status == "infeasible":
        assert len(ours.certificate) == len(ours.eq_matrix)
        assert ours.certificate_checks()
        for j in range(len(ours.eq_matrix[0])):
            assert sum(y * row[j] for y, row in zip(ours.certificate, ours.eq_matrix)) >= 0
        assert sum(y * b for y, b in zip(ours.certificate, ours.eq_rhs)) < 0


@pytest.mark.parametrize("fragment", [gbit, halving_fragment, qubit_fragment])
@pytest.mark.parametrize("signed", [False, True])
def test_sparse_pivot_matches_dense_pivot_on_embedding_lps(fragment, signed):
    assert_same_path(_embedding_program(fragment(), signed, Limits()))


@pytest.mark.parametrize(
    "model",
    [chsh_quantum, kcbs_quantum, lambda: nudged_box(F(1, 4))],
    ids=["chsh", "kcbs", "nudged-box"],
)
def test_integer_simplex_matches_fraction_simplex_on_fraction_lps(model):
    # the nudged box disturbs, so it builds the disturbance LP and the
    # fraction LP of its agreeing part
    m = model()
    programs = programs_solved_by(fractions_with_disturbance, m)
    # the disturbance LP has equality rows, so it keeps the all-artificial
    # start; every fraction LP starts from its slacks
    starts = [slack_startable(lp) for lp in programs]
    assert starts == ([False, True] if detect_disturbance(m) else [True])
    for lp in programs:
        assert_same_path(lp)


slack_startable_lps = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                st.sampled_from(["<=", ">="]),
                st.integers(0, 6),
            ).map(lambda c: (c[0], c[1], c[2] if c[1] == "<=" else -1 - c[2])),
            min_size=0,
            max_size=5,
        ),
        st.sampled_from(["max", "min"]),
    )
)


@settings(max_examples=80)
@given(slack_startable_lps)
def test_slack_start_agrees_with_the_artificial_start(case):
    # every row is <= with b >= 0 or >= with b < 0: the slack basis is
    # feasible, and the package never runs phase 1
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, _ = build(objective, rows, ops, rhs, sense)
    assert slack_startable(lp)

    def no_phase_one(*args):
        raise AssertionError("phase 1 ran on a slack-startable program")

    with patch.object(LinearProgram, "_phase_one", no_phase_one):
        ours = lp.solve()
    ref, _ = fraction_simplex(lp, artificial_start=True)
    assert ours.status == ref.status != "infeasible"
    assert ours.objective == ref.objective


@pytest.mark.parametrize(
    "program",
    [
        lambda: _embedding_program(gbit(), True, Limits()),
        lambda: _embedding_program(qubit_fragment(), True, Limits()),
        lambda: build([1, 2], [[1, 1], [1, -1], [-1, 3]], ["<=", ">=", "="], [4, -1, 2])[0],
    ],
    ids=["gbit", "qubit", "mixed-rows"],
)
def test_solving_twice_leaves_the_program_intact(program):
    lp = program()
    first = lp.solve()
    rows, rhs, width = lp._standard_form()
    rows = [[row.get(j, F(0)) for j in range(width)] for row in rows]
    assert first.eq_matrix == tuple(map(tuple, rows))
    assert first.eq_rhs == tuple(rhs)
    assert lp.solve() == first


@pytest.mark.parametrize(
    "status, objective, constraints",
    [
        (
            "optimal",
            [1, 2, 0],
            [({0: 1}, "<=", 3), ({1: 1, 2: -1}, "<=", 1), ({0: 1, 2: 2}, "=", 4)],
        ),
        (
            "infeasible",
            [1, 0, 1],
            [({0: 1}, ">=", 2), ({1: 1, 2: 1}, "=", 1), ({0: 1, 1: 1}, "<=", 1)],
        ),
    ],
)
def test_declaration_order_and_explicit_zeros_leave_the_solution_alone(
    status, objective, constraints
):
    names = [f"x{j}" for j in range(len(objective))]

    def declared_first(zeros):
        lp = LinearProgram("max")
        for name, c in zip(names, objective):
            lp.add_variable(name, c)
        for coeffs, op, b in constraints:
            full = {j: coeffs.get(j, 0) for j in range(len(names))} if zeros else coeffs
            lp.add_constraint({names[j]: c for j, c in full.items()}, op, b)
        return lp.solve()

    def declared_as_needed():
        # each variable is declared just before the first constraint that
        # reads it, as fractions_with_disturbance declares its own
        lp = LinearProgram("max")
        declared = []
        for coeffs, op, b in constraints:
            for j in coeffs:
                if names[j] not in declared:
                    declared.append(lp.add_variable(names[j], objective[j]))
            lp.add_constraint({names[j]: c for j, c in coeffs.items()}, op, b)
        assert declared == names
        return lp.solve()

    reference = declared_first(zeros=False)
    assert reference.status == status
    for other in (declared_as_needed(), declared_first(zeros=True)):
        assert other == reference
        assert repr(other) == repr(reference)
