from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from contextua.disturbance import detect_disturbance, fractions_with_disturbance
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
def test_agrees_with_scipy(case):
    objective, constraints, sense = case
    rows = [c[0] for c in constraints]
    ops = [c[1] for c in constraints]
    rhs = [c[2] for c in constraints]
    lp, names = build(objective, rows, ops, rhs, sense)
    ours = lp.solve()
    ref = scipy_solve(objective, rows, ops, rhs, sense)
    if ours.status == "optimal":
        assert ref.status == 0, f"scipy disagrees: {ref.status} vs optimal"
        want = -ref.fun if sense == "max" else ref.fun
        assert abs(float(ours.objective) - want) < 1e-7, (
            f"objective {ours.objective} vs scipy {want}"
        )
    elif ours.status == "infeasible":
        assert ref.status == 2
    else:
        assert ref.status == 3


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


def fraction_simplex(lp):
    """Reference solver: the two-phase Bland simplex on a tableau of
    Fractions, where every pivot recomputes every other row over every
    column.  Returns its solution and the (row, column) of every pivot."""
    rows, rhs, width = lp._standard_form()
    m = len(rows)
    stored = dict(eq_matrix=tuple(map(tuple, rows)), eq_rhs=tuple(rhs))
    tableau = [
        list(row) + [F(int(i == k)) for k in range(m)] + [b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    basis = [width + i for i in range(m)]
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

    tableau.append(
        [-sum((r[j] for r in tableau), F(0)) for j in range(width)]
        + [F(0)] * m
        + [-sum((r[-1] for r in tableau), F(0))]
    )
    assert bland(width + m), "feasibility phase cannot be unbounded"
    if tableau[m][-1] < 0:
        cert = tuple(tableau[m][width + i] - 1 for i in range(m))
        return LpSolution("infeasible", None, certificate=cert, **stored), path

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
    m = len(keep)

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
    assert len(programs) == (2 if detect_disturbance(m) else 1)
    for lp in programs:
        assert_same_path(lp)


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
    rows, rhs, _ = lp._standard_form()
    assert first.eq_matrix == tuple(map(tuple, rows))
    assert first.eq_rhs == tuple(rhs)
    assert lp.solve() == first
