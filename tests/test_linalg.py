"""Exact linear algebra against sympy oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from contextua import linalg

# denominators as large as the Born-rule snapping of qubit_fragment produces
rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=10**6
)


def rational_matrix(max_rows=8, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(rationals, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@st.composite
def sign_matrix(draw, max_rows=8, max_cols=8):
    """Boundary-like ``int`` rows over {-1, 0, 1}, with some columns zeroed
    and some rows repeated: pivot columns get skipped, and rows cancel."""
    n = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=max_rows,
        )
    )
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    rows = [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in rows]
    repeats = draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows + repeats))


matrices = st.one_of(rational_matrix(), sign_matrix())


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


@given(matrices)
def test_rank_matches_sympy(m):
    assert linalg.rank(m) == to_sympy(m).rank()


@given(matrices)
def test_rref_matches_sympy(m):
    ours, pivots = linalg.rref(m)
    ref, ref_pivots = to_sympy(m).rref()
    assert list(ref_pivots) == pivots
    assert to_sympy(ours) == ref


@given(matrices)
def test_nullspace_is_exact_kernel_basis(m):
    basis = linalg.nullspace(m)
    ncols = len(m[0])
    # sympy's basis, one vector per free column, scaled to a leading +1
    ref = [list(v) for v in to_sympy(m).nullspace()]
    assert basis == [[x / next(y for y in v if y != 0) for x in v] for v in ref]
    # rank-nullity, exactly
    assert len(basis) + linalg.rank(m) == ncols
    for vec in basis:
        image = [sum(a * x for a, x in zip(row, vec)) for row in m]
        assert all(x == 0 for x in image), f"not in kernel: {vec}"
        first = next(x for x in vec if x != 0)
        assert first == 1
    # basis vectors are independent: stack and check rank
    if basis:
        assert linalg.rank(basis) == len(basis)


@given(matrices, st.data())
def test_pivot_is_one_gauss_jordan_step(m, data):
    m = [[Fraction(x) for x in row] for row in m]
    cells = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x]
    assume(cells)
    row, col = data.draw(st.sampled_from(cells))
    scaled = [linalg.over_lcm(values) for values in m]
    rows = [ints for ints, _ in scaled]
    dens = [den for _, den in scaled]
    before = list(rows)
    linalg.pivot(rows, dens, row, col)
    top = [x / m[row][col] for x in m[row]]
    step = [
        top if i == row else [x - values[col] * y for x, y in zip(values, top)]
        for i, values in enumerate(m)
    ]
    assert [[Fraction(x, d) for x in ints] for ints, d in zip(rows, dens)] == step
    assert all(d > 0 for d in dens)
    for i, values in enumerate(m):
        if i != row and values[col] == 0:
            assert rows[i] is before[i], f"row {i} was rewritten"


@st.composite
def sparse_dependent_matrix(draw, max_rows=8, max_cols=8):
    """Mostly-zero rational rows plus combinations of pairs of them, in a
    shuffled order, so dependent rows come before and after their parts."""
    n = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=max_rows)
    )
    scale = st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(2, 7)])
    index = st.integers(0, len(rows) - 1)
    for i, j, a, b in draw(st.lists(st.tuples(index, index, scale, scale), max_size=4)):
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


@given(st.one_of(sparse_dependent_matrix(), sign_matrix()))
def test_independent_rows_are_the_greedy_choice_from_the_last_row(m):
    greedy, chosen = [], []
    for i in reversed(range(len(m))):
        if linalg.rank([*chosen, m[i]]) > len(chosen):
            chosen.append(m[i])
            greedy.append(i)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    kept = linalg.independent_rows(sparse)
    assert kept == sorted(greedy)
    assert linalg.rank([m[i] for i in kept]) == len(kept) == linalg.rank(m)
    # explicit zeros are ignored
    assert linalg.independent_rows([dict(enumerate(row)) for row in m]) == kept


def test_independent_rows_of_nothing_and_of_zero_rows():
    assert linalg.independent_rows([]) == []
    assert linalg.independent_rows([{}, {3: Fraction(0)}]) == []
    assert linalg.independent_rows([{0: 1}, {}, {0: Fraction(-1, 2)}]) == [2]


def test_nullspace_of_no_rows_is_empty():
    assert linalg.nullspace([]) == []


def test_nullspace_ordering_is_by_free_column():
    # columns 0 and 1 are pivots, 2 and 3 free
    m = [
        [Fraction(1), Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(3), Fraction(4)],
    ]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    assert basis[0][2] != 0 and basis[0][3] == 0
    assert basis[1][3] != 0


@given(matrices)
def test_solve_consistent_systems(m):
    rng = random.Random(7)
    x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in m[0]]
    b = [sum(a * x for a, x in zip(row, x0)) for row in m]
    x = linalg.solve(m, b)
    assert x is not None
    assert [sum(a * v for a, v in zip(row, x)) for row in m] == b
    # sympy's parametric solution with every free parameter at zero
    ref, params = to_sympy(m).gauss_jordan_solve(to_sympy([[y] for y in b]))
    assert to_sympy([[y] for y in x]) == ref.subs({p: 0 for p in params})
    # an arbitrary right-hand side is solvable iff it adds no rank
    c = [Fraction(rng.randint(-4, 4)) for _ in m]
    augmented = to_sympy([list(row) + [y] for row, y in zip(m, c)])
    solvable = augmented.rank() == to_sympy(m).rank()
    assert (linalg.solve(m, c) is not None) == solvable


def test_int_rows_give_fraction_entries():
    m = [[1, 0, 2, 1], [0, 1, 3, 1], [1, 1, 5, 2]]
    reduced, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert linalg.rank(m) == 2
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    assert all(type(x) is Fraction for vec in basis for x in vec)
    x = linalg.solve(m, [1, 2, 3])
    assert x == [1, 2, 0, 0]
    assert all(type(v) is Fraction for v in x)


def test_entry_points_check_shapes():
    ragged = [[1, 0], [0, 1, 1]]
    for entry in (linalg.rref, linalg.rank, linalg.nullspace):
        with pytest.raises(ValueError, match="same length"):
            entry(ragged)
    with pytest.raises(ValueError, match="same length"):
        linalg.solve(ragged, [1, 1])
    with pytest.raises(ValueError, match="right-hand sides"):
        linalg.solve([[1], [2]], [1])
    with pytest.raises(ValueError, match="right-hand sides"):
        linalg.solve([], [1], 2)
    with pytest.raises(ValueError, match="not 3"):
        linalg.solve([[1, 2]], [1], 3)
    for not_square in ([[1, 2]], ragged):
        with pytest.raises(ValueError, match="square"):
            linalg.inverse(not_square)
    assert linalg.inverse([]) == ([], 1)  # the 0 x 0 matrix is square


def test_transpose_refuses_ragged_rows():
    assert linalg.transpose([[1, 2], [3, 4], [5, 6]]) == [[1, 3, 5], [2, 4, 6]]
    assert linalg.transpose([]) == []
    with pytest.raises(ValueError, match="same length"):
        linalg.transpose([[1, 2], [3]])


def test_solve_reports_inconsistency():
    m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve(m, [Fraction(1), Fraction(3)]) is None


def test_solve_takes_the_column_count_of_a_matrix_with_no_rows():
    # no equation leaves every unknown free, so the answer has ncols zeros
    assert linalg.solve([], [], 3) == [0, 0, 0]
    assert linalg.solve([], [], 0) == []
    with pytest.raises(ValueError, match="column count"):
        linalg.solve([], [])
    assert linalg.solve([[1, 2]], [1], 2) == [1, 0]


@st.composite
def late_unit_matrix(draw):
    """Sparse ±1 rows whose first unit entry in row-major order comes after
    larger entries, so the least-magnitude search must pass them by."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    size = nrows * ncols
    flat = draw(
        st.lists(st.sampled_from((0, 0, 0, 1, -1)), min_size=size, max_size=size)
    )
    first_unit = draw(st.integers(1, size - 1))
    flat[0] = draw(st.sampled_from((2, -2, 3, -3, 4, 6)))
    for k in range(1, first_unit):
        flat[k] = draw(st.sampled_from((0, 2, -2, 3, -3, 4, 6)))
    flat[first_unit] = draw(st.sampled_from((1, -1)))
    return [flat[r * ncols : (r + 1) * ncols] for r in range(nrows)]


@given(
    st.one_of(
        st.integers(1, 4).flatmap(
            lambda m: st.integers(1, 4).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                )
            )
        ),
        late_unit_matrix(),
    )
)
def test_smith_normal_form_matches_sympy(m):
    ours = linalg.smith_normal_form(m)
    sm = sympy_snf(sympy.Matrix(m))
    diag = [abs(sm[i, i]) for i in range(min(sm.shape)) if sm[i, i] != 0]
    assert ours == diag
    for a, b in zip(ours, ours[1:]):
        assert b % a == 0, f"divisibility chain broken: {ours}"
    assert len(ours) == linalg.rank([[Fraction(x) for x in row] for row in m])


# small ints among the rationals, so that singular matrices come up
square_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(rationals, st.integers(-1, 1).map(Fraction)),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@given(square_matrix)
def test_inverse_matches_sympy(m):
    ours = linalg.inverse(m)
    reference = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
    )
    if reference.det() == 0:
        assert ours is None
        return
    ints, den = ours
    assert den > 0 and math.gcd(den, *(x for row in ints for x in row)) == 1
    expected = reference.inv()
    assert [[Fraction(x, den) for x in row] for row in ints] == [
        [Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(len(m))]
        for i in range(len(m))
    ]


def test_smith_normal_form_known_torsion_case():
    # boundary-like matrix with a factor of 2
    m = [[2, 4], [6, 8]]
    assert linalg.smith_normal_form(m) == [2, 4]


@pytest.mark.parametrize(
    "m, factors", [([[2, 0], [0, 3]], [1, 6]), ([[4, 0], [0, 6]], [2, 12])]
)
def test_smith_normal_form_restores_divisibility(m, factors):
    """A diagonal input whose pivot does not divide the next entry is put in
    divisibility order by the gcd/lcm pass over the diagonal."""
    assert linalg.smith_normal_form(m) == factors
    sm = sympy_snf(sympy.Matrix(m))
    assert [abs(sm[i, i]) for i in range(2)] == factors
