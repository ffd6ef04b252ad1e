"""Chains, cochains, boundary maps, homology."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given
from hypothesis import strategies as st

from random import Random

from contextua import ddg, linalg
from contextua.ddg import (
    Chain,
    Cochain,
    HomologyGroup,
    SimplicialComplex,
    boundary,
    coboundary,
    cohomology_basis,
    homology,
    is_exact,
    pair,
)
from contextua.scenarios import random_complex

# ---------------------------------------------------------------------------
# strategies

simplex_lists = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=8,
)
complexes = simplex_lists.map(SimplicialComplex)

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def complex_with_chain(draw, degree_offset=0):
    complex_ = draw(complexes)
    degrees = [d for d in range(complex_.dimension + 1) if complex_.simplices(d)]
    degree = draw(st.sampled_from(degrees))
    spxs = complex_.simplices(degree)
    values = draw(
        st.lists(coefficients, min_size=len(spxs), max_size=len(spxs))
    )
    return complex_, Chain(degree, dict(zip(spxs, values)))


@st.composite
def complex_with_cochain_and_chain(draw):
    """A cochain of degree n and a chain of degree n+1 on the same complex."""
    complex_ = draw(complexes)
    degrees = [d for d in range(complex_.dimension) if complex_.simplices(d + 1)]
    if not degrees:
        degrees = [0]
    degree = draw(st.sampled_from(degrees))
    low = complex_.simplices(degree)
    high = complex_.simplices(degree + 1)
    w = Cochain(degree, dict(zip(low, draw(st.lists(coefficients, min_size=len(low), max_size=len(low))))))
    s = Chain(degree + 1, dict(zip(high, draw(st.lists(coefficients, min_size=len(high), max_size=len(high))))))
    return complex_, w, s


# ---------------------------------------------------------------------------
# orientation and construction

def test_constructor_closes_under_faces():
    k = SimplicialComplex([(3, 1, 2)])
    assert (1, 2, 3) in k
    assert (1, 3) in k
    assert (2,) in k
    assert k.euler_characteristic() == 1


def test_orientation_sign_is_folded_into_coefficients():
    c = Chain(1, {(2, 1): Fraction(3)})
    assert c[(1, 2)] == -3
    assert c[(2, 1)] == 3
    with pytest.raises(ValueError):
        Chain(1, {(1, 1): Fraction(1)})


def test_boundary_of_three_simplex():
    k = SimplicialComplex([(1, 2, 3, 4)])
    b = boundary(k, Chain(3, {(1, 2, 3, 4): Fraction(1)}))
    assert b == Chain(
        2,
        {
            (2, 3, 4): Fraction(1),
            (1, 3, 4): Fraction(-1),
            (1, 2, 4): Fraction(1),
            (1, 2, 3): Fraction(-1),
        },
    )
    assert boundary(k, b).is_zero


def test_triangle_rim_is_a_cycle():
    k = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    loop = Chain(1, {(1, 2): Fraction(1), (2, 3): Fraction(1), (3, 1): Fraction(1)})
    assert boundary(k, loop).is_zero


@given(complex_with_chain())
def test_boundary_squares_to_zero(data):
    complex_, chain = data
    if chain.degree < 2:
        return
    assert boundary(complex_, boundary(complex_, chain)).is_zero


@given(complex_with_chain())
def test_coboundary_squares_to_zero(data):
    complex_, chain = data
    w = Cochain(chain.degree, chain.coeffs)
    assert coboundary(complex_, coboundary(complex_, w)).is_zero


@given(complex_with_cochain_and_chain())
def test_stokes_pairing(data):
    complex_, w, s = data
    assert pair(coboundary(complex_, w), s) == pair(w, boundary(complex_, s))


def test_discrete_gradient_on_an_edge():
    k = SimplicialComplex([(1, 2)])
    c = Cochain(0, {(1,): Fraction(5), (2,): Fraction(7)})
    assert coboundary(k, c)[(1, 2)] == 2


def test_pair_bilinearity_and_degree_check():
    k = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    w = Cochain(1, {(1, 2): Fraction(1)})
    loop = Chain(1, {(1, 2): Fraction(1), (2, 3): Fraction(1), (3, 1): Fraction(1)})
    assert pair(w, loop) == 1
    assert pair(w, Chain(1)) == 0
    with pytest.raises(ValueError):
        pair(w, Chain(0, {(1,): Fraction(1)}))


# ---------------------------------------------------------------------------
# homology

def hollow_triangle():
    return SimplicialComplex([(1, 2), (2, 3), (1, 3)])


def test_homology_examples():
    assert homology(hollow_triangle(), 1) == HomologyGroup(1, 1, ())
    assert homology(SimplicialComplex([(1, 2, 3)]), 1) == HomologyGroup(1, 0, ())
    assert homology(SimplicialComplex([(1,), (2,)]), 0) == HomologyGroup(0, 2, ())


# A 6-vertex triangulation of the real projective plane: every edge lies in
# exactly two triangles and the Euler characteristic is 1.
PROJECTIVE_PLANE = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def test_homology_torsion_of_projective_plane():
    k = SimplicialComplex(PROJECTIVE_PLANE)
    assert k.euler_characteristic() == 1
    assert homology(k, 0) == HomologyGroup(0, 1, ())
    assert homology(k, 1) == HomologyGroup(1, 0, (2,))
    assert homology(k, 2) == HomologyGroup(2, 0, ())
    # independent oracle for the torsion: sympy's Smith normal form of the
    # degree-2 boundary matrix
    b2 = sympy.Matrix([[int(x) for x in row] for row in k.boundary_matrix(2)])
    diag = sympy_snf(b2)
    factors = sorted(
        abs(diag[i, i]) for i in range(min(diag.shape)) if abs(diag[i, i]) > 1
    )
    assert factors == [2]


def triangulated_torus(n):
    """The n-by-n grid with opposite sides glued, each square cut along
    one diagonal: 3n**2 edges and 2n**2 triangles."""
    def vertex(i, j):
        return (i % n) * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            corner, diagonal = vertex(i, j), vertex(i + 1, j + 1)
            triangles.append((corner, vertex(i + 1, j), diagonal))
            triangles.append((corner, vertex(i, j + 1), diagonal))
    return SimplicialComplex(triangles)


def test_homology_of_a_triangulated_torus():
    k = triangulated_torus(7)
    assert len(k.simplices(1)) == 147 and len(k.simplices(2)) == 98
    assert [homology(k, n) for n in range(3)] == [
        HomologyGroup(0, 1, ()),
        HomologyGroup(1, 2, ()),
        HomologyGroup(2, 1, ()),
    ]


def _all_simplices(k):
    return [s for n in range(k.dimension + 1) for s in k.simplices(n)]


def test_stored_homology_matches_a_fresh_complex():
    # each boundary's rank and Smith factors are kept on the complex, so a
    # second round, in another order, must read what a fresh complex computes
    cases = [SimplicialComplex(PROJECTIVE_PLANE), triangulated_torus(3)] + [
        random_complex(Random(seed)) for seed in range(100)
    ]
    for seed, k in enumerate(cases):
        degrees = list(range(k.dimension + 3))
        Random(seed).shuffle(degrees)
        first = {n: homology(k, n) for n in degrees}
        again = {n: homology(k, n) for n in reversed(degrees)}
        fresh = {n: homology(SimplicialComplex(_all_simplices(k)), n) for n in degrees}
        assert first == again == fresh


@given(complexes)
def test_euler_characteristic_equals_alternating_betti_sum(k):
    total = sum(
        (-1) ** n * homology(k, n).betti for n in range(k.dimension + 1)
    )
    assert total == k.euler_characteristic()


@given(complexes)
def test_rational_cohomology_matches_homology_betti(k):
    for n in range(k.dimension + 1):
        assert len(cohomology_basis(k, n)) == homology(k, n).betti


# ---------------------------------------------------------------------------
# cohomology bases and potentials

def test_cohomology_basis_examples():
    assert len(cohomology_basis(hollow_triangle(), 1)) == 1
    assert cohomology_basis(SimplicialComplex([(1, 2, 3)]), 1) == []
    two = SimplicialComplex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert len(cohomology_basis(two, 1)) == 2


def _greedy_cohomology_basis(k, degree):
    """Reference: rank the growing stack once per kernel vector."""
    spxs = k.simplices(degree)
    if not spxs:
        return []
    up = linalg.transpose(k.boundary_matrix(degree + 1))
    if up:
        kernel = linalg.nullspace(up)
    else:
        kernel = [[Fraction(int(i == j)) for j in spxs] for i in spxs]
    stack = list(k.boundary_matrix(degree)) if degree > 0 else []
    current = linalg.rank(stack) if stack else 0
    out = []
    for vec in kernel:
        if linalg.rank(stack + [vec]) > current:
            stack.append(vec)
            current += 1
            out.append(Cochain(degree, dict(zip(spxs, vec))))
    return out


def test_cohomology_basis_matches_a_rank_per_vector_reference():
    for seed in range(300):
        k = random_complex(Random(seed))
        for n in range(k.dimension + 1):
            assert cohomology_basis(k, n) == _greedy_cohomology_basis(k, n)


def test_boundary_matrices_are_integer():
    k = SimplicialComplex(PROJECTIVE_PLANE)
    for n in range(1, 4):
        assert all(type(x) is int for row in k.boundary_matrix(n) for x in row)


def _face_rule_matrix(k, degree):
    """The boundary matrix written out from the face rule: face i of a
    simplex drops vertex i and carries sign (-1)**i."""
    rows = list(k.simplices(degree - 1))
    matrix = [[0] * len(k.simplices(degree)) for _ in rows]
    for j, spx in enumerate(k.simplices(degree)):
        for i in range(len(spx)):
            matrix[rows.index(spx[:i] + spx[i + 1 :])][j] = (-1) ** i
    return matrix


def _times(matrix, vector):
    return [sum((a * x for a, x in zip(row, vector)), Fraction(0)) for row in matrix]


def test_boundary_operators_are_the_boundary_matrix():
    cases = [(SimplicialComplex(PROJECTIVE_PLANE), Random(-1))] + [
        (random_complex(Random(seed)), Random(seed)) for seed in range(300)
    ]
    for k, rng in cases:
        for degree in range(1, k.dimension + 2):
            matrix = k.boundary_matrix(degree)
            assert matrix == _face_rule_matrix(k, degree)
            low, high = k.simplices(degree - 1), k.simplices(degree)
            c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in high]
            w = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in low]
            assert boundary(k, Chain(degree, dict(zip(high, c)))) == Chain(
                degree - 1, dict(zip(low, _times(matrix, c)))
            )
            assert coboundary(k, Cochain(degree - 1, dict(zip(low, w)))) == Cochain(
                degree, dict(zip(high, _times(linalg.transpose(matrix), w)))
            )


def test_components_of_a_graph():
    assert ddg.components([5, 1, 3, -2, 4], [(1, 5), (4, 5)]) == [
        (-2,), (1, 4, 5), (3,)
    ]
    k = SimplicialComplex([(1, 2), (2, 3), (7, 8), (9,)])
    assert k.components() == [(1, 2, 3), (7, 8), (9,)]


def test_cohomology_basis_elements_are_closed_and_not_exact():
    k = hollow_triangle()
    (generator,) = cohomology_basis(k, 1)
    assert coboundary(k, generator).is_zero
    assert is_exact(k, generator).status == "no_potential"


@given(complex_with_chain())
def test_exact_cochains_are_recognized(data):
    complex_, chain = data
    c = Cochain(chain.degree, chain.coeffs)
    w = coboundary(complex_, c)
    result = is_exact(complex_, w)
    assert result.status == "exact"
    recovered = result.potential or Cochain(chain.degree)
    assert coboundary(complex_, recovered) == w


def test_is_exact_verdicts():
    k = hollow_triangle()
    filled = SimplicialComplex([(1, 2, 3)])
    rim = Cochain(1, {(1, 2): Fraction(1)})
    assert is_exact(k, rim).status == "no_potential"
    assert is_exact(filled, rim).status == "not_closed"
    zero = is_exact(k, Cochain(1))
    assert zero.status == "exact"
    assert zero.potential is not None and zero.potential.is_zero
    # nothing lies below degree 0: the zero 0-cochain is exact with no
    # potential, and a closed nonzero one has none
    assert is_exact(k, Cochain(0)) == ddg.PotentialResult("exact", None)
    constant = Cochain(0, {(v,): Fraction(2, 3) for v in (1, 2, 3)})
    assert is_exact(k, constant) == ddg.PotentialResult("no_potential")
    spike = Cochain(0, {(4,): Fraction(-5)})
    assert is_exact(SimplicialComplex([(1,), (4,)]), spike).status == "no_potential"


def test_top_degree_zero_cochain_has_the_zero_potential():
    # no triangle: the system for a 2-cochain's potential has no rows, and
    # its potential is still a cochain over every edge
    k = hollow_triangle()
    result = is_exact(k, Cochain(2))
    assert result.status == "exact"
    assert result.potential.degree == 1 and result.potential.is_zero


def test_potential_is_pinned_at_component_roots():
    k = SimplicialComplex([(1, 2), (2, 3), (7, 8)])
    w = Cochain(1, {(1, 2): Fraction(1, 2), (2, 3): Fraction(1), (7, 8): Fraction(-2)})
    result = is_exact(k, w)
    assert result.status == "exact"
    c = result.potential
    assert c[(1,)] == 0 and c[(7,)] == 0
    assert c[(2,)] == Fraction(1, 2) and c[(3,)] == Fraction(3, 2) and c[(8,)] == -2


@pytest.mark.parametrize("kind", [Chain, Cochain])
def test_scalar_multiples_and_negation(kind):
    c = kind(1, {(1, 2): Fraction(1, 2), (3, 2): Fraction(-3)})
    assert 2 * c == kind(1, {(1, 2): Fraction(1), (2, 3): Fraction(6)})
    assert Fraction(-1, 3) * c == kind(1, {(1, 2): Fraction(-1, 6), (2, 3): Fraction(-1)})
    zero = 0 * c
    assert zero.is_zero and zero.degree == 1 and zero == kind(1)
    assert -c == kind(1, {(2, 1): Fraction(1, 2), (2, 3): Fraction(-3)})
    assert -(-c) == c and (c + -c).is_zero
    assert -kind(0) == kind(0)


@pytest.mark.parametrize("kind", [Chain, Cochain])
def test_int_values_and_a_simplex_named_in_two_orders(kind):
    c = kind(1, {(1, 2): 3})
    assert c[(1, 2)] == 3 and type(c[(1, 2)]) is Fraction
    # (1, 2) and (2, 1) name one simplex: the values add, each with its sign
    assert kind(1, {(1, 2): 5, (2, 1): 2}) == kind(1, {(1, 2): 3})
    assert kind(1, {(2, 1): 2, (1, 2): 5}) == kind(1, {(1, 2): 3})
    assert kind(1, {(2, 1): Fraction(1, 2), (1, 2): Fraction(-1, 2)}) == kind(1, {(2, 1): 1})
    assert kind(1, {(1, 2): 2, (2, 1): 2}).is_zero


def test_complexes_compare_and_print_by_their_simplices():
    k = SimplicialComplex([(3, 1, 2)])
    assert k == SimplicialComplex([(1, 2), (2, 3), (1, 3), (1, 2, 3)])
    assert k != hollow_triangle() and k != (1, 2, 3)
    assert repr(k) == "SimplicialComplex({0: 3, 1: 3, 2: 1})"
    assert repr(SimplicialComplex([])) == "SimplicialComplex({})"


def test_graded_maps_refuse_what_they_cannot_hold():
    k = SimplicialComplex([(1, 2, 3)])
    edge = Chain(1, {(1, 2): 1})
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        Chain(-1)
    with pytest.raises(ValueError, match=r"simplex \(1, 2, 3\) does not have degree 1"):
        Cochain(1, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="degree or type mismatch"):
        edge + Cochain(1, {(1, 2): 1})
    with pytest.raises(ValueError, match="degree or type mismatch"):
        edge - Chain(2, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="boundary of a degree-0 chain"):
        boundary(k, Chain(0, {(1,): 1}))
    with pytest.raises(ValueError, match=r"simplex \(1, 4\) not in complex"):
        boundary(k, Chain(1, {(1, 4): 1}))


def test_cohomology_basis_in_a_degree_with_no_simplices_is_empty():
    assert cohomology_basis(hollow_triangle(), 2) == []
    assert cohomology_basis(SimplicialComplex([(1, 2, 3)]), 5) == []


def test_one_face_of_the_hollow_tetrahedron_is_closed_but_not_exact():
    sphere = SimplicialComplex(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )
    face = Cochain(2, {(0, 1, 2): 1})
    assert coboundary(sphere, face).is_zero
    assert is_exact(sphere, face) == ddg.PotentialResult("no_potential")
    # these two values cancel on the fundamental cycle, so a potential exists
    pair_of_faces = Cochain(2, {(0, 1, 2): 1, (0, 1, 3): 1})
    found = is_exact(sphere, pair_of_faces)
    assert found.status == "exact"
    assert coboundary(sphere, found.potential) == pair_of_faces


def test_is_exact_on_a_complex_with_no_edges():
    result = is_exact(SimplicialComplex([(1,), (4,)]), Cochain(1))
    assert result.status == "exact" and result.potential.is_zero


def test_is_exact_ignores_values_off_the_complex():
    k = SimplicialComplex([(1, 2), (2, 3)])
    on = {(1, 2): Fraction(1, 2), (2, 3): Fraction(-1)}
    stray = Cochain(1, {**on, (1, 3): Fraction(5)})
    assert is_exact(k, stray) == is_exact(k, Cochain(1, on))
    assert is_exact(k, stray).status == "exact"


def _dense_potential(k, xi, edges=None):
    """Reference: the reduced vertex Laplacian of ``edges`` as one dense
    rational system, solved by ``linalg.solve``."""
    edges = k.simplices(1) if edges is None else edges
    vertices = k.vertices
    lap = [[0] * len(vertices) for _ in vertices]
    rhs = [Fraction(0)] * len(vertices)
    for edge in edges:
        value = xi[edge]
        ends = k.faces(1)[k.simplices(1).index(edge)]
        for i, sign in ends:
            rhs[i] += sign * value
            for j, other in ends:
                lap[i][j] += sign * other
    pinned = {component[0] for component in ddg.components(vertices, edges)}
    free = [i for i, v in enumerate(vertices) if v not in pinned]
    if not any(rhs[i] for i in free):
        return Cochain(0)
    system = [[lap[i][j] for j in free] for i in free]
    solution = linalg.solve(system, [rhs[i] for i in free], len(free))
    return Cochain(0, {(vertices[i],): x for i, x in zip(free, solution)})


def test_potential_matches_a_dense_laplacian_solve():
    cases = [random_complex(Random(seed)) for seed in range(300)] + [
        SimplicialComplex([]),
        SimplicialComplex([(1,), (4,)]),  # no edge at all
        SimplicialComplex([(1, 2), (2, 3), (5,), (7, 8), (9,)]),  # isolated vertices
        SimplicialComplex(PROJECTIVE_PLANE),
    ]
    for seed, k in enumerate(cases):
        rng = Random(seed)
        edges = k.simplices(1)
        xi = Cochain(
            1, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in edges}
        )
        # a seeded subset of the edges, as the chart split passes them
        kept = [e for e in edges if rng.random() < 0.6]
        for subset in (None, kept, []):
            expected = repr(_dense_potential(k, xi, subset))
            assert repr(ddg.potential(k, xi, subset)) == expected
            # the second call reads the Laplacian inverse kept on the complex
            assert repr(ddg.potential(k, xi, subset)) == expected


def test_potential_leaves_a_residual_with_no_divergence():
    for seed in range(100):
        k = random_complex(Random(seed))
        rng = Random(seed)
        xi = Cochain(
            1, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in k.simplices(1)}
        )
        phi = ddg.potential(k, xi)
        assert all(phi[c[:1]] == 0 for c in k.components())
        residual = xi - coboundary(k, phi)
        assert boundary(k, Chain(1, residual.values)).is_zero
        assert ddg.potential(k, residual).is_zero
