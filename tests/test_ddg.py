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


# ---------------------------------------------------------------------------
# serialization

def test_complex_json_roundtrip():
    k = SimplicialComplex(PROJECTIVE_PLANE)
    assert ddg.complex_from_json(ddg.complex_to_json(k)) == k


def test_cochain_and_chain_json_roundtrip():
    w = Cochain(1, {(1, 2): Fraction(-3, 7), (2, 5): Fraction(2)})
    s = Chain(2, {(1, 2, 5): Fraction(1, 3)})
    assert ddg.cochain_from_json(ddg.cochain_to_json(w)) == w
    assert ddg.chain_from_json(ddg.chain_to_json(s)) == s
