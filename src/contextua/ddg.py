"""Discrete differential geometry substrate.

Oriented simplicial complexes with exact rational chains and cochains:
boundary / coboundary, the integration pairing, integer homology (Smith normal
form, cross-checked against rational ranks), rational cohomology bases, and
one least-squares potential solver, which also decides exactness in degree 1.
Each complex records its faces once; every boundary map reads that table.
A complex never changes after it is built, so what depends on it alone is
computed the first time it is asked for and kept on it: the rank and the
Smith factors of each boundary, and the potential solver's Laplacian inverse
per edge set.

Orientation convention: a simplex is stored as a strictly increasing vertex
tuple and carries the orientation induced by that order.  Chain and cochain
constructors accept arbitrarily ordered vertex tuples and fold the permutation
sign into the coefficient, so ``{(b, a): x}`` means ``-x`` on ``(a, b)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from ._rat import format_rational

Simplex = tuple[int, ...]


def _sort_with_sign(vertices: Sequence[int]) -> tuple[Simplex, int]:
    """Canonical ascending form of a vertex tuple and the permutation sign."""
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        raise ValueError(f"degenerate simplex {tuple(vertices)}")
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(verts)):
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    return tuple(verts), sign


class SimplicialComplex:
    """A finite oriented simplicial complex over integer vertex ids.

    Built from any collection of simplices; the face closure is generated
    automatically, so passing the maximal simplices is enough.
    """

    def __init__(self, simplices: Iterable[Sequence[int]]):
        by_dim: dict[int, set[Simplex]] = {}
        for spx in simplices:
            canonical, _ = _sort_with_sign(tuple(spx))
            for k in range(1, len(canonical) + 1):
                for face in combinations(canonical, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        self._simplices: dict[int, tuple[Simplex, ...]] = {
            dim: tuple(sorted(faces)) for dim, faces in by_dim.items()
        }
        self._index: dict[int, dict[Simplex, int]] = {
            dim: {spx: i for i, spx in enumerate(spxs)}
            for dim, spxs in self._simplices.items()
        }
        # the face rule, stated once: face i drops vertex i, with sign (-1)**i
        self._faces = {
            dim: tuple(
                tuple(
                    (self._index[dim - 1][spx[:i] + spx[i + 1 :]], (-1) ** i)
                    for i in range(dim + 1)
                )
                for spx in spxs
            )
            for dim, spxs in self._simplices.items() if dim > 0
        }
        # results that depend on the complex alone, filled by _stored
        self._store: dict = {}

    @property
    def dimension(self) -> int:
        return max(self._simplices, default=-1)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self._simplices.get(0, ()))

    def simplices(self, degree: int) -> tuple[Simplex, ...]:
        return self._simplices.get(degree, ())

    def faces(self, degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The boundary table: per simplex of ``degree``, in :meth:`simplices`
        order, its faces as (index in degree - 1, sign) pairs."""
        return self._faces.get(degree, ())

    def __contains__(self, simplex: Sequence[int]) -> bool:
        canonical, _ = _sort_with_sign(tuple(simplex))
        return canonical in self._index.get(len(canonical) - 1, {})

    def euler_characteristic(self) -> int:
        return sum((-1) ** dim * len(spxs) for dim, spxs in self._simplices.items())

    def boundary_matrix(self, degree: int) -> list[list[int]]:
        """Integer matrix of the boundary map from degree to degree-1.

        Rows are indexed by (degree-1)-simplices, columns by degree-simplices;
        every entry is 0 or +-1, as ``int``.
        """
        cols = len(self.simplices(degree))
        matrix = [[0] * cols for _ in self.simplices(degree - 1)]
        for j, faces in enumerate(self.faces(degree)):
            for i, sign in faces:
                matrix[i][j] = sign
        return matrix

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by first vertex."""
        return components(self.vertices, self.simplices(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __repr__(self) -> str:
        counts = {dim: len(s) for dim, s in self._simplices.items()}
        return f"SimplicialComplex({counts})"


def _stored(complex_: SimplicialComplex, key, compute: Callable):
    """``compute()``, kept on the complex under ``key`` after the first call."""
    store = complex_._store
    if key not in store:
        store[key] = compute()
    return store[key]


def components(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Connected components of a graph as sorted vertex tuples, ordered by
    first vertex.  Every edge endpoint must be among ``vertices``."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


class _GradedMap:
    """Shared behaviour of chains and cochains: a degree plus sparse values."""

    __slots__ = ("degree", "_data")

    def __init__(self, degree: int, data: Mapping[Sequence[int], Fraction] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        normalized: dict[Simplex, Fraction] = {}
        for spx, value in (data or {}).items():
            canonical, sign = _sort_with_sign(tuple(spx))
            if len(canonical) - 1 != degree:
                raise ValueError(f"simplex {spx} does not have degree {degree}")
            if type(value) is not Fraction:
                value = Fraction(value)
            if sign < 0:
                value = -value
            if canonical in normalized:
                value += normalized[canonical]
            if value:
                normalized[canonical] = value
            else:
                normalized.pop(canonical, None)
        self._data = normalized

    @classmethod
    def _canonical(cls, degree: int, data: dict[Simplex, Fraction]):
        """A map over ``data`` as it is: ascending simplices of ``degree``
        and nonzero Fraction values, so nothing is normalized again."""
        result = cls.__new__(cls)
        result.degree = degree
        result._data = data
        return result

    def __getitem__(self, simplex: Sequence[int]) -> Fraction:
        canonical, sign = _sort_with_sign(tuple(simplex))
        value = self._data.get(canonical, Fraction(0))
        return value if sign > 0 else -value

    def items(self):
        return sorted(self._data.items())

    def payload(self) -> dict[str, str]:
        """JSON-ready values: dotted simplex key -> rational text."""
        return {
            ".".join(map(str, spx)): format_rational(value)
            for spx, value in self.items()
        }

    @property
    def is_zero(self) -> bool:
        return not self._data

    def _binop(self, other, flip: int):
        if not isinstance(other, type(self)) or other.degree != self.degree:
            raise ValueError("degree or type mismatch")
        data = dict(self._data)
        for spx, value in other._data.items():
            old = data.get(spx, 0)
            value = old + value if flip > 0 else old - value
            if value:
                data[spx] = value
            else:
                data.pop(spx, None)
        return self._canonical(self.degree, data)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return self._canonical(self.degree, {})
        return self._canonical(self.degree, {s: scalar * v for s, v in self._data.items()})

    def __neg__(self):
        return Fraction(-1) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.degree == other.degree
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.degree}, {dict(self.items())})"


class Chain(_GradedMap):
    """Formal rational combination of oriented simplices of one degree."""

    @property
    def coeffs(self):
        return dict(self._data)


class Cochain(_GradedMap):
    """Rational valuation of oriented simplices of one degree (missing = 0)."""

    @property
    def values(self):
        return dict(self._data)


def boundary(complex_: SimplicialComplex, chain: Chain) -> Chain:
    """Alternating-sign face expansion, extended linearly."""
    if chain.degree == 0:
        raise ValueError("boundary of a degree-0 chain is undefined")
    index = complex_._index.get(chain.degree, {})
    lower = complex_.simplices(chain.degree - 1)
    faces = complex_.faces(chain.degree)
    data: dict[Simplex, Fraction] = {}
    for spx, coeff in chain.items():
        if spx not in index:
            raise ValueError(f"simplex {spx} not in complex")
        for i, sign in faces[index[spx]]:
            face = lower[i]
            old = data.get(face, 0)
            value = old + coeff if sign > 0 else old - coeff
            if value:
                data[face] = value
            else:
                data.pop(face, None)
    return Chain._canonical(chain.degree - 1, data)


def coboundary(complex_: SimplicialComplex, cochain: Cochain) -> Cochain:
    """The adjoint of boundary: ``pair(coboundary(w), S) == pair(w, boundary(S))``."""
    degree = cochain.degree + 1
    lower = complex_.simplices(cochain.degree)
    values = cochain._data
    data: dict[Simplex, Fraction] = {}
    for spx, faces in zip(complex_.simplices(degree), complex_.faces(degree)):
        total = 0
        for i, sign in faces:
            value = values.get(lower[i])
            if value is not None:
                total = total + value if sign > 0 else total - value
        if total:
            data[spx] = total
    return Cochain._canonical(degree, data)


def pair(cochain: Cochain, chain: Chain) -> Fraction:
    """Integrate a cochain over a chain of the same degree."""
    if cochain.degree != chain.degree:
        raise ValueError(
            f"degree mismatch: cochain {cochain.degree}, chain {chain.degree}"
        )
    values = cochain._data
    return sum(
        (values[s] * c for s, c in chain._data.items() if s in values), Fraction(0)
    )


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    betti: int
    torsion: tuple[int, ...]


def homology(complex_: SimplicialComplex, degree: int) -> HomologyGroup:
    """Integer homology in one degree.

    Betti numbers come from rational ranks; torsion from the integer Smith
    normal form of the next boundary matrix.  The two computations share
    nothing, and the rank read off the Smith form is asserted against the
    rational rank as an internal cross-check.  Each boundary's rank and
    Smith factors are computed once per complex and kept.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_here = len(complex_.simplices(degree))
    if degree == 0:
        kernel_dim = n_here
    else:
        kernel_dim = n_here - _boundary_rank(complex_, degree)
    rational_rank = _boundary_rank(complex_, degree + 1)
    torsion = tuple(sorted(d for d in _smith_factors(complex_, degree + 1) if d > 1))
    return HomologyGroup(degree, kernel_dim - rational_rank, torsion)


def _boundary_rank(complex_: SimplicialComplex, degree: int) -> int:
    """Rational rank of the boundary out of ``degree``, kept on the complex."""
    return _stored(
        complex_, ("rank", degree), lambda: linalg.rank(complex_.boundary_matrix(degree))
    )


def _smith_factors(complex_: SimplicialComplex, degree: int) -> tuple[int, ...]:
    """Smith invariant factors of the boundary out of ``degree``, checked
    once against its rational rank and kept on the complex."""

    def compute():
        factors = linalg.smith_normal_form(complex_.boundary_matrix(degree))
        rational_rank = _boundary_rank(complex_, degree)
        if len(factors) != rational_rank:
            raise AssertionError(
                "Smith rank disagrees with rational rank: "
                f"{len(factors)} vs {rational_rank}"
            )
        return tuple(factors)

    return _stored(complex_, ("smith", degree), compute)


def cohomology_basis(complex_: SimplicialComplex, degree: int) -> list[Cochain]:
    """Rational cochains spanning closed-mod-exact in one degree.

    Returns one representative per class: the kernel vectors of the
    coboundary, in nullspace order, that are independent of the exact
    cochains and of the kernel vectors before them.  One elimination of the
    columns [exact cochains | kernel vectors] finds them all: they are the
    pivot columns after the exact block.
    """
    spxs = complex_.simplices(degree)
    if not spxs:
        return []
    # coboundary matrix out of this degree = transpose of the next boundary;
    # with no next simplices it is zero and every cochain is closed
    up = linalg.transpose(complex_.boundary_matrix(degree + 1))
    kernel = linalg.nullspace(up or [[0] * len(spxs)])
    # Exact cochains span the columns of the previous coboundary matrix,
    # i.e. the rows of this degree's boundary matrix.
    exact = complex_.boundary_matrix(degree) if degree > 0 else []
    _, pivots = linalg.rref(linalg.transpose(exact + kernel))
    return [
        Cochain(degree, dict(zip(spxs, kernel[p - len(exact)])))
        for p in pivots
        if p >= len(exact)
    ]


def potential(
    complex_: SimplicialComplex,
    xi: Cochain,
    edges: Sequence[Simplex] | None = None,
) -> Cochain:
    """Least-squares potential of the edge cochain xi, through the vertex Laplacian.

    Minimises the squared residual of ``coboundary(potential) - xi`` over
    ``edges`` (every edge of the complex by default).  The gauge: the first
    (smallest) vertex of each connected component of ``edges`` is pinned
    to 0.  The reduced Laplacian is nonsingular, so the potential is
    unique; its inverse is computed once per complex and edge set (see
    :func:`_laplacian_inverse`), and a call scales xi's values to ints
    over the lcm of their denominators, multiplies, and makes one Fraction
    per nonzero vertex value.
    """
    edges = complex_.simplices(1) if edges is None else tuple(edges)
    ends, rows, inverse_den = _stored(
        complex_, ("potential", edges), lambda: _laplacian_inverse(complex_, edges)
    )
    # the divergence of xi, as ints over the lcm of its denominators
    values = xi._data
    xs = [values.get(edge) for edge in edges]
    rhs_den = lcm(*(x.denominator for x in xs if x is not None))
    rhs = [0] * len(complex_.simplices(0))
    for (head, tail), x in zip(ends, xs):
        if x is not None:
            scaled = x.numerator * (rhs_den // x.denominator)
            rhs[head] += scaled
            rhs[tail] -= scaled
    den = rhs_den * inverse_den
    data: dict[Simplex, Fraction] = {}
    for vertex, row in rows:
        total = sum(a * rhs[j] for j, a in row)
        if total:
            data[vertex] = Fraction(total, den)
    return Cochain._canonical(0, data)


def _laplacian_inverse(complex_: SimplicialComplex, edges: tuple[Simplex, ...]):
    """What :func:`potential` needs of one edge set, as ``(ends, rows, den)``.

    ``ends`` holds each edge's (head, tail) vertex indices; the divergence
    of xi is ``rhs[head] += x, rhs[tail] -= x``.  The Laplacian restricted
    to the vertices that are not pinned splits into the connected blocks of
    the graph on those vertices (in an object complex, a 1x1 block per
    object and one per dependence polygon), and each block is inverted on
    its own.  ``rows`` holds, per unpinned vertex in vertex order, its key
    and its row of the inverse as (vertex index, int) pairs, the ints over
    the one denominator ``den``.
    """
    index = complex_._index.get(1, {})
    ends = tuple(
        tuple(i for i, _ in complex_.faces(1)[index[edge]]) for edge in edges
    )
    vertices = complex_.vertices
    pinned = {component[0] for component in components(vertices, edges)}
    free = [i for i, v in enumerate(vertices) if v not in pinned]
    lap: Counter[tuple[int, int]] = Counter()
    for head, tail in ends:
        lap[head, head] += 1
        lap[tail, tail] += 1
        lap[head, tail] -= 1
        lap[tail, head] -= 1
    free_set = set(free)
    inner = [(h, t) for h, t in ends if h in free_set and t in free_set]
    inverses = []
    for block in components(free, inner):
        inverse = linalg.inverse([[lap[i, j] for j in block] for i in block])
        if inverse is None:
            raise AssertionError("reduced Laplacian must be nonsingular")
        inverses.append((block, *inverse))
    den = lcm(*(block_den for _, _, block_den in inverses))
    row_of = {
        i: [(j, a * (den // block_den)) for j, a in zip(block, row) if a]
        for block, inverse_rows, block_den in inverses
        for i, row in zip(block, inverse_rows)
    }
    rows = tuple(((vertices[i],), row_of[i]) for i in free)
    return ends, rows, den


@dataclass(frozen=True)
class PotentialResult:
    """Outcome of an exactness test: a status and, when exact, a potential."""

    status: str  # "exact" | "no_potential" | "not_closed"
    potential: Cochain | None = None


def is_exact(complex_: SimplicialComplex, cochain: Cochain) -> PotentialResult:
    """Solve ``coboundary(c) == cochain`` exactly, if possible.

    A nonzero coboundary yields the "not_closed" verdict and closed-but-
    inexact input yields "no_potential".  Degree 1 takes the least-squares
    :func:`potential` and is exact when its coboundary equals the cochain on
    the complex's edges (values off the complex are ignored); higher
    degrees go through a general rational solve.
    """
    if not coboundary(complex_, cochain).is_zero:
        return PotentialResult("not_closed")
    if cochain.degree == 1:
        found = potential(complex_, cochain)
        fitted, given = coboundary(complex_, found)._data, cochain._data
        if any(fitted.get(e, 0) != given.get(e, 0) for e in complex_.simplices(1)):
            return PotentialResult("no_potential")
        return PotentialResult("exact", found)
    if cochain.degree == 0:
        # exact 0-cochains are coboundaries of nothing: only the zero cochain
        if cochain.is_zero:
            return PotentialResult("exact", None)
        return PotentialResult("no_potential")
    lower = complex_.simplices(cochain.degree - 1)
    matrix = linalg.transpose(complex_.boundary_matrix(cochain.degree))
    rhs = [cochain[s] for s in complex_.simplices(cochain.degree)]
    solution = linalg.solve(matrix, rhs, len(lower))
    if solution is None:
        return PotentialResult("no_potential")
    return PotentialResult(
        "exact",
        Cochain(cochain.degree - 1, {s: v for s, v in zip(lower, solution) if v != 0}),
    )
