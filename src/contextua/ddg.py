"""Discrete differential geometry substrate.

Oriented simplicial complexes with exact rational chains and cochains:
boundary / coboundary, the integration pairing, integer homology (Smith normal
form, cross-checked against rational ranks), rational cohomology bases, and an
exact potential solver for closed cochains.

Orientation convention: a simplex is stored as a strictly increasing vertex
tuple and carries the orientation induced by that order.  Chain and cochain
constructors accept arbitrarily ordered vertex tuples and fold the permutation
sign into the coefficient, so ``{(b, a): x}`` means ``-x`` on ``(a, b)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import linalg
from ._rat import format_rational, parse_rational

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

    @property
    def dimension(self) -> int:
        return max(self._simplices, default=-1)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self._simplices.get(0, ()))

    def simplices(self, degree: int) -> tuple[Simplex, ...]:
        return self._simplices.get(degree, ())

    def __contains__(self, simplex: Sequence[int]) -> bool:
        canonical, _ = _sort_with_sign(tuple(simplex))
        return canonical in self._index.get(len(canonical) - 1, {})

    def euler_characteristic(self) -> int:
        return sum((-1) ** dim * len(spxs) for dim, spxs in self._simplices.items())

    def maximal_simplices(self) -> list[Simplex]:
        out = []
        for dim in sorted(self._simplices):
            for spx in self._simplices[dim]:
                vs = set(spx)
                is_face = any(
                    vs < set(other)
                    for d2 in self._simplices
                    if d2 > dim
                    for other in self._simplices[d2]
                )
                if not is_face:
                    out.append(spx)
        return out

    def boundary_matrix(self, degree: int) -> list[list[int]]:
        """Integer matrix of the boundary map from degree to degree-1.

        Rows are indexed by (degree-1)-simplices, columns by degree-simplices;
        every entry is 0 or +-1, as ``int``.
        """
        rows = self.simplices(degree - 1)
        cols = self.simplices(degree)
        matrix = [[0] * len(cols) for _ in rows]
        for j, spx in enumerate(cols):
            for i in range(len(spx)):
                face = spx[:i] + spx[i + 1 :]
                matrix[self._index[degree - 1][face]][j] = (-1) ** i
        return matrix

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by first vertex."""
        return components(self.vertices, self.simplices(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __repr__(self) -> str:
        counts = {dim: len(s) for dim, s in self._simplices.items()}
        return f"SimplicialComplex({counts})"


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
            value = Fraction(value) * sign
            value = normalized.get(canonical, Fraction(0)) + value
            if value == 0:
                normalized.pop(canonical, None)
            else:
                normalized[canonical] = value
        self._data = normalized

    def __getitem__(self, simplex: Sequence[int]) -> Fraction:
        canonical, sign = _sort_with_sign(tuple(simplex))
        return self._data.get(canonical, Fraction(0)) * sign

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
            value = data.get(spx, Fraction(0)) + flip * value
            if value == 0:
                data.pop(spx, None)
            else:
                data[spx] = value
        result = type(self)(self.degree)
        result._data = data
        return result

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        result = type(self)(self.degree)
        if scalar != 0:
            result._data = {s: scalar * v for s, v in self._data.items()}
        return result

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
    data: dict[Simplex, Fraction] = {}
    for spx, coeff in chain.items():
        if spx not in complex_:
            raise ValueError(f"simplex {spx} not in complex")
        for i in range(len(spx)):
            face = spx[:i] + spx[i + 1 :]
            value = data.get(face, Fraction(0)) + coeff * (-1) ** i
            if value == 0:
                data.pop(face, None)
            else:
                data[face] = value
    return Chain(chain.degree - 1, data)


def coboundary(complex_: SimplicialComplex, cochain: Cochain) -> Cochain:
    """The adjoint of boundary: ``pair(coboundary(w), S) == pair(w, boundary(S))``."""
    degree = cochain.degree + 1
    data: dict[Simplex, Fraction] = {}
    for spx in complex_.simplices(degree):
        total = Fraction(0)
        for i in range(len(spx)):
            face = spx[:i] + spx[i + 1 :]
            total += (-1) ** i * cochain[face]
        if total != 0:
            data[spx] = total
    return Cochain(degree, data)


def pair(cochain: Cochain, chain: Chain) -> Fraction:
    """Integrate a cochain over a chain of the same degree."""
    if cochain.degree != chain.degree:
        raise ValueError(
            f"degree mismatch: cochain {cochain.degree}, chain {chain.degree}"
        )
    return sum((cochain[s] * c for s, c in chain.items()), Fraction(0))


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
    rational rank as an internal cross-check.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_here = len(complex_.simplices(degree))
    if degree == 0:
        kernel_dim = n_here
    else:
        kernel_dim = n_here - linalg.rank(complex_.boundary_matrix(degree))
    next_boundary = complex_.boundary_matrix(degree + 1)
    rational_rank = linalg.rank(next_boundary)
    factors = linalg.smith_normal_form(next_boundary)
    if len(factors) != rational_rank:
        raise AssertionError(
            "Smith rank disagrees with rational rank: "
            f"{len(factors)} vs {rational_rank}"
        )
    torsion = tuple(sorted(d for d in factors if d > 1))
    return HomologyGroup(degree, kernel_dim - rational_rank, torsion)


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


@dataclass(frozen=True)
class PotentialResult:
    """Outcome of an exactness test: a status and, when exact, a potential."""

    status: str  # "exact" | "no_potential" | "not_closed"
    potential: Cochain | None = None


def is_exact(complex_: SimplicialComplex, cochain: Cochain) -> PotentialResult:
    """Solve ``coboundary(c) == cochain`` exactly, if possible.

    Degree-1 inputs are integrated along a spanning tree per component (the
    potential is pinned to 0 at the first vertex of each component); higher
    degrees go through a general rational solve.  A nonzero coboundary yields
    the "not_closed" verdict and closed-but-inexact input yields
    "no_potential".
    """
    if not coboundary(complex_, cochain).is_zero:
        return PotentialResult("not_closed")
    if cochain.degree == 1:
        return _integrate_edge_cochain(complex_, cochain)
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
    potential = Cochain(
        cochain.degree - 1, {s: v for s, v in zip(lower, solution) if v != 0}
    )
    return PotentialResult("exact", potential)


def _integrate_edge_cochain(
    complex_: SimplicialComplex, cochain: Cochain
) -> PotentialResult:
    adjacency: dict[int, list[int]] = {v: [] for v in complex_.vertices}
    for a, b in complex_.simplices(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    values: dict[int, Fraction] = {}
    for component in complex_.components():
        root = component[0]
        values[root] = Fraction(0)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in values:
                    values[w] = values[v] + cochain[(v, w)]
                    stack.append(w)
    for a, b in complex_.simplices(1):
        if values[b] - values[a] != cochain[(a, b)]:
            return PotentialResult("no_potential")
    return PotentialResult(
        "exact", Cochain(0, {(v,): x for v, x in values.items() if x != 0})
    )


# ---------------------------------------------------------------------------
# serialization

def complex_to_json(complex_: SimplicialComplex) -> str:
    return json.dumps(
        [list(s) for s in complex_.maximal_simplices()], sort_keys=True
    )


def complex_from_json(text: str) -> SimplicialComplex:
    return SimplicialComplex(json.loads(text))


def _parse_simplex_key(key: str) -> Simplex:
    return tuple(int(part) for part in key.split("."))


def cochain_to_json(cochain: Cochain) -> str:
    return json.dumps(
        {
            "degree": cochain.degree,
            "values": cochain.payload(),
        },
        sort_keys=True,
    )


def cochain_from_json(text: str) -> Cochain:
    payload = json.loads(text)
    return Cochain(
        payload["degree"],
        {_parse_simplex_key(k): parse_rational(v) for k, v in payload["values"].items()},
    )


def chain_to_json(chain: Chain) -> str:
    return json.dumps(
        {
            "degree": chain.degree,
            "coeffs": chain.payload(),
        },
        sort_keys=True,
    )


def chain_from_json(text: str) -> Chain:
    payload = json.loads(text)
    return Chain(
        payload["degree"],
        {_parse_simplex_key(k): parse_rational(v) for k, v in payload["coeffs"].items()},
    )
