"""Object complexes, valuation decomposition, curvature, and holonomy.

Each linear dependence among same-kind objects is realized as a genuine
simplicial loop: the participating objects keep their spoke edges from a
common base vertex, while the dependence itself runs around a private
polygon of station vertices whose edges carry the coefficient-scaled
valuations.  Pairing the valuation cochain with a dependence loop then
reproduces the coefficient-weighted sum of valuations exactly, and the
least-squares split of the valuation into an exact part plus a remainder
turns violated dependencies into connection phases, curvature, and
cohomology classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import ddg, linalg
from ._rat import format_rational
from .core_model import GptFragment, OnticRepresentation, OperationalEquivalence

Edge = tuple[int, int]


@dataclass(frozen=True)
class ObjectComplex:
    """Simplicial home for one kind of object and its linear dependencies.

    Vertex 0 is the base; object ``i`` sits at vertex ``i + 1``; station
    vertices (one polygon per dependence) come after all objects.  Vertex 0
    is therefore the smallest vertex of the complex, where every potential
    is pinned to 0.  ``edge_terms`` records which object's valuation each
    edge carries and with what rational scale; spoke edges carry scale +1.
    Each loop's disk is filled exactly when ``view == "geometrical"``.
    """

    kind: str
    complex: ddg.SimplicialComplex
    loops: tuple[tuple[int, ddg.Chain], ...]
    disks: tuple[ddg.Chain, ...]
    view: str
    object_count: int
    edge_terms: Mapping[Edge, tuple[tuple[int, Fraction], ...]]

    def vertex_of(self, obj: int) -> int:
        if not 0 <= obj < self.object_count:
            raise ValueError(f"object index {obj} out of range")
        return obj + 1

    def star_edge(self, obj: int) -> Edge:
        return (0, self.vertex_of(obj))


@dataclass(frozen=True)
class ConnectionDecomposition:
    """Split of an edge valuation into d(potential) + connection (+ disturbance)."""

    complex: ddg.SimplicialComplex
    potential: ddg.Cochain
    connection: ddg.Cochain
    disturbance: ddg.Cochain | None
    view: str

    def recomposed(self) -> ddg.Cochain:
        total = ddg.coboundary(self.complex, self.potential) + self.connection
        if self.disturbance is not None:
            total = total + self.disturbance
        return total


@dataclass(frozen=True)
class Curvature:
    values: ddg.Cochain  # degree 2


def build_object_complex(
    kind: str,
    f: GptFragment,
    eqs: Sequence[OperationalEquivalence],
    view: str,
) -> ObjectComplex:
    """Assemble spokes, dependence polygons, and (optionally) their disks.

    In the geometrical view every polygon is fan-filled from the base
    vertex; the topological view attaches no 2-cells, so dependence loops
    stay as potential cohomology generators.
    """
    if view not in ("geometrical", "topological"):
        raise ValueError(f"unknown view {view!r}")
    if kind == "state":
        object_count = len(f.states)
    elif kind == "effect":
        # the unit effect joins as the final object so completeness
        # dependencies have a vertex to run through
        object_count = len(f.effects) + 1
    elif kind == "transformation":
        object_count = len(f.transformations)
    else:
        raise ValueError(f"unknown object kind {kind!r}")
    if object_count == 0:
        raise ValueError(f"fragment has no objects of kind {kind!r}")

    maximal: list[tuple[int, ...]] = [(0, obj + 1) for obj in range(object_count)]
    edge_terms: dict[Edge, tuple[tuple[int, Fraction], ...]] = {
        (0, obj + 1): ((obj, Fraction(1)),) for obj in range(object_count)
    }
    loops: list[tuple[int, ddg.Chain]] = []
    disks: list[ddg.Chain] = []
    next_station = object_count + 1

    for eq_id, eq in enumerate(eqs):
        if eq.kind != kind:
            raise ValueError(f"equivalence {eq_id} has kind {eq.kind!r}, want {kind!r}")
        participants = eq.participants
        if participants and participants[-1] >= object_count:
            raise ValueError(
                f"equivalence {eq_id} references missing object {participants[-1]}"
            )
        m = len(participants)
        n_station = max(m - 1, 2)
        stations = list(range(next_station, next_station + n_station))
        next_station += n_station

        ring: list[Edge] = [(0, stations[0])]
        for a, b in zip(stations, stations[1:]):
            ring.append((a, b))
        closing = (0, stations[-1])

        terms = [(w, eq.coefficients[w]) for w in participants]
        for edge, (obj, coeff) in zip(ring, terms[: len(ring)]):
            edge_terms[edge] = ((obj, coeff),)
        if m == len(ring) + 1:
            obj, coeff = terms[-1]
            edge_terms[closing] = ((obj, -coeff),)

        loop_coeffs: dict[tuple[int, ...], Fraction] = {e: Fraction(1) for e in ring}
        loop_coeffs[closing] = Fraction(-1)
        loops.append((eq_id, ddg.Chain(1, loop_coeffs)))

        if view == "geometrical":
            cells = [
                (0, a, b) for a, b in zip(stations, stations[1:])
            ]
            maximal.extend(cells)
            disks.append(ddg.Chain(2, {c: Fraction(1) for c in cells}))
            # interior chord edges transport the running partial sum of the
            # dependence; every fan cell then closes exactly, so the whole
            # defect lands on the final cell and cell-level flatness agrees
            # with the loop phase
            for idx in range(1, len(stations) - 1):
                edge_terms[(0, stations[idx])] = tuple(terms[: idx + 1])
        else:
            maximal.extend(ring)
            maximal.append(closing)
            disks.append(ddg.Chain(2))

    complex_ = ddg.SimplicialComplex(maximal)
    for _, loop in loops:
        if not ddg.boundary(complex_, loop).is_zero:
            raise AssertionError("dependence loop must be a cycle")
    return ObjectComplex(
        kind=kind,
        complex=complex_,
        loops=tuple(loops),
        disks=tuple(disks),
        view=view,
        object_count=object_count,
        edge_terms=edge_terms,
    )


def valuation_from_values(
    oc: ObjectComplex, values: Sequence[Fraction]
) -> ddg.Cochain:
    """Edge cochain carrying per-object values (spokes) and their scaled
    copies (polygon edges)."""
    if len(values) != oc.object_count:
        raise ValueError(
            f"expected {oc.object_count} object values, got {len(values)}"
        )
    data = {}
    for edge, terms in oc.edge_terms.items():
        data[edge] = sum(
            (scale * Fraction(values[obj]) for obj, scale in terms), Fraction(0)
        )
    return ddg.Cochain(1, data)


def valuation_cochain(
    oc: ObjectComplex,
    rep: OnticRepresentation,
    lam: int,
    lam_out: int | None = None,
) -> ddg.Cochain:
    """Valuation of every object at one ontic value (or value pair)."""
    if not 0 <= lam < rep.lambda_count:
        raise ValueError(f"ontic index {lam} out of range")
    values: list[Fraction] = []
    if oc.kind == "state":
        if oc.object_count != len(rep.state_distributions):
            raise ValueError("representation does not match the complex")
        values = [rep.state_distributions[s][lam] for s in range(oc.object_count)]
    elif oc.kind == "effect":
        if oc.object_count != len(rep.effect_responses) + 1:
            raise ValueError("representation does not match the complex")
        values = [row[lam] for row in rep.effect_responses]
        values.append(Fraction(1))  # the unit responds 1 everywhere
    else:
        if rep.transition_kernels is None:
            raise ValueError("representation has no transition kernels")
        if lam_out is None:
            raise ValueError("transformation valuations need lam_out")
        if not 0 <= lam_out < rep.lambda_count:
            raise ValueError(f"ontic index {lam_out} out of range")
        values = [k[lam][lam_out] for k in rep.transition_kernels]
    return valuation_from_values(oc, values)


def _potential(
    complex_: ddg.SimplicialComplex,
    xi: ddg.Cochain,
    edges: Sequence[Edge],
) -> ddg.Cochain:
    """Least-squares potential of xi over ``edges``, through the vertex Laplacian.

    The gauge: the first (smallest) vertex of each connected component of
    ``edges`` is pinned to 0, the rule :func:`ddg.is_exact` integrates by.
    The Laplacian is built on ints; only the right-hand side is rational.
    """
    vertices = complex_.vertices
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[0] * n for _ in range(n)]
    rhs = [Fraction(0) for _ in range(n)]
    for a, b in edges:
        ia, ib = index[a], index[b]
        lap[ia][ia] += 1
        lap[ib][ib] += 1
        lap[ia][ib] -= 1
        lap[ib][ia] -= 1
        value = xi[(a, b)]
        rhs[ib] += value
        rhs[ia] -= value
    pinned = {component[0] for component in ddg.components(vertices, edges)}
    free = [i for i, v in enumerate(vertices) if v not in pinned]
    system = [[lap[i][j] for j in free] for i in free]
    solution = linalg.solve(system, [rhs[i] for i in free], len(free))
    if solution is None:
        raise AssertionError("reduced Laplacian system must be solvable")
    return ddg.Cochain(0, {(vertices[i],): x for i, x in zip(free, solution)})


def decompose_cochain(
    complex_: ddg.SimplicialComplex,
    xi: ddg.Cochain,
    view: str = "geometrical",
) -> ConnectionDecomposition:
    """Least-squares split xi = d(potential) + connection, exact over rationals.

    The potential minimizes the unit-weight squared residual, solved through
    the vertex Laplacian; it is pinned to 0 at the first vertex of each
    connected component, which fixes the gauge without changing the
    connection part.
    """
    if xi.degree != 1:
        raise ValueError(f"valuations have degree 1, got {xi.degree}")
    potential = _potential(complex_, xi, complex_.simplices(1))
    return ConnectionDecomposition(
        complex=complex_,
        potential=potential,
        connection=xi - ddg.coboundary(complex_, potential),
        disturbance=None,
        view=view,
    )


def decompose(oc: ObjectComplex, xi: ddg.Cochain) -> ConnectionDecomposition:
    return decompose_cochain(oc.complex, xi, oc.view)


def curvature(oc: ObjectComplex, dec: ConnectionDecomposition) -> Curvature:
    """d(connection) on the attached disks; geometrical view only."""
    if oc.view != "geometrical":
        raise ValueError("no 2-cells: curvature needs the geometrical view")
    return Curvature(ddg.coboundary(oc.complex, dec.connection))


def disk_integral(oc: ObjectComplex, curv: Curvature, loop_index: int) -> Fraction:
    """Total curvature over one dependence disk."""
    if not 0 <= loop_index < len(oc.disks):
        raise ValueError(f"no loop {loop_index}")
    return ddg.pair(curv.values, oc.disks[loop_index])


def phase(dec: ConnectionDecomposition, gamma: ddg.Chain) -> Fraction:
    """Connection (plus disturbance) pairing with a cycle."""
    if gamma.degree != 1:
        raise ValueError("phases pair with degree-1 chains")
    if not ddg.boundary(dec.complex, gamma).is_zero:
        raise ValueError("phase requires a cycle")
    total = ddg.pair(dec.connection, gamma)
    if dec.disturbance is not None:
        total += ddg.pair(dec.disturbance, gamma)
    return total


def holonomy(
    dec: ConnectionDecomposition, gamma: ddg.Chain
) -> tuple[Fraction, float]:
    """Exact phase together with its exponentiated float value.

    The float saturates where a double cannot hold it: ``inf`` for large
    positive phases, ``0.0`` for large negative ones.
    """
    p = phase(dec, gamma)
    try:
        return p, math.exp(float(p))
    except OverflowError:
        return p, math.inf if p > 0 else 0.0


def loop_phases(
    oc: ObjectComplex, dec: ConnectionDecomposition
) -> dict[int, Fraction]:
    return {eq_id: phase(dec, loop) for eq_id, loop in oc.loops}


def monodromy_class(oc: ObjectComplex, dec: ConnectionDecomposition) -> str:
    """Whether the connection is a coboundary: "trivial" or "nontrivial"."""
    if oc.view != "topological":
        raise ValueError("monodromy classes live in the topological view")
    flatness = ddg.coboundary(dec.complex, dec.connection)
    if not flatness.is_zero:
        raise ValueError("connection has nonzero curvature; class undefined")
    total = dec.connection
    if dec.disturbance is not None:
        total = total + dec.disturbance
    result = ddg.is_exact(oc.complex, total)
    return "trivial" if result.status == "exact" else "nontrivial"


# ---------------------------------------------------------------------------
# reporting

def decomposition_report(oc: ObjectComplex, dec: ConnectionDecomposition) -> dict:
    report = {
        "view": dec.view,
        "potential": dec.potential.payload(),
        "connection": dec.connection.payload(),
        "disturbance": None if dec.disturbance is None else dec.disturbance.payload(),
        "phases": {
            str(eq_id): format_rational(value)
            for eq_id, value in loop_phases(oc, dec).items()
        },
    }
    if oc.view == "geometrical":
        report["curvature"] = curvature(oc, dec).values.payload()
    return report
