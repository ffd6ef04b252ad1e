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

from . import ddg
from ._rat import format_rational
from .core_model import GptFragment, OnticRepresentation, OperationalEquivalence
from .core_model import objects, ontic_values

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

    @property
    def residual(self) -> ddg.Cochain:
        """xi - d(potential): the connection, plus the disturbance if any."""
        if self.disturbance is None:
            return self.connection
        return self.connection + self.disturbance

    def recomposed(self) -> ddg.Cochain:
        return ddg.coboundary(self.complex, self.potential) + self.residual


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
    object_count = len(objects(f, kind))
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
        if participants[-1] >= object_count:
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
    values = [v if type(v) is Fraction else Fraction(v) for v in values]
    data = {}
    for edge, terms in oc.edge_terms.items():
        (obj, scale), *rest = terms
        total = values[obj] if scale == 1 else scale * values[obj]
        for obj, scale in rest:
            total += scale * values[obj]
        if total:
            data[edge] = total
    # edge_terms keys are ascending vertex pairs
    return ddg.Cochain._canonical(1, data)


def valuation_cochain(
    oc: ObjectComplex,
    rep: OnticRepresentation,
    lam: int,
    lam_out: int | None = None,
) -> ddg.Cochain:
    """Valuation of every object at one ontic value (or value pair)."""
    values = ontic_values(rep, oc.kind, lam, lam_out)
    if len(values) != oc.object_count:
        raise ValueError("representation does not match the complex")
    return valuation_from_values(oc, values)


def decompose_cochain(
    complex_: ddg.SimplicialComplex,
    xi: ddg.Cochain,
    charts: Mapping[int, object] | None = None,
) -> ConnectionDecomposition:
    """Least-squares split xi = d(potential) + connection, exact over rationals.

    The potential is :func:`ddg.potential`: it minimizes the unit-weight
    squared residual and is pinned to 0 at the first vertex of each
    connected component, which fixes the gauge without changing the
    connection part.

    With a ``charts`` map (vertex -> chart label, covering every endpoint of
    an edge), the edges crossing between charts are left out of the fit and
    their residual is the disturbance cochain; every other residual value
    stays in the connection, so the recomposition is exact either way.
    """
    if xi.degree != 1:
        raise ValueError(f"valuations have degree 1, got {xi.degree}")
    edges = kept = complex_.simplices(1)
    if charts is not None:
        for edge in edges:
            for v in edge:
                if v not in charts:
                    raise ValueError(f"chart map missing vertex {v}")
        crossing = {(a, b) for a, b in edges if charts[a] != charts[b]}
        kept = [e for e in edges if e not in crossing]
    potential = ddg.potential(complex_, xi, kept)
    residual = xi - ddg.coboundary(complex_, potential)
    if charts is None:
        return ConnectionDecomposition(complex_, potential, residual, None)
    inside: dict[Edge, Fraction] = {}
    across: dict[Edge, Fraction] = {}
    for edge, value in residual._data.items():
        (across if edge in crossing else inside)[edge] = value
    return ConnectionDecomposition(
        complex_,
        potential,
        ddg.Cochain._canonical(1, inside),
        ddg.Cochain._canonical(1, across),
    )


def decompose(oc: ObjectComplex, xi: ddg.Cochain) -> ConnectionDecomposition:
    return decompose_cochain(oc.complex, xi)


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
    return ddg.pair(dec.residual, gamma)


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
    # build_object_complex has checked that every loop is a cycle
    residual = dec.residual
    return {eq_id: ddg.pair(residual, loop) for eq_id, loop in oc.loops}


def monodromy_class(oc: ObjectComplex, dec: ConnectionDecomposition) -> str:
    """Whether the connection is a coboundary: "trivial" or "nontrivial"."""
    if oc.view != "topological":
        raise ValueError("monodromy classes live in the topological view")
    flatness = ddg.coboundary(dec.complex, dec.connection)
    if not flatness.is_zero:
        raise ValueError("connection has nonzero curvature; class undefined")
    result = ddg.is_exact(oc.complex, dec.residual)
    return "trivial" if result.status == "exact" else "nontrivial"


# ---------------------------------------------------------------------------
# reporting

def decomposition_report(oc: ObjectComplex, dec: ConnectionDecomposition) -> dict:
    report = {
        "view": oc.view,
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
