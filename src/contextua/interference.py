"""Second- and third-order deviations from additivity of event measures,
their sharp-quantum specialization, and the bridge to connection
decompositions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from ._rat import (
    excerpt, format_rational, json_in, key_in, list_in, object_in, rational_in,
)
from .connection import ConnectionDecomposition, ObjectComplex
from .linalg import Matrix, transpose

Event = frozenset


@dataclass(frozen=True)
class EventMeasure:
    """A finite event space with exact masses on the listed events.

    Events are sets of atoms; the join of disjoint events is their union.
    Masses are ``int`` or ``Fraction``.  Atom names are non-empty strings
    without ``|`` or ``,``, which separate atoms in an event key and events
    in an interference key.  The empty event, when listed, must carry mass 0.
    """

    atoms: tuple[str, ...]
    masses: Mapping[Event, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        table = {frozenset(k): v for k, v in self.masses.items()}
        object.__setattr__(self, "masses", table)
        known = set()
        for atom in self.atoms:
            if type(atom) is not str or not atom or "|" in atom or "," in atom:
                raise ValueError(
                    f"atom {excerpt(repr(atom))} must be a non-empty string without '|' or ','"
                )
            if atom in known:
                raise ValueError(f"atom {excerpt(repr(atom))} is listed twice")
            known.add(atom)
        for event, value in table.items():
            stray = set(event) - known
            if stray:
                raise ValueError(f"event uses unlisted atoms {sorted(stray)}")
            if type(value) not in (int, Fraction):
                key = excerpt(_event_key(event))
                raise ValueError(
                    f"mass of {key!r} is {excerpt(repr(value))}, not an int or Fraction"
                )
        empty = table.get(frozenset())
        if empty is not None and empty != 0:
            raise ValueError(f"empty event must have mass 0, got {empty}")

    def mass(self, event) -> Fraction:
        key = frozenset(event)
        if not key:
            return self.masses.get(key, Fraction(0))
        if key not in self.masses:
            raise ValueError(f"event {sorted(key)} is not listed")
        return self.masses[key]


def additive_measure(atom_masses: Mapping[str, Fraction]) -> EventMeasure:
    """The Kolmogorov measure generated by atom masses, on the full powerset."""
    atoms = tuple(sorted(atom_masses))
    table = {}
    for r in range(len(atoms) + 1):
        for combo in combinations(atoms, r):
            table[frozenset(combo)] = sum(
                (atom_masses[a] for a in combo), Fraction(0)
            )
    return EventMeasure(atoms, table)


def _disjoint(*events) -> bool:
    seen = set()
    for e in events:
        if seen & e:
            return False
        seen |= e
    return True


def i2(m: EventMeasure, a, b):
    """Pair interference: mass of the join minus the additive prediction."""
    a, b = frozenset(a), frozenset(b)
    if not _disjoint(a, b):
        raise ValueError("pair interference needs disjoint events")
    return m.mass(a | b) - m.mass(a) - m.mass(b)


def i3(m: EventMeasure, a, b, c):
    """Triple interference: the residual once all pair corrections are known."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    if not _disjoint(a, b, c):
        raise ValueError("triple interference needs pairwise disjoint events")
    return (
        m.mass(a | b | c)
        - m.mass(a | b)
        - m.mass(b | c)
        - m.mass(a | c)
        + m.mass(a)
        + m.mass(b)
        + m.mass(c)
    )


def all_i2(m: EventMeasure) -> dict[tuple[str, str], Fraction]:
    """Pair interference for every listed disjoint pair with a listed join."""
    out = {}
    events = sorted(m.masses, key=_event_key)
    for a, b in combinations(events, 2):
        if a and b and _disjoint(a, b) and (a | b) in m.masses:
            out[(_event_key(a), _event_key(b))] = i2(m, a, b)
    return out


def all_i3(m: EventMeasure) -> dict[tuple[str, str, str], Fraction]:
    out = {}
    events = sorted(m.masses, key=_event_key)
    for a, b, c in combinations(events, 3):
        if not (a and b and c and _disjoint(a, b, c)):
            continue
        joins = (a | b, b | c, a | c, a | b | c)
        if all(j in m.masses for j in joins):
            out[(_event_key(a), _event_key(b), _event_key(c))] = i3(m, a, b, c)
    return out


# ---------------------------------------------------------------------------
# sharp quantum inputs: real symmetric matrices of ints and Fractions

def _product(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(x * y for x, y in zip(row, col)) for col in transpose(b)] for row in a]


def _trace(a: Matrix) -> Fraction:
    return Fraction(sum(row[i] for i, row in enumerate(a)))


def _orthogonal(p: Matrix, q: Matrix) -> bool:
    return not any(any(row) for row in _product(p, q))


def _symmetric(matrix: Matrix, name: str, dim: int) -> Matrix:
    """``matrix`` as lists, checked to be a ``dim`` by ``dim`` symmetric
    matrix of ints and Fractions."""
    p = [list(row) for row in matrix]
    if len(p) != dim or any(
        len(row) != dim or any(type(x) not in (int, Fraction) for x in row) for row in p
    ):
        raise ValueError(f"{name} is not a {dim} by {dim} matrix of ints and Fractions")
    if p != transpose(p):
        raise ValueError(f"{name} is not symmetric")
    return p


def _projector(matrix: Matrix, name: str, dim: int) -> Matrix:
    p = _symmetric(matrix, name, dim)
    if _product(p, p) != p:
        raise ValueError(f"{name} is not a projector")
    return p


def _state(rho: Matrix, pure: bool) -> Matrix:
    rho = (_projector if pure else _symmetric)(rho, "state", len(rho))
    if _trace(rho) != 1:
        raise ValueError("state must have unit trace")
    return rho


def quantum_i2(rho: Matrix, e: Matrix, e_prime: Matrix) -> Fraction:
    """Symmetrized cross term tr(e rho e') + tr(e' rho e) for a pure state
    (a symmetric projector of unit trace) and orthogonal sharp effects.

    For orthogonal projectors this equals the pair interference of the Born
    measure on {e, e', e join e'} — identically zero, which is the point:
    sharp quantum measures stop deviating from additivity at second order.
    """
    rho = _state(rho, pure=True)
    e = _projector(e, "first effect", len(rho))
    e_prime = _projector(e_prime, "second effect", len(rho))
    if not _orthogonal(e, e_prime):
        raise ValueError("effects must be orthogonal")
    # the two terms are equal: each is the other's transpose's trace
    return 2 * _trace(_product(_product(e, rho), e_prime))


def born_measure(rho: Matrix, projectors: Mapping[str, Matrix]) -> EventMeasure:
    """Born masses tr(P rho) of all unions of pairwise orthogonal projectors."""
    rho = _state(rho, pure=False)
    names = sorted(projectors)
    ps = {name: _projector(projectors[name], name, len(rho)) for name in names}
    for a, b in combinations(names, 2):
        if not _orthogonal(ps[a], ps[b]):
            raise ValueError(f"projectors {a!r} and {b!r} overlap")
    dim = range(len(rho))
    table: dict[Event, Fraction] = {}
    for r in range(len(names) + 1):
        for combo in combinations(names, r):
            join = [[sum(ps[n][i][j] for n in combo) for j in dim] for i in dim]
            table[frozenset(combo)] = _trace(_product(join, rho))
    return EventMeasure(tuple(names), table)


# ---------------------------------------------------------------------------
# connection bridge

def i2_from_connection(
    oc: ObjectComplex,
    decs: Sequence[ConnectionDecomposition],
    weights: Sequence[Fraction],
    e: int,
    e_prime: int,
    join: int,
) -> Fraction:
    """Weighted pair interference of the valuations a decomposition encodes.

    Each decomposition reconstructs an object valuation as the full cochain
    (connection plus potential gradient plus any disturbance) read on the
    object's spoke edge; the result is the weighted sum over ontic values of
    the join-minus-parts combination, and equals ``i2`` of the reconstructed
    measure exactly whatever gauge the split chose.
    """
    if len(decs) != len(weights):
        raise ValueError("need one weight per decomposition")
    spokes = [oc.star_edge(v) for v in (join, e, e_prime)]
    total = Fraction(0)
    for dec, w in zip(decs, weights):
        cochain = dec.recomposed()
        r_join, r_e, r_ep = (cochain[s] for s in spokes)
        total += Fraction(w) * (r_join - r_e - r_ep)
    return total


def reconstructed_measure(
    oc: ObjectComplex,
    dec: ConnectionDecomposition,
    labels: Mapping[int, str],
    joins: Mapping[frozenset, int] | None = None,
) -> EventMeasure:
    """Event measure whose atom masses are the decomposition's reconstructed
    object valuations; ``joins`` names which object carries each union."""
    cochain = dec.recomposed()
    atoms = tuple(labels[v] for v in sorted(labels))
    table: dict[Event, Fraction] = {frozenset(): Fraction(0)}
    for v, name in labels.items():
        table[frozenset({name})] = cochain[oc.star_edge(v)]
    for event, v in (joins or {}).items():
        table[frozenset(event)] = cochain[oc.star_edge(v)]
    return EventMeasure(atoms, table)


# ---------------------------------------------------------------------------
# serialization

def _event_key(event: Event) -> str:
    return "|".join(sorted(event))


def _parse_event_key(key: str) -> Event:
    """The event of a mass key: ``""``, or non-empty atom names joined by ``|``."""
    atoms = key.split("|") if key else []
    if "" in atoms:
        raise ValueError(f"event key {excerpt(key)!r} has an empty atom name")
    return frozenset(atoms)


def measure_to_json(m: EventMeasure) -> str:
    payload = {
        "atoms": list(m.atoms),
        "masses": {
            _event_key(event): format_rational(value)
            for event, value in sorted(m.masses.items(), key=lambda kv: _event_key(kv[0]))
        },
    }
    return json.dumps(payload, sort_keys=True)


def measure_from_json(text: str) -> EventMeasure:
    payload = object_in(json_in(text), "a measure", ("atoms", "masses"))
    entries = object_in(key_in(payload, "masses", "a measure"), "masses")
    masses = {}
    for key, value in entries.items():
        event = _parse_event_key(key)
        if event in masses:
            raise ValueError(f"event key {excerpt(key)!r} repeats an earlier key's event")
        masses[event] = rational_in(value, f"mass of {excerpt(key)!r}")
    atoms = list_in(key_in(payload, "atoms", "a measure"), "atoms")
    return EventMeasure(tuple(atoms), masses)
