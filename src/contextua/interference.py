"""Second- and third-order deviations from additivity of event measures,
their sharp-quantum specialization, and the bridge to connection
decompositions."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

from ._rat import excerpt, format_rational, list_in, rational_in
from .connection import ConnectionDecomposition, ObjectComplex

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np
Event = frozenset


@dataclass(frozen=True)
class EventMeasure:
    """A finite event space with masses on the listed events.

    Events are sets of atoms; the join of disjoint events is their union.
    Masses are rational for exact inputs or float for quantum-generated
    ones.  The empty event, when listed, must carry mass 0.
    """

    atoms: tuple[str, ...]
    masses: Mapping[Event, Fraction | float]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        table = {frozenset(k): v for k, v in self.masses.items()}
        object.__setattr__(self, "masses", table)
        known = set(self.atoms)
        floats = any(isinstance(value, float) for value in table.values())
        for event, value in table.items():
            stray = set(event) - known
            if stray:
                raise ValueError(f"event uses unlisted atoms {sorted(stray)}")
            if isinstance(value, float) and not math.isfinite(value):
                key = _event_key(event)
                raise ValueError(f"mass of {key!r} is {value}, not finite")
            if floats and not isinstance(value, float):
                try:  # the interference terms mix it with the float masses
                    float(value)
                except OverflowError:
                    key = excerpt(_event_key(event))
                    raise ValueError(
                        f"mass of {key!r} is beyond float range, and other masses are floats"
                    ) from None
        empty = table.get(frozenset())
        if empty is not None and empty != 0:
            raise ValueError(f"empty event must have mass 0, got {empty}")

    def mass(self, event) -> Fraction | float:
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


def all_i2(m: EventMeasure) -> dict[tuple[str, str], Fraction | float]:
    """Pair interference for every listed disjoint pair with a listed join."""
    out = {}
    events = sorted(m.masses, key=_event_key)
    for a, b in combinations(events, 2):
        if a and b and _disjoint(a, b) and (a | b) in m.masses:
            out[(_event_key(a), _event_key(b))] = i2(m, a, b)
    return out


def all_i3(m: EventMeasure) -> dict[tuple[str, str, str], Fraction | float]:
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
# sharp quantum inputs

def _check_projector(p: np.ndarray, name: str, tol: float = 1e-9) -> None:
    import numpy as np
    if not np.allclose(p, p.conj().T, atol=tol):
        raise ValueError(f"{name} is not Hermitian")
    if not np.allclose(p @ p, p, atol=tol):
        raise ValueError(f"{name} is not a projector")


def quantum_i2(rho: np.ndarray, e: np.ndarray, e_prime: np.ndarray) -> float:
    """Symmetrized cross term tr(e rho e') + tr(e' rho e) for a pure state
    and orthogonal sharp effects.

    For orthogonal projectors this equals the pair interference of the Born
    measure on {e, e', e join e'} — identically zero, which is the point:
    sharp quantum measures stop deviating from additivity at second order.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    e = np.asarray(e, dtype=complex)
    e_prime = np.asarray(e_prime, dtype=complex)
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1) > 1e-9:
        raise ValueError("state must have unit trace")
    if abs(np.trace(rho @ rho) - 1) > 1e-9:
        raise ValueError("state must be pure")
    _check_projector(e, "first effect")
    _check_projector(e_prime, "second effect")
    if not np.allclose(e @ e_prime, np.zeros_like(e), atol=1e-9):
        raise ValueError("effects must be orthogonal")
    cross = np.trace(e @ rho @ e_prime) + np.trace(e_prime @ rho @ e)
    return float(cross.real)


def born_measure(rho: np.ndarray, projectors: Mapping[str, np.ndarray]) -> EventMeasure:
    """Born masses of all unions of pairwise orthogonal projectors."""
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    names = sorted(projectors)
    for name in names:
        _check_projector(np.asarray(projectors[name], dtype=complex), name)
    table: dict[Event, float] = {}
    for r in range(len(names) + 1):
        for combo in combinations(names, r):
            total = sum(
                (np.asarray(projectors[n], dtype=complex) for n in combo),
                np.zeros_like(rho),
            )
            table[frozenset(combo)] = float(np.trace(total @ rho).real)
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
    return frozenset(k for k in key.split("|") if k)


def measure_to_json(m: EventMeasure) -> str:
    payload = {
        "atoms": list(m.atoms),
        "masses": {
            _event_key(event): (
                format_rational(value)
                if isinstance(value, Fraction)
                else float(value)
            )
            for event, value in sorted(m.masses.items(), key=lambda kv: _event_key(kv[0]))
        },
    }
    return json.dumps(payload, sort_keys=True)


def measure_from_json(text: str) -> EventMeasure:
    payload = json.loads(text)
    masses = {  # a JSON float is a Born-rule mass and stays a float
        _parse_event_key(key): (
            value if type(value) is float else rational_in(value, f"mass of {key!r}")
        )
        for key, value in payload["masses"].items()
    }
    return EventMeasure(tuple(list_in(payload["atoms"], "atoms")), masses)
