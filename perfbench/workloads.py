"""The four workloads: seeded inputs and the analysis timed on each.

Every analysis calls the package through its module attributes (``nc.x``,
``conn.x``, ...), so the traced run sees the same calls as the timed run.
Input generation is the only place the seed enters; the package receives
only the generated inputs.  Each input list is shuffled, so every kind of
input is spread over the run and the median analysis samples the machine
over the whole run, not over the few seconds one kind of input takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from contextua import connection as conn
from contextua import core_model as cm
from contextua import ddg, disturbance as dist
from contextua import noncontextuality as nc
from contextua import scenarios as sc
from contextua import vorobyev as vb


@dataclass
class Case:
    """One input of a workload: a label, the input, and what the benchmark
    knows about it from its construction."""

    label: str
    data: object
    facts: dict = field(default_factory=dict)


def _unit_vector(rng: Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


# ---------------------------------------------------------------------------
# embedding: nc-check and minimal negativity on one fragment each

#: (antipodal state pairs, measurement axes) -> fragments per input list.
#: Sizes whose exact LPs take over ten seconds (3 pairs with 4 axes, 4 pairs
#: with 3 or more axes) are left out, so no single input sets a run's time.
#: The counts put the median analysis in the middle of the (3, 3) class,
#: which with the canonical qubit holds 8 of the 18 inputs and about half
#: of a round's time, so the median samples the machine over much of the run.
EMBEDDING_SIZES = {(2, 2): 1, (3, 2): 1, (2, 3): 1, (3, 3): 7, (4, 2): 2, (2, 4): 2}


def embedding_inputs(seed: int) -> list[Case]:
    rng = Random(seed)
    cases = [
        Case("gbit", sc.gbit()),
        Case("halving", sc.halving_fragment()),
        Case("classical-simplex", sc.classical_simplex(3)),
        Case("qubit", sc.qubit_fragment()),
    ]
    for (pairs, axes), count in EMBEDDING_SIZES.items():
        for k in range(count):
            points = []
            for _ in range(pairs):
                u = _unit_vector(rng)
                points += [u, [-x for x in u]]
            directions = [_unit_vector(rng) for _ in range(axes)]
            cases.append(
                Case(
                    f"qubit-{pairs}p{axes}a-{k}",
                    sc.qubit_fragment(points, directions),
                )
            )
    rng.shuffle(cases)
    return cases


def embedding_analysis(case: Case):
    f = case.data
    feasibility = nc.noncontextual_lp(f)
    signed, negativity = nc.minimal_negativity(f)
    return feasibility, signed, negativity


# ---------------------------------------------------------------------------
# shared-effects: the noisy extremal box, whose weights share 16 effects

SHARED_WEIGHTS = (Fraction(1), Fraction(1, 2))


def blended_box(w: Fraction) -> cm.EmpiricalModel:
    """The extremal two-party table mixed with uniform noise at weight w."""
    box = sc.pr_box()
    tables = tuple(
        tuple(w * p + (1 - w) * Fraction(1, 4) for p in table)
        for table in box.tables
    )
    return cm.EmpiricalModel(box.hypergraph, dict(box.outcomes), tables)


def shared_effects_inputs(seed: int) -> list[Case]:
    weights = list(SHARED_WEIGHTS)
    Random(seed).shuffle(weights)
    return [
        Case(f"noisy-pr-{w}", (sc.noisy_pr_fragment(w), blended_box(w)), {"w": w})
        for w in weights
    ]


def shared_effects_analysis(case: Case):
    fragment, table = case.data
    return nc.noncontextual_lp(fragment), nc.contextual_fraction(table)


# ---------------------------------------------------------------------------
# tables: fraction split, disturbance and Graham reduction on one table each

def cycle_model(
    rng: Random, n: int, skew: Fraction = Fraction(0)
) -> cm.EmpiricalModel:
    """Binary n-cycle with uniform marginals and random correlators.

    A nonzero ``skew`` moves the first measurement's marginal in the first
    context to (1/2 + skew, 1/2 - skew), so that context and the last one
    disagree on it by exactly ``skew``.
    """
    names = tuple(f"c{i}" for i in range(n))
    contexts = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    tables = []
    for i in range(n):
        bound = 6 if (i == 0 and skew) else 12
        c = Fraction(rng.randint(-bound, bound), 12)
        agree, differ = (1 + c) / 4, (1 - c) / 4
        shift = skew / 2 if i == 0 else Fraction(0)
        tables.append((agree + shift, differ + shift, differ - shift, agree - shift))
    return cm.EmpiricalModel(
        vb.CompatibilityHypergraph(names, contexts),
        {name: 2 for name in names},
        tuple(tables),
    )


#: n -> plain and skewed n-cycles per input list.  An n-cycle's LP costs
#: about 2.5 times an (n-1)-cycle's and varies with its correlators, so
#: few 7-cycles keep them from setting most of a round's time and its
#: swing from seed to seed.  The 4-cycles put the median analysis among
#: the plain 5-cycles, whose cost varies least, not among the acyclic
#: tables, whose cost varies sevenfold with their shape.
CYCLES = {4: 18, 5: 10, 6: 7, 7: 3}
#: Random acyclic tables per input list.
ACYCLIC_MODELS = 12
ACYCLIC_MEASUREMENTS = 6


def acyclic_model(rng: Random) -> cm.EmpiricalModel:
    """Random non-disturbing binary model on an acyclic hypergraph with
    exactly ``ACYCLIC_MEASUREMENTS`` measurements (the command line's cap)."""
    while True:
        h = sc.random_acyclic_hypergraph(rng, max_measurements=ACYCLIC_MEASUREMENTS)
        if len(h.measurements) == ACYCLIC_MEASUREMENTS:
            return sc.random_nondisturbing_model(
                h, rng, {m: 2 for m in h.measurements}
            )


def tables_inputs(seed: int) -> list[Case]:
    rng = Random(seed)
    cases = []
    for n, count in CYCLES.items():
        for k in range(count):
            cases.append(Case(f"cycle-{n}-{k}", cycle_model(rng, n), {"cycle": True}))
            skew = Fraction(rng.randint(1, 4), 16)
            cases.append(
                Case(
                    f"cycle-{n}-skewed-{k}",
                    cycle_model(rng, n, skew),
                    {"cycle": True, "skew": skew},
                )
            )
    angles = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
    cases += [
        Case("chsh-quantum", sc.chsh_quantum(), {"cycle": True}),
        Case("chsh-random-angles", sc.chsh_quantum(angles), {"cycle": True}),
        Case("kcbs-quantum", sc.kcbs_quantum(), {"cycle": True}),
    ]
    for k in range(ACYCLIC_MODELS):
        cases.append(Case(f"acyclic-{k}", acyclic_model(rng), {"acyclic": True}))
    rng.shuffle(cases)
    return cases


def tables_analysis(case: Case):
    m = case.data
    report = dist.fractions_with_disturbance(m)
    findings = dist.detect_disturbance(m)
    extension = dist.extend_scenario(m)
    reduced, _ = vb.graham_reduce(m.hypergraph)
    return report, findings, extension, reduced


# ---------------------------------------------------------------------------
# geometry: object complexes, decompositions, phases, homology

#: Fragments per (dimension, effect count) class.  An analysis costs
#: about ten times more in the largest class than in the smallest, and
#: varies by about 15% within a class, so a fixed mix of classes keeps a
#: round's cost from swinging with the seed.  The counts follow how often
#: ``random_fragment`` draws each class, so few draws are thrown away.
#: Nine-effect fragments, a sixteenth of the draws, are left out.
GEOMETRY_CLASSES = {
    (d, e): count
    for d in (2, 3, 4)
    for e, count in {4: 2, 5: 4, 6: 3, 7: 3, 8: 3}.items()
}
KINDS = ("state", "effect")
VIEWS = ("geometrical", "topological")


def _chart_map(rng: Random) -> dict:
    """Chart of vertex v: (v + shift) % charts."""
    return {"charts": rng.randint(2, 3), "shift": rng.randrange(3)}


def geometry_inputs(seed: int) -> list[Case]:
    rng = Random(seed)
    wanted = dict(GEOMETRY_CLASSES)
    fragments = []
    while any(wanted.values()):
        f = sc.random_fragment(rng)
        key = (f.dimension, len(f.effects))
        if wanted.get(key):
            wanted[key] -= 1
            fragments.append(f)
    cases = []
    for k, f in enumerate(fragments):
        for contextual in (False, True):
            cases.append(
                Case(
                    f"random-{k}-{'free' if contextual else 'split'}",
                    (f, sc.random_ontic_table(f, rng, contextual)),
                    {"split": not contextual, **_chart_map(rng)},
                )
            )
    for label, f in (
        ("extremal-box", sc.pr_box_fragment()),
        ("qubit", sc.qubit_fragment()),
        ("gbit", sc.gbit()),
    ):
        cases.append(
            Case(
                label,
                (f, sc.random_ontic_table(f, rng, True)),
                {"split": False, **_chart_map(rng)},
            )
        )
    rng.shuffle(cases)
    return cases


@dataclass
class ComplexRun:
    """Everything one analysis computes on one object complex."""

    eqs: list
    oc: conn.ObjectComplex
    valuations: list  # per ontic value: (xi, decomposition, phases, curvature or class)
    homology: list
    certificate: str | None
    charts: dict
    chart_split: conn.ConnectionDecomposition


def geometry_analysis(case: Case) -> dict:
    f, rep = case.data
    out = {}
    for kind in KINDS:
        if kind == "state":
            eqs = cm.state_equivalences(f)
        else:
            eqs = cm.effect_equivalences(f, include_unit=True)
        for view in VIEWS:
            oc = conn.build_object_complex(kind, f, eqs, view)
            valuations = []
            for lam in range(rep.lambda_count):
                xi = conn.valuation_cochain(oc, rep, lam)
                dec = conn.decompose(oc, xi)
                phases = conn.loop_phases(oc, dec)
                if view == "geometrical":
                    extra = conn.curvature(oc, dec)
                else:
                    extra = conn.monodromy_class(oc, dec)
                valuations.append((xi, dec, phases, extra))
            groups = [
                ddg.homology(oc.complex, d) for d in range(oc.complex.dimension + 1)
            ]
            certificate = vb.generalized_vorobyev(oc) if view == "topological" else None
            charts = {
                v: (v + case.facts["shift"]) % case.facts["charts"]
                for v in oc.complex.vertices
            }
            chart_split = dist.decompose_with_eta(oc, valuations[0][0], charts)
            out[kind, view] = ComplexRun(
                eqs, oc, valuations, groups, certificate, charts, chart_split
            )
    return out


INPUTS = {
    "embedding": embedding_inputs,
    "shared-effects": shared_effects_inputs,
    "tables": tables_inputs,
    "geometry": geometry_inputs,
}
ANALYSES = {
    "embedding": embedding_analysis,
    "shared-effects": shared_effects_analysis,
    "tables": tables_analysis,
    "geometry": geometry_analysis,
}
