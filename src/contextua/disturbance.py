"""Marginal disagreement: detection, scenario extension, and fraction splits.

Contexts that share measurements may disagree on the shared marginals.  This
module finds those disagreements exactly, rewrites scenarios so they cannot
occur (per-context measurement copies), splits edge valuations into
potential + connection + disturbance, and extends the fraction decomposition
with a disturbing part so the three weights still sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import ddg
from .connection import ConnectionDecomposition, ObjectComplex, decompose_cochain
from .core_model import (
    DisturbingModelError,
    EmpiricalModel,
    agreement_rows,
    detect_disturbance,
    split,
)
from .lp import LinearProgram
from .noncontextuality import FractionReport, Limits, contextual_fraction
from .vorobyev import CompatibilityHypergraph

@dataclass(frozen=True)
class ExtensionResult:
    """Rewritten scenario plus the copy -> original measurement mapping."""

    model: EmpiricalModel
    mapping: dict[str, str]


def _split_measurement(
    model: EmpiricalModel, name: str
) -> tuple[EmpiricalModel, dict[str, str]]:
    h = model.hypergraph
    renames: dict[str, str] = {m: m for m in h.measurements if m != name}
    contexts = []
    copies = []
    for i, context in enumerate(h.contexts):
        if name in context:
            copy = f"{name}@{i}"
            if copy in h.measurements:
                raise ValueError(
                    f"cannot split {name!r}: measurement {copy!r} already exists"
                )
            copies.append(copy)
            renames[copy] = name
            contexts.append(tuple(copy if m == name else m for m in context))
        else:
            contexts.append(context)
    measurements = tuple(m for m in h.measurements if m != name) + tuple(copies)
    outcomes = {
        m: model.outcomes[renames[m]] for m in measurements
    }
    rebuilt = EmpiricalModel(
        CompatibilityHypergraph(measurements, tuple(contexts)),
        outcomes,
        model.tables,  # same rows: copies keep their column positions
    )
    return rebuilt, renames


def extend_scenario(model: EmpiricalModel) -> ExtensionResult:
    """Split disturbing shared measurements into per-context copies.

    Iterates on the first measurement of the first disagreeing intersection
    until detection comes back empty, so the result is non-disturbing by
    construction; non-disturbing input passes through unchanged.
    """
    current = model
    mapping = {m: m for m in model.hypergraph.measurements}
    while True:
        findings = detect_disturbance(current)
        if not findings:
            return ExtensionResult(current, mapping)
        _, _, shared, _ = findings[0]
        current, renames = _split_measurement(current, shared[0])
        mapping = {new: mapping[old] for new, old in renames.items()}


def decompose_with_eta(
    oc: ObjectComplex, xi: ddg.Cochain, charts: Mapping[int, object]
) -> ConnectionDecomposition:
    """Split xi into d(potential) + connection + disturbance.

    :func:`connection.decompose_cochain` under a chart map: edges crossing a
    chart boundary stay out of the potential fit and carry their residual
    as the disturbance, so the connection lives inside charts.
    """
    return decompose_cochain(oc.complex, xi, charts)


def fractions_with_disturbance(
    model: EmpiricalModel, *, limits: Limits = Limits()
) -> FractionReport:
    """Fraction report with the disturbing weight split off first.

    :func:`contextual_fraction`'s non-disturbance check chooses the branch.
    Past it, the disturbing fraction is one minus the largest sub-mass that all
    contexts can shed while agreeing on every shared marginal (an exact LP);
    the noncontextual/contextual split of the agreeing part is then rescaled
    so the three weights sum to one exactly.
    """
    try:
        return contextual_fraction(model, limits=limits)
    except DisturbingModelError:
        pass

    h = model.hypergraph
    program = LinearProgram(sense="max")
    program.add_variable("t", objective=1)
    names: list[list[str]] = []
    for i, context in enumerate(h.contexts):
        row = []
        for flat, value in enumerate(model.tables[i]):
            var = f"u_{i}_{flat}"
            program.add_variable(var)
            program.add_constraint({var: 1}, "<=", value)
            row.append(var)
        names.append(row)
        program.add_constraint(
            {**{var: 1 for var in row}, "t": -1}, "=", 0
        )
    for i, j, _, rows in agreement_rows(model):
        for ps, qs in rows:  # sum of u_i over ps - sum of u_j over qs = 0
            coeffs = {**{names[i][p]: 1 for p in ps}, **{names[j][q]: -1 for q in qs}}
            program.add_constraint(coeffs, "=", 0)
    solution = program.solve()
    if solution.status != "optimal":
        raise AssertionError(
            f"the zero sub-mass is feasible and bounded, got {solution.status}"
        )
    t = solution.assignment.get("t", Fraction(0))
    common = tuple(
        tuple(solution.assignment.get(var, Fraction(0)) for var in row)
        for row in names
    )
    agreeing, leftover = split(model, common, t)
    if agreeing is None:
        return FractionReport(
            Fraction(0), Fraction(0), Fraction(1), None, None, p_d=leftover
        )
    inner = contextual_fraction(agreeing, limits=limits)
    return FractionReport(
        ncf=t * inner.ncf,
        cf=t * inner.cf,
        df=1 - t,
        p_nc=inner.p_nc,
        p_sc=inner.p_sc,
        p_d=leftover,
    )
