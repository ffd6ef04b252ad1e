"""Command-line front end: load JSON descriptions, run analyses, report.

Every subcommand prints a human-readable table by default and canonical JSON
with ``--json``; identical inputs and flags produce byte-identical output.
Exit codes: 0 on success, 1 when ``--strict`` is set and the analysis verdict
is negative (contextual / infeasible / disturbing / invalid), 2 on input
errors (unknown subcommand, malformed JSON, scale caps, and any ValueError an
analysis raises on its input), each with one line on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from fractions import Fraction
from multiprocessing import Pool

from . import ddg
from ._rat import (
    excerpt, format_rational, json_in, key_in, list_in, name_in, object_in,
    parse_rational, rationals,
)
from .connection import (
    build_object_complex,
    curvature,
    decompose,
    decomposition_report,
    disk_integral,
    loop_phases,
    monodromy_class,
    valuation_from_values,
)
from .core_model import (
    KINDS,
    ValidationReport,
    equivalences,
    fragment_from_json,
    fragment_to_json,
    model_from_document,
    model_from_json,
    model_to_json,
    validate_fragment,
)
from .disturbance import (
    detect_disturbance,
    extend_scenario,
    fractions_with_disturbance,
)
from .interference import all_i2, all_i3, measure_from_json, measure_to_json
from .noncontextuality import (
    Limits,
    contextual_fraction,
    minimal_negativity,
    noncontextual_lp,
)
from .scenarios import (
    SCENARIOS,
    noisy_pr_fragment,
    planted_gap_model,
    two_party_model_from_fragment,
)
from .vorobyev import CompatibilityHypergraph, graham_reduce, h1_certificate


# -- loading -----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(parser_fn, path: str, what: str):
    text = _read(path)
    try:
        return parser_fn(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad {what} file {path}: {exc}") from exc


def _parse_hypergraph(text: str) -> CompatibilityHypergraph:
    """A bare hypergraph document, or the hypergraph of a model file."""
    doc = json_in(text)
    if isinstance(doc, dict) and "hypergraph" in doc:
        return model_from_document(doc).hypergraph
    doc = object_in(doc, "a hypergraph", ("measurements", "contexts"))
    measurements = list_in(key_in(doc, "measurements", "a hypergraph"), "measurements")
    contexts = list_in(key_in(doc, "contexts", "a hypergraph"), "contexts")
    return CompatibilityHypergraph(
        tuple(name_in(m, "measurements") for m in measurements),
        tuple(
            tuple(name_in(m, f"contexts[{i}]") for m in list_in(c, f"contexts[{i}]"))
            for i, c in enumerate(contexts)
        ),
    )


#: Most faces a complex file may close to on the command line, counted as
#: 2**k - 1 per listed simplex of k distinct vertices before any closure.
#: In-process, ``homology --n 4`` of one 10-vertex simplex (1023 faces)
#: takes about 0.1 s, 11 vertices about 0.5–0.8 s and 12 vertices about 4 s
#: (2-core Xeon, Python 3.11); the whole command at the cap about 0.25 s.
COMPLEX_CLI_MAX_FACES = 2**10 - 1


def _parse_complex(text: str) -> ddg.SimplicialComplex:
    """A list of simplices, each of distinct JSON integer vertex ids, refused
    when its face closure could exceed :data:`COMPLEX_CLI_MAX_FACES` (the
    library takes any).  Errors name a simplex by its position, never by its
    ids, which may be arbitrarily long."""
    doc = json_in(text)
    if type(doc) is not list:
        raise ValueError("a complex is a list of simplices")
    faces = 0
    for position, simplex in enumerate(doc):
        if type(simplex) is not list or any(type(v) is not int for v in simplex):
            raise ValueError(f"simplex {position} is not a list of integer vertex ids")
        k = len(set(simplex))
        if k != len(simplex):
            raise ValueError(f"simplex {position} repeats a vertex id")
        faces += 2**k - 1
    if faces > COMPLEX_CLI_MAX_FACES:
        raise ValueError(
            f"its simplices close to up to {faces} faces, over the "
            f"command-line cap of {COMPLEX_CLI_MAX_FACES}"
        )
    return ddg.SimplicialComplex(doc)


def _parse_values(text: str, expected: int) -> list[Fraction]:
    try:
        values = rationals(text)
    except ValueError as exc:
        raise ValueError(f"bad --values entry: {exc}") from exc
    if len(values) != expected:
        raise ValueError(
            f"--values needs {expected} comma-separated rationals, got {len(values)}"
        )
    return values


def _parse_params(name: str, pairs) -> dict:
    """Each ``--param K=V`` of scenario ``name`` as ``{K: V}``, V read by
    :func:`parse_rational`; a key given twice is refused."""
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {excerpt(pair)!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"bad parameters for {name}: --param names {excerpt(key)!r} twice")
        try:
            params[key] = parse_rational(raw)
        except ValueError as exc:
            raise ValueError(f"bad parameter value for {name}: {excerpt(key)}: {exc}") from exc
    return params


# -- shared pieces -----------------------------------------------------------

#: The reader of each input file kind a subcommand may declare.
_READERS = {
    "fragment": fragment_from_json,
    "model": model_from_json,
    "measure": measure_from_json,
    "hypergraph": _parse_hypergraph,
    "complex": _parse_complex,
}


def _well_formed(f):
    """``f``, refused when :func:`validate_fragment` finds a structural error,
    since the dependence basis and the object complexes would otherwise
    answer for vectors that do not fit the dimension."""
    ValidationReport(validate_fragment(f).structural).refuse("fragment")
    return f


def _decomposition(f, args, view: str):
    """The object complex of ``--kind`` and the split of its ``--values``."""
    f = _well_formed(f)
    oc = build_object_complex(args.kind, f, equivalences(f, args.kind), view)
    if args.values is None:
        raise ValueError(
            f"--values with {oc.object_count} rationals is required "
            f"for kind {args.kind!r}"
        )
    xi = valuation_from_values(oc, _parse_values(args.values, oc.object_count))
    return oc, decompose(oc, xi)


def _fractions_payload(report) -> dict:
    """The ncf/cf/df weights of a fraction report as rational text."""
    return {
        "ncf": format_rational(report.ncf),
        "cf": format_rational(report.cf),
        "df": format_rational(report.df),
    }


def _limits(args) -> Limits:
    """The run's size guards; checked before any input file is read."""
    cap = args.scale_cap
    if cap is None:
        return Limits()
    if cap < 1:
        raise ValueError(f"--scale-cap must be positive, got {cap}")
    return Limits(cap, cap, cap)


# -- subcommand handlers: (input, args) -> (report, bad_verdict) -------------


def _cmd_validate(f, args):
    report = validate_fragment(f)
    return (
        {"ok": report.ok, "structural": report.structural, "violations": report.violations},
        not report.ok,
    )


def _cmd_equivalences(f, args):
    def payload(eqs):
        return [
            {
                "kind": eq.kind,
                "coefficients": {
                    str(i): format_rational(c)
                    for i, c in sorted(eq.coefficients.items())
                },
            }
            for eq in eqs
        ]

    f = _well_formed(f)
    report = {f"{kind}s": payload(equivalences(f, kind)) for kind in KINDS}
    return report, False


def _cmd_nc_check(f, args):
    solution = noncontextual_lp(f, limits=args.limits)
    report = {"status": solution.status}
    if solution.status == "infeasible":
        report["certificate_verified"] = solution.certificate_checks()
    return report, solution.status != "optimal"


def _cmd_fraction(m, args):
    report = contextual_fraction(m, limits=args.limits)
    payload = {
        **_fractions_payload(report),
        "has_noncontextual_part": report.p_nc is not None,
        "has_contextual_part": report.p_sc is not None,
    }
    return payload, report.cf > 0


def _cmd_negativity(f, args):
    _, negativity = minimal_negativity(f, limits=args.limits)
    return {"negativity": format_rational(negativity)}, negativity > 0


def _cmd_decompose(f, args):
    oc, dec = _decomposition(f, args, args.view)
    return decomposition_report(oc, dec), False


def _cmd_curvature(f, args):
    oc, dec = _decomposition(f, args, "geometrical")
    curv = curvature(oc, dec)
    report = {
        "curvature": curv.values.payload(),
        "disk_integrals": {
            str(oc.loops[i][0]): format_rational(disk_integral(oc, curv, i))
            for i in range(len(oc.disks))
        },
    }
    return report, False


def _cmd_phases(f, args):
    oc, dec = _decomposition(f, args, "topological")
    phases = loop_phases(oc, dec)
    report = {
        "phases": {
            str(eq_id): format_rational(value) for eq_id, value in phases.items()
        },
        "all_zero": all(value == 0 for value in phases.values()),
        "monodromy": monodromy_class(oc, dec),
    }
    return report, not report["all_zero"]


def _cmd_homology(complex_, args):
    group = ddg.homology(complex_, args.n)
    report = {
        "degree": group.degree,
        "betti": group.betti,
        "torsion": list(group.torsion),
    }
    return report, False


def _cmd_vorobyev(data, args):
    if args.reads == "complex":  # --generalized
        verdict, betti = h1_certificate(data)
        return {"verdict": verdict, "betti_1": betti}, False
    reduced, trace = graham_reduce(data)
    report = {
        "acyclic": reduced.is_empty,
        "remaining_contexts": [list(c) for c in reduced.contexts],
        "trace": trace,
    }
    return report, False


def _cmd_interference(m, args):
    table = all_i2(m) if args.order == 2 else all_i3(m)
    report = {  # "|" joins the atoms of an event, "," the events of a key
        "order": args.order,
        "values": {",".join(key): format_rational(value) for key, value in sorted(table.items())},
    }
    return report, False


def _cmd_scenarios(_, args):
    if args.action == "list":
        rows = [{"name": name, "kind": SCENARIOS[name][0]} for name in sorted(SCENARIOS)]
        return {"scenarios": rows}, False
    if args.name is None:
        raise ValueError("scenarios emit needs a scenario name")
    if args.name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {excerpt(args.name)!r}; try `contextua scenarios list`"
        )
    kind, factory = SCENARIOS[args.name]
    params = _parse_params(args.name, args.param)
    accepted = inspect.signature(factory).parameters
    for key in params:
        if key not in accepted:
            raise ValueError(
                f"bad parameters for {args.name}: unknown parameter {excerpt(key)!r}"
            )
    try:
        obj = factory(**params)
    except ValueError as exc:
        raise ValueError(f"bad parameter value for {args.name}: {exc}") from exc
    serializer = {
        "fragment": fragment_to_json,
        "model": model_to_json,
        "measure": measure_to_json,
    }[kind]
    return {"_raw": serializer(obj)}, False


def _cmd_disturbance(m, args):
    findings = detect_disturbance(m)
    report = {
        "disturbing": bool(findings),
        "findings": [
            {
                "contexts": [list(a), list(b)],
                "intersection": list(shared),
                "gap": format_rational(gap),
            }
            for a, b, shared, gap in findings
        ],
    }
    if args.extend:
        ext = extend_scenario(m)
        report["extension"] = {
            "contexts": [list(c) for c in ext.model.hypergraph.contexts],
            "mapping": dict(sorted(ext.mapping.items())),
        }
    if args.fractions:
        report["fractions"] = _fractions_payload(
            fractions_with_disturbance(m, limits=args.limits)
        )
    return report, bool(findings)


# -- sweep -------------------------------------------------------------------


def _sweep_point(family: str, param_text: str, point) -> dict:
    """The row of one point: ``point`` is its family factory's output."""
    if family == "pr-noise":
        _, negativity = minimal_negativity(point)
        report = contextual_fraction(two_party_model_from_fragment(point))
        negativity_text = format_rational(negativity)
    else:  # disturbance-gap
        report = fractions_with_disturbance(point)
        negativity_text = ""
    return {
        "param": param_text,
        **_fractions_payload(report),
        "negativity": negativity_text,
    }


#: Each sweep family's default points and the factory that builds a point's
#: input, and so checks its range.
_SWEEPS = {
    "pr-noise": ("0,1/4,1/2,3/4,1", noisy_pr_fragment),
    "disturbance-gap": ("0,1/8,1/4,3/8,1/2", planted_gap_model),
}


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_sweep(_, args):
    if args.workers < 1:
        raise ValueError(f"--workers must be positive, got {args.workers}")
    family = args.family
    default_points, factory = _SWEEPS[family]
    points = [tok.strip() for tok in (args.points or default_points).split(",") if tok.strip()]
    jobs = []
    for tok in points:  # every input is built before any analysis runs
        try:
            jobs.append((family, tok, factory(parse_rational(tok))))
        except ValueError as exc:
            raise ValueError(f"bad sweep point {excerpt(tok)!r}: {exc}") from exc
    workers = min(args.workers, len(jobs), _usable_cpus())
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.starmap(_sweep_point, jobs)
    else:
        rows = [_sweep_point(*job) for job in jobs]
    if args.emit_csv:
        lines = ["param,ncf,cf,df,negativity"]
        lines += [
            ",".join(row[key] for key in ("param", "ncf", "cf", "df", "negativity"))
            for row in rows
        ]
        try:
            with open(args.emit_csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.emit_csv}: {exc}") from exc
    return {"family": family, "rows": rows}, False


# -- parser and entry point --------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextua",
        description="Exact contextuality analysis for operational models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, reads=None, capped=False):
        """Declare one subcommand: ``reads`` is the kind of its ``file``
        (see ``_READERS``), and ``capped`` gives it ``--scale-cap``."""
        p = sub.add_parser(name, help=help)
        if reads is not None:
            p.add_argument("file")
        p.set_defaults(handler=handler, reads=reads, capped=capped)
        return p

    command("validate", _cmd_validate, "check a fragment's structure and invariants",
            reads="fragment")
    command("equivalences", _cmd_equivalences, "linear dependencies among states/effects",
            reads="fragment")
    command("nc-check", _cmd_nc_check, "simplex-embedding feasibility LP",
            reads="fragment", capped=True)
    command("fraction", _cmd_fraction, "contextual fraction of an empirical model",
            reads="model", capped=True)
    command("negativity", _cmd_negativity, "minimal negativity over response vertices",
            reads="fragment", capped=True)
    for name, handler, blurb in (
        ("decompose", _cmd_decompose, "potential/connection split"),
        ("curvature", _cmd_curvature, "curvature"),
        ("phases", _cmd_phases, "loop phases"),
    ):
        p = command(name, handler, f"{blurb} of an object-valuation cochain", reads="fragment")
        p.add_argument("--kind", choices=KINDS, default="state")
        if name == "decompose":
            p.add_argument("--view", choices=("geometrical", "topological"), default="geometrical")
        p.add_argument("--values", help="comma-separated rational valuation, one entry per object")
    p = command("homology", _cmd_homology, "integer homology of a complex", reads="complex")
    p.add_argument("--n", type=int, default=1, help="degree (default 1)")
    p = command("vorobyev", _cmd_vorobyev, "Graham reduction / certificate",
                reads="hypergraph")
    p.add_argument("--generalized", action="store_const", dest="reads", const="complex",
                   help="read the file as a complex and run the H1 certificate on it")
    p = command("interference", _cmd_interference, "pairwise/triple interference terms",
                reads="measure")
    p.add_argument("--order", type=int, choices=(2, 3), default=2)
    p = command("disturbance", _cmd_disturbance, "marginal disagreement analysis",
                reads="model", capped=True)
    p.add_argument("--extend", action="store_true", help="include the split scenario")
    p.add_argument("--fractions", action="store_true", help="include the NCF/CF/DF split")
    p = command("scenarios", _cmd_scenarios, "list or emit canonical inputs")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="rational factory parameter, such as seed=N for random-*; repeatable")
    p = command("sweep", _cmd_sweep, "parameter sweeps with CSV output")
    p.add_argument("family", choices=sorted(_SWEEPS))
    p.add_argument("--points", help="comma-separated parameter values")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--emit-csv", metavar="PATH")

    for p in sub.choices.values():  # the shared flags come last in every --help
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when the verdict is contextual/infeasible/disturbing")
        if p.get_default("capped"):
            p.add_argument("--scale-cap", type=int, metavar="N",
                           help="set every analysis size guard to N")
    return parser


def _render_human(report: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = " " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_human(value, indent + 2))
        elif isinstance(value, list):
            if value and all(isinstance(item, dict) for item in value):
                lines.append(f"{pad}{key}:")
                for item in value:
                    lines.append(f"{pad}  -")
                    lines.extend(_render_human(item, indent + 4))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # the one input route: size guards, then the file, then the analysis
        if args.capped:
            args.limits = _limits(args)
        data = _load(_READERS[args.reads], args.file, args.reads) if args.reads else None
        report, bad = args.handler(data, args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if "_raw" in report:
        text = report["_raw"]
    elif args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(_render_human(report))
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early, as `| head -1` does
        # so the flush at exit writes nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.strict and bad:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
