"""Spans and counters recorded around the package's public functions.

The recorder replaces each traced function at the module attribute its
callers resolve (``noncontextuality.response_vertices``,
``lp.LinearProgram.solve``, ...), so calls made inside the package are
seen as well as the benchmark's own.  Each call records a span
``[name, start, end, parent]``; spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Counts summed over the timed loop, and maxima over it.
SUM_COUNTS = (
    "core_model.equivalences",
    "linalg.calls",
    "noncontextuality.polytope_calls",
    "noncontextuality.vertices",
    "lp.solves",
    "lp.rows",
    "lp.cols",
)
MAX_COUNTS = ("linalg.max_cols", "lp.max_bits")

SPAN_NAMES = (
    "core_model.equivalences",
    "core_model.validate",
    "linalg.solve",
    "linalg.nullspace",
    "linalg.rank",
    "noncontextuality.polytope",
    "noncontextuality.lp_build",
    "lp.solve",
    "connection.build",
    "connection.decompose",
    "connection.phases",
    "ddg.homology",
    "ddg.exact",
    "ddg.coboundary",
    "disturbance.detect",
    "disturbance.extend",
    "disturbance.split",
    "vorobyev.reduce",
    "scenarios.generate",
)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _count_equivalences(rec, args, result):
    rec.add("core_model.equivalences", len(result))


def _count_linalg(rec, args, result):
    rec.add("linalg.calls", 1)
    matrix = args[0]
    rec.peak("linalg.max_cols", len(matrix[0]) if matrix else 0)


def _count_polytope(rec, args, result):
    rec.add("noncontextuality.polytope_calls", 1)
    rec.add("noncontextuality.vertices", len(result.vertices))


def _count_lp(rec, args, result):
    rec.add("lp.solves", 1)
    matrix = result.eq_matrix or ()
    rec.add("lp.rows", len(matrix))
    rec.add("lp.cols", len(matrix[0]) if matrix else 0)
    numbers = list(result.assignment.values()) + list(result.certificate or ())
    rec.peak("lp.max_bits", max((_bits(x) for x in numbers), default=0))


#: (module, attribute, span name, counter).  One function imported by name
#: into several modules is patched in each of them.
_GENERATORS = (
    "classical_simplex", "gbit", "halving_fragment", "qubit_fragment",
    "pr_box_fragment", "noisy_pr_fragment", "pr_box", "chsh_quantum",
    "kcbs_quantum", "random_acyclic_hypergraph", "random_nondisturbing_model",
    "random_fragment", "random_ontic_table",
)
TRACE_POINTS = (
    ("core_model", "find_equivalences", "core_model.equivalences", _count_equivalences),
    ("core_model", "validate_fragment", "core_model.validate", None),
    ("noncontextuality", "validate_fragment", "core_model.validate", None),
    ("scenarios", "validate_fragment", "core_model.validate", None),
    ("linalg", "solve", "linalg.solve", _count_linalg),
    ("linalg", "nullspace", "linalg.nullspace", _count_linalg),
    ("linalg", "rank", "linalg.rank", _count_linalg),
    ("noncontextuality", "response_vertices", "noncontextuality.polytope", _count_polytope),
    ("noncontextuality", "noncontextual_lp", "noncontextuality.lp_build", None),
    ("noncontextuality", "minimal_negativity", "noncontextuality.lp_build", None),
    ("noncontextuality", "contextual_fraction", "noncontextuality.lp_build", None),
    ("disturbance", "contextual_fraction", "noncontextuality.lp_build", None),
    ("lp", "LinearProgram.solve", "lp.solve", _count_lp),
    ("connection", "build_object_complex", "connection.build", None),
    ("noncontextuality", "build_object_complex", "connection.build", None),
    ("connection", "decompose_cochain", "connection.decompose", None),
    ("disturbance", "decompose_with_eta", "connection.decompose", None),
    ("connection", "loop_phases", "connection.phases", None),
    ("connection", "curvature", "connection.phases", None),
    ("connection", "monodromy_class", "connection.phases", None),
    ("ddg", "homology", "ddg.homology", None),
    ("ddg", "is_exact", "ddg.exact", None),
    ("ddg", "coboundary", "ddg.coboundary", None),
    ("disturbance", "detect_disturbance", "disturbance.detect", None),
    ("disturbance", "extend_scenario", "disturbance.extend", None),
    ("disturbance", "fractions_with_disturbance", "disturbance.split", None),
    ("vorobyev", "graham_reduce", "vorobyev.reduce", None),
) + tuple(("scenarios", g, "scenarios.generate", None) for g in _GENERATORS)


class Recorder:
    """In-memory span list plus additive and maximum counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        self._patched = []
        for module_name, attr, name, counter in TRACE_POINTS:
            owner = importlib.import_module(f"contextua.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched = []

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per span name, over the spans from index ``first`` on: summed
        duration minus the child spans' durations."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans[first:], first):
            totals[name] += (end - start) - child_time[index]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, out)
