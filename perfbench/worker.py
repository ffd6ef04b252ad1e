"""One workload in one single-threaded process: set-up, a closed loop of
timed analyses, then the checks.

    python3 perfbench/worker.py --workload tables --seed 1 --seconds 26

prints one JSON record as its last line.  ``--setup-only`` stops after
the set-up (imports plus input generation) and reports its time.  The
package is imported from ``src`` next to this directory and nowhere else.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

#: Problems of failed checks kept in the record, per run.
MAX_PROBLEMS = 10


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    return parser.parse_args(argv)


def import_package():
    import contextua

    where = Path(contextua.__file__).resolve().parent
    if where != (SRC / "contextua").resolve():
        raise SystemExit(f"contextua imported from {where}, not from {SRC}")


class Outputs:
    """Analysis outputs, kept for the checks.

    The first round's outputs are kept whole.  A later output that pickles
    to the same bytes as the first round's for its input is the same value
    and only counted; any other output is kept too.  What is held thus
    does not grow with the number of rounds.
    """

    def __init__(self):
        self.first: dict[int, object] = {}
        self._blobs: dict[int, bytes] = {}
        self.repeats: dict[int, int] = {}
        self.others: list[tuple[int, object]] = []

    def add(self, round_no: int, index: int, out) -> None:
        blob = pickle.dumps(out)
        if round_no == 0:
            self.first[index], self._blobs[index] = out, blob
        elif blob == self._blobs.get(index):
            self.repeats[index] = self.repeats.get(index, 0) + 1
        else:
            self.others.append((index, out))


#: Nominal time of one ``time_reference()`` call.  Analysis times are reported
#: at the machine speed where one call takes this long, about its time on
#: the reference machine.
REFERENCE_S = 0.0045
#: Seconds between two timings of the reference while the loop runs.
PROBE_EVERY_S = 0.1


def time_reference() -> float:
    """Time one fixed piece of exact work: Gauss-Jordan elimination of a
    9 x 9 rational system, the kind of loop the package's LP and linalg
    layers run.  It uses the standard library only, so no change to the
    package moves it."""
    start = perf_counter()
    n = 9
    m = [
        [Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(n)]
        + [Fraction(i + 1)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while the loop runs.

    The speed of this machine drifts by 15-20% over seconds, and all
    pure-Python exact arithmetic drifts with it.  A timer signal times
    the reference every ``PROBE_EVERY_S`` seconds, inside the analyses
    too, so an analysis of any length has samples taken during it or
    within one period of it.  Its time over their mean no longer carries
    the drift.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, reference time)
        self.spent = 0.0  # wall time inside the probe
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.samples.append((start, time_reference()))
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to nominal speed."""
        near = [
            took for at, took in self.samples
            if start - PROBE_EVERY_S <= at <= end + PROBE_EVERY_S
        ]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return REFERENCE_S / statistics.fmean(near)


def run_loop(analyse, cases, seconds, sample_speed):
    """Whole rounds over the input list; another round starts only while
    it is expected to end within ``seconds``.  Returns per-round times
    without the probe's, the same times at nominal speed (None where the
    analysis raised; no list at all without ``sample_speed``), the outputs
    and error texts."""
    times, spans, outputs, errors = [], [], Outputs(), []
    gc.collect()
    gc.freeze()
    probe = SpeedProbe()
    with probe if sample_speed else contextlib.nullcontext():
        start = perf_counter()
        while True:
            round_start = perf_counter()
            round_times, round_spans = [], []
            for index, case in enumerate(cases):
                spent = probe.spent
                t = perf_counter()
                try:
                    out = analyse(case)
                except Exception as exc:  # a failed analysis is counted, not fatal
                    round_times.append(None)
                    errors.append(f"{case.label}: {exc!r}")
                    continue
                end = perf_counter()
                round_times.append(end - t - (probe.spent - spent))
                round_spans.append((t, end))
                outputs.add(len(times), index, out)
            times.append(round_times)
            spans.append(round_spans)
            now = perf_counter()
            if (now - start) + (now - round_start) > seconds:
                break
    if not sample_speed:
        return times, None, outputs, errors
    scaled = []
    for round_times, round_spans in zip(times, spans):
        span = iter(round_spans)
        scaled.append([
            None if elapsed is None else elapsed * probe.scale(*next(span))
            for elapsed in round_times
        ])
    return times, scaled, outputs, errors


def layer_metrics(recorder, mark, counts_at_mark, rounds) -> dict:
    """Per-layer metrics of the timed loop, per round of the input list.

    ``scenarios.generate_s`` is the one input generation of the run: the
    time inside the generators, their children included.
    """
    from tracing import MAX_COUNTS, SPAN_NAMES, SUM_COUNTS

    generation = sum(
        end - start
        for name, start, end, parent in recorder.spans[:mark]
        if name == "scenarios.generate" and parent < 0
    )
    self_times = recorder.self_times(mark)
    metrics = {f"{name}_s": self_times.get(name, 0.0) / rounds for name in SPAN_NAMES}
    metrics["scenarios.generate_s"] = generation
    for name in SUM_COUNTS:
        total = recorder.counts.get(name, 0) - counts_at_mark.get(name, 0)
        metrics[name] = total / rounds
    for name in MAX_COUNTS:
        metrics[name] = recorder.counts.get(name, 0)
    return metrics


def main(argv=None) -> int:
    args = parse(argv)
    import_package()
    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    import workloads

    if args.workload not in workloads.INPUTS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    cases = workloads.INPUTS[args.workload](args.seed)
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    mark = len(recorder.spans) if recorder else 0
    counts_at_mark = dict(recorder.counts) if recorder else {}
    times, scaled, outputs, errors = run_loop(
        workloads.ANALYSES[args.workload], cases, args.seconds, not args.trace
    )
    loop_s = sum(t for row in times for t in row if t is not None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "labels": [case.label for case in cases],
        "rounds": len(times),
        "times": times,
        "scaled": scaled,
        "analysis_s_per_round": loop_s / len(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder:
        record["per_layer"] = layer_metrics(recorder, mark, counts_at_mark, len(times))
        record["spans_per_round"] = (len(recorder.spans) - mark) / len(times)
        if args.spans:
            recorder.dump(Path(args.spans))
        recorder.uninstall()

    # the oracles import scipy and sympy, so they come after the RSS reading
    import oracles

    check_start = perf_counter()
    reference = oracles.references(args.workload)
    check = oracles.CHECKS[args.workload]
    problems = list(errors)
    check_failed = 0
    checked = [(i, out, 1 + outputs.repeats.get(i, 0)) for i, out in outputs.first.items()]
    checked += [(i, out, 1) for i, out in outputs.others]
    for index, out, copies in checked:
        case = cases[index]
        found = check(case, out, reference(case))
        if found:
            check_failed += copies
            problems += [f"{case.label}: {p}" for p in found]
    record.update(
        attempted=len(cases) * len(times),
        raised=len(errors),
        check_failed=check_failed,
        problems=problems[:MAX_PROBLEMS],
        check_s=perf_counter() - check_start,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
