"""diskflow benchmark: one closed-loop caller, graded outputs, per-layer trace.

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The benchmark imports diskflow from
``src/``, makes its inputs from ``--seed`` (see ``workloads.py``), runs
the operation stream one call at a time for as many whole passes as fit
in ``--seconds`` at the workload's nominal pass time (``PASS_SECONDS``),
grades every output against the independent references in ``oracle.py``,
lists each failed operation, and prints as its last line one JSON object.
``--trace 0`` reports the end-to-end metrics, with operation times in
units of a reference kernel sampled around and inside each call (see
``Speed``).  ``--trace 1`` runs a fixed number of passes twice, untraced
and then traced, and reports per-layer metrics and the tracing overhead.
See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import contextlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# passes the traced run executes; fixed so its counts repeat exactly
TRACE_PASSES = {"trajectories": 4, "linearizer": 1, "bfid": 1}
# call seconds of one pass on the machine the benchmark was tuned on.
# An untraced run makes round(--seconds / PASS_SECONDS) passes, at least
# one: the work of a run is fixed by its arguments, not by the clock, so
# a seed attempts the same operations, and fails the same ones, on every
# run however loaded the machine is.
PASS_SECONDS = {"trajectories": 0.8, "linearizer": 31.0, "bfid": 25.0}
# set-up is timed this many times in separate processes, besides the
# benchmark's own process; setup_s is the median
SETUP_CHILDREN = 2
# evaluations in one run of the reference kernel (1.0 to 1.7 ms on the
# machine the benchmark was tuned on)
REFERENCE_EVALS = 2000
# the timed phase runs the kernel every SAMPLE_PERIOD seconds; a call
# is scaled by the trimmed mean of the samples within SAMPLE_WINDOW
# seconds of it, and of at least SAMPLE_MIN samples
SAMPLE_PERIOD, SAMPLE_WINDOW, SAMPLE_MIN = 0.1, 0.1, 5


class Record(NamedTuple):
    pass_index: int
    kind: str
    seconds: float  # call latency
    refs: float  # call latency in reference-kernel runs
    ok: bool
    digits: list
    failure: dict | None
    crashed: bool


def _reference() -> float:
    """Seconds for a fixed pure-Python kernel of the same kind of work as
    diskflow's inner loops (complex arithmetic and cmath calls).

    The machine the benchmark runs on is shared: identical calls read up
    to 40 % slower or faster for seconds to minutes at a time.  Dividing
    each call's latency by the kernel's time around it (see ``Speed``)
    removes most of that drift and none of diskflow's own cost.
    """
    f = lambda z: -(1 - z) ** 2 * cmath.sqrt((1 + z) / (1 - z))  # noqa: E731
    z, acc = 0.3 + 0.2j, 0j
    start = time.perf_counter()
    for _ in range(REFERENCE_EVALS):
        acc += f(z)
        z = z * 0.999 + 1e-4j
    return time.perf_counter() - start


class Speed:
    """The machine's speed over the timed phase: the reference kernel,
    run on a SIGALRM every ``SAMPLE_PERIOD`` seconds, also inside calls.

    One kernel run reads 1.0 ms or 1.7 ms by turns on an idle machine, so
    a pair taken around a call scales it by chance.  A trimmed mean of the
    samples near a call does not; and over a call of several seconds it
    averages the machine's drift during the call, as the call's time does.
    The handler's time is kept in ``spent`` so calls can leave it out of
    their latency.
    """

    def __init__(self):
        self.times, self.kernel, self.spent = [], [], 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        kernel = _reference()
        self.times.append(time.perf_counter())
        self.kernel.append(kernel)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        for _ in range(SAMPLE_MIN):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(SAMPLE_MIN):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """Kernel seconds within SAMPLE_WINDOW of [start, end]: the mean
        of the samples left when the fastest and slowest fifths are cut."""
        lo = bisect.bisect_left(self.times, start - SAMPLE_WINDOW)
        hi = bisect.bisect_right(self.times, end + SAMPLE_WINDOW)
        if hi - lo < SAMPLE_MIN:
            mid = bisect.bisect_left(self.times, 0.5 * (start + end))
            lo = max(0, min(mid - SAMPLE_MIN // 2, len(self.times) - SAMPLE_MIN))
            hi = lo + SAMPLE_MIN
        kernel = sorted(self.kernel[lo:hi])
        cut = len(kernel) // 5
        return statistics.fmean(kernel[cut:len(kernel) - cut])


def _timed_setup(workload: str, seed: int):
    """Import diskflow and set up the workload; (import_s, inputs_s, spec, ctx)."""
    import workloads  # and mpmath, before the clock starts

    t0 = time.perf_counter()
    import diskflow  # noqa: F401

    t1 = time.perf_counter()
    sp = workloads.spec(workload, seed)
    ctx = workloads.setup(sp)
    return t1 - t0, time.perf_counter() - t1, sp, ctx


def _setup_samples(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run_passes(sp, ctx, passes, paused=contextlib.nullcontext, speed=None):
    """Closed loop over passes 0 .. ``passes``-1 of the operation stream,
    grading each output after its call returns (outside the timed
    interval, inside ``paused()``).  With a ``Speed`` record, latencies
    leave out its samples and ``refs`` is filled in; else it is NaN.
    Returns (records, call seconds, planted-answer verdict).
    """
    import workloads
    from diskflow import DiskflowError

    records, spans, busy, planted = [], [], 0.0, None
    clock = time.perf_counter
    for index in range(passes):
        for op in workloads.ops(sp, ctx, index):
            spent = speed.spent if speed else 0.0
            start = clock()
            try:
                out = op.call()
            except Exception as exc:  # graded as failed; not a DiskflowError = crash
                out = exc
            end = clock()
            latency = end - start - ((speed.spent - spent) if speed else 0.0)
            busy += latency
            spans.append((start, end))
            crashed = isinstance(out, Exception) and not isinstance(out, DiskflowError)
            with paused():
                try:
                    ok, digits, detail = op.grade(out)
                except Exception as exc:  # the output could not be graded
                    ok, digits, detail = False, [], f"ungradable: {type(exc).__name__}: {exc}"
                if planted is None:
                    planted = workloads.planted_wrong_answer_flagged(op, out)
            failure = None if ok else {
                "workload": sp["workload"], "pass": index, "op": op.kind,
                "generator": op.gen, "input": op.inp, "error": detail}
            records.append(Record(index, op.kind, latency, math.nan, ok, digits,
                                  failure, crashed))
    if speed is not None:
        records = [rec._replace(refs=rec.seconds / speed.scale(*span))
                   for rec, span in zip(records, spans)]
    return records, busy, bool(planted)


def _quantile(values, q: int) -> float:
    """The q-th decile, interpolated between samples (never beyond them)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _print_summary(records):
    kinds = {}
    for rec in records:
        entry = kinds.setdefault(rec.kind, [[], 0])
        entry[0].append(rec.seconds)
        entry[1] += not rec.ok
    for kind, (lat, failed) in kinds.items():
        print(f"op {kind:9s} n={len(lat):5d} failed={failed:4d} "
              f"p50={statistics.median(lat):.6f}s max={max(lat):.6f}s")
    for rec in records:
        if rec.failure is not None:
            print("FAIL " + json.dumps(rec.failure))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diskflow" / "__init__.py").is_file():
        print(f"error: diskflow sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import_s, inputs_s, sp, ctx = _timed_setup(args.workload, args.seed)
    samples = [{"import_s": import_s, "inputs_s": inputs_s}]
    samples += _setup_samples(args.workload, args.seed)
    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in samples)
    print(f"workload {args.workload} seed {args.seed} generators {sp['ids']}")
    print("setup samples " + " ".join(
        f"{s['import_s'] + s['inputs_s']:.4f}s" for s in samples))

    if args.trace:
        import tracer

        passes = TRACE_PASSES[args.workload]
        _, untraced_s, _ = _run_passes(sp, ctx, passes)
        trace = tracer.Tracer()
        with trace:
            # set-up again under the tracer so the models count their f-evals
            ctx = workloads.setup(sp)
            records, traced_s, planted_ok = _run_passes(
                sp, ctx, passes, paused=trace.paused)
        metrics = trace.metrics()
        for key in ("import_s", "inputs_s"):
            metrics[f"setup.{key}"] = {
                "value": statistics.median(s[key] for s in samples), "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        print(f"traced {passes} pass(es): {traced_s:.4f}s, untraced {untraced_s:.4f}s")
        print("counts " + json.dumps(trace.counts(), sort_keys=True))
    else:
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        with Speed() as speed:
            records, busy, planted_ok = _run_passes(sp, ctx, passes, speed=speed)
        attempted = len(records)
        # passes have equal size; the median pass rate shrugs off a pass
        # slowed by other load on the machine
        per_pass = {}
        for rec in records:
            count, refs = per_pass.get(rec.pass_index, (0, 0.0))
            per_pass[rec.pass_index] = (count + 1, refs + rec.refs)
        throughput = statistics.median(1000.0 * n / refs for n, refs in per_pass.values())
        refs = [rec.refs for rec in records]
        seconds = [rec.seconds for rec in records]
        digits = [d for rec in records if rec.pass_index == 0 for d in rec.digits]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "throughput_ops_kref": {"value": throughput, "unit": "1/kref"},
            "latency_p50_ref": {"value": _quantile(refs, 5), "unit": "ref"},
            "latency_p90_ref": {"value": _quantile(refs, 9), "unit": "ref"},
            "ok_ratio": {"value": sum(rec.ok for rec in records) / attempted, "unit": "ratio"},
            "accuracy_digits_p50": {"value": statistics.median(digits), "unit": "digits"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"{attempted} operations in {passes} pass(es), {busy:.4f}s of calls ({attempted / busy:.4f}/s, "
              f"p50 {_quantile(seconds, 5):.6f}s, p90 {_quantile(seconds, 9):.6f}s); "
              f"latency samples {attempted}; graded digits in pass 0: {len(digits)}")

    _print_summary(records)
    attempted = len(records)
    failed = sum(not rec.ok for rec in records)
    crashed = sum(rec.crashed for rec in records)
    print(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted}); "
          f"crashes {crashed}; planted wrong answer flagged: {planted_ok}")
    result = {
        "correct": crashed == 0 and planted_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
