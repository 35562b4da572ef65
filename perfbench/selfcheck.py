"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload trajectories] [--seed 7]

1. The references: each closed form satisfies h' = -1/f and h(0) = 0 at
   30 digits (mpmath differentiation), and the bfid-hyp conjugator's
   inverse round-trips.
2. The grader: a planted wrong answer of every plantable kind is rejected.
3. The trace: call, f-eval and step counts are identical across two
   traced runs of the same pass with the same seed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PROBES = (0.3 + 0.2j, -0.6 + 0.1j, 0.1 - 0.8j, 0.97 + 0.01j)


def check_references() -> list:
    from diskflow import catalog

    problems = []
    ids = ["parabolic-auto(-0.7)", "hyperbolic-auto(0.6,-0.4)", "power(0.5,1.2-0.3*i)",
           "quadrant", "bfid-par", "perturbed-parabolic", "no-halfplane"]
    for cid in ids:
        gen = workloads.generator(cid)
        h, f = gen.h_oracle(), oracle.mp_function(gen.f_text)
        if abs(h(0)) > 1e-25:
            problems.append(f"{cid}: h_ref(0) = {h(0)}")
        for z in PROBES:
            zm = oracle.to_mp(z)
            deriv = mpmath.diff(h.mp, zm)
            mismatch = abs(deriv * f(z) + 1)
            if mismatch > 1e-20:
                problems.append(f"{cid}: |h' f + 1| = {mismatch} at {z}")
    phi = oracle.mp_function(catalog.get("bfid-hyp").phi_text)
    for z in PROBES:
        back = complex(oracle.bfid_hyp_phi_inverse(complex(phi(z))))
        if abs(back - z) > 1e-12:
            problems.append(f"bfid-hyp phi inverse: {back} != {z}")
    return problems


def check_planted(seed: int) -> list:
    problems = []
    samples = {"trajectories": ("trace",), "linearizer": ("h", "invert"), "bfid": ("bfid",)}
    for workload, kinds in samples.items():
        sp = workloads.spec(workload, seed)
        if workload == "bfid":
            # the cheapest generator with a certificate to drop
            sp["bfid"] = [cid for cid in sp["bfid"] if cid.startswith("parabolic")]
            sp["ids"], sp["conjugate"] = sp["bfid"], []
        ctx = workloads.setup(sp)
        todo = set(kinds)
        for op in workloads.ops(sp, ctx, 0):
            if op.kind not in todo:
                continue
            verdict = workloads.planted_wrong_answer_flagged(op, op.call())
            if verdict is None:
                continue
            todo.discard(op.kind)
            if not verdict:
                problems.append(f"{workload}: planted wrong {op.kind} answer was accepted")
            if not todo:
                break
        problems.extend(f"{workload}: nothing to plant for {k}" for k in todo)
    return problems


def check_counts(workload: str, seed: int) -> list:
    sp = workloads.spec(workload, seed)
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        with trace:
            ctx = workloads.setup(sp)
            run._run_passes(sp, ctx, passes=1, paused=trace.paused)
        counts.append(trace.counts())
    first, second = counts
    return [f"{key}: {first.get(key)} != {second.get(key)}"
            for key in sorted(set(first) | set(second)) if first.get(key) != second.get(key)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trajectories", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failed = False
    for name, problems in (("references", check_references()),
                           ("planted wrong answers", check_planted(args.seed)),
                           (f"trace counts ({args.workload})",
                            check_counts(args.workload, args.seed))):
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print("  " + line)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
