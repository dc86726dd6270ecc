#!/usr/bin/env python3
"""Benchmark of relsyn: one workload per process, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring_sweep --seed 1 --seconds 35 --trace 0

The workload's fixed list of operations runs in whole rounds until the
next round would end after `--seconds`.  Every output is checked against
computations made with numpy and scipy outside relsyn (perfbench/checks.py).
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The traced run
times its first half untraced and its second half traced, reports the
difference as the tracing overhead and writes its spans to
perfbench/out/.  Set-up is timed in child processes started with
`--setup-probe`, spread over the run.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from functools import partial

# One BLAS/OpenMP thread and one sweep worker, fixed here and not in the
# program: set before numpy loads, whatever the caller's environment says.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["RELSYN_WORKERS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run, each in a fresh process, taken at even steps of the
#: measured time; setup_s is their median.
SETUPS = 5


def import_relsyn() -> None:
    """Import relsyn from this checkout's src/ and nowhere else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import relsyn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import relsyn from {SRC}: {exc}")
    if not os.path.abspath(relsyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: relsyn was imported from {relsyn.__file__}, not from {SRC}")


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def fingerprint(obj) -> str:
    """Hash of a digest: dicts, sequences, numpy arrays and scalars."""
    import numpy as np

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, dict):
            for k in sorted(o):
                h.update(repr(k).encode())
                feed(o[k])
        elif isinstance(o, (tuple, list)):
            h.update(b"(")
            for v in o:
                feed(v)
            h.update(b")")
        elif isinstance(o, np.ndarray):
            h.update(repr((o.shape, o.dtype.str)).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


class Raised:
    """Digest of an operation that raised instead of returning."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text!r})"


class Outcomes:
    """Every attempted operation, keyed by (op index, output fingerprint).

    Outputs repeat from round to round, so each distinct output is
    checked once, after the timed rounds.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempts = []
        self.digests = {}

    def add(self, i: int, out) -> None:
        digest = Raised(out) if isinstance(out, Exception) else self.ops[i].digest(out)
        key = (i, fingerprint(digest))
        self.digests.setdefault(key, digest)
        self.attempts.append(key)

    def check(self):
        """Returns (attempted, failed, unexpected failures by label)."""
        verdicts = {}
        for (i, fp), digest in self.digests.items():
            if isinstance(digest, Raised):
                verdicts[(i, fp)] = [f"raised {digest.text}"]
            else:
                verdicts[(i, fp)] = self.ops[i].check(digest)
        failed = sum(1 for key in self.attempts if verdicts[key])
        unexpected = {
            self.ops[i].label: problems
            for (i, _), problems in verdicts.items()
            if unexplained(self.ops[i], problems)
        }
        return len(self.attempts), failed, unexpected


def unexplained(op, problems) -> list:
    """The problems of an operation that its named fault does not cause."""
    return [p for p in problems if not p.startswith(op.tolerated)]


def run_round(ops, outcomes, tracer=None, rnd=0):
    """One pass over the operations; returns their times."""
    times = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.round, tracer.op = rnd, i
        start = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.span("op", op.run)
        except Exception as exc:  # counted as a failed operation
            out = exc
        times.append(time.perf_counter() - start)
        outcomes.add(i, out)
    return times


def run_rounds(ops, outcomes, seconds, tracer=None, first_round=0, between=None):
    """Whole rounds, at least one, until the next would take the measured
    time past `seconds`.  `between(measured)` runs before each round.

    Returns [(round index, op times)]; a round's wall time is the sum of
    its op times, so digesting outputs between operations is not timed.
    """
    rounds = []
    measured = 0.0
    while True:
        if between is not None:
            between(measured)
        rnd = first_round + len(rounds)
        if tracer is None:
            times = run_round(ops, outcomes)
        else:
            with tracer:
                times = run_round(ops, outcomes, tracer, rnd)
        rounds.append((rnd, times))
        measured += sum(times)
        if measured + sum(times) > seconds:
            return rounds


def mean_round(rounds) -> float:
    return sum(sum(t) for _, t in rounds) / len(rounds)


def op_median(rounds) -> float:
    """Median over the operations of each one's median time over the
    rounds.  Taken per operation first, so that one operation timed in
    a slow stretch of the host does not move the median by itself."""
    return median([median(times) for times in zip(*(t for _, t in rounds))])


def end_to_end(ops, outcomes, seconds, probe) -> dict:
    """The end-to-end metrics.  Set-up probe k runs before the first round
    that starts after k / SETUPS of `seconds` of measured time, so the
    probes sample the host over the whole run, not one stretch of it."""
    setups = []

    def take_due(measured):
        while len(setups) < SETUPS and len(setups) * seconds / SETUPS <= measured:
            setups.append(probe())

    rounds = run_rounds(ops, outcomes, seconds, between=take_due)
    take_due(math.inf)
    print("round times: " + " ".join(f"{sum(t):.4f}" for _, t in rounds))
    print("set-up times: " + " ".join(f"{t:.4f}" for t in setups))
    return {
        "wall_s": (mean_round(rounds), "s"),
        "op_s_p50": (op_median(rounds), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, outcomes, seconds, span_path) -> dict:
    from tracing import METRICS, Tracer

    plain = run_rounds(ops, outcomes, seconds / 2)
    tracer = Tracer()
    traced = run_rounds(ops, outcomes, seconds / 2, tracer, first_round=len(plain))
    rounds = [tracer.round_metrics(rnd) for rnd, _ in traced]
    metrics = {m: (median([r[m] for r in rounds]), unit) for m, unit in METRICS}
    metrics["trace.overhead_s"] = (mean_round(traced) - mean_round(plain), "s")
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(span_path)
    return metrics


def setup_time(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the
    workload's set-up (imports, inputs, warm-up), measured in a child
    process against this process's monotonic clock."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-probe", repr(start)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(child.stdout.split()[-1])


def main(argv=None) -> int:
    import_relsyn()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="relsyn benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - args.setup_probe)
        return 0
    if args.trace:
        ops = WORKLOADS[args.workload](args.seed)
        outcomes = Outcomes(ops)
        span_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(ops, outcomes, args.seconds, span_path)
    else:
        ops = WORKLOADS[args.workload](args.seed)
        outcomes = Outcomes(ops)
        probe = partial(setup_time, args.workload, args.seed)
        metrics = end_to_end(ops, outcomes, args.seconds, probe)

    attempted, failed, unexpected = outcomes.check()
    for label, problems in unexpected.items():
        print(f"unexpected failure, {label}: {'; '.join(problems)}", file=sys.stderr)
    print(
        f"{args.workload}: {attempted} operations attempted, {failed} failed, "
        f"{sum(bool(op.tolerated) for op in ops)} per round from named faults"
    )
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
