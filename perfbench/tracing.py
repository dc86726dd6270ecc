"""Spans and counts at relsyn's layer boundaries, for the traced run.

A :class:`Tracer` replaces each function in `LAYERS` by a wrapper in every
relsyn module that binds it (``from ... import`` copies the function into
the caller's namespace, so ``relsyn.solver.fir_compose`` is wrapped as
well as ``relsyn.lti.fir_compose``), records one span per call in memory
and restores the originals on exit.  A span is (name, start, end, parent,
op); its self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict


def _count_calls(counts, args, kwargs, out):
    counts["lti.fir_compose.calls"] += 1


def _count_taps(counts, args, kwargs, out):
    counts["lti.markov.taps"] += out.taps.shape[0]


def _count_lstsq(counts, args, kwargs, out):
    rows, cols = getattr(args[0], "shape", (0, 0))
    # the largest system of the round, which sets the memory it needs
    if rows * cols >= counts["solver.least_squares.a_rows"] * counts["solver.least_squares.a_cols"]:
        counts["solver.least_squares.a_rows"] = rows
        counts["solver.least_squares.a_cols"] = cols
        counts["solver.least_squares.a_mb"] = rows * cols * 8 / 2**20


def _count_horizon(counts, args, kwargs, out):
    counts["solver.horizon_obj"] += args[0].horizon_obj


def _count_qi(counts, args, kwargs, out):
    s, g = args[0], args[1]
    counts["structure.qi_certificate.elems"] += s.rows * s.cols * g.cols * g.rows


def _count_steps(counts, args, kwargs, out):
    counts["bench.simulate_closed_loop.steps"] += out.steps_completed


#: (span name, defining module, function, counter).  Several functions may
#: share a span name; solve and solve_ring_circulant are both "solver.self".
LAYERS = (
    ("lti.fir_compose", "relsyn.lti", "fir_compose", _count_calls),
    ("lti.markov", "relsyn.lti", "markov", _count_taps),
    ("lti.fir_lft", "relsyn.lti", "fir_lft", None),
    ("solver.least_squares", "relsyn.solver", "least_squares", _count_lstsq),
    ("solver.self", "relsyn.solver", "solve", _count_horizon),
    ("solver.self", "relsyn.solver", "solve_ring_circulant", None),
    ("solver.recovered_r_fir", "relsyn.solver", "recovered_r_fir", None),
    ("youla.make_t_systems", "relsyn.youla", "make_t_systems", None),
    ("youla.r_from_q", "relsyn.youla", "r_from_q", None),
    ("measurement.validate_c2", "relsyn.measurement", "validate_c2", None),
    ("measurement.recover_controller", "relsyn.measurement", "recover_controller", None),
    ("structure.compile_constraints", "relsyn.structure", "compile_constraints", None),
    ("structure.membership", "relsyn.structure", "membership", None),
    ("structure.qi_certificate", "relsyn.structure", "qi_certificate", _count_qi),
    (
        "structure.delay_structure_from_adjacency",
        "relsyn.structure",
        "delay_structure_from_adjacency",
        None,
    ),
    ("bench.simulate_closed_loop", "relsyn.bench", "simulate_closed_loop", _count_steps),
)

#: Functions counted without a span of their own, so that their time stays
#: in the caller's self time (circulant_reduce runs inside solve_ring_circulant).
COUNTED_ONLY = (("relsyn.solver", "circulant_reduce", _count_horizon),)

#: Layers whose peak traced allocation is reported.
MEMORY_LAYERS = ("structure.qi_certificate",)

#: Every per-layer metric, in report order, with its unit.
METRICS = tuple(
    [(f"{name}.s", "s") for name in dict.fromkeys(layer[0] for layer in LAYERS)]
    + [
        ("lti.fir_compose.calls", "count"),
        ("lti.markov.taps", "count"),
        ("solver.horizon_obj", "count"),
        ("solver.least_squares.a_rows", "count"),
        ("solver.least_squares.a_cols", "count"),
        ("solver.least_squares.a_mb", "MB"),
        ("structure.qi_certificate.elems", "count"),
        ("structure.qi_certificate.peak_mb", "MB"),
        ("bench.simulate_closed_loop.steps", "count"),
    ]
)


class Tracer:
    """Records spans and counts while installed (use as a context manager).

    `round` and `op` tag what is recorded; the runner sets them before
    each operation.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, round, op]
        self.counts = defaultdict(lambda: defaultdict(float))  # round -> name -> value
        self.round = 0
        self.op = 0
        self._stack = []
        self._undo = []

    def span(self, name, fn, *args, counter=None, memory=False, **kwargs):
        """Call fn under a span named `name`."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.round, self.op])
        self._stack.append(idx)
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()
            self.spans[idx][1:3] = start, end
        counts = self.counts[self.round]
        if memory:
            key = f"{name}.peak_mb"
            counts[key] = max(counts[key], peak)
        if counter is not None:
            counter(counts, args, kwargs, out)
        return out

    def _wrapper(self, name, fn, counter):
        memory = name in MEMORY_LAYERS

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counter=counter, memory=memory, **kwargs)

        return traced

    def _counted(self, fn, counter):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counter(self.counts[self.round], args, kwargs, out)
            return out

        return counted

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "relsyn" or k.startswith("relsyn.")]
        wrappers = [
            (getattr(sys.modules[mod], fn), self._wrapper(name, getattr(sys.modules[mod], fn), counter))
            for name, mod, fn, counter in LAYERS
        ] + [
            (getattr(sys.modules[mod], fn), self._counted(getattr(sys.modules[mod], fn), counter))
            for mod, fn, counter in COUNTED_ONLY
        ]
        for original, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False

    def self_times(self):
        """Per round, the summed self time of each span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, rnd, _), child in zip(self.spans, covered):
            out[rnd][name] += end - start - child
        return out

    def round_metrics(self, rnd) -> dict:
        """Every metric of METRICS for one traced round (0 when unused)."""
        times = self.self_times()[rnd]
        counts = self.counts[rnd]
        values = {}
        for metric, unit in METRICS:
            if unit == "s":
                values[metric] = times.get(metric[: -len(".s")], 0.0)
            else:
                values[metric] = counts.get(metric, 0.0)
        return values

    def dump(self, path: str) -> None:
        """Write every span as JSON: name, start, end, parent, round, op."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "round", "op"], "spans": self.spans},
                fh,
            )
