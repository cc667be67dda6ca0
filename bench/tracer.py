"""Spans around the public functions of each boxlab layer.

A wrapper replaces every module's own binding of a function (for example
``sphere.random_unitary``, ``games.bell_box`` and ``cli.bell_box`` all point
at one wrapper of ``quantum.bell_box``).  Each call records a span in memory:
name, start, end, parent span, the benchmark operation it ran under, and its
self time, which is its duration minus the time its child spans cover.
Counters are recorded at the same boundaries.  ``span_cost`` measures what
one wrapper adds to a call, which gives the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import refclock

import boxlab
from boxlab import analysis, boxes, cli, games, protocols, quantum, sphere

MODULES = (boxlab, boxes, quantum, games, protocols, analysis, sphere, cli,
           sys.modules["boxlab.acceptance"])


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _family_counts(args, kwargs, result):
    target, k = args[0], args[1]
    al = protocols.Alphabets(2, 2, 2, 2, *target.table.shape)
    ks = range(k + 1) if kwargs.get("up_to_k") else (k,)
    return {"protocols.protocols_covered":
            sum(protocols.count_protocols(al, kk) for kk in ks),
            "protocols.lines_distinct": len(result)}


def _written(args, kwargs, result):
    argv = list(args[0])
    if result != 0 or "--out" not in argv:
        return {}
    return {"cli.bytes_written": os.path.getsize(argv[argv.index("--out") + 1])}


# (module, function, counters a call adds, gauges whose largest value is kept)
WRAPPED = [
    (protocols, "affine_family", _family_counts, None),
    (protocols, "affine_of", None, None),
    (protocols, "induced_box", None, None),
    (protocols, "check_reduction", None, None),
    (analysis, "find_hard_p", None,
     lambda a, kw, r: {"analysis.find_hard_p.matrix_mb":
                       len(r.family) * r.resolution * 8 / 1e6}),
    (analysis, "line_intersections", None, None),
    (analysis, "measure_near", None, None),
    (analysis, "epsilon_schedule", None, None),
    (sphere, "build_cover", lambda a, kw, r: {"sphere.cover_points": r.size},
     None),
    (sphere, "audit_cover", lambda a, kw, r: {
        "sphere.audit_cover.probes": _argument(a, kw, 1, "n_probes")}, None),
    (sphere, "discretized_box", None, lambda a, kw, r: {
        "sphere.discretized_box.table_mb": r.table.size * 8 / 1e6}),
    (sphere, "verify_reduction", lambda a, kw, r: {
        "sphere.verify_reduction.trials": _argument(a, kw, 1, "trials")}, None),
    (sphere, "reduce_measurement", None, None),
    (quantum, "bell_box", lambda a, kw, r: {
        "quantum.bell_box.pairs": a[0].x_size * a[0].y_size}, None),
    (quantum, "random_unitary", None, None),
    (quantum, "singlet_measure_box", None, None),
    (games, "optimal_strategy", None, None),
    (games, "win_prob", None, None),
    (boxes, "sample", None, None),
    (boxes, "box_to_json", None, None),
    (boxes, "box_from_json", None, None),
    (cli, "main", _written, None),
    (cli, "build_parser", None, None),
]

# per-layer metrics of one round; busy_s is self time in reference-seconds
BUSY = ["%s.%s" % (m.__name__.split(".")[-1], f) for m, f, _, _ in WRAPPED]
COUNTED = ["protocols.affine_family", "protocols.induced_box",
           "analysis.find_hard_p", "boxes.sample", "cli.main"]
LAYER_METRICS = ([(name + ".busy_s", "s") for name in BUSY]
                 + [(name + ".calls", "count") for name in COUNTED] + [
    ("protocols.protocols_covered", "count"),
    ("protocols.lines_distinct", "count"),
    ("protocols.lines_per_protocol", "ratio"),
    ("analysis.find_hard_p.matrix_mb", "MB"),
    ("sphere.build_cover.retries", "count"),
    ("sphere.audit_cover.probes", "count"),
    ("sphere.cover_points", "count"),
    ("sphere.discretized_box.table_mb", "MB"),
    ("sphere.verify_reduction.trials", "count"),
    ("quantum.bell_box.pairs", "count"),
    ("cli.bytes_written", "B"),
    ("setup.import_boxlab_s", "s"),
    ("setup.import_scipy_spatial_s", "s"),
    ("trace.overhead_s", "s"),
])


class Tracer:
    """Installs the wrappers and keeps spans and counters in memory."""

    def __init__(self):
        self.spans: list = []        # (id, name, start, end, parent, op, self_s)
        self.counts: Counter = Counter()
        self.gauges: dict = defaultdict(float)
        self.op = None               # benchmark operation now running
        self._stack: list = []       # [span id, name, time covered by children]
        self._ids = itertools.count()
        self._undo: list = []

    def _wrap(self, name, fn, count, gauge):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else (None, None, 0.0)
            frame = [next(self._ids), name, 0.0]
            self._stack.append(frame)
            self.counts[name + ".calls"] += 1
            if name == "sphere.audit_cover" and parent[1] == "sphere.build_cover":
                self.counts["sphere.build_cover.audits"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += end - start
                self.spans.append((frame[0], name, start, end, parent[0],
                                   self.op, end - start - frame[2]))
            if count:
                self.counts.update(count(args, kwargs, result))
            if gauge:
                for key, value in gauge(args, kwargs, result).items():
                    self.gauges[key] = max(self.gauges[key], value)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, count, gauge in WRAPPED:
            original = getattr(module, attr)
            name = "%s.%s" % (module.__name__.split(".")[-1], attr)
            wrapper = self._wrap(name, original, count, gauge)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo = []

    def take_counts(self) -> Counter:
        """Counters since the last call, for one round."""
        counts, self.counts = self.counts, Counter()
        counts["sphere.build_cover.retries"] = (
            counts.pop("sphere.build_cover.audits", 0)
            - counts["sphere.build_cover.calls"])
        return counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op", "self_s"),
                    span))) + "\n")


def span_cost(calls: int = 5000, reps: int = 5) -> float:
    """Reference-seconds that one wrapper adds to a call: ``calls`` calls of
    a wrapped no-op less as many of the bare no-op, between two reference
    bursts; the median over ``reps`` repetitions.  Counter callbacks are not
    included."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None, None)
    costs = []
    for _ in range(reps):
        before = refclock.burst()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        factor = refclock.scale(before, refclock.burst())
        costs.append(((t2 - t1) - (t1 - t0)) / calls * factor)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, round_counts: list, round_of_op: dict,
                  scales: list) -> dict:
    """Per-round layer metrics: median busy time, counts that repeat exactly."""
    if any(c != round_counts[0] for c in round_counts):
        raise RuntimeError("layer counts differ between identical rounds")
    busy = defaultdict(lambda: [0.0] * len(round_counts))
    for _, name, _, _, _, op, self_s in tracer.spans:
        busy[name][round_of_op[op]] += self_s * scales[op]
    counts = round_counts[0]
    out = {}
    for key, _ in LAYER_METRICS:
        if key.endswith(".busy_s"):
            out[key] = float(statistics.median(busy[key[:-len(".busy_s")]]))
        elif key in tracer.gauges:
            out[key] = tracer.gauges[key]
        elif not key.startswith(("setup.", "trace.")):
            out[key] = counts.get(key, 0)
    covered = out["protocols.protocols_covered"]
    out["protocols.lines_per_protocol"] = (
        out["protocols.lines_distinct"] / covered if covered else 0.0)
    for key in ("analysis.find_hard_p.matrix_mb", "sphere.discretized_box.table_mb"):
        out[key] = float(out[key])
    return out
