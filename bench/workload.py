"""Run one workload in this fresh interpreter.

Prints ``READY`` once boxlab is imported and the inputs are generated.
Unless ``--setup-only`` is given, it then waits for a line on stdin, runs
whole rounds of the workload's operations until ``--seconds`` have passed
(at least MIN_ROUNDS), checks the outputs, and prints ``RESULT <json>``.
With ``--trace 1`` every round runs under the tracer's wrappers.
bench/run.py starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import checks
import refclock

MIN_ROUNDS = 3


def run_rounds(module, state, seconds, min_rounds, timer, tracer=None):
    """Whole rounds until ``seconds`` pass; returns per-round data.

    An operation fails if it raises, or if its record raises
    checks.KnownFault.  The first round's outputs are checked after the last
    round, and peak memory is read before that, so that the checks' own
    arrays do not count in it.
    """
    rounds, raw, fails, round_counts, round_of_op = [], [], [], [], {}
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        slots, records = [], {}
        for name, run, record in module.ops(state):
            if tracer:
                tracer.op = len(timer.raw)
            slot, result, error = timer.measure(run)
            slots.append(slot)
            round_of_op[slot] = len(rounds)
            attempted += 1
            if error is None:
                try:
                    records[name] = record(result)
                except checks.KnownFault as exc:
                    error = exc
            if error is not None:
                failed += 1
                records[name] = None
                if first is None:
                    print("failed %s: %s: %s" % (name, type(error).__name__,
                                                 error), file=sys.stderr)
        timer.flush()
        rounds.append([timer.ref_seconds(s) for s in slots])
        raw.append([timer.raw[s] for s in slots])
        if tracer:
            round_counts.append(tracer.take_counts())
        if first is None:
            first = records
        else:
            fails += ["%s: output differs on a repeat" % name
                      for name in records if records[name] != first[name]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    fails = module.check(state, first) + fails
    return {"rounds": rounds, "raw": raw, "fails": fails, "attempted": attempted,
            "failed": failed, "round_counts": round_counts,
            "round_of_op": round_of_op, "peak_rss_mb": peak_rss_mb}


def summarize(rounds) -> dict:
    """The typical round: each operation's median over rounds."""
    per_op = np.median(np.asarray(rounds), axis=0)
    p50, p90 = np.percentile(per_op, [50, 90])
    return {"run_s": float(per_op.sum()), "op_p50_s": float(p50),
            "op_p90_s": float(p90)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    module = importlib.import_module(args.workload)   # imports boxlab
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.outdir)
    try:
        state = module.setup(args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        sys.stdin.readline()
        timer = refclock.RefTimer()
        if not args.trace:
            res = run_rounds(module, state, args.seconds, MIN_ROUNDS, timer)
            metrics = summarize(res["rounds"])
            metrics["peak_rss_mb"] = res["peak_rss_mb"]
            units = {"peak_rss_mb": "MB"}
        else:
            import tracer as tracing
            tr = tracing.Tracer()
            tr.install()
            res = run_rounds(module, state, args.seconds, MIN_ROUNDS, timer, tr)
            tr.uninstall()
            metrics = tracing.layer_metrics(tr, res["round_counts"],
                                            res["round_of_op"], timer.scales)
            metrics["trace.overhead_s"] = (len(tr.spans) / len(res["rounds"])
                                           * tracing.span_cost())
            tr.write(os.path.join(args.outdir, "trace-%s-%d.jsonl"
                                  % (args.workload, args.seed)))
            units = dict(tracing.LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units.get(k, "s")}
                   for k, v in metrics.items()}
        for f in res["fails"][:20]:
            print("CHECK FAILED " + f, file=sys.stderr)
        print("RESULT " + json.dumps({
            "correct": not res["fails"], "attempted": res["attempted"],
            "failed": res["failed"], "rounds": len(res["rounds"]),
            "metrics": metrics, "raw": summarize(res["raw"])}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
