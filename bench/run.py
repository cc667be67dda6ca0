"""boxlab benchmark: gap_scan, cover_pipeline and cli_session, timed in
reference-seconds (see refclock.py and README.md).

    python3 bench/run.py                        # all three workloads
    python3 bench/run.py --workload gap_scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload gap_scan --trace 1      # per-layer metrics
    python3 bench/run.py --workload cli_session --steady 10  # spread vs bounds

Each workload runs in its own fresh interpreter (bench/workload.py), one
process with no extra threads, started from the checkout root with src/ on
its path.  A run lasts --seconds, by default BENCHMARK.json's run_seconds.
The last line of standard output is one JSON object: with --workload it has
the keys correct, attempted, failed and metrics; without, it maps each
workload's name to such an object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gap_scan", "cover_pipeline", "cli_session")
SETUPS = 7            # fresh interpreters timed per run; setup_s is their median
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _start(workload, seed, seconds, trace, setup_only, stderr):
    """Start a workload interpreter; returns (process, raw setup s, burst)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--outdir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    before = refclock.burst()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=stderr, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    raw = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError("%s did not finish its set-up" % workload)
    return proc, raw, before


def _import_times(text: str) -> dict:
    """Cumulative import times of boxlab and scipy.spatial from -X importtime;
    other lines are passed on to stderr."""
    found = {"boxlab": 0.0, "scipy.spatial": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            print(line, file=sys.stderr)
            continue
        fields = line.split("|")
        name = fields[-1].strip()
        if name in found:
            found[name] = int(fields[1]) * 1e-6
    return found


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Time SETUPS set-ups, run the workload once, return the result object."""
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + TIMEOUT_S
    setups, raws, imports = [], [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        # a traced child's stderr carries its -X importtime report
        with (tempfile.TemporaryFile("w+", dir=OUT) if trace
              else contextlib.nullcontext()) as err:
            proc, raw, before = _start(workload, seed, seconds, trace,
                                       not last, err)
            try:
                if last:
                    after = refclock.burst()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                    out, _ = proc.communicate(
                        timeout=max(10.0, deadline - time.perf_counter()))
                else:
                    proc.stdin.close()
                    proc.wait(timeout=max(10.0, deadline - time.perf_counter()))
                    after = refclock.burst()
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("%s ran out of time" % workload)
            factor = refclock.scale(before, after)
            setups.append(raw * factor)
            raws.append(raw)
            if trace:
                err.seek(0)
                imports.append({k: v * factor
                                for k, v in _import_times(err.read()).items()})
    last_line = (out.strip().splitlines() or [""])[-1]
    if proc.returncode != 0 or not last_line.startswith("RESULT "):
        raise BenchError("%s exited with status %d" % (workload, proc.returncode))
    child = json.loads(last_line[len("RESULT "):])
    metrics = child["metrics"]
    if trace:
        for key, name in (("setup.import_boxlab_s", "boxlab"),
                          ("setup.import_scipy_spatial_s", "scipy.spatial")):
            metrics[key] = {"value": statistics.median(i[name] for i in imports),
                            "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for key, value in child["raw"].items():
        print("%s raw %s = %.4f s" % (workload, key, value), file=sys.stderr)
    print("%s rounds = %d, raw setup_s = %.4f s" % (
        workload, child["rounds"], statistics.median(raws)), file=sys.stderr)
    return {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def _spec() -> dict:
    """BENCHMARK.json: run length and bounds; {} where there is none."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def steady(workload: str, seed: int, seconds: float, runs: int) -> dict:
    """Rerun one workload with seeds seed..seed+runs-1; print each metric's
    median, quartiles and spread (q3 - q1) / median next to its bound."""
    results = [run_workload(workload, seed + i, seconds, 0) for i in range(runs)]
    bounds = {m["name"]: m["bound"] for m in _spec().get("end_to_end", [])}
    summary = {"workload": workload, "runs": runs, "metrics": {},
               "correct": all(r["correct"] for r in results),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in results})}
    print("%-14s %10s %10s %10s %8s %6s" % ("metric", "q1", "median", "q3",
                                            "spread", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {"values": values, "q1": q1, "median": med,
                                    "q3": q3, "spread": spread,
                                    "bound": bounds.get(name)}
        print("%-14s %10.5g %10.5g %10.5g %8.3f %6s" % (
            name, q1, med, q3, spread, bounds.get(name, "-")))
    print("failed share per run: %s; all correct: %s"
          % (summary["failed_share"], summary["correct"]))
    (OUT / ("steady-%s.json" % workload)).write_text(json.dumps(summary, indent=1))
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="length of a run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="rerun the workload N times and report the spread")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = _spec().get("run_seconds")
        if args.seconds is None:
            ap.error("--seconds is needed where BENCHMARK.json is missing")
    if not (ROOT / "src" / "boxlab" / "__init__.py").is_file():
        print("error: no boxlab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        if args.steady:
            if not args.workload or args.steady < 2:
                ap.error("--steady needs --workload and N >= 2")
            steady(args.workload, args.seed, args.seconds, args.steady)
            return 0
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed,
                                          args.seconds, args.trace)))
            return 0
        results = {}
        for name in WORKLOADS:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            res = results[name]
            print("%s: attempted %d, failed %d, correct %s" % (
                name, res["attempted"], res["failed"], res["correct"]))
            for key, m in res["metrics"].items():
                print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
