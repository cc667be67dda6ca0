"""cli_session: README commands through boxlab.cli.main(argv) in one process.

Each command writes an --out file; the command list repeats every round, so
each repeat must write the same bytes.  The CLI layer (argparse, JSON emit,
atomic writes) and single-protocol calls into protocols, analysis and games
dominate: the per-call counterpart of gap_scan's batch enumeration.

A few fixed commands, the same for every seed, show known faults of boxlab
and fail on every run; each stays in the workload, counted as failed, until
its fault is mended:

* two `--box file:PATH` commands read a `box show` output, and
  cli._parse_box hands its {config, result, version} envelope to
  boxes.box_from_json (KeyError: 'x_size');
* `game optimize` at STALL_P, where games.optimal_strategy stalls short of
  omega by more than 1e-6;
* `analysis intersections` on lines that cross omega once at CROSS_P1, which
  line_intersections reports as the same root twice.

A fixed command whose output fails its check raises checks.KnownFault from
its record, so it counts as failed rather than as a check failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import checks
from boxlab import cli

SAMPLE_N = 300
VERIFY_TRIALS = 150
COVER_EPS = (0.5, 0.4, 0.3)
PROBES = 20_000
STALL_P = (0.96, 0.975, 0.99)
CROSS_P1 = (0.875, 0.9, 0.95)


def _write_box(path: str, table) -> None:
    """A bare box file in the box_to_json layout."""
    x, y, a, b = table.shape
    payload = {"x_size": x, "y_size": y, "a_size": a, "b_size": b,
               "table": [[table[i, j].ravel().tolist() for j in range(y)]
                         for i in range(x)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _random_protocol(rng, k: int) -> dict:
    return {"alphabets": [2] * 8, "k": k,
            "q_maps": [rng.integers(0, 2, 2 * 2 ** i).tolist() for i in range(k)],
            "r_maps": [rng.integers(0, 2, 2 * 2 ** i).tolist() for i in range(k)],
            "s_map": rng.integers(0, 2, 2 * 2 ** k).tolist(),
            "t_map": rng.integers(0, 2, 2 * 2 ** k).tolist()}


def setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    uniform = lambda lo, hi: float(rng.uniform(lo, hi))
    octa = checks.octahedron_points()
    tables = {"pr": checks.pr_table(),
              "octahedron": checks.singlet_table(octa, octa)}
    while len(tables) < 4:              # two distinct local boxes
        f, g = rng.integers(0, 2, 2).tolist(), rng.integers(0, 2, 2).tolist()
        tables["local:%d,%d:%d,%d" % (*f, *g)] = checks.local_table(f, g)
    for i in range(3):
        path = os.path.join(workdir, "box%d.json" % i)
        tables["file:" + path] = checks.random_ns_table(rng, local_only=False)
        _write_box(path, tables["file:" + path])
    binary = [t for t in tables if t != "octahedron"]
    pick = lambda: binary[int(rng.integers(len(binary)))]

    cmds = []   # (kind, argv without --out, expectation)

    def add(kind, argv, **want):
        cmds.append((kind, argv, want))

    for token in tables:
        add("show", ["box", "show", "--box", token], box=token)
    for i in range(8):
        token, x, y = pick(), int(rng.integers(2)), int(rng.integers(2))
        fmt = ["--format", "csv"] if i < 2 else []
        add("sample", ["box", "sample", "--box", token, "--x", str(x),
                       "--y", str(y), "--n", str(SAMPLE_N),
                       "--seed", str(int(rng.integers(1 << 30)))] + fmt,
            box=token, x=x, y=y, csv=bool(fmt))
    for _ in range(8):
        a, b = pick(), pick()
        add("tv", ["box", "tv", "--box", a, "--other", b], box=a, other=b)
    for _ in range(8):
        token, p, q = pick(), uniform(0, 1), uniform(0, 1)
        add("eval", ["game", "eval", "--box", token, "--p", repr(p),
                     "--q", repr(q)], box=token, p=p, q=q)
    for _ in range(8):
        p = uniform(0, 1)
        add("omega", ["game", "omega", "--p", repr(p)], p=p)
    for _ in range(8):
        p = uniform(0.5, 1.0)
        q = uniform(0.5, 1.0 / (2.0 * p))
        add("bound", ["game", "bound", "--p", repr(p), "--q", repr(q)], p=p, q=q)
    for _ in range(4):
        # above p = 0.95 the optimizer stalls: see STALL_P
        p = uniform(0.5, 0.95)
        add("optimize", ["game", "optimize", "--p", repr(p)], p=p)
    targets = ["pr"] + [t for t in tables if t.startswith("file:")]
    for i in range(24):
        proto = _random_protocol(rng, 1 + i % 3)
        path = os.path.join(workdir, "protocol%d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(proto, fh)
        target, source = targets[i % len(targets)], pick()
        eps = uniform(0.0, 0.5)
        add("run", ["protocol", "run", "--protocol", path, "--target", target,
                    "--source", source, "--epsilon", repr(eps)],
            proto=proto, target=target, source=source, eps=eps)
    for k in (1, 2, 3):
        add("enumerate", ["protocol", "enumerate", "--binary", "--k", str(k),
                          "--count-only"], sizes=[2, 2, 2, 2], k=k)
    for _ in range(3):
        sizes = rng.integers(2, 4, 4).tolist()
        add("enumerate", ["protocol", "enumerate", "--x2", str(sizes[0]),
                          "--y2", str(sizes[1]), "--a2", str(sizes[2]),
                          "--b2", str(sizes[3]), "--k", "1", "--count-only"],
            sizes=sizes, k=1)
    add("family", ["protocol", "family", "--target", "pr", "--k", "1"])
    add("family", ["protocol", "family", "--target", "pr", "--k", "1",
                   "--up-to-k"])
    # Lines that cross omega once are reported twice for some crossings:
    # see CROSS_P1.
    for i in range(10):
        if i < 6:       # a chord: two roots, well inside (1/2, 1)
            p1 = uniform(0.55, 0.85)
            c, m = checks.chord(p1, uniform(p1 + 0.05, 0.95))
        else:           # a tangent lowered by 0.02: no root
            c, m = checks.tangent(uniform(0.55, 0.95))
            c -= 0.02
        add("intersections", ["analysis", "intersections", "--intercept",
                              repr(c), "--slope", repr(m)], c=c, m=m)
    for _ in range(10):
        eps = 10.0 ** uniform(-4.0, -2.0)
        c, m = checks.tangent(uniform(0.55, 0.8))
        c -= uniform(0.0, eps)
        add("measure", ["analysis", "measure", "--intercept", repr(c),
                        "--slope", repr(m), "--epsilon", repr(eps)],
            c=c, m=m, eps=eps)
    for k_max in (1, 2, 3, 4, 2, 3):
        c = uniform(1e-3, 0.1)
        add("schedule", ["analysis", "schedule", "--k-max", str(k_max),
                         "--c", repr(c)], k_max=k_max, c=c)
    for eps in COVER_EPS:
        path = os.path.join(workdir, "cover%g.json" % eps)
        add("cover_build", ["cover", "build", "--epsilon", repr(eps)],
            eps=eps, out=path)
    for eps in COVER_EPS:
        path = os.path.join(workdir, "cover%g.json" % eps)
        add("cover_verify", ["cover", "verify", "--cover", path, "--trials",
                             str(VERIFY_TRIALS), "--seed",
                             str(int(rng.integers(1 << 30)))], eps=eps)
    shown = os.path.join(workdir, "shown_pr.json")
    add("show", ["box", "show", "--box", "pr"], box="pr", out=shown)
    add("show", ["box", "show", "--box", "file:" + shown], box="pr")
    add("tv", ["box", "tv", "--box", "file:" + shown, "--other", "pr"],
        box="pr", other="pr")
    for p in STALL_P:
        add("optimize", ["game", "optimize", "--p", repr(p)], p=p, known=True)
    for p1 in CROSS_P1:          # slope omega'(p1) + 0.3 through (p1, omega(p1))
        m = checks.omega_prime(p1) + 0.3
        c = float(checks.omega(p1)) - m * p1
        add("intersections", ["analysis", "intersections", "--intercept",
                              repr(c), "--slope", repr(m)], c=c, m=m, known=True)

    for i, (kind, argv, want) in enumerate(cmds):
        argv += ["--out", want.pop("out", os.path.join(workdir, "out%03d" % i))]
    return {"cmds": cmds, "tables": tables, "seed": seed}


def _main(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError("exit status %d" % code)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _result(raw: bytes) -> dict:
    return json.loads(raw)["result"]


def _optimize_fails(w: dict, r: dict) -> list:
    om = float(checks.omega(w["p"]))
    if om - 1e-6 <= r["achieved"] <= om + 1e-9:
        return []
    return ["achieved %r, omega %r" % (r["achieved"], om)]


# checks of the kinds that have fixed known-fault commands
OUTPUT_CHECKS = {
    "optimize": _optimize_fails,
    "intersections": lambda w, r: checks.check_roots(w["c"], w["m"], r["roots"]),
}


def _record(kind: str, want: dict, path: str) -> bytes:
    raw = _read(path)
    if want.get("known"):
        fails = OUTPUT_CHECKS[kind](want, _result(raw))
        if fails:
            raise checks.KnownFault("; ".join(fails))
    return raw


def ops(state: dict) -> list:
    return [("%s:%d" % (kind, i), lambda argv=argv: _main(argv),
             lambda _, kind=kind, want=want, path=argv[-1]:
                 _record(kind, want, path))
            for i, (kind, argv, want) in enumerate(state["cmds"])]


def check(state: dict, records: dict) -> list:
    tables = state["tables"]
    rng = np.random.default_rng([state["seed"], 30])
    probes = checks.random_unit_vectors(rng, PROBES)
    covers = {}
    fails = []
    for i, (kind, argv, w) in enumerate(state["cmds"]):
        raw = records.get("%s:%d" % (kind, i))
        if raw is None:
            continue                     # failed; counted by the caller
        name = " ".join(argv[:2]) + " #%d" % i
        if kind == "sample" and w["csv"]:
            rows = list(csv.reader(io.StringIO(raw.decode().split("\n", 1)[1])))
            cells = [(int(a), int(b)) for _, a, b in rows[1:]]
            if len(cells) != SAMPLE_N or any(
                    tables[w["box"]][w["x"], w["y"], a, b] == 0.0 for a, b in cells):
                fails.append("%s: rows do not match the box" % name)
            continue
        r = _result(raw)
        if kind == "show":
            got = np.asarray(r["table"]).reshape(tables[w["box"]].shape)
            fails += checks.check_close(name, got, tables[w["box"]], 1e-15)
        elif kind == "sample":
            counts = np.asarray(r["counts"])
            if counts.sum() != SAMPLE_N:
                fails.append("%s: counts sum to %d" % (name, counts.sum()))
            if np.any(counts[tables[w["box"]][w["x"], w["y"]] == 0.0]):
                fails.append("%s: drew an impossible output" % name)
            fails += checks.check_close(name, r["frequencies"],
                                        counts / SAMPLE_N, 0.0)
        elif kind == "tv":
            fails += checks.check_close(name, r["tv_closeness"], checks.tv_max(
                tables[w["box"]], tables[w["other"]]), 1e-12)
        elif kind == "eval":
            fails += checks.check_close(name, r["win_prob"], checks.win_prob(
                tables[w["box"]], w["p"], w["q"]), 1e-12)
        elif kind == "omega":
            fails += checks.check_close(name, r["omega"],
                                        checks.omega(w["p"]), 1e-10)
        elif kind == "bound":
            p, q = w["p"], w["q"]
            want = 0.5 + 0.5 * math.sqrt(2.0) * math.sqrt(
                q * q + (1 - q) ** 2) * math.sqrt(p * p + (1 - p) ** 2)
            fails += checks.check_close(name, r["biased_bound"], want, 1e-12)
        elif kind in OUTPUT_CHECKS:
            fails += [name + ": " + f for f in OUTPUT_CHECKS[kind](w, r)]
        elif kind == "run":
            own = checks.induced_table(w["proto"], tables[w["target"]])
            induced = np.asarray(r["induced_box"]["table"]).reshape(2, 2, 2, 2)
            fails += checks.check_box_table(induced)
            fails += checks.check_close(name + " induced box", induced, own, 1e-12)
            tv = checks.tv_max(own, tables[w["source"]])
            red = r["reduction"]
            fails += checks.check_close(name + " achieved_tv",
                                        red["achieved_tv"], tv, 1e-12)
            if red["ok"] != (red["achieved_tv"] <= w["eps"]):
                fails.append("%s: ok flag disagrees with epsilon" % name)
        elif kind == "enumerate":
            al = [2, 2, 2, 2] + w["sizes"]
            if r["count"] != checks.protocol_count(al, w["k"]):
                fails.append("%s: count %r" % (name, r["count"]))
            if r["bound"] != checks.counting_bound(*w["sizes"], w["k"]):
                fails.append("%s: bound %r" % (name, r["bound"]))
        elif kind == "family":
            lines = [tuple(l) for l in r["lines"]]
            fails += checks.check_contains(lines, [(1.0, 0.0)], "constant line 1")
            fails += checks.check_contains(lines, checks.classical_lines(),
                                           "k=0 classical lines")
        elif kind == "measure":
            fails += [name + ": " + f for f in checks.check_measure(
                w["c"], w["m"], w["eps"], r["measure"])]
        elif kind == "schedule":
            fails += [name + ": " + f for f in checks.check_schedule(
                2, 2, 2, 2, w["k_max"], w["c"], r["bounds"], r["eps"],
                r["identity_exact"])]
        elif kind == "cover_build":
            points = np.asarray(r["points"])
            covers[w["eps"]] = (len(points), r["covering_radius"])
            fails += [name + ": " + f for f in checks.check_cover(
                w["eps"], len(points), r["covering_radius"], points, probes)]
        elif kind == "cover_verify":
            if (r["T"], r["covering_radius"]) != covers.get(w["eps"]):
                fails.append("%s: verified another cover" % name)
            fails += [name + ": " + f for f in checks.check_reduction_tv(
                r["max_tv"], r["mean_tv"], r["covering_radius"])]
    return ["cli_session: " + f for f in fails]
