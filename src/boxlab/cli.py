"""Batch experiment runner.

Every subcommand writes a machine-readable payload (JSON by default, CSV
where a row schema exists) that embeds the resolved config, the seed, and
the tool version, so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 precondition violation, 3 acceptance-suite failure.

Each command parses its argv once and reads each input file once.  When the
first two arguments name a command, ``main`` parses the rest with that
command's own parser, recorded while ``build_parser`` builds it, into a
namespace that already holds ``group`` and ``cmd``.  That is what the full
parser does after its two levels of subcommand choice, so the namespace,
every error and every help text are the same.  Everything else goes through
the full parser: no command named, arguments the command's parser leaves
over, ``--schema``, ``-h`` above a command, and unknown groups or commands.
Input files are decoded once into dicts for the ``*_from_payload`` parsers,
and outputs are emitted from the ``*_to_payload`` dicts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, analysis, boxes, games, protocols, sphere
from .boxes import PATH_TABLE_CAP
from .protocols import AffineFunction, BINARY, Alphabets

DEFAULT_SEED = 20230405


def _lazy_import(name: str):
    """Module ``name``, entered in sys.modules and in its package as an
    import enters it, but compiled and run on first use of an attribute."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    return module


# Only `suite acceptance` uses it.  Without bytecode caches, compiling and
# running it cost every CLI start about 3.5 ms; lazily it costs a file
# lookup, and it is still in sys.modules for tools that look for it there.
acceptance = _lazy_import("boxlab.acceptance")


def _load_payload(path: str, parse):
    """Build a box, cover or protocol with ``parse`` (a ``*_from_payload``)
    from the file's one JSON decoding.

    The file holds either the bare object or a command's output, which wraps
    it in a {config, result, version} envelope.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if isinstance(payload, dict) and payload.keys() == {"config", "result",
                                                            "version"}:
            payload = payload["result"]
        return parse(payload)
    except KeyError as exc:
        raise ValueError("%s: missing field %s" % (path, exc)) from None
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _parse_box(token: str) -> boxes.CorrelationBox:
    """Box forms: 'pr', 'octahedron', 'local:f0,f1:g0,g1', 'file:PATH'."""
    if token == "pr":
        return boxes.pr_box()
    if token == "octahedron":
        return sphere.discretized_box(sphere.octahedron_cover())
    if token.startswith("local:"):
        _, f, g = token.split(":")
        return boxes.local_box([int(v) for v in f.split(",")],
                               [int(v) for v in g.split(",")],
                               a_size=2, b_size=2)
    if token.startswith("file:"):
        return _load_payload(token[5:], boxes.box_from_payload)
    raise ValueError("unknown box form %r" % token)


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    """Write the payload as JSON, or the CSV rows as they come, to --out
    (through a .tmp file renamed when complete) or to stdout."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func",) and v is not None}
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        rows = iter(csv_rows)
        # a row source that fails on its first row writes nothing
        first = list(itertools.islice(rows, 1))
        head = ("# config=%s version=%s\n%s\n"
                % (json.dumps(config, sort_keys=True, allow_nan=False),
                   __version__, ",".join(csv_header)))
        lines = itertools.chain((head,), (
            ",".join(repr(v) if isinstance(v, float) else str(v)
                     for v in row) + "\n"
            for row in itertools.chain(first, rows)))
    else:
        lines = (json.dumps({"config": config, "version": __version__,
                             "result": payload}, sort_keys=True, indent=2,
                            allow_nan=False) + "\n",)
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.writelines(lines)
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, out)       # never leave a partial output file


# --- box ---------------------------------------------------------------

def cmd_box_show(args):
    box = _parse_box(args.box)
    _emit(args, boxes.box_to_payload(box))


def _sample_blocks(box, x, y, rng, n):
    """Yield (start, a, b) for the draws of boxes.sample in blocks of at most
    PATH_TABLE_CAP; consecutive draws continue one stream, so the blocks
    are the draws of a single n-draw call."""
    for start in range(0, n, PATH_TABLE_CAP):
        a, b = boxes.sample(box, x, y, rng, min(PATH_TABLE_CAP, n - start))
        yield start, a, b


def cmd_box_sample(args):
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    box = _parse_box(args.box)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    blocks = _sample_blocks(box, args.x, args.y, rng, args.n)
    if args.format == "csv":
        rows = itertools.chain.from_iterable(
            zip(range(start, start + a.size), a.tolist(), b.tolist())
            for start, a, b in blocks)
        _emit(args, {}, csv_rows=rows, csv_header=("trial", "a", "b"))
        return
    counts = np.zeros((box.a_size, box.b_size), dtype=np.int64)
    for _, a, b in blocks:
        np.add.at(counts, (a, b), 1)
    _emit(args, {"counts": counts.tolist(),
                 "frequencies": (counts / args.n).tolist()})


def cmd_box_tv(args):
    value = boxes.tv_closeness(_parse_box(args.box), _parse_box(args.other))
    _emit(args, {"tv_closeness": value})


# --- game --------------------------------------------------------------

def cmd_game_eval(args):
    value = games.win_prob(_parse_box(args.box), args.p, args.q)
    _emit(args, {"win_prob": value})


def cmd_game_omega(args):
    # the range check stays here: games.omega does not check its argument
    if not 0.0 <= args.p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _emit(args, {"omega": round(games.omega(args.p), 10)})


def cmd_game_bound(args):
    _emit(args, {"biased_bound": games.biased_bound(args.p, args.q)})


def cmd_game_optimize(args):
    strategy = games.optimal_strategy(args.p)
    achieved = games.win_prob(strategy.to_box(), args.p, 0.5)
    _emit(args, {"alice_angles": list(strategy.alice_angles),
                 "bob_angles": list(strategy.bob_angles),
                 "achieved": achieved,
                 "omega": games.omega(args.p),
                 "shortfall": games.omega(args.p) - achieved})


# --- protocol ----------------------------------------------------------

def cmd_protocol_run(args):
    protocol = _load_payload(args.protocol, protocols.protocol_from_payload)
    target = _parse_box(args.target)
    induced = protocols.induced_box(protocol, target)
    payload = {"induced_box": boxes.box_to_payload(induced)}
    if args.source is not None:
        # protocols.check_reduction on the induced box already built
        tv = boxes.tv_closeness(induced, _parse_box(args.source))
        payload["reduction"] = {"epsilon": args.epsilon,
                                "ok": tv <= args.epsilon, "achieved_tv": tv}
    _emit(args, payload)


def _alphabets_from_args(args) -> Alphabets:
    if args.binary:
        return BINARY
    return Alphabets(2, 2, 2, 2, args.x2, args.y2, args.a2, args.b2)


def cmd_protocol_enumerate(args):
    al = _alphabets_from_args(args)
    protocols.check_bound_digits(al, args.k)
    count = protocols.count_protocols(al, args.k)
    payload = {"count": count, "bound": protocols.counting_bound(al, args.k)}
    if not args.count_only:
        if count > 10 ** 4:
            raise ValueError("refusing to list more than 10^4 protocols; "
                             "use --count-only")
        payload["protocols"] = [
            protocols.protocol_to_payload(pi)
            for pi in protocols.enumerate_protocols(al, args.k)]
    _emit(args, payload)


def cmd_protocol_family(args):
    target = _parse_box(args.target)
    family = protocols.affine_family(target, args.k, up_to_k=args.up_to_k)
    rows = [(ell.intercept, ell.slope) for ell in family]
    _emit(args, {"size": len(rows), "lines": [list(r) for r in rows]},
          csv_rows=rows, csv_header=("intercept", "slope"))


# --- analysis ----------------------------------------------------------

def cmd_analysis_intersections(args):
    ell = AffineFunction(args.intercept, args.slope)
    _emit(args, {"roots": analysis.line_intersections(ell)})


def cmd_analysis_measure(args):
    ell = AffineFunction(args.intercept, args.slope)
    _emit(args, {"measure": analysis.measure_near(ell, args.epsilon)})


def cmd_analysis_gap(args):
    target = _parse_box(args.target)
    family = protocols.affine_family(target, args.k)
    cert = analysis.find_hard_p(family, description=args.target, k=args.k)
    _emit(args, analysis.certificate_to_payload(cert, __version__))


def cmd_analysis_schedule(args):
    sched = analysis.epsilon_schedule(args.x2, args.y2, args.a2, args.b2,
                                      args.k_max, args.c)
    rows = [(k + 1, str(b), e)
            for k, (b, e) in enumerate(zip(sched.bounds, sched.eps))]
    _emit(args, {"bounds": [str(b) for b in sched.bounds],
                 "eps": list(sched.eps),
                 "identity_exact": sched.verify_identity()},
          csv_rows=rows, csv_header=("k", "bound", "epsilon"))


# --- cover -------------------------------------------------------------

def cmd_cover_build(args):
    cover = sphere.build_cover(args.epsilon)
    _emit(args, sphere.cover_to_payload(cover))


def cmd_cover_verify(args):
    cover = _load_cover(args)
    max_tv, mean_tv = sphere.verify_reduction(cover, args.trials, seed=args.seed)
    _emit(args, {"T": cover.size, "covering_radius": cover.covering_radius,
                 "max_tv": max_tv, "mean_tv": mean_tv})


def _load_cover(args) -> sphere.SphereCover:
    if args.cover:
        return _load_payload(args.cover, sphere.cover_from_payload)
    if args.epsilon is None:
        raise ValueError("need --epsilon or --cover")
    return sphere.build_cover(args.epsilon)


# --- suite -------------------------------------------------------------

def cmd_suite_acceptance(args):
    results = acceptance.run_all()
    for result in results:
        print(result.line())
    payload = _jsonable({"results": [{"name": r.name, "passed": r.passed,
                                      "details": r.details} for r in results],
                         "all_passed": all(r.passed for r in results)})
    if args.out:
        _emit(args, payload)
    if not payload["all_passed"]:
        sys.exit(3)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


# --- parser ------------------------------------------------------------

CSV_SCHEMAS = {
    "box sample": "trial,a,b  (one row per draw)",
    "protocol family": "intercept,slope  (one row per distinct line)",
    "analysis schedule": "k,bound,epsilon  (one row per query count)",
}


def build_parser(leaves: dict) -> argparse.ArgumentParser:
    """The full parser; each command's own parser goes into ``leaves``,
    keyed by (group, cmd)."""
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="correlation-box simulation and verification experiments")
    parser.add_argument("--schema", action="store_true",
                        help="print the CSV schemas and exit")
    top = parser.add_subparsers(dest="group")

    def common(sub, seed=False, fmt=False):
        sub.add_argument("--out", help="output file (default: stdout)")
        if seed:
            sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if fmt:
            sub.add_argument("--format", choices=("json", "csv"),
                             default="json")

    def group(name):
        """The adder of group ``name``'s commands, each entered in leaves."""
        cmds = top.add_parser(name).add_subparsers(dest="cmd", required=True)

        def command(cmd):
            leaves[name, cmd] = p = cmds.add_parser(cmd)
            return p
        return command

    box = group("box")
    p = box("show"); p.add_argument("--box", required=True)
    common(p); p.set_defaults(func=cmd_box_show)
    p = box("sample")
    p.add_argument("--box", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n", type=int, default=1000)
    common(p, seed=True, fmt=True); p.set_defaults(func=cmd_box_sample)
    p = box("tv")
    p.add_argument("--box", required=True); p.add_argument("--other", required=True)
    common(p); p.set_defaults(func=cmd_box_tv)

    game = group("game")
    p = game("eval")
    p.add_argument("--box", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=0.5)
    common(p); p.set_defaults(func=cmd_game_eval)
    p = game("omega"); p.add_argument("--p", type=float, required=True)
    common(p); p.set_defaults(func=cmd_game_omega)
    p = game("bound")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=0.5)
    common(p); p.set_defaults(func=cmd_game_bound)
    p = game("optimize")
    p.add_argument("--p", type=float, required=True)
    common(p); p.set_defaults(func=cmd_game_optimize)

    proto = group("protocol")
    p = proto("run")
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.add_argument("--target", required=True)
    p.add_argument("--source", help="check an epsilon-error reduction")
    p.add_argument("--epsilon", type=float, default=0.0)
    common(p); p.set_defaults(func=cmd_protocol_run)
    p = proto("enumerate")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--x2", type=int, default=2); p.add_argument("--y2", type=int, default=2)
    p.add_argument("--a2", type=int, default=2); p.add_argument("--b2", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    common(p); p.set_defaults(func=cmd_protocol_enumerate)
    p = proto("family")
    p.add_argument("--target", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--up-to-k", action="store_true")
    common(p, fmt=True); p.set_defaults(func=cmd_protocol_family)

    ana = group("analysis")
    p = ana("intersections")
    p.add_argument("--intercept", type=float, required=True)
    p.add_argument("--slope", type=float, required=True)
    common(p); p.set_defaults(func=cmd_analysis_intersections)
    p = ana("measure")
    p.add_argument("--intercept", type=float, required=True)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    common(p); p.set_defaults(func=cmd_analysis_measure)
    p = ana("gap")
    p.add_argument("--target", default="octahedron")
    p.add_argument("--k", type=int, default=1)
    common(p); p.set_defaults(func=cmd_analysis_gap)
    p = ana("schedule")
    p.add_argument("--x2", type=int, default=2); p.add_argument("--y2", type=int, default=2)
    p.add_argument("--a2", type=int, default=2); p.add_argument("--b2", type=int, default=2)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--c", type=float, default=0.01)
    common(p, fmt=True); p.set_defaults(func=cmd_analysis_schedule)

    cover = group("cover")
    p = cover("build")
    p.add_argument("--epsilon", type=float, required=True)
    common(p); p.set_defaults(func=cmd_cover_build)
    p = cover("verify")
    p.add_argument("--epsilon", type=float); p.add_argument("--cover")
    p.add_argument("--trials", type=int, default=1000)
    common(p, seed=True); p.set_defaults(func=cmd_cover_verify)

    suite = group("suite")
    p = suite("acceptance")
    common(p); p.set_defaults(func=cmd_suite_acceptance)

    return parser


# built once, on import: parsing keeps no state, so every main call shares it
_LEAVES: dict = {}
_PARSER = build_parser(_LEAVES)


def _parse(argv) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, through the named command's own parser
    when ``argv`` names one and that parser leaves nothing over."""
    leaf = _LEAVES.get(tuple(argv[:2]))
    if leaf is not None:
        args, extra = leaf.parse_known_args(
            argv[2:], argparse.Namespace(schema=False, group=argv[0],
                                         cmd=argv[1]))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if getattr(args, "schema", False):
        for cmd, schema in CSV_SCHEMAS.items():
            print("%s: %s" % (cmd, schema))
        return 0
    if not hasattr(args, "func"):
        _PARSER.print_help()
        return 2
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
