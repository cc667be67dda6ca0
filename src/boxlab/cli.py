"""Batch experiment runner.

Every subcommand writes a machine-readable payload (JSON by default, CSV
where a row schema exists) that embeds the resolved config, the seed, and
the tool version, so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 precondition violation, 3 acceptance-suite failure.

``COMMANDS`` declares each command in one row: its handler, its arguments
in order, whether it takes --seed, and its CSV header and row note.
``build_parser`` builds every parser from the rows; --format is offered
exactly where a row has a CSV header, and --schema prints those headers.

Each command parses its argv once and reads each input file once.  When the
first two arguments name a command, ``main`` parses the rest with that
command's own parser into a namespace already holding ``group`` and ``cmd``,
as the full parser does after its two levels of subcommand choice, so the
namespace, every error and every help text are the same.  All else goes
through the full parser: no command named, arguments the command's parser
leaves over, ``--schema``, ``-h`` above a command, and unknown groups or
commands.  Input files are decoded once into dicts for the
``*_from_payload`` parsers, and outputs are emitted from the
``*_to_payload`` dicts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import itertools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, boxes, games, protocols, sphere
from .protocols import BINARY, Alphabets, LineFamily

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
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        return parse(payload)
    except KeyError as exc:
        raise ValueError("%s: missing field %s" % (path, exc)) from None
    except (TypeError, IndexError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _parse_box(token: str) -> boxes.CorrelationBox:
    """Box forms: 'pr', 'octahedron', 'local:f0,f1:g0,g1', 'file:PATH'."""
    if token == "pr":
        return boxes.pr_box()
    if token == "octahedron":
        return sphere.discretized_box(sphere.octahedron_cover())
    if token.startswith("local:"):
        try:
            f, g = ([int(v) for v in bits.split(",")]
                    for bits in token[6:].split(":"))
            return boxes.local_box(f, g)
        except ValueError:
            raise ValueError("box %r is not local:F:G with F and G "
                             "comma-separated bits" % token) from None
    if token.startswith("file:"):
        return _load_payload(token[5:], boxes.box_from_payload)
    raise ValueError("unknown box form %r" % token)


def _emit(args, payload: dict, csv_rows=None) -> None:
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
                   __version__,
                   ",".join(COMMANDS[args.group, args.cmd].csv_header)))
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


def cmd_box_sample(args):
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    box = _parse_box(args.box)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    # (start, a, b) in blocks of at most PATH_TABLE_CAP draws; they continue
    # one stream, so together they are the draws of a single n-draw call
    draws = ((s.start, *boxes.sample(box, args.x, args.y, rng, s.stop - s.start))
             for s in boxes.blocks(args.n, 1))
    if args.format == "csv":
        rows = itertools.chain.from_iterable(
            zip(range(start, start + a.size), a.tolist(), b.tolist())
            for start, a, b in draws)
        _emit(args, {}, csv_rows=rows)
        return
    counts = np.zeros((box.a_size, box.b_size), dtype=np.int64)
    for _, a, b in draws:
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
    if not args.epsilon >= 0.0:
        raise ValueError("--epsilon must be at least 0, not %r" % args.epsilon)
    if args.epsilon == np.inf:
        raise ValueError("--epsilon must be a finite number at least 0, not inf")
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


def cmd_protocol_enumerate(args):
    al = Alphabets(2, 2, 2, 2, args.x2, args.y2, args.a2, args.b2)
    if args.binary and al != BINARY:
        raise ValueError("--binary conflicts with an inner size other than 2")
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
    rows = np.column_stack((family.intercepts, family.slopes)).tolist()
    _emit(args, {"size": len(rows), "lines": rows}, csv_rows=rows)


# --- analysis ----------------------------------------------------------

def cmd_analysis_intersections(args):
    family = LineFamily([args.intercept], [args.slope])
    roots = analysis.line_intersections(family)[0]
    _emit(args, {"roots": roots[~np.isnan(roots)].tolist()})


def cmd_analysis_measure(args):
    family = LineFamily([args.intercept], [args.slope])
    _emit(args, {"measure": analysis.measure_near(family, args.epsilon)[0]})


def cmd_analysis_gap(args):
    target = _parse_box(args.target)
    family = protocols.affine_family(target, args.k)
    cert = analysis.find_hard_p(family, description=args.target, k=args.k)
    _emit(args, analysis.certificate_to_payload(cert))


def cmd_analysis_schedule(args):
    sched = analysis.epsilon_schedule(args.x2, args.y2, args.a2, args.b2,
                                      args.k_max, args.c)
    rows = [(k + 1, str(b), e)
            for k, (b, e) in enumerate(zip(sched.bounds, sched.eps))]
    _emit(args, {"bounds": [str(b) for b in sched.bounds],
                 "eps": list(sched.eps),
                 "identity_exact": sched.verify_identity()}, csv_rows=rows)


# --- cover -------------------------------------------------------------

def cmd_cover_build(args):
    cover = sphere.build_cover(args.epsilon)
    _emit(args, sphere.cover_to_payload(cover))


def cmd_cover_verify(args):
    if args.cover is not None and args.epsilon is not None:
        raise ValueError("give --epsilon or --cover, not both")
    if args.cover:
        cover = _load_payload(args.cover, sphere.cover_from_payload)
    elif args.epsilon is None:
        raise ValueError("need --epsilon or --cover")
    else:
        cover = sphere.build_cover(args.epsilon)
    max_tv, mean_tv = sphere.verify_reduction(cover, args.trials, seed=args.seed)
    _emit(args, {"T": cover.size, "covering_radius": cover.covering_radius,
                 "max_tv": max_tv, "mean_tv": mean_tv})


# --- suite -------------------------------------------------------------

def cmd_suite_acceptance(args):
    results = acceptance.run_all()
    for result in results:
        print(result.line())
        # wall times vary from run to run, so they stay out of the payload
        print("%.2f ms %s" % (1e3 * result.seconds, result.name), file=sys.stderr)
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


# --- command table -----------------------------------------------------

# argument specs, (flag, add_argument keywords), each written once
_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_FLOAT = {"type": float, "required": True}
_FLAG = {"action": "store_true"}
_BOX = ("--box", _REQUIRED)
_TARGET = ("--target", _REQUIRED)
_P = ("--p", _FLOAT)
_Q = ("--q", {"type": float, "default": 0.5})
_K = ("--k", _INT)
_EPSILON = ("--epsilon", _FLOAT)
_LINE = (("--intercept", _FLOAT), ("--slope", _FLOAT))
_INNER = tuple(("--" + size, {"type": int, "default": 2})
               for size in ("x2", "y2", "a2", "b2"))
_OUT = ("--out", {"help": "output file (default: stdout)"})
_SEED = ("--seed", {"type": int, "default": DEFAULT_SEED})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})


class Command(NamedTuple):
    """One command: its handler, its arguments before --out, whether --seed
    follows, and the CSV header and row note that add --format."""

    func: Callable
    arguments: tuple = ()
    seed: bool = False
    csv_header: tuple = ()
    csv_note: str = ""


COMMANDS = {
    ("box", "show"): Command(cmd_box_show, (_BOX,)),
    ("box", "sample"): Command(cmd_box_sample, (
        _BOX, ("--x", _INT), ("--y", _INT),
        ("--n", {"type": int, "default": 1000})), seed=True,
        csv_header=("trial", "a", "b"), csv_note="one row per draw"),
    ("box", "tv"): Command(cmd_box_tv, (_BOX, ("--other", _REQUIRED))),
    ("game", "eval"): Command(cmd_game_eval, (_BOX, _P, _Q)),
    ("game", "omega"): Command(cmd_game_omega, (_P,)),
    ("game", "bound"): Command(cmd_game_bound, (_P, _Q)),
    ("game", "optimize"): Command(cmd_game_optimize, (_P,)),
    ("protocol", "run"): Command(cmd_protocol_run, (
        ("--protocol", {"required": True, "help": "protocol JSON file"}),
        _TARGET, ("--source", {"help": "check an epsilon-error reduction"}),
        ("--epsilon", {"type": float, "default": 0.0}))),
    ("protocol", "enumerate"): Command(cmd_protocol_enumerate, (
        ("--binary", _FLAG), *_INNER, _K, ("--count-only", _FLAG))),
    ("protocol", "family"): Command(cmd_protocol_family, (
        _TARGET, _K, ("--up-to-k", _FLAG)), csv_header=("intercept", "slope"),
        csv_note="one row per distinct line"),
    ("analysis", "intersections"): Command(cmd_analysis_intersections, _LINE),
    ("analysis", "measure"): Command(cmd_analysis_measure, (*_LINE, _EPSILON)),
    ("analysis", "gap"): Command(cmd_analysis_gap, (
        ("--target", {"default": "octahedron"}),
        ("--k", {"type": int, "default": 1}))),
    ("analysis", "schedule"): Command(cmd_analysis_schedule, (
        *_INNER, ("--k-max", {"type": int, "default": 3}),
        ("--c", {"type": float, "default": 0.01})),
        csv_header=("k", "bound", "epsilon"),
        csv_note="one row per query count"),
    ("cover", "build"): Command(cmd_cover_build, (_EPSILON,)),
    ("cover", "verify"): Command(cmd_cover_verify, (
        ("--epsilon", {"type": float}), ("--cover", {}),
        ("--trials", {"type": int, "default": 1000})), seed=True),
    ("suite", "acceptance"): Command(cmd_suite_acceptance),
}


def build_parser(leaves: dict) -> argparse.ArgumentParser:
    """The full parser, one subparser a COMMANDS row; each command's own
    parser goes into ``leaves``, keyed by (group, cmd)."""
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="correlation-box simulation and verification experiments")
    parser.add_argument("--schema", action="store_true",
                        help="print the CSV schemas and exit")
    top = parser.add_subparsers(dest="group")
    for group, rows in itertools.groupby(COMMANDS.items(), lambda r: r[0][0]):
        cmds = top.add_parser(group).add_subparsers(dest="cmd", required=True)
        for key, row in rows:
            leaves[key] = p = cmds.add_parser(key[1])
            specs = row.arguments + (_OUT,) + (_SEED,) * row.seed
            for flag, keywords in specs + (_FORMAT,) * bool(row.csv_header):
                p.add_argument(flag, **keywords)
            p.set_defaults(func=row.func)
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
        for (group, cmd), row in COMMANDS.items():
            if row.csv_header:
                print("%s %s: %s  (%s)" % (group, cmd,
                                           ",".join(row.csv_header),
                                           row.csv_note))
        return 0
    if not hasattr(args, "func"):
        _PARSER.print_help()
        return 2
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be at least 0, not %d" % args.seed)
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
