"""Golden corpus: the exact output bytes of every command in README's
"Command line" block.

The commands run in order, in one fresh working directory, with the
README's relative file names: ``identity.json`` is the identity protocol
and ``cover.json`` comes from ``cover build``.  A command that writes
``--out FILE`` is compared on that file's bytes, every other one on its
stdout.  To record the goldens again, run this file as a script.

The ``analysis gap`` golden was recorded again when ``affine_family`` began
to return its lines sorted; before, they came in the hash order of a set.
Its certificate is pinned to the earlier recording below.  The ``game
optimize`` golden was recorded again when ``optimal_strategy`` became the
closed-form optimum and lost its ``grid`` option; its ``achieved`` is pinned
to omega(0.75) below.  The ``cover build`` golden was recorded again when
cover files lost their always-empty ``"audit": {}`` entry.  The ``cover
verify`` golden was recorded again, with new ``max_tv`` and ``mean_tv``,
when ``verify_reduction`` began to draw every trial from one generator.
The ``analysis measure`` golden was recorded again when ``measure_near``
found its interval ends in closed form instead of by bisection; its measure
is pinned to the earlier recording below.  The ``analysis gap`` golden was
recorded again when ``find_hard_p`` became one exact search for every
family: ``--resolution`` left its config, and the certificate's
``resolution`` became the number of candidate points evaluated.
"""

import argparse
import contextlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

import boxlab as bl
from boxlab import cli
from boxlab.cli import main
from boxlab.protocols import protocol_to_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# the octahedron k=1 certificate as first recorded, with the lines as a set
GAP_GOLDEN = "12_analysis_gap.txt"
GAP_P_STAR = 0.5
GAP = 0.10355339059327373
GAP_LINES = {(0.0, 0.5), (0.25, 0.0), (0.25, 0.25), (0.25, 0.5), (0.5, -0.5),
             (0.5, -0.25), (0.5, 0.0), (0.5, 0.25), (0.5, 0.5), (0.75, -0.5),
             (0.75, -0.25), (0.75, 0.0), (1.0, -0.5)}
OPTIMIZE_GOLDEN = "06_game_optimize.txt"
# the measure as recorded by the bisection search
MEASURE_GOLDEN = "11_analysis_measure.txt"
MEASURE = 0.1528297569543331


def readme_commands() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("boxlab ")]


def parser_commands() -> list:
    """Every (group, command) pair the boxlab parser accepts."""
    def choices(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    return [(group, cmd) for group, sub in choices(cli._PARSER).items()
            for cmd in choices(sub)]


def golden_name(index: int, argv: list) -> str:
    return "%02d_%s_%s.txt" % (index, argv[0], argv[1])


def run_corpus(workdir: Path) -> dict:
    """Run every README command in ``workdir``; name -> output bytes."""
    (workdir / "identity.json").write_text(
        protocol_to_json(bl.identity_protocol()), encoding="utf-8")
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for index, argv in enumerate(readme_commands()):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code == 0, argv
            if "--out" in argv:
                data = (workdir / argv[argv.index("--out") + 1]).read_bytes()
            else:
                data = stdout.getvalue().encode("utf-8")
            outputs[golden_name(index, argv)] = data
    finally:
        os.chdir(cwd)
    return outputs


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("readme"))


def test_corpus_covers_every_readme_command():
    names = {golden_name(i, argv) for i, argv in enumerate(readme_commands())}
    assert names == {p.name for p in GOLDEN.glob("*.txt")}


def test_every_command_is_documented():
    documented = {tuple(argv[:2]) for argv in readme_commands()}
    documented.add(("suite", "acceptance"))    # README's Tests section
    assert [c for c in parser_commands() if c not in documented] == []


@pytest.mark.parametrize("index,argv", list(enumerate(readme_commands())),
                         ids=lambda v: v if isinstance(v, int) else " ".join(v))
def test_output_matches_golden(corpus, index, argv):
    name = golden_name(index, argv)
    assert corpus[name] == (GOLDEN / name).read_bytes()


def test_gap_certificate_keeps_its_first_recording(corpus):
    cert = json.loads(corpus[GAP_GOLDEN])["result"]
    assert cert["p_star"] == GAP_P_STAR and cert["gap"] == GAP
    lines = [tuple(line) for line in cert["family"]]
    assert len(lines) == len(GAP_LINES) and set(lines) == GAP_LINES
    assert lines == sorted(lines)


def test_optimize_golden_attains_omega(corpus):
    result = json.loads(corpus[OPTIMIZE_GOLDEN])["result"]
    assert abs(result["achieved"] - bl.omega(0.75)) <= 1e-15


def test_measure_golden_keeps_its_bisection_recording(corpus):
    result = json.loads(corpus[MEASURE_GOLDEN])["result"]
    assert abs(result["measure"] - MEASURE) <= 1e-11


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_corpus(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
