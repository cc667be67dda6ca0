import functools
import io
import itertools
import json
import operator
import time
import tracemalloc

import numpy as np
import pytest

import boxlab as bl
from boxlab import acceptance, boxes, cli, protocols
from boxlab.cli import main
from boxlab.protocols import (BINARY, DeterministicProtocol,
                              protocol_from_payload, protocol_to_payload)
from boxlab.sphere import cover_to_payload, octahedron_cover


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_box_show_pr(capsys):
    payload = run_json(capsys, "box", "show", "--box", "pr")
    assert payload["result"]["x_size"] == 2
    assert payload["config"]["box"] == "pr"
    assert payload["version"] == bl.__version__


def test_box_tv(capsys):
    payload = run_json(capsys, "box", "tv", "--box", "pr",
                       "--other", "local:0,0:0,0")
    assert payload["result"]["tv_closeness"] == 1.0


def test_box_sample_deterministic(capsys):
    argv = ("box", "sample", "--box", "pr", "--x", "0", "--y", "0",
            "--n", "200", "--seed", "5")
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    assert first == second
    counts = np.array(first["result"]["counts"])
    assert counts.sum() == 200
    assert counts[0, 1] == 0 and counts[1, 0] == 0


def test_box_sample_csv(capsys):
    code, out, _ = run(capsys, "box", "sample", "--box", "pr", "--x", "0",
                       "--y", "0", "--n", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "trial,a,b"
    assert len(lines) == 7


def test_box_sample_takes_a_file_box_with_a_rounded_negative_entry(
        capsys, tmp_path):
    # the box loads, so every box command takes it: sample draws its
    # -1e-13 entry with probability 0
    path = tmp_path / "box.json"
    path.write_text('{"x_size": 1, "y_size": 1, "a_size": 2, "b_size": 2, '
                    '"table": [[[0.5, -1e-13, 0.0, 0.5000000000001]]]}')
    counts = run_json(capsys, "box", "sample", "--box", "file:%s" % path,
                      "--x", "0", "--y", "0", "--n", "100")["result"]["counts"]
    assert counts[0][1] == 0 and sum(map(sum, counts)) == 100


@pytest.mark.parametrize("box", ["pr", "local:0,1:1,1"])
def test_box_sample_draws_in_blocks(capsys, monkeypatch, block_walks, box):
    argv = ("box", "sample", "--box", box, "--x", "1", "--y", "1",
            "--n", "10007", "--seed", "9")
    _, whole, _ = run(capsys, *argv)
    _, whole_csv, _ = run(capsys, *argv, "--format", "csv")
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 1000)
    code, blocked, _ = run(capsys, *argv)
    assert code == 0 and blocked == whole
    code, blocked_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and blocked_csv == whole_csv
    assert [walk.sizes for walk in block_walks] \
        == [[10007]] * 2 + [[1000] * 10 + [7]] * 2
    # the counts equal those of the CSV rows
    rows = np.array([line.split(",") for line in whole_csv.splitlines()[2:]],
                    dtype=int)
    assert rows[:, 0].tolist() == list(range(10007))
    counts = np.zeros((2, 2), dtype=int)
    np.add.at(counts, (rows[:, 1], rows[:, 2]), 1)
    assert json.loads(blocked)["result"]["counts"] == counts.tolist()


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError
    monkeypatch.setattr(bl.boxes, "sample", no_memory)
    code, out, err = run(capsys, "box", "sample", "--box", "pr", "--x", "0",
                         "--y", "0", "--n", "100000000", "--format", "csv")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def in_memory_csv(args, csv_rows):
    """Reference: the CSV text of a command rendered whole in memory."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func",) and v is not None}
    buf = io.StringIO()
    buf.write("# config=%s version=%s\n"
              % (json.dumps(config, sort_keys=True, allow_nan=False),
                 bl.__version__))
    buf.write(",".join(cli.COMMANDS[args.group, args.cmd].csv_header) + "\n")
    for row in csv_rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v)
                           for v in row) + "\n")
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ("box", "sample", "--box", "pr", "--x", "0", "--y", "1", "--n", "1000",
     "--seed", "7"),
    ("protocol", "family", "--target", "octahedron", "--k", "1"),
    ("analysis", "schedule", "--k-max", "2"),
])
def test_csv_streams_the_in_memory_rendering(capsys, monkeypatch, tmp_path,
                                             argv):
    rendered = []
    emit = cli._emit

    def both(args, payload, csv_rows=None):
        rows = list(csv_rows)
        rendered.append(in_memory_csv(args, rows))
        emit(args, payload, csv_rows=rows)

    monkeypatch.setattr(cli, "_emit", both)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == rendered[-1]
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, *argv, "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == rendered[-1].encode("utf-8")
    assert not (tmp_path / "rows.csv.tmp").exists()


def test_csv_sample_memory_does_not_grow_with_n(capsys, monkeypatch,
                                                block_walks, tmp_path):
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 1000)
    path = tmp_path / "rows.csv"
    peaks = []
    for n in (10, 10 ** 4, 10 ** 5):        # the first run warms up caches
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "box", "sample", "--box", "pr", "--x",
                               "0", "--y", "0", "--n", str(n), "--format",
                               "csv", "--out", str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert len(path.read_text().splitlines()) == 10 ** 5 + 2
    assert [len(walk.slices) for walk in block_walks] == [1, 10, 100]
    # blocks of 1,000 draws; the whole 10^5-row text would be 1.2 MB
    assert max(peaks[1:]) < 0.5e6


def test_failed_csv_stream_leaves_no_file(capsys, monkeypatch, block_walks,
                                          tmp_path):
    draws = []
    sample = bl.boxes.sample

    def fail_second_block(*args):
        draws.append(1)
        if len(draws) == 2:
            raise MemoryError
        return sample(*args)

    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 1000)
    monkeypatch.setattr(bl.boxes, "sample", fail_second_block)
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "box", "sample", "--box", "pr", "--x", "0",
                         "--y", "0", "--n", "5000", "--format", "csv",
                         "--out", str(path))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []
    assert [walk.sizes for walk in block_walks] == [[1000, 1000]]


def test_game_eval_and_omega(capsys):
    payload = run_json(capsys, "game", "eval", "--box", "pr", "--p", "0.5")
    assert payload["result"]["win_prob"] == 1.0
    payload = run_json(capsys, "game", "omega", "--p", "0.5")
    assert payload["result"]["omega"] == pytest.approx(0.8535533906)


def test_game_bound_regime_violation_exits_2(capsys):
    code, _, err = run(capsys, "game", "bound", "--p", "0.9", "--q", "0.7")
    assert code == 2
    assert "error:" in err


def test_game_optimize(capsys):
    payload = run_json(capsys, "game", "optimize", "--p", "0.75")
    assert abs(payload["result"]["shortfall"]) <= 1e-15


def test_main_reuses_the_parser_built_on_import(capsys, monkeypatch):
    def build_again():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_again)
    first = run_json(capsys, "game", "omega", "--p", "0.5")
    with pytest.raises(SystemExit) as exc:          # a parse error, as before
        main(["game", "omega"])
    assert exc.value.code == 2
    assert run_json(capsys, "game", "bound", "--p", "0.6")["config"] == {
        "cmd": "bound", "group": "game", "p": 0.6, "q": 0.5, "schema": False}
    assert run_json(capsys, "game", "omega", "--p", "0.5") == first


def constant_protocol(k: int) -> str:
    """A binary k-query protocol that always queries 0 and outputs 0."""
    maps = tuple((0,) * (2 * 2 ** d) for d in range(k))
    zeros = (0,) * (2 * 2 ** k)
    return json.dumps(protocol_to_payload(
        DeterministicProtocol(BINARY, k, maps, maps, zeros, zeros)))


def test_protocol_run_response_path_table_cap(capsys, tmp_path):
    # 2 * 2 * 4^k entries: k = 10 is 2^22, at the cap; k = 11 is over it
    for k in (10, 11):
        (tmp_path / ("k%d.json" % k)).write_text(constant_protocol(k))
    payload = run_json(capsys, "protocol", "run", "--protocol",
                       str(tmp_path / "k10.json"), "--target", "pr")
    assert payload["result"]["induced_box"]["table"][0][0] == [1.0, 0.0, 0.0, 0.0]
    code, out, err = run(capsys, "protocol", "run", "--protocol",
                         str(tmp_path / "k11.json"), "--target", "pr")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_protocol_run_identity(capsys, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(protocol_to_payload(bl.identity_protocol())))
    payload = run_json(capsys, "protocol", "run", "--protocol", str(path),
                       "--target", "pr", "--source", "pr",
                       "--epsilon", "0.0")
    assert payload["result"]["reduction"]["ok"] is True
    assert payload["result"]["reduction"]["achieved_tv"] == 0.0


def test_protocol_run_builds_the_induced_box_once(capsys, tmp_path,
                                                 monkeypatch):
    calls = []
    induced_box = protocols.induced_box

    def counting(protocol, target):
        calls.append(protocol)
        return induced_box(protocol, target)

    for k in (1, 2, 3):
        path = tmp_path / ("k%d.json" % k)
        path.write_text(constant_protocol(k))
        protocol = protocol_from_payload(json.loads(path.read_text()))
        want = bl.check_reduction(bl.induced_box(protocol, bl.pr_box()),
                                  bl.pr_box(), 0.1)
        monkeypatch.setattr(protocols, "induced_box", counting)
        calls.clear()
        payload = run_json(capsys, "protocol", "run", "--protocol", str(path),
                           "--target", "pr", "--source", "pr",
                           "--epsilon", "0.1")
        monkeypatch.undo()
        assert len(calls) == 1
        reduction = payload["result"]["reduction"]
        assert (reduction["ok"], reduction["achieved_tv"]) == want


def test_protocol_enumerate_count_only(capsys):
    payload = run_json(capsys, "protocol", "enumerate", "--binary",
                       "--k", "1", "--count-only")
    assert payload["result"]["count"] == 4096
    assert payload["result"]["bound"] == 65536


def test_protocol_family_csv(capsys):
    code, out, _ = run(capsys, "protocol", "family", "--target", "pr",
                       "--k", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "intercept,slope"
    assert len(lines) >= 3


def test_analysis_intersections(capsys):
    # chord through (1/2, omega(1/2)) and (1, 1)
    payload = run_json(capsys, "analysis", "intersections",
                       "--intercept", "0.7071067811865476",
                       "--slope", "0.29289321881345254")
    roots = payload["result"]["roots"]
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.5, abs=1e-6)
    assert roots[1] == pytest.approx(1.0, abs=1e-6)


def test_analysis_measure(capsys):
    payload = run_json(capsys, "analysis", "measure", "--intercept", "2.0",
                       "--slope", "0.0", "--epsilon", "0.001")
    assert payload["result"]["measure"] == 0.0


def test_analysis_gap_octahedron(capsys):
    payload = run_json(capsys, "analysis", "gap", "--target", "octahedron",
                       "--k", "1")
    assert payload["result"]["gap"] == pytest.approx(np.sqrt(2) / 4 - 0.25,
                                                     abs=1e-9)


def test_analysis_schedule(capsys):
    payload = run_json(capsys, "analysis", "schedule", "--k-max", "2")
    assert payload["result"]["identity_exact"] is True
    assert payload["result"]["bounds"][0] == "65536"


def test_analysis_schedule_up_to_the_digit_cap(capsys):
    # 4^(2 * 2^10) * 4^(2 * 2^10) has 2467 digits; at k = 11 it has 4933
    payload = run_json(capsys, "analysis", "schedule", "--k-max", "10")
    bounds = payload["result"]["bounds"]
    assert len(bounds) == 10 and len(bounds[-1]) == 2467
    assert payload["result"]["identity_exact"] is True


def test_cover_build_and_verify(capsys, tmp_path):
    out = tmp_path / "cover.json"
    code, _, err = run(capsys, "cover", "build", "--epsilon", "0.4",
                       "--out", str(out))
    assert code == 0, err
    stored = json.loads(out.read_text())
    assert stored["result"]["covering_radius"] <= 0.4
    payload = run_json(capsys, "cover", "verify", "--cover", str(out),
                       "--trials", "50", "--seed", "7")
    assert payload["result"]["max_tv"] <= 0.4


def test_cover_verify_refuses_an_unsound_cover_file(capsys, tmp_path):
    out = tmp_path / "cover.json"
    assert run(capsys, "cover", "build", "--epsilon", "0.5",
               "--out", str(out))[0] == 0
    built = out.read_text()
    assert len(json.loads(built)["result"]["points"]) == 35
    for key, index, value, message in (
            ("covering_radius", None, 0.001,
             "covering_radius 0.001 is below the audited radius "),
            ("points", 3, [float("nan"), 0.0, 1.0],
             "vector is not unit length")):
        stored = json.loads(built)
        if index is None:
            stored["result"][key] = value
        else:
            stored["result"][key][index] = value
        out.write_text(json.dumps(stored))
        code, text, err = run(capsys, "cover", "verify", "--cover", str(out),
                              "--trials", "20")
        assert code == 2 and text == ""
        assert err.startswith("error: %s: %s" % (out, message))
        assert err.count("\n") == 1


def test_cover_verify_needs_source(capsys):
    code, _, err = run(capsys, "cover", "verify")
    assert code == 2 and "error:" in err


def test_suite_acceptance_writes_numpy_results(capsys, monkeypatch, tmp_path):
    # criteria compute their verdicts and details as numpy scalars
    result = acceptance.CriterionResult(
        "numpy", np.bool_(True), {"ok": np.bool_(True), 3: [np.float64(0.5)]})
    monkeypatch.setattr(acceptance, "run_all", lambda: [result])
    out = tmp_path / "acceptance.json"
    assert run(capsys, "suite", "acceptance", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["result"] == {
        "all_passed": True, "results": [
            {"name": "numpy", "passed": True,
             "details": {"ok": True, "3": [0.5]}}]}


def test_a_failing_suite_exits_3_and_records_the_failure(capsys, monkeypatch,
                                                        tmp_path):
    results = [acceptance.CriterionResult("a", True, {}),
               acceptance.CriterionResult("b", np.False_, {"tv": 0.5})]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    out = tmp_path / "acceptance.json"
    code, stdout, _ = run(capsys, "suite", "acceptance", "--out", str(out))
    assert code == 3 and stdout == "PASS a\nFAIL b\n"
    assert json.loads(out.read_text())["result"]["all_passed"] is False
    # the handler returns the code; it does not exit
    args = cli._parse(["suite", "acceptance"])
    assert cli.cmd_suite_acceptance(args) == 3
    capsys.readouterr()


def test_suite_acceptance_times_each_criterion_on_stderr_only(capsys, tmp_path):
    # wall times go to stderr, one line per criterion; stdout and the
    # --out payload are the same bytes on every run
    out = tmp_path / "acceptance.json"
    runs = []
    for _ in range(2):
        code, stdout, err = run(capsys, "suite", "acceptance", "--out", str(out))
        assert code == 0
        runs.append((stdout, out.read_bytes(), err))
    (out1, payload1, err1), (out2, payload2, err2) = runs
    assert out1 == out2 and payload1 == payload2
    assert out1.splitlines() == ["PASS " + r["name"] for r in
                                 json.loads(payload1)["result"]["results"]]
    for err in (err1, err2):
        lines = err.splitlines()
        assert len(lines) == len(acceptance.CRITERIA)
        for line, stdout_line in zip(lines, out1.splitlines()):
            seconds, unit, name = line.split(" ")
            assert float(seconds) >= 0 and unit == "ms"
            assert stdout_line == "PASS " + name
    assert b"seconds" not in payload1


def test_unknown_box_token_exits_2(capsys):
    code, _, err = run(capsys, "box", "show", "--box", "nope")
    assert code == 2 and "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "box", "show", "--box", "file:/no/such.json")
    assert code == 2


def test_schema_flag(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    assert "intercept,slope" in out


def test_format_is_offered_exactly_by_the_schema_commands(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    listed = {tuple(line.split(":")[0].split()) for line in out.splitlines()}
    offered = {key for key, leaf in cli._LEAVES.items()
               if any(a.dest == "format" for a in leaf._actions)}
    assert len(listed) == 3 and offered == listed


def test_output_file_atomic_write(capsys, tmp_path):
    out = tmp_path / "omega.json"
    code, _, _ = run(capsys, "game", "omega", "--p", "0.5",
                     "--out", str(out))
    assert code == 0
    assert not (tmp_path / "omega.json.tmp").exists()
    assert json.loads(out.read_text())["result"]["omega"] == pytest.approx(
        0.8535533906)


def test_byte_identical_reruns(capsys):
    argv = ("cover", "verify", "--epsilon", "0.5", "--trials", "20")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# kind: (bare file text, argv reading the file at {})
FILE_KINDS = {
    "box": (lambda: bl.box_to_json(bl.pr_box()),
            ["box", "show", "--box", "file:{}"]),
    "cover": (lambda: json.dumps(cover_to_payload(octahedron_cover())),
              ["cover", "verify", "--cover", "{}", "--trials", "20"]),
    "protocol": (lambda: json.dumps(
                     protocol_to_payload(bl.identity_protocol())),
                 ["protocol", "run", "--protocol", "{}", "--target", "pr"]),
}


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_file_bare_and_in_envelope(capsys, tmp_path, kind):
    make, argv = FILE_KINDS[kind]
    bare = tmp_path / "bare.json"
    bare.write_text(make())
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"config": {}, "result": json.loads(make()),
                                    "version": bl.__version__}))
    first, second = (run_json(capsys, *[a.format(path) for a in argv])
                     for path in (bare, envelope))
    assert first["result"] == second["result"]


def test_box_file_from_box_show_output(capsys, tmp_path):
    shown = tmp_path / "pr.json"
    assert run(capsys, "box", "show", "--box", "pr", "--out", str(shown))[0] == 0
    payload = run_json(capsys, "box", "tv", "--box", "file:%s" % shown,
                       "--other", "pr")
    assert payload["result"]["tv_closeness"] == 0.0


@pytest.mark.parametrize("kind", FILE_KINDS)
@pytest.mark.parametrize("text", ["{}", "[1, 2]", "not json"])
def test_malformed_file_exits_2(capsys, tmp_path, kind, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, *[a.format(path) for a in FILE_KINDS[kind][1]])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % path) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "box show --box file:{}",
    "protocol family --target file:{} --k 1",
    "protocol family --target file:{} --k 0 --format csv",
])
def test_nan_box_file_exits_2_naming_the_file(capsys, tmp_path, argv):
    payload = boxes.box_to_payload(bl.pr_box())
    payload["table"][1][0][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv.format(path).split())
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % path) and err.count("\n") == 1


@pytest.mark.parametrize("kind,path,value", [
    ("protocol", ("q_maps", 0, 0), 0.5), ("protocol", ("k",), 1.7),
    ("protocol", ("s_map", 1), True), ("protocol", ("t_map", 0), "0"),
    ("protocol", ("alphabets", 0), 2.5), ("box", ("table", 0, 0, 0), "0.25"),
    ("box", ("table", 1, 1, 1), False), ("box", ("y_size",), 2.0),
    ("cover", ("points", 0, 0), "1.0"), ("cover", ("covering_radius",), "1")])
def test_non_numeric_file_entries_exit_2_naming_the_file(capsys, tmp_path,
                                                         kind, path, value):
    make, argv = FILE_KINDS[kind]
    payload = json.loads(make())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(payload))
    code, out, err = run(capsys, *[a.format(file) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % file) and err.count("\n") == 1
    assert "is not an integer" in err or "is not a number" in err


@pytest.mark.parametrize("kind,edit,message", [
    ("box", "[1, 2]", "expected a JSON object"),
    ("cover", "3", "expected a JSON object"),
    ("protocol", '"identity"', "expected a JSON object"),
    ("box", '{"config": {}, "result": [], "version": "0"}',
     "expected a JSON object"),
    ("protocol", {"alphabets": [2] * 7}, "alphabets must be a list of 8 sizes"),
    ("protocol", {"alphabets": [2] * 9}, "alphabets must be a list of 8 sizes"),
    ("protocol", {"alphabets": 2}, "alphabets must be a list of 8 sizes"),
    ("protocol", {"q_maps": 1}, "q_maps must be a list"),
    ("protocol", {"r_maps": [1]}, "r_maps[0] must be a list"),
    ("protocol", {"s_map": 1}, "s_map must be a list"),
    ("protocol", {"t_map": {"0": 1}}, "t_map must be a list")])
def test_a_file_off_its_form_exits_2_naming_the_field(capsys, tmp_path, kind,
                                                      edit, message):
    # the whole file, or fields that replace those of a good one
    make, argv = FILE_KINDS[kind]
    if isinstance(edit, dict):
        edit = json.dumps({**json.loads(make()), **edit})
    file = tmp_path / "bad.json"
    file.write_text(edit)
    code, out, err = run(capsys, *[a.format(file) for a in argv])
    assert code == 2 and out == ""
    assert err == "error: %s: %s\n" % (file, message)


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_a_deeply_nested_file_exits_2_naming_the_file(capsys, tmp_path, kind):
    # valid JSON nested past the decoder's recursion limit
    file = tmp_path / "deep.json"
    file.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *[a.format(file) for a in FILE_KINDS[kind][1]])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % file) and err.count("\n") == 1


@pytest.mark.parametrize("kind,path", [
    ("box", ("table", 0, 0, 0)), ("cover", ("points", 0, 0)),
    ("cover", ("covering_radius",))])
def test_an_integer_past_the_float_range_exits_2_naming_the_file(
        capsys, tmp_path, kind, path):
    make, argv = FILE_KINDS[kind]
    payload = json.loads(make())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = 10 ** 400
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(payload))
    code, out, err = run(capsys, *[a.format(file) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % file) and err.count("\n") == 1


@pytest.mark.parametrize("path,value,message", [
    (("covering_radius",), float("nan"), "covering_radius nan is not finite"),
    (("covering_radius",), float("inf"), "covering_radius inf is not finite"),
    (("points", 1), [0.0, 1.0], "points must be rows of 3 coordinates")])
def test_a_bad_cover_file_exits_2_naming_its_fault(capsys, tmp_path, path,
                                                   value, message):
    # json.dumps writes the NaN and Infinity literals that json.loads reads
    make, argv = FILE_KINDS["cover"]
    payload = json.loads(make())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    file = tmp_path / "cover.json"
    file.write_text(json.dumps(payload))
    code, out, err = run(capsys, *[a.format(file) for a in argv])
    assert code == 2 and out == ""
    assert err == "error: %s: %s\n" % (file, message)


@pytest.mark.parametrize("sizes", [{"x_size": 1},
                                   {"x_size": 10 ** 6, "y_size": 10 ** 6}])
def test_a_box_file_off_its_sizes_exits_2_naming_the_shape(capsys, tmp_path,
                                                           sizes):
    payload = boxes.box_to_payload(bl.pr_box())
    payload.update(sizes)
    file = tmp_path / "box.json"
    file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "box", "show", "--box", "file:%s" % file)
    assert code == 2 and out == ""
    assert err.startswith("error: %s: table must be x_size x y_size = %d x %d "
                          "rows of a_size * b_size = 4 entries"
                          % (file, payload["x_size"], payload["y_size"]))
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "analysis gap --k -1",
    "analysis measure --intercept 0.8 --slope 0.1 --epsilon nan",
    "box sample --box pr --x 0 --y 0 --n 0",
    "box sample --box pr --x 0 --y 0 --n -3",
    "game omega --p 2",
    "analysis schedule --c inf",
    "analysis schedule --k-max 11",
    "analysis schedule --k-max 40",
    "analysis schedule --x2 0",
    "analysis schedule --c 1e200",
    "protocol family --target pr --k -1",
    "cover build --epsilon 1e-300",
    "cover build --epsilon 0.001",
    "cover verify --epsilon 0.002",
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


RUN_IDENTITY = "protocol run --protocol identity.json --target pr --source pr"
NOT_LOCAL = "box %r is not local:F:G with F and G comma-separated bits"
NOT_FINITE = "--epsilon must be a finite number at least 0, not inf"


@pytest.mark.parametrize("argv,message", [
    ("box show --box local:0,1", NOT_LOCAL % "local:0,1"),
    ("box show --box local:a,b:0,1", NOT_LOCAL % "local:a,b:0,1"),
    ("box tv --box pr --other local:0,1:0,1:1", NOT_LOCAL % "local:0,1:0,1:1"),
    ("game eval --box local:0,2:0,1 --p 0.5", NOT_LOCAL % "local:0,2:0,1"),
    ("box sample --box pr --x 0 --y 0 --seed -1",
     "--seed must be at least 0, not -1"),
    ("cover verify --epsilon 0.5 --seed -7", "--seed must be at least 0, not -7"),
    ("cover verify --epsilon 0.5 --cover cover.json",
     "give --epsilon or --cover, not both"),
    ("cover verify --cover cover.json --trials 5 --epsilon=0.5",
     "give --epsilon or --cover, not both"),
    (RUN_IDENTITY + " --epsilon=-1e308",
     "--epsilon must be at least 0, not -1e+308"),
    (RUN_IDENTITY + " --epsilon -1e308",
     "--epsilon must be at least 0, not -1e+308"),
    ("game eval --box pr --p -1e-3", "biases must lie in [0, 1]"),
    (RUN_IDENTITY + " --epsilon=-1e-300",
     "--epsilon must be at least 0, not -1e-300"),
    (RUN_IDENTITY + " --epsilon=nan", "--epsilon must be at least 0, not nan"),
    (RUN_IDENTITY + " --epsilon=inf", NOT_FINITE),
    (RUN_IDENTITY + " --epsilon=1e309", NOT_FINITE),
])
def test_bad_input_exits_2_with_one_line_naming_it(capsys, monkeypatch,
                                                   tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    command_files(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# the README's arguments of each command with a float flag; cover verify
# takes --epsilon instead of the README's --cover, as it refuses the two
# together
README_ARGUMENTS = {
    ("game", "eval"): "--box pr --p 0.6",
    ("game", "omega"): "--p 0.5",
    ("game", "bound"): "--p 0.6 --q 0.55",
    ("game", "optimize"): "--p 0.75",
    ("protocol", "run"): "--protocol identity.json --target pr --source pr",
    ("analysis", "intersections"): "--intercept 0.75 --slope 0.25",
    ("analysis", "measure"): "--intercept 0.8 --slope 0.1 --epsilon 0.001",
    ("analysis", "schedule"): "--k-max 3 --c 0.01",
    ("cover", "build"): "--epsilon 0.2 --out cover.json",
    ("cover", "verify"): "--trials 1000 --seed 7",
}
EXTREMES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "-1e-300",
            "0.0", "-0.0")


def test_extreme_float_flags_exit_0_or_2_with_at_most_one_line(
        capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    command_files(tmp_path)
    failures = []
    for (group, cmd), row in cli.COMMANDS.items():
        flags = [flag for flag, keywords in row.arguments
                 if keywords.get("type") is float]
        if (group, cmd) == ("suite", "acceptance") or not flags:
            continue
        base = README_ARGUMENTS[group, cmd].split()
        for flag, value in itertools.product(flags, EXTREMES):
            # --flag=value, the form argparse reads on any Python
            argv = [group, cmd, "%s=%s" % (flag, value)]
            for name, given in zip(base[::2], base[1::2]):
                if name != flag:
                    argv += [name, given]
            try:
                code, _, err = run(capsys, *argv)
            except Exception as exc:
                capsys.readouterr()
                failures.append((argv, repr(exc)))
                continue
            if code not in (0, 2) or err.count("\n") > 1:
                failures.append((argv, code, err))
    assert failures == []


# a negative value in each float notation, and the exit code of its
# --flag=value form
NEGATIVE_VALUES = [
    ("analysis measure --intercept 0.8 --slope -1e-05 --epsilon 0.001", 0),
    ("analysis intersections --intercept 0.75 --slope -2.5e-1", 0),
    ("analysis intersections --intercept -.5 --slope -1.", 0),
    ("analysis intersections --intercept 0.75 --slope -1E+1", 0),
    ("game eval --box pr --p -1e-3", 2),
    ("game omega --p -inf", 2),
    ("game omega --p -nan", 2),
    (RUN_IDENTITY + " --epsilon -1e308", 2),
]


@pytest.mark.parametrize("argv,code", NEGATIVE_VALUES)
@pytest.mark.parametrize("parser", ["dispatch", "full"])
def test_a_negative_value_in_any_float_notation_reads_as_its_equals_form(
        capsys, monkeypatch, tmp_path, argv, code, parser):
    monkeypatch.chdir(tmp_path)
    command_files(tmp_path)
    if parser == "full":
        monkeypatch.setattr(cli, "_LEAVES", {})
    *head, flag, value = argv.split()
    spaced = run(capsys, *head, flag, value)
    assert spaced == run(capsys, *head, "%s=%s" % (flag, value))
    assert spaced[0] == code
    assert spaced[2].count("\n") == (1 if code else 0)


def test_a_negative_float_is_the_value_of_an_integer_flag(capsys):
    # read as the value of --n, which then refuses it as argparse does
    with pytest.raises(SystemExit):
        main("box sample --box pr --x 0 --y 0 --n -1e3".split())
    assert capsys.readouterr().err.endswith(
        "error: argument --n: invalid int value: '-1e3'\n")


# --- one parse per command ---------------------------------------------

# argvs for the command dispatch against the full parser: README and
# benchmark-style commands, help at each level, --schema, unknown names,
# missing and bad values, extra arguments, "--" and abbreviations
ARGV_CORPUS = [
    "box show --box pr",
    "box show --box pr --out shown.json",
    "box sample --box local:0,1:1,0 --x 1 --y 0 --n 300 --seed 7 --format csv",
    "box tv --box pr --other local:0,0:0,0",
    "game eval --box pr --p 0.3 --q 0.7",
    "game omega --p 0.75",
    "game bound --p 0.6 --q 0.55",
    "game optimize --p 0.96",
    "protocol run --protocol identity.json --target pr --source pr --epsilon 0.1",
    "protocol enumerate --binary --k 2 --count-only",
    "protocol enumerate --x2 3 --y2 2 --a2 3 --b2 2 --k 1 --count-only",
    "protocol family --target pr --k 1 --up-to-k --format csv",
    "analysis intersections --intercept -0.5 --slope 1.25",
    "analysis measure --intercept 0.8 --slope 0.1 --epsilon 1e-3",
    "analysis gap --target octahedron --k 1",
    "analysis schedule --k-max 2 --c 0.01 --format csv",
    "cover build --epsilon 0.5",
    "cover verify --cover cover.json --trials 150 --seed 3",
    "suite acceptance --out acceptance.json",
    "", "-h", "--help", "box -h", "box show -h", "box show --box pr -h",
    "game omega --help", "suite acceptance -h",
    "--schema", "--schema box show --box pr", "box show --box pr --schema",
    "nope", "nope show", "box nope", "box", "box --x", "--nope",
    "game omega", "box sample --box pr", "box show --box", "box show --out",
    "game omega --p x", "game omega --p", "box sample --box pr --x a --y 0",
    "box sample --box pr --x 0 --y 0 --format xml",
    "analysis gap --k 1.5", "game omega --p 0.5 extra",
    "game omega --p 0.5 --nope 1", "game omega --p 0.5 -x",
    "game omega --p 0.5 --p 0.6", "game omega --p -0.5",
    "analysis intersections --intercept -1 --slope -2",
    "game omega -- --p 0.5", "game omega --p 0.5 --", "-- game omega --p 0.5",
    "game -- omega --p 0.5", "game omega --p=0.5", "game omega --p=",
    "box sample --bo pr --x 0 --y 0", "protocol enumerate --bin --k 1 --count",
    "protocol enumerate --b --k 1", "protocol family --target pr --k 1 --up",
    "analysis measure --int 0.8 --s 0.1 --e 0.01", "cover verify --tr 5",
    "box show --box=pr", "box show -h --box", "game omega --p 0.5 --he",
]


def parse_outcome(capsys, parse, argv):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGV_CORPUS)
def test_dispatch_parses_as_the_full_parser(capsys, argv):
    argv = argv.split()
    assert (parse_outcome(capsys, cli._parse, argv)
            == parse_outcome(capsys, cli._PARSER.parse_args, argv))


def test_dispatch_table_holds_every_command():
    from test_golden_cli import parser_commands

    assert sorted(cli._LEAVES) == sorted(parser_commands())


def command_files(path):
    """The input files ARGV_CORPUS names, written in ``path``."""
    (path / "identity.json").write_text(
        json.dumps(protocol_to_payload(bl.identity_protocol())))
    (path / "cover.json").write_text(
        json.dumps(cover_to_payload(octahedron_cover())))


@pytest.mark.parametrize("argv", ARGV_CORPUS)
def test_main_through_dispatch_equals_main_through_the_full_parser(
        capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    command_files(tmp_path)
    monkeypatch.setattr(acceptance, "run_all", lambda: [])

    def outcome():
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        return code, captured.out, captured.err, files

    dispatched = outcome()
    monkeypatch.setattr(cli, "_LEAVES", {})
    assert outcome() == dispatched


def test_commands_skip_the_full_parser(capsys, monkeypatch, tmp_path):
    def nested(argv):
        raise AssertionError("parsed by the full parser")

    monkeypatch.setattr(cli._PARSER, "parse_args", nested)
    monkeypatch.chdir(tmp_path)
    command_files(tmp_path)
    for argv in ARGV_CORPUS[:18]:           # the commands, not the suite
        assert main(argv.split() + ["--out", "out.json"]) == 0, argv
    capsys.readouterr()


# the JSON texts of the payloads of the serializers that built them from
# JSON strings
PR_BOX_JSON = (
    '{"x_size": 2, "y_size": 2, "a_size": 2, "b_size": 2, "table": '
    '[[[0.5, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5]], '
    '[[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]]]}')
IDENTITY_JSON = (
    '{"alphabets": [2, 2, 2, 2, 2, 2, 2, 2], "k": 1, "q_maps": [[0, 1]], '
    '"r_maps": [[0, 1]], "s_map": [0, 1, 0, 1], "t_map": [0, 1, 0, 1]}')
OCTAHEDRON_JSON = (
    '{"points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], '
    '[-1.0, -0.0, -0.0], [-0.0, -1.0, -0.0], [-0.0, -0.0, -1.0]], '
    '"covering_radius": 0.9286412092862907}')
CERTIFICATE_JSON = (
    '{"description": "two lines", "k": 1, "family": [[0.75, 0.0], '
    '[0.5, 0.5]], "p_star": 0.5, "gap": 0.10355339059327373, '
    '"resolution": 2, "version": "0.1.0"}')


def test_payloads_round_trip_and_keep_their_json_text():
    from boxlab import analysis, boxes, sphere

    box = bl.pr_box()
    assert boxes.box_to_json(box) == PR_BOX_JSON
    again = boxes.box_from_payload(boxes.box_to_payload(box))
    assert again.table.tobytes() == box.table.tobytes()
    mixed = bl.mix([bl.pr_box(), bl.local_box((0, 1), (1, 1))],
                   [0.1, 0.9])
    again = boxes.box_from_payload(boxes.box_to_payload(mixed))
    assert again.table.tobytes() == mixed.table.tobytes()

    pi = bl.identity_protocol()
    assert json.dumps(protocol_to_payload(pi)) == IDENTITY_JSON
    assert protocols.protocol_from_payload(
        protocols.protocol_to_payload(pi)) == pi

    cover = octahedron_cover()
    assert json.dumps(cover_to_payload(cover)) == OCTAHEDRON_JSON
    again = sphere.cover_from_payload(sphere.cover_to_payload(cover))
    assert again.points.tobytes() == cover.points.tobytes()
    assert again.covering_radius == cover.covering_radius

    family = protocols.LineFamily([0.75, 0.5], [0.0, 0.5])
    cert = analysis.find_hard_p(family, description="two lines", k=1)
    assert json.dumps(analysis.certificate_to_payload(cert)) \
        == CERTIFICATE_JSON


@pytest.mark.parametrize("envelope", [False, True])
def test_each_input_file_is_decoded_once(capsys, monkeypatch, tmp_path,
                                         envelope):
    def write(name, text):
        if envelope:
            text = json.dumps({"config": {}, "result": json.loads(text),
                               "version": bl.__version__})
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    box = write("box.json", bl.box_to_json(bl.pr_box()))
    other = write("other.json", bl.box_to_json(bl.local_box((0, 1), (1, 0))))
    proto = write("identity.json",
                  json.dumps(protocol_to_payload(bl.identity_protocol())))
    cover = write("cover.json",
                  json.dumps(cover_to_payload(octahedron_cover())))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(
        text) or loads(text, **kw))
    for argv, files in [
            (["box", "show", "--box", "file:" + box], 1),
            (["box", "tv", "--box", "file:" + box, "--other", "file:" + other],
             2),
            (["protocol", "run", "--protocol", proto, "--target",
              "file:" + box, "--source", "file:" + other], 3),
            (["cover", "verify", "--cover", cover, "--trials", "20"], 1)]:
        decoded.clear()
        assert main(argv) == 0, argv
        assert len(decoded) == files, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "protocol enumerate --binary --k 11",
    "protocol enumerate --binary --k 11 --count-only",
    "protocol enumerate --binary --k 40",
    "protocol enumerate --binary --k 40 --count-only",
    "protocol enumerate --x2 3 --y2 3 --a2 3 --b2 3 --k 7 --count-only",
    "protocol enumerate --x2 2 --y2 3 --a2 3 --b2 2 --k 40",
    "protocol enumerate --binary --k -1 --count-only",
    "protocol enumerate --binary --k 1" + "0" * 400,
    "protocol family --target pr --k 11",
    "protocol family --target pr --k 25",
    "protocol family --target pr --k 40 --up-to-k",
    "analysis gap --target pr --k 11",
    "analysis gap --k 40",
    # the counting bound is no bound for 1-letter response alphabets
    "protocol enumerate --x2 2 --y2 2 --a2 1 --b2 1 --k 2 --count-only",
    "protocol enumerate --x2 1 --y2 1 --a2 1 --b2 1 --k 10000000000 "
    "--count-only",
    "protocol enumerate --x2 2 --y2 2 --a2 1 --b2 1 --k 30000000 --count-only",
    "analysis schedule --x2 1 --y2 1 --a2 1 --b2 1 --k-max 3000000",
    # a 1x1x1x1 target has 16 protocols at every k
    "analysis gap --target file:{} --k 100000",
    "protocol family --target file:{} --k 3000000",
    # --binary sets every inner size to 2
    "protocol enumerate --binary --x2 3 --k 1 --count-only",
    "protocol enumerate --binary --b2 1 --k 1",
])
def test_doubly_exponential_counts_are_refused_before_they_are_built(
        capsys, tmp_path, argv):
    path = tmp_path / "one.json"
    path.write_text('{"x_size": 1, "y_size": 1, "a_size": 1, "b_size": 1, '
                    '"table": [[[1.0]]]}')
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.format(path).split())
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_protocol_enumerate_counts_up_to_the_digit_cap(capsys):
    # 4^(2 * 2^10) * 4^(2 * 2^10) has 2467 digits, the count 2465
    result = run_json(capsys, "protocol", "enumerate", "--binary", "--k", "10",
                      "--count-only")["result"]
    assert result["bound"] == 4 ** (4 * 2 ** 10)
    assert result["count"] == protocols.count_protocols(BINARY, 10)
    assert len(str(result["count"])) == 2465
