import io
import json
import tracemalloc

import numpy as np
import pytest

import boxlab as bl
from boxlab import acceptance, cli, protocols
from boxlab.cli import main
from boxlab.protocols import (BINARY, DeterministicProtocol, protocol_from_json,
                              protocol_to_json)
from boxlab.sphere import cover_to_json, octahedron_cover


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


@pytest.mark.parametrize("box", ["pr", "local:0,1:1,1"])
def test_box_sample_draws_in_blocks(capsys, monkeypatch, box):
    argv = ("box", "sample", "--box", box, "--x", "1", "--y", "1",
            "--n", "10007", "--seed", "9")
    _, whole, _ = run(capsys, *argv)
    _, whole_csv, _ = run(capsys, *argv, "--format", "csv")
    monkeypatch.setattr(cli, "PATH_TABLE_CAP", 1000)
    code, blocked, _ = run(capsys, *argv)
    assert code == 0 and blocked == whole
    code, blocked_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and blocked_csv == whole_csv
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


def in_memory_csv(args, csv_rows, csv_header):
    """Reference: the CSV text of a command rendered whole in memory."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func",) and v is not None}
    buf = io.StringIO()
    buf.write("# config=%s version=%s\n"
              % (json.dumps(config, sort_keys=True, allow_nan=False),
                 bl.__version__))
    buf.write(",".join(csv_header) + "\n")
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

    def both(args, payload, csv_rows=None, csv_header=None):
        rows = list(csv_rows)
        rendered.append(in_memory_csv(args, rows, csv_header))
        emit(args, payload, csv_rows=rows, csv_header=csv_header)

    monkeypatch.setattr(cli, "_emit", both)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == rendered[-1]
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, *argv, "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == rendered[-1].encode("utf-8")
    assert not (tmp_path / "rows.csv.tmp").exists()


def test_csv_sample_memory_does_not_grow_with_n(capsys, monkeypatch,
                                                tmp_path):
    monkeypatch.setattr(cli, "PATH_TABLE_CAP", 1000)
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
    # blocks of 1,000 draws; the whole 10^5-row text would be 1.2 MB
    assert max(peaks[1:]) < 0.5e6


def test_failed_csv_stream_leaves_no_file(capsys, monkeypatch, tmp_path):
    draws = []
    sample = bl.boxes.sample

    def fail_second_block(*args):
        draws.append(1)
        if len(draws) == 2:
            raise MemoryError
        return sample(*args)

    monkeypatch.setattr(cli, "PATH_TABLE_CAP", 1000)
    monkeypatch.setattr(bl.boxes, "sample", fail_second_block)
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "box", "sample", "--box", "pr", "--x", "0",
                         "--y", "0", "--n", "5000", "--format", "csv",
                         "--out", str(path))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


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
    return protocol_to_json(DeterministicProtocol(BINARY, k, maps, maps,
                                                  zeros, zeros))


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
    path.write_text(protocol_to_json(bl.identity_protocol()))
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
        protocol = protocol_from_json(path.read_text())
        want = bl.check_reduction(protocol, bl.pr_box(), bl.pr_box(), 0.1)
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
             "cover points must be unit vectors")):
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
    "cover": (lambda: cover_to_json(octahedron_cover()),
              ["cover", "verify", "--cover", "{}", "--trials", "20"]),
    "protocol": (lambda: protocol_to_json(bl.identity_protocol()),
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
    "analysis gap --resolution 1",
    "analysis measure --intercept 0.8 --slope 0.1 --epsilon nan",
    "box sample --box pr --x 0 --y 0 --n 0",
    "box sample --box pr --x 0 --y 0 --n -3",
    "game omega --p 2",
    "analysis schedule --c inf",
    "analysis schedule --k-max 11",
    "analysis schedule --k-max 40",
    "analysis schedule --x2 0",
    "protocol family --target pr --k -1",
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
