from __future__ import annotations

import faulthandler
import functools
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hmirisk import cli, embed
from hmirisk.cli import main
from hmirisk.graph import load_graph
from hmirisk.ingest import align_events, align_lines, parse_session_log
from hmirisk.metrics import trajectory_length
from hmirisk.pifnet import init_model, save_model, training_csv


class TestGraphValidate:
    def test_valid_graph_exits_zero(self, graph_file, capsys):
        assert main(["graph", "validate", str(graph_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_graph_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"screens": [{"id": "S", "width_px": 10, "height_px": 10}], "elements": []}))
        assert main(["graph", "validate", str(bad)]) == 1
        assert "no-roots" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["graph", "validate", str(tmp_path / "absent.json")]) == 2


class TestSimulate:
    def test_writes_one_file_per_session(self, sessions_dir):
        assert len(list(sessions_dir.glob("*.jsonl"))) == 6

    def test_seed_override_changes_output(self, graph_file, plan_file, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(a)])
        main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(b), "--seed", "99"])
        main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(c)])
        first = sorted(p.read_text() for p in a.glob("*.jsonl"))
        reseeded = sorted(p.read_text() for p in b.glob("*.jsonl"))
        repeat = sorted(p.read_text() for p in c.glob("*.jsonl"))
        assert first == repeat
        assert first != reseeded


class TestIngest:
    def test_prints_counts_and_writes_nothing(self, graph_file, sessions_dir, tmp_path, capsys):
        argv = ["ingest", "--graph", str(graph_file), "--sessions", str(sessions_dir)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "ingested")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == "aligned 18 steps from 6 session(s); 0 unaligned\n"

    def test_non_object_line_exits_two(self, graph_file, tmp_path, capsys):
        sessions = tmp_path / "bad_sessions"
        sessions.mkdir()
        (sessions / "a.jsonl").write_text("[1,2]\n")
        code = main(["ingest", "--graph", str(graph_file), "--sessions", str(sessions)])
        assert code == 2
        assert "line 1: expected a JSON object, got array" in capsys.readouterr().err

    def test_malformed_value_exits_two(self, graph_file, tmp_path, capsys):
        sessions = tmp_path / "bad_sessions"
        sessions.mkdir()
        (sessions / "a.jsonl").write_text('{"t_ms": null, "kind": "key"}\n')
        code = main(["ingest", "--graph", str(graph_file), "--sessions", str(sessions)])
        assert code == 2
        assert "line 1: malformed timestamp None" in capsys.readouterr().err


class TestHfe:
    def test_candidates_and_models(self, graph_file, sessions_dir, tmp_path):
        out = tmp_path / "hfe_out"
        t95 = tmp_path / "t95.csv"
        t95.write_text("path_id,t95_seconds\nP_1,158.5\n")  # a path of the graph that no session visits
        code = main(
            ["hfe", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--t95", str(t95), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "hfe.json").read_text())
        by_id = {c["path_id"]: c for c in doc["candidates"]}
        assert by_id["P_11"]["provenance"] == ["error_path"]
        assert by_id["P_13"]["provenance"] == ["time_path"]  # 8 s vs 2 s medians
        assert doc["time_models"]["P_1"]["source"] == "t95"
        assert doc["time_models"]["P_1"]["median_s"] == pytest.approx(100.0)
        assert doc["time_models"]["P_11"]["source"] == "empirical"

    def test_zero_duration_step_is_not_fitted(self, graph_file, tmp_path):
        """A step whose start and end share a timestamp is left out of the
        time model, as the detector leaves it out; a path with no positive
        duration gets a model only from a --t95 override."""
        session = tmp_path / "zero.jsonl"
        session.write_text(
            _session_lines(
                {"t_ms": 0, "kind": "step_start", "step_id": "s0"},
                {"t_ms": 0, "kind": "click", "x": 200, "y": 300, "screen": "A", "step_id": "s0"},
                {"t_ms": 0, "kind": "step_end", "step_id": "s0"},
                {"t_ms": 10, "kind": "step_start", "step_id": "s1"},
                {"t_ms": 20, "kind": "click", "x": 500, "y": 300, "screen": "A", "step_id": "s1"},
                {"t_ms": 900, "kind": "step_end", "step_id": "s1"},
            )
        )
        argv = ["hfe", "--graph", str(graph_file), "--sessions", str(session)]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        models = json.loads((tmp_path / "plain" / "hfe.json").read_text())["time_models"]
        assert list(models) == ["P_12"]
        assert models["P_12"]["source"] == "empirical"
        assert models["P_12"]["median_s"] == pytest.approx(0.89)
        t95 = tmp_path / "t95.csv"
        t95.write_text("path_id,t95_seconds\nP_11,158.5\n")
        assert main([*argv, "--t95", str(t95), "--out", str(tmp_path / "t95")]) == 0
        models = json.loads((tmp_path / "t95" / "hfe.json").read_text())["time_models"]
        assert models["P_11"]["source"] == "t95"
        assert models["P_11"]["median_s"] == pytest.approx(100.0)

    def test_target_spelling_does_not_split_a_path(self, graph_file, tmp_path):
        """A declared target is kept as its canonical path id, so a step whose
        click misses is binned with the steps that hit the same element,
        whether the target is spelled as the path id or the element id. A
        second procedure declares the same target for s1 in the other
        spelling, which is allowed."""
        session = tmp_path / "session.jsonl"
        session.write_text(
            _session_lines(
                {"t_ms": 0, "kind": "step_start", "step_id": "s0"},
                {"t_ms": 400, "kind": "click", "x": 200, "y": 300, "screen": "A", "step_id": "s0"},  # on N_11
                {"t_ms": 1000, "kind": "step_end", "step_id": "s0"},
                {"t_ms": 1100, "kind": "step_start", "step_id": "s1"},
                {"t_ms": 2000, "kind": "click", "x": 700, "y": 550, "screen": "A", "step_id": "s1"},  # on nothing
                {"t_ms": 3000, "kind": "step_end", "step_id": "s1"},
            )
        )
        written = {}
        for spelling, other in (("P_11", "N_11"), ("N_11", "P_11")):
            procedures = tmp_path / f"{spelling}.json"
            procedures.write_text(json.dumps([
                {"procedure_id": "PR", "steps": [{"step_id": s, "target_path": spelling} for s in ("s0", "s1")]},
                {"procedure_id": "PR2", "steps": [{"step_id": "s1", "target_path": other}]},
            ]))
            out = tmp_path / spelling
            argv = ["hfe", "--graph", str(graph_file), "--sessions", str(session), "--procedures", str(procedures)]
            assert main([*argv, "--out", str(out)]) == 0
            written[spelling] = (out / "hfe.json").read_bytes()
        assert written["N_11"] == written["P_11"]
        assert list(json.loads(written["P_11"])["time_models"]) == ["P_11"]


_FOLD = cli._fold


def _main_in_chunks(monkeypatch, chunks: int, argv: list[str]) -> int:
    """``main(argv)`` with the session files folded in ``chunks`` chunks; no
    child process may outlive the call, and a call that hangs for a minute
    ends the test run."""
    monkeypatch.setattr(cli, "_fold", functools.partial(_FOLD, _chunks=chunks))
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        return main(argv)
    finally:
        faulthandler.cancel_dump_traceback_later()
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)


def _break_first_line(path):
    """Make line 1 of a session file invalid JSON without changing its size."""
    data = path.read_bytes()
    end = data.index(b"\n")
    path.write_bytes(data[: end - 1] + b" " + data[end:])


class TestFold:
    def test_outputs_do_not_depend_on_the_chunk_count(self, graph_file, plan_file, sessions_dir, tmp_path, monkeypatch, capsys):
        procedures = tmp_path / "procs.json"
        procedures.write_text(json.dumps(json.loads(plan_file.read_text())["procedures"]))
        inputs = ["--graph", str(graph_file), "--sessions", str(sessions_dir)]
        assert all(cli._split(sorted(sessions_dir.glob("*.jsonl")), 3))  # three children's worth of files
        seen = {}
        for chunks in (1, 2, 3):
            out = tmp_path / f"chunks{chunks}"
            for command in ("report", "hfe"):
                argv = [command, *inputs, "--procedures", str(procedures), "--out", str(out / command)]
                assert _main_in_chunks(monkeypatch, chunks, argv) == 0
            assert _main_in_chunks(monkeypatch, chunks, ["metrics", *inputs, "--out", str(out / "metrics")]) == 0
            capsys.readouterr()
            assert _main_in_chunks(monkeypatch, chunks, ["ingest", *inputs]) == 0
            written = {
                str(p.relative_to(out)): re.sub(rb'"generated_at": "[^"]*"', b"", p.read_bytes())
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            seen[chunks] = (written, capsys.readouterr().out)
        assert len(seen[1][0]) == 6
        assert seen[1][1] == "aligned 18 steps from 6 session(s); 0 unaligned\n"
        assert seen[1] == seen[2] == seen[3]

    @pytest.mark.parametrize(
        "bad", [((1, 1),), ((0, 1),), ((0, 2), (1, 0))], ids=["chunk1", "chunk0", "chunks0and1"]
    )
    def test_error_names_the_first_bad_file_in_file_order(self, bad, graph_file, sessions_dir, tmp_path, monkeypatch, capsys):
        """``bad`` lists the (chunk, index) of each file of a 2-way split to break."""
        files = sorted(Path(shutil.copy(f, tmp_path)) for f in sessions_dir.glob("*.jsonl"))
        chunks = cli._split(files, 2)
        broken = [chunks[c][i] for c, i in bad]
        for path in broken:
            _break_first_line(path)
        assert cli._split(files, 2) == chunks
        first = min(broken, key=files.index)
        for command in (["ingest"], ["report", "--out", str(tmp_path / "report")]):
            argv = [*command, "--graph", str(graph_file), "--sessions", *map(str, files)]
            errors = []
            for n in (1, 2, 3):
                assert _main_in_chunks(monkeypatch, n, argv) == 2
                errors.append(capsys.readouterr().err)
            assert errors[0].startswith(f"error: {first}: line 1: not valid JSON") and errors[0].count("\n") == 1
            assert errors == [errors[0]] * 3

    def test_a_child_that_exits_without_a_result_is_an_error(self, graph_file, sessions_dir, monkeypatch, capsys):
        parent, fold_files = os.getpid(), cli._fold_files

        def dying(files, align):
            if os.getpid() != parent:
                os._exit(3)
            return fold_files(files, align)

        monkeypatch.setattr(cli, "_fold_files", dying)
        files = sorted(sessions_dir.glob("*.jsonl"))
        assert _main_in_chunks(monkeypatch, 2, ["ingest", "--graph", str(graph_file), "--sessions", *map(str, files)]) == 2
        second = cli._split(files, 2)[1]
        assert capsys.readouterr().err == (
            f"error: {second[0]}: the process folding this and the next {len(second) - 1} session file(s) "
            "exited with code 3 before sending its result\n"
        )


def test_the_commands_fork_without_multiprocessing():
    """Importing and starting ``multiprocessing`` costs about a megabyte of
    memory, so the session fold and the CV folds fork without it."""
    code = "import sys\nimport hmirisk.cli, hmirisk.pifnet\nprint('multiprocessing' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestMetrics:
    def test_csv_emitted(self, graph_file, sessions_dir, tmp_path):
        out = tmp_path / "metrics_out"
        code = main(["metrics", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("path_id,vd_num")
        assert len(lines) == 4  # header + three paths

    def test_span_is_mean_trajectory_length(self, graph_file, sessions_dir, tmp_path):
        out = tmp_path / "metrics_out"
        assert main(["metrics", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(out)]) == 0
        graph = load_graph(json.loads(graph_file.read_text()))
        lengths: dict[str, list[float]] = {}
        for file in sorted(sessions_dir.glob("*.jsonl")):
            for step in align_events(graph, parse_session_log(file.read_text().splitlines())).steps:
                if step.path_id is not None and step.trajectory:
                    lengths.setdefault(step.path_id, []).append(trajectory_length(step.trajectory))
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert {row[0]: row[5] for row in rows} == {p: f"{sum(v) / len(v):.2f}" for p, v in lengths.items()}


@pytest.fixture
def tiny_training_csv(tmp_path):
    rows = []
    for i in range(6):
        rows.append((f"A{i}", (0.0 + i / 100, 0.0, 0.0), "HSI0"))
        rows.append((f"B{i}", (5.0 + i / 100, 5.0, 5.0), "HSI1"))
    path = tmp_path / "train.csv"
    path.write_text(training_csv(rows))
    return path


class TestPif:
    def test_train_and_predict(self, tiny_training_csv, tmp_path, capsys):
        model_file = tmp_path / "model.npz"
        code = main(["pif", "train", "--data", str(tiny_training_csv), "--model-out", str(model_file)])
        assert code == 0
        assert model_file.exists()
        code = main(["pif", "predict", "--model", str(model_file), "--features", "5.0,5.0,5.0"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["label"] == "HSI1"
        assert abs(sum(record["probabilities"].values()) - 1.0) < 1e-9

    def test_cv_outputs_json(self, tiny_training_csv, capsys):
        code = main(["pif", "cv", "--data", str(tiny_training_csv), "--k", "3", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(payload["fold_accuracies"]) == 3
        assert payload["mean"] == 1.0

    def test_predict_requires_input(self, tiny_training_csv, tmp_path, capsys):
        model_file = tmp_path / "model.npz"
        main(["pif", "train", "--data", str(tiny_training_csv), "--model-out", str(model_file)])
        assert main(["pif", "predict", "--model", str(model_file)]) == 2


class TestReport:
    def test_end_to_end_report(self, graph_file, plan_file, sessions_dir, tmp_path):
        out = tmp_path / "report_out"
        procedures = tmp_path / "procs.json"
        procedures.write_text(json.dumps(json.loads(plan_file.read_text())["procedures"]))
        code = main(
            [
                "report",
                "--graph", str(graph_file),
                "--sessions", str(sessions_dir),
                "--procedures", str(procedures),
                "--out", str(out),
                "--seed", "0",
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert {c["path_id"] for c in doc["hfe"]["candidates"]} >= {"P_11"}
        assert len(doc["assessments"]) == 3
        for assessment in doc["assessments"]:
            assert assessment["pif_label"] in {"HSI0", "HSI1", "HSI5"}
            assert assessment["quadrant"] is not None
        assert (out / "durations_by_category.csv").exists()

    def test_config_section_controls_tau(self, graph_file, sessions_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"riskpath": {"tau": 100.0}}))
        out = tmp_path / "hfe_tau"
        main(
            ["hfe", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(out), "--config", str(config)]
        )
        doc = json.loads((out / "hfe.json").read_text())
        assert all("time_path" not in c["provenance"] for c in doc["candidates"])

    def test_missing_inputs_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])
        assert exc.value.code == 2
        assert "the following arguments are required: --graph, --sessions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["hfe", "--out", "{tmp}/out", "--graph", "{tmp}/nograph.json", "--sessions", "{sessions}"], "nograph.json"),
        (
            ["report", "--out", "{tmp}/out", "--graph", "{graph}", "--sessions", "{sessions}",
             "--procedures", "{tmp}/noprocs.json"],
            "noprocs.json",
        ),
        (
            ["metrics", "--out", "{tmp}/out", "--graph", "{graph}", "--sessions", "{tmp}/nosession.jsonl"],
            "nosession.jsonl",
        ),
        (["pif", "cv", "--data", "{tmp}/nodata.csv"], "nodata.csv"),
    ],
    ids=["graph", "procedures", "sessions", "pif-data"],
)
def test_missing_file_exits_two_and_names_it(argv, missing, graph_file, sessions_dir, tmp_path, capsys):
    paths = {"tmp": tmp_path, "graph": graph_file, "sessions": sessions_dir}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    assert missing in capsys.readouterr().err


# SHA-256 of each output file of the 40-session run below, "generated_at" stripped.
_PINNED_OUTPUTS = {
    "hfe/hfe.json": "95080eaa6bdc3f0e293173d3ebbd5a86bd396f98bb1dc8764916085b25ab96cd",
    "metrics/metrics.csv": "3a6ec0ee176b3f2d4e5fc01ab944546a0223ec593b8ba1691edc63bc23403881",
    "report/candidates.csv": "c4d3ae300c56985fae16edd43ff961f621da4ed942f192624812b8714989ac60",
    "report/durations_by_category.csv": "0ed592e70b719313a3c1875bea9e76aff9679304cfb09f42a28471a18e852acb",
    "report/metrics.csv": "3a6ec0ee176b3f2d4e5fc01ab944546a0223ec593b8ba1691edc63bc23403881",
    "report/report.json": "ddf37f11262f9d60413616d4d1734eeac514c270900c25a17902ea864ddcc478",
}


def test_session_order_does_not_change_outputs(graph_file, plan_file, tmp_path):
    """The same set of sessions listed in reverse gives the same bytes,
    apart from the report timestamp, and those bytes are pinned."""
    plan = json.loads(plan_file.read_text())
    plan["sessions_per_participant"] = 20
    plan_file.write_text(json.dumps(plan))
    procedures = tmp_path / "procs.json"
    procedures.write_text(json.dumps(plan["procedures"]))
    sessions = tmp_path / "sessions40"
    assert main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(sessions)]) == 0
    files = sorted(str(p) for p in sessions.glob("*.jsonl"))
    outputs = []
    for i, order in enumerate((files, files[::-1])):
        out = tmp_path / f"order{i}"
        for command in ("report", "hfe", "metrics"):
            argv = [command, "--graph", str(graph_file), "--sessions", *order, "--out", str(out / command)]
            assert main(argv + ["--procedures", str(procedures)] * (command != "metrics")) == 0
        outputs.append(
            {
                str(p.relative_to(out)): re.sub(rb'"generated_at": "[^"]*"', b"", p.read_bytes())
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs[0].items()} == _PINNED_OUTPUTS


class _Lines(list):
    """A list that a weak reference can follow."""


@pytest.mark.parametrize("command", ["report", "hfe", "metrics"])
def test_each_session_parsed_once_and_released(command, graph_file, sessions_dir, tmp_path, monkeypatch):
    parsed: list = []
    alive: list[weakref.ref] = []
    read_lines = cli._lines

    def lines_tracked(path):
        assert all(ref() is None for ref in alive), "an earlier session file's lines are still alive"
        lines = _Lines(read_lines(path))
        alive.append(weakref.ref(lines))
        return lines

    def align_tracked(graph, lines, targets):
        trace = align_lines(graph, lines, targets)
        parsed.append(trace.session_id)
        return trace

    monkeypatch.setattr(cli, "_lines", lines_tracked)
    monkeypatch.setattr(cli, "align_lines", align_tracked)
    argv = [command, "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    # Each session file holds one session, named after the file.
    assert sorted(parsed) == sorted(file.stem for file in sessions_dir.glob("*.jsonl"))


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--graph", "g.json", "--sessions", "s", "--out", "x"],
        ["graph", "validate", "g.json", "--seed", "1"],
        ["hfe", "--graph", "g.json", "--sessions", "s", "--seed", "1"],
        ["pif", "cv", "--out", "x"],
        ["pif", "predict", "--model", "m.npz", "--out", "x"],
        ["pif", "predict", "--model", "m.npz", "--config", "c.json"],
    ],
    ids=["ingest-out", "validate-seed", "hfe-seed", "cv-out", "predict-out", "predict-config"],
)
def test_flag_a_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, values, key",
    [
        ("pif", {"epochs": "300"}, "pif.epochs"),
        ("pif", {"epochs": 2.5}, "pif.epochs"),
        ("pif", {"epochs": -5}, "pif.epochs"),
        ("pif", {"dropout": 1.0}, "pif.dropout"),
        ("pif", {"learning_rate": float("nan")}, "pif.learning_rate"),
        ("embed", {"provider": "remot"}, "embed.provider"),
        ("riskpath", {"tau": False}, "riskpath.tau"),
        ("metrics", {"normalizer_px": 0}, "metrics.normalizer_px"),
    ],
)
def test_bad_config_value_exits_two_naming_key(section, values, key, tiny_training_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: values}))
    assert main(["pif", "cv", "--data", str(tiny_training_csv), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {config}: config {key}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["graph", "procedures", "config", "plan"])
def test_invalid_json_file_is_named(kind, graph_file, plan_file, sessions_dir, tmp_path, capsys):
    broken = tmp_path / f"broken-{kind}.json"
    broken.write_text('{"screens": [')
    argv = {
        "graph": ["graph", "validate", str(broken)],
        "procedures": ["ingest", "--graph", str(graph_file), "--procedures", str(broken)],
        "config": ["hfe", "--graph", str(graph_file), "--config", str(broken), "--out", str(tmp_path / "out")],
        "plan": ["simulate", "--graph", str(graph_file), "--plan", str(broken), "--out", str(tmp_path / "out")],
    }[kind]
    if kind in ("procedures", "config"):
        argv += ["--sessions", str(sessions_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {broken}: Expecting value: line 1")


def test_non_numeric_training_feature_names_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("path_id,vd,sid,is,label\nP_1,abc,0,0,HSI0\n")
    assert main(["pif", "cv", "--data", str(data)]) == 2
    assert "line 2: non-numeric feature" in capsys.readouterr().err


def test_non_finite_t95_exits_two_naming_line(graph_file, sessions_dir, tmp_path, capsys):
    t95 = tmp_path / "t95.csv"
    t95.write_text("path_id,t95_seconds\nTP_1,nan\n")
    out = tmp_path / "hfe_out"
    argv = ["hfe", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--t95", str(t95), "--out", str(out)]
    assert main(argv) == 2
    assert "line 2: t95 must be positive and finite" in capsys.readouterr().err
    assert not (out / "hfe.json").exists()


def _edit_plan(edit):
    """A plan-document edit: ``edit(plan, first_path)`` changes the fixture plan in place."""

    def apply(plan):
        edit(plan, plan["paths"][0])
        return plan

    return apply


@pytest.mark.parametrize(
    "document, message",
    [
        (lambda plan: [], "plan must be a JSON object, got list"),
        (_edit_plan(lambda plan, path: plan.pop("paths")), "plan has no 'paths'"),
        (_edit_plan(lambda plan, path: plan.update(paths={})), "plan paths must be an array, got dict"),
        (_edit_plan(lambda plan, path: plan["paths"].append(5)), "each plan path must be an object"),
        (_edit_plan(lambda plan, path: path.update(path_id=11)), "each plan path must be an object with a string path_id"),
        (_edit_plan(lambda plan, path: plan["paths"].append(path)), "path 'P_11' is listed twice"),
        (_edit_plan(lambda plan, path: path.pop("median_s")), "path 'P_11': missing median_s"),
        (_edit_plan(lambda plan, path: path.update(median_s=math.nan)), "path 'P_11': median_s must be a finite number"),
        (_edit_plan(lambda plan, path: path.update(median_s="2")), "path 'P_11': median_s must be a finite number"),
        (_edit_plan(lambda plan, path: path.update(median_s=10**400)), "path 'P_11': median_s must be a finite number"),
        (_edit_plan(lambda plan, path: path.update(median_s=0)), "path 'P_11': median_s must be a positive finite number"),
        (_edit_plan(lambda plan, path: path.update(sigma=-1)), "path 'P_11': sigma must be a non-negative finite number"),
        (_edit_plan(lambda plan, path: path.update(sigma=True)), "path 'P_11': sigma must be a finite number"),
        (_edit_plan(lambda plan, path: path.update(p_outcome=1.5)), "path 'P_11': p_outcome must be in [0, 1]"),
        (_edit_plan(lambda plan, path: plan.update(participants=2.5)), "participants must be a non-negative integer"),
        (
            _edit_plan(lambda plan, path: plan.update(sessions_per_participant=-3)),
            "sessions_per_participant must be a non-negative integer",
        ),
        (_edit_plan(lambda plan, path: plan.update(seed=True)), "seed must be a non-negative integer, got True"),
        (_edit_plan(lambda plan, path: plan.update(procedures=[1])), "procedures must be a JSON object or an array"),
        (
            _edit_plan(lambda plan, path: plan["procedures"][0]["steps"][1].pop("step_id")),
            "procedure 'PR', step 2: step_id must be a string, got None",
        ),
        (
            _edit_plan(lambda plan, path: plan["paths"].append({"path_id": "P_99", "median_s": 1.0})),
            "path 'P_99' has no terminal node in the graph",
        ),
    ],
)
def test_bad_plan_exits_two_naming_file(document, message, graph_file, plan_file, tmp_path, capsys):
    plan_file.write_text(json.dumps(document(json.loads(plan_file.read_text()))))
    out = tmp_path / "out"
    assert main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {plan_file}: ")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "1", "-1", "x"])
def test_fold_count_takes_only_integers_of_at_least_two(k, tiny_training_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pif", "cv", "--data", str(tiny_training_csv), "--k", k])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --k: must be an integer of at least 2, got '{k}'" in err
    assert "Traceback" not in err


def test_negative_seed_override_exits_two(graph_file, plan_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["pif", "train", "--model-out", "m.npz"],
        ["pif", "cv"],
        ["report", "--graph", "g.json", "--sessions", "s"],
    ],
    ids=["pif-train", "pif-cv", "report"],
)
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_flag_takes_only_non_negative_integers(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"paths": {"graph": "graph.json"}}, "unknown config sections ['paths']"),
        ({"riskpath": {"sigma": 0.28}}, "config section 'riskpath' has unknown keys ['sigma']"),
        ({"pif": {"k_folds": 5}}, "config section 'pif' has unknown keys ['k_folds']"),
        ({"pif": {"seed": 0}}, "config section 'pif' has unknown keys ['seed']"),
    ],
    ids=["paths", "riskpath.sigma", "pif.k_folds", "pif.seed"],
)
def test_removed_config_key_exits_two_naming_it(config, message, tiny_training_csv, tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config))
    assert main(["pif", "cv", "--data", str(tiny_training_csv), "--config", str(file)]) == 2
    assert capsys.readouterr() == ("", f"error: {file}: {message}\n")


@pytest.mark.parametrize(
    "document, message",
    [
        ([1], "procedures must be a JSON object or an array of objects"),
        ("PR", "procedures must be a JSON object or an array of objects"),
        ({"steps": []}, "procedure_id must be a string, got None"),
        ({"procedure_id": "PR", "steps": {"step_id": "s0"}}, "procedure 'PR': steps must be an array of objects"),
        ({"procedure_id": "PR", "steps": [{"step_id": 5}]}, "procedure 'PR', step 1: step_id must be a string, got 5"),
        (
            {"procedure_id": "PR", "steps": [{"step_id": "s0", "target_path": ["P_11"]}]},
            "procedure 'PR', step 1: target_path must be a string",
        ),
    ],
)
def test_bad_procedures_exit_two_naming_file(document, message, graph_file, sessions_dir, tmp_path, capsys):
    procedures = tmp_path / "procs.json"
    procedures.write_text(json.dumps(document))
    argv = ["ingest", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--procedures", str(procedures)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {procedures}: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(elements={"N_1": doc["elements"][0]}), "graph elements must be an array of objects"),
        (lambda doc: doc.update(screens={"A": doc["screens"][0]}), "graph screens must be an array of objects"),
        (lambda doc: doc["elements"].append(7), "graph elements must be an array of objects"),
        (lambda doc: doc["elements"][1].pop("x"), "element 'N_11': missing x"),
        (lambda doc: doc["elements"][1].pop("screen"), "element 'N_11': missing screen"),
        (lambda doc: doc["elements"][1].update(y=True), "element 'N_11': y must be a finite number, got True"),
        (lambda doc: doc["elements"][1].update(x=10**400), "element 'N_11': x must be a finite number"),
        (lambda doc: doc["elements"][1].update(bbox=[0, 0, "w", 1]), "element 'N_11': bbox[2] must be a finite number"),
        (lambda doc: doc["screens"][0].pop("id"), "screen 1: missing id"),
        (lambda doc: doc["screens"][1].pop("height_px"), "screen 'B': missing height_px"),
        (lambda doc: doc["screens"][0].update(width_px=-800), "screen 'A': width_px must be positive, got -800"),
        (lambda doc: doc["screens"][1].update(height_px=0), "screen 'B': height_px must be positive, got 0"),
        (lambda doc: doc["elements"][1].pop("id"), "element 2: missing id"),
        (lambda doc: doc["elements"][1].update(id=True), "element 2: id must be a string, got True"),
        (lambda doc: doc["elements"][1].update(name=None), "element 'N_11': name must be a string, got None"),
        (lambda doc: doc["elements"][1].update(screen=0), "element 'N_11': screen must be a string, got 0"),
        (lambda doc: doc["elements"][1].update(parent=1), "element 'N_11': parent must be a string, got 1"),
        (lambda doc: doc["screens"][0].update(id=5), "screen 1: id must be a string, got 5"),
    ],
)
def test_malformed_graph_document_names_field(edit, message, graph_file, capsys):
    doc = json.loads(graph_file.read_text())
    edit(doc)
    graph_file.write_text(json.dumps(doc))
    assert main(["graph", "validate", str(graph_file)]) == 1
    captured = capsys.readouterr()
    assert message in captured.out
    assert "Traceback" not in captured.out + captured.err


def _session_lines(*records):
    return "".join(json.dumps({"session_id": "S1", "participant_id": "P1", **r}) + "\n" for r in records)


@pytest.fixture
def cli_inputs(graph_file, plan_file, sessions_dir, tiny_training_csv, tmp_path):
    """Every kind of input file, well-formed and malformed, by placeholder name."""
    files = {
        "tmp": tmp_path,
        "graph": graph_file,
        "plan": plan_file,
        "sessions": sessions_dir,
        "data": tiny_training_csv,
        "broken": tmp_path / "broken.json",
        "no_roots": tmp_path / "no_roots.json",
        "no_x_graph": tmp_path / "no_x_graph.json",
        "negative_tau": tmp_path / "negative_tau.json",
        "zero_epochs": tmp_path / "zero_epochs.json",
        "procedures": tmp_path / "procs.json",
        "t95": tmp_path / "t95.csv",
        "bad_t95": tmp_path / "bad_t95.csv",
        "unknown_t95": tmp_path / "unknown_t95.csv",
        "bad_data": tmp_path / "bad_data.csv",
        "one_class": tmp_path / "one_class.csv",
        "one_row": tmp_path / "one_row.csv",
        "skew": tmp_path / "skew.csv",
        "model": tmp_path / "model.npz",
        "bad_model": tmp_path / "bad_model.npz",
        "npy_model": tmp_path / "array.npy",
        "ab_model": tmp_path / "ab.npz",
        "narrow_model": tmp_path / "narrow.npz",
        "int_model": tmp_path / "intlabels.npz",
        "raw_model": tmp_path / "raw.npz",
        "bad_session": tmp_path / "bad_session.jsonl",
        "unknown_screen": tmp_path / "unknown_screen.jsonl",
        "unknown_path_plan": tmp_path / "unknown_path_plan.json",
        "no_steps_plan": tmp_path / "no_steps_plan.json",
        "deep": tmp_path / "deep.json",
        "deep_line": tmp_path / "deep_line.jsonl",
        "deep_note": tmp_path / "deep_note.jsonl",
        "big_int": tmp_path / "big_int.jsonl",
        "deep_model": tmp_path / "deep_model.npz",
        "header_only": tmp_path / "header_only.csv",
        "zip_version_model": tmp_path / "zip_version.npz",
        "unknown_target": tmp_path / "unknown_target.json",
        "no_name_graph": tmp_path / "no_name_graph.json",
        "no_endpoint": tmp_path / "no_endpoint.json",
        "no_scheme": tmp_path / "no_scheme.json",
        "short_cache": tmp_path / "short_cache.json",
        "big_dim_cache": tmp_path / "big_dim_cache.json",
        "two_targets": tmp_path / "two_targets.json",
        "respelled_plan": tmp_path / "respelled_plan.json",
    }
    files["broken"].write_text('{"screens": [')
    files["no_roots"].write_text(json.dumps({"screens": [{"id": "S", "width_px": 10, "height_px": 10}], "elements": []}))
    no_x = json.loads(graph_file.read_text())
    no_x["elements"][1].pop("x")
    files["no_x_graph"].write_text(json.dumps(no_x))
    files["negative_tau"].write_text(json.dumps({"riskpath": {"tau": -1}}))
    files["zero_epochs"].write_text(json.dumps({"pif": {"epochs": 0}}))
    files["procedures"].write_text(json.dumps(json.loads(plan_file.read_text())["procedures"]))
    files["t95"].write_text("path_id,t95_seconds\nP_1,158.5\n")
    files["bad_t95"].write_text("path_id,t95_seconds\nP_1,soon\n")
    files["unknown_t95"].write_text("path_id,t95_seconds\nP_11,30\nP_99,158.5\n")
    files["bad_data"].write_text("path_id,vd,sid,is,label\nP_1,0,0\n")
    files["one_class"].write_text("path_id,vd,sid,is,label\nP_1,0,0,0,HSI0\nP_2,1,1,1,HSI0\n")
    files["one_row"].write_text("path_id,vd,sid,is,label\nP_1,0,0,0,HSI0\n")
    files["skew"].write_text("path_id,vd,sid,is,label\nP_1,0,0,0,HSI0\nP_2,1,1,1,HSI0\nP_3,2,2,2,HSI0\nP_4,3,3,3,HSI1\n")
    files["bad_model"].write_bytes(b"PK\x03\x04 not a model")
    np.save(files["npy_model"], np.zeros(3))
    save_model(init_model(0, ("A", "B")), files["ab_model"])
    narrow = init_model(0, ("HSI0", "HSI1"))
    narrow.params["W0"] = narrow.params["W0"][:, :127]
    save_model(narrow, files["narrow_model"])
    save_model(init_model(0, (1, 2)), files["int_model"])
    save_model(init_model(0, ("HSI0", "HSI1")), files["raw_model"])
    files["bad_session"].write_text(_session_lines({"t_ms": 0, "kind": "key"}, {"t_ms": -5, "kind": "key"}))
    files["unknown_screen"].write_text(
        _session_lines(
            {"t_ms": 0, "kind": "step_start", "step_id": "s0"},
            {"t_ms": 5, "kind": "click", "x": 1, "y": 1, "screen": "NOPE", "step_id": "s0"},
            {"t_ms": 9, "kind": "step_end", "step_id": "s0"},
        )
    )
    plan = json.loads(plan_file.read_text())
    plan["paths"].append({"path_id": "P_99", "median_s": 1.0})
    files["unknown_path_plan"].write_text(json.dumps(plan))
    respelled = json.loads(plan_file.read_text())
    respelled["procedures"][0]["steps"][0]["target_path"] = "N_11"  # "paths" lists it as P_11
    files["respelled_plan"].write_text(json.dumps(respelled))
    files["no_steps_plan"].write_text(json.dumps({"procedures": [{"procedure_id": "PR", "steps": []}], "paths": []}))
    deep = "[" * 100_000 + "]" * 100_000
    files["deep"].write_text(deep)
    files["deep_line"].write_text(_session_lines({"t_ms": 0, "kind": "key"}) + deep + "\n")
    files["deep_note"].write_text(_session_lines({"t_ms": 0, "kind": "key", "note": []}).replace("[]", deep))
    files["big_int"].write_text(_session_lines({"t_ms": 0, "kind": "key"}, {"t_ms": 1, "kind": "key", "note": 0}).replace('"note": 0', '"note": ' + "9" * 4301))
    np.savez(files["deep_model"], meta_json=np.frombuffer(deep.encode(), dtype=np.uint8))
    files["header_only"].write_text("path_id,vd,sid,is,label\n")
    assert main(["pif", "train", "--data", str(tiny_training_csv), "--model-out", str(files["model"])]) == 0
    archive = bytearray(files["model"].read_bytes())
    archive[archive.index(b"PK\x01\x02") + 6] ^= 0xFF  # first central-directory entry: version needed to extract
    files["zip_version_model"].write_bytes(archive)
    procedures = json.loads(files["procedures"].read_text())
    procedures[0]["steps"][1]["target_path"] = "P_999"
    files["unknown_target"].write_text(json.dumps(procedures))
    no_name = json.loads(graph_file.read_text())
    no_name["elements"][2].pop("name")
    files["no_name_graph"].write_text(json.dumps(no_name))
    files["no_endpoint"].write_text(json.dumps({"embed": {"provider": "remote"}}))
    files["no_scheme"].write_text(json.dumps({"embed": {"provider": "remote", "endpoint": "embed-service"}}))
    files["two_targets"].write_text(json.dumps([
        {"procedure_id": "A", "steps": [{"step_id": "s1", "target_path": "N_11"}]},
        {"procedure_id": "B", "steps": [{"step_id": "s1", "target_path": "P_12"}]},
    ]))
    # A cache file whose one record is too short to hold its header, and one
    # whose header claims a million floats.
    records = {
        "short_cache": struct.pack("<I", 4) + b"abcd",
        "big_dim_cache": struct.pack("<I", 44) + bytes(32) + struct.pack("<I", 10**6) + bytes(8),
    }
    for name, record in records.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "local-trigram-v1.embcache").write_bytes(b"HMEC\x01" + record)
        files[name].write_text(json.dumps({"embed": {"cache_dir": str(tmp_path / name)}}))
    return files


_SESSIONS = ["--graph", "{graph}", "--sessions"]
_UNKNOWN_TARGET = "{unknown_target}: procedure 'PR', step 's1': path 'P_999' has no terminal node in the graph"
_NO_NAME = "{no_name_graph}: element 'N_12': a name is needed to compare it with its screen"
_BAD_CACHE = "{tmp}/%s/local-trigram-v1.embcache: cache record at byte 5: length %d does not fit its header"

# command, argv, expected exit code, what every error line must name
_EXIT_CODES = {
    "graph validate": [
        (["{graph}"], 0, None),
        (["{tmp}/absent.json"], 2, "{tmp}/absent.json"),
        (["{broken}"], 2, "{broken}"),
        (["{no_roots}"], 1, None),
        (["{deep}"], 2, "{deep}: not valid JSON (nested too deeply)"),
    ],
    "simulate": [
        (["--graph", "{graph}", "--plan", "{plan}", "--out", "{tmp}/sim"], 0, None),
        (["--graph", "{graph}", "--plan", "{tmp}/absent.json", "--out", "{tmp}/sim"], 2, "{tmp}/absent.json"),
        (["--graph", "{graph}", "--plan", "{broken}", "--out", "{tmp}/sim"], 2, "{broken}"),
        (["--graph", "{graph}", "--plan", "{unknown_path_plan}", "--out", "{tmp}/sim"], 2, "{unknown_path_plan}"),
        (["--graph", "{graph}", "--plan", "{no_steps_plan}", "--out", "{tmp}/sim"], 2, "{no_steps_plan}: plan declares no procedure steps"),
        (["--graph", "{graph}", "--plan", "{respelled_plan}", "--out", "{tmp}/sim"], 0, None),
    ],
    "ingest": [
        ([*_SESSIONS, "{sessions}"], 0, None),
        ([*_SESSIONS, "{tmp}/absent.jsonl"], 2, "{tmp}/absent.jsonl"),
        ([*_SESSIONS, "{sessions}", "{bad_session}"], 2, "{bad_session}: line 2: negative timestamp -5"),
        ([*_SESSIONS, "{unknown_screen}"], 2, "{unknown_screen}: screen 'NOPE' is not declared in the graph"),
        (["--graph", "{no_x_graph}", "--sessions", "{sessions}"], 2, "{no_x_graph}: element 'N_11': missing x"),
        ([*_SESSIONS, "{deep_line}"], 2, "{deep_line}: line 2: not valid JSON (nested too deeply)"),
        ([*_SESSIONS, "{deep_note}"], 2, "{deep_note}: line 1: not valid JSON (nested too deeply)"),
        ([*_SESSIONS, "{big_int}"], 2, "{big_int}: line 2: not valid JSON (Exceeds the limit (4300 digits)"),
        ([*_SESSIONS, "{sessions}", "--procedures", "{unknown_target}"], 2, _UNKNOWN_TARGET),
    ],
    "hfe": [
        ([*_SESSIONS, "{sessions}", "--t95", "{t95}", "--out", "{tmp}/hfe"], 0, None),
        ([*_SESSIONS, "{sessions}", "--t95", "{tmp}/absent.csv", "--out", "{tmp}/hfe"], 2, "{tmp}/absent.csv"),
        ([*_SESSIONS, "{sessions}", "--t95", "{bad_t95}", "--out", "{tmp}/hfe"], 2, "{bad_t95}: line 2"),
        ([*_SESSIONS, "{sessions}", "--procedures", "{unknown_target}", "--out", "{tmp}/hfe"], 2, _UNKNOWN_TARGET),
        ([*_SESSIONS, "{sessions}", "--t95", "{unknown_t95}", "--out", "{tmp}/hfe"], 2,
         "{unknown_t95}: line 3: path 'P_99' has no terminal node in the graph"),
        ([*_SESSIONS, "{sessions}", "{bad_session}", "--t95", "{bad_t95}", "--out", "{tmp}/hfe"], 2, "{bad_t95}: line 2"),
        ([*_SESSIONS, "{sessions}", "--procedures", "{two_targets}", "--out", "{tmp}/hfe"], 2,
         "{two_targets}: step 's1' targets P_11 in procedure 'A' and P_12 in procedure 'B'"),
    ],
    "metrics": [
        ([*_SESSIONS, "{sessions}", "--out", "{tmp}/metrics"], 0, None),
        (["--graph", "{tmp}/absent.json", "--sessions", "{sessions}", "--out", "{tmp}/metrics"], 2, "{tmp}/absent.json"),
        (["--graph", "{broken}", "--sessions", "{sessions}", "--out", "{tmp}/metrics"], 2, "{broken}"),
        (["--graph", "{no_roots}", "--sessions", "{sessions}", "--out", "{tmp}/metrics"], 2, "{no_roots}: invalid graph"),
        (["--graph", "{no_name_graph}", "--sessions", "{sessions}", "--out", "{tmp}/metrics"], 2, _NO_NAME),
        ([*_SESSIONS, "{sessions}", "--config", "{no_endpoint}", "--out", "{tmp}/metrics"], 2,
         "{no_endpoint}: config embed.endpoint: must be set when embed.provider is 'remote'"),
        ([*_SESSIONS, "{sessions}", "--config", "{short_cache}", "--out", "{tmp}/metrics"], 2, _BAD_CACHE % ("short_cache", 4)),
        ([*_SESSIONS, "{sessions}", "--config", "{big_dim_cache}", "--out", "{tmp}/metrics"], 2, _BAD_CACHE % ("big_dim_cache", 44)),
        ([*_SESSIONS, "{sessions}", "--config", "{no_scheme}", "--out", "{tmp}/metrics"], 2,
         "{no_scheme}: config embed.endpoint: must be an http:// or https:// URL, got 'embed-service'"),
    ],
    "pif train": [
        (["--data", "{data}", "--model-out", "{tmp}/trained.npz"], 0, None),
        (["--data", "{tmp}/absent.csv", "--model-out", "{tmp}/trained.npz"], 2, "{tmp}/absent.csv"),
        (["--data", "{bad_data}", "--model-out", "{tmp}/trained.npz"], 2, "{bad_data}: line 2"),
        (["--data", "{one_class}", "--model-out", "{tmp}/trained.npz"], 2, "{one_class}: training rows contain a single class"),
        (["--data", "{one_row}", "--model-out", "{tmp}/trained.npz"], 2, "{one_row}: need at least 2 training rows"),
        (["--config", "{zero_epochs}", "--model-out", "{tmp}/trained.npz"], 2, "{zero_epochs}: config pif.epochs: must be positive, got 0"),
    ],
    "pif cv": [
        (["--data", "{data}", "--k", "3"], 0, None),
        (["--data", "{data}", "--config", "{tmp}/absent.json"], 2, "{tmp}/absent.json"),
        (["--data", "{data}", "--config", "{broken}"], 2, "{broken}"),
        (["--data", "{data}", "--config", "{negative_tau}"], 2, "{negative_tau}: config riskpath.tau: must be non-negative"),
        (["--k", "50"], 2, "--k: 50 exceeds the 39 training rows"),
        (["--data", "{one_class}"], 2, "{one_class}: training rows contain a single class"),
        (["--data", "{skew}", "--k", "2"], 2, "--k: 2 folds of {skew} leave training split 2 with the single label HSI0"),
        (["--data", "{data}", "--config", "{deep}"], 2, "{deep}: not valid JSON (nested too deeply)"),
    ],
    "pif predict": [
        (["--model", "{model}", "--features", "5,5,5"], 0, None),
        (["--model", "{tmp}/absent.npz", "--features", "5,5,5"], 2, "{tmp}/absent.npz"),
        (["--model", "{bad_model}", "--features", "5,5,5"], 2, "{bad_model}"),
        (["--model", "{npy_model}", "--features", "5,5,5"], 2, "{npy_model}"),
        (["--model", "{model}", "--features", "5,five,5"], 2, "--features"),
        (["--model", "{model}", "--features", "5,5"], 2, "--features"),
        (["--model", "{narrow_model}", "--features", "5,5,5"], 2, "{narrow_model}: not a readable model file (param_W0: float32 array of shape (3, 127), expected a float array of shape (3, 128))"),
        (["--model", "{raw_model}", "--features", "5,5,5"], 2, "{raw_model}: model is not trained"),
        (["--model", "{int_model}", "--features", "5,5,5"], 2, "{int_model}: not a readable model file (label_order must be distinct strings, got [1, 2])"),
        (["--model", "{deep_model}", "--features", "5,5,5"], 2, "{deep_model}: not a readable model file (maximum recursion depth"),
        (["--model", "{model}", "--data", "{header_only}"], 2, "{header_only}: no rows to predict"),
        (["--model", "{model}", "--features", ""], 2, "--features: could not convert string to float: ''"),
        (["--model", "{zip_version_model}", "--features", "5,5,5"], 2, "{zip_version_model}: not a readable model file (zip file version"),
    ],
    "report": [
        ([*_SESSIONS, "{sessions}", "--procedures", "{procedures}", "--out", "{tmp}/report"], 0, None),
        ([*_SESSIONS, "{sessions}", "--procedures", "{tmp}/absent.json", "--out", "{tmp}/report"], 2, "{tmp}/absent.json"),
        ([*_SESSIONS, "{sessions}", "--procedures", "{broken}", "--out", "{tmp}/report"], 2, "{broken}"),
        ([*_SESSIONS, "{sessions}", "--model", "{bad_model}", "--out", "{tmp}/report"], 2, "{bad_model}"),
        ([*_SESSIONS, "{sessions}", "--model", "{ab_model}", "--out", "{tmp}/report"], 2, "{ab_model}: model labels A, B are not PIF levels"),
        ([*_SESSIONS, "{sessions}", "--model", "{narrow_model}", "--out", "{tmp}/report"], 2, "{narrow_model}: not a readable model file (param_W0: float32 array of shape (3, 127), expected a float array of shape (3, 128))"),
        ([*_SESSIONS, "{sessions}", "--model", "{int_model}", "--out", "{tmp}/report"], 2, "{int_model}: not a readable model file (label_order must be distinct strings, got [1, 2])"),
        ([*_SESSIONS, "{sessions}", "--model", "{raw_model}", "--out", "{tmp}/report"], 2, "{raw_model}: model is not trained"),
        ([*_SESSIONS, "{sessions}", "--model", "{zip_version_model}", "--out", "{tmp}/report"], 2, "{zip_version_model}: not a readable model file (zip file version"),
        (["--graph", "{no_name_graph}", "--sessions", "{sessions}", "--out", "{tmp}/report"], 2, _NO_NAME),
        ([*_SESSIONS, "{sessions}", "{bad_session}", "--model", "{bad_model}", "--out", "{tmp}/report"], 2, "{bad_model}"),
    ],
}


@pytest.mark.parametrize(
    "command, argv, code, named",
    [(command, *case) for command, cases in _EXIT_CODES.items() for case in cases],
    ids=[f"{command}-{i}" for command, cases in _EXIT_CODES.items() for i in range(len(cases))],
)
def test_exit_code_of_every_command(command, argv, code, named, cli_inputs, capsys):
    """0 on success, 2 on a missing or malformed input (each error line starts
    with the file or flag at fault, or is the OS's missing-file message, which
    names the file), 1 when a graph breaks an invariant; never a traceback."""
    argv = [*command.split(), *(arg.format(**cli_inputs) for arg in argv)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if named is None:
        assert captured.err == ""
    else:
        lines, named = captured.err.splitlines(), named.format(**cli_inputs)
        assert lines and all(
            line.startswith(f"error: {named}") or line.startswith("error: [Errno 2] ") and named in line for line in lines
        )


def test_unreachable_embedding_endpoint_exits_two(cli_inputs, monkeypatch, capsys):
    """A remote embedding service that cannot be reached is one error line
    naming the config key, not a traceback."""
    monkeypatch.setattr(embed.time, "sleep", lambda seconds: None)  # no retry back-off
    config = cli_inputs["tmp"] / "remote.json"
    config.write_text(json.dumps({"embed": {"provider": "remote", "endpoint": "http://127.0.0.1:9/embed"}}))
    argv = ["metrics", "--config", str(config), "--graph", str(cli_inputs["graph"]), "--sessions", str(cli_inputs["sessions"])]
    assert main([*argv, "--out", str(cli_inputs["tmp"] / "metrics")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: embed.endpoint: http://127.0.0.1:9/embed: ")
