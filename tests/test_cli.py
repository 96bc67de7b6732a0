from __future__ import annotations

import json
import re
import weakref

import pytest

from hmirisk import cli
from hmirisk.cli import main
from hmirisk.graph import graph_to_document, load_graph
from hmirisk.ingest import align_events, parse_session_log
from hmirisk.metrics import trajectory_length
from hmirisk.pifnet import training_csv


@pytest.fixture
def graph_file(two_screen_graph, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_document(two_screen_graph)))
    return path


@pytest.fixture
def plan_file(tmp_path):
    plan = {
        "procedures": [
            {
                "procedure_id": "PR",
                "steps": [
                    {"step_id": "s0", "text": "check pump speed", "target_path": "P_11"},
                    {"step_id": "s1", "text": "check pump pressure", "target_path": "P_12"},
                    {"step_id": "s2", "text": "check valve position", "target_path": "P_13"},
                ],
            }
        ],
        "paths": [
            {"path_id": "P_11", "median_s": 2.0, "p_execution": 1.0},
            {"path_id": "P_12", "median_s": 2.0},
            {"path_id": "P_13", "median_s": 8.0},
        ],
        "participants": 2,
        "sessions_per_participant": 3,
        "seed": 5,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


@pytest.fixture
def sessions_dir(graph_file, plan_file, tmp_path):
    out = tmp_path / "sessions"
    assert main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(out)]) == 0
    return out


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
        t95.write_text("path_id,t95_seconds\nP_99,158.5\n")
        code = main(
            ["hfe", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--t95", str(t95), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "hfe.json").read_text())
        by_id = {c["path_id"]: c for c in doc["candidates"]}
        assert by_id["P_11"]["provenance"] == ["error_path"]
        assert by_id["P_13"]["provenance"] == ["time_path"]  # 8 s vs 2 s medians
        assert doc["time_models"]["P_99"]["source"] == "t95"
        assert doc["time_models"]["P_99"]["median_s"] == pytest.approx(100.0)
        assert doc["time_models"]["P_11"]["source"] == "empirical"


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
        graph = load_graph(graph_file)
        lengths: dict[str, list[float]] = {}
        for file in sorted(sessions_dir.glob("*.jsonl")):
            for step in align_events(graph, parse_session_log(file)).steps:
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

    def test_paths_section_supplies_inputs(self, graph_file, sessions_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"graph": str(graph_file), "sessions": str(sessions_dir)}}))
        assert main(["ingest", "--config", str(config)]) == 0
        assert "aligned 18 steps" in capsys.readouterr().out

    def test_missing_inputs_exit_two(self, capsys):
        assert main(["ingest"]) == 2
        assert "no session files" in capsys.readouterr().err


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


def test_session_order_does_not_change_outputs(graph_file, plan_file, tmp_path):
    """The same set of sessions listed in reverse gives the same bytes,
    apart from the report timestamp."""
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


@pytest.mark.parametrize("command", ["report", "hfe", "metrics"])
def test_each_session_parsed_once_and_released(command, graph_file, sessions_dir, tmp_path, monkeypatch):
    parsed: list = []
    alive: list[weakref.ref] = []

    def parse_tracked(source):
        assert all(ref() is None for ref in alive), "an earlier SessionLog is still alive"
        log = parse_session_log(source)
        parsed.append(source)
        alive.append(weakref.ref(log))
        return log

    monkeypatch.setattr(cli, "parse_session_log", parse_tracked)
    argv = [command, "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert sorted(parsed) == sorted(sessions_dir.glob("*.jsonl"))


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--out", "x"],
        ["graph", "validate", "g.json", "--seed", "1"],
        ["hfe", "--seed", "1"],
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
        ("pif", {"k_folds": 2.5}, "pif.k_folds"),
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
    assert captured.err.startswith(f"error: config {key}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["graph", "procedures", "config", "plan"])
def test_invalid_json_file_is_named(kind, graph_file, plan_file, sessions_dir, tmp_path, capsys):
    broken = tmp_path / f"broken-{kind}.json"
    broken.write_text('{"screens": [')
    argv = {
        "graph": ["graph", "validate", str(broken)],
        "procedures": ["ingest", "--graph", str(graph_file), "--procedures", str(broken)],
        "config": ["ingest", "--graph", str(graph_file), "--config", str(broken)],
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
