from __future__ import annotations

import json

import pytest

from hmirisk.cli import main
from hmirisk.graph import graph_to_document
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
    def test_emits_traces_and_samples(self, graph_file, sessions_dir, tmp_path, capsys):
        out = tmp_path / "ingested"
        code = main(["ingest", "--graph", str(graph_file), "--sessions", str(sessions_dir), "--out", str(out)])
        assert code == 0
        samples = json.loads((out / "samples.json").read_text())
        assert set(samples) == {"P_11", "P_12", "P_13"}
        assert samples["P_11"]["attempts"] == 6
        assert samples["P_11"]["error_counts"]["execution"] == 6
        traces = json.loads((out / "traces.json").read_text())
        assert len(traces) == 6
        assert "aligned 18 steps" in capsys.readouterr().out

    def test_non_object_line_exits_two(self, graph_file, tmp_path, capsys):
        sessions = tmp_path / "bad_sessions"
        sessions.mkdir()
        (sessions / "a.jsonl").write_text("[1,2]\n")
        code = main(["ingest", "--graph", str(graph_file), "--sessions", str(sessions), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 1: expected a JSON object, got array" in capsys.readouterr().err


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
        out = tmp_path / "from_config"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "samples.json").exists()

    def test_missing_inputs_exit_two(self, capsys):
        assert main(["ingest", "--out", "/tmp/x"]) == 2
        assert "no session files" in capsys.readouterr().err
