from __future__ import annotations

import json
from importlib import resources

import pytest

from hmirisk.config import AppConfig
from hmirisk.ingest import PathSamples
from hmirisk.metrics import MetricCounts, MetricVector
from hmirisk.report import (
    ConflictQuadrant,
    assemble_report,
    candidates_csv,
    conflict_quadrant,
    default_conflict_set,
    duration_series_csv,
    report_from_dict,
    report_json,
    report_to_dict,
    write_report_files,
)
from hmirisk.risk import HfeReport, PathRisk, detect_error_paths, identify_hfes


class TestConflictQuadrant:
    def test_high_severity_with_error(self):
        assert conflict_quadrant("HSI5", True) is ConflictQuadrant.CONFLICT_AND_ERROR

    def test_low_severity_with_error(self):
        assert conflict_quadrant("HSI1", True) is ConflictQuadrant.ERROR_ONLY

    def test_well_designed_without_error(self):
        assert conflict_quadrant("HSI0", False) is ConflictQuadrant.NEITHER

    def test_high_severity_without_error(self):
        assert conflict_quadrant("HSI5", False) is ConflictQuadrant.CONFLICT_ONLY

    def test_total_over_all_labels_and_error_states(self):
        for i in range(16):
            for error in (True, False):
                assert conflict_quadrant(f"HSI{i}", error) in ConflictQuadrant

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            conflict_quadrant("HSI99", True)

    def test_default_set_is_weight_threshold(self):
        expected = {"HSI2", "HSI5", "HSI6", "HSI7", "HSI10", "HSI11", "HSI12", "HSI13", "HSI14", "HSI15"}
        assert default_conflict_set() == expected


def metric(vd=0.25, sid=0.0, span=0.1, n=4):
    return MetricVector(
        vd=vd,
        sid=sid,
        is_norm=span,
        raw=MetricCounts(n, int(round(sid * (n - 1))), n - 1, span * 1000.0, 1000.0),
    )


def samples_with_error(path_id):
    return {
        path_id: PathSamples(durations=[1.0, 2.0], attempts=2, execution_errors=1, outcome_errors=1, error_steps=1)
    }


class TestAssembleReport:
    def test_empty_analysis_is_valid(self, two_screen_graph):
        cfg = AppConfig()
        report = assemble_report(two_screen_graph, HfeReport((), {}, ()), [], cfg, generated_at="t0")
        doc = report_to_dict(report)
        assert doc["hfe"]["candidates"] == []
        assert doc["assessments"] == []
        assert report_from_dict(doc) == report

    def test_round_trip_with_content(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, {"P_12"}, two_screen_graph)
        rows = [
            ("P_11", metric(), "HSI1", {"HSI0": 0.1, "HSI1": 0.8, "HSI5": 0.1}),
            ("P_12", metric(sid=0.5), "HSI5", {"HSI0": 0.1, "HSI1": 0.2, "HSI5": 0.7}),
        ]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        parsed = report_from_dict(json.loads(report_json(report)))
        assert parsed == report

    def test_quadrants_assigned_per_error_determination(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [
            ("P_11", metric(), "HSI1", {}),
            ("P_12", metric(), "HSI5", {}),
            ("P_13", metric(), None, {}),
        ]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        by_id = {a.path_id: a for a in report.assessments}
        assert by_id["P_11"].quadrant is ConflictQuadrant.ERROR_ONLY
        assert by_id["P_12"].quadrant is ConflictQuadrant.CONFLICT_ONLY
        assert by_id["P_13"].quadrant is None

    def test_determinism_modulo_timestamp(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [("P_11", metric(), "HSI0", {"HSI0": 1.0})]
        one = report_json(assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0"))
        two = report_json(assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0"))
        assert one == two

    def test_candidate_appears_exactly_once(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, {"P_11", "P_12"}, two_screen_graph)
        report = assemble_report(two_screen_graph, hfe, [], AppConfig(), generated_at="t0")
        ids = [c.path_id for c in report.hfe.candidates]
        assert sorted(ids) == sorted(set(ids))

    def test_unknown_candidate_path_rejected(self, two_screen_graph):
        bogus = HfeReport(
            (PathRisk("P_99", 0.5, frozenset(), False, 0.0, frozenset({"error_path"})),), {}, ()
        )
        with pytest.raises(KeyError):
            assemble_report(two_screen_graph, bogus, [], AppConfig(), generated_at="t0")

    def test_conflict_summary_counts(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [("P_11", metric(), "HSI5", {})]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        assert report.conflict_summary["by_quadrant"]["conflict_and_error"] == 1
        assert report.conflict_summary["outcome_error_paths"] == 1
        assert report.conflict_summary["outcome_error_in_conflict"] == 1


class TestFiles:
    def test_write_report_files(self, two_screen_graph, tmp_path):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [("P_11", metric(), "HSI1", {"HSI1": 1.0})]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        written = write_report_files(
            report, tmp_path, samples_with_error("P_11"), {"P_11": "N_1"}
        )
        names = {p.split("/")[-1] for p in written}
        assert names == {"report.json", "candidates.csv", "metrics.csv", "durations_by_category.csv"}
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed["schema_version"] == 1

    def test_candidates_csv_layout(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, {"P_11"}, two_screen_graph)
        lines = candidates_csv(hfe).strip().splitlines()
        assert lines[0].startswith("path_id,error_prob")
        assert lines[1].startswith("P_11,")
        assert "error_path|time_path" in lines[1]

    def test_duration_series_long_format(self):
        samples = {"P_1": PathSamples(durations=[1.0, 2.0], attempts=2)}
        lines = duration_series_csv(samples, {"P_1": "N_root"}).strip().splitlines()
        assert lines == ["category,path_id,duration_s", "N_root,P_1,1", "N_root,P_1,2"]


def test_campaign_fixture_conflict_summary(two_screen_graph):
    """Assembling the bundled campaign gives 2 of 3 outcome-error paths in
    the conflict_and_error quadrant."""
    from hmirisk import dataset
    from hmirisk.risk import detect_time_deviated

    graph = dataset.build_reference_graph()
    samples = dataset.reference_path_samples()
    errors = detect_error_paths(samples)
    flagged = detect_time_deviated(samples, dataset.reference_grouping())
    hfe = identify_hfes(errors, flagged, graph, dataset.reference_procedures())
    rows = [
        (row.path_id, metric(vd=row.features()[0], sid=row.features()[1], span=row.features()[2], n=row.vd[1]), row.label, {})
        for row in dataset.REFERENCE_METRIC_ROWS
    ]
    report = assemble_report(graph, hfe, rows, AppConfig(), generated_at="t0")
    assert report.conflict_summary["outcome_error_paths"] == 3
    assert report.conflict_summary["outcome_error_in_conflict"] == 2


def test_schema_file_ships_with_package():
    schema = json.loads(resources.files("hmirisk").joinpath("data/risk_report.schema.json").read_text())
    assert schema["$id"].endswith("/v1")
    assert set(schema["required"]) >= {"schema_version", "hfe", "assessments"}
