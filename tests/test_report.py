from __future__ import annotations

import io
import json
import math
import re
from importlib import resources

import pytest

from hmirisk.cli import main
from hmirisk.config import AppConfig
from hmirisk.ingest import PathSamples
from hmirisk.report import (
    CONFLICT_SET,
    ConflictQuadrant,
    assemble_report,
    candidates_csv,
    conflict_quadrant,
    duration_series_csv,
    report_json,
    write_report_files,
)
from hmirisk.risk import detect_error_paths, identify_hfes

from conftest import strict_json_loads


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
        assert CONFLICT_SET == expected


def metric(vd=0.25, sid=0.0, span=0.1, n=4):
    return {
        "vd": vd,
        "sid": sid,
        "is": span,
        "raw": {
            "n_elements": n,
            "n_high_similarity": int(round(sid * (n - 1))),
            "n_comparisons": n - 1,
            "traversal_px": span * 1000.0,
            "normalizer_px": 1000.0,
        },
        "sid_undefined": False,
        "sid_contributors": [],
    }


def samples_with_error(path_id):
    return {
        path_id: PathSamples(durations=[1.0, 2.0], attempts=2, execution_errors=1, outcome_errors=1, error_steps=1)
    }


class TestAssembleReport:
    def test_quadrants_assigned_per_error_determination(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [
            ("P_11", metric(), "HSI1", {}),
            ("P_12", metric(), "HSI5", {}),
            ("P_13", metric(), None, {}),
        ]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        by_id = {a["path_id"]: a for a in report["assessments"]}
        assert by_id["P_11"]["quadrant"] == "error_only"
        assert by_id["P_12"]["quadrant"] == "conflict_only"
        assert by_id["P_13"]["quadrant"] is None
        assert all(by_id[path_id]["metrics"] is metrics for path_id, metrics, _, _ in rows)

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
        ids = [c["path_id"] for c in report["hfe"]["candidates"]]
        assert sorted(ids) == sorted(set(ids))

    def test_unknown_candidate_path_rejected(self, two_screen_graph):
        bogus = {
            "candidates": [
                {"path_id": "P_99", "error_prob": 0.5, "error_kinds": [], "time_flag": False,
                 "tail_prob_at_threshold": 0.0, "provenance": ["error_path"]}
            ],
            "per_procedure": {},
            "prioritized_procedures": [],
        }
        with pytest.raises(KeyError):
            assemble_report(two_screen_graph, bogus, [], AppConfig(), generated_at="t0")

    def test_conflict_summary_counts(self, two_screen_graph):
        errors = detect_error_paths(samples_with_error("P_11"))
        hfe = identify_hfes(errors, set(), two_screen_graph)
        rows = [("P_11", metric(), "HSI5", {})]
        report = assemble_report(two_screen_graph, hfe, rows, AppConfig(), generated_at="t0")
        assert report["conflict_summary"]["by_quadrant"]["conflict_and_error"] == 1
        assert report["conflict_summary"]["outcome_error_paths"] == 1
        assert report["conflict_summary"]["outcome_error_in_conflict"] == 1


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
        parsed = strict_json_loads((tmp_path / "report.json").read_text())
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
        buf = io.StringIO()
        duration_series_csv(samples, {"P_1": "N_root"}, buf)
        lines = buf.getvalue().strip().splitlines()
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
    assert report["conflict_summary"]["outcome_error_paths"] == 3
    assert report["conflict_summary"]["outcome_error_in_conflict"] == 2


def test_schema_file_ships_with_package():
    schema = json.loads(resources.files("hmirisk").joinpath("data/risk_report.schema.json").read_text())
    assert schema["$id"].endswith("/v1")
    assert set(schema["required"]) >= {"schema_version", "hfe", "assessments"}


# --- report.json against its schema ---------------------------------------

SCHEMA = json.loads(resources.files("hmirisk").joinpath("data/risk_report.schema.json").read_text())

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_CHECKED = {
    "type", "required", "properties", "items", "enum", "const", "minimum", "maximum",
    "exclusiveMinimum", "pattern", "minItems", "additionalProperties",
}
_ANNOTATIONS = {"$schema", "$id", "title"}


def _same(a, b) -> bool:
    """JSON equality: ``True`` is not ``1``."""
    return type(a) is type(b) and a == b


def schema_errors(doc, schema, where="$") -> list[str]:
    """Where ``doc`` breaks ``schema``, for the keywords in ``_CHECKED``."""
    types = schema.get("type")
    if types is not None and not any(_TYPES[t](doc) for t in ([types] if isinstance(types, str) else types)):
        return [f"{where}: {doc!r} is not {types}"]
    errors = []
    if "const" in schema and not _same(doc, schema["const"]):
        errors.append(f"{where}: {doc!r} is not {schema['const']!r}")
    if "enum" in schema and not any(_same(doc, v) for v in schema["enum"]):
        errors.append(f"{where}: {doc!r} is not one of {schema['enum']}")
    if _TYPES["number"](doc):
        if "minimum" in schema and doc < schema["minimum"]:
            errors.append(f"{where}: {doc} < {schema['minimum']}")
        if "maximum" in schema and doc > schema["maximum"]:
            errors.append(f"{where}: {doc} > {schema['maximum']}")
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            errors.append(f"{where}: {doc} <= {schema['exclusiveMinimum']}")
    if isinstance(doc, str) and "pattern" in schema and not re.search(schema["pattern"], doc):
        errors.append(f"{where}: {doc!r} does not match {schema['pattern']}")
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            errors.append(f"{where}: fewer than {schema['minItems']} items")
        for i, item in enumerate(doc):
            errors += schema_errors(item, schema.get("items", {}), f"{where}[{i}]")
    if isinstance(doc, dict):
        errors += [f"{where}: missing {key!r}" for key in schema.get("required", ()) if key not in doc]
        properties, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        for key, value in doc.items():
            if key in properties:
                errors += schema_errors(value, properties[key], f"{where}.{key}")
            elif extra is False:
                errors.append(f"{where}: unexpected {key!r}")
            else:
                errors += schema_errors(value, extra, f"{where}.{key}")
    return errors


def _subschemas(schema):
    yield schema
    children = [*schema.get("properties", {}).values(), schema.get("items"), schema.get("additionalProperties")]
    for child in children:
        if isinstance(child, dict):
            yield from _subschemas(child)


def test_schema_uses_only_checked_keywords():
    used = {key for sub in _subschemas(SCHEMA) for key in sub}
    assert used - _ANNOTATIONS <= _CHECKED


def _empty_report(graph):
    empty_hfe = {"candidates": [], "per_procedure": {}, "prioritized_procedures": []}
    doc = assemble_report(graph, empty_hfe, [], AppConfig(), generated_at="t0")
    assert doc["hfe"]["candidates"] == [] and doc["assessments"] == []
    return doc


def _none_label_report(graph):
    errors = detect_error_paths(samples_with_error("P_11"))
    hfe = identify_hfes(errors, {"P_12"}, graph)
    rows = [
        ("P_11", metric(), "HSI1", {"HSI0": 0.1, "HSI1": 0.8, "HSI5": 0.1}),
        ("P_12", metric(sid=0.5), "HSI5", {"HSI0": 0.1, "HSI1": 0.2, "HSI5": 0.7}),
        ("P_13", metric(), None, {}),
    ]
    doc = assemble_report(graph, hfe, rows, AppConfig(), generated_at="t0")
    assert strict_json_loads(report_json(doc)) == doc
    return doc


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_json_refuses_non_finite_numbers(value, two_screen_graph):
    doc = _none_label_report(two_screen_graph)
    doc["assessments"][0]["metrics"]["vd"] = value
    with pytest.raises(ValueError, match=r"^report\.json: Out of range float values are not JSON compliant"):
        report_json(doc)


@pytest.mark.parametrize("build", [_empty_report, _none_label_report], ids=["empty", "none_label"])
def test_report_matches_schema(build, two_screen_graph):
    assert schema_errors(build(two_screen_graph), SCHEMA) == []


def test_cli_report_matches_schema(graph_file, plan_file, sessions_dir, tmp_path):
    """report.json written by ``hmirisk report`` on a small simulated corpus."""
    procedures = tmp_path / "procedures.json"
    procedures.write_text(json.dumps(json.loads(plan_file.read_text())["procedures"]))
    out = tmp_path / "out"
    argv = ["--graph", str(graph_file), "--sessions", str(sessions_dir), "--procedures", str(procedures)]
    assert main(["report", *argv, "--out", str(out)]) == 0
    doc = strict_json_loads((out / "report.json").read_text())
    assert doc["hfe"]["candidates"] and len(doc["assessments"]) == 3
    assert schema_errors(doc, SCHEMA) == []


def test_cli_hfe_matches_schema(graph_file, plan_file, sessions_dir, tmp_path):
    """hfe.json written by ``hmirisk hfe`` is the report's ``hfe`` block
    plus its time models."""
    procedures = tmp_path / "procedures.json"
    procedures.write_text(json.dumps(json.loads(plan_file.read_text())["procedures"]))
    out = tmp_path / "out"
    argv = ["--graph", str(graph_file), "--sessions", str(sessions_dir), "--procedures", str(procedures)]
    assert main(["hfe", *argv, "--out", str(out)]) == 0
    doc = strict_json_loads((out / "hfe.json").read_text())
    assert doc["candidates"] and doc["per_procedure"] and doc["time_models"]
    assert schema_errors(doc, SCHEMA["properties"]["hfe"]) == []


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d.pop("generated_at"), "$: missing 'generated_at'"),
        (lambda d: d.update(schema_version=True), "$.schema_version"),
        (lambda d: d.update(config_fingerprint="abc"), "$.config_fingerprint"),
        (lambda d: d["graph_summary"].update(screens=1.5), "$.graph_summary.screens"),
        (lambda d: d["hfe"]["candidates"][0].update(error_prob=1.5), "$.hfe.candidates[0].error_prob"),
        (lambda d: d["hfe"]["candidates"][0].update(provenance=[]), "$.hfe.candidates[0].provenance"),
        (lambda d: d["hfe"]["per_procedure"].update(PR=-1), "$.hfe.per_procedure.PR"),
        (lambda d: d["assessments"][0]["metrics"].update(vd=0.0), "$.assessments[0].metrics.vd"),
        (lambda d: d["assessments"][0].update(quadrant="both"), "$.assessments[0].quadrant"),
        (lambda d: d["assessments"][0].update(pif_label=3), "$.assessments[0].pif_label"),
    ],
)
def test_schema_check_rejects_broken_documents(edit, where, two_screen_graph):
    doc = _none_label_report(two_screen_graph)
    doc["hfe"]["per_procedure"] = {"PR": 1}
    assert schema_errors(doc, SCHEMA) == []
    edit(doc)
    errors = schema_errors(doc, SCHEMA)
    assert errors and all(e.startswith(where) for e in errors)
