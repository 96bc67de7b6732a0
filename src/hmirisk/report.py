"""Risk report assembly and the design-conflict quadrant analysis.

A path with a predicted PIF level and an error determination lands in
one of four quadrants: conflict_and_error, conflict_only, error_only, or
neither. "Conflict present" means the PIF level belongs to the fixed
high-severity set: every level whose largest macro-cognitive weight is
at least 3.

Reports are deterministic given inputs and config (the timestamp is the
only varying field) and round-trip losslessly through JSON.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .config import AppConfig, config_fingerprint
from .graph import InterfaceGraph
from .ingest import ErrorKind, PathSamples
from .metrics import MetricCounts, MetricVector
from .pifnet import PIF_WEIGHT_TABLE
from .risk import HfeReport, PathRisk

SCHEMA_VERSION = 1
CONFLICT_WEIGHT_FLOOR = 3.0


class ConflictQuadrant(str, Enum):
    CONFLICT_AND_ERROR = "conflict_and_error"
    CONFLICT_ONLY = "conflict_only"
    ERROR_ONLY = "error_only"
    NEITHER = "neither"


def default_conflict_set() -> frozenset[str]:
    """The conflict set: PIF levels whose maximum macro-cognitive weight reaches the floor."""
    return frozenset(
        label for label, row in PIF_WEIGHT_TABLE.items() if row.max_weight() >= CONFLICT_WEIGHT_FLOOR
    )


def conflict_quadrant(pif_label: str, error_observed: bool) -> ConflictQuadrant:
    """Total function over (conflict present?, error observed?)."""
    if pif_label not in PIF_WEIGHT_TABLE:
        raise KeyError(f"unknown PIF level {pif_label!r}")
    if pif_label in default_conflict_set():
        return ConflictQuadrant.CONFLICT_AND_ERROR if error_observed else ConflictQuadrant.CONFLICT_ONLY
    return ConflictQuadrant.ERROR_ONLY if error_observed else ConflictQuadrant.NEITHER


@dataclass(frozen=True)
class PathAssessment:
    path_id: str
    metrics: MetricVector
    pif_label: str | None
    probabilities: dict[str, float]
    error_observed: bool
    quadrant: ConflictQuadrant | None


@dataclass(frozen=True)
class RiskReport:
    schema_version: int
    tool_version: str
    config_fingerprint: str
    generated_at: str
    graph_summary: dict[str, Any]
    hfe: HfeReport
    assessments: tuple[PathAssessment, ...]
    conflict_summary: dict[str, Any]


def assemble_report(
    g: InterfaceGraph,
    hfe: HfeReport,
    assessments: Sequence[tuple[str, MetricVector, str | None, Mapping[str, float]]],
    config: AppConfig,
    generated_at: str | None = None,
) -> RiskReport:
    """Join HFE candidates with per-path metrics and predictions.

    ``assessments`` rows are (path_id, metrics, predicted label or None,
    class probabilities). Every candidate and assessed path must exist
    in the graph; the quadrant is assigned wherever a label exists.
    """
    from .graph import resolve_path

    error_paths = {c.path_id for c in hfe.candidates if "error_path" in c.provenance}
    outcome_paths = {
        c.path_id for c in hfe.candidates if ErrorKind.OUTCOME in c.error_kinds
    }
    for candidate in hfe.candidates:
        resolve_path(g, candidate.path_id)

    rows = []
    for path_id, metric, label, probs in assessments:
        resolve_path(g, path_id)
        quadrant = None
        if label is not None:
            quadrant = conflict_quadrant(label, path_id in error_paths)
        rows.append(
            PathAssessment(
                path_id=path_id,
                metrics=metric,
                pif_label=label,
                probabilities=dict(probs),
                error_observed=path_id in error_paths,
                quadrant=quadrant,
            )
        )
    rows.sort(key=lambda r: r.path_id)

    by_quadrant = {q.value: 0 for q in ConflictQuadrant}
    for row in rows:
        if row.quadrant is not None:
            by_quadrant[row.quadrant.value] += 1
    assessed = {row.path_id: row for row in rows}
    outcome_in_conflict = sum(
        1
        for path_id in outcome_paths
        if assessed.get(path_id) is not None
        and assessed[path_id].quadrant is ConflictQuadrant.CONFLICT_AND_ERROR
    )

    return RiskReport(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        config_fingerprint=config_fingerprint(config),
        generated_at=generated_at if generated_at is not None else datetime.now(timezone.utc).isoformat(),
        graph_summary={
            "elements": len(g.by_id),
            "screens": len(g.screens),
            "layout_diagonal_px": g.layout_diagonal,
        },
        hfe=hfe,
        assessments=tuple(rows),
        conflict_summary={
            "by_quadrant": by_quadrant,
            "outcome_error_paths": len(outcome_paths),
            "outcome_error_in_conflict": outcome_in_conflict,
        },
    )


# --- JSON round trip ------------------------------------------------------


def _metrics_to_dict(m: MetricVector) -> dict[str, Any]:
    return {
        "vd": m.vd,
        "sid": m.sid,
        "is": m.is_norm,
        "raw": {
            "n_elements": m.raw.n_elements,
            "n_high_similarity": m.raw.n_high_similarity,
            "n_comparisons": m.raw.n_comparisons,
            "traversal_px": m.raw.traversal_px,
            "normalizer_px": m.raw.normalizer_px,
        },
        "sid_undefined": m.sid_undefined,
        "sid_contributors": list(m.sid_contributors),
    }


def _metrics_from_dict(d: Mapping[str, Any]) -> MetricVector:
    raw = d["raw"]
    return MetricVector(
        vd=d["vd"],
        sid=d["sid"],
        is_norm=d["is"],
        raw=MetricCounts(
            n_elements=raw["n_elements"],
            n_high_similarity=raw["n_high_similarity"],
            n_comparisons=raw["n_comparisons"],
            traversal_px=raw["traversal_px"],
            normalizer_px=raw["normalizer_px"],
        ),
        sid_undefined=d["sid_undefined"],
        sid_contributors=tuple(d["sid_contributors"]),
    )


def hfe_to_dict(hfe: HfeReport) -> dict[str, Any]:
    return {
        "candidates": [
            {
                "path_id": c.path_id,
                "error_prob": c.error_prob,
                "error_kinds": sorted(k.value for k in c.error_kinds),
                "time_flag": c.time_flag,
                "tail_prob_at_threshold": c.tail_prob_at_threshold,
                "provenance": sorted(c.provenance),
            }
            for c in hfe.candidates
        ],
        "per_procedure": dict(hfe.per_procedure),
        "prioritized_procedures": list(hfe.prioritized_procedures),
    }


def report_to_dict(report: RiskReport) -> dict[str, Any]:
    return {
        "schema_version": report.schema_version,
        "tool_version": report.tool_version,
        "config_fingerprint": report.config_fingerprint,
        "generated_at": report.generated_at,
        "graph_summary": dict(report.graph_summary),
        "hfe": hfe_to_dict(report.hfe),
        "assessments": [
            {
                "path_id": a.path_id,
                "metrics": _metrics_to_dict(a.metrics),
                "pif_label": a.pif_label,
                "probabilities": dict(a.probabilities),
                "error_observed": a.error_observed,
                "quadrant": a.quadrant.value if a.quadrant is not None else None,
            }
            for a in report.assessments
        ],
        "conflict_summary": json.loads(json.dumps(report.conflict_summary)),
    }


def report_from_dict(d: Mapping[str, Any]) -> RiskReport:
    hfe = HfeReport(
        candidates=tuple(
            PathRisk(
                path_id=c["path_id"],
                error_prob=c["error_prob"],
                error_kinds=frozenset(ErrorKind(k) for k in c["error_kinds"]),
                time_flag=c["time_flag"],
                tail_prob_at_threshold=c["tail_prob_at_threshold"],
                provenance=frozenset(c["provenance"]),
            )
            for c in d["hfe"]["candidates"]
        ),
        per_procedure=dict(d["hfe"]["per_procedure"]),
        prioritized_procedures=tuple(d["hfe"]["prioritized_procedures"]),
    )
    assessments = tuple(
        PathAssessment(
            path_id=a["path_id"],
            metrics=_metrics_from_dict(a["metrics"]),
            pif_label=a["pif_label"],
            probabilities=dict(a["probabilities"]),
            error_observed=a["error_observed"],
            quadrant=ConflictQuadrant(a["quadrant"]) if a["quadrant"] is not None else None,
        )
        for a in d["assessments"]
    )
    return RiskReport(
        schema_version=d["schema_version"],
        tool_version=d["tool_version"],
        config_fingerprint=d["config_fingerprint"],
        generated_at=d["generated_at"],
        graph_summary=dict(d["graph_summary"]),
        hfe=hfe,
        assessments=assessments,
        conflict_summary=dict(d["conflict_summary"]),
    )


def report_json(report: RiskReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


# --- file emission --------------------------------------------------------


def candidates_csv(hfe: HfeReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["path_id", "error_prob", "error_kinds", "time_flag", "tail_prob_at_threshold", "provenance"])
    for c in hfe.candidates:
        writer.writerow(
            [
                c.path_id,
                f"{c.error_prob:.6g}",
                "|".join(sorted(k.value for k in c.error_kinds)),
                int(c.time_flag),
                f"{c.tail_prob_at_threshold:.6g}",
                "|".join(sorted(c.provenance)),
            ]
        )
    return buf.getvalue()


def duration_series_csv(samples: Mapping[str, PathSamples], grouping: Mapping[str, str]) -> str:
    """Long-format plot data: one row per (category, path, duration),
    durations ascending within a path."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["category", "path_id", "duration_s"])
    for path_id in sorted(samples):
        for duration in sorted(samples[path_id].durations):
            writer.writerow([grouping.get(path_id, ""), path_id, f"{duration:.6g}"])
    return buf.getvalue()


def write_report_files(
    report: RiskReport,
    out_dir: str | Path,
    samples: Mapping[str, PathSamples],
    grouping: Mapping[str, str],
) -> list[str]:
    """Emit report.json plus CSV summaries; returns written paths."""
    from .metrics import metrics_csv_rows

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(str(path))

    emit("report.json", report_json(report) + "\n")
    emit("candidates.csv", candidates_csv(report.hfe))
    emit(
        "metrics.csv",
        "\n".join(metrics_csv_rows((a.path_id, a.metrics) for a in report.assessments)) + "\n",
    )
    emit("durations_by_category.csv", duration_series_csv(samples, grouping))
    return written
