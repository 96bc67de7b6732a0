"""Risk report assembly and the design-conflict quadrant analysis.

A path with a predicted PIF level and an error determination lands in
one of four quadrants: conflict_and_error, conflict_only, error_only, or
neither. "Conflict present" means the PIF level belongs to the fixed
high-severity set: every level whose largest macro-cognitive weight is
at least 3.

A report is the plain JSON document ``data/risk_report.schema.json``
describes. Its ``hfe`` block is the document that
:func:`hmirisk.risk.identify_hfes` builds, the one form of the HFE
candidates, and each assessment's ``metrics`` is the dict that
:func:`hmirisk.metrics.metric_vector` returns. A report is deterministic
given inputs and config (the timestamp is the only varying field).
"""
from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence, TextIO

from . import __version__
from .config import AppConfig, config_fingerprint
from .graph import InterfaceGraph, resolve_path
from .ingest import ErrorKind, PathSamples
from .metrics import metrics_csv_rows
from .pifnet import PIF_WEIGHT_TABLE

SCHEMA_VERSION = 1
CONFLICT_WEIGHT_FLOOR = 3.0


class ConflictQuadrant(str, Enum):
    CONFLICT_AND_ERROR = "conflict_and_error"
    CONFLICT_ONLY = "conflict_only"
    ERROR_ONLY = "error_only"
    NEITHER = "neither"


# The conflict set: PIF levels whose maximum macro-cognitive weight reaches the floor.
CONFLICT_SET = frozenset(
    label for label, row in PIF_WEIGHT_TABLE.items() if row.max_weight() >= CONFLICT_WEIGHT_FLOOR
)


def conflict_quadrant(pif_label: str, error_observed: bool) -> ConflictQuadrant:
    """Total function over (conflict present?, error observed?)."""
    if pif_label not in PIF_WEIGHT_TABLE:
        raise KeyError(f"unknown PIF level {pif_label!r}")
    if pif_label in CONFLICT_SET:
        return ConflictQuadrant.CONFLICT_AND_ERROR if error_observed else ConflictQuadrant.CONFLICT_ONLY
    return ConflictQuadrant.ERROR_ONLY if error_observed else ConflictQuadrant.NEITHER


def assemble_report(
    g: InterfaceGraph,
    hfe: Mapping[str, Any],
    assessments: Sequence[tuple[str, Mapping[str, Any], str | None, Mapping[str, float]]],
    config: AppConfig,
    generated_at: str | None = None,
) -> dict[str, Any]:
    """The report document ``risk_report.schema.json`` describes: the
    :func:`~hmirisk.risk.identify_hfes` document ``hfe``, as given, joined
    with per-path metrics and predictions.

    ``assessments`` rows are (path_id, :func:`~hmirisk.metrics.metric_vector`
    dict, predicted label or None, class probabilities); the metrics are
    stored as given. Every candidate and assessed path must exist in the
    graph; the quadrant is assigned wherever a label exists.
    """
    candidates = hfe["candidates"]
    error_paths = {c["path_id"] for c in candidates if "error_path" in c["provenance"]}
    outcome_paths = {c["path_id"] for c in candidates if ErrorKind.OUTCOME.value in c["error_kinds"]}
    for candidate in candidates:
        resolve_path(g, candidate["path_id"])

    rows = []
    for path_id, metric, label, probs in assessments:
        resolve_path(g, path_id)
        error_observed = path_id in error_paths
        rows.append(
            {
                "path_id": path_id,
                "metrics": metric,
                "pif_label": label,
                "probabilities": dict(probs),
                "error_observed": error_observed,
                "quadrant": None if label is None else conflict_quadrant(label, error_observed).value,
            }
        )
    rows.sort(key=lambda r: r["path_id"])

    by_quadrant = {q.value: 0 for q in ConflictQuadrant}
    for row in rows:
        if row["quadrant"] is not None:
            by_quadrant[row["quadrant"]] += 1
    quadrant_of = {row["path_id"]: row["quadrant"] for row in rows}
    outcome_in_conflict = sum(
        1 for path_id in outcome_paths if quadrant_of.get(path_id) == ConflictQuadrant.CONFLICT_AND_ERROR.value
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config_fingerprint": config_fingerprint(config),
        "generated_at": generated_at if generated_at is not None else datetime.now(timezone.utc).isoformat(),
        "graph_summary": {
            "elements": len(g.by_id),
            "screens": len(g.screens),
            "layout_diagonal_px": g.layout_diagonal,
        },
        "hfe": hfe,
        "assessments": rows,
        "conflict_summary": {
            "by_quadrant": by_quadrant,
            "outcome_error_paths": len(outcome_paths),
            "outcome_error_in_conflict": outcome_in_conflict,
        },
    }


def json_text(output: str, doc: Any, **kwargs: Any) -> str:
    """``json.dumps(doc, **kwargs)``, refusing NaN and infinities, which JSON
    cannot hold: a refusal is a ValueError naming ``output``."""
    try:
        return json.dumps(doc, allow_nan=False, **kwargs)
    except ValueError as err:
        raise ValueError(f"{output}: {err}") from None


def report_json(report: Mapping[str, Any]) -> str:
    return json_text("report.json", report, indent=2, sort_keys=True)


# --- file emission --------------------------------------------------------


def candidates_csv(hfe: Mapping[str, Any]) -> str:
    """The candidates of an :func:`~hmirisk.risk.identify_hfes` document,
    one CSV row each."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["path_id", "error_prob", "error_kinds", "time_flag", "tail_prob_at_threshold", "provenance"])
    for c in hfe["candidates"]:
        writer.writerow(
            [
                c["path_id"],
                f"{c['error_prob']:.6g}",
                "|".join(c["error_kinds"]),
                int(c["time_flag"]),
                f"{c['tail_prob_at_threshold']:.6g}",
                "|".join(c["provenance"]),
            ]
        )
    return buf.getvalue()


def duration_series_csv(samples: Mapping[str, PathSamples], grouping: Mapping[str, str], out: TextIO) -> None:
    """Write long-format plot data to the text stream ``out``: one row per
    (category, path, duration), durations ascending within a path."""
    writer = csv.writer(out)
    writer.writerow(["category", "path_id", "duration_s"])
    for path_id in sorted(samples):
        category = grouping.get(path_id, "")
        writer.writerows([category, path_id, f"{duration:.6g}"] for duration in sorted(samples[path_id].durations))


def write_report_files(
    report: Mapping[str, Any],
    out_dir: str | Path,
    samples: Mapping[str, PathSamples],
    grouping: Mapping[str, str],
) -> list[str]:
    """Emit report.json plus CSV summaries of an :func:`assemble_report`
    document; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(str(path))

    emit("report.json", report_json(report) + "\n")
    emit("candidates.csv", candidates_csv(report["hfe"]))
    emit(
        "metrics.csv",
        "\n".join(metrics_csv_rows((a["path_id"], a["metrics"]) for a in report["assessments"])) + "\n",
    )
    path = out / "durations_by_category.csv"  # the largest file, streamed
    with open(path, "w", encoding="utf-8", newline="") as fh:
        duration_series_csv(samples, grouping, fh)
    written.append(str(path))
    return written
