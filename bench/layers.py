"""Per-layer metrics of one traced operation, computed from its spans.

Each metric names the spans it reads (see ``tracing.TARGETS``).  A time
metric sums the spans of its names that are not nested inside another
span of the same set, so ``detect_time_deviated`` calling
``time_deviation_detail`` is counted once.  Times are inclusive of child
spans, except ``cli.self_s``, which is the self time of the ``cli.main``
root span: report orchestration, including ``cli._mean_traversal``.
"""
from __future__ import annotations

from tracing import Span

RISK_SPANS = ("risk.detect_error_paths", "risk.time_deviation_detail", "risk.detect_time_deviated", "risk.identify_hfes")

# metric name -> (unit, better, kind, span names)
LAYER_METRICS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "graph.load_s": ("s", "lower", "time", ("graph.load_graph",)),
    "graph.screen_elements_calls": ("count", "lower", "calls", ("graph.screen_elements",)),
    "ingest.parse_s": ("s", "lower", "time", ("ingest.parse_session_log",)),
    "ingest.parse_calls": ("count", "lower", "calls", ("ingest.parse_session_log",)),
    "ingest.align_s": ("s", "lower", "time", ("ingest.align_events",)),
    "ingest.hit_test_s": ("s", "lower", "time", ("ingest.hit_test",)),
    "ingest.hit_tests": ("count", "lower", "calls", ("ingest.hit_test",)),
    "ingest.hit_resolved_ratio": ("ratio", "higher", "ratio", ("ingest.hit_test",)),
    "ingest.unaligned_steps": ("count", "lower", "outcome", ("ingest.align_events",)),
    "ingest.path_samples_s": ("s", "lower", "time", ("ingest.path_samples",)),
    "risk.detect_s": ("s", "lower", "time", RISK_SPANS),
    "metrics.vector_s": ("s", "lower", "time", ("metrics.metric_vector",)),
    "embed.embed_s": ("s", "lower", "time", ("embed.embed_text",)),
    "embed.texts_embedded": ("count", "lower", "calls", ("embed.embed_text",)),
    "pifnet.train_s": ("s", "lower", "time", ("pifnet.train",)),
    "pifnet.cv_s": ("s", "lower", "time", ("pifnet.kfold_cv",)),
    "pifnet.predict_s": ("s", "lower", "time", ("pifnet.predict",)),
    "pifnet.predict_calls": ("count", "lower", "calls", ("pifnet.predict",)),
    "simulate.generate_s": ("s", "lower", "time", ("simulate.generate_sessions",)),
    "report.assemble_s": ("s", "lower", "time", ("report.assemble_report",)),
    "report.emit_s": ("s", "lower", "time", ("report.write_report_files",)),
    "cli.self_s": ("s", "lower", "self", ("cli.main",)),
}
# Reported from the traced run as well, but computed by run.py: traced
# op_s minus untraced op_s of the same run.
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def _child_time(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    covered = _child_time(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    out = {}
    for metric, (_, _, kind, names) in LAYER_METRICS.items():
        chosen = [i for name in names for i in by_name.get(name, ())]
        if kind == "time":
            value = 0.0
            for i in chosen:
                ancestor = spans[i][3]
                while ancestor >= 0 and spans[ancestor][0] not in names:
                    ancestor = spans[ancestor][3]
                if ancestor < 0:
                    value += spans[i][2] - spans[i][1]
        elif kind == "self":
            value = sum(spans[i][2] - spans[i][1] - covered[i] for i in chosen)
        elif kind == "calls":
            value = len(chosen)
        elif kind == "outcome":
            value = sum(spans[i][4] for i in chosen)
        else:  # ratio of useful outcomes to attempts
            value = sum(spans[i][4] for i in chosen) / len(chosen) if chosen else 0.0
        out[metric] = value
    return out


def span_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time per span name."""
    covered = _child_time(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[i]
    return out
