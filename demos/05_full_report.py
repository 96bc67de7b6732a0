"""End-to-end risk report on the bundled campaign data.
=======================================================

Detectors find the error-prone and time-deviated paths, the classifier
labels every assessed path, and the conflict quadrant splits outcomes
into design-conflict vs operator-variability regions. Files land in
./report_out (report.json plus CSV summaries and plot data).
"""
from hmirisk.config import AppConfig
from hmirisk.dataset import (
    REFERENCE_METRIC_ROWS,
    build_reference_graph,
    reference_grouping,
    reference_path_samples,
    reference_procedures,
    training_rows,
)
from hmirisk.pifnet import init_model, ordered_labels, predict, train
from hmirisk.report import assemble_report, write_report_files
from hmirisk.risk import detect_error_paths, identify_hfes, time_deviation_detail

graph = build_reference_graph()
samples = reference_path_samples()
grouping = reference_grouping()
config = AppConfig()

detail = time_deviation_detail(samples, grouping)
flagged = {p for p, d in detail.items() if d.flagged}
errors = detect_error_paths(samples)
hfe = identify_hfes(errors, flagged, graph, reference_procedures(), detail)
print(f"{len(hfe['candidates'])} HFE candidates; procedure priority: {', '.join(hfe['prioritized_procedures'])}")

rows = training_rows()
model = init_model(seed=0, label_order=ordered_labels(label for _, label in rows))
train(model, rows)

assessments = []
for row in REFERENCE_METRIC_ROWS:
    label, probs = predict(model, row.features())
    vd, sid, span = row.features()
    # The published table's counts, in the form metrics.metric_vector returns.
    metric = {
        "vd": vd,
        "sid": sid,
        "is": span,
        "raw": {
            "n_elements": row.vd[1],
            "n_high_similarity": row.sid[0],
            "n_comparisons": row.sid[1],
            "traversal_px": row.is_px[0],
            "normalizer_px": row.is_px[1],
        },
        "sid_undefined": False,
        "sid_contributors": [],
    }
    assessments.append((row.path_id, metric, label, probs))

report = assemble_report(graph, hfe, assessments, config)
print(f"conflict summary: {report['conflict_summary']}")

written = write_report_files(report, "report_out", samples, grouping)
print("wrote:")
for path in written:
    print(" ", path)
