"""End-to-end risk report on the bundled campaign data.
=======================================================

Detectors find the error-prone and time-deviated paths, the classifier
labels every assessed path, and the conflict quadrant splits outcomes
into design-conflict vs operator-variability regions. Files land in
./report_out (report.json plus CSV summaries and plot data).
"""
from hmirisk.config import AppConfig
from hmirisk.metrics import MetricCounts, MetricVector
from hmirisk.dataset import (
    REFERENCE_METRIC_ROWS,
    build_reference_graph,
    reference_grouping,
    reference_path_samples,
    reference_procedures,
    training_rows,
)
from hmirisk.pifnet import init_model, predict, train
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
model = init_model(seed=0, label_order=sorted({label for _, label in rows}))
train(model, rows)

assessments = []
for row in REFERENCE_METRIC_ROWS:
    label, probs = predict(model, row.features())
    metric = MetricVector(
        vd=row.features()[0],
        sid=row.features()[1],
        is_norm=row.features()[2],
        raw=MetricCounts(row.vd[1], row.sid[0], row.sid[1], row.is_px[0], row.is_px[1]),
    )
    assessments.append((row.path_id, metric, label, probs))

report = assemble_report(graph, hfe, assessments, config)
print(f"conflict summary: {report['conflict_summary']}")

written = write_report_files(report, "report_out", samples, grouping)
print("wrote:")
for path in written:
    print(" ", path)
