from __future__ import annotations

from fractions import Fraction

from hmirisk import dataset
from hmirisk.graph import resolve_path, validate_graph
from hmirisk.pifnet import load_training_csv


def test_row_and_label_counts():
    rows = dataset.REFERENCE_METRIC_ROWS
    assert len(rows) == 39
    by_label = {}
    for row in rows:
        by_label[row.label] = by_label.get(row.label, 0) + 1
    assert by_label == {"HSI0": 16, "HSI1": 12, "HSI5": 11}


def test_fraction_sanity():
    for row in dataset.REFERENCE_METRIC_ROWS + dataset.PREDICTION_ROWS:
        assert row.vd[0] == 1
        vd, sid, span = row.features()
        assert 0 < vd <= 1
        assert 0 <= sid <= 1
        assert span > 0


def test_sid_denominator_is_comparisons_with_target():
    # every row satisfies n_comparisons = n_elements - 1, including the
    # fully-interfering 7/7 row
    for row in dataset.REFERENCE_METRIC_ROWS + dataset.PREDICTION_ROWS:
        assert row.sid[1] == row.vd[1] - 1
    assert Fraction(*next(r for r in dataset.REFERENCE_METRIC_ROWS if r.path_id == "P_410").sid) == 1


def test_reference_graph_validates_and_matches_denominators():
    graph = dataset.build_reference_graph()
    assert validate_graph(graph) == []
    for row in dataset.REFERENCE_METRIC_ROWS:
        target = graph.by_id["N_" + row.path_id[2:]]
        assert len(graph.screen_elements(target.screen_id)) == row.vd[1]


def test_reference_paths_resolve_from_their_system_roots():
    graph = dataset.build_reference_graph()
    grouping = dataset.reference_grouping()
    for row in dataset.REFERENCE_METRIC_ROWS:
        chain = resolve_path(graph, row.path_id).node_chain
        assert chain[0] == grouping[row.path_id]


def test_procedures_cover_all_leaves():
    graph = dataset.build_reference_graph()
    named_leaves = {e.id for e in graph.leaves() if not e.id.startswith("F_")}
    targeted = {
        "N_" + step.target_path[2:]
        for proc in dataset.reference_procedures()
        for step in proc.steps
    }
    assert targeted == named_leaves
    sizes = [len(p.steps) for p in dataset.reference_procedures()]
    assert all(4 <= n <= 7 for n in sizes)


def test_observed_sets_are_consistent():
    assert dataset.OBSERVED_OUTCOME_ERROR_PATHS <= dataset.OBSERVED_ERROR_PATHS
    all_paths = {row.path_id for row in dataset.REFERENCE_METRIC_ROWS}
    assert dataset.OBSERVED_ERROR_PATHS <= all_paths
    assert dataset.OBSERVED_TIME_DEVIATED_PATHS <= all_paths


def test_reference_samples_shape():
    samples = dataset.reference_path_samples()
    assert set(samples) == {row.path_id for row in dataset.REFERENCE_METRIC_ROWS}
    for path_id, sample in samples.items():
        assert sample.attempts == 6
        assert len(sample.durations) == 6
        assert all(d > 0 for d in sample.durations)


def test_training_csv_export_parses_back():
    text = dataset.reference_training_csv()
    rows = load_training_csv(text.splitlines())
    assert len(rows) == 39
    assert rows[0][1] == "HSI0"
