"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines
as they complete.
"""
from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hmirisk import dataset
from hmirisk.embed import EmbeddingCache, LocalProvider, cosine_similarity, embed_text, local_embed
from hmirisk.graph import ElementKind, InterfaceElement, InterfaceGraph, Screen
from hmirisk.ingest import (
    ErrorKind,
    Procedure,
    ProcedureStep,
    align_events,
    parse_session_log,
    path_samples,
    serialize_session,
)
from hmirisk.metrics import interaction_span, semantic_interference_density, visual_density
from hmirisk.pifnet import (
    TrainConfig,
    evaluate,
    init_model,
    kfold_cv,
    loss_and_gradients,
    pif_weights,
    predict,
    train,
)
from hmirisk.report import ConflictQuadrant, conflict_quadrant
from hmirisk.risk import (
    LognormalTimeModel,
    detect_error_paths,
    detect_time_deviated,
    fit_time_model,
    identify_hfes,
    median_from_p95,
    tail_prob,
)
from hmirisk.simulate import PathPlan, ScenarioPlan, generate_sessions


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {title}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {number:2d} {title}: PASS", flush=True)

        return wrapper

    return decorate


# --- 1 ----------------------------------------------------------------------


@criterion(1, "metric-table reproduction")
def test_metric_table_reproduction(designated_sim):
    started = time.monotonic()
    for row in dataset.REFERENCE_METRIC_ROWS:
        n_elements = row.vd[1]
        sid_num, sid_den = row.sid
        traversal, normalizer = row.is_px

        class E:
            def __init__(self, eid):
                self.id = eid

        screen = [E(f"e{i}") for i in range(n_elements)]
        vd = visual_density(screen, "e0")
        assert vd == row.vd[0] / row.vd[1]
        assert Fraction(1, len(screen)) == Fraction(*row.vd)

        others = [f"SIM{i}" for i in range(sid_num)] + [f"plain{i}" for i in range(sid_den - sid_num)]
        ratio, contributors = semantic_interference_density("TARGET", others, designated_sim)
        assert Fraction(len(contributors), len(others)) == Fraction(*row.sid)
        assert ratio == sid_num / sid_den

        span = interaction_span(traversal, normalizer)
        assert span == pytest.approx(traversal / normalizer, abs=1e-6)
    assert time.monotonic() - started < 1.0


# --- 2 ----------------------------------------------------------------------


@criterion(2, "lognormal relations")
def test_lognormal_relations():
    model = fit_time_model([7.3, 7.3, 7.3])
    assert abs(tail_prob(model, model.median()) - 0.5) < 1e-12
    assert 0.048 <= tail_prob(model, model.median() * 1.585) <= 0.052
    assert 1.584 <= math.exp(1.645 * 0.28) <= 1.586
    assert median_from_p95(158.5) == 100.0


# --- 3 ----------------------------------------------------------------------

ERROR_SET = {
    "P_122", "P_125", "P_211", "P_212", "P_214", "P_216",
    "P_311", "P_321", "P_323", "P_324", "P_413", "P_414",
}
OUTCOME_SET = {"P_122", "P_216", "P_323"}
TIME_SET = {"P_211", "P_212", "P_122", "P_123", "P_126", "P_321", "P_322", "P_411", "P_414"}


@criterion(3, "HFE identification on campaign fixture")
def test_hfe_identification():
    graph = dataset.build_reference_graph()
    samples = dataset.reference_path_samples()
    grouping = dataset.reference_grouping()

    errors = detect_error_paths(samples)
    assert set(errors) == ERROR_SET
    assert {p for p, s in errors.items() if ErrorKind.OUTCOME in s.kinds} == OUTCOME_SET

    flagged = detect_time_deviated(samples, grouping, tau=1.0)
    assert flagged == TIME_SET

    report = identify_hfes(errors, flagged, graph, dataset.reference_procedures())
    assert {c["path_id"] for c in report["candidates"]} == ERROR_SET | TIME_SET
    for candidate in report["candidates"]:
        expected = set()
        if candidate["path_id"] in ERROR_SET:
            expected.add("error_path")
        if candidate["path_id"] in TIME_SET:
            expected.add("time_path")
        assert set(candidate["provenance"]) == expected
        assert candidate["time_flag"] == (candidate["path_id"] in TIME_SET)


# --- 4 ----------------------------------------------------------------------


@criterion(4, "cross-validation accuracy band")
def test_cv_band():
    started = time.monotonic()
    rows = dataset.training_rows()
    passing = sum(1 for seed in range(10) if kfold_cv(rows, k=5, seed=seed).mean >= 0.70)
    elapsed = time.monotonic() - started
    assert passing >= 8, f"only {passing}/10 seeds reached mean accuracy 0.70"
    assert elapsed < 60.0, f"CV runtime {elapsed:.1f}s exceeds 60s"


# --- 5 ----------------------------------------------------------------------


@criterion(5, "predictions for untested procedures")
def test_untested_procedure_predictions():
    rows = dataset.training_rows()
    labels = sorted({label for _, label in rows})
    hits = {row.path_id: 0 for row in dataset.PREDICTION_ROWS}
    for seed in range(10):
        model = init_model(seed, labels)
        train(model, rows)
        for row in dataset.PREDICTION_ROWS:
            if predict(model, row.features())[0] == row.label:
                hits[row.path_id] += 1
    assert hits["TP_1"] >= 8, f"TP_1 -> HSI1 in only {hits['TP_1']}/10 seeds"
    assert hits["TP_2"] >= 8, f"TP_2 -> HSI5 in only {hits['TP_2']}/10 seeds"
    assert hits["TP_3"] >= 8, f"TP_3 -> HSI5 in only {hits['TP_3']}/10 seeds"


# --- 6 ----------------------------------------------------------------------


@criterion(6, "analytic gradients match finite differences")
def test_gradient_check():
    rng = np.random.default_rng(2024)
    cfg = TrainConfig(dropout=0.0)
    worst = 0.0
    for draw in range(20):
        model = init_model(int(rng.integers(0, 10_000)), ("A", "B", "C"))
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        _, grads = loss_and_gradients(model, X, y, cfg)
        keys = ["W0", "b0", "gamma0", "beta0", "W1", "gamma1", "W2", "beta2", "W3", "b3"]
        key = keys[draw % len(keys)]
        param = model.params[key]
        for idx in rng.integers(0, param.size, size=4):
            original = param.flat[idx]
            step = 1e-5
            param.flat[idx] = original + step
            up, _ = loss_and_gradients(model, X, y, cfg)
            param.flat[idx] = original - step
            down, _ = loss_and_gradients(model, X, y, cfg)
            param.flat[idx] = original
            fd = (up - down) / (2 * step)
            analytic = grads[key].flat[idx]
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6))
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


# --- 7 ----------------------------------------------------------------------


def _recovery_graph() -> tuple[InterfaceGraph, list[str]]:
    screens = [Screen("TOP", 1920, 1080), Screen("PANEL", 1920, 1080)]
    elements = [InterfaceElement("N_0", "plant overview", ElementKind.SYSTEM_ROOT, "TOP", (960, 540))]
    edges = []
    for k in range(20):
        x = 100.0 + (k % 10) * 180
        y = 200.0 + (k // 10) * 300
        eid = f"N_{k + 1:02d}"
        elements.append(
            InterfaceElement(eid, f"parameter {k + 1:02d}", ElementKind.PARAMETER, "PANEL", (x, y), (x - 50, y - 30, 100, 60))
        )
        edges.append(("N_0", eid))
    return InterfaceGraph(elements, edges, screens), [f"P_{k + 1:02d}" for k in range(20)]


@criterion(7, "simulator-oracle recovery of planted risks")
def test_simulator_oracle_recovery():
    started = time.monotonic()
    graph, path_ids = _recovery_graph()
    planted_error = set(path_ids[:3])
    planted_time = set(path_ids[3:6])
    procedure = Procedure(
        "PR", tuple(ProcedureStep(f"s{k:02d}", f"check parameter {k + 1:02d}", pid) for k, pid in enumerate(path_ids))
    )

    exact_recoveries = 0
    recalls, precisions = [], []
    for seed in range(50):
        paths = {
            pid: PathPlan(
                pid,
                median_s=2.0 * (1.6 if pid in planted_time else 1.0),
                p_execution=0.3 if pid in planted_error else 0.01,
            )
            for pid in path_ids
        }
        plan = ScenarioPlan((procedure,), paths, participants=1, sessions_per_participant=200, seed=seed)
        traces = [align_events(graph, log) for log in generate_sessions(graph, plan)]
        samples = path_samples(traces)

        # every path sees background errors, so recovery thresholds the
        # smoothed probability halfway between 0.01 and 0.3 in log space
        errors = detect_error_paths(samples)
        recovered = {p for p, s in errors.items() if s.error_prob >= 0.1}
        exact_recoveries += recovered == planted_error

        flagged = detect_time_deviated(samples, {p: "all" for p in path_ids}, tau=1.0)
        hits = len(flagged & planted_time)
        recalls.append(hits / len(planted_time))
        precisions.append(hits / len(flagged) if flagged else 0.0)

    elapsed = time.monotonic() - started
    assert exact_recoveries >= 48, f"exact error-set recovery in {exact_recoveries}/50 seeds"  # >= 95%
    assert sum(recalls) / 50 >= 0.9, f"mean recall {sum(recalls) / 50:.3f}"
    assert sum(precisions) / 50 >= 0.8, f"mean precision {sum(precisions) / 50:.3f}"
    assert elapsed < 30.0, f"recovery runtime {elapsed:.1f}s exceeds 30s"


# --- 8 ----------------------------------------------------------------------


@criterion(8, "round-trip integrity of generated sessions")
def test_round_trip_integrity():
    graph, path_ids = _recovery_graph()
    procedure = Procedure(
        "PR", tuple(ProcedureStep(f"s{k:02d}", f"check parameter {k + 1:02d}", pid) for k, pid in enumerate(path_ids))
    )
    paths = {pid: PathPlan(pid, median_s=1.5, p_execution=0.2, p_outcome=0.1) for pid in path_ids}
    plan = ScenarioPlan((procedure,), paths, participants=3, sessions_per_participant=5, seed=17)

    logs = generate_sessions(graph, plan)
    total_steps = aligned_steps = 0
    samples_input = []
    for log in logs:
        reparsed = parse_session_log(serialize_session(log).splitlines())
        assert reparsed == log  # zero unmatched events, lossless
        trace = align_events(graph, reparsed)
        assert trace.unaligned == ()
        for step, pid in zip(trace.steps, path_ids):
            assert step.path_id == pid
        total_steps += len(trace.steps)
        aligned_steps += sum(1 for s in trace.steps if s.path_id is not None)
        samples_input.append(trace)

    assert aligned_steps == total_steps == 3 * 5 * len(path_ids)
    samples = path_samples(samples_input)
    assert sum(s.attempts for s in samples.values()) == total_steps


# --- 9 ----------------------------------------------------------------------


@criterion(9, "embedding invariants")
def test_embedding_invariants(tmp_path):
    names = ["power factor", "terminal voltage", "excitation current", "0 ELEDW002", "2LBA10CP801C"]
    vectors = {name: local_embed(name) for name in names}

    for a in names:
        assert cosine_similarity(vectors[a], vectors[a]) == pytest.approx(1.0, abs=1e-9)
        for b in names:
            assert cosine_similarity(vectors[a], vectors[b]) == cosine_similarity(vectors[b], vectors[a])

    # cross-run determinism: repeated embedding is byte-identical and non-trivial
    fingerprint = np.asarray(vectors["power factor"].values)
    assert int(np.count_nonzero(fingerprint)) >= 5
    assert local_embed("power factor") == vectors["power factor"]

    provider = LocalProvider()
    cache = EmbeddingCache(tmp_path)
    with_cache = [embed_text(provider, n, cache) for n in names]
    recached = [embed_text(provider, n, cache) for n in names]
    without = [embed_text(provider, n) for n in names]
    assert with_cache == recached == without


# --- 10 ---------------------------------------------------------------------


@criterion(10, "conflict quadrant on campaign fixture")
def test_conflict_quadrant_on_fixture():
    labels = {row.path_id: row.label for row in dataset.REFERENCE_METRIC_ROWS}
    samples = dataset.reference_path_samples()
    errors = detect_error_paths(samples)
    outcome_paths = {p for p, s in errors.items() if ErrorKind.OUTCOME in s.kinds}
    assert len(outcome_paths) == 3

    in_conflict = {
        p for p in outcome_paths
        if conflict_quadrant(labels[p], True) is ConflictQuadrant.CONFLICT_AND_ERROR
    }
    assert len(in_conflict) == 2  # two of the three outcome errors

    seen = set()
    for label in ("HSI0", "HSI5"):
        for error in (True, False):
            seen.add(conflict_quadrant(label, error))
    assert seen == set(ConflictQuadrant)


# --- 11 ---------------------------------------------------------------------


@criterion(11, "PIF weight table")
def test_pif_weight_table():
    assert pif_weights("HSI0").weights == {"D": 1, "U": 1, "DM": 1, "E": 1, "T": 1}
    assert pif_weights("HSI1").weights["D"] == 1.5
    assert pif_weights("HSI5").weights["D"] == 3
    assert pif_weights("HSI7").weights["U"] == 5.7
    assert pif_weights("HSI10").weights["E"] == 3.38
    assert pif_weights("HSI12").weights["E"] == 10
    assert pif_weights("HSI15").weights["E"] == 9
    for i in range(16):
        weights = pif_weights(f"HSI{i}").weights
        assert set(weights) == {"D", "U", "DM", "E", "T"}
        for value in weights.values():
            assert value is None or isinstance(value, (int, float))
    with pytest.raises(KeyError):
        pif_weights("HSI16")
