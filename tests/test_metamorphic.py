"""Metamorphic relations of the duration and error detectors, checked on
seeded simulated corpora.

- Listing every session twice leaves each path's lower median, the pooled
  log mean and the population variance exactly as they were (the sums are
  exactly rounded), so z-scores, thresholds, tail probabilities and flags
  are bit-identical; the error set stays, and ``error_prob`` moves from
  (e + alpha) / (n + 2 alpha) to (2e + alpha) / (2n + 2 alpha).
- Multiplying every ``t_ms`` by an integer c adds ln c to every log
  duration. The shift cancels in the z-score, so the flags stay and each z
  moves only by rounding; the threshold scales by c.
"""
from __future__ import annotations

import math
import random

from hmirisk.graph import load_graph
from hmirisk.ingest import Procedure, ProcedureStep, SessionLog, align_events, path_samples
from hmirisk.risk import ALPHA_DEFAULT, detect_error_paths, system_category, time_deviation_detail
from hmirisk.simulate import PathPlan, ScenarioPlan, generate_sessions

SEEDS = range(24)
SCALES = (2, 3, 7, 60, 1000)


def _graph():
    """Two system roots (two categories), each over four parameters split
    across two screens."""
    elements = []
    for root, x in ((1, 300), (2, 900)):
        elements.append({"id": f"N_{root}", "name": f"system {root}", "kind": "system_root", "screen": "A", "x": x, "y": 50})
        for k in range(1, 5):
            px, py = 150 * k, 200 * root
            elements.append(
                {"id": f"N_{root}{k}", "name": f"parameter {root}{k}", "kind": "parameter", "screen": "AB"[k % 2],
                 "x": px, "y": py, "bbox": [px - 40, py - 20, 80, 40], "parent": f"N_{root}"}
            )
    screens = [{"id": s, "width_px": 1200, "height_px": 600} for s in "AB"]
    return load_graph({"screens": screens, "elements": elements})


GRAPH = _graph()
PATH_IDS = [f"P_{root}{k}" for root in (1, 2) for k in range(1, 5)]


def _corpus(seed: int) -> list[SessionLog]:
    rng = random.Random(seed)
    paths = {
        p: PathPlan(
            p,
            median_s=rng.uniform(0.8, 4.0),
            sigma=rng.choice([0.2, 0.28, 0.4]),
            p_execution=rng.choice([0.0, 0.05, 0.3]),
            p_outcome=rng.choice([0.0, 0.1]),
        )
        for p in PATH_IDS
    }
    order = rng.sample(PATH_IDS, len(PATH_IDS))
    steps = tuple(ProcedureStep(f"s{i}", f"check {p}", p) for i, p in enumerate(order))
    plan = ScenarioPlan((Procedure("PR", steps),), paths, 2, rng.randint(3, 8), seed)
    return generate_sessions(GRAPH, plan)


def _detect(logs):
    samples = path_samples(align_events(GRAPH, log) for log in logs)
    grouping = {p: system_category(GRAPH, p) for p in samples}
    return samples, time_deviation_detail(samples, grouping), detect_error_paths(samples)


def _bits(detail):
    return {p: (d.z.hex(), d.threshold_s.hex(), d.tail_prob_at_threshold.hex(), d.flagged) for p, d in detail.items()}


def test_duplicated_sessions_leave_time_flags_bit_identical():
    flags = []
    error_paths = 0
    for seed in SEEDS:
        logs = _corpus(seed)
        samples, detail, errors = _detect(logs)
        _, detail_twice, errors_twice = _detect(logs + logs)

        assert _bits(detail_twice) == _bits(detail), f"seed {seed}"
        assert errors_twice.keys() == errors.keys(), f"seed {seed}"
        for p, stats in errors.items():
            s = samples[p]
            expected = (2 * s.error_steps + ALPHA_DEFAULT) / (2 * s.attempts + 2 * ALPHA_DEFAULT)
            assert errors_twice[p].error_prob == expected, f"seed {seed}, {p}"
            assert errors_twice[p].kinds == stats.kinds
        flags += [d.flagged for d in detail.values()]
        error_paths += len(errors)
    # the relations were exercised: flagged and unflagged paths, error paths
    assert len(flags) == len(SEEDS) * len(PATH_IDS)
    assert 0 < sum(flags) < len(flags)
    assert error_paths > 0


def test_scaled_timestamps_leave_flags_and_move_z_by_rounding_only():
    flagged = 0
    for seed in SEEDS:
        c = SCALES[seed % len(SCALES)]
        logs = _corpus(seed)
        scaled = [
            SessionLog(log.session_id, log.participant_id, tuple(e._replace(t_ms=e.t_ms * c) for e in log.events))
            for log in logs
        ]
        _, detail, errors = _detect(logs)
        _, detail_scaled, errors_scaled = _detect(scaled)

        assert detail_scaled.keys() == detail.keys(), f"seed {seed}"
        for p, d in detail.items():
            assert detail_scaled[p].flagged == d.flagged, f"seed {seed}, {p}"
            assert abs(detail_scaled[p].z - d.z) <= 1e-9, f"seed {seed}, {p}"
            assert math.isclose(detail_scaled[p].threshold_s, c * d.threshold_s, rel_tol=1e-9)
        assert errors_scaled == errors
        flagged += sum(d.flagged for d in detail.values())
    assert flagged > 0
