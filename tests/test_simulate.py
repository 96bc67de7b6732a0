from __future__ import annotations

import numpy as np
import pytest

from hmirisk.ingest import (
    EventKind,
    Procedure,
    ProcedureStep,
    align_events,
    parse_session_log,
    path_samples,
    serialize_session,
)
from hmirisk.simulate import (
    PathPlan,
    ScenarioPlan,
    generate_session,
    generate_sessions,
    lognormal_durations,
    plan_from_document,
    session_seed,
    write_sessions,
)


def make_plan(graph, p_execution=0.0, p_outcome=0.0, median=2.0, participants=1, sessions=1, seed=0):
    steps = tuple(
        ProcedureStep(f"s{i}", f"check {pid}", pid) for i, pid in enumerate(["P_11", "P_12", "P_13"])
    )
    paths = {
        pid: PathPlan(pid, median_s=median, p_execution=p_execution, p_outcome=p_outcome)
        for pid in ["P_11", "P_12", "P_13"]
    }
    return ScenarioPlan((Procedure("PR", steps),), paths, participants, sessions, seed)


class TestGeneration:
    def test_deterministic_byte_identical(self, two_screen_graph):
        plan = make_plan(two_screen_graph, p_execution=0.4, participants=2, sessions=3, seed=11)
        first = [serialize_session(s) for s in generate_sessions(two_screen_graph, plan)]
        second = [serialize_session(s) for s in generate_sessions(two_screen_graph, plan)]
        assert first == second

    def test_seed_changes_output(self, two_screen_graph):
        a = generate_sessions(two_screen_graph, make_plan(two_screen_graph, seed=1))
        b = generate_sessions(two_screen_graph, make_plan(two_screen_graph, seed=2))
        assert a != b

    def test_timestamps_strictly_increasing(self, two_screen_graph):
        plan = make_plan(two_screen_graph, p_execution=1.0, p_outcome=1.0, sessions=4)
        for log in generate_sessions(two_screen_graph, plan):
            times = [e.t_ms for e in log.events]
            assert all(a < b for a, b in zip(times, times[1:]))

    def test_zero_error_probability_no_annotations(self, two_screen_graph):
        plan = make_plan(two_screen_graph, p_execution=0.0, p_outcome=0.0, sessions=5)
        for log in generate_sessions(two_screen_graph, plan):
            assert all(e.kind is not EventKind.ERROR_ANNOTATION for e in log.events)

    def test_certain_execution_error_annotates_every_instance(self, two_screen_graph):
        plan = make_plan(two_screen_graph, p_execution=1.0, sessions=3)
        for log in generate_sessions(two_screen_graph, plan):
            step_ids = {e.step_id for e in log.events if e.kind is EventKind.STEP_START}
            annotated = {e.step_id for e in log.events if e.kind is EventKind.ERROR_ANNOTATION}
            assert annotated == step_ids

    def test_trajectory_points_inside_screen(self, two_screen_graph):
        plan = make_plan(two_screen_graph, sessions=5, seed=3)
        for log in generate_sessions(two_screen_graph, plan):
            for e in log.events:
                if e.point is not None:
                    screen = two_screen_graph.screens[e.screen_id]
                    assert 0 <= e.point[0] <= screen.width_px
                    assert 0 <= e.point[1] <= screen.height_px

    def test_waypoint_count_range(self, two_screen_graph):
        plan = make_plan(two_screen_graph, sessions=10, seed=5)
        for log in generate_sessions(two_screen_graph, plan):
            per_step: dict[str, int] = {}
            for e in log.events:
                if e.kind is EventKind.MOVE:
                    per_step[e.step_id] = per_step.get(e.step_id, 0) + 1
            assert all(3 <= n <= 8 for n in per_step.values())

    def test_click_lands_inside_target_bbox(self, two_screen_graph):
        plan = make_plan(two_screen_graph, sessions=5, seed=7)
        for log in generate_sessions(two_screen_graph, plan):
            clicks = [e for e in log.events if e.kind is EventKind.CLICK]
            for click, step in zip(clicks, ["P_11", "P_12", "P_13"] * 10):
                target = two_screen_graph.by_id["N_" + step[2:]]
                bx, by, bw, bh = target.bbox
                assert bx <= click.point[0] <= bx + bw
                assert by <= click.point[1] <= by + bh

    def test_unknown_path_rejected(self, two_screen_graph):
        plan = make_plan(two_screen_graph)
        bad = ScenarioPlan(plan.procedures, {**plan.paths, "P_99": PathPlan("P_99", 1.0)}, 1, 1, 0)
        with pytest.raises(KeyError):
            generate_sessions(two_screen_graph, bad)

    def test_non_positive_median_rejected(self, two_screen_graph):
        plan = make_plan(two_screen_graph)
        bad_paths = dict(plan.paths)
        bad_paths["P_11"] = PathPlan("P_11", median_s=0.0)
        with pytest.raises(ValueError):
            generate_sessions(two_screen_graph, ScenarioPlan(plan.procedures, bad_paths, 1, 1, 0))

    def test_session_seed_distinct_per_participant_and_index(self):
        seeds = {session_seed(1, p, s) for p in range(10) for s in range(10)}
        assert len(seeds) == 100


class TestRoundTrip:
    def test_full_alignment_to_planted_paths(self, two_screen_graph):
        plan = make_plan(two_screen_graph, p_execution=0.5, participants=3, sessions=4, seed=9)
        logs = generate_sessions(two_screen_graph, plan)
        total = unmatched = 0
        for log in logs:
            parsed = parse_session_log(serialize_session(log).splitlines())
            assert parsed == log  # lossless parse
            trace = align_events(two_screen_graph, parsed)
            unmatched += len(trace.unaligned)
            for step, planted in zip(trace.steps, ["P_11", "P_12", "P_13"]):
                total += 1
                assert step.path_id == planted
        assert unmatched == 0
        assert total == 3 * 4 * 3

    def test_attempts_conserved(self, two_screen_graph):
        plan = make_plan(two_screen_graph, participants=2, sessions=3)
        traces = [align_events(two_screen_graph, log) for log in generate_sessions(two_screen_graph, plan)]
        samples = path_samples(traces)
        assert sum(s.attempts for s in samples.values()) == sum(len(t.steps) for t in traces)

    def test_write_sessions_files(self, two_screen_graph, tmp_path):
        plan = make_plan(two_screen_graph, participants=2, sessions=2)
        written = write_sessions(generate_sessions(two_screen_graph, plan), tmp_path)
        assert len(written) == 4
        reparsed = parse_session_log(written[0])
        assert len(reparsed.events) > 0


class TestStatistics:
    def test_sample_median_of_10k_draws(self):
        rng = np.random.Generator(np.random.Philox(key=123))
        draws = lognormal_durations(2.0, 0.28, 10_000, rng)
        assert 1.9 <= float(np.median(draws)) <= 2.1

    def test_log_duration_std_within_15_percent(self, two_screen_graph):
        steps = (ProcedureStep("s0", "check pump", "P_11"),)
        plan = ScenarioPlan(
            (Procedure("PR", steps),),
            {"P_11": PathPlan("P_11", median_s=2.0)},
            participants=1,
            sessions_per_participant=1000,
            seed=21,
        )
        traces = [align_events(two_screen_graph, log) for log in generate_sessions(two_screen_graph, plan)]
        durations = path_samples(traces)["P_11"].durations
        assert len(durations) == 1000
        log_std = float(np.std(np.log(durations), ddof=1))
        assert abs(log_std - 0.28) <= 0.15 * 0.28


def test_plan_from_document(two_screen_graph):
    doc = {
        "procedures": [
            {"procedure_id": "PR", "steps": [{"step_id": "s0", "text": "check pump speed", "target_path": "P_11"}]}
        ],
        "paths": [{"path_id": "P_11", "median_s": 3.5, "p_execution": 0.25}],
        "participants": 2,
        "sessions_per_participant": 4,
        "seed": 77,
    }
    plan = plan_from_document(doc)
    assert plan.paths["P_11"].median_s == 3.5
    assert plan.paths["P_11"].p_execution == 0.25
    assert plan.paths["P_11"].sigma == 0.28
    assert (plan.participants, plan.sessions_per_participant, plan.seed) == (2, 4, 77)
    logs = generate_sessions(two_screen_graph, plan)
    assert len(logs) == 8
