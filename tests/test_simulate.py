from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmirisk import simulate
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
    RNG_ALGORITHM,
    PathPlan,
    ScenarioPlan,
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
                assert bx + 0.1 * bw <= click.point[0] <= bx + 0.9 * bw
                assert by + 0.1 * bh <= click.point[1] <= by + 0.9 * bh

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

    def test_rng_stream_pinned(self, two_screen_graph):
        """The bytes of one small plan, pinned next to the stream tag.

        A change to how sessions draw their randomness changes this digest.
        Changing either the digest or RNG_ALGORITHM requires changing the
        other, and a CHANGES.md note that every seed's bytes changed.
        """
        plan = make_plan(two_screen_graph, p_execution=0.5, p_outcome=0.25, participants=2, sessions=2, seed=3)
        text = "".join(serialize_session(log) for log in generate_sessions(two_screen_graph, plan))
        assert RNG_ALGORITHM == "philox4x64 (numpy.random.Philox), stream 2"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "903c4f01f7f33883a74f899769e4d290970cda9ff28ea89e10ea49d8fa897d8d"
        )

    @pytest.mark.parametrize("key", [0, 1, 2**64 - 1, session_seed(3, 0, 0)])
    def test_rekeyed_generator_draws_as_a_fresh_philox(self, key):
        """One generator re-keyed per session gives each session the stream
        of its own fresh Philox(key=key), whatever it drew before."""
        rng = np.random.Generator(np.random.Philox(key=5))
        rng.random(3)  # a part-used output buffer must not carry over
        rng.integers(0, 2**32, 1, dtype=np.uint32)  # nor a buffered 32-bit half
        fresh = np.random.Generator(np.random.Philox(key=key))
        simulate._rekey(rng, key)
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32), lambda g: g.random(9)):
            assert np.array_equal(draw(rng), draw(fresh))

    @pytest.mark.parametrize(
        "n_steps, participants, sessions, seed, digest",
        [
            (3, 3, 120, 21, "7e345dc448e44876414918609b47ba6986a03c997ceea6a2217bb8e41db4f54b"),
            (600, 1, 3, 8, "7276c158259aa066efab726b5e4d25a0da2efd05d4b0e6301eec4268982b126b"),
        ],
        ids=["many-sessions-per-block", "one-session-per-block"],
    )
    def test_multi_block_bytes_pinned(self, two_screen_graph, n_steps, participants, sessions, seed, digest):
        """The bytes of plans that span several blocks of sessions: 360 short
        sessions, and 3 sessions of 600 steps each."""
        path_ids = ["P_11", "P_12", "P_13"]
        width = len(str(n_steps - 1))
        steps = tuple(
            ProcedureStep(f"s{i:0{width}d}", f"check {path_ids[i % 3]}", path_ids[i % 3]) for i in range(n_steps)
        )
        paths = {pid: PathPlan(pid, 2.0, p_execution=0.4, p_outcome=0.2) for pid in path_ids}
        plan = ScenarioPlan((Procedure("PR", steps),), paths, participants, sessions, seed)
        text = "".join(serialize_session(log) for log in generate_sessions(two_screen_graph, plan))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_targets_and_paths_match_in_either_spelling(self, two_screen_graph):
        """A step target and a ``paths`` entry that name one graph path are one
        path, whichever of its ids each uses; two entries for one path are an
        error naming it."""
        plan = make_plan(two_screen_graph, p_execution=0.5, participants=2, sessions=2, seed=4)
        expected = [serialize_session(s) for s in generate_sessions(two_screen_graph, plan)]
        (proc,) = plan.procedures
        steps = tuple(ProcedureStep(s.step_id, s.text, s.target_path.replace("P_", "N_")) for s in proc.steps)
        for procedures, paths in [
            ((Procedure("PR", steps),), plan.paths),
            (plan.procedures, {p.replace("P_", "N_"): replace(v, path_id=p.replace("P_", "N_")) for p, v in plan.paths.items()}),
        ]:
            respelled = replace(plan, procedures=procedures, paths=paths)
            assert [serialize_session(s) for s in generate_sessions(two_screen_graph, respelled)] == expected
        twice = replace(plan, paths={**plan.paths, "N_12": PathPlan("N_12", 3.0)})
        with pytest.raises(ValueError, match=r"^paths 'P_12' and 'N_12' are both path P_12$"):
            generate_sessions(two_screen_graph, twice)

    def test_plan_without_steps_rejected(self, two_screen_graph):
        plan = ScenarioPlan((Procedure("PR", ()),), {}, 1, 1, 0)
        with pytest.raises(ValueError, match="plan declares no procedure steps"):
            generate_sessions(two_screen_graph, plan)

    def test_event_schedule_and_waypoint_geometry(self, two_screen_graph):
        """Moves and the click split a step into n + 4 slots, annotations follow
        the click 1 ms apart, and waypoint k lies within the jitter of the
        point k / (n + 1) of the way from the previous click on the same
        screen (else the screen centre) to the target centre."""
        plan = make_plan(two_screen_graph, p_execution=0.5, p_outcome=0.5, sessions=20, seed=13)
        targets = {"s0": "N_11", "s1": "N_12", "s2": "N_13"}
        for log in generate_sessions(two_screen_graph, plan):
            previous_click = previous_screen = None
            for step_id, target_id in targets.items():
                events = [e for e in log.events if e.step_id == step_id]
                start, end = events[0].t_ms, events[-1].t_ms
                moves = [e for e in events if e.kind is EventKind.MOVE]
                click = next(e for e in events if e.kind is EventKind.CLICK)
                notes = [e.t_ms for e in events if e.kind is EventKind.ERROR_ANNOTATION]
                n, duration = len(moves), end - start
                assert [e.t_ms for e in moves] == [start + i * duration // (n + 4) for i in range(1, n + 1)]
                assert click.t_ms == start + (n + 1) * duration // (n + 4)
                assert notes == [click.t_ms + i for i in range(1, len(notes) + 1)]

                target = two_screen_graph.by_id[target_id]
                screen = two_screen_graph.screens[target.screen_id]
                if previous_screen == target.screen_id:
                    origin = previous_click
                else:
                    origin = (screen.width_px / 2, screen.height_px / 2)
                for k, move in enumerate(moves, start=1):
                    f = k / (n + 1)
                    for axis in (0, 1):
                        ideal = origin[axis] + f * (target.position[axis] - origin[axis])
                        assert abs(move.point[axis] - ideal) <= 10.0 + 1e-9
                previous_click, previous_screen = click.point, target.screen_id

    @pytest.mark.parametrize("median", [1e16, 1e300])
    def test_duration_beyond_clock_rejected(self, two_screen_graph, median):
        plan = make_plan(two_screen_graph)
        paths = {**plan.paths, "P_12": PathPlan("P_12", median_s=median)}
        with pytest.raises(ValueError, match="drawn step duration"):
            generate_sessions(two_screen_graph, ScenarioPlan(plan.procedures, paths, 1, 1, 0))

    def test_duration_error_names_first_offending_session(self, two_screen_graph):
        """Each session's first draw is its step durations; the error names the
        first session, in plan order, whose draw reaches the clock bound."""
        median = 1e9 / math.exp(0.28 * 3)  # a draw reaches 1e9 s at z >= 3
        plan = ScenarioPlan(
            (Procedure("PR", (ProcedureStep("s0", "check pump speed", "P_11"),)),),
            {"P_11": PathPlan("P_11", median_s=median)},
            participants=1,
            sessions_per_participant=1000,
            seed=3,
        )
        first = next(
            index
            for index in range(1000)
            if np.random.Generator(np.random.Philox(key=session_seed(3, 0, index))).lognormal(math.log(median), 0.28, 1)[0] >= 1e9
        )
        assert first >= 512  # beyond the first block of sessions
        with pytest.raises(ValueError, match=rf"^session S00-{first:03d}: a drawn step duration reaches 1e\+09 s$"):
            generate_sessions(two_screen_graph, plan)

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
        reparsed = parse_session_log(Path(written[0]).read_text().splitlines())
        assert len(reparsed.events) > 0


class TestStatistics:
    def test_per_draw_medians_and_sigmas(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        draws = lognormal_durations(np.repeat([1.0, 4.0], 5000), np.repeat([0.1, 0.5], 5000), 10_000, rng)
        assert 0.98 <= float(np.median(draws[:5000])) <= 1.02
        assert 3.8 <= float(np.median(draws[5000:])) <= 4.2
        assert abs(float(np.std(np.log(draws[5000:]))) - 0.5) <= 0.02
        with pytest.raises(ValueError):
            lognormal_durations(np.array([1.0, 0.0]), 0.28, 2, rng)

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
