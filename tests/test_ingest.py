from __future__ import annotations

import copy
import itertools
import json
import math
import random

import pytest

from hmirisk import graph, ingest
from hmirisk.graph import ElementKind, InterfaceElement, InterfaceGraph, Screen, load_graph
from hmirisk.metrics import trajectory_length
from hmirisk.ingest import (
    AlignedStep,
    AlignedTrace,
    ErrorKind,
    EventKind,
    ParseError,
    Procedure,
    ProcedureStep,
    SessionLog,
    TrackerEvent,
    UnknownScreenError,
    _event_from_record,
    align_events,
    align_lines,
    hit_test,
    load_procedures,
    merge_samples,
    parse_session_log,
    path_samples,
    serialize_session,
)
from hmirisk.simulate import PathPlan, ScenarioPlan, generate_sessions


def _line(**kw):
    kw.setdefault("session_id", "S1")
    kw.setdefault("participant_id", "P1")
    return json.dumps(kw)


class TestParseSessionLog:
    def test_three_event_step(self):
        text = "\n".join(
            [
                _line(t_ms=0, kind="step_start", step_id="s1"),
                _line(t_ms=100, kind="click", x=10, y=20, screen="A", step_id="s1"),
                _line(t_ms=2500, kind="step_end", step_id="s1"),
            ]
        )
        log = parse_session_log(text.splitlines())
        assert log.session_id == "S1" and log.participant_id == "P1"
        assert [e.kind for e in log.events] == [EventKind.STEP_START, EventKind.CLICK, EventKind.STEP_END]

    def test_step_end_before_start(self):
        with pytest.raises(ParseError, match="unmatched step_end"):
            parse_session_log([_line(t_ms=0, kind="step_end", step_id="s1")])

    def test_unclosed_step(self):
        with pytest.raises(ParseError, match="unmatched step_start"):
            parse_session_log([_line(t_ms=0, kind="step_start", step_id="s1")])

    def test_non_monotonic_timestamps(self):
        text = "\n".join(
            [
                _line(t_ms=100, kind="step_start", step_id="s1"),
                _line(t_ms=50, kind="step_end", step_id="s1"),
            ]
        )
        with pytest.raises(ParseError, match="line 2.*non-monotonic"):
            parse_session_log(text.splitlines())

    def test_malformed_line_reports_number(self):
        text = "\n".join([_line(t_ms=0, kind="step_start", step_id="s1"), "{broken", _line(t_ms=1, kind="step_end", step_id="s1")])
        with pytest.raises(ParseError, match="line 2"):
            parse_session_log(text.splitlines())

    def test_point_required_iff_spatial(self):
        with pytest.raises(ParseError, match="require"):
            parse_session_log([_line(t_ms=0, kind="move")])
        with pytest.raises(ParseError, match="forbid"):
            parse_session_log([_line(t_ms=0, kind="key", x=1, y=2)])

    def test_error_kind_only_on_annotations(self):
        with pytest.raises(ParseError):
            parse_session_log([_line(t_ms=0, kind="key", error_kind="execution")])
        with pytest.raises(ParseError):
            parse_session_log([_line(t_ms=0, kind="error_annotation")])

    def test_session_id_must_be_consistent(self):
        text = "\n".join(
            [
                _line(t_ms=0, kind="step_start", step_id="s1"),
                _line(t_ms=1, kind="step_end", step_id="s1", session_id="OTHER"),
            ]
        )
        with pytest.raises(ParseError, match="session_id changed"):
            parse_session_log(text.splitlines())

    def test_session_ids_compared_as_text(self):
        def log(*ids):
            return [_line(t_ms=i, kind="key", session_id=sid) for i, sid in enumerate(ids)]

        assert parse_session_log(log(5, "5", 5)).session_id == "5"
        with pytest.raises(ParseError, match="^line 2: session_id changed from '1' to '1.0'$"):
            parse_session_log(log(1, 1.0))
        with pytest.raises(ParseError, match="^line 3: session_id changed from 'True' to '1'$"):
            parse_session_log(log(True, True, 1))

    def test_value_split_across_lines_is_invalid_json(self):
        start = _line(t_ms=0, kind="step_start", step_id="s1")
        with pytest.raises(ParseError, match=r"^line 1: not valid JSON \(Expecting value\)$"):
            parse_session_log([start[:20], start[20:]])

    def test_two_objects_on_one_line(self):
        key = _line(t_ms=0, kind="key")
        with pytest.raises(ParseError, match=r"^line 2: not valid JSON \(Extra data\)$"):
            parse_session_log([key, key + key])

    @pytest.mark.parametrize(
        "text, json_type",
        [("[1,2]", "array"), ("5", "number"), ('"x"', "string"), ("null", "null"), ("true", "boolean")],
    )
    def test_non_object_line_rejected(self, text, json_type):
        lines = [_line(t_ms=0, kind="key"), text]
        with pytest.raises(ParseError, match=rf"^line 2: expected a JSON object, got {json_type}$"):
            parse_session_log(lines)

    def test_blank_lines_skipped_but_counted(self):
        lines = [_line(t_ms=0, kind="step_start", step_id="s1"), "", "   \t", _line(t_ms=5, kind="step_end", step_id="s1")]
        assert len(parse_session_log(lines).events) == 2
        with pytest.raises(ParseError, match="^line 4: not valid JSON"):
            parse_session_log(lines[:3] + ["{broken"])

    def test_integer_coordinates_read_as_floats(self):
        lines = [_line(t_ms=0, kind="move", x=10, y=20, screen="A")]
        point = parse_session_log(lines).events[0].point
        assert point == (10.0, 20.0)
        assert all(type(v) is float for v in point)

    def test_points_on_the_coordinate_bound_accepted(self):
        lines = [_line(t_ms=0, kind="move", x=1_000_000, y=-1e6, screen="A")]
        assert parse_session_log(lines).events[0].point == (1e6, -1e6)

    def test_string_timestamp_accepted(self):
        assert parse_session_log([_line(t_ms="100", kind="key")]).events[0].t_ms == 100

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"t_ms": None, "kind": "key"}, "malformed timestamp None"),
            ({"t_ms": [1], "kind": "key"}, "malformed timestamp [1]"),
            ({"t_ms": {"a": 1}, "kind": "key"}, "malformed timestamp {'a': 1}"),
            ({"t_ms": math.inf, "kind": "key"}, "malformed timestamp inf"),
            ({"t_ms": 0, "kind": "move", "x": 10**400, "y": 1}, "malformed point"),
            ({"t_ms": 0, "kind": "move", "x": math.nan, "y": 1}, "non-finite point (nan, 1.0)"),
            ({"t_ms": 0, "kind": "click", "x": 1.5, "y": -math.inf}, "non-finite point (1.5, -inf)"),
            ({"t_ms": 0, "kind": "step_start", "step_id": [1]}, "malformed step_id [1]"),
            ({"t_ms": 0, "kind": "click", "x": 1, "y": 1, "screen": {"a": 1}}, "malformed screen {'a': 1}"),
            ({"t_ms": 0, "kind": "move", "x": True, "y": 1}, "malformed point"),
            ({"t_ms": 0, "kind": "click", "x": 1, "y": "12"}, "malformed point"),
            ({"t_ms": 0, "kind": "click", "x": 1, "y": 1, "screen": 5}, "malformed screen 5"),
            ({"t_ms": 0, "kind": "key", "screen": False}, "malformed screen False"),
            ({"t_ms": "1_000", "kind": "key"}, "malformed timestamp '1_000'"),
            ({"t_ms": " 12 ", "kind": "key"}, "malformed timestamp ' 12 '"),
            ({"t_ms": "-5", "kind": "key"}, "malformed timestamp '-5'"),
            ({"t_ms": "\u0661\u0662", "kind": "key"}, "malformed timestamp '\u0661\u0662'"),
            pytest.param(
                _line(t_ms=0, kind="key", note=0).replace('"note": 0', '"note": ' + "9" * 4301),
                "not valid JSON (Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit)",
                id="4301-digit-int",
            ),
            ({"t_ms": 0, "kind": "move", "x": 1_000_001, "y": 1}, "point (1000001.0, 1.0) is more than 1000000 px from 0 on an axis"),
            ({"t_ms": 0, "kind": "click", "x": 1.5, "y": -1.7e308}, "point (1.5, -1.7e+308) is more than 1000000 px from 0 on an axis"),
        ],
    )
    def test_bad_value_is_parse_error(self, record, message):
        """A record is given as its fields, or as a line json.dumps cannot write."""
        with pytest.raises(ParseError) as info:
            parse_session_log([record if isinstance(record, str) else _line(**record)])
        assert str(info.value) == f"line 1: {message}"

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"t_ms": 1.7, "kind": "key"}, "malformed timestamp 1.7"),
            ({"t_ms": 1.0, "kind": "key"}, "malformed timestamp 1.0"),
            ({"t_ms": True, "kind": "key"}, "malformed timestamp True"),
            ({"t_ms": 0, "kind": "step_start"}, "step_start events require a step_id"),
            ({"t_ms": 0, "kind": "step_end", "step_id": None}, "step_end events require a step_id"),
            ({"t_ms": 0, "kind": "step_start", "step_id": 5}, "malformed step_id 5"),
            ({"t_ms": 0, "kind": "key", "step_id": 5}, "malformed step_id 5"),
            ({"t_ms": 0, "kind": "move", "x": 1, "y": 1, "step_id": False}, "malformed step_id False"),
        ],
    )
    def test_timestamp_is_integer_and_step_id_is_string(self, record, message):
        with pytest.raises(ParseError) as info:
            parse_session_log([_line(**record)])
        assert str(info.value) == f"line 1: {message}"

    def test_numeric_step_id_is_rejected_where_it_appears(self):
        with pytest.raises(ParseError, match="^line 1: malformed step_id 5$"):
            parse_session_log([_line(t_ms=0, kind="step_start", step_id=5), _line(t_ms=1, kind="step_end", step_id="5")])

    def test_step_ids_absent_on_non_step_events(self):
        lines = [_line(t_ms=0, kind="key"), _line(t_ms=1, kind="move", x=1, y=2, step_id=None)]
        assert [e.step_id for e in parse_session_log(lines).events] == [None, None]

    def test_matches_reference_parser_on_mutated_logs(self):
        rng = random.Random(20251018)
        for _ in range(2000):
            lines = _mutated_log(rng)
            assert _outcome(parse_session_log, lines) == _outcome(_reference_parse, lines), lines

    def test_serialize_parse_round_trip(self):
        events = (
            TrackerEvent(0, EventKind.STEP_START, step_id="s1"),
            TrackerEvent(5, EventKind.MOVE, point=(1.5, 2.5), screen_id="A", step_id="s1"),
            TrackerEvent(9, EventKind.CLICK, point=(3.0, 4.0), screen_id="A", step_id="s1"),
            TrackerEvent(11, EventKind.ERROR_ANNOTATION, step_id="s1", error_kind=ErrorKind.OUTCOME),
            TrackerEvent(20, EventKind.STEP_END, step_id="s1"),
        )
        log = SessionLog("S9", "P3", events)
        assert parse_session_log(serialize_session(log).splitlines()) == log

    def test_parse_from_file(self, tmp_path):
        file = tmp_path / "session.jsonl"
        file.write_text(
            "\n".join(
                [
                    _line(t_ms=0, kind="step_start", step_id="s1"),
                    _line(t_ms=4, kind="step_end", step_id="s1"),
                ]
            )
        )
        assert len(parse_session_log(file.read_text().splitlines()).events) == 2


class TestHitTest:
    def test_bbox_center_hits(self, two_screen_graph):
        assert hit_test(two_screen_graph, "A", (200, 300)) == "N_11"

    def test_far_miss_is_none(self, two_screen_graph):
        assert hit_test(two_screen_graph, "A", (700, 550)) is None

    def test_nested_bboxes_prefer_inner(self):
        g = load_graph(
            {
                "screens": [{"id": "S", "width_px": 400, "height_px": 400}],
                "elements": [
                    {"id": "R", "name": "root", "kind": "system_root", "screen": "S", "x": 10, "y": 10},
                    {"id": "OUTER", "name": "panel", "kind": "control", "screen": "S", "x": 200, "y": 200,
                     "bbox": [100, 100, 200, 200], "parent": "R"},
                    {"id": "INNER", "name": "button", "kind": "control", "screen": "S", "x": 200, "y": 200,
                     "bbox": [180, 180, 40, 40], "parent": "R"},
                ],
            }
        )
        assert hit_test(g, "S", (200, 200)) == "INNER"
        assert hit_test(g, "S", (120, 120)) == "OUTER"

    def test_equal_area_tie_breaks_on_id(self):
        g = load_graph(
            {
                "screens": [{"id": "S", "width_px": 400, "height_px": 400}],
                "elements": [
                    {"id": "R", "name": "root", "kind": "system_root", "screen": "S", "x": 10, "y": 10},
                    {"id": "B", "name": "b", "kind": "control", "screen": "S", "x": 50, "y": 50,
                     "bbox": [0, 0, 100, 100], "parent": "R"},
                    {"id": "A", "name": "a", "kind": "control", "screen": "S", "x": 60, "y": 60,
                     "bbox": [10, 10, 100, 100], "parent": "R"},
                ],
            }
        )
        assert hit_test(g, "S", (55, 55)) == "A"

    def test_snap_radius_near_bboxless_center(self, two_screen_graph, monkeypatch):
        # N_1 has no bbox; (408, 50) is 8 px from its center -> snapped
        assert graph.SNAP_RADIUS_PX == 12.0
        assert hit_test(two_screen_graph, "A", (408, 50)) == "N_1"
        monkeypatch.setattr(graph, "SNAP_RADIUS_PX", 5.0)
        assert hit_test(two_screen_graph, "A", (408, 50)) is None

    def test_unknown_screen(self, two_screen_graph):
        with pytest.raises(UnknownScreenError):
            hit_test(two_screen_graph, "NOPE", (1, 1))

    def test_non_finite_point(self, two_screen_graph):
        with pytest.raises(ValueError):
            hit_test(two_screen_graph, "A", (float("nan"), 1.0))


    def test_inf_point(self, two_screen_graph):
        with pytest.raises(ValueError):
            hit_test(two_screen_graph, "A", (1.0, float("inf")))

    def test_declared_screen_without_elements(self):
        g = InterfaceGraph([], [], [Screen("EMPTY", 100, 100)])
        assert hit_test(g, "EMPTY", (50.0, 50.0)) is None
        assert g.screen_elements("EMPTY") == []

    def test_index_matches_brute_force_scan(self, monkeypatch):
        rng = random.Random(7)
        seen: set[str] = set()
        for _ in range(20):
            g = _random_graph(rng)
            for screen_id in [*g.screens, "UNDECLARED"]:
                assert g.screen_elements(screen_id) == [e for e in g.by_id.values() if e.screen_id == screen_id]
            for _ in range(250):
                screen_id = rng.choice(sorted(g.screens))
                point = _probe_point(rng, g.screen_elements(screen_id))
                radius = rng.choice([0.0, 3.0, 12.0, 40.0])
                expected, cases = _brute_hit(g, screen_id, point, radius)
                seen |= cases
                monkeypatch.setattr(graph, "SNAP_RADIUS_PX", radius)
                assert hit_test(g, screen_id, point) == expected, (screen_id, point, radius)
        assert seen == {"edge", "nested", "area-tie", "snap", "snap-tie", "bboxless-snap", "beyond-radius"}

def _session(events):
    return SessionLog("S1", "P1", tuple(events))


class TestAlignEvents:
    def test_click_binds_step_to_path(self, two_screen_graph):
        log = _session(
            [
                TrackerEvent(0, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(300, EventKind.MOVE, point=(180.0, 290.0), screen_id="A", step_id="s1"),
                TrackerEvent(900, EventKind.CLICK, point=(200.0, 300.0), screen_id="A", step_id="s1"),
                TrackerEvent(2500, EventKind.STEP_END, step_id="s1"),
            ]
        )
        trace = align_events(two_screen_graph, log)
        step = trace.steps[0]
        assert step.path_id == "P_11"
        assert step.duration_s == 2.5
        assert step.trajectory == ((180.0, 290.0), (200.0, 300.0))
        assert trace.unaligned == ()

    def test_zero_duration_step(self, two_screen_graph):
        log = _session(
            [
                TrackerEvent(10, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(10, EventKind.STEP_END, step_id="s1"),
            ]
        )
        trace = align_events(two_screen_graph, log, {"s1": "P_13"})
        assert trace.steps[0].duration_s == 0.0
        assert trace.steps[0].path_id == "P_13"  # declared target fallback

    def test_error_annotation_collected(self, two_screen_graph):
        log = _session(
            [
                TrackerEvent(0, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(5, EventKind.CLICK, point=(200.0, 300.0), screen_id="A", step_id="s1"),
                TrackerEvent(6, EventKind.ERROR_ANNOTATION, step_id="s1", error_kind=ErrorKind.OUTCOME),
                TrackerEvent(9, EventKind.STEP_END, step_id="s1"),
            ]
        )
        assert align_events(two_screen_graph, log).steps[0].errors == (ErrorKind.OUTCOME,)

    def test_last_resolved_click_wins(self, two_screen_graph):
        log = _session(
            [
                TrackerEvent(0, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(5, EventKind.CLICK, point=(200.0, 300.0), screen_id="A", step_id="s1"),
                TrackerEvent(8, EventKind.CLICK, point=(500.0, 300.0), screen_id="A", step_id="s1"),
                TrackerEvent(9, EventKind.STEP_END, step_id="s1"),
            ]
        )
        assert align_events(two_screen_graph, log).steps[0].path_id == "P_12"

    def test_unaligned_step_collected_not_fatal(self, two_screen_graph):
        log = _session(
            [
                TrackerEvent(0, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(5, EventKind.CLICK, point=(700.0, 550.0), screen_id="A", step_id="s1"),
                TrackerEvent(9, EventKind.STEP_END, step_id="s1"),
            ]
        )
        trace = align_events(two_screen_graph, log)
        assert trace.unaligned == ("s1",)
        assert trace.steps[0].path_id is None

    def test_window_rules_of_overlapping_steps(self, two_screen_graph):
        """With s1 and s2 open at once: an event naming no step goes to both,
        an event naming s1 only to s1, and an event naming the closed s0, or a
        key event, to neither."""
        log = _session(
            [
                TrackerEvent(0, EventKind.STEP_START, step_id="s0"),
                TrackerEvent(1, EventKind.STEP_END, step_id="s0"),
                TrackerEvent(2, EventKind.STEP_START, step_id="s1"),
                TrackerEvent(3, EventKind.STEP_START, step_id="s2"),
                TrackerEvent(4, EventKind.MOVE, point=(180.0, 290.0), screen_id="A"),
                TrackerEvent(5, EventKind.CLICK, point=(200.0, 300.0), screen_id="A", step_id="s1"),
                TrackerEvent(6, EventKind.ERROR_ANNOTATION, error_kind=ErrorKind.EXECUTION),
                TrackerEvent(7, EventKind.MOVE, point=(1.0, 1.0), screen_id="A", step_id="s0"),
                TrackerEvent(8, EventKind.CLICK, point=(500.0, 300.0), screen_id="A", step_id="s0"),
                TrackerEvent(9, EventKind.ERROR_ANNOTATION, step_id="s0", error_kind=ErrorKind.OUTCOME),
                TrackerEvent(10, EventKind.KEY, point=(500.0, 300.0), screen_id="A", step_id="s2"),
                TrackerEvent(11, EventKind.KEY),
                TrackerEvent(12, EventKind.STEP_END, step_id="s2"),
                TrackerEvent(13, EventKind.STEP_END, step_id="s1"),
            ]
        )
        trace = align_events(two_screen_graph, log)
        assert trace.steps == (
            AlignedStep("s0", None, 0.001, (), ()),
            AlignedStep("s2", None, 0.009, (ErrorKind.EXECUTION,), ((180.0, 290.0),)),
            AlignedStep("s1", "P_11", 0.011, (ErrorKind.EXECUTION,), ((180.0, 290.0), (200.0, 300.0))),
        )
        assert trace.unaligned == ("s0", "s2")

    def test_duration_sum_bounded_by_session_span(self, two_screen_graph):
        events = []
        t = 0
        for i in range(5):
            events.append(TrackerEvent(t, EventKind.STEP_START, step_id=f"s{i}"))
            t += 100 + 13 * i
            events.append(TrackerEvent(t, EventKind.STEP_END, step_id=f"s{i}"))
            t += 7
        trace = align_events(two_screen_graph, _session(events), {f"s{i}": "P_11" for i in range(5)})
        span = (events[-1].t_ms - events[0].t_ms) / 1000.0
        assert sum(s.duration_s for s in trace.steps) <= span


def _screen_a_graph():
    """Screen A only, so a click on any other screen is an UnknownScreenError."""
    return load_graph(
        {
            "screens": [{"id": "A", "width_px": 800, "height_px": 600}],
            "elements": [
                {"id": "N_1", "name": "plant", "kind": "system_root", "screen": "A", "x": 400, "y": 50},
                {"id": "N_11", "name": "pump", "kind": "parameter", "screen": "A", "x": 200, "y": 150,
                 "bbox": [0, 0, 400, 300], "parent": "N_1"},
                {"id": "N_12", "name": "valve", "kind": "parameter", "screen": "A", "x": 600, "y": 450,
                 "bbox": [550, 420, 100, 60], "parent": "N_1"},
            ],
        }
    )


def _aligned_outcome(align, lines):
    """The trace with the types of its numbers, or the error's type and message."""
    try:
        trace = align(lines)
    except Exception as exc:  # compare failures by type and message
        return type(exc), str(exc)
    types = [(type(s.duration_s), [(type(x), type(y)) for x, y in s.trajectory]) for s in trace.steps]
    return trace, types


_TARGETS = {"s1": "P_12"}  # s2 declares none, so an s2 without a hit is unaligned
_KEY = _line(t_ms=0, kind="key")
_START = _line(t_ms=0, kind="step_start", step_id="s1")


def _no_fallback(record, line_no):
    raise AssertionError(f"line {line_no} left the inline check for _event_from_record")


class TestAlignLines:
    """align_lines against align_events(_reference_parse(...)), the reference."""

    def _check(self, g, lines):
        fused = _aligned_outcome(lambda ls: align_lines(g, ls, _TARGETS), lines)
        assert fused == _aligned_outcome(lambda ls: align_events(g, _reference_parse(ls), _TARGETS), lines), lines
        return fused

    def test_matches_reference_on_mutated_logs(self, monkeypatch):
        fallbacks = []

        def counted(record, line_no):
            fallbacks.append(line_no)
            return _event_from_record(record, line_no)

        monkeypatch.setattr(ingest, "_event_from_record", counted)
        g = _screen_a_graph()
        rng = random.Random(20251018)
        kinds = set()
        for _ in range(2000):
            outcome = self._check(g, _mutated_log(rng))
            kinds.add(type(outcome[0]) if isinstance(outcome[0], AlignedTrace) else outcome[0])
        assert kinds == {AlignedTrace, ParseError, UnknownScreenError}
        # The records of 938 of the 26,129 non-blank lines leave the inline check: both checks ran.
        assert 800 < len(fallbacks) < 1100

    @pytest.mark.parametrize(
        "lines",
        [
            [_START[:20], _START[20:]],
            [_KEY, _KEY + _KEY],
            # Each of these would decode, joined by ",\n" into one array, as
            # one valid key record per line.
            ['{"t_ms": 0, "kind": "key"', '"session_id": "S1", "participant_id": "P1"}', f"{_KEY},{_KEY}"],
            [_KEY, f"{_KEY},{_KEY}", _KEY],
            ['{"t_ms": 0, "kind": "key", "session_id": "S1", "note": "}', '{", "participant_id": "P1"}'],
            [f'{_KEY},\n{{"t_ms": 0, "kind": "key"', '"session_id": "S1", "participant_id": "P1"}'],
            [f"5,{_KEY}", _KEY],
            [_KEY, f"{_KEY},5"],
            [_START, _line(t_ms="12", kind="click", x=600, y=450, screen="A", step_id="s1"), _line(t_ms=20, kind="step_end", step_id="s1")],
            [
                _line(t_ms=0, kind="step_start", step_id="s2"),
                _line(t_ms=5, kind="move", x=10, y=20, screen="A", step_id="s2"),
                _line(t_ms=12, kind="click", x=600, y=450, screen="A", step_id="s2"),
                _line(t_ms=20, kind="step_end", step_id="s2"),
            ],
            [
                json.dumps({"t_ms": 0, "kind": "step_start", "step_id": "s\u20281", "session_id": "S\u2028"}, ensure_ascii=False),
                "",
                "   \t",
                json.dumps({"t_ms": 3, "kind": "step_end", "step_id": "s\u20281", "session_id": "S\u2028"}, ensure_ascii=False)
                + "\u2028",
            ],
            [_START, _line(t_ms=1, kind="step_start", step_id="s1"), _line(t_ms=2, kind="step_end", step_id="s1")],
            [_START, _line(t_ms=1, kind="key", step_id="s1")],
            [_KEY, _line(t_ms=1, kind="step_end", step_id="s1")],
            [_KEY, _line(t_ms=1, kind="key", participant_id="P2")],
            [_KEY, _line(t_ms=1, kind="move"), _line(t_ms=2, kind="key"), "{broken"],
        ],
        ids=[
            "split-record", "two-objects", "split-and-comma-joined", "comma-joined", "brace-in-string",
            "newline-inside-line", "leading-value", "trailing-value",
            "digit-string-t_ms", "int-coordinates", "u2028-and-blank",
            "restarted-step", "unclosed-step", "unmatched-end", "changed-participant",
            "record-error-before-bad-json",
        ],
    )
    def test_crafted_logs_match_reference(self, lines):
        self._check(_screen_a_graph(), lines)

    def _check_text(self, g, text):
        """align_lines on a log's text against the reference on its splitlines."""
        whole = _aligned_outcome(lambda t: align_lines(g, t, _TARGETS), text)
        assert whole == _aligned_outcome(lambda t: align_events(g, _reference_parse(t.splitlines()), _TARGETS), text), text
        return whole

    def test_a_text_matches_the_reference_on_mutated_logs(self):
        g = _screen_a_graph()
        rng = random.Random(20261021)
        for _ in range(1000):
            self._check_text(g, "\n".join(_mutated_log(rng)) + rng.choice(["", "\n", "\n\n", " \n"]))

    @pytest.mark.parametrize("mark", list("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), ids=lambda mark: f"{ord(mark):#06x}")
    def test_a_text_breaks_lines_where_splitlines_does(self, mark):
        """Each line break of str.splitlines other than "\\n", in a string
        value or between fields, splits the line, so line 1 is not valid JSON."""
        for text in (_START.replace('"S1"', f'"S{mark}1"'), _START.replace(", ", f",{mark}", 1)):
            text += "\n" + _line(t_ms=20, kind="step_end", step_id="s1") + "\n"
            assert self._check_text(_screen_a_graph(), text)[0] is ParseError

    def test_a_text_of_one_object_per_line_is_decoded_in_one_call(self, monkeypatch):
        calls, loads = [], json.loads

        def counted(text):
            calls.append(text)
            return loads(text)

        monkeypatch.setattr(ingest.json, "loads", counted)
        lines = [_START, _line(t_ms=5, kind="move", x=10, y=20, screen="A", step_id="s1"), _line(t_ms=9, kind="step_end", step_id="s1")]
        assert align_lines(_screen_a_graph(), "\n".join(lines) + "\n", _TARGETS) == align_lines(_screen_a_graph(), lines, _TARGETS)
        assert len(calls) == 2 and calls[0] == calls[1] == "[" + ",\n".join(lines) + "]"

    def test_odd_record_alone_leaves_the_inline_check(self, monkeypatch):
        """A digit-string timestamp is read by _event_from_record, once; the
        other records of its log stay on the inline check."""
        lines = [_START, _line(t_ms="12", kind="key", step_id="s1"), _line(t_ms=20, kind="step_end", step_id="s1")]
        handed = []

        def counted(record, line_no):
            handed.append((record["t_ms"], line_no))
            return _event_from_record(record, line_no)

        monkeypatch.setattr(ingest, "_event_from_record", counted)
        assert align_lines(_screen_a_graph(), lines, _TARGETS).steps == (AlignedStep("s1", "P_12", 0.02, (), ()),)
        assert handed == [("12", 2)]

    def test_click_on_undeclared_screen_outside_steps_is_not_hit_tested(self, monkeypatch):
        lines = [
            _line(t_ms=0, kind="click", x=1, y=1, screen="NOPE"),
            _line(t_ms=1, kind="step_start", step_id="s2"),
            _line(t_ms=2, kind="step_end", step_id="s2"),
        ]
        trace, _ = self._check(_screen_a_graph(), lines)
        assert trace.unaligned == ("s2",)
        monkeypatch.setattr(ingest, "_event_from_record", _no_fallback)
        assert align_lines(_screen_a_graph(), lines, _TARGETS) == trace

    def test_click_on_undeclared_screen_inside_a_step_raises_the_reference_error(self, monkeypatch):
        lines = [
            _START,
            _line(t_ms=5, kind="click", x=1, y=1, screen="NOPE", step_id="s1"),
            _line(t_ms=9, kind="step_end", step_id="s1"),
        ]
        assert self._check(_screen_a_graph(), lines) == (UnknownScreenError, "screen 'NOPE' is not declared in the graph")
        monkeypatch.setattr(ingest, "_event_from_record", _no_fallback)
        with pytest.raises(UnknownScreenError, match="^screen 'NOPE' is not declared in the graph$"):
            align_lines(_screen_a_graph(), lines, _TARGETS)

    def test_empty_declared_target_binds_the_step(self, monkeypatch):
        """A declared target of "" is a target: the step binds to path "" and
        is not unaligned, on the reference and the fused path alike."""
        g, lines, targets = _screen_a_graph(), [_START, _line(t_ms=5, kind="step_end", step_id="s1")], {"s1": ""}
        expected = AlignedTrace("S1", (AlignedStep("s1", "", 0.005, (), ()),), ())
        assert align_events(g, parse_session_log(lines), targets) == expected
        monkeypatch.setattr(ingest, "_event_from_record", _no_fallback)
        assert align_lines(g, lines, targets) == expected

    def test_simulated_logs_take_the_fused_path(self, two_screen_graph, monkeypatch):
        steps = tuple(ProcedureStep(f"s{i}", "", path) for i, path in enumerate(["P_11", "P_12", "P_13", "P_11"]))
        paths = {path: PathPlan(path, 2.0, p_execution=0.3, p_outcome=0.2) for path in ["P_11", "P_12", "P_13"]}
        plan = ScenarioPlan((Procedure("PR", steps),), paths, participants=3, sessions_per_participant=4, seed=7)
        texts = [serialize_session(log) for log in generate_sessions(two_screen_graph, plan)]
        # Whitespace-only lines (in every other log, after its first three
        # records) stay on the fused path too.
        logs = [(text.replace("\n", "\n \n", 3) if i % 2 else text).splitlines() for i, text in enumerate(texts)]
        targets = {"s3": "P_12"}
        expected = path_samples(align_events(two_screen_graph, _reference_parse(lines), targets) for lines in logs)
        assert any(samples.error_steps for samples in expected.values())
        monkeypatch.setattr(ingest, "_event_from_record", _no_fallback)
        assert path_samples(align_lines(two_screen_graph, lines, targets) for lines in logs) == expected


class TestPathSamples:
    def test_two_traces_aggregate(self):
        t1 = AlignedTrace("S1", (AlignedStep("a", "P_110", 1.0, (), ()),))
        t2 = AlignedTrace("S2", (AlignedStep("b", "P_110", 3.0, (), ()),))
        samples = path_samples([t1, t2])
        assert samples["P_110"].durations == [1.0, 3.0]
        assert samples["P_110"].attempts == 2

    def test_execution_error_counted(self):
        t = AlignedTrace("S1", (AlignedStep("a", "P_122", 2.0, (ErrorKind.EXECUTION,), ()),))
        samples = path_samples([t])
        assert samples["P_122"].execution_errors == 1
        assert samples["P_122"].outcome_errors == 0
        assert samples["P_122"].error_steps == 1

    def test_empty_input(self):
        assert path_samples([]) == {}

    def test_attempt_totals_conserved(self):
        traces = [
            AlignedTrace("S1", (AlignedStep("a", "P_1", 1.0, (), ()), AlignedStep("b", "P_2", 1.0, (), ()))),
            AlignedTrace("S2", (AlignedStep("c", "P_1", 1.0, (), ()),)),
        ]
        samples = path_samples(traces)
        assert sum(s.attempts for s in samples.values()) == sum(len(t.steps) for t in traces)

    def test_traversal_per_attempt_with_trajectory(self):
        a = ((0.0, 0.0), (3.0, 4.0))
        b = ((1.0, 1.0), (1.0, 3.0), (4.0, 7.0))
        steps = (
            AlignedStep("a", "P_1", 1.0, (), a),
            AlignedStep("b", "P_1", 1.0, (), ()),
            AlignedStep("c", None, 1.0, (), b),
            AlignedStep("d", "P_2", 1.0, (), ((2.0, 2.0),)),
            AlignedStep("e", "P_1", 1.0, (), b),
        )
        samples = path_samples([AlignedTrace("S1", steps)])
        assert samples["P_1"].traversals == [trajectory_length(a), trajectory_length(b)] == [5.0, 7.0]
        assert samples["P_2"].traversals == [0.0]

    def test_step_with_both_kinds_counts_once(self):
        t = AlignedTrace("S1", (AlignedStep("a", "P_1", 2.0, (ErrorKind.EXECUTION, ErrorKind.OUTCOME), ()),))
        s = path_samples([t])["P_1"]
        assert (s.execution_errors, s.outcome_errors, s.error_steps) == (1, 1, 1)


def _contiguous_splits(items: list, max_chunks: int):
    """Every split of ``items`` into 1 to ``max_chunks`` contiguous chunks,
    in order, empty chunks included."""
    for k in range(1, max_chunks + 1):
        for cuts in itertools.combinations_with_replacement(range(len(items) + 1), k - 1):
            bounds = (0, *cuts, len(items))
            yield [items[a:b] for a, b in zip(bounds, bounds[1:])]


class TestMergeSamples:
    # One trace per session file. P_2 is first seen in the third file, and
    # every step of the second file is unaligned.
    FILES = [
        AlignedTrace("S1", (
            AlignedStep("a", "P_1", 1.5, (ErrorKind.EXECUTION,), ((0.0, 0.0), (3.0, 4.0))),
            AlignedStep("b", "P_3", 0.25, (), ()),
        )),
        AlignedTrace("S2", (AlignedStep("x", None, 9.0, (ErrorKind.OUTCOME,), ((1.0, 1.0),)),), ("x",)),
        AlignedTrace("S3", (
            AlignedStep("c", "P_2", 2.0, (ErrorKind.OUTCOME, ErrorKind.EXECUTION), ((0.0, 0.0), (0.0, 2.0))),
            AlignedStep("a", "P_1", 0.1, (ErrorKind.OUTCOME,), ()),
        )),
        AlignedTrace("S4", ()),
        AlignedTrace("S5", (AlignedStep("b", "P_3", 4.0, (), ((5.0, 5.0), (8.0, 9.0))), AlignedStep("c", "P_2", 3.0, (), ()))),
    ]

    def test_every_contiguous_split_equals_the_serial_fold(self):
        serial = path_samples(self.FILES)
        assert list(serial) == ["P_1", "P_3", "P_2"]
        splits = 0
        for chunks in _contiguous_splits(self.FILES, 4):
            parts = [path_samples(chunk) for chunk in chunks]
            before = copy.deepcopy(parts)
            merged = merge_samples(parts)
            assert merged == serial and list(merged) == list(serial), [len(c) for c in chunks]
            assert parts == before  # the parts are left unchanged
            splits += 1
        assert splits == 1 + 6 + 21 + 56

    def test_empty_parts(self):
        assert merge_samples([]) == {}
        assert merge_samples([{}, {}]) == {}
        assert merge_samples([{}, path_samples(self.FILES), {}]) == path_samples(self.FILES)

    def test_a_part_from_unaligned_steps_only_adds_nothing(self):
        unaligned = path_samples(self.FILES[1:2])
        assert unaligned == {}
        merged = merge_samples([path_samples(self.FILES[:1]), unaligned, path_samples(self.FILES[2:])])
        assert merged == path_samples(self.FILES)


def test_load_procedures_single_and_list(tmp_path, two_screen_graph):
    doc = {"procedure_id": "PR_9", "steps": [{"step_id": "s1", "text": "check pump", "target_path": "P_11"}]}
    procs = load_procedures(doc, two_screen_graph)
    assert procs[0].procedure_id == "PR_9"
    assert procs[0].steps[0].target_path == "P_11"

    file = tmp_path / "procs.json"
    file.write_text(json.dumps([doc, {"procedure_id": "PR_2", "steps": []}]))
    assert [p.procedure_id for p in load_procedures(json.loads(file.read_text()), two_screen_graph)] == ["PR_9", "PR_2"]


# --- reference implementations and generators for equivalence tests ---------


def _reference_parse(lines):
    """The plain per-line parser: json.loads and _event_from_record per line."""
    events = []
    session_id = participant_id = None
    open_steps = set()
    last_t = -1
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: not valid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            names = {list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}
            raise ParseError(f"line {line_no}: expected a JSON object, got {names[type(record)]}")
        event = _event_from_record(record, line_no)
        for key, seen in (("session_id", session_id), ("participant_id", participant_id)):
            value = str(record.get(key, ""))
            if seen is not None and value != seen:
                raise ParseError(f"line {line_no}: {key} changed from {seen!r} to {value!r}")
        session_id = str(record.get("session_id", ""))
        participant_id = str(record.get("participant_id", ""))
        if event.t_ms < last_t:
            raise ParseError(f"line {line_no}: non-monotonic timestamp {event.t_ms} after {last_t}")
        last_t = event.t_ms
        if event.kind is EventKind.STEP_START:
            if event.step_id in open_steps:
                raise ParseError(f"line {line_no}: step {event.step_id!r} started while already open")
            open_steps.add(event.step_id)
        elif event.kind is EventKind.STEP_END:
            if event.step_id not in open_steps:
                raise ParseError(f"line {line_no}: unmatched step_end for {event.step_id!r}")
            open_steps.discard(event.step_id)
        events.append(event)
    if open_steps:
        raise ParseError(f"unmatched step_start for {sorted(open_steps)}")
    if session_id is None:
        raise ParseError("log contains no events")
    return SessionLog(session_id, participant_id or "", tuple(events))


def _outcome(parse, lines):
    try:
        log = parse(lines)
    except Exception as exc:  # compare failures by type and message
        return type(exc), str(exc)
    return log, [(type(e.t_ms), type(e.point[0]) if e.point else None) for e in log.events]


_ODD_VALUES = [0, 7, -3, 2.5, "12", "x", "", True, False, None, [1], {"a": 1}, float("nan"), float("inf"), 10**400]


def _mutated_log(rng):
    """A valid two-step log with a few fields replaced, dropped or added;
    a third of the logs carry whole-pixel (int) coordinates throughout."""
    coordinate = rng.choice([rng.uniform, rng.uniform, rng.randint])
    records = []
    t = 0
    for step in ("s1", "s2"):
        records.append({"t_ms": t, "kind": "step_start", "step_id": step})
        for kind in ("move", "move", "click"):
            t += rng.randint(0, 40)
            records.append({"t_ms": t, "kind": kind, "x": coordinate(0, 800), "y": coordinate(0, 600),
                            "screen": "A", "step_id": step})
        if rng.random() < 0.5:
            records.append({"t_ms": t, "kind": "error_annotation", "error_kind": "execution", "step_id": step})
        records.append({"t_ms": t + 1, "kind": "key", "step_id": step})
        t += 5
        records.append({"t_ms": t, "kind": "step_end", "step_id": step})
    for record in records:
        record.update(session_id="S1", participant_id="P1")
    fields = ["t_ms", "kind", "x", "y", "screen", "step_id", "error_kind", "session_id", "participant_id"]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        record = rng.choice(records)
        field = rng.choice(fields)
        roll = rng.random()
        if roll < 0.2:
            record.pop(field, None)
        elif roll < 0.35:
            record[field] = rng.choice(["move", "click", "key", "step_start", "step_end", "error_annotation",
                                        "execution", "outcome", "S1", "P1", "s1", "s2"])
        elif roll < 0.45 and field in ("t_ms", "x", "y"):
            record[field] = int(record.get(field) or 0)
        elif field in ("step_id", "screen") and roll < 0.9:
            record[field] = rng.choice([0, 7, "", "s1", "s2", "B", None])
        else:
            record[field] = rng.choice(_ODD_VALUES)
    lines = [json.dumps(r) for r in records]
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "[1,2]", "5", "{", lines[0] + lines[0]]))
    return lines


def _random_graph(rng):
    """Elements on an integer grid, so equal areas, box edges and equal
    snap distances are common; about a quarter have no bbox, and some
    boxes sit inside others."""
    screens = [Screen(f"S{i}", 120, 120) for i in range(3)]
    elements = []
    ids = rng.sample(range(1000), 60)
    for n, number in enumerate(ids):
        screen = screens[n % 3].id
        bbox = None
        if rng.random() < 0.75:
            w, h = rng.choice([(4, 4), (8, 4), (4, 8), (10, 10), (20, 10), (30, 30)])
            outer = [e.bbox for e in elements if e.screen_id == screen and e.bbox and e.bbox[2] > w and e.bbox[3] > h]
            if outer and rng.random() < 0.4:
                ox, oy, ow, oh = rng.choice(outer)
                x0, y0 = ox + rng.randint(0, int(ow - w)), oy + rng.randint(0, int(oh - h))
            else:
                x0, y0 = rng.randint(0, 100), rng.randint(0, 100)
            bbox = (float(x0), float(y0), float(w), float(h))
            position = (x0 + w / 2, y0 + h / 2)
        else:
            position = (float(rng.randint(0, 120)), float(rng.randint(0, 120)))
        elements.append(InterfaceElement(f"E{number:03d}", "", ElementKind.CONTROL, screen, position, bbox))
    return InterfaceGraph(elements, [], screens)


def _probe_point(rng, elements):
    roll = rng.random()
    if roll < 0.25:  # on a box edge or corner
        bx, by, bw, bh = rng.choice([e.bbox for e in elements if e.bbox] or [(0.0, 0.0, 1.0, 1.0)])
        return rng.choice([bx, bx + bw, bx + bw / 2]), rng.choice([by, by + bh, by + bh / 3])
    if roll < 0.45:  # halfway between two centres, or offset along a grid line
        a, b = rng.sample([e.position for e in elements], 2)
        return (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
    if roll < 0.6:  # near a centre
        cx, cy = rng.choice(elements).position
        return cx + rng.choice([-5, -3, 0, 3, 4, 5]), cy + rng.choice([-4, 0, 4])
    return float(rng.randint(-10, 130)), float(rng.randint(-10, 130))


def _brute_hit(g, screen_id, point, snap_radius):
    """Scan every element of the screen; also name the cases the point exercised."""
    x, y = point
    elements = g.screen_elements(screen_id)
    cases = set()
    contained = []
    for e in elements:
        if e.bbox is None:
            continue
        bx, by, bw, bh = e.bbox
        if bx <= x <= bx + bw and by <= y <= by + bh:
            contained.append((bw * bh, e.id))
            if x in (bx, bx + bw) or y in (by, by + bh):
                cases.add("edge")
    if contained:
        areas = sorted(area for area, _ in contained)
        if len(areas) > 1:
            cases.add("area-tie" if areas[0] == areas[1] else "nested")
        return min(contained)[1], cases
    near = sorted(
        (math.hypot(e.position[0] - x, e.position[1] - y), e.id, e.bbox is None)
        for e in elements
        if math.hypot(e.position[0] - x, e.position[1] - y) <= snap_radius
    )
    if not near:
        if any(math.hypot(e.position[0] - x, e.position[1] - y) <= 40.0 for e in elements):
            cases.add("beyond-radius")
        return None, cases
    cases.add("snap")
    if len(near) > 1 and near[0][0] == near[1][0]:
        cases.add("snap-tie")
    if near[0][2]:
        cases.add("bboxless-snap")
    return near[0][1], cases


@pytest.mark.parametrize("t_ms", [2**53, 10**400, str(2**53)])
def test_timestamp_beyond_exact_float_range_names_its_line(t_ms):
    """2**53 - 1 ms is the last timestamp a float holds exactly; a later one is
    a parse error, not an overflow, in both readers."""
    lines = [_line(t_ms=0, kind="step_start", step_id="s1"), _line(t_ms=t_ms, kind="step_end", step_id="s1")]
    for read in (parse_session_log, lambda ls: align_lines(_screen_a_graph(), ls)):
        with pytest.raises(ParseError, match=f"^line 2: timestamp above {2**53 - 1}$"):
            read(lines)
    ok = [lines[0], _line(t_ms=2**53 - 1, kind="step_end", step_id="s1")]
    assert align_lines(_screen_a_graph(), ok).steps[0].duration_s == (2**53 - 1) / 1000.0
