"""Tracker session logs: parsing, hit-testing, and alignment to the graph.

A session log is JSON Lines, one event per line:
``{t_ms, kind, x?, y?, screen?, step_id?, error_kind?, session_id,
participant_id}``. Alignment turns the raw stream into per-step records
(path, duration, errors, trajectory) by hit-testing clicks against
element bounding boxes; the step binds to the last resolved click, or to
its declared target when no click resolved.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence
from .graph import InterfaceGraph, path_id_for
from .metrics import trajectory_length

SNAP_RADIUS_PX = 12.0


class ParseError(ValueError):
    """A session log line is malformed or the stream is inconsistent."""


class UnknownScreenError(KeyError):
    """Hit test against a screen the graph does not declare."""

    __str__ = Exception.__str__  # the message, without the quotes KeyError adds


class EventKind(str, Enum):
    MOVE = "move"
    CLICK = "click"
    KEY = "key"
    STEP_START = "step_start"
    STEP_END = "step_end"
    ERROR_ANNOTATION = "error_annotation"


class ErrorKind(str, Enum):
    EXECUTION = "execution"
    OUTCOME = "outcome"


class TrackerEvent(NamedTuple):
    t_ms: int
    kind: EventKind
    point: tuple[float, float] | None = None
    screen_id: str | None = None
    step_id: str | None = None
    error_kind: ErrorKind | None = None


@dataclass(frozen=True)
class SessionLog:
    session_id: str
    participant_id: str
    events: tuple[TrackerEvent, ...]


@dataclass(frozen=True)
class AlignedStep:
    step_id: str
    path_id: str | None
    duration_s: float
    errors: tuple[ErrorKind, ...]
    trajectory: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class AlignedTrace:
    session_id: str
    steps: tuple[AlignedStep, ...]
    unaligned: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProcedureStep:
    step_id: str
    text: str
    target_path: str | None = None


@dataclass(frozen=True)
class Procedure:
    procedure_id: str
    steps: tuple[ProcedureStep, ...]


def load_procedures(document: Any) -> list[Procedure]:
    """Load one procedure (object) or several (array) from a decoded
    document; an error names the procedure and the field."""
    raw_list = [document] if isinstance(document, Mapping) else document
    if not isinstance(raw_list, (list, tuple)) or not all(isinstance(raw, Mapping) for raw in raw_list):
        raise ValueError("procedures must be a JSON object or an array of objects")
    procedures = []
    for raw in raw_list:
        procedure_id, steps = raw.get("procedure_id"), raw.get("steps", [])
        if type(procedure_id) is not str:
            raise ValueError(f"procedure_id must be a string, got {procedure_id!r}")
        if not isinstance(steps, list) or not all(isinstance(s, Mapping) for s in steps):
            raise ValueError(f"procedure {procedure_id!r}: steps must be an array of objects")
        for n, s in enumerate(steps, start=1):
            for key in ("step_id", "text", "target_path"):
                if type(s.get(key)) is not str and (key == "step_id" or s.get(key) is not None):
                    raise ValueError(f"procedure {procedure_id!r}, step {n}: {key} must be a string, got {s.get(key)!r}")
        procedures.append(
            Procedure(procedure_id, tuple(ProcedureStep(s["step_id"], s.get("text") or "", s.get("target_path")) for s in steps))
        )
    return procedures


_POINT_KINDS = {EventKind.MOVE, EventKind.CLICK}
_STEP_KINDS = {EventKind.STEP_START, EventKind.STEP_END}
_ERROR_KINDS = {kind.value: kind for kind in ErrorKind}
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}
_JSON_NUMBERS = {int, float}  # by exact type, so bools stay out
_ID_TYPES = {str, type(None)}
_MAX_FLOAT = sys.float_info.max


def _event_from_record(record: Mapping[str, Any], line_no: int) -> TrackerEvent:
    try:
        kind = EventKind(record["kind"])
        t_ms = record["t_ms"]
        if type(t_ms) is str and t_ms.isascii() and t_ms.isdigit():  # a string of digits is read as its integer
            t_ms = int(t_ms)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line {line_no}: {exc}") from None
    if type(t_ms) is not int:  # any other string, a float, boolean, null, array or object
        raise ParseError(f"line {line_no}: malformed timestamp {t_ms!r}")
    if t_ms < 0:
        raise ParseError(f"line {line_no}: negative timestamp {t_ms}")

    point = None
    if "x" in record or "y" in record:
        x, y = record.get("x"), record.get("y")
        if type(x) not in _JSON_NUMBERS or type(y) not in _JSON_NUMBERS:  # absent, a string, a boolean, ...
            raise ParseError(f"line {line_no}: malformed point")
        try:
            point = (float(x), float(y))
        except OverflowError:  # an integer too large for a float
            raise ParseError(f"line {line_no}: malformed point") from None
        if not (math.isfinite(point[0]) and math.isfinite(point[1])):
            raise ParseError(f"line {line_no}: non-finite point {point}")
    if (point is not None) != (kind in _POINT_KINDS):
        raise ParseError(f"line {line_no}: {kind.value} events {'require' if kind in _POINT_KINDS else 'forbid'} a point")

    error_kind = None
    if record.get("error_kind") is not None:
        try:
            error_kind = ErrorKind(record["error_kind"])
        except ValueError:
            raise ParseError(f"line {line_no}: unknown error kind {record['error_kind']!r}") from None
    if (error_kind is not None) != (kind is EventKind.ERROR_ANNOTATION):
        raise ParseError(f"line {line_no}: error_kind present iff kind is error_annotation")
    screen, step_id = record.get("screen"), record.get("step_id")
    if type(screen) not in _ID_TYPES:
        raise ParseError(f"line {line_no}: malformed screen {screen!r}")
    if step_id is None and kind in _STEP_KINDS:
        raise ParseError(f"line {line_no}: {kind.value} events require a step_id")
    if type(step_id) not in _ID_TYPES:
        raise ParseError(f"line {line_no}: malformed step_id {step_id!r}")

    return TrackerEvent(t_ms=t_ms, kind=kind, point=point, screen_id=screen, step_id=step_id, error_kind=error_kind)


def _decode_line(line: str, line_no: int) -> dict[str, Any]:
    """Decode one stripped log line, which must hold exactly one JSON object."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {line_no}: not valid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer longer than int() converts
        raise ParseError(f"line {line_no}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"line {line_no}: not valid JSON (nested too deeply)") from None
    if type(record) is not dict:
        raise ParseError(f"line {line_no}: expected a JSON object, got {_JSON_TYPES[type(record)]}")
    return record


def parse_session_log(lines: Iterable[str]) -> SessionLog:
    """Parse the lines of a JSON-Lines session log, enforcing order and step
    nesting."""
    events: list[TrackerEvent] = []
    ids: tuple[str, str] | None = None  # (session_id, participant_id) of the first record
    open_steps: set[str] = set()
    last_t = -1
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        record = _decode_line(line, line_no)
        event = _event_from_record(record, line_no)

        line_ids = (str(record.get("session_id", "")), str(record.get("participant_id", "")))
        for key, seen, value in zip(("session_id", "participant_id"), ids or line_ids, line_ids):
            if value != seen:
                raise ParseError(f"line {line_no}: {key} changed from {seen!r} to {value!r}")
        ids = line_ids

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
    if ids is None:
        raise ParseError("log contains no events")
    return SessionLog(ids[0], ids[1], tuple(events))


def serialize_session(log: SessionLog) -> str:
    """Inverse of :func:`parse_session_log` (JSON Lines)."""
    lines = []
    for e in log.events:
        record: dict[str, Any] = {"t_ms": e.t_ms, "kind": e.kind.value}
        if e.point is not None:
            record["x"], record["y"] = e.point
        if e.screen_id is not None:
            record["screen"] = e.screen_id
        if e.step_id is not None:
            record["step_id"] = e.step_id
        if e.error_kind is not None:
            record["error_kind"] = e.error_kind.value
        record["session_id"] = log.session_id
        record["participant_id"] = log.participant_id
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def hit_test(
    g: InterfaceGraph,
    screen_id: str,
    point: tuple[float, float],
    snap_radius: float = SNAP_RADIUS_PX,
) -> str | None:
    """Element under a point: bbox containment first (smallest area wins,
    ties by id), else nearest element center within the snap radius."""
    if screen_id not in g.screens:
        raise UnknownScreenError(f"screen {screen_id!r} is not declared in the graph")
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point must be finite, got {point}")
    return g.hit(screen_id, x, y, snap_radius)


class _OpenStep:
    __slots__ = ("step_id", "start_ms", "last_hit", "errors", "trajectory")

    def __init__(self, step_id: str, start_ms: int):
        self.step_id = step_id
        self.start_ms = start_ms
        self.last_hit: str | None = None
        self.errors: list[ErrorKind] = []
        self.trajectory: list[tuple[float, float]] = []

    def close(self, end_ms: int, targets: Mapping[str, str], unaligned: list[str]) -> AlignedStep:
        """The step ended at ``end_ms``, bound to its last resolved click, else
        to its target in ``targets``, else to no path and listed in ``unaligned``."""
        path_id: str | None = None
        if self.last_hit is not None:
            path_id = path_id_for(self.last_hit)
        elif self.step_id in targets:  # a declared target of "" binds too
            path_id = targets[self.step_id]
        else:
            unaligned.append(self.step_id)
        duration_s = (end_ms - self.start_ms) / 1000.0
        return AlignedStep(self.step_id, path_id, duration_s, tuple(self.errors), tuple(self.trajectory))


def align_events(
    g: InterfaceGraph,
    log: SessionLog,
    step_targets: Mapping[str, str] | None = None,
) -> AlignedTrace:
    """Resolve each step of a session to a path with duration and errors.

    Steps whose clicks all miss and that declare no target are kept with
    ``path_id=None`` and collected in ``unaligned`` rather than failing
    the whole session.
    """
    targets = dict(step_targets or {})
    open_steps: dict[str, _OpenStep] = {}
    steps: list[AlignedStep] = []
    unaligned: list[str] = []

    # Local names spare each test in the loop a lookup on the EventKind class.
    start, end, key = EventKind.STEP_START, EventKind.STEP_END, EventKind.KEY
    note, click = EventKind.ERROR_ANNOTATION, EventKind.CLICK
    for t_ms, kind, point, screen_id, step_id, error_kind in log.events:
        if kind is start:
            open_steps[step_id] = _OpenStep(step_id, t_ms)
            continue
        if kind is end:
            steps.append(open_steps.pop(step_id).close(t_ms, targets, unaligned))
            continue
        if kind is key:
            continue
        # A move, click or error annotation belongs to its own step's window,
        # or to every open window when it names no step.
        if step_id is not None:
            found = open_steps.get(step_id)
            windows = (found,) if found else ()
        else:
            windows = tuple(open_steps.values())
        if kind is note:
            for state in windows:
                state.errors.append(error_kind)
            continue
        hit = None
        if windows and kind is click and screen_id is not None:
            hit = hit_test(g, screen_id, point)
        for state in windows:
            state.trajectory.append(point)
            if hit is not None:
                state.last_hit = hit

    return AlignedTrace(log.session_id, tuple(steps), tuple(unaligned))


def align_lines(
    g: InterfaceGraph,
    lines: list[str],
    step_targets: Mapping[str, str] | None = None,
) -> AlignedTrace:
    """``align_events(g, parse_session_log(lines), step_targets)`` for the
    lines of one session log, in one pass over its records.

    The lines are decoded in one call, then records of the common shapes are
    checked and aligned as they come, keeping only the open steps; no
    TrackerEvent or SessionLog is built. A line that is not one object with
    its only braces at its ends, any other record, a failed order, nesting
    or id check, or a click on an undeclared screen hands the whole log to
    the reference functions, so the trace, or the error, is theirs.
    """
    trace = _align_common_shapes(g, lines, dict(step_targets or {}))
    if trace is None:
        return align_events(g, parse_session_log(lines), step_targets)
    return trace


def _line_records(lines: list[str]) -> list[dict[str, Any]] | None:
    """The JSON object on each non-blank stripped line, decoded in one call,
    or None where the lines need not hold one object each.

    The stripped lines are joined by ",\n" into one array. When every line
    starts with its only "{", ends with its only "}" and holds no newline,
    no string can span a newline, so each line's last "}" closes the object
    its first "{" opened: the array holds each line's object, equal to the
    line decoded alone, and a line that is not valid JSON fails the decode.
    """
    lines = [line for line in map(str.strip, lines) if line]
    text = ",\n".join(lines)
    n = len(lines)
    if not (
        text[:1] == "{" and text[-1:] == "}" and text.count("\n") == n - 1
        and text.count("{") == n == text.count("}") and text.count("},\n{") == n - 1
    ):
        return None
    try:
        return json.loads(f"[{text}]")
    except (ValueError, RecursionError):  # a line is not valid JSON, or is nested too deeply
        return None


def _align_common_shapes(g: InterfaceGraph, lines: list[str], targets: dict[str, str]) -> AlignedTrace | None:
    """The fused pass of :func:`align_lines`, or None where the lines are
    not decoded in one call, a record leaves the common shapes, or a check
    fails. The common shapes: an int timestamp, string session and
    participant ids, a string or absent screen and step id, and either a
    move or click with a finite int or float point, an error annotation
    with a known error_kind, or a key, step start or step end (with a step
    id) with neither."""
    records = _line_records(lines)
    if records is None:
        return None
    screens, hit_of = g.screens, g.hit
    open_steps: dict[str, _OpenStep] = {}
    steps: list[AlignedStep] = []
    unaligned: list[str] = []
    session_id = participant_id = None  # the first record's, both strings
    last_t = 0
    for record in records:
        try:
            t_ms, kind, sid, pid = record["t_ms"], record["kind"], record["session_id"], record["participant_id"]
        except KeyError:
            return None
        get = record.get
        screen, step_id = get("screen"), get("step_id")
        # last_t starts at 0, so this also rejects a negative timestamp.
        if type(t_ms) is not int or t_ms < last_t or type(screen) not in _ID_TYPES or type(step_id) not in _ID_TYPES:
            return None
        last_t = t_ms
        if sid != session_id or pid != participant_id:
            if session_id is not None or type(sid) is not str or type(pid) is not str:
                return None
            session_id, participant_id = sid, pid

        if kind == "move" or kind == "click":
            x, y = get("x"), get("y")
            # The range test is False for NaN, infinities and ints too large
            # for a float.
            if not (
                "error_kind" not in record and type(x) in _JSON_NUMBERS and type(y) in _JSON_NUMBERS
                and -_MAX_FLOAT <= x <= _MAX_FLOAT and -_MAX_FLOAT <= y <= _MAX_FLOAT
            ):
                return None
            point = (float(x), float(y))
        elif "x" in record or "y" in record:
            return None
        elif kind == "error_annotation":
            error = get("error_kind")
            error = _ERROR_KINDS.get(error) if type(error) is str else None
            if error is None:
                return None
        elif "error_kind" in record:
            return None
        elif kind == "step_start":
            if step_id is None or step_id in open_steps:
                return None
            open_steps[step_id] = _OpenStep(step_id, t_ms)
            continue
        elif kind == "step_end":
            state = open_steps.pop(step_id, None)
            if state is None:
                return None
            steps.append(state.close(t_ms, targets, unaligned))
            continue
        elif kind == "key":
            continue
        else:
            return None

        # As in align_events: the event belongs to its own step's window, or
        # to every open window when it names no step.
        if step_id is not None:
            state = open_steps.get(step_id)
            windows = (state,) if state is not None else ()
        else:
            windows = tuple(open_steps.values())
        if kind == "error_annotation":
            for state in windows:
                state.errors.append(error)
            continue
        hit = None
        if windows and kind == "click" and screen is not None:
            if screen not in screens:
                return None
            hit = hit_of(screen, point[0], point[1], SNAP_RADIUS_PX)
        for state in windows:
            state.trajectory.append(point)
            if hit is not None:
                state.last_hit = hit

    if open_steps or session_id is None:
        return None
    return AlignedTrace(session_id, tuple(steps), tuple(unaligned))


@dataclass
class PathSamples:
    """Aggregated evidence for one path across traces."""

    durations: list[float] = field(default_factory=list)
    attempts: int = 0
    execution_errors: int = 0  # attempts with >= 1 execution annotation
    outcome_errors: int = 0  # attempts with >= 1 outcome annotation
    error_steps: int = 0  # attempts with >= 1 annotation of any kind
    traversals: list[float] = field(default_factory=list)  # px, attempts with a trajectory


def path_samples(traces: Iterable[AlignedTrace]) -> dict[str, PathSamples]:
    """Fold aligned traces, one at a time, into per-path samples."""
    out: dict[str, PathSamples] = {}
    for trace in traces:
        for step in trace.steps:
            if step.path_id is None:
                continue
            sample = out.setdefault(step.path_id, PathSamples())
            sample.durations.append(step.duration_s)
            sample.attempts += 1
            if step.trajectory:
                sample.traversals.append(trajectory_length(step.trajectory))
            kinds = set(step.errors)
            if ErrorKind.EXECUTION in kinds:
                sample.execution_errors += 1
            if ErrorKind.OUTCOME in kinds:
                sample.outcome_errors += 1
            if kinds:
                sample.error_steps += 1
    return out


def merge_samples(parts: Iterable[Mapping[str, PathSamples]]) -> dict[str, PathSamples]:
    """Merge the samples of consecutive runs of traces, in order: equal to
    :func:`path_samples` over all of the traces, key order included. The
    parts are left unchanged."""
    out: dict[str, PathSamples] = {}
    for part in parts:
        for path_id, s in part.items():
            m = out.get(path_id)
            if m is None:
                out[path_id] = PathSamples(list(s.durations), s.attempts, s.execution_errors, s.outcome_errors,
                                           s.error_steps, list(s.traversals))
                continue
            m.durations += s.durations
            m.attempts += s.attempts
            m.execution_errors += s.execution_errors
            m.outcome_errors += s.outcome_errors
            m.error_steps += s.error_steps
            m.traversals += s.traversals
    return out
