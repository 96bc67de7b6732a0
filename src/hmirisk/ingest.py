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
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .config import read_json
from .graph import InterfaceGraph, path_id_for
from .metrics import trajectory_length

SNAP_RADIUS_PX = 12.0


class ParseError(ValueError):
    """A session log line is malformed or the stream is inconsistent."""


class UnknownScreenError(KeyError):
    """Hit test against a screen the graph does not declare."""


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


def load_procedures(document: Mapping[str, Any] | Sequence[Mapping[str, Any]] | str | Path) -> list[Procedure]:
    """Load one procedure (object) or several (array) from a document or a JSON file path."""
    if isinstance(document, (str, Path)):
        document = read_json(document)
    raw_list = document if isinstance(document, Sequence) else [document]
    procedures = []
    for raw in raw_list:
        steps = tuple(
            ProcedureStep(str(s["step_id"]), str(s.get("text", "")), s.get("target_path"))
            for s in raw.get("steps", [])
        )
        procedures.append(Procedure(str(raw["procedure_id"]), steps))
    return procedures


_POINT_KINDS = {EventKind.MOVE, EventKind.CLICK}
_KINDS = {kind.value: kind for kind in EventKind}
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}
_JSON_NUMBERS = {int, float}  # by exact type, so bools stay out
_ID_TYPES = {str, type(None)}
_MAX_FLOAT = sys.float_info.max
_scan_once = json.JSONDecoder().scan_once


def _event_from_record(record: Mapping[str, Any], line_no: int) -> TrackerEvent:
    try:
        kind = EventKind(record["kind"])
        t_ms = int(record["t_ms"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line {line_no}: {exc}") from None
    except (TypeError, OverflowError):  # null, array, object or infinite t_ms
        raise ParseError(f"line {line_no}: malformed timestamp {record['t_ms']!r}") from None
    if t_ms < 0:
        raise ParseError(f"line {line_no}: negative timestamp {t_ms}")

    point = None
    if "x" in record or "y" in record:
        try:
            point = (float(record["x"]), float(record["y"]))
        except (KeyError, TypeError, ValueError, OverflowError):
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
    for key in ("screen", "step_id"):
        if type(record.get(key)) in (list, dict):
            raise ParseError(f"line {line_no}: malformed {key} {record[key]!r}")

    return TrackerEvent(
        t_ms=t_ms,
        kind=kind,
        point=point,
        screen_id=record.get("screen"),
        step_id=record.get("step_id"),
        error_kind=error_kind,
    )


def _decode_line(line: str, line_no: int) -> dict[str, Any]:
    """Decode one stripped log line, which must hold exactly one JSON object."""
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError, TypeError):  # TypeError: a bytes line
        end = -1
    if end != len(line):
        # On a miss json.loads decodes the line again: it takes bytes lines
        # and gives the exact error message.
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: not valid JSON ({exc.msg})") from None
    if type(record) is not dict:
        raise ParseError(f"line {line_no}: expected a JSON object, got {_JSON_TYPES[type(record)]}")
    return record


def parse_session_log(source: str | Path | Iterable[str]) -> SessionLog:
    """Parse a JSON-Lines session log, given as a file path or an iterable
    of lines, enforcing order and step nesting."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source

    events: list[TrackerEvent] = []
    session_id: str | None = None
    participant_id: str | None = None
    first_ids: tuple = ()  # the first line's raw ids when both are strings
    open_steps: set[str] = set()
    last_t = -1
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        record = _decode_line(line, line_no)

        # Fast path for the common shapes: an int timestamp, finite int or
        # float points on moves and clicks, string or absent screen and step
        # ids, no error annotation.  Anything else, including every
        # malformed record, goes through _event_from_record.
        get = record.get
        kind = get("kind")
        kind = _KINDS.get(kind) if type(kind) is str else None
        t_ms = get("t_ms")
        screen, step_id = get("screen"), get("step_id")
        event = None
        if (
            kind is not None and type(t_ms) is int and t_ms >= 0 and get("error_kind") is None
            and type(screen) in _ID_TYPES and type(step_id) in _ID_TYPES
        ):
            if kind in _POINT_KINDS:
                x, y = get("x"), get("y")
                # The range test is False for NaN, infinities and ints too
                # large for a float.
                if (
                    type(x) in _JSON_NUMBERS and type(y) in _JSON_NUMBERS
                    and -_MAX_FLOAT <= x <= _MAX_FLOAT and -_MAX_FLOAT <= y <= _MAX_FLOAT
                ):
                    event = TrackerEvent(t_ms, kind, (float(x), float(y)), screen, step_id)
            elif kind is not EventKind.ERROR_ANNOTATION and "x" not in record and "y" not in record:
                event = TrackerEvent(t_ms, kind, None, screen, step_id)
        if event is None:
            event = _event_from_record(record, line_no)

        # Raw ids equal to the first line's strings are equal after str() too.
        ids = (get("session_id", ""), get("participant_id", ""))
        if ids != first_ids:
            if session_id is None:
                session_id, participant_id = str(ids[0]), str(ids[1])
                if type(ids[0]) is str and type(ids[1]) is str:
                    first_ids = ids
            else:
                for key, seen, value in (("session_id", session_id, ids[0]), ("participant_id", participant_id, ids[1])):
                    if str(value) != seen:
                        raise ParseError(f"line {line_no}: {key} changed from {seen!r} to {str(value)!r}")

        t_ms = event.t_ms
        if t_ms < last_t:
            raise ParseError(f"line {line_no}: non-monotonic timestamp {t_ms} after {last_t}")
        last_t = t_ms

        kind = event.kind
        if kind is EventKind.STEP_START:
            if event.step_id in open_steps:
                raise ParseError(f"line {line_no}: step {event.step_id!r} started while already open")
            open_steps.add(event.step_id)
        elif kind is EventKind.STEP_END:
            if event.step_id not in open_steps:
                raise ParseError(f"line {line_no}: unmatched step_end for {event.step_id!r}")
            open_steps.discard(event.step_id)
        events.append(event)

    if open_steps:
        raise ParseError(f"unmatched step_start for {sorted(open_steps)}")
    if session_id is None:
        raise ParseError("log contains no events")
    return SessionLog(session_id, participant_id or "", tuple(events))


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
        raise UnknownScreenError(screen_id)
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

    for event in log.events:
        kind = event.kind
        if kind is EventKind.STEP_START:
            open_steps[event.step_id] = _OpenStep(event.step_id, event.t_ms)
        elif kind is EventKind.STEP_END:
            state = open_steps.pop(event.step_id)
            path_id: str | None = None
            if state.last_hit is not None:
                path_id = path_id_for(state.last_hit)
            elif state.step_id in targets:
                path_id = targets[state.step_id]
            else:
                unaligned.append(state.step_id)
            steps.append(
                AlignedStep(
                    step_id=state.step_id,
                    path_id=path_id,
                    duration_s=(event.t_ms - state.start_ms) / 1000.0,
                    errors=tuple(state.errors),
                    trajectory=tuple(state.trajectory),
                )
            )
        elif kind in _POINT_KINDS or kind is EventKind.ERROR_ANNOTATION:
            # The event belongs to its own step's window, or to every open
            # window when it names no step.
            if event.step_id is not None:
                found = open_steps.get(event.step_id)
                windows = (found,) if found else ()
            else:
                windows = tuple(open_steps.values())
            if kind is EventKind.ERROR_ANNOTATION:
                for state in windows:
                    state.errors.append(event.error_kind)
                continue
            hit = None
            if windows and kind is EventKind.CLICK and event.screen_id is not None:
                hit = hit_test(g, event.screen_id, event.point)
            for state in windows:
                state.trajectory.append(event.point)
                if hit is not None:
                    state.last_hit = hit

    return AlignedTrace(log.session_id, tuple(steps), tuple(unaligned))


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
