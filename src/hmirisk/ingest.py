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
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence
from .graph import MAX_COORD_PX, InterfaceGraph, UnknownPathError, path_id_for, resolve_path
from .metrics import trajectory_length


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


def load_procedures(document: Any, g: InterfaceGraph) -> list[Procedure]:
    """Load one procedure (object) or several (array) from a decoded
    document; an error names the procedure and the field. A declared
    ``target_path`` must resolve in ``g``, as a path id or an element id,
    and is stored as its canonical path id; a step id carries at most one
    target across the procedures (the same one twice is allowed)."""
    raw_list = [document] if isinstance(document, Mapping) else document
    if not isinstance(raw_list, (list, tuple)) or not all(isinstance(raw, Mapping) for raw in raw_list):
        raise ValueError("procedures must be a JSON object or an array of objects")
    procedures, declared = [], {}
    for raw in raw_list:
        procedure_id, steps = raw.get("procedure_id"), raw.get("steps", [])
        if type(procedure_id) is not str:
            raise ValueError(f"procedure_id must be a string, got {procedure_id!r}")
        if not isinstance(steps, list) or not all(isinstance(s, Mapping) for s in steps):
            raise ValueError(f"procedure {procedure_id!r}: steps must be an array of objects")
        loaded = []
        for n, s in enumerate(steps, start=1):
            for key in ("step_id", "text", "target_path"):
                if type(s.get(key)) is not str and (key == "step_id" or s.get(key) is not None):
                    raise ValueError(f"procedure {procedure_id!r}, step {n}: {key} must be a string, got {s.get(key)!r}")
            step_id, target = s["step_id"], s.get("target_path")
            if target is not None:
                try:
                    target = resolve_path(g, target).path_id
                except UnknownPathError as err:
                    raise ValueError(f"procedure {procedure_id!r}, step {step_id!r}: {err}") from None
                owner, first = declared.setdefault(step_id, (procedure_id, target))
                if first != target:
                    raise ValueError(f"step {step_id!r} targets {first} in procedure {owner!r} "
                                     f"and {target} in procedure {procedure_id!r}")
            loaded.append(ProcedureStep(step_id, s.get("text") or "", target))
        procedures.append(Procedure(procedure_id, tuple(loaded)))
    return procedures


def csv_lines(lines: Iterable[str], header: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, stripped line, fields)`` for each data line of a CSV
    whose columns ``header`` names. Blank lines are skipped, and so is the
    first non-blank line when it starts with the first column's name in any
    letter case (the header); a line with another number of fields is an
    error naming it."""
    first_column, width = header.split(",")[0], header.count(",") + 1
    numbered = ((line_no, line.strip()) for line_no, line in enumerate(lines, start=1) if line.strip())
    for n, (line_no, line) in enumerate(numbered):
        if n == 0 and line.lower().startswith(first_column):
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"line {line_no}: expected {header!r}, got {line!r}")
        yield line_no, line, fields


_POINT_KINDS = {EventKind.MOVE, EventKind.CLICK}
_STEP_KINDS = {EventKind.STEP_START, EventKind.STEP_END}
_KINDS = {kind.value: kind for kind in EventKind}
_ERROR_KINDS = {kind.value: kind for kind in ErrorKind}
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}
_JSON_NUMBERS = {int, float}  # by exact type, so bools stay out
_ID_TYPES = {str, type(None)}
_MAX_T_MS = 2**53 - 1  # the largest integer a float holds exactly, so every duration is exact
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks a line, besides "\n"


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
    if t_ms > _MAX_T_MS:
        raise ParseError(f"line {line_no}: timestamp above {_MAX_T_MS}")

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
        if abs(point[0]) > MAX_COORD_PX or abs(point[1]) > MAX_COORD_PX:
            raise ParseError(f"line {line_no}: point {point} is more than {MAX_COORD_PX:.0f} px from 0 on an axis")
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
    nesting; an error names its line."""
    session_id, participant_id, events = _session_events(list(lines))
    return SessionLog(session_id, participant_id, tuple(map(TrackerEvent._make, events)))


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


def hit_test(g: InterfaceGraph, screen_id: str, point: tuple[float, float]) -> str | None:
    """Element under a point: bbox containment first (smallest area wins,
    ties by id), else nearest element center within graph.SNAP_RADIUS_PX."""
    if screen_id not in g.screens:
        raise UnknownScreenError(f"screen {screen_id!r} is not declared in the graph")
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point must be finite, got {point}")
    return g.hit(screen_id, x, y)


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
    return _align(g, log.session_id, log.events, step_targets)


def align_lines(
    g: InterfaceGraph,
    lines: str | list[str],
    step_targets: Mapping[str, str] | None = None,
) -> AlignedTrace:
    """``align_events(g, parse_session_log(lines), step_targets)`` for one
    session log's list of lines, or its text (``lines.splitlines()`` in the
    call), without building a TrackerEvent or SessionLog: the events
    parse_session_log checks go, as plain tuples, through the loop of align_events."""
    session_id, _, events = _session_events(lines)
    return _align(g, session_id, events, step_targets)


def _align(
    g: InterfaceGraph,
    session_id: str,
    events: Iterable[Sequence[Any]],
    step_targets: Mapping[str, str] | None,
) -> AlignedTrace:
    """The alignment of :func:`align_events`, over events in the field order
    of TrackerEvent: TrackerEvents, or the plain tuples of align_lines."""
    targets = dict(step_targets or {})
    open_steps: dict[str, tuple[_OpenStep]] = {}  # each step's window, alone in a tuple
    steps: list[AlignedStep] = []
    unaligned: list[str] = []

    # Local names spare each test in the loop a lookup on the EventKind class.
    start, end, key = EventKind.STEP_START, EventKind.STEP_END, EventKind.KEY
    note, click = EventKind.ERROR_ANNOTATION, EventKind.CLICK
    for t_ms, kind, point, screen_id, step_id, error_kind in events:
        if kind is start:
            open_steps[step_id] = (_OpenStep(step_id, t_ms),)
            continue
        if kind is end:
            steps.append(open_steps.pop(step_id)[0].close(t_ms, targets, unaligned))
            continue
        if kind is key:
            continue
        # A move, click or error annotation belongs to its own step's window,
        # or to every open window when it names no step.
        windows = open_steps.get(step_id, ()) if step_id is not None else [w for w, in open_steps.values()]
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

    return AlignedTrace(session_id, tuple(steps), tuple(unaligned))


def _text_records(text: str, line_count: int | None = None) -> list[dict[str, Any]] | None:
    """The JSON object on each line of ``text``, decoded in one call, or None
    where the lines (a last "\n" ends the last one) need not hold one object
    each or are not ``line_count`` lines. When lines break only at "\n" and
    each starts with its only "{" and ends with "}", no string spans a line
    (a raw newline is not valid in one), so each line's "}" closes the object
    its "{" opened: with each "\n" made ",\n", the array holds each line's
    object, and a line that is not valid JSON fails the decode."""
    body = text[:-1] if text[-1:] == "\n" else text
    n = body.count("\n") + 1
    if not (
        body[:1] == "{" and body[-1:] == "}" and line_count in (None, n)
        and body.count("{") == n and body.count("}\n{") == n - 1
        and not any(mark in body for mark in _OTHER_LINE_BREAKS)
    ):
        return None
    try:
        return json.loads("[" + body.replace("\n", ",\n") + "]")
    except (ValueError, RecursionError):  # a line is not valid JSON, or is nested too deeply
        return None


def _session_events(log: str | list[str]) -> tuple[str, str, list[tuple[Any, ...]]]:
    """The session id, participant id and events of one log, given as its
    text (whose lines are ``str.splitlines``'s) or as a list of lines, each
    event a plain tuple in the field order of TrackerEvent, or the ParseError
    of the first bad line. A record of the common shapes is checked inline:
    an int timestamp in [0, 2**53 - 1], a string or absent screen and step
    id, and a move or click with an int or float point within ±MAX_COORD_PX, an error
    annotation with a known error_kind, or a key, step start or step end
    (with a step id) with neither. _event_from_record reads, or rejects, any other record. Every
    record then passes the id, order and nesting checks."""
    if type(log) is str:
        records, lines = _text_records(log), log.splitlines
    else:
        kept = [line for line in map(str.strip, log) if line]
        records, lines = _text_records("\n".join(kept), len(kept)), lambda: log
    if records is None:  # decoded one line at a time, so errors come in line order
        records = (_decode_line(line.strip(), n) for n, line in enumerate(lines(), start=1) if line.strip())
    numbers: list[int] = []  # of the non-blank lines, listed when first needed

    def line_no() -> int:
        """The number of the line of the record being checked, the len(events)-th."""
        if not numbers:
            numbers.extend(n for n, line in enumerate(lines(), start=1) if line.strip())
        return numbers[len(events)]

    move, click, key, note = EventKind.MOVE, EventKind.CLICK, EventKind.KEY, EventKind.ERROR_ANNOTATION
    start, end, max_t = EventKind.STEP_START, EventKind.STEP_END, _MAX_T_MS
    events: list[tuple[Any, ...]] = []
    open_steps: set[str] = set()
    session_id = participant_id = None  # the first record's, as text
    last_t = -1
    for record in records:
        get = record.get
        try:
            t_ms, kind = record["t_ms"], _KINDS[record["kind"]]
        except (KeyError, TypeError):  # a field is missing, or the kind is no kind's name
            kind = None
        screen, step_id = get("screen"), get("step_id")
        point = error = None
        if kind is None or type(t_ms) is not int or not 0 <= t_ms <= max_t or type(screen) not in _ID_TYPES or type(step_id) not in _ID_TYPES:
            common = False
        elif kind is move or kind is click:
            x, y = get("x"), get("y")
            # The range test is False for NaN, infinities and coordinates out of bounds.
            common = ("error_kind" not in record and type(x) in _JSON_NUMBERS and type(y) in _JSON_NUMBERS
                      and -MAX_COORD_PX <= x <= MAX_COORD_PX and -MAX_COORD_PX <= y <= MAX_COORD_PX)
            point = (float(x), float(y)) if common else None
        elif "x" in record or "y" in record:
            common = False
        elif kind is note:
            error = get("error_kind")
            error = _ERROR_KINDS.get(error) if type(error) is str else None
            common = error is not None
        else:
            common = "error_kind" not in record and (step_id is not None or kind is key)
        if not common:
            t_ms, kind, point, screen, step_id, error = _event_from_record(record, line_no())

        sid, pid = get("session_id", ""), get("participant_id", "")
        if sid != session_id or pid != participant_id:  # the first record, a changed id, or an id that is no string
            sid, pid = str(sid), str(pid)
            if session_id is None:
                session_id, participant_id = sid, pid
            for name, seen, value in (("session_id", session_id, sid), ("participant_id", participant_id, pid)):
                if value != seen:
                    raise ParseError(f"line {line_no()}: {name} changed from {seen!r} to {value!r}")
        if t_ms < last_t:
            raise ParseError(f"line {line_no()}: non-monotonic timestamp {t_ms} after {last_t}")
        last_t = t_ms
        if kind is start:
            if step_id in open_steps:
                raise ParseError(f"line {line_no()}: step {step_id!r} started while already open")
            open_steps.add(step_id)
        elif kind is end:
            if step_id not in open_steps:
                raise ParseError(f"line {line_no()}: unmatched step_end for {step_id!r}")
            open_steps.remove(step_id)
        events.append((t_ms, kind, point, screen, step_id, error))

    if open_steps:
        raise ParseError(f"unmatched step_start for {sorted(open_steps)}")
    if session_id is None:
        raise ParseError("log contains no events")
    return session_id, participant_id, events


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
            errors = step.errors
            if errors:
                sample.error_steps += 1
                if ErrorKind.EXECUTION in errors:
                    sample.execution_errors += 1
                if ErrorKind.OUTCOME in errors:
                    sample.outcome_errors += 1
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
