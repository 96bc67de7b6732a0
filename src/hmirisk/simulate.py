"""Synthetic operator sessions with planted durations and error rates.

The generator is the statistical oracle for the detectors: durations are
drawn from Lognormal(ln median, sigma) per path by lognormal_durations,
errors from independent Bernoulli draws per step, and cursor
trajectories are piecewise-linear with bounded jitter.

generate_sessions checks the plan's targets and resolves each step's
target element and screen once (a PathPlan checks its own numbers when it
is built). Sessions are drawn one by one: each draws all its randomness
(durations, start gaps, waypoint counts, jitters, click points, error
uniforms) in six array calls on its own fresh counter-based Philox (64-bit
key, algorithm pinned by numpy), keyed by a hash of (plan seed,
participant, session index), so no state passes from one session to the
next. Sessions are independent and output is reproducible: same plan,
same bytes. The schedule, the geometry and the events are then computed
for blocks of sessions of at most 512 steps in all (one session when it
alone is longer), so memory does not grow with the plan. The layout moves
no bit: every operation is elementwise or on integers.
RNG_ALGORITHM names the stream; whatever changes the bytes a seed gives
must change it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .graph import InterfaceGraph, number_field, resolve_path
from .ingest import ErrorKind, EventKind, Procedure, SessionLog, TrackerEvent, load_procedures, serialize_session
from .risk import SIGMA_DEFAULT

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox), stream 2"
WAYPOINT_JITTER_PX = 10.0
_MAX_WAYPOINTS = 8
# A step has at most 12 slots (8 moves, the click, 2 annotations, the end),
# so 12 ms keeps t_ms strictly increasing.
_MIN_DURATION_MS = 12
_MAX_DURATION_S = 1e9  # keeps int64 millisecond clocks far from overflow


@dataclass(frozen=True)
class PathPlan:
    path_id: str
    median_s: float
    sigma: float = SIGMA_DEFAULT
    p_execution: float = 0.0
    p_outcome: float = 0.0

    def __post_init__(self) -> None:
        checks = (
            ("median_s", self.median_s, 0.0 < self.median_s < math.inf, "a positive finite number"),
            ("sigma", self.sigma, 0.0 <= self.sigma < math.inf, "a non-negative finite number"),
            ("p_execution", self.p_execution, 0.0 <= self.p_execution <= 1.0, "in [0, 1]"),
            ("p_outcome", self.p_outcome, 0.0 <= self.p_outcome <= 1.0, "in [0, 1]"),
        )
        for name, value, ok, expected in checks:
            if not ok:  # NaN fails every comparison
                raise ValueError(f"path {self.path_id!r}: {name} must be {expected}, got {value!r}")


_MAX_PLAN_SESSIONS = 100_000


@dataclass(frozen=True)
class ScenarioPlan:
    procedures: tuple[Procedure, ...]
    paths: Mapping[str, PathPlan]
    participants: int = 1
    sessions_per_participant: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("participants", "sessions_per_participant", "seed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:  # by exact type, so bools stay out
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        sessions = self.participants * self.sessions_per_participant
        if sessions > _MAX_PLAN_SESSIONS:
            raise ValueError(f"plan: participants x sessions_per_participant must be at most {_MAX_PLAN_SESSIONS}, got {sessions}")


def session_seed(plan_seed: int, participant: int, session_index: int) -> int:
    """64-bit Philox key derived by hashing (plan seed, participant, session)."""
    digest = hashlib.sha256(f"{plan_seed}:{participant}:{session_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def lognormal_durations(median_s, sigma, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from Lognormal(ln median, sigma), in seconds; median and sigma
    are scalars or length-n arrays (one per draw)."""
    median_s = np.asarray(median_s, dtype=float)
    if not np.all(median_s > 0):
        raise ValueError(f"median must be positive, got {median_s}")
    return rng.lognormal(mean=np.log(median_s), sigma=sigma, size=n)


class _Steps:
    """A plan's procedure steps, checked and resolved once, as per-step arrays."""

    def __init__(self, g: InterfaceGraph, plan: ScenarioPlan):
        targets = {}  # canonical path id -> (path plan, target element)
        for path_id, path_plan in plan.paths.items():
            path = resolve_path(g, path_id)
            if path.path_id in targets:
                raise ValueError(f"paths {targets[path.path_id][0].path_id!r} and {path_id!r} are both path {path.path_id}")
            targets[path.path_id] = (path_plan, g.by_id[path.node_chain[-1]])
        steps = [step for proc in plan.procedures for step in proc.steps]
        if not steps:
            raise ValueError("plan declares no procedure steps")
        rows, elements = [], []
        for step in steps:
            try:
                p, e = targets[resolve_path(g, step.target_path or "").path_id]
            except KeyError:  # no target, not in the graph (UnknownPathError), or not in ``paths``
                raise ValueError(f"step {step.step_id!r} targets unknown path {step.target_path!r}") from None
            elements.append(e)
            screen = g.screens[e.screen_id]
            box = e.bbox or (*e.position, 0.0, 0.0)  # a bbox-less target is a zero box at its centre
            rows.append((p.median_s, p.sigma, p.p_execution, p.p_outcome, *e.position, *box, screen.width_px, screen.height_px))
        table = np.array(rows, dtype=float)
        self.step_ids = [step.step_id for step in steps]
        self.screen_ids = [e.screen_id for e in elements]
        self.median_s, self.sigma, self.p_error = table[:, 0], table[:, 1], table[:, 2:4]  # execution, outcome
        self.target, self.box_origin, self.box_size, self.screen_size = np.split(table[:, 4:], 4, axis=1)
        # whether the previous step ended on this step's screen
        self.same_screen = np.array([False] + [a == b for a, b in zip(self.screen_ids, self.screen_ids[1:])])


_ERROR_KINDS = (ErrorKind.EXECUTION, ErrorKind.OUTCOME)
_WAYPOINT_INDEX = np.arange(1, _MAX_WAYPOINTS + 1)
# Sessions are computed in blocks of about this many steps, so no array grows
# with the number of sessions.
_BLOCK_STEPS = 512
_new = tuple.__new__  # builds a TrackerEvent from its six fields without a keyword call


def _draw(steps: _Steps, key: int) -> tuple[np.ndarray, ...]:
    """One session's randomness, in six array calls on a fresh Philox keyed
    ``key``: durations, start gaps, waypoint counts, jitters, click
    fractions and error uniforms."""
    rng = np.random.Generator(np.random.Philox(key=key))
    n = len(steps.step_ids)
    return (
        lognormal_durations(steps.median_s, steps.sigma, n, rng),
        rng.integers(200, 1500, n),
        rng.integers(3, _MAX_WAYPOINTS + 1, n),
        rng.uniform(-WAYPOINT_JITTER_PX, WAYPOINT_JITTER_PX, (n, _MAX_WAYPOINTS, 2)),
        rng.uniform(0.1, 0.9, (n, 2)),
        rng.random((n, 2)),
    )


def _draw_block(steps: _Steps, sessions: list[tuple[int, str, str]]) -> list[SessionLog]:
    """The sessions (key, session id, participant id) of one block: each
    draws on its own key, then the schedule, the geometry and the events
    of the whole block are computed at once."""
    draws = zip(*(_draw(steps, key) for key, _, _ in sessions))
    durations, gaps, n_way, jitter, click_u, error_u = map(np.stack, draws)
    too_long = ~(durations < _MAX_DURATION_S).all(axis=1)
    if too_long.any():
        raise ValueError(f"session {sessions[too_long.argmax()][1]}: a drawn step duration reaches {_MAX_DURATION_S:g} s")
    duration_ms = np.maximum(np.rint(durations * 1000), _MIN_DURATION_MS).astype(np.int64)
    clicks = steps.box_origin + click_u * steps.box_size  # central 80% of the box
    errors = error_u < steps.p_error

    # The first step starts at 0, each later one a gap after the previous end.
    starts = np.zeros_like(gaps)
    starts[:, 1:] = duration_ms[:, :-1] + gaps[:, 1:]
    starts = starts.cumsum(axis=1)
    # Waypoints run from the previous click when it is on the same screen,
    # else from the screen centre, toward the target with bounded jitter.
    origin = np.where(steps.same_screen[:, None], np.roll(clicks, 1, axis=1), steps.screen_size / 2)
    f = _WAYPOINT_INDEX / (n_way[..., None] + 1.0)
    points = origin[:, :, None] + f[..., None] * (steps.target - origin)[:, :, None] + jitter
    points = np.clip(points, 0.0, steps.screen_size[:, None])
    # Moves and the click split the step into n_way + 4 slots; the annotations
    # follow the click 1 ms apart, before the end.
    slots = n_way + 4
    move_ms = starts[..., None] + _WAYPOINT_INDEX * duration_ms[..., None] // slots[..., None]
    click_ms = starts + (n_way + 1) * duration_ms // slots

    columns = (
        starts.tolist(), (starts + duration_ms).tolist(), n_way.tolist(), move_ms.tolist(),
        points[..., 0].tolist(), points[..., 1].tolist(), click_ms.tolist(), clicks.tolist(), errors.tolist(),
    )
    # Local names spare each event a lookup on the EventKind class.
    start, move, click = EventKind.STEP_START, EventKind.MOVE, EventKind.CLICK
    note, end = EventKind.ERROR_ANNOTATION, EventKind.STEP_END
    logs = []
    for (_, session_id, participant_id), *session in zip(sessions, *columns):
        events: list[TrackerEvent] = []
        rows = zip(steps.step_ids, steps.screen_ids, *session)
        for step_id, screen_id, t0, t1, k, moves, xs, ys, t, (cx, cy), erred in rows:
            events.append(_new(TrackerEvent, (t0, start, None, None, step_id, None)))
            events.extend(map(_new, repeat(TrackerEvent, k), zip(
                moves[:k], repeat(move), zip(xs[:k], ys[:k]), repeat(screen_id), repeat(step_id), repeat(None),
            )))
            events.append(_new(TrackerEvent, (t, click, (cx, cy), screen_id, step_id, None)))
            for error_kind, happened in zip(_ERROR_KINDS, erred):
                if happened:
                    t += 1
                    events.append(_new(TrackerEvent, (t, note, None, None, step_id, error_kind)))
            events.append(_new(TrackerEvent, (t1, end, None, None, step_id, None)))
        logs.append(SessionLog(session_id, participant_id, tuple(events)))
    return logs


def generate_sessions(g: InterfaceGraph, plan: ScenarioPlan) -> list[SessionLog]:
    """All sessions of the plan, in (participant, session) order."""
    steps = _Steps(g, plan)
    sessions = [
        (session_seed(plan.seed, participant, index), f"S{participant:02d}-{index:03d}", f"P{participant:02d}")
        for participant in range(plan.participants)
        for index in range(plan.sessions_per_participant)
    ]
    block = max(1, _BLOCK_STEPS // len(steps.step_ids))
    return [log for i in range(0, len(sessions), block) for log in _draw_block(steps, sessions[i : i + block])]


def write_sessions(logs: Iterable[SessionLog], out_dir: str | Path) -> list[str]:
    """One JSON-Lines file per session; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for log in logs:
        path = out / f"{log.session_id}.jsonl"
        path.write_text(serialize_session(log), encoding="utf-8")
        written.append(str(path))
    return written


def plan_from_document(document: Mapping, g: InterfaceGraph) -> ScenarioPlan:
    """Build a plan from its JSON mirror (see the plan file schema), checking
    every value; an error names the offending path. Its procedures are
    loaded by ``load_procedures(document["procedures"], g)``, by its rules."""
    if not isinstance(document, Mapping):
        raise ValueError(f"plan must be a JSON object, got {type(document).__name__}")
    for key in ("procedures", "paths"):
        if key not in document:
            raise ValueError(f"plan has no {key!r}")
    procs = tuple(load_procedures(document["procedures"], g))
    raw_paths = document["paths"]
    if not isinstance(raw_paths, list):
        raise ValueError(f"plan paths must be an array, got {type(raw_paths).__name__}")
    paths: dict[str, PathPlan] = {}
    for raw in raw_paths:
        if not isinstance(raw, Mapping) or type(raw.get("path_id")) is not str:
            raise ValueError(f"each plan path must be an object with a string path_id, got {raw!r}")
        owner = f"path {raw['path_id']!r}"
        if raw["path_id"] in paths:
            raise ValueError(f"{owner} is listed twice")
        paths[raw["path_id"]] = PathPlan(
            raw["path_id"],
            number_field(raw, "median_s", owner),
            number_field(raw, "sigma", owner, SIGMA_DEFAULT),
            number_field(raw, "p_execution", owner, 0.0),
            number_field(raw, "p_outcome", owner, 0.0),
        )
    return ScenarioPlan(
        procedures=procs,
        paths=paths,
        participants=document.get("participants", 1),
        sessions_per_participant=document.get("sessions_per_participant", 1),
        seed=document.get("seed", 0),
    )
