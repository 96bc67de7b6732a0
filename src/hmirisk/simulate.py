"""Synthetic operator sessions with planted durations and error rates.

The generator is the statistical oracle for the detectors: durations are
drawn from Lognormal(ln median, sigma) per path, errors from independent
Bernoulli draws per step, and cursor trajectories are piecewise-linear
with bounded jitter. Everything derives from a counter-based Philox
stream (64-bit, algorithm pinned by numpy), keyed per session from the
plan seed, so output is fully reproducible: same plan, same bytes.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import InterfaceGraph, resolve_path
from .ingest import (
    ErrorKind,
    EventKind,
    Procedure,
    SessionLog,
    TrackerEvent,
    serialize_session,
)
from .risk import SIGMA_DEFAULT

RNG_ALGORITHM = "philox4x64 (numpy.random.Philox)"
WAYPOINT_JITTER_PX = 10.0


@dataclass(frozen=True)
class PathPlan:
    path_id: str
    median_s: float
    sigma: float = SIGMA_DEFAULT
    p_execution: float = 0.0
    p_outcome: float = 0.0

    def validate(self) -> None:
        if self.median_s <= 0:
            raise ValueError(f"{self.path_id}: median must be positive, got {self.median_s}")
        for name, p in (("p_execution", self.p_execution), ("p_outcome", self.p_outcome)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{self.path_id}: {name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class ScenarioPlan:
    procedures: tuple[Procedure, ...]
    paths: Mapping[str, PathPlan]
    participants: int = 1
    sessions_per_participant: int = 1
    seed: int = 0


def session_seed(plan_seed: int, participant: int, session_index: int) -> int:
    """64-bit Philox key derived by hashing (plan seed, participant, session)."""
    digest = hashlib.sha256(f"{plan_seed}:{participant}:{session_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def lognormal_durations(median_s: float, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from Lognormal(ln median, sigma), in seconds."""
    if median_s <= 0:
        raise ValueError(f"median must be positive, got {median_s}")
    return rng.lognormal(mean=math.log(median_s), sigma=sigma, size=n)


def _clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def _synth_trajectory(
    start: tuple[float, float],
    target,
    screen,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """3-8 jittered waypoints from start to the target center."""
    n_way = int(rng.integers(3, 9))
    tx, ty = target.position
    points = []
    for k in range(1, n_way + 1):
        f = k / (n_way + 1)
        jx = float(rng.uniform(-WAYPOINT_JITTER_PX, WAYPOINT_JITTER_PX))
        jy = float(rng.uniform(-WAYPOINT_JITTER_PX, WAYPOINT_JITTER_PX))
        points.append(
            (
                _clamp(start[0] + f * (tx - start[0]) + jx, 0.0, screen.width_px),
                _clamp(start[1] + f * (ty - start[1]) + jy, 0.0, screen.height_px),
            )
        )
    return points


def _click_point(target, rng: np.random.Generator) -> tuple[float, float]:
    if target.bbox is None:
        return target.position
    bx, by, bw, bh = target.bbox
    # stay inside the central 80% of the box
    return (
        float(rng.uniform(bx + 0.1 * bw, bx + 0.9 * bw)),
        float(rng.uniform(by + 0.1 * bh, by + 0.9 * bh)),
    )


def generate_session(
    g: InterfaceGraph,
    plan: ScenarioPlan,
    participant: int,
    session_index: int,
) -> SessionLog:
    rng = _rng(session_seed(plan.seed, participant, session_index))
    events: list[TrackerEvent] = []
    t = 0
    prev_point: tuple[float, float] | None = None
    prev_screen: str | None = None

    def emit(kind: EventKind, at: int, **kw) -> int:
        nonlocal t
        at = max(at, t + 1) if events else max(at, 0)
        events.append(TrackerEvent(t_ms=at, kind=kind, **kw))
        t = at
        return at

    for proc in plan.procedures:
        for step in proc.steps:
            if step.target_path is None or step.target_path not in plan.paths:
                raise ValueError(f"step {step.step_id!r} targets unknown path {step.target_path!r}")
            path_plan = plan.paths[step.target_path]
            path_plan.validate()
            chain = resolve_path(g, step.target_path).node_chain
            target = g.by_id[chain[-1]]
            screen = g.screens[target.screen_id]

            duration_ms = max(int(round(float(rng.lognormal(math.log(path_plan.median_s), path_plan.sigma)) * 1000)), 12)
            start_ms = t + int(rng.integers(200, 1500)) if events else 0
            emit(EventKind.STEP_START, start_ms, step_id=step.step_id)

            start_pt = prev_point if (prev_point is not None and prev_screen == target.screen_id) else (
                screen.width_px / 2.0,
                screen.height_px / 2.0,
            )
            waypoints = _synth_trajectory(start_pt, target, screen, rng)
            click = _click_point(target, rng)
            # schedule interior events strictly inside (start, start + duration)
            n_interior = len(waypoints) + 1 + 2  # moves + click + up to two annotations
            if duration_ms <= n_interior:
                waypoints = waypoints[: max(duration_ms - 4, 1)]
                n_interior = len(waypoints) + 3
            for i, pt in enumerate(waypoints, start=1):
                at = start_ms + (i * duration_ms) // (n_interior + 1)
                emit(EventKind.MOVE, at, point=pt, screen_id=target.screen_id, step_id=step.step_id)
            click_at = start_ms + ((len(waypoints) + 1) * duration_ms) // (n_interior + 1)
            emit(EventKind.CLICK, click_at, point=click, screen_id=target.screen_id, step_id=step.step_id)

            if rng.random() < path_plan.p_execution:
                emit(EventKind.ERROR_ANNOTATION, t + 1, step_id=step.step_id, error_kind=ErrorKind.EXECUTION)
            if rng.random() < path_plan.p_outcome:
                emit(EventKind.ERROR_ANNOTATION, t + 1, step_id=step.step_id, error_kind=ErrorKind.OUTCOME)

            emit(EventKind.STEP_END, start_ms + duration_ms, step_id=step.step_id)
            prev_point, prev_screen = click, target.screen_id

    return SessionLog(
        session_id=f"S{participant:02d}-{session_index:03d}",
        participant_id=f"P{participant:02d}",
        events=tuple(events),
    )


def generate_sessions(g: InterfaceGraph, plan: ScenarioPlan) -> list[SessionLog]:
    """All sessions of the plan, in (participant, session) order."""
    for path_plan in plan.paths.values():
        path_plan.validate()
        resolve_path(g, path_plan.path_id)
    return [
        generate_session(g, plan, participant, session)
        for participant in range(plan.participants)
        for session in range(plan.sessions_per_participant)
    ]


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


def plan_from_document(document: Mapping, procedures: Sequence[Procedure] | None = None) -> ScenarioPlan:
    """Build a plan from its JSON mirror (see the plan file schema)."""
    from .ingest import load_procedures

    procs = tuple(procedures) if procedures is not None else tuple(load_procedures(document["procedures"]))
    paths = {
        raw["path_id"]: PathPlan(
            path_id=raw["path_id"],
            median_s=float(raw["median_s"]),
            sigma=float(raw.get("sigma", SIGMA_DEFAULT)),
            p_execution=float(raw.get("p_execution", 0.0)),
            p_outcome=float(raw.get("p_outcome", 0.0)),
        )
        for raw in document["paths"]
    }
    return ScenarioPlan(
        procedures=procs,
        paths=paths,
        participants=int(document.get("participants", 1)),
        sessions_per_participant=int(document.get("sessions_per_participant", 1)),
        seed=int(document.get("seed", 0)),
    )
