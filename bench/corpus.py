"""Seeded session corpus for the ``report_campaign`` workload.

The corpus is written in the documented JSON-Lines session format by this
module's own generator, not by ``hmirisk.simulate``, so a simulator change
cannot change the workload's inputs. While it writes the sessions, the
generator keeps the ground truth the checks compare against: every step's
duration, annotations and cursor trajectory, grouped by path.

Make-up of one corpus (``PARTICIPANTS`` x ``SESSIONS_PER_PARTICIPANT``
sessions on the bundled reference graph):

* every session runs the five reference procedures in order, 29 steps;
* a step is ``step_start``, 4-7 cursor moves, one click inside the target's
  bounding box, optional error annotations and ``step_end``;
* ``STRAY_CLICKS_PER_SESSION`` steps of each session also get one stray
  click on an empty part of the screen, at least ``STRAY_MARGIN_PX`` from
  every element centre and outside every bounding box, so it hits nothing;
* ``ERROR_PATHS`` carry planted execution/outcome error rates, every other
  path a small background rate; ``SLOW_PATHS`` have their median duration
  multiplied by ``SLOW_FACTOR``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

PARTICIPANTS = 25
SESSIONS_PER_PARTICIPANT = 20
STRAY_CLICKS_PER_SESSION = 3
STRAY_MARGIN_PX = 20.0
BOX_INSET = 0.1  # clicks land in the central 80% of the target's box

SIGMA = 0.28
BASE_MEDIAN_S = {"N_100": 20.0, "N_200": 25.0, "N_300": 30.0, "N_400": 15.0}
SLOW_PATHS = ("P_123", "P_212", "P_321", "P_414")
SLOW_FACTOR = 2.2
# path -> (p_execution, p_outcome)
ERROR_PATHS = {
    "P_122": (0.12, 0.04),
    "P_211": (0.10, 0.0),
    "P_216": (0.08, 0.03),
    "P_323": (0.10, 0.05),
    "P_413": (0.15, 0.0),
}
BACKGROUND_ERROR_RATE = 0.001


@dataclass
class PathTruth:
    """What the generator planted and emitted for one path."""

    category: str
    durations_ms: list[int] = field(default_factory=list)
    error_steps: int = 0  # steps with at least one annotation
    trajectory_px: list[float] = field(default_factory=list)  # per-step cursor length

    @property
    def attempts(self) -> int:
        return len(self.durations_ms)


@dataclass
class Campaign:
    graph_file: Path
    procedures_file: Path
    sessions_dir: Path
    graph_doc: dict
    paths: dict[str, PathTruth]
    events: int
    clicks: int
    stray_clicks: int


def _root_of(element_id: str, parent: dict[str, str]) -> str:
    while element_id in parent:
        element_id = parent[element_id]
    return element_id


def _length(points: list[tuple[float, float]]) -> float:
    return sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:]))


def _stray_point(rng: random.Random, screen: dict, elements: list[dict]) -> tuple[float, float]:
    while True:
        x = round(rng.uniform(0.0, screen["width_px"]), 1)
        y = round(rng.uniform(0.0, screen["height_px"]), 1)
        if any(math.hypot(e["x"] - x, e["y"] - y) < STRAY_MARGIN_PX for e in elements):
            continue
        if any(
            e.get("bbox") and e["bbox"][0] <= x <= e["bbox"][0] + e["bbox"][2] and e["bbox"][1] <= y <= e["bbox"][1] + e["bbox"][3]
            for e in elements
        ):
            continue
        return x, y


def write_campaign(seed: int, graph_doc: dict, procedures_doc: list[dict], out_dir: Path) -> Campaign:
    """Write graph, procedures and one session log per session under ``out_dir``."""
    rng = random.Random(f"report_campaign:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    sessions_dir = out_dir / "sessions"
    sessions_dir.mkdir(exist_ok=True)
    graph_file = out_dir / "graph.json"
    graph_file.write_text(json.dumps(graph_doc), encoding="utf-8")
    procedures_file = out_dir / "procedures.json"
    procedures_file.write_text(json.dumps(procedures_doc), encoding="utf-8")

    by_id = {e["id"]: e for e in graph_doc["elements"]}
    screens = {s["id"]: s for s in graph_doc["screens"]}
    on_screen: dict[str, list[dict]] = {}
    for e in graph_doc["elements"]:
        on_screen.setdefault(e["screen"], []).append(e)
    parent = {e["id"]: e["parent"] for e in graph_doc["elements"] if e.get("parent")}

    steps = [(s["step_id"], s["target_path"]) for proc in procedures_doc for s in proc["steps"]]
    medians = {}
    paths: dict[str, PathTruth] = {}
    for _, path_id in steps:
        node = "N_" + path_id[2:]
        category = _root_of(node, parent)
        jitter = math.exp(rng.uniform(-0.1, 0.1))
        medians[path_id] = BASE_MEDIAN_S[category] * jitter * (SLOW_FACTOR if path_id in SLOW_PATHS else 1.0)
        paths[path_id] = PathTruth(category)

    events = clicks = strays = 0
    for participant in range(PARTICIPANTS):
        for session in range(SESSIONS_PER_PARTICIPANT):
            session_id = f"S{participant:02d}-{session:03d}"
            common = {"session_id": session_id, "participant_id": f"P{participant:02d}"}
            stray_steps = set(rng.sample(range(len(steps)), STRAY_CLICKS_PER_SESSION))
            lines = []
            t = 0
            prev_point, prev_screen = None, None
            for index, (step_id, path_id) in enumerate(steps):
                target = by_id["N_" + path_id[2:]]
                screen = screens[target["screen"]]
                duration_ms = max(100, round(rng.lognormvariate(math.log(medians[path_id]), SIGMA) * 1000))
                start = t + rng.randint(200, 1500) if lines else 0
                start_point = prev_point if prev_screen == target["screen"] else (screen["width_px"] / 2, screen["height_px"] / 2)

                points: list[tuple[str, tuple[float, float]]] = []
                n_moves = rng.randint(4, 7)
                for k in range(1, n_moves + 1):
                    f = k / (n_moves + 1)
                    x = start_point[0] + f * (target["x"] - start_point[0]) + rng.uniform(-10.0, 10.0)
                    y = start_point[1] + f * (target["y"] - start_point[1]) + rng.uniform(-10.0, 10.0)
                    points.append(("move", (round(min(max(x, 0.0), screen["width_px"]), 1), round(min(max(y, 0.0), screen["height_px"]), 1))))
                if index in stray_steps:
                    points.insert(rng.randint(0, len(points)), ("click", _stray_point(rng, screen, on_screen[target["screen"]])))
                    strays += 1
                bx, by, bw, bh = target["bbox"]
                click = (
                    round(rng.uniform(bx + BOX_INSET * bw, bx + (1 - BOX_INSET) * bw), 1),
                    round(rng.uniform(by + BOX_INSET * bh, by + (1 - BOX_INSET) * bh), 1),
                )
                points.append(("click", click))

                p_exec, p_out = ERROR_PATHS.get(path_id, (BACKGROUND_ERROR_RATE, BACKGROUND_ERROR_RATE))
                annotations = [kind for kind, p in (("execution", p_exec), ("outcome", p_out)) if rng.random() < p]

                lines.append({"t_ms": start, "kind": "step_start", "step_id": step_id, **common})
                slots = len(points) + len(annotations) + 1
                for k, (kind, (x, y)) in enumerate(points, start=1):
                    at = start + k * duration_ms // slots
                    lines.append({"t_ms": at, "kind": kind, "x": x, "y": y, "screen": target["screen"], "step_id": step_id, **common})
                for k, kind in enumerate(annotations, start=len(points) + 1):
                    at = start + k * duration_ms // slots
                    lines.append({"t_ms": at, "kind": "error_annotation", "error_kind": kind, "step_id": step_id, **common})
                t = start + duration_ms
                lines.append({"t_ms": t, "kind": "step_end", "step_id": step_id, **common})

                truth = paths[path_id]
                truth.durations_ms.append(duration_ms)
                truth.error_steps += bool(annotations)
                truth.trajectory_px.append(_length([p for _, p in points]))
                clicks += sum(kind == "click" for kind, _ in points)
                prev_point, prev_screen = click, target["screen"]
            events += len(lines)
            text = "\n".join(json.dumps(line, separators=(",", ":")) for line in lines) + "\n"
            (sessions_dir / f"{session_id}.jsonl").write_text(text, encoding="utf-8")

    return Campaign(graph_file, procedures_file, sessions_dir, graph_doc, paths, events, clicks, strays)
