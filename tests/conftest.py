from __future__ import annotations

import json

import pytest

from hmirisk.cli import main
from hmirisk.graph import graph_to_document, load_graph


def strict_json_loads(text):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``: Python's json
    module writes and reads them, but they are not JSON."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def electrical_branch_graph():
    """Two-branch fixture: N_100 -> N_110 and N_400 -> N_410 -> N_411..N_415."""
    document = {
        "screens": [
            {"id": "TOP", "width_px": 1920, "height_px": 1080},
            {"id": "ELEC", "width_px": 1920, "height_px": 1080},
        ],
        "elements": [
            {"id": "N_100", "name": "auxiliary system", "kind": "system_root", "screen": "TOP", "x": 200, "y": 100},
            {"id": "N_110", "name": "0KBE DW101", "kind": "parameter_group", "screen": "TOP", "x": 200, "y": 300,
             "bbox": [150, 270, 100, 60], "parent": "N_100"},
            {"id": "N_400", "name": "electrical system", "kind": "system_root", "screen": "TOP", "x": 600, "y": 100},
            {"id": "N_410", "name": "0 ELEDW002", "kind": "parameter_group", "screen": "ELEC", "x": 300, "y": 100,
             "bbox": [250, 70, 100, 60], "parent": "N_400"},
            {"id": "N_411", "name": "power factor", "kind": "parameter", "screen": "ELEC", "x": 150, "y": 300,
             "bbox": [100, 270, 100, 60], "parent": "N_410"},
            {"id": "N_412", "name": "generator reactive power", "kind": "parameter", "screen": "ELEC", "x": 300, "y": 300,
             "bbox": [250, 270, 100, 60], "parent": "N_410"},
            {"id": "N_413", "name": "excitation voltage", "kind": "parameter", "screen": "ELEC", "x": 450, "y": 300,
             "bbox": [400, 270, 100, 60], "parent": "N_410"},
            {"id": "N_414", "name": "terminal voltage", "kind": "parameter", "screen": "ELEC", "x": 600, "y": 300,
             "bbox": [550, 270, 100, 60], "parent": "N_410"},
            {"id": "N_415", "name": "excitation current", "kind": "parameter", "screen": "ELEC", "x": 750, "y": 300,
             "bbox": [700, 270, 100, 60], "parent": "N_410"},
        ],
    }
    return load_graph(document)


@pytest.fixture
def two_screen_graph():
    """Minimal navigable fixture: root + two leaves on screen A, one leaf on B."""
    return load_graph(
        {
            "screens": [
                {"id": "A", "width_px": 800, "height_px": 600},
                {"id": "B", "width_px": 800, "height_px": 600},
            ],
            "elements": [
                {"id": "N_1", "name": "plant", "kind": "system_root", "screen": "A", "x": 400, "y": 50},
                {"id": "N_11", "name": "pump speed", "kind": "parameter", "screen": "A", "x": 200, "y": 300,
                 "bbox": [150, 270, 100, 60], "parent": "N_1"},
                {"id": "N_12", "name": "pump pressure", "kind": "parameter", "screen": "A", "x": 500, "y": 300,
                 "bbox": [450, 270, 100, 60], "parent": "N_1"},
                {"id": "N_13", "name": "valve position", "kind": "parameter", "screen": "B", "x": 400, "y": 300,
                 "bbox": [350, 270, 100, 60], "parent": "N_1"},
            ],
        }
    )


@pytest.fixture
def designated_sim():
    """Similarity stub: names starting with 'SIM' are similar to everything."""

    def sim(a: str, b: str) -> float:
        if a == b:
            return 1.0
        if a.startswith("SIM") or b.startswith("SIM"):
            return 0.9
        return 0.1

    return sim


@pytest.fixture
def graph_file(two_screen_graph, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_document(two_screen_graph)))
    return path


@pytest.fixture
def plan_file(tmp_path):
    plan = {
        "procedures": [
            {
                "procedure_id": "PR",
                "steps": [
                    {"step_id": "s0", "text": "check pump speed", "target_path": "P_11"},
                    {"step_id": "s1", "text": "check pump pressure", "target_path": "P_12"},
                    {"step_id": "s2", "text": "check valve position", "target_path": "P_13"},
                ],
            }
        ],
        "paths": [
            {"path_id": "P_11", "median_s": 2.0, "p_execution": 1.0},
            {"path_id": "P_12", "median_s": 2.0},
            {"path_id": "P_13", "median_s": 8.0},
        ],
        "participants": 2,
        "sessions_per_participant": 3,
        "seed": 5,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


@pytest.fixture
def sessions_dir(graph_file, plan_file, tmp_path):
    out = tmp_path / "sessions"
    assert main(["simulate", "--graph", str(graph_file), "--plan", str(plan_file), "--out", str(out)]) == 0
    return out
