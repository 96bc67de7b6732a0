from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hmirisk.graph import (
    ElementKind,
    GraphError,
    InterfaceElement,
    InterfaceGraph,
    Screen,
    UnknownPathError,
    graph_to_document,
    load_graph,
    number_field,
    path_id_for,
    resolve_path,
    validate_graph,
)


def small_document():
    return {
        "screens": [{"id": "S", "width_px": 640, "height_px": 480}],
        "elements": [
            {"id": "R", "name": "root", "kind": "system_root", "screen": "S", "x": 320, "y": 20},
            {"id": "SC", "name": "overview", "kind": "screen", "screen": "S", "x": 320, "y": 50, "parent": "R"},
            {"id": "P1", "name": "alpha", "kind": "parameter", "screen": "S", "x": 100, "y": 100,
             "bbox": [60, 80, 80, 40], "parent": "SC"},
            {"id": "P2", "name": "beta", "kind": "parameter", "screen": "S", "x": 200, "y": 100,
             "bbox": [160, 80, 80, 40], "parent": "SC"},
            {"id": "P3", "name": "gamma", "kind": "parameter", "screen": "S", "x": 300, "y": 100,
             "bbox": [260, 80, 80, 40], "parent": "SC"},
            {"id": "P4", "name": "delta", "kind": "parameter", "screen": "S", "x": 400, "y": 100,
             "bbox": [360, 80, 80, 40], "parent": "SC"},
        ],
    }


class TestLoadGraph:
    def test_small_fixture_counts(self):
        # 1 root + 1 screen node + 4 parameters = 6 elements, forest depth 2
        g = load_graph(small_document())
        assert len(g.by_id) == 6
        assert len(g.edges) == 5
        depth = max(len(resolve_path(g, path_id_for(e.id)).node_chain) for e in g.by_id.values()) - 1
        assert depth == 2

    def test_empty_elements_has_no_roots(self):
        with pytest.raises(GraphError, match="graph has no roots"):
            load_graph({"screens": [{"id": "S", "width_px": 10, "height_px": 10}], "elements": []})

    def test_electrical_branch_shape(self, electrical_branch_graph):
        g = electrical_branch_graph
        branch = [e for e in g.by_id.values() if e.id.startswith("N_4")]
        assert len(branch) == 7
        assert sum(1 for parent, _ in g.edges if parent.startswith("N_4")) == 6

    def test_duplicate_id_rejected(self):
        doc = small_document()
        doc["elements"].append(dict(doc["elements"][1]))
        with pytest.raises(GraphError) as err:
            load_graph(doc)
        assert any(v.rule == "duplicate-id" for v in err.value.violations)

    def test_dangling_parent_rejected(self):
        doc = small_document()
        doc["elements"][2]["parent"] = "MISSING"
        with pytest.raises(GraphError) as err:
            load_graph(doc)
        assert any(v.rule == "dangling-parent" and "P1" in v.detail for v in err.value.violations)

    def test_malformed_coordinates_report_id(self):
        doc = small_document()
        doc["elements"][2]["x"] = "oops"
        with pytest.raises(GraphError, match="P1"):
            load_graph(doc)

    def test_unknown_kind_rejected(self):
        doc = small_document()
        doc["elements"][1]["kind"] = "widget"
        with pytest.raises(GraphError, match="unknown kind"):
            load_graph(doc)

    def test_json_path_round_trip(self, tmp_path):
        file = tmp_path / "graph.json"
        file.write_text(json.dumps(small_document()))
        g = load_graph(json.loads(file.read_text()))
        assert validate_graph(g) == []
        again = load_graph(graph_to_document(g))
        assert {e.id for e in again.by_id.values()} == {e.id for e in g.by_id.values()}

    def test_loaded_graph_always_validates_clean(self, electrical_branch_graph, two_screen_graph):
        for g in (load_graph(small_document()), electrical_branch_graph, two_screen_graph):
            assert validate_graph(g) == []


class TestValidateGraph:
    def _screen(self):
        return Screen("S", 100, 100)

    def test_self_parent_is_cycle(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        elem = InterfaceElement("A", "a", ElementKind.PARAMETER, "S", (2, 2))
        g = InterfaceGraph([root, elem], [("A", "A")], [self._screen()])
        assert [v.rule for v in validate_graph(g)] == ["cycle"]

    def test_duplicate_id_violation(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        dup = InterfaceElement("R", "r2", ElementKind.SYSTEM_ROOT, "S", (2, 2))
        g = InterfaceGraph([root, dup], [], [self._screen()])
        assert [v.rule for v in validate_graph(g)] == ["duplicate-id"]

    def test_degenerate_bbox_and_position_outside(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        flat = InterfaceElement("F", "f", ElementKind.PARAMETER, "S", (5, 5), (0, 0, 10, 0))
        outside = InterfaceElement("O", "o", ElementKind.PARAMETER, "S", (50, 50), (0, 0, 10, 10))
        g = InterfaceGraph([root, flat, outside], [("R", "F"), ("R", "O")], [self._screen()])
        rules = {v.rule for v in validate_graph(g)}
        assert rules == {"degenerate-bbox", "position-outside-bbox"}

    def test_unreachable_when_top_is_not_root(self):
        a = InterfaceElement("A", "a", ElementKind.PARAMETER_GROUP, "S", (1, 1))
        b = InterfaceElement("B", "b", ElementKind.PARAMETER, "S", (2, 2))
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (3, 3))
        g = InterfaceGraph([a, b, root], [("A", "B")], [self._screen()])
        rules = [v.rule for v in validate_graph(g)]
        assert rules.count("unreachable") == 2  # both A and B top out at A

    @pytest.mark.parametrize("first, second", [("N_11", "P_11"), ("11", "N_11")])
    def test_two_elements_sharing_a_path_id(self, first, second):
        """The path id of ``first`` resolves to ``second``, so a click on
        ``first`` would be binned as a path that ends elsewhere."""
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        a = InterfaceElement(first, "a", ElementKind.PARAMETER, "S", (2, 2))
        b = InterfaceElement(second, "b", ElementKind.PARAMETER, "S", (3, 3))
        g = InterfaceGraph([root, a, b], [("R", first), ("R", second)], [self._screen()])
        assert [(v.element_id, v.rule) for v in validate_graph(g)] == [(first, "ambiguous-path-id")]
        with pytest.raises(GraphError, match="ambiguous-path-id"):
            load_graph(graph_to_document(g))


    def test_edge_to_a_missing_child_is_dangling_child(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        g = InterfaceGraph([root], [("R", "X")], [self._screen()])
        assert [(v.element_id, v.rule) for v in validate_graph(g)] == [("X", "dangling-child")]

    def test_screens_without_extent_are_zero_diagonal(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (0, 0))
        g = InterfaceGraph([root], [], [Screen("S", 0, 0)])
        assert [(v.element_id, v.rule) for v in validate_graph(g)] == [(None, "zero-diagonal")]

    def test_no_screens_is_a_zero_diagonal_and_each_element_an_unknown_screen(self):
        root = InterfaceElement("R", "r", ElementKind.SYSTEM_ROOT, "S", (1, 1))
        g = InterfaceGraph([root], [], [])
        assert g.layout_diagonal == 0.0
        assert [(v.element_id, v.rule) for v in validate_graph(g)] == [("R", "unknown-screen")]


class TestResolvePath:
    def test_cyclic_parent_chain_is_an_error(self):
        a = InterfaceElement("A", "a", ElementKind.PARAMETER_GROUP, "S", (1, 1))
        b = InterfaceElement("B", "b", ElementKind.PARAMETER, "S", (2, 2))
        g = InterfaceGraph([a, b], [("A", "B"), ("B", "A")], [Screen("S", 100, 100)])
        with pytest.raises(GraphError, match="^cycle while resolving 'B' at 'B'$"):
            resolve_path(g, "B")

    def test_path_encoding_p110(self, electrical_branch_graph):
        path = resolve_path(electrical_branch_graph, "P_110")
        assert path.node_chain == ("N_100", "N_110")
        assert path.path_id == "P_110"

    def test_forced_by_forest_p411(self, electrical_branch_graph):
        assert resolve_path(electrical_branch_graph, "P_411").node_chain == ("N_400", "N_410", "N_411")

    def test_root_path_is_single_node(self, electrical_branch_graph):
        assert resolve_path(electrical_branch_graph, "P_400").node_chain == ("N_400",)

    def test_unknown_path(self, electrical_branch_graph):
        with pytest.raises(UnknownPathError):
            resolve_path(electrical_branch_graph, "P_999")

    def test_pure_and_deterministic(self, electrical_branch_graph):
        first = resolve_path(electrical_branch_graph, "P_413")
        second = resolve_path(electrical_branch_graph, "P_413")
        assert first == second

    def test_every_leaf_resolves_root_to_leaf(self, electrical_branch_graph):
        g = electrical_branch_graph
        roots = {e.id for e in g.roots()}
        for leaf in g.leaves():
            chain = resolve_path(g, path_id_for(leaf.id)).node_chain
            assert chain[-1] == leaf.id
            assert chain[0] in roots


def test_layout_diagonal_union(two_screen_graph):
    assert two_screen_graph.layout_diagonal == pytest.approx((800**2 + 600**2) ** 0.5)


def test_coordinates_on_the_bound_load_and_keep_the_diagonal_finite(two_screen_graph):
    document = graph_to_document(two_screen_graph)
    for screen in document["screens"]:
        screen["width_px"] = screen["height_px"] = 1_000_000
    document["elements"][1].update(x=-1e6, y=-1e6, bbox=[-1e6, -1e6, 1e6, 1e6])
    assert load_graph(document).layout_diagonal == math.hypot(1e6, 1e6)


# Values a fuzzed field can take: every JSON type, plus the non-finite and
# too-large numbers a Python decoder accepts.
_FUZZ_VALUES = (None, True, False, 0, -1, 2.5, "", "S", "P1", [], {}, [1, 2, 3, 4], math.nan, math.inf, -math.inf, 10**400)
_FUZZ_KEYS = ("screens", "elements", "id", "name", "kind", "screen", "x", "y", "bbox", "parent", "width_px", "height_px")


def _mutate(document, rng: random.Random) -> None:
    """One random edit in place: drop, duplicate or retype a field or an
    array entry anywhere in the document."""
    containers = []
    stack = [document]
    while stack:
        node = stack.pop()
        containers.append(node)
        stack.extend(child for child in (node.values() if isinstance(node, dict) else node) if isinstance(child, (dict, list)))
    node = rng.choice(containers)
    if not node:
        return
    key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
    edit = rng.choice(("drop", "duplicate", "retype"))
    if edit == "drop":
        del node[key]
    elif edit == "duplicate" and isinstance(node, dict):
        node[rng.choice(_FUZZ_KEYS)] = copy.deepcopy(node[key])
    elif edit == "duplicate":
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))


def test_fuzzed_documents_load_or_raise_graph_error():
    """Every mutated document either raises GraphError or loads into a graph
    whose ids, names and screens are strings taken unchanged from the document
    and whose positions are finite; no other exception escapes."""
    rng = random.Random(0)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(1000):
        document = small_document()
        for _ in range(rng.randint(1, 3)):
            _mutate(document, rng)
        try:
            g = load_graph(document)
        except GraphError:
            outcomes["rejected"] += 1
            continue
        outcomes["loaded"] += 1
        assert all(type(sid) is str for sid in g.screens)
        for e in g.elements:
            assert type(e.id) is str and type(e.name) is str and type(e.screen_id) is str, e
            assert all(map(math.isfinite, e.position + (e.bbox or ()))), e
        assert all(type(parent) is str and type(child) is str for parent, child in g.edges)
        for raw in document["elements"]:
            e = g.by_id.get(raw["id"])
            assert e is not None and (e.name, e.screen_id) == (raw.get("name", ""), raw["screen"]), raw
            assert g.parent_of.get(e.id) == raw.get("parent"), raw
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0, outcomes


def test_pipeline_modules_import_without_embedding_or_network_code():
    """The package root re-exports nothing, so importing the graph, ingest,
    risk and simulator modules loads neither the embedding module nor
    urllib.request."""
    import hmirisk

    code = (
        "import sys\n"
        "import hmirisk.graph, hmirisk.ingest, hmirisk.risk, hmirisk.simulate\n"
        "print(sorted(m for m in ('hmirisk.embed', 'urllib.request') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hmirisk.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_number_field_default_fills_only_an_absent_key():
    assert number_field({}, "sigma", "path 'P_1'", 0.28) == 0.28
    assert number_field({"sigma": 2}, "sigma", "path 'P_1'", 0.28) == 2.0
    with pytest.raises(GraphError, match=r"^path 'P_1': sigma must be a finite number, got None$"):
        number_field({"sigma": None}, "sigma", "path 'P_1'", 0.28)
    with pytest.raises(GraphError, match=r"^path 'P_1': missing median_s$"):
        number_field({}, "median_s", "path 'P_1'")
