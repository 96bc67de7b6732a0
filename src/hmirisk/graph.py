"""Interface knowledge graph: elements, hierarchy, and path resolution.

The graph models a multi-screen operator interface as a forest: system
roots at the top, navigation groups below, and clickable parameters or
controls at the leaves. Every node owns a screen, a pixel position, and
optionally a bounding box. A path is the unique chain from a system root
down to some node; path identifiers mirror node identifiers ("P_110" is
the path ending at node "N_110").

All query operations are pure; a graph is immutable after construction.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

SNAP_RADIUS_PX = 12.0  # a click this close to an element's center hits it when no bbox contains it
# The largest magnitude of a pixel coordinate or size, in graphs and session
# points alike, so no diagonal, distance or trajectory length overflows.
MAX_COORD_PX = 1e6


class ElementKind(str, Enum):
    SYSTEM_ROOT = "system_root"
    SCREEN = "screen"
    PARAMETER_GROUP = "parameter_group"
    PARAMETER = "parameter"
    CONTROL = "control"


class GraphError(ValueError):
    """A graph document is malformed or violates structural invariants."""

    def __init__(self, message: str, violations: Iterable["Violation"] = ()):
        super().__init__(message)
        self.violations = list(violations)


class UnknownPathError(KeyError):
    """Requested path identifier has no terminal node in the graph."""

    __str__ = Exception.__str__  # the message, without the quotes KeyError adds


@dataclass(frozen=True)
class Screen:
    id: str
    width_px: float
    height_px: float


@dataclass(frozen=True)
class InterfaceElement:
    id: str
    name: str
    kind: ElementKind
    screen_id: str
    position: tuple[float, float]
    bbox: tuple[float, float, float, float] | None = None  # (x_min, y_min, w, h)


@dataclass(frozen=True)
class Violation:
    element_id: str | None
    rule: str
    detail: str


@dataclass(frozen=True)
class ExecutionPath:
    path_id: str
    node_chain: tuple[str, ...]


def path_id_for(node_id: str) -> str:
    """Path identifier of the root-to-node chain terminating at ``node_id``."""
    if node_id.startswith("N_"):
        return "P_" + node_id[2:]
    return "P_" + node_id


class InterfaceGraph:
    """Immutable element forest with screen geometry.

    ``elements`` keeps document order (duplicates included, so that
    :func:`validate_graph` can report them); ``by_id`` indexes the first
    occurrence of each id.  A per-screen hit-test index, built once, backs
    :meth:`hit` and :meth:`screen_elements`.
    """

    def __init__(
        self,
        elements: Iterable[InterfaceElement],
        edges: Iterable[tuple[str, str]],
        screens: Iterable[Screen],
    ):
        self.elements: tuple[InterfaceElement, ...] = tuple(elements)
        self.edges: tuple[tuple[str, str], ...] = tuple(edges)
        self.screens: dict[str, Screen] = {s.id: s for s in screens}
        self.by_id: dict[str, InterfaceElement] = {}
        for elem in self.elements:
            self.by_id.setdefault(elem.id, elem)
        self.parent_of: dict[str, str] = {}
        self.children_of: dict[str, list[str]] = {}
        for parent, child in self.edges:
            self.parent_of.setdefault(child, parent)
            self.children_of.setdefault(parent, []).append(child)
        # Per screen, in by_id order: elements, boxes as
        # (x0, y0, x1, y1, area, id) and centres as (x, y, id).
        self._on_screen: dict[str, list[InterfaceElement]] = {}
        self._boxes: dict[str, list[tuple[float, float, float, float, float, str]]] = {}
        self._centres: dict[str, list[tuple[float, float, str]]] = {}
        for elem in self.by_id.values():
            self._on_screen.setdefault(elem.screen_id, []).append(elem)
            self._centres.setdefault(elem.screen_id, []).append((*elem.position, elem.id))
            if elem.bbox is not None:
                bx, by, bw, bh = elem.bbox
                box = (bx, by, bx + bw, by + bh, bw * bh, elem.id)
                self._boxes.setdefault(elem.screen_id, []).append(box)

    @property
    def layout_diagonal(self) -> float:
        """Diagonal of the union of all screen extents, in pixels."""
        if not self.screens:
            return 0.0
        w = max(s.width_px for s in self.screens.values())
        h = max(s.height_px for s in self.screens.values())
        return math.hypot(w, h)

    def roots(self) -> list[InterfaceElement]:
        return [e for e in self.by_id.values() if e.kind is ElementKind.SYSTEM_ROOT]

    def leaves(self) -> list[InterfaceElement]:
        return [e for e in self.by_id.values() if e.id not in self.children_of]

    def screen_elements(self, screen_id: str) -> list[InterfaceElement]:
        return list(self._on_screen.get(screen_id, ()))

    def hit(self, screen_id: str, x: float, y: float) -> str | None:
        """Element on a screen under (x, y): the smallest containing bbox
        (ties by id), else the nearest center within SNAP_RADIUS_PX (ties
        by id), else None.  Callers check the screen and the point."""
        best = None
        for x0, y0, x1, y1, area, elem_id in self._boxes.get(screen_id, ()):
            if x0 <= x <= x1 and y0 <= y <= y1 and (best is None or (area, elem_id) < best):
                best = (area, elem_id)
        if best is not None:
            return best[1]

        for cx, cy, elem_id in self._centres.get(screen_id, ()):
            distance = math.hypot(cx - x, cy - y)
            if distance <= SNAP_RADIUS_PX and (best is None or (distance, elem_id) < best):
                best = (distance, elem_id)
        return None if best is None else best[1]


def _entries(document: Mapping[str, Any], key: str) -> Sequence[Mapping[str, Any]]:
    """The array of objects under ``key``; absent means empty."""
    entries = document.get(key, [])
    if not isinstance(entries, (list, tuple)) or not all(isinstance(entry, Mapping) for entry in entries):
        raise GraphError(f"graph {key} must be an array of objects")
    return entries


def _string(raw: Mapping[str, Any], key: str, owner: str) -> str:
    """A required string; an error names the owner and the field."""
    if key not in raw:
        raise GraphError(f"{owner}: missing {key}")
    value = raw[key]
    if type(value) is not str:
        raise GraphError(f"{owner}: {key} must be a string, got {value!r}")
    return value


def number_field(raw: Mapping[str, Any], key: str, owner: str, default: float | None = None) -> float:
    """A finite number field of a JSON object, as a float; when absent, the
    ``default``, else an error. An error names the owner and the field."""
    if key not in raw and default is None:
        raise GraphError(f"{owner}: missing {key}")
    value = raw.get(key, default)
    # By exact type, so a boolean is not a number; the range test is False
    # for NaN, infinities and ints too large for a float.
    if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        raise GraphError(f"{owner}: {key} must be a finite number, got {value!r}")
    return float(value)


def _pixels(raw: Mapping[str, Any], key: str, owner: str) -> float:
    """A required number field in pixels, at most MAX_COORD_PX in magnitude."""
    value = number_field(raw, key, owner)
    if abs(value) > MAX_COORD_PX:
        raise GraphError(f"{owner}: {key} must be at most {MAX_COORD_PX:.0f} px in magnitude, got {value!r}")
    return value


def load_graph(document: Mapping[str, Any]) -> InterfaceGraph:
    """Parse and validate a decoded graph document.

    A malformed document raises :class:`GraphError` naming the screen or
    element and the field. A document that parses but breaks a structural
    invariant raises it carrying the full violation list, so a loaded graph
    always satisfies ``validate_graph(g) == []``.
    """
    if not isinstance(document, Mapping):
        raise GraphError("graph document must be a JSON object")

    screens = []
    for n, raw in enumerate(_entries(document, "screens"), start=1):
        sid = _string(raw, "id", f"screen {n}")
        size = {key: _pixels(raw, key, f"screen {sid!r}") for key in ("width_px", "height_px")}
        for key, value in size.items():
            if value <= 0:
                raise GraphError(f"screen {sid!r}: {key} must be positive, got {value:g}")
        screens.append(Screen(sid, size["width_px"], size["height_px"]))

    elements: list[InterfaceElement] = []
    edges: list[tuple[str, str]] = []
    for n, raw in enumerate(_entries(document, "elements"), start=1):
        elem_id = _string(raw, "id", f"element {n}")
        owner = f"element {elem_id!r}"
        try:
            kind = ElementKind(raw["kind"])
        except (KeyError, ValueError):
            raise GraphError(f"{owner}: unknown kind {raw.get('kind')!r}") from None
        screen_id = _string(raw, "screen", owner)
        position = (_pixels(raw, "x", owner), _pixels(raw, "y", owner))
        bbox = None
        if raw.get("bbox") is not None:
            box = raw["bbox"]
            if not isinstance(box, (list, tuple)) or len(box) != 4:
                raise GraphError(f"{owner}: malformed bbox {box!r}")
            named = {f"bbox[{i}]": value for i, value in enumerate(box)}
            bbox = tuple(_pixels(named, key, owner) for key in named)
        elements.append(
            InterfaceElement(
                id=elem_id,
                name=_string(raw, "name", owner) if "name" in raw else "",
                kind=kind,
                screen_id=screen_id,
                position=position,
                bbox=bbox,
            )
        )
        if raw.get("parent") is not None:
            edges.append((_string(raw, "parent", owner), elem_id))

    graph = InterfaceGraph(elements, edges, screens)
    violations = validate_graph(graph)
    if violations:
        summary = "; ".join(f"{v.rule}: {v.detail}" for v in violations[:5])
        raise GraphError(f"invalid graph ({len(violations)} violation(s)): {summary}", violations)
    return graph


def validate_graph(g: InterfaceGraph) -> list[Violation]:
    """Check every structural invariant; violations are data, not failures."""
    violations: list[Violation] = []

    seen: set[str] = set()
    for elem in g.elements:
        if elem.id in seen:
            violations.append(Violation(elem.id, "duplicate-id", f"element id {elem.id!r} used more than once"))
        seen.add(elem.id)

    if not g.roots():
        violations.append(Violation(None, "no-roots", "graph has no roots"))

    children_counted: dict[str, int] = {}
    for parent, child in g.edges:
        children_counted[child] = children_counted.get(child, 0) + 1
        if parent not in g.by_id:
            violations.append(Violation(child, "dangling-parent", f"parent {parent!r} of {child!r} does not exist"))
        if child not in g.by_id:
            violations.append(Violation(child, "dangling-child", f"edge child {child!r} does not exist"))
    for child, count in children_counted.items():
        if count > 1:
            violations.append(Violation(child, "multiple-parents", f"{child!r} has {count} parents"))

    for elem in g.by_id.values():
        if elem.screen_id not in g.screens:
            violations.append(Violation(elem.id, "unknown-screen", f"screen {elem.screen_id!r} not declared"))
        if elem.bbox is not None:
            x, y, w, h = elem.bbox
            if w <= 0 or h <= 0:
                violations.append(Violation(elem.id, "degenerate-bbox", f"bbox {elem.bbox} has non-positive extent"))
            else:
                px, py = elem.position
                if not (x <= px <= x + w and y <= py <= y + h):
                    violations.append(Violation(elem.id, "position-outside-bbox", f"position {elem.position} outside bbox {elem.bbox}"))
        if elem.kind is ElementKind.SYSTEM_ROOT and elem.id in g.parent_of:
            violations.append(Violation(elem.id, "root-with-parent", f"system root {elem.id!r} has a parent"))
        path_id = path_id_for(elem.id)
        if (node := _terminal_node(g, path_id)) != elem.id:
            violations.append(Violation(elem.id, "ambiguous-path-id", f"path {path_id!r} of {elem.id!r} resolves to {node!r}"))

    # Cycle detection and root reachability by walking parent chains.
    for elem in g.by_id.values():
        node = elem.id
        trail = {node}
        while node in g.parent_of:
            node = g.parent_of[node]
            if node in trail:
                violations.append(Violation(elem.id, "cycle", f"parent chain of {elem.id!r} revisits {node!r}"))
                break
            if node not in g.by_id:
                break  # dangling parent, already reported
            trail.add(node)
        else:
            top = g.by_id.get(node)
            if top is not None and top.kind is not ElementKind.SYSTEM_ROOT:
                violations.append(Violation(elem.id, "unreachable", f"{elem.id!r} does not reach a system root (chain tops out at {node!r})"))

    if g.screens and g.layout_diagonal <= 0:
        violations.append(Violation(None, "zero-diagonal", "layout diagonal is not positive"))
    return violations


def _terminal_node(g: InterfaceGraph, path_id: str) -> str:
    if path_id in g.by_id:
        return path_id
    if path_id.startswith("P_"):
        for candidate in ("N_" + path_id[2:], path_id[2:]):
            if candidate in g.by_id:
                return candidate
    raise UnknownPathError(f"path {path_id!r} has no terminal node in the graph")


def resolve_path(g: InterfaceGraph, path_id: str) -> ExecutionPath:
    """Root-to-node chain for ``path_id``; pure and deterministic."""
    node = _terminal_node(g, path_id)
    chain = [node]
    seen = {node}
    while node in g.parent_of:
        node = g.parent_of[node]
        if node in seen:
            raise GraphError(f"cycle while resolving {path_id!r} at {node!r}")
        chain.append(node)
        seen.add(node)
    chain.reverse()
    return ExecutionPath(path_id_for(chain[-1]), tuple(chain))


def graph_to_document(g: InterfaceGraph) -> dict[str, Any]:
    """Serialize a graph back to the JSON document layout."""
    return {
        "screens": [
            {"id": s.id, "width_px": s.width_px, "height_px": s.height_px}
            for s in g.screens.values()
        ],
        "elements": [
            {
                "id": e.id,
                "name": e.name,
                "kind": e.kind.value,
                "screen": e.screen_id,
                "x": e.position[0],
                "y": e.position[1],
                **({"bbox": list(e.bbox)} if e.bbox is not None else {}),
                **({"parent": g.parent_of[e.id]} if e.id in g.parent_of else {}),
            }
            for e in g.by_id.values()
        ],
    }
