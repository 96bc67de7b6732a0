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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .config import read_json


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


class UnmappableStepError(ValueError):
    """No interface element matches the procedure step text well enough."""


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
    multi_action: bool = False


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

    def hit(self, screen_id: str, x: float, y: float, snap_radius: float) -> str | None:
        """Element on a screen under (x, y): the smallest containing bbox
        (ties by id), else the nearest center within ``snap_radius`` (ties
        by id), else None.  Callers check the screen and the point."""
        best = None
        for x0, y0, x1, y1, area, elem_id in self._boxes.get(screen_id, ()):
            if x0 <= x <= x1 and y0 <= y <= y1 and (best is None or (area, elem_id) < best):
                best = (area, elem_id)
        if best is not None:
            return best[1]

        for cx, cy, elem_id in self._centres.get(screen_id, ()):
            distance = math.hypot(cx - x, cy - y)
            if distance <= snap_radius and (best is None or (distance, elem_id) < best):
                best = (distance, elem_id)
        return None if best is None else best[1]


def _as_number(value: Any, elem_id: str, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"element {elem_id!r}: malformed coordinate {field}={value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise GraphError(f"element {elem_id!r}: non-finite coordinate {field}={value!r}")
    return number


def load_graph(document: Mapping[str, Any] | str | Path) -> InterfaceGraph:
    """Parse and validate a graph document (a mapping, or the path of a JSON file).

    Raises :class:`GraphError` carrying the full violation list when the
    document parses but breaks a structural invariant, so a loaded graph
    always satisfies ``validate_graph(g) == []``.
    """
    if isinstance(document, (str, Path)):
        document = read_json(document)
    if not isinstance(document, Mapping):
        raise GraphError("graph document must be a JSON object")

    screens = []
    for raw in document.get("screens", []):
        sid = str(raw["id"])
        screens.append(
            Screen(sid, _as_number(raw["width_px"], sid, "width_px"), _as_number(raw["height_px"], sid, "height_px"))
        )

    elements: list[InterfaceElement] = []
    edges: list[tuple[str, str]] = []
    for raw in document.get("elements", []):
        elem_id = str(raw.get("id", "<missing id>"))
        try:
            kind = ElementKind(raw["kind"])
        except (KeyError, ValueError):
            raise GraphError(f"element {elem_id!r}: unknown kind {raw.get('kind')!r}") from None
        position = (_as_number(raw["x"], elem_id, "x"), _as_number(raw["y"], elem_id, "y"))
        bbox = None
        if raw.get("bbox") is not None:
            box = raw["bbox"]
            if not isinstance(box, (list, tuple)) or len(box) != 4:
                raise GraphError(f"element {elem_id!r}: malformed bbox {box!r}")
            bbox = tuple(_as_number(v, elem_id, f"bbox[{i}]") for i, v in enumerate(box))
        elements.append(
            InterfaceElement(
                id=elem_id,
                name=str(raw.get("name", "")),
                kind=kind,
                screen_id=str(raw["screen"]),
                position=position,
                bbox=bbox,
            )
        )
        if raw.get("parent") is not None:
            edges.append((str(raw["parent"]), elem_id))

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
    raise UnknownPathError(path_id)


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
    screens = {g.by_id[n].screen_id for n in chain if n in g.by_id}
    return ExecutionPath(path_id_for(chain[-1]), tuple(chain), multi_action=len(screens) > 1)


def map_procedure_step(
    g: InterfaceGraph,
    step_text: str,
    similarity: Callable[[str, str], float],
    min_similarity: float = 0.5,
) -> ExecutionPath:
    """Map a procedure step's text to the execution path of its target leaf.

    An exact (case-insensitive substring) occurrence of a leaf name in the
    step text always wins, longest name first; only when no name occurs
    verbatim does the supplied similarity function rank the leaves. The
    result is flagged multi-action when the chain spans several screens or
    the text names more than one leaf.
    """
    if not g.by_id:
        raise GraphError("graph is empty")
    if not step_text.strip():
        raise UnmappableStepError("step text is empty")
    leaves = g.leaves()
    if not leaves:
        raise UnmappableStepError("graph has no leaves")

    text_lower = step_text.lower()
    exact = [leaf for leaf in leaves if leaf.name and leaf.name.lower() in text_lower]
    if exact:
        target = min(exact, key=lambda e: (-len(e.name), e.id))
        # Other leaves count as extra references only when their matched name
        # is not merely a fragment of the target's own name.
        extra = [e for e in exact if e.id != target.id and e.name.lower() not in target.name.lower()]
        path = resolve_path(g, path_id_for(target.id))
        return ExecutionPath(path.path_id, path.node_chain, multi_action=path.multi_action or bool(extra))

    scored = [(similarity(step_text, leaf.name), leaf) for leaf in leaves]
    best_score = max(score for score, _ in scored)
    best = min((leaf for score, leaf in scored if score == best_score), key=lambda e: e.id)
    if best_score < min_similarity:
        raise UnmappableStepError(
            f"no leaf reaches similarity {min_similarity} for step {step_text!r} (best {best_score:.3f})"
        )
    return resolve_path(g, path_id_for(best.id))


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
