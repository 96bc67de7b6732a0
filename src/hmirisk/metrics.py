"""Procedure-driven interface-user conflict metrics.

Three quantities characterize how hard an interface makes one operation:

* visual density, ``1 / n_elements`` on the target's screen (the target
  counts as one element among all visible ones);
* semantic interference density, the fraction of non-target element
  names whose similarity to the target name strictly exceeds a threshold
  (default 0.8);
* interaction span, the traversal length (the summed Euclidean length of
  the recorded cursor trajectory) normalized by the longest traversable
  distance (defaults to the layout diagonal).

The interference denominator counts target-vs-other comparisons
(``n_elements - 1``). A path's metrics have one form: the plain dict
:func:`metric_vector` returns, which ``report.json`` embeds as it is.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Sequence

from .graph import GraphError, InterfaceGraph, resolve_path

SIMILARITY_THRESHOLD = 0.8


def visual_density(screen_elements: Sequence, target_id: str) -> float:
    """1 / (number of visible elements on the target's screen)."""
    n = len(screen_elements)
    if n < 1:
        raise ValueError("screen has no elements")
    if all(e.id != target_id for e in screen_elements):
        raise ValueError(f"target {target_id!r} is not on the screen")
    return 1.0 / n


def semantic_interference_density(
    target_name: str,
    other_names: Sequence[str],
    sim: Callable[[str, str], float],
    theta: float = SIMILARITY_THRESHOLD,
) -> tuple[float | None, tuple[str, ...]]:
    """Fraction of other names with sim(target, name) > theta.

    Returns ``(None, ())`` when there are no other names: the ratio is
    undefined, which callers must keep distinct from an observed 0.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if not other_names:
        return None, ()
    contributing = tuple(name for name in other_names if sim(target_name, name) > theta)
    return len(contributing) / len(other_names), contributing


def trajectory_length(points: Sequence[tuple[float, float]]) -> float:
    """Summed length of the consecutive segments of a cursor trajectory."""
    if len(points) < 1:
        raise ValueError("trajectory needs at least one point")
    return sum(map(math.dist, points[1:], points))


def interaction_span(traversal_px: float, normalizer_px: float) -> float:
    """Traversal length divided by the normalizer."""
    if normalizer_px <= 0:
        raise ValueError(f"normalizer must be positive, got {normalizer_px}")
    return traversal_px / normalizer_px


def metric_vector(
    g: InterfaceGraph,
    path_id: str,
    traversal_px: float,
    sim: Callable[[str, str], float],
    theta: float = SIMILARITY_THRESHOLD,
    normalizer_px: float | None = None,
) -> dict[str, Any]:
    """The metrics of one execution path, as ``report.json`` holds them.

    The path's terminal element is the target; density and interference
    are computed against its screen, the span from the supplied traversal
    length in pixels. An undefined interference ratio (single-element
    screen) is reported as 0.0 with ``sid_undefined`` set so pipelines
    need not special-case trivial screens. A blank name among those
    compared is a :class:`~hmirisk.graph.GraphError` naming the element.
    """
    target = g.by_id[resolve_path(g, path_id).node_chain[-1]]
    on_screen = g.screen_elements(target.screen_id)
    others = [e.name for e in on_screen if e.id != target.id]
    for e in on_screen:
        if others and not e.name.strip():
            raise GraphError(f"element {e.id!r}: a name is needed to compare it with its screen")
    ratio, contributors = semantic_interference_density(target.name, others, sim, theta)
    normalizer = g.layout_diagonal if normalizer_px is None else normalizer_px
    return {
        "vd": visual_density(on_screen, target.id),
        "sid": 0.0 if ratio is None else ratio,
        "is": interaction_span(traversal_px, normalizer),
        "raw": {
            "n_elements": len(on_screen),
            "n_high_similarity": len(contributors),
            "n_comparisons": len(others),
            "traversal_px": traversal_px,
            "normalizer_px": normalizer,
        },
        "sid_undefined": ratio is None,
        "sid_contributors": list(contributors),
    }


def compared_names(g: InterfaceGraph, path_ids: Iterable[str]) -> list[str]:
    """The distinct names :func:`metric_vector` compares for these paths:
    the non-blank names on each target's screen, if it holds more than one
    element (a blank one is :func:`metric_vector`'s error to report)."""
    screens = dict.fromkeys(g.by_id[resolve_path(g, path_id).node_chain[-1]].screen_id for path_id in path_ids)
    shared = [on_screen for on_screen in map(g.screen_elements, screens) if len(on_screen) > 1]
    return list(dict.fromkeys(e.name for on_screen in shared for e in on_screen if e.name.strip()))


METRICS_CSV_HEADER = "path_id,vd_num,vd_den,sid_num,sid_den,is_num_px,is_den_px,vd,sid,is"


def metrics_csv_rows(entries: Iterable[tuple[str, Mapping[str, Any]]]) -> list[str]:
    """Render (path_id, :func:`metric_vector` dict) pairs in the fraction-style CSV layout."""
    rows = [METRICS_CSV_HEADER]
    for path_id, m in entries:
        raw = m["raw"]
        rows.append(
            f"{path_id},1,{raw['n_elements']},{raw['n_high_similarity']},{raw['n_comparisons']},"
            f"{raw['traversal_px']:.2f},{raw['normalizer_px']:.2f},"
            f"{m['vd']:.6g},{m['sid']:.6g},{m['is']:.6g}"
        )
    return rows
