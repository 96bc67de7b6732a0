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
(``n_elements - 1``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import ExecutionPath, InterfaceGraph, resolve_path

SIMILARITY_THRESHOLD = 0.8


@dataclass(frozen=True)
class MetricCounts:
    n_elements: int
    n_high_similarity: int
    n_comparisons: int
    traversal_px: float
    normalizer_px: float


@dataclass(frozen=True)
class MetricVector:
    vd: float
    sid: float
    is_norm: float
    raw: MetricCounts
    sid_undefined: bool = False
    sid_contributors: tuple[str, ...] = ()

    def features(self) -> tuple[float, float, float]:
        return (self.vd, self.sid, self.is_norm)


def visual_density(screen_elements: Sequence, target_id: str) -> float:
    """1 / (number of visible elements on the target's screen)."""
    n = len(screen_elements)
    if n < 1:
        raise ValueError("screen has no elements")
    ids = [e.id if hasattr(e, "id") else e for e in screen_elements]
    if target_id not in ids:
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
    path: ExecutionPath | str,
    traversal_px: float,
    sim: Callable[[str, str], float],
    theta: float = SIMILARITY_THRESHOLD,
    normalizer_px: float | None = None,
) -> MetricVector:
    """Assemble the three metrics for one execution path.

    The path's terminal element is the target; density and interference
    are computed against its screen, the span from the supplied traversal
    length in pixels. An undefined interference ratio (single-element
    screen) is reported as 0.0 with ``sid_undefined`` set so pipelines
    need not special-case trivial screens.
    """
    resolved = resolve_path(g, path) if isinstance(path, str) else path
    target = g.by_id[resolved.node_chain[-1]]
    on_screen = g.screen_elements(target.screen_id)
    vd = visual_density(on_screen, target.id)

    others = [e.name for e in on_screen if e.id != target.id]
    ratio, contributors = semantic_interference_density(target.name, others, sim, theta)

    normalizer = g.layout_diagonal if normalizer_px is None else normalizer_px
    return MetricVector(
        vd=vd,
        sid=0.0 if ratio is None else ratio,
        is_norm=interaction_span(traversal_px, normalizer),
        raw=MetricCounts(
            n_elements=len(on_screen),
            n_high_similarity=len(contributors),
            n_comparisons=len(others),
            traversal_px=traversal_px,
            normalizer_px=normalizer,
        ),
        sid_undefined=ratio is None,
        sid_contributors=contributors,
    )


METRICS_CSV_HEADER = "path_id,vd_num,vd_den,sid_num,sid_den,is_num_px,is_den_px,vd,sid,is"


def metrics_csv_rows(entries: Iterable[tuple[str, MetricVector]]) -> list[str]:
    """Render (path_id, MetricVector) pairs in the fraction-style CSV layout."""
    rows = [METRICS_CSV_HEADER]
    for path_id, m in entries:
        rows.append(
            f"{path_id},1,{m.raw.n_elements},{m.raw.n_high_similarity},{m.raw.n_comparisons},"
            f"{m.raw.traversal_px:.2f},{m.raw.normalizer_px:.2f},"
            f"{m.vd:.6g},{m.sid:.6g},{m.is_norm:.6g}"
        )
    return rows
