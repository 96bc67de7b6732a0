"""Risk-informed failure-event candidates from error and time-deviated paths.

Task durations follow the IDHEAS-ECA guidance: lognormal with shape
sigma = 0.28, scale mu = ln(median); when only a 95th-percentile time is
known the median is approximated as t95 / 1.585. A path is time-deviated
when the z-score of its log median against its category's pooled
log-duration distribution reaches a threshold (default 1.0). Error-prone
paths are those with at least one annotated error; their error
probability uses Laplace smoothing.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .graph import InterfaceGraph, UnknownPathError, resolve_path
from .ingest import ErrorKind, PathSamples, Procedure

log = logging.getLogger(__name__)

SIGMA_DEFAULT = 0.28
P95_TO_MEDIAN_RATIO = 1.585  # rounding of exp(1.645 * 0.28)
TAU_DEFAULT = 1.0
ALPHA_DEFAULT = 1.0


@dataclass(frozen=True)
class LognormalTimeModel:
    mu: float  # natural log of the median, in log-seconds
    sigma: float = SIGMA_DEFAULT

    def median(self) -> float:
        return math.exp(self.mu)


def median_from_p95(t95: float) -> float:
    """Median duration approximated from the 95th percentile."""
    if t95 <= 0:
        raise ValueError(f"t95 must be positive, got {t95}")
    return t95 / P95_TO_MEDIAN_RATIO


def sample_median_lower(values: Sequence[float]) -> float:
    """Median taking the lower of the two middle values for even counts."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def fit_time_model(durations: Sequence[float]) -> LognormalTimeModel:
    """Lognormal model with mu = ln(sample median) and the fixed sigma."""
    if not durations:
        raise ValueError("cannot fit a time model on an empty sample")
    if any(d <= 0 for d in durations):
        raise ValueError("durations must be positive")
    return LognormalTimeModel(mu=math.log(sample_median_lower(durations)))


def model_from_samples_or_p95(durations: Sequence[float] | None, t95: float | None = None) -> LognormalTimeModel:
    """Empirical fit when durations exist; t95 conversion as the fallback."""
    if durations:
        return fit_time_model(durations)
    if t95 is not None:
        return LognormalTimeModel(mu=math.log(median_from_p95(t95)))
    raise ValueError("need durations or a t95 value")


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal, via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def tail_prob(model: LognormalTimeModel, t: float) -> float:
    """P(T > t) under the lognormal duration model."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return normal_sf((math.log(t) - model.mu) / model.sigma)


def system_category(g: InterfaceGraph, path_id: str) -> str:
    """Category of a path: the id of the system root its chain starts at."""
    return resolve_path(g, path_id).node_chain[0]


@dataclass(frozen=True)
class TimeDeviation:
    path_id: str
    category: str
    z: float
    threshold_s: float
    tail_prob_at_threshold: float
    flagged: bool


def time_deviation_detail(
    samples: Mapping[str, PathSamples],
    grouping: Mapping[str, str],
    tau: float = TAU_DEFAULT,
) -> dict[str, TimeDeviation]:
    """Per-path deviation z-scores against pooled category log durations.

    For each category the log durations of all member paths are pooled;
    a path's z-score is (ln median_path - pooled mean) / pooled std. The
    category threshold exp(mean + tau * std) converts back to seconds,
    and tail_prob_at_threshold is the path's own fitted model evaluated
    there. Categories with a single path are skipped with a warning;
    zero pooled variance yields no flags. Non-positive durations (e.g.
    zero-length steps) carry no information on the log scale and are
    excluded.
    """
    by_category: dict[str, list[str]] = {}
    for path_id in samples:
        by_category.setdefault(grouping[path_id], []).append(path_id)

    out: dict[str, TimeDeviation] = {}
    for category in sorted(by_category):
        members = sorted(by_category[category])
        positive = {p: [d for d in samples[p].durations if d > 0] for p in members}
        with_data = [p for p in members if positive[p]]
        if len(with_data) < 2:
            log.warning("category %r has %d path(s) with durations; skipped", category, len(with_data))
            continue
        pooled = [math.log(d) for p in with_data for d in positive[p]]
        mean = math.fsum(pooled) / len(pooled)  # exactly rounded: session order cannot move the bits
        var = math.fsum((x - mean) ** 2 for x in pooled) / len(pooled)
        std = math.sqrt(var)
        if std == 0.0:
            continue
        threshold_s = math.exp(mean + tau * std)
        for p in with_data:
            model = fit_time_model(positive[p])
            z = (model.mu - mean) / std
            out[p] = TimeDeviation(
                path_id=p,
                category=category,
                z=z,
                threshold_s=threshold_s,
                tail_prob_at_threshold=tail_prob(model, threshold_s),
                flagged=z >= tau,
            )
    return out


def detect_time_deviated(
    samples: Mapping[str, PathSamples],
    grouping: Mapping[str, str],
    tau: float = TAU_DEFAULT,
) -> set[str]:
    """Paths whose log median sits tau pooled-stds above their category mean."""
    return {p for p, d in time_deviation_detail(samples, grouping, tau).items() if d.flagged}


@dataclass(frozen=True)
class ErrorPathStats:
    error_prob: float
    kinds: frozenset[ErrorKind]


def detect_error_paths(
    samples: Mapping[str, PathSamples],
    alpha: float = ALPHA_DEFAULT,
) -> dict[str, ErrorPathStats]:
    """Every path with at least one annotated error, with smoothed probability.

    error_prob = (erroneous attempts + alpha) / (attempts + 2 alpha).
    Paths without errors are absent regardless of alpha.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    out: dict[str, ErrorPathStats] = {}
    for path_id, sample in samples.items():
        if sample.error_steps < 1:
            continue
        kinds = set()
        if sample.execution_errors:
            kinds.add(ErrorKind.EXECUTION)
        if sample.outcome_errors:
            kinds.add(ErrorKind.OUTCOME)
        out[path_id] = ErrorPathStats(
            error_prob=(sample.error_steps + alpha) / (sample.attempts + 2 * alpha),
            kinds=frozenset(kinds),
        )
    return out


def identify_hfes(
    error_paths: Mapping[str, ErrorPathStats],
    time_paths: Iterable[str],
    g: InterfaceGraph,
    procedures: Sequence[Procedure] = (),
    time_detail: Mapping[str, TimeDeviation] | None = None,
) -> dict[str, Any]:
    """Union error-prone and time-deviated paths into HFE candidates.

    Returns the ``hfe`` document of ``risk_report.schema.json``:
    ``candidates`` sorted by path id, each with its ``provenance`` (the
    detector(s) that produced it); ``per_procedure``, the number of
    distinct candidate terminal nodes each procedure's steps touch; and
    ``prioritized_procedures``, ranked by that count (descending, ties by
    procedure id).
    """
    time_set = set(time_paths)
    time_detail = time_detail or {}
    candidates = []
    for path_id in sorted(set(error_paths) | time_set):
        resolve_path(g, path_id)  # cross-reference check: must exist in this graph
        stats = error_paths.get(path_id)
        detail = time_detail.get(path_id)
        time_flag = path_id in time_set
        provenance = ["error_path"] if stats else []
        if time_flag:
            provenance.append("time_path")
        candidates.append(
            {
                "path_id": path_id,
                "error_prob": stats.error_prob if stats else 0.0,
                "error_kinds": sorted(k.value for k in stats.kinds) if stats else [],
                "time_flag": time_flag,
                "tail_prob_at_threshold": detail.tail_prob_at_threshold if detail else 0.0,
                "provenance": provenance,
            }
        )

    candidate_nodes = {resolve_path(g, c["path_id"]).node_chain[-1] for c in candidates}
    per_procedure: dict[str, int] = {}
    for proc in procedures:
        touched = set()
        for step in proc.steps:
            if step.target_path is None:
                continue
            node = resolve_path(g, step.target_path).node_chain[-1]
            if node in candidate_nodes:
                touched.add(node)
        per_procedure[proc.procedure_id] = len(touched)
    return {
        "candidates": candidates,
        "per_procedure": per_procedure,
        "prioritized_procedures": sorted(per_procedure, key=lambda pid: (-per_procedure[pid], pid)),
    }


def load_t95_overrides(lines: Iterable[str], g: InterfaceGraph | None = None) -> dict[str, float]:
    """Parse the lines of the optional `path_id,t95_seconds` override CSV;
    each t95 must be a positive finite number of seconds. With a graph,
    each path_id must resolve in it and is keyed by its resolved path id."""
    overrides: dict[str, float] = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.lower().startswith("path_id"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'path_id,t95_seconds', got {line!r}")
        try:
            t95 = float(parts[1])
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric t95 in {line!r}") from None
        if not (math.isfinite(t95) and t95 > 0):
            raise ValueError(f"line {line_no}: t95 must be positive and finite in {line!r}")
        path_id = parts[0].strip()
        if g is not None:
            try:
                path_id = resolve_path(g, path_id).path_id
            except UnknownPathError as err:
                raise ValueError(f"line {line_no}: {err}") from None
        overrides[path_id] = t95
    return overrides
