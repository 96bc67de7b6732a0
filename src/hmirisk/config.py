"""JSON configuration shared by the CLI and the report assembler.

Every value is checked where it enters: its type must match the field
(a bool is not a number, a float is not an integer), a number must be
finite and in range, and an error names the offending ``section.key``.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping


@dataclass(frozen=True)
class PathsConfig:
    graph: str | None = None
    procedures: str | None = None
    sessions: str | None = None
    t95: str | None = None
    model: str | None = None


@dataclass(frozen=True)
class EmbedConfig:
    provider: str = "local"  # "local" | "remote"
    model: str = ""
    endpoint: str = ""
    timeout_ms: int = 10_000
    cache_dir: str | None = None


@dataclass(frozen=True)
class RiskSettings:
    tau: float = 1.0
    alpha: float = 1.0
    sigma: float = 0.28  # fixed by the duration guidance; override is non-standard


@dataclass(frozen=True)
class MetricsSettings:
    theta: float = 0.8
    normalizer_px: float | None = None  # None: use the graph layout diagonal


@dataclass(frozen=True)
class PifSettings:
    learning_rate: float = 1e-3
    epochs: int = 300
    dropout: float = 0.3
    k_folds: int = 5
    seed: int = 0


@dataclass(frozen=True)
class AppConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    riskpath: RiskSettings = field(default_factory=RiskSettings)
    metrics: MetricsSettings = field(default_factory=MetricsSettings)
    pif: PifSettings = field(default_factory=PifSettings)


_SECTIONS = {
    "paths": PathsConfig,
    "embed": EmbedConfig,
    "riskpath": RiskSettings,
    "metrics": MetricsSettings,
    "pif": PifSettings,
}

# Base of a field's annotation (a string, as annotations are postponed) ->
# accepted JSON types and their description.
_TYPES = {"str": (str, "a string"), "int": (int, "an integer"), "float": ((int, float), "a finite number")}

_RANGES = {
    "embed.provider": (lambda v: v in ("local", "remote"), "'local' or 'remote'"),
    "embed.timeout_ms": (lambda v: v > 0, "positive"),
    "riskpath.tau": (lambda v: v >= 0, "non-negative"),
    "riskpath.alpha": (lambda v: v >= 0, "non-negative"),
    "riskpath.sigma": (lambda v: v > 0, "positive"),
    "metrics.theta": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "metrics.normalizer_px": (lambda v: v > 0, "positive"),
    "pif.learning_rate": (lambda v: v > 0, "positive"),
    "pif.epochs": (lambda v: v >= 0, "non-negative"),
    "pif.dropout": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "pif.k_folds": (lambda v: v >= 2, "at least 2"),
    "pif.seed": (lambda v: v >= 0, "non-negative"),
}


def _check_value(name: str, annotation: str, value: Any) -> None:
    if value is None and annotation.endswith("| None"):
        return
    types, expected = _TYPES[annotation.split(" |")[0]]
    finite = not isinstance(value, float) or math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, types) or not finite:
        raise ValueError(f"config {name}: expected {expected}, got {value!r}")
    if name in _RANGES and not _RANGES[name][0](value):
        raise ValueError(f"config {name}: must be {_RANGES[name][1]}, got {value!r}")


def config_from_dict(raw: Mapping[str, Any]) -> AppConfig:
    if not isinstance(raw, Mapping):
        raise ValueError("config must be a JSON object")
    unknown_sections = set(raw) - set(_SECTIONS)
    if unknown_sections:
        raise ValueError(f"unknown config sections {sorted(unknown_sections)}")
    kwargs: dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        data = raw.get(section, {})
        if not isinstance(data, Mapping):
            raise ValueError(f"config section {section!r} must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"config section {section!r} has unknown keys {sorted(unknown)}")
        for key, value in data.items():
            _check_value(f"{section}.{key}", fields[key].type, value)
        kwargs[section] = cls(**data)
    return AppConfig(**kwargs)


def read_json(path: str | Path) -> Any:
    """Decode a JSON file; a decode error names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_app_config(path: str | Path | None) -> AppConfig:
    if path is None:
        return AppConfig()
    return config_from_dict(read_json(path))


def config_to_dict(cfg: AppConfig) -> dict[str, Any]:
    return asdict(cfg)


def config_fingerprint(cfg: AppConfig) -> str:
    """SHA-256 over the canonical JSON form (sorted keys, no whitespace)."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
