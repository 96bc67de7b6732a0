"""JSON configuration shared by the CLI and the report assembler."""
from __future__ import annotations

import hashlib
import json
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
    report: dict[str, Any] = field(default_factory=dict)


_SECTIONS = {
    "paths": PathsConfig,
    "embed": EmbedConfig,
    "riskpath": RiskSettings,
    "metrics": MetricsSettings,
    "pif": PifSettings,
}


def config_from_dict(raw: Mapping[str, Any]) -> AppConfig:
    unknown_sections = set(raw) - set(_SECTIONS) - {"report"}
    if unknown_sections:
        raise ValueError(f"unknown config sections {sorted(unknown_sections)}")
    kwargs: dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        data = raw.get(section, {})
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"config section {section!r} has unknown keys {sorted(unknown)}")
        kwargs[section] = cls(**data)
    kwargs["report"] = dict(raw.get("report", {}))
    return AppConfig(**kwargs)


def load_app_config(path: str | Path | None) -> AppConfig:
    if path is None:
        return AppConfig()
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def config_to_dict(cfg: AppConfig) -> dict[str, Any]:
    return asdict(cfg)


def config_fingerprint(cfg: AppConfig) -> str:
    """SHA-256 over the canonical JSON form (sorted keys, no whitespace)."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
