"""JSON configuration shared by the CLI and the report assembler.

Every value is checked where it enters: its type must match the field
(a bool is not a number, a float is not an integer), a number must be
finite and in range, and an error names the offending ``section.key``.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping


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


@dataclass(frozen=True)
class MetricsSettings:
    theta: float = 0.8
    normalizer_px: float | None = None  # None: use the graph layout diagonal


@dataclass(frozen=True)
class TrainConfig:
    """PIF classifier hyperparameters (config section ``pif``)."""

    learning_rate: float = 1e-3
    epochs: int = 300
    dropout: float = 0.3


@dataclass(frozen=True)
class AppConfig:
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    riskpath: RiskSettings = field(default_factory=RiskSettings)
    metrics: MetricsSettings = field(default_factory=MetricsSettings)
    pif: TrainConfig = field(default_factory=TrainConfig)


_SECTIONS = {
    "embed": EmbedConfig,
    "riskpath": RiskSettings,
    "metrics": MetricsSettings,
    "pif": TrainConfig,
}

# Base of a field's annotation (a string, as annotations are postponed) ->
# accepted JSON types and their description.
_TYPES = {"str": (str, "a string"), "int": (int, "an integer"), "float": ((int, float), "a finite number")}

_MAX_EPOCHS = 100_000
_MAX_TIMEOUT_MS = 3_600_000  # an hour; socket timeouts overflow far beyond it

# The requirements a key's value must meet, each a test and its wording.
_RANGES = {
    "embed.provider": [(lambda v: v in ("local", "remote"), "'local' or 'remote'")],
    "embed.timeout_ms": [(lambda v: v > 0, "positive"), (lambda v: v <= _MAX_TIMEOUT_MS, f"at most {_MAX_TIMEOUT_MS}")],
    "riskpath.tau": [(lambda v: v >= 0, "non-negative")],
    "riskpath.alpha": [(lambda v: v >= 0, "non-negative")],
    "metrics.theta": [(lambda v: 0 < v <= 1, "in (0, 1]")],
    "metrics.normalizer_px": [(lambda v: v > 0, "positive")],
    "pif.learning_rate": [(lambda v: v > 0, "positive")],
    "pif.epochs": [(lambda v: v > 0, "positive"), (lambda v: v <= _MAX_EPOCHS, f"at most {_MAX_EPOCHS}")],
    "pif.dropout": [(lambda v: 0 <= v < 1, "in [0, 1)")],
}


def _checked_value(name: str, annotation: str, value: Any) -> Any:
    """The value, checked; a number field is stored as a float, so 1 and 1.0
    give one config and one fingerprint."""
    if value is None and annotation.endswith("| None"):
        return None
    base = annotation.split(" |")[0]
    types, expected = _TYPES[base]
    # The range test is False for NaN, infinities and ints too large for a float.
    if (
        isinstance(value, bool) or not isinstance(value, types)
        or base == "float" and not -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ValueError(f"config {name}: expected {expected}, got {value!r}")
    for test, requirement in _RANGES.get(name, ()):
        if not test(value):
            raise ValueError(f"config {name}: must be {requirement}, got {value!r}")
    return float(value) if base == "float" else value


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
        kwargs[section] = cls(
            **{key: _checked_value(f"{section}.{key}", fields[key].type, value) for key, value in data.items()}
        )
    config = AppConfig(**kwargs)
    if config.embed.provider == "remote":
        endpoint = config.embed.endpoint.strip()
        if not endpoint:
            raise ValueError("config embed.endpoint: must be set when embed.provider is 'remote'")
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"config embed.endpoint: must be an http:// or https:// URL, got {endpoint!r}")
    return config


def config_fingerprint(cfg: AppConfig) -> str:
    """SHA-256 over the canonical JSON form (sorted keys, no whitespace)."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
