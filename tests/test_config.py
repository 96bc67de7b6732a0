from __future__ import annotations

import json

import pytest

from hmirisk import pifnet
from hmirisk.config import (
    AppConfig,
    TrainConfig,
    config_fingerprint,
    config_from_dict,
)


def test_defaults():
    cfg = AppConfig()
    assert cfg.riskpath.tau == 1.0
    assert cfg.metrics.theta == 0.8
    assert cfg.metrics.normalizer_px is None
    assert cfg.embed.provider == "local"
    assert cfg.pif.epochs == 300


def test_partial_document_fills_defaults(tmp_path):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"riskpath": {"tau": 2.0}, "metrics": {"normalizer_px": 2654.05}}))
    cfg = config_from_dict(json.loads(file.read_text()))
    assert cfg.riskpath.tau == 2.0
    assert cfg.riskpath.alpha == 1.0
    assert cfg.metrics.normalizer_px == 2654.05


def test_none_path_gives_defaults():
    assert config_from_dict({}) == AppConfig()


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config sections"):
        config_from_dict({"riskPath": {"tau": 2.0}})


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict({"riskpath": {"tua": 2.0}})


def test_fingerprint_stable_and_sensitive():
    a = config_fingerprint(AppConfig())
    b = config_fingerprint(AppConfig())
    assert a == b and len(a) == 64
    changed = config_from_dict({"riskpath": {"tau": 3.0}})
    assert config_fingerprint(changed) != a


def test_optional_fields_take_null():
    cfg = config_from_dict({"metrics": {"normalizer_px": None}, "embed": {"cache_dir": None}})
    assert cfg == AppConfig() and cfg.metrics.normalizer_px is None and cfg.embed.cache_dir is None


def test_number_fields_take_integers():
    cfg = config_from_dict({"riskpath": {"tau": 2}, "metrics": {"normalizer_px": 2654}})
    assert cfg.riskpath.tau == 2 and cfg.metrics.normalizer_px == 2654


def test_integer_and_float_give_one_fingerprint():
    as_int = config_from_dict({"riskpath": {"tau": 1, "alpha": 1}, "metrics": {"normalizer_px": 2654}})
    as_float = config_from_dict({"riskpath": {"tau": 1.0, "alpha": 1.0}, "metrics": {"normalizer_px": 2654.0}})
    assert as_int == as_float
    assert config_fingerprint(as_int) == config_fingerprint(as_float)
    assert type(as_int.riskpath.tau) is float and type(as_int.metrics.normalizer_px) is float
    assert config_fingerprint(config_from_dict({"riskpath": {"tau": 1}})) == config_fingerprint(AppConfig())
    assert type(config_from_dict({"pif": {"epochs": 3}}).pif.epochs) is int


def test_number_beyond_float_range_rejected():
    with pytest.raises(ValueError, match="riskpath.tau: expected a finite number"):
        config_from_dict({"riskpath": {"tau": 10**400}})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"riskpath": {"tau": True}}, "riskpath.tau: expected a finite number, got True"),
        ({"riskpath": {"tau": float("inf")}}, "riskpath.tau: expected a finite number, got inf"),
        ({"riskpath": {"alpha": -1.0}}, "riskpath.alpha: must be non-negative"),
        ({"metrics": {"theta": 0.0}}, "metrics.theta: must be in (0, 1]"),
        ({"pif": {"epochs": 2.5}}, "pif.epochs: expected an integer, got 2.5"),
        ({"pif": {"epochs": -1}}, "pif.epochs: must be positive, got -1"),
        ({"embed": {"timeout_ms": "10"}}, "embed.timeout_ms: expected an integer"),
        ({"embed": {"cache_dir": 3}}, "embed.cache_dir: expected a string"),
        ({"riskpath": []}, "section 'riskpath' must be a JSON object"),
        ([], "config must be a JSON object"),
        ({"pif": {"epochs": 0}}, "pif.epochs: must be positive, got 0"),
        ({"embed": {"provider": "remote"}}, "config embed.endpoint: must be set when embed.provider is 'remote'"),
        ({"embed": {"provider": "remote", "endpoint": " "}}, "config embed.endpoint: must be set"),
        ({"embed": {"provider": "remote", "endpoint": "embed-service"}},
         "config embed.endpoint: must be an http:// or https:// URL, got 'embed-service'"),
        ({"pif": {"epochs": 10**30}}, f"config pif.epochs: must be at most 100000, got {10**30}"),
        ({"pif": {"epochs": 100_001}}, "config pif.epochs: must be at most 100000, got 100001"),
        ({"embed": {"timeout_ms": 3_600_001}}, "config embed.timeout_ms: must be at most 3600000, got 3600001"),
    ],
)
def test_bad_value_rejected_naming_key(raw, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict(raw)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"paths": {"graph": "graph.json"}}, "unknown config sections ['paths']"),
        ({"riskpath": {"sigma": 0.28}}, "config section 'riskpath' has unknown keys ['sigma']"),
        ({"pif": {"k_folds": 5}}, "config section 'pif' has unknown keys ['k_folds']"),
        ({"pif": {"seed": 0}}, "config section 'pif' has unknown keys ['seed']"),
    ],
    ids=["paths", "riskpath.sigma", "pif.k_folds", "pif.seed"],
)
def test_removed_key_rejected_as_unknown(raw, message):
    """Inputs and seeds are flags and the lognormal sigma is a constant, so
    the config keys that once duplicated them are rejected, never ignored."""
    with pytest.raises(ValueError) as exc:
        config_from_dict(raw)
    assert str(exc.value) == message


def test_pif_section_is_the_training_hyperparameters():
    assert pifnet.TrainConfig is TrainConfig
    assert config_from_dict({"pif": {"epochs": 7}}).pif == TrainConfig(epochs=7)
