from __future__ import annotations

import json

import pytest

from hmirisk.config import (
    AppConfig,
    config_fingerprint,
    config_from_dict,
    load_app_config,
)


def test_defaults():
    cfg = AppConfig()
    assert cfg.riskpath.tau == 1.0
    assert cfg.riskpath.sigma == 0.28
    assert cfg.metrics.theta == 0.8
    assert cfg.metrics.normalizer_px is None
    assert cfg.embed.provider == "local"
    assert cfg.pif.epochs == 300


def test_partial_document_fills_defaults(tmp_path):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"riskpath": {"tau": 2.0}, "metrics": {"normalizer_px": 2654.05}}))
    cfg = load_app_config(file)
    assert cfg.riskpath.tau == 2.0
    assert cfg.riskpath.alpha == 1.0
    assert cfg.metrics.normalizer_px == 2654.05


def test_none_path_gives_defaults():
    assert load_app_config(None) == AppConfig()


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


def test_number_fields_take_integers():
    cfg = config_from_dict({"riskpath": {"tau": 2}, "metrics": {"normalizer_px": 2654}})
    assert cfg.riskpath.tau == 2 and cfg.metrics.normalizer_px == 2654


def test_integer_and_float_give_one_fingerprint():
    as_int = config_from_dict({"riskpath": {"tau": 1, "alpha": 1, "sigma": 1}, "metrics": {"normalizer_px": 2654}})
    as_float = config_from_dict({"riskpath": {"tau": 1.0, "alpha": 1.0, "sigma": 1.0}, "metrics": {"normalizer_px": 2654.0}})
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
        ({"riskpath": {"sigma": float("inf")}}, "riskpath.sigma: expected a finite number, got inf"),
        ({"riskpath": {"alpha": -1.0}}, "riskpath.alpha: must be non-negative"),
        ({"metrics": {"theta": 0.0}}, "metrics.theta: must be in (0, 1]"),
        ({"pif": {"k_folds": 2.5}}, "pif.k_folds: expected an integer, got 2.5"),
        ({"pif": {"seed": -1}}, "pif.seed: must be non-negative"),
        ({"embed": {"timeout_ms": "10"}}, "embed.timeout_ms: expected an integer"),
        ({"embed": {"cache_dir": 3}}, "embed.cache_dir: expected a string"),
        ({"paths": []}, "section 'paths' must be a JSON object"),
        ([], "config must be a JSON object"),
    ],
)
def test_bad_value_rejected_naming_key(raw, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict(raw)
    assert message in str(exc.value)
