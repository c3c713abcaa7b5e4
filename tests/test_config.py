import pytest

from divcontrol.config import config_digest, resolve_config, resolved_text
from divcontrol.errors import ConfigError


def test_resolved_text_round_trips():
    cfg = resolve_config(overrides={"seed": 3, "lr_milestones": (10, 20), "lr": 0.1})
    assert resolve_config(resolved_text(cfg)) == cfg
    assert config_digest(resolve_config(resolved_text(cfg))) == config_digest(cfg)


def test_negative_lambda_repa_is_a_config_error():
    with pytest.raises(ConfigError):
        resolve_config("lambda_repa = -0.1\n")
    with pytest.raises(ConfigError):
        resolve_config().replace(lambda_repa=-0.1)
    assert resolve_config().replace(lambda_repa=0.0).lambda_repa == 0.0


def test_unknown_mode_and_key_rejected():
    with pytest.raises(ConfigError):
        resolve_config(overrides={"mode": "bogus"})
    with pytest.raises(ConfigError):
        resolve_config().replace(mode="bogus")
    with pytest.raises(ConfigError):
        resolve_config("no_such_key = 1\n")
