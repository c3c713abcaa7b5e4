import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from divcontrol import model, training
from divcontrol.config import (
    CONFIG_KEYS,
    MODES,
    Mode,
    RunConfig,
    config_digest,
    resolve_config,
    resolved_text,
)
from divcontrol.errors import ConfigError, ContractError


def test_resolved_text_round_trips():
    cfg = resolve_config(overrides={"seed": 3, "lr_milestones": (10, 20), "lr": 0.1})
    assert resolve_config(resolved_text(cfg)) == cfg
    assert config_digest(resolve_config(resolved_text(cfg))) == config_digest(cfg)


def test_config_digests_are_pinned():
    # a checkpoint embeds this digest and resume compares it, so a field
    # edit that changes the rendered text breaks resume of older runs
    assert config_digest(resolve_config()).hex() == (
        "d97627864218dddbafce8c3fcc37390fd023970ce69ab5a386e714debdac252b")
    assert config_digest(resolve_config(
        overrides=dict(mode="adapt_frozen", seed=5))).hex() == (
        "b52a2013cfc464f218ddb59192c0f48c55addbd1f1bf8b40034ca1d173cc12f3")


@pytest.mark.parametrize("overrides", [
    dict(seed=11, lr=0.25, adapt_condition="edge-lap", lr_milestones=(7, 9)),
    dict(steps=3, beta_end=0.5, mode="scratch", lr_milestones=(4,)),
    dict(lr_milestones=()),
])
def test_every_field_renders_and_parses_back(overrides):
    cfg = resolve_config(overrides=overrides)
    text = resolved_text(cfg)
    keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
    assert keys == sorted(f.name for f in fields(RunConfig))
    back = resolve_config(text)
    for f in fields(RunConfig):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name
        assert type(getattr(back, f.name)) is type(getattr(cfg, f.name)), f.name


def test_parsers_follow_field_annotations():
    assert {f.name for f in fields(RunConfig)} == set(CONFIG_KEYS)
    assert CONFIG_KEYS["seed"] is int and CONFIG_KEYS["lr"] is float
    assert CONFIG_KEYS["mode"] is str
    assert CONFIG_KEYS["lr_milestones"](" 10, 20 ") == (10, 20)
    assert CONFIG_KEYS["lr_milestones"]("") == ()
    assert resolve_config("lr_milestones =\n").lr_milestones == ()
    with pytest.raises(ConfigError):
        resolve_config("steps = 1.5\n")


def test_config_invariants():
    for bad in (dict(image_size=10, patch_size=4), dict(repa_layer=9),
                # sizes the condition transforms or SSIM cannot use
                dict(image_size=4), dict(image_size=6, patch_size=2),
                dict(image_size=10, patch_size=2),
                dict(repa_layer=0), dict(mlp_hidden=32, token_dim=64),
                # values that used to fail only inside training.train
                dict(lr=0.0), dict(lr=-1e-3), dict(lr_factor=2.0),
                dict(lr_factor=0.0), dict(adam_beta1=1.0), dict(adam_beta1=0.0),
                dict(adam_beta2=1.0), dict(adam_beta2=0.0),
                dict(weight_decay=-0.1), dict(dropout=1.0), dict(dropout=-0.1),
                dict(steps=-5), dict(adapt_steps=-1), dict(batch_size=0),
                dict(dataset_size=0), dict(adapt_images=0), dict(eval_samples=0),
                # values that used to fail inside a run or raise the wrong error
                dict(timesteps=0), dict(lambda_repa=float("nan")),
                dict(patch_size=0), dict(top_k=33), dict(adapt_top_k=17),
                dict(top_k=-1), dict(adapt_top_k=-1), dict(n_tailor=-1, top_k=0),
                dict(n_learngene=-1), dict(adapt_n_tailor=-1, adapt_top_k=0),
                # sizes and schedule values that fail inside a run
                dict(image_size=0), dict(token_dim=0, mlp_hidden=0),
                dict(embed_dim=0), dict(repa_dim=0), dict(repa_hidden=0),
                dict(beta_start=0.0), dict(beta_end=2.0), dict(beta_end=1.0),
                dict(beta_start=float("nan")), dict(beta_end=float("nan")),
                dict(adam_eps=0.0), dict(adam_eps=float("nan")),
                # non-finite floats: at gate_bias_rate = nan every balance
                # bias turns NaN and all conditions route to the same tailors
                dict(lr=float("inf")), dict(weight_decay=float("inf")),
                dict(lambda_repa=float("inf")), dict(adam_eps=float("inf")),
                dict(gate_bias_rate=float("nan")), dict(gate_bias_rate=float("inf")),
                dict(gate_bias_rate=-1e-3),
                # an int past float's range, which float() cannot convert
                dict(lr=10**400),
                # a branch deeper than the denoiser: the denoiser takes one
                # injection per layer of its own and dropped the rest
                dict(controlnet_layers=5), dict(layers=0),
                dict(layers=1, controlnet_layers=3, repa_layer=1)):
        text = "".join(f"{k} = {v}\n" for k, v in bad.items())
        with pytest.raises(ConfigError):
            resolve_config(text)
        with pytest.raises(ConfigError):
            resolve_config(overrides=bad)
        with pytest.raises(ConfigError):
            resolve_config().replace(**bad)
    # ints past int64, the width checkpoints and numpy draws store them in;
    # one of 5000 digits cannot even be printed into the digested config text
    for bad in (dict(seed=10**5000), dict(lr_milestones=(10**5000,)),
                dict(seed=2**63), dict(steps=-2**63 - 1), dict(lr_milestones=(1, 2**63))):
        with pytest.raises(ConfigError):
            resolve_config(overrides=bad)
        with pytest.raises(ConfigError):
            resolve_config().replace(**bad)
    with pytest.raises(ConfigError):
        resolve_config("seed = 9223372036854775808\n")
    # the edges of those ranges still build
    resolve_config(overrides=dict(lr_factor=1.0, dropout=0.0, weight_decay=0.0,
                                  steps=0, adapt_steps=0, batch_size=1,
                                  timesteps=1, lambda_repa=0.0, n_learngene=0,
                                  n_tailor=0, top_k=0, adapt_top_k=16,
                                  image_size=8, beta_start=0.5, beta_end=0.5,
                                  adam_eps=1e-300, gate_bias_rate=0.0))
    resolve_config(overrides=dict(layers=2, controlnet_layers=1, repa_layer=1))
    config_digest(resolve_config(overrides=dict(seed=2**63 - 1, lr_milestones=(-2**63,))))
    # callers that catch the package's contract errors still catch these
    assert issubclass(ConfigError, ContractError)


def test_negative_lambda_repa_is_a_config_error():
    with pytest.raises(ConfigError):
        resolve_config("lambda_repa = -0.1\n")
    with pytest.raises(ConfigError):
        resolve_config().replace(lambda_repa=-0.1)
    assert resolve_config().replace(lambda_repa=0.0).lambda_repa == 0.0


def test_mode_table_resolves_each_mode_against_its_keys():
    cfg = resolve_config(overrides=dict(
        n_tailor=6, top_k=5, steps=4, dataset_size=3,
        adapt_n_tailor=9, adapt_top_k=8, adapt_steps=7, adapt_images=2))
    adapting = dict(adapts=True, image_stream="adapt-image", n_tailor=9,
                    top_k=8, steps=7, bank_size=2)
    assert {mode: cfg.replace(mode=mode).run for mode in MODES} == {
        "diversion": Mode(adapts=False, needs_base=False, image_stream="image",
                          n_tailor=6, top_k=5, steps=4, bank_size=3),
        "adapt_frozen": Mode(needs_base=True, **adapting),
        "scratch": Mode(needs_base=False, **adapting)}


def test_only_the_config_module_tests_the_mode():
    # every other module reads the mode's decisions from RunConfig.run, so
    # a new mode is one MODES row
    src = Path(__file__).resolve().parents[1] / "src" / "divcontrol"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops) and any(
                    isinstance(side, ast.Attribute) and side.attr == "mode"
                    for side in [node.left, *node.comparators]):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_unknown_mode_and_key_rejected():
    with pytest.raises(ConfigError):
        resolve_config(overrides={"mode": "bogus"})
    with pytest.raises(ConfigError):
        resolve_config().replace(mode="bogus")
    with pytest.raises(ConfigError):
        resolve_config("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        resolve_config(overrides={"no_such_key": 1})
    with pytest.raises(ConfigError):
        resolve_config().replace(no_such_key=1)


def test_override_types_follow_field_annotations():
    # an int for a float key is stored as float, so the digest survives a
    # round trip through the rendered text
    cfg = resolve_config(overrides={"lr": 1})
    assert type(cfg.lr) is float
    assert config_digest(resolve_config(resolved_text(cfg))) == config_digest(cfg)
    assert type(resolve_config().replace(lr_factor=1).lr_factor) is float
    for bad in (dict(steps="100"), dict(steps=True), dict(steps=100.0),
                dict(lr="0.1"), dict(lr=True), dict(mode=3),
                dict(lr_milestones=[10]), dict(lr_milestones=(1.5,))):
        with pytest.raises(ConfigError):
            resolve_config(overrides=bad)
        with pytest.raises(ConfigError):
            resolve_config().replace(**bad)


def test_run_values_come_only_from_the_config():
    # a function or class that takes a RunConfig reads every run value from
    # it, so no parameter can shadow a key the config digest covers
    checked = 0
    for module in (model, training):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            if any(p.annotation in ("RunConfig", RunConfig) for p in params):
                checked += 1
                shadowed = [p.name for p in params if p.name in CONFIG_KEYS]
                assert not shadowed, (obj.__qualname__, shadowed)
    assert checked >= 10
