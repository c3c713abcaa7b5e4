"""Run lifecycle at micro scale: resume after a crash, missing checkpoint
blocks, the non-finite guard, the per-step loss arithmetic and the
sweep's up-front config check."""

import json
import os
import shutil

import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol import training
from divcontrol.checkpoint import load_checkpoint, save_checkpoint
from divcontrol.conditions import DatasetBank
from divcontrol.errors import CheckpointError, ConfigError, ContractError, NumericError
from divcontrol.runio import read_metrics
from divcontrol.verify import micro_config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = micro_config(0).replace(steps=3)
    return cfg, training.train_diversion(cfg, tmp_path_factory.mktemp("run"))


def test_resume_after_crash_matches_straight_run(tmp_path):
    cfg = micro_config(0).replace(steps=160)
    straight = training.train_diversion(cfg, tmp_path / "straight")

    # a run checkpoints at step 100, goes on to step 150 and dies there
    run = tmp_path / "crashed"
    bundle = training.build_diversion_bundle(cfg)
    bank = DatasetBank(cfg.seed, cfg.dataset_size, bundle.specs, cfg.image_size)
    opt = training._new_optimizer(bundle)
    ckpt, metrics = training.train_steps(bundle, bank, run, stop_step=100, opt=opt)
    shutil.copy(ckpt, tmp_path / "step100.divc")
    training.train_steps(bundle, bank, run, start_step=100, stop_step=150,
                         opt=opt, metrics=metrics)
    assert len(read_metrics(run)[1]) == 150
    resumed = training.train_diversion(cfg, run, resume=str(tmp_path / "step100.divc"))

    assert (run / "metrics.csv").read_text() == \
        (tmp_path / "straight" / "metrics.csv").read_text()
    assert json.loads((run / "summary.json").read_text())["steps_recorded"] == 160
    a, b = load_checkpoint(straight), load_checkpoint(resumed)
    assert a.step == b.step == 160
    assert list(a.arrays) == list(b.arrays)
    assert any(k.startswith("opt/m/") for k in a.arrays)   # moments
    assert any(k.startswith("gate/") for k in a.arrays)    # gate state
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key


@pytest.mark.parametrize("prefix", ["param/", "gate/", "opt/m/", "opt/v/", "opt/t"])
def test_missing_block_raises_checkpoint_error(trained, prefix):
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    dropped = next(k for k in state.arrays if k.startswith(prefix))
    del state.arrays[dropped]
    bundle = training.build_diversion_bundle(cfg)
    with pytest.raises(CheckpointError, match="missing block"):
        training.load_bundle_arrays(bundle, state, training._new_optimizer(bundle))


@pytest.mark.parametrize("key", ["metrics/cond_ema", "metrics/cond_seen"])
def test_resume_without_metrics_block_raises_checkpoint_error(trained, tmp_path, key):
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    del state.arrays[key]
    save_checkpoint(tmp_path / "ckpt.divc", state)
    with pytest.raises(CheckpointError, match=key):
        training.train_diversion(cfg, tmp_path / "run", resume=str(tmp_path / "ckpt.divc"))


@pytest.mark.parametrize("loss_name", ["diffusion_loss", "repa_loss"])
def test_non_finite_logged_loss_stops_the_run(tmp_path, monkeypatch, loss_name):
    # with lambda_repa = 0 a NaN alignment loss leaves l_total finite; the
    # guard must fire on it all the same
    loss = getattr(training, loss_name)
    monkeypatch.setattr(training, loss_name, lambda *a: T.mul(loss(*a), np.nan))
    cfg = micro_config(0).replace(steps=3, lambda_repa=0.0)
    try:
        with pytest.raises(NumericError):
            training.train_diversion(cfg, tmp_path)
        assert T.tape_size() == 0   # the abandoned step's nodes are freed
    finally:
        T.clear_tape()
    assert os.path.exists(tmp_path / "nan-snapshot-step1.divc")


def test_logged_l_total_is_l_diff_plus_weighted_l_repa(tmp_path):
    for lam in (0.05, 0.0):
        run = tmp_path / f"lambda{lam}"
        training.train_diversion(micro_config(0).replace(steps=5, lambda_repa=lam), run)
        header, rows = read_metrics(run)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            l_diff, l_repa = row[col["l_diff"]], row[col["l_repa"]]
            assert row[col["l_total"]] == l_diff + lam * l_repa


def test_adaptation_needs_a_diversion_base_and_scratch_mode(trained, tmp_path):
    cfg, ckpt = trained
    acfg = cfg.replace(mode="adapt_frozen", adapt_steps=2, adapt_images=4,
                       adapt_n_tailor=2, adapt_top_k=1)
    adapted = training.adapt_few_shot(acfg, ckpt, tmp_path / "adapt")
    with pytest.raises(ContractError, match="diversion-mode base"):
        training.build_adapt_bundle(acfg, adapted)
    with pytest.raises(ContractError, match="mode = scratch"):
        training.train_scratch(cfg, tmp_path / "scratch")


def test_adaptation_refuses_a_config_that_reshapes_the_base(trained, tmp_path):
    # the adaptation checkpoint stores only its own config, and the frozen
    # base is rebuilt from it, so a different n_learngene could never be read
    cfg, ckpt = trained
    acfg = cfg.replace(mode="adapt_frozen", n_learngene=6, adapt_steps=2,
                       adapt_images=4, adapt_n_tailor=2, adapt_top_k=1)
    with pytest.raises(ContractError, match="n_learngene = 6 .base: 4."):
        training.adapt_few_shot(acfg, ckpt, tmp_path / "adapt")
    assert not os.path.exists(tmp_path / "adapt" / "checkpoint.divc")


def test_sweep_checks_every_cell_before_training_any(tmp_path):
    # repa_layer 9 exceeds the micro config's one branch layer
    cfg = micro_config(0).replace(steps=2)
    with pytest.raises(ConfigError, match="repa_layer"):
        training.sweep_repa(cfg, [1, 9], [0.0], tmp_path / "sweep")
    assert not list(tmp_path.glob("sweep/depth*"))
