"""Run lifecycle at micro scale: resume after a crash in every mode, the
base-checkpoint contract, missing checkpoint blocks, the non-finite guard,
the per-step loss arithmetic and the sweep's up-front config check."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol import gradcheck, training
from divcontrol.checkpoint import load_checkpoint, save_checkpoint
from divcontrol.config import MODES, config_digest
from divcontrol.errors import CheckpointError, ConfigError, ContractError, NumericError
from divcontrol.gradcheck import micro_config
from divcontrol.rng import fresh
from divcontrol.runio import read_metrics


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = micro_config(0).replace(steps=3)
    return cfg, training.train(cfg, tmp_path_factory.mktemp("run"))


@pytest.mark.parametrize("mode", MODES)
def test_resume_after_crash_matches_straight_run(trained, tmp_path, monkeypatch, mode):
    cfg = micro_config(0).replace(mode=mode, steps=160, adapt_steps=160,
                                  adapt_images=4, adapt_n_tailor=2, adapt_top_k=1)
    base = trained[1] if MODES[mode].needs_base else None
    straight = training.train(cfg, tmp_path / "straight", base_ckpt=base)

    # a run checkpoints at step 100, goes on to step 150 and dies there
    run = tmp_path / "crashed"
    bundle = (training.build_adapt_bundle(cfg, base) if base
              else training._bundle(cfg, fresh))
    bank = training._image_bank(bundle)
    opt = training._new_optimizer(bundle)
    ckpt, metrics = training.train_steps(bundle, bank, run, stop_step=100, opt=opt)
    shutil.copy(ckpt, tmp_path / "step100.divc")
    training.train_steps(bundle, bank, run, start_step=100, stop_step=150,
                         opt=opt, metrics=metrics)
    assert len(read_metrics(run)[1]) == 150
    starts, train_steps = [], training.train_steps

    def spy(*args, start_step, **kw):
        starts.append(start_step)
        return train_steps(*args, start_step=start_step, **kw)

    monkeypatch.setattr(training, "train_steps", spy)
    resumed = training.train(cfg, run, base_ckpt=base,
                             resume=str(tmp_path / "step100.divc"))
    assert starts == [100]   # steps 1..100 come from the checkpoint, not a rerun

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
def test_missing_block_raises_checkpoint_error(trained, tmp_path, prefix):
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    dropped = next(k for k in state.arrays if k.startswith(prefix))
    del state.arrays[dropped]
    save_checkpoint(tmp_path / "ckpt.divc", state)
    with pytest.raises(CheckpointError, match=f"missing block '{dropped}'"):
        training.train(cfg, tmp_path / "run", resume=str(tmp_path / "ckpt.divc"))
    if prefix in ("param/", "gate/"):
        with pytest.raises(CheckpointError, match=f"missing block '{dropped}'"):
            training.restore_bundle(tmp_path / "ckpt.divc")


def test_checkpoint_without_config_text_raises(trained, tmp_path):
    # a checkpoint with no config text may not load as some config, whether
    # restored, adapted or resumed
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    del state.meta["config_text"]
    path = tmp_path / "textless.divc"
    save_checkpoint(path, state)
    acfg = cfg.replace(mode="adapt_frozen", adapt_n_tailor=2, adapt_top_k=1)
    with pytest.raises(CheckpointError, match="no config text"):
        training.restore_bundle(path)
    with pytest.raises(CheckpointError, match="no config text"):
        training.build_adapt_bundle(acfg, path)
    with pytest.raises(CheckpointError, match="no config text"):
        training.train(cfg, tmp_path / "resumed", resume=path)


@pytest.mark.parametrize("mode", ["diversion", "adapt_frozen"])
def test_wrongly_shaped_param_block_raises_checkpoint_error(trained, tmp_path, mode):
    cfg, ckpt = trained
    if MODES[mode].needs_base:
        # the adaptation reads its frozen base blocks from the base checkpoint
        acfg = cfg.replace(mode=mode, adapt_n_tailor=2, adapt_top_k=1)
        path, key, build = ckpt, "param/br.l0.fw_q.u_g", (
            lambda p: training.build_adapt_bundle(acfg, p))
    else:
        path, key, build = ckpt, "param/den.l0.wq", training.restore_bundle
    state = load_checkpoint(path)
    state.arrays[key] = state.arrays[key][:-1]
    save_checkpoint(tmp_path / "ckpt.divc", state)
    with pytest.raises(CheckpointError, match=f"block '{key}' shape"):
        build(tmp_path / "ckpt.divc")


@pytest.mark.parametrize("key", ["gate/balance_bias", "gate/usage", "opt/t",
                                 "metrics/cond_ema", "metrics/cond_seen"])
def test_wrongly_shaped_state_block_fails_before_the_run_starts(trained, tmp_path, key):
    # restore and resume check the shape of every block they read, so a cut
    # block is named before the run directory is made
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    state.arrays[key] = state.arrays[key][:-1]
    save_checkpoint(tmp_path / "ckpt.divc", state)
    with pytest.raises(CheckpointError, match=f"block '{key}' shape"):
        training.train(cfg, tmp_path / "run", resume=str(tmp_path / "ckpt.divc"))
    assert not os.path.exists(tmp_path / "run")
    if key.startswith("gate/"):
        with pytest.raises(CheckpointError, match=f"block '{key}' shape"):
            training.restore_bundle(tmp_path / "ckpt.divc")


@pytest.mark.parametrize("mode", ["diversion", "adapt_frozen"])
def test_checkpoint_blocks_come_in_a_pinned_order_and_dtype(trained, tmp_path, mode):
    # the layout bundle_state writes, and the state a resume reads back in
    # the dtypes a fresh run holds it in
    base = trained[1] if MODES[mode].needs_base else None
    cfg = trained[0].replace(mode=mode, adapt_steps=3, adapt_images=4,
                             adapt_n_tailor=2, adapt_top_k=1)
    bundle = (training.build_adapt_bundle(cfg, base) if base
              else training._bundle(cfg, fresh))
    ckpt, metrics = training.train_steps(bundle, training._image_bank(bundle), tmp_path,
                                         opt=training._new_optimizer(bundle))
    f64, i64 = np.dtype(np.float64), np.dtype(np.int64)
    want = [("param/" + name, f64) for name in bundle.params()]
    want += [(f"opt/{moment}/{name}", f64) for name in bundle.trainable_params()
             for moment in ("m", "v")]
    want += [("opt/t", i64), ("gate/balance_bias", f64), ("gate/usage", i64),
             ("metrics/cond_ema", f64), ("metrics/cond_seen", i64)]
    state = load_checkpoint(ckpt)
    assert [(name, arr.dtype) for name, arr in state.arrays.items()] == want
    assert list(state.meta) == ["config_text"]

    def dtypes(bundle, metrics):
        gate = bundle.gate
        return [a.dtype for a in (gate.balance_bias, gate.usage_count,
                                  metrics.cond_ema, metrics.cond_seen)]

    resumed, _, _, resumed_metrics = training._resumed(cfg, ckpt)
    assert dtypes(resumed, resumed_metrics) == dtypes(bundle, metrics)


@pytest.mark.parametrize("key", ["metrics/cond_ema", "metrics/cond_seen"])
def test_resume_without_metrics_block_raises_checkpoint_error(trained, tmp_path, key):
    cfg, ckpt = trained
    state = load_checkpoint(ckpt)
    del state.arrays[key]
    save_checkpoint(tmp_path / "ckpt.divc", state)
    with pytest.raises(CheckpointError, match=key):
        training.train(cfg, tmp_path / "run", resume=str(tmp_path / "ckpt.divc"))


def test_train_steps_rejects_a_stop_before_its_start(tmp_path):
    # a call that runs no step must not save start_step's weights as a
    # later or earlier step, or a resume would replay steps on them
    cfg = micro_config(0).replace(steps=50)
    bundle = training._bundle(cfg, fresh)
    bank, opt = training._image_bank(bundle), training._new_optimizer(bundle)
    _, metrics = training.train_steps(bundle, bank, tmp_path, opt=opt)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for start, stop in ((50, 10), (60, None)):
        with pytest.raises(ContractError):
            training.train_steps(bundle, bank, tmp_path, start_step=start,
                                 stop_step=stop, opt=opt, metrics=metrics)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
    # a stop equal to the start saves the step the weights are at
    training.train_steps(bundle, bank, tmp_path, start_step=50, opt=opt, metrics=metrics)
    assert (tmp_path / "checkpoint.divc").read_bytes() == files["checkpoint.divc"]


@pytest.mark.parametrize("loss_name", ["diffusion_loss", "repa_loss"])
def test_non_finite_logged_loss_stops_the_run(tmp_path, monkeypatch, loss_name):
    # a NaN loss makes l_total NaN even at lambda_repa = 0 (NaN * 0 is NaN);
    # the guard must fire on either loss, and the abandoned step be freed
    loss = getattr(training, loss_name)
    monkeypatch.setattr(training, loss_name, lambda *a: T.mul(loss(*a), np.nan))
    cfg = micro_config(0).replace(steps=3, lambda_repa=0.0)
    try:
        with pytest.raises(NumericError):
            training.train(cfg, tmp_path)
        assert T.tape_size() == 0   # the abandoned step's nodes are freed
    finally:
        T.clear_tape()
    assert os.path.exists(tmp_path / "nan-snapshot-step1.divc")


def test_resume_from_nan_snapshot_matches_straight_run(tmp_path, monkeypatch):
    # the snapshot of a step that fails holds the state before that step,
    # as a straight run's checkpoint of the step before holds it, and a
    # resume from it reruns the failed step without counting its routing twice
    cfg = micro_config(0).replace(steps=6)
    straight = training.train(cfg, tmp_path / "straight")
    bundle = training._bundle(cfg, fresh)
    at_3, _ = training.train_steps(bundle, training._image_bank(bundle),
                                   tmp_path / "stopped", stop_step=3,
                                   opt=training._new_optimizer(bundle))

    calls, loss = [], training.diffusion_loss

    def nan_at_step_4(*args):
        calls.append(None)
        return T.mul(loss(*args), np.nan) if len(calls) == 4 else loss(*args)

    run = tmp_path / "failed"
    with monkeypatch.context() as mp:
        mp.setattr(training, "diffusion_loss", nan_at_step_4)
        with pytest.raises(NumericError, match="step 4"):
            training.train(cfg, run)
    snapshot = run / "nan-snapshot-step4.divc"
    a, b = load_checkpoint(at_3), load_checkpoint(snapshot)
    assert a.step == b.step == 3
    assert list(a.arrays) == list(b.arrays)
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key
        assert a.arrays[key].dtype == b.arrays[key].dtype, key

    resumed = training.train(cfg, run, resume=str(snapshot))
    assert Path(resumed).read_bytes() == Path(straight).read_bytes()
    assert (run / "metrics.csv").read_text() == \
        (tmp_path / "straight" / "metrics.csv").read_text()


def test_logged_l_total_is_l_diff_plus_weighted_l_repa(tmp_path):
    for lam in (0.05, 0.0):
        run = tmp_path / f"lambda{lam}"
        training.train(micro_config(0).replace(steps=5, lambda_repa=lam), run)
        header, rows = read_metrics(run)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            l_diff, l_repa = row[col["l_diff"]], row[col["l_repa"]]
            assert row[col["l_total"]] == l_diff + lam * l_repa


def test_alignment_head_only_decays_at_lambda_zero(tmp_path):
    # at lambda_repa = 0 the alignment loss enters l_total with weight 0, so
    # its head gets exact-zero gradients: AdamW's moments stay zero and only
    # the decoupled weight decay moves the parameters
    cfg = micro_config(0).replace(steps=40, dropout=0.1, lambda_repa=0.0)
    init = training.build_diversion_bundle(cfg).params()
    state = load_checkpoint(training.train(cfg, tmp_path))
    names = [name for name in init if name.startswith("repa.")]
    assert names
    for name in names:
        expected = init[name].data.copy()
        for s in range(cfg.steps):
            expected *= 1.0 - cfg.lr_at(s) * cfg.weight_decay
        assert np.array_equal(state.arrays["param/" + name], expected), name
        assert not state.arrays["opt/m/" + name].any(), name
        assert not state.arrays["opt/v/" + name].any(), name


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_alignment_head_is_taped_only_when_weighted(monkeypatch, lam):
    # at lambda_repa = 0 the head's nodes would carry exact zeros, so it is
    # evaluated off the tape and its parameters get no gradient at all
    monkeypatch.setattr(gradcheck, "micro_config",
                        lambda seed: micro_config(seed).replace(lambda_repa=lam))
    loss, params = gradcheck.build_e2e_case()
    head = [p for name, p in params.items() if name.startswith("repa.")]
    assert head
    T.clear_tape()
    l_total = loss()
    taped = {id(t) for _, inputs, _ in T._TAPE.nodes for t in inputs}
    assert any(id(p) in taped for p in head) == (lam > 0)
    T.backward(l_total)
    assert all((p.grad is None) == (lam == 0) for p in head)


def test_adaptation_needs_a_diversion_base_and_scratch_mode(trained, tmp_path):
    cfg, ckpt = trained
    acfg = cfg.replace(mode="adapt_frozen", adapt_steps=2, adapt_images=4,
                       adapt_n_tailor=2, adapt_top_k=1)
    adapted = training.train(acfg, tmp_path / "adapt", base_ckpt=ckpt)
    with pytest.raises(ContractError, match="diversion-mode base"):
        training.build_adapt_bundle(acfg, adapted)
    # a base checkpoint is given exactly when mode = adapt_frozen
    for mode, base in [("diversion", ckpt), ("scratch", ckpt), ("adapt_frozen", None)]:
        with pytest.raises(ContractError, match=f"mode is {mode}"):
            training.train(acfg.replace(mode=mode), tmp_path / mode, base_ckpt=base)
        assert not os.path.exists(tmp_path / mode)


def test_adaptation_refuses_a_config_that_reshapes_the_base(trained, tmp_path):
    # the adaptation checkpoint stores only its own config, and the frozen
    # base is rebuilt from it, so a different n_learngene could never be read
    cfg, ckpt = trained
    acfg = cfg.replace(mode="adapt_frozen", n_learngene=6, adapt_steps=2,
                       adapt_images=4, adapt_n_tailor=2, adapt_top_k=1)
    with pytest.raises(ContractError, match="n_learngene = 6 .base: 4."):
        training.train(acfg, tmp_path / "adapt", base_ckpt=ckpt)
    assert not os.path.exists(tmp_path / "adapt" / "checkpoint.divc")


def test_sweep_checks_every_cell_before_training_any(tmp_path):
    # repa_layer 9 exceeds the micro config's one branch layer
    cfg = micro_config(0).replace(steps=2)
    with pytest.raises(ConfigError, match="repa_layer"):
        training.sweep_repa(cfg, [1, 9], [0.0], tmp_path / "sweep")
    assert not list(tmp_path.glob("sweep/depth*"))


def test_summary_is_rewritten_from_the_current_run_only(tmp_path):
    # a 0-step run into the directory of a 3-step run leaves a header-only
    # metrics.csv, and its summary keeps nothing of the earlier run
    training.train(micro_config(0).replace(steps=3), tmp_path)
    cfg = micro_config(1).replace(steps=0)
    training.train(cfg, tmp_path)
    assert read_metrics(tmp_path)[1] == []
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not {"steps_recorded", "final", "final_100_mean_l_diff"} & set(summary)
    assert summary["config_digest"] == config_digest(cfg).hex()
