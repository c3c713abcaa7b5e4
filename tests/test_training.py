"""Characterization tests of the training entry points at micro scale.

The pinned numbers were recorded before ``training.py`` was reduced to one
bundle build path and one run path. They hold to the benchmark's
tolerance, 1e-12 + 1e-8 * |ref|, and any change to the loss trajectory
shows up here.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol import training
from divcontrol.checkpoint import load_checkpoint
from divcontrol.config import (
    CONFIG_KEYS,
    MODES,
    config_digest,
    resolve_config,
    resolved_text,
)
from divcontrol.errors import ConfigError
from divcontrol.gradcheck import micro_config
from divcontrol.rng import fresh
from divcontrol.runio import read_metrics

STEPS = 105        # past the step-100 checkpoint, so first and last 100 differ
ADAPT_STEPS = 20

REF = {
    "diversion_last_l_total": 1.231702318963048,
    "diversion_mean_l_total": 1.6510215878358396,
    "adapt_frozen_last_l_total": 1.4175782981640108,
    "adapt_frozen_mean_l_total": 1.2969080683743779,
    "scratch_last_l_total": 2.790669743123352,
    "scratch_mean_l_total": 2.747041247253612,
    "route_active_set": (0, 1),
    "route_g": [0.26654310572831064, 0.2549300697788221, 0.0, 0.0],
    "ablation": {
        "neither": {"first_100_mean_l_diff": 1.6255784578379544,
                    "final_100_mean_l_diff": 1.5474272067344037,
                    "eval_l_diff": 0.9234005535960759,
                    "eval_aligned_cosine": 0.07139174238691728,
                    "eval_ssim": 0.017118669387331358,
                    "eval_encoder_sim": 0.032989545438062734},
        "diversion_only": {"first_100_mean_l_diff": 1.7190323322374652,
                           "final_100_mean_l_diff": 1.6441446655307188,
                           "eval_l_diff": 1.0143744549870761,
                           "eval_aligned_cosine": 0.22455331181746818,
                           "eval_ssim": 0.019632349352141008,
                           "eval_encoder_sim": 0.05211890832385115},
        "both": {"first_100_mean_l_diff": 1.69792570051538,
                 "final_100_mean_l_diff": 1.6225510098068676,
                 "eval_l_diff": 0.9868061814743354,
                 "eval_aligned_cosine": 0.6280115798869158,
                 "eval_ssim": 0.016670695973442118,
                 "eval_encoder_sim": 0.053080808449712816},
    },
    "sweep_final_100_mean_l_diff": 1.6301206477019596,
    "sweep_eval_aligned_cosine": 0.6457196852071366,
}


def micro(**kw):
    return micro_config(0).replace(
        steps=STEPS, eval_samples=4, adapt_steps=ADAPT_STEPS, adapt_images=4,
        adapt_n_tailor=2, adapt_top_k=1, **kw)


def assert_pinned(value, ref):
    assert abs(value - ref) <= 1e-12 + 1e-8 * abs(ref), (value, ref)


def column(run_dir, name):
    header, rows = read_metrics(run_dir)
    return [row[header.index(name)] for row in rows]


def assert_one_config(run_dir, ckpt_path):
    # the checkpoint, resolved-config.txt and summary.json record one config
    stored = load_checkpoint(ckpt_path).meta["config_text"]
    digest = config_digest(resolve_config(stored))
    text = (run_dir / "resolved-config.txt").read_text()
    assert config_digest(resolve_config(text)) == digest
    summary = json.loads((run_dir / "summary.json").read_text())
    assert bytes.fromhex(summary["config_digest"]) == digest


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Train in every mode, into a directory named after it (diversion
    first, as the adaptation's base), and keep the bundle each run trained."""
    root = tmp_path_factory.mktemp("runs")
    trained = {}
    train_steps = training.train_steps

    def spy(bundle, bank, out_dir, **kw):
        trained[os.path.basename(out_dir)] = bundle
        return train_steps(bundle, bank, out_dir, **kw)

    ckpt = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "train_steps", spy)
        for mode, run in MODES.items():
            base = ckpt["diversion"] if run.needs_base else None
            ckpt[mode] = training.train(micro(mode=mode), root / mode, base_ckpt=base)
    return root, ckpt, trained


def test_train_diversion_trajectory_and_run_files(runs):
    root, ckpt, _ = runs
    l_total = column(root / "diversion", "l_total")
    assert len(l_total) == STEPS
    assert_pinned(l_total[-1], REF["diversion_last_l_total"])
    assert_pinned(float(np.mean(l_total)), REF["diversion_mean_l_total"])
    assert (root / "diversion" / "resolved-config.txt").read_text() == resolved_text(micro())
    assert load_checkpoint(ckpt["diversion"]).step == STEPS
    assert_one_config(root / "diversion", ckpt["diversion"])


@pytest.mark.parametrize("mode", [m for m, run in MODES.items() if run.adapts])
def test_adaptation_runs_trajectory_and_run_files(runs, mode):
    root, ckpt, _ = runs
    l_total = column(root / mode, "l_total")
    assert len(l_total) == ADAPT_STEPS
    assert_pinned(l_total[-1], REF[f"{mode}_last_l_total"])
    assert_pinned(float(np.mean(l_total)), REF[f"{mode}_mean_l_total"])
    # the run directory keeps the configuration as given, steps included
    assert (root / mode / "resolved-config.txt").read_text() == \
        resolved_text(micro(mode=mode))
    assert load_checkpoint(ckpt[mode]).step == ADAPT_STEPS
    assert_one_config(root / mode, ckpt[mode])


def assert_same_bundle(bundle, ref):
    assert bundle.cfg == ref.cfg
    assert [s.condition_id for s in bundle.specs] == [s.condition_id for s in ref.specs]
    assert list(bundle.params()) == list(ref.params())
    for key, t in ref.params().items():
        restored = bundle.params()[key]
        assert np.array_equal(restored.data, t.data), key
        assert restored.requires_grad == t.requires_grad, key
    assert list(bundle.trainable_params()) == list(ref.trainable_params())
    assert np.array_equal(bundle.gate.balance_bias, ref.gate.balance_bias)
    assert np.array_equal(bundle.gate.usage_count, ref.gate.usage_count)


def no_svd(*args, **kwargs):
    raise AssertionError("a checkpointed weight was factorized again")


@pytest.mark.parametrize("mode", MODES)
def test_restore_bundle_matches_trained_bundle(runs, mode, tmp_path, monkeypatch):
    # restoring, resuming and adapting take every parameter from a
    # checkpoint or a fresh draw, and factorize no weight
    _, ckpt, trained = runs
    cfg = micro(mode=mode)
    base = ckpt["diversion"] if MODES[mode].needs_base else None
    adapter_init = training._bundle(cfg, fresh) if base else None
    monkeypatch.setattr(np.linalg, "svd", no_svd)

    assert_same_bundle(training.restore_bundle(ckpt[mode]), trained[mode])

    # resuming at the last step trains nothing and rewrites the checkpoint
    resumed, train_steps = [], training.train_steps

    def spy(bundle, bank, out_dir, **kw):
        resumed.append((bundle, kw["opt"]))
        return train_steps(bundle, bank, out_dir, **kw)

    monkeypatch.setattr(training, "train_steps", spy)
    out = training.train(cfg, tmp_path / "resumed", base_ckpt=base, resume=ckpt[mode])
    (bundle, opt), = resumed
    assert_same_bundle(bundle, trained[mode])
    state = load_checkpoint(ckpt[mode])
    for key in opt.params:
        assert np.array_equal(opt.m[key], state.arrays["opt/m/" + key]), key
        assert np.array_equal(opt.v[key], state.arrays["opt/v/" + key]), key
    assert Path(out).read_bytes() == Path(ckpt[mode]).read_bytes()

    if base:
        # the frozen base is the trained diversion bundle's, the adapter
        # what a fresh adaptation bundle draws
        bundle = training.build_adapt_bundle(cfg, base)
        div = trained["diversion"].params()
        for key, t in adapter_init.params().items():
            if not t.requires_grad:
                t.data = div[key].data
        assert_same_bundle(bundle, adapter_init)


@pytest.mark.parametrize("source", ["fresh", "adapt", "loaded"])
def test_optimizer_arrays_share_no_memory(runs, source):
    # AdamW updates parameters and moments in place, so two trainable
    # tensors that share memory would receive each other's updates, and a
    # restored one must not be a view of the checkpoint file's bytes
    _, ckpt, _ = runs
    if source == "adapt":
        bundle = training.build_adapt_bundle(micro(mode="adapt_frozen"), ckpt["diversion"])
        opt = training._new_optimizer(bundle)
    elif source == "loaded":
        bundle, _, opt, _ = training._resumed(micro(), ckpt["diversion"])
    else:
        bundle = training.build_diversion_bundle(micro())
        opt = training._new_optimizer(bundle)
    arrays = [(f"param/{k}", p.data) for k, p in opt.params.items()]
    arrays += [(f"opt/m/{k}", a) for k, a in opt.m.items()]
    arrays += [(f"opt/v/{k}", a) for k, a in opt.v.items()]
    assert list(opt.params) == list(bundle.trainable_params())
    for i, (name_a, a) in enumerate(arrays):
        assert a.flags.owndata and a.flags.writeable, name_a
        for name_b, b in arrays[i + 1:]:
            assert not np.shares_memory(a, b), (name_a, name_b)


def test_zero_shot_route_pinned(runs):
    _, ckpt, _ = runs
    bundle = training.restore_bundle(ckpt["diversion"])
    gate = bundle.gate
    before = [gate.balance_bias.copy(), gate.usage_count.copy()]
    g, active = training.zero_shot_route(bundle, "sobel edge outline")
    assert active == REF["route_active_set"]
    for value, ref in zip(g.data[0], REF["route_g"], strict=True):
        assert_pinned(float(value), ref)
    # routing a novel instruction updates nothing
    after = [gate.balance_bias, gate.usage_count]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_evaluation_between_train_steps_calls_leaves_the_run_files_unchanged(tmp_path):
    # evaluate_bundle and zero_shot_route route the live bundle mid-run; the
    # run's metrics.csv and checkpoint.divc stay byte-equal to a straight run's
    cfg = micro_config(0).replace(steps=6)

    def run(out, evaluate):
        bundle = training.build_diversion_bundle(cfg)
        bank, opt = training._image_bank(bundle), training._new_optimizer(bundle)
        if evaluate:
            _, metrics = training.train_steps(bundle, bank, out, stop_step=3, opt=opt)
            training.evaluate_bundle(bundle, n_samples=4)
            training.zero_shot_route(bundle, "a novel swirl pattern")
            training.train_steps(bundle, bank, out, start_step=3, opt=opt, metrics=metrics)
        else:
            training.train_steps(bundle, bank, out, opt=opt)
        return [(out / f).read_bytes() for f in ("metrics.csv", "checkpoint.divc")]

    assert run(tmp_path / "evaluated", True) == run(tmp_path / "straight", False)


def test_ablation_arms_draw_identical_batches():
    # the arms differ only in keys _build_batch does not read, so each arm
    # trains on the same batch sequence
    cfg = micro()
    arms = training.ablation_arms(cfg)
    for arm_cfg in arms.values():
        differ = {k for k in CONFIG_KEYS if getattr(arm_cfg, k) != getattr(cfg, k)}
        assert differ <= {"lambda_repa", "n_learngene", "n_tailor", "top_k"}
    draws = []
    for arm_cfg in arms.values():
        bank = training._image_bank(training.build_diversion_bundle(arm_cfg))
        batches = [training._build_batch(bank, arm_cfg.batch_size, arm_cfg.seed, s)
                   for s in range(3)]
        draws.append([(b.image_idx.tobytes(), b.cond_idx.tobytes()) for b in batches])
    assert all(d == draws[0] for d in draws[1:])


def test_train_steps_saves_each_checkpoint_once(tmp_path, monkeypatch):
    # a call that stops on a multiple of 100 saves that step in the loop,
    # and not a second time after it
    saved, save = [], training.save_checkpoint

    def spy(path, state):
        saved.append(state.step)
        return save(path, state)

    monkeypatch.setattr(training, "save_checkpoint", spy)
    bundle = training.build_diversion_bundle(micro())
    bank = training._image_bank(bundle)
    for stop in (101, 100):
        training.train_steps(bundle, bank, tmp_path / str(stop), start_step=99,
                             stop_step=stop)
    assert saved == [100, 101, 100]


def test_inactive_tailor_columns_drift_only_by_adamw_state(tmp_path, monkeypatch):
    # no gradient reaches a tailor column the batch did not route to, yet
    # AdamW still moves it: decoupled decay scales it by (1 - lr * wd), and a
    # column that was active on the previous step keeps moving on its
    # momentum while its moments decay by beta1 and beta2
    cfg = micro_config(0).replace(n_tailor=8, steps=2)
    bundle = training.build_diversion_bundle(cfg)
    bank = training._image_bank(bundle)
    opt = training._new_optimizer(bundle)
    actives, routing_rows = [], training._routing_rows

    def spy(*args, **kw):
        rows, load = routing_rows(*args, **kw)
        actives.append(np.flatnonzero(load).tolist())
        return rows, load

    monkeypatch.setattr(training, "_routing_rows", spy)
    _, metrics = training.train_steps(bundle, bank, tmp_path, stop_step=1, opt=opt)
    names = [n for n in opt.params if n.endswith((".u_t", ".s_t", ".v_t"))]
    before = {n: (opt.params[n].data.copy(), opt.m[n].copy(), opt.v[n].copy())
              for n in names}
    training.train_steps(bundle, bank, tmp_path, start_step=1, opt=opt, metrics=metrics)
    assert actives == [[0, 1], [2, 3]]
    lr, wd, eps = cfg.lr_at(1), cfg.weight_decay, cfg.adam_eps
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for n in names:
        data, m, v = (a[..., [0, 1]] for a in before[n])
        assert np.abs(m).max() > 0, n  # active on step 0
        m, v = m * b1, v * b2
        data = data * (1.0 - lr * wd) - m / (1.0 - b1 ** 2) * lr / (
            np.sqrt(v / (1.0 - b2 ** 2)) + eps)
        for got, want in zip((opt.params[n].data, opt.m[n], opt.v[n]), (data, m, v)):
            assert np.array_equal(got[..., [0, 1]], want), n
        # never active: decay alone, moments still exactly zero
        data, m, v = (a[..., 4:] for a in before[n])
        assert not m.any() and not v.any(), n
        assert np.array_equal(opt.params[n].data[..., 4:], data * (1.0 - lr * wd)), n
        assert not opt.m[n][..., 4:].any() and not opt.v[n][..., 4:].any(), n


def test_neither_arm_runs_empty_tailor_blocks():
    # the arm without diversion has no tailors: it routes every item to an
    # empty coefficient row, the mask pass finds nothing to clear, and the
    # gate's hidden layer gets an exactly zero gradient
    cfg = training.ablation_arms(micro())["neither"]
    bundle = training.build_diversion_bundle(cfg)
    batch = training._build_batch(training._image_bank(bundle), cfg.batch_size,
                                  cfg.seed, 0)
    gen = np.random.default_rng(0)
    rows, load = training._routing_rows(bundle, batch.cond_idx)
    assert rows.shape == (cfg.batch_size, 1, 0) and load.shape == (0,)
    T.backward(training._objective(
        bundle, batch.x, batch.x_cond, gen.integers(0, cfg.timesteps, cfg.batch_size),
        gen.standard_normal(batch.x.shape), rows)[2])
    for fw in bundle.branch.factorized_weights():
        assert training.masked_gradient_apply(fw, load) == 0.0
    for t in (bundle.gate.w1, bundle.gate.b1):
        assert t.grad is not None and np.array_equal(t.grad, np.zeros_like(t.grad))


def _param_shapes(cfg):
    return {name: t.shape for name, t in
            training.build_diversion_bundle(cfg).params().items()}


def test_base_shape_keys_are_the_keys_that_reshape_a_diversion_bundle():
    # adaptation compares the _BASE_SHAPE_KEYS with its base's, so a key
    # missing from that hand-kept list would let a base of another shape
    # through. From a micro config in which every key but the mode (the
    # only diversion mode) can move, two layers each so that
    # controlnet_layers can fall, each key takes its first valid new value
    cfg = micro_config(0).replace(layers=2, controlnet_layers=2)
    shapes = _param_shapes(cfg)
    reshaping, unmoved = set(), []
    for key in CONFIG_KEYS.keys() - {"mode"}:
        value = getattr(cfg, key)
        if isinstance(value, str):     # adapt_condition
            candidates = ["checker"]
        elif isinstance(value, tuple):
            candidates = [value + (value[-1] + 1,)]
        elif isinstance(value, float):
            candidates = [value / 2, 0.25]
        else:
            candidates = [value + 1, 2 * value, value - 1]
        for moved in candidates:
            if moved == value:
                continue
            try:
                moved_cfg = cfg.replace(**{key: moved})
            except ConfigError:
                continue
            if _param_shapes(moved_cfg) != shapes:
                reshaping.add(key)
            break
        else:
            unmoved.append(key)
    assert unmoved == []
    assert reshaping == set(training._BASE_SHAPE_KEYS)


@pytest.mark.parametrize("n", [3, 11])
def test_evaluate_bundle_condition_stack(n, monkeypatch):
    # item i is image i under condition i % len(specs), for n below and above
    # the number of conditions
    cfg = micro()
    bundle = training.build_diversion_bundle(cfg)
    seen = []
    objective = training._objective

    def spy(bundle, x, x_cond, *args):
        seen.append((x.copy(), x_cond.copy()))
        return objective(bundle, x, x_cond, *args)

    monkeypatch.setattr(training, "_objective", spy)
    training.evaluate_bundle(bundle, n_samples=n, sample_images=False)
    bank = training.DatasetBank(cfg.seed, n, bundle.specs, cfg.image_size,
                                image_stream="eval")
    expected = np.stack([bank.condition_images(i % len(bundle.specs))[i]
                         for i in range(n)])
    (x, x_cond), = seen
    assert len(bundle.specs) < 11 and x.tobytes() == bank.images.tobytes()
    assert x_cond.tobytes() == expected.tobytes()


def test_untaped_gelu_keeps_eval_metrics_of_the_exact_cube(monkeypatch):
    # evaluation runs under no_grad, so its GELU takes x * x * x; no
    # benchmark reference sees the branch (inj_w starts at zero), so this
    # holds the metrics with live injections to the x ** 3 path's
    bundle = training.build_diversion_bundle(micro())
    gen = np.random.default_rng(5)
    for blk in bundle.branch.blocks:
        blk["inj_w"].data = 0.3 * gen.standard_normal(blk["inj_w"].shape)
    plain = training.evaluate_bundle(bundle)
    gelu_arg = T._gelu_arg
    monkeypatch.setattr(T, "_gelu_arg", lambda cube, x: gelu_arg(x ** 3, x))
    exact = training.evaluate_bundle(bundle)
    assert plain != exact  # the two cubes do differ here
    for key, value in exact.items():
        assert abs(plain[key] - value) <= 1e-12 * abs(value), key


def test_run_ablation_pinned(tmp_path):
    report = training.run_ablation(micro(), tmp_path)
    assert set(report["arms"]) == set(REF["ablation"])
    for arm, ref in REF["ablation"].items():
        assert report["arms"][arm]["n_samples"] == 4
        for key, value in ref.items():
            assert_pinned(report["arms"][arm][key], value)


def test_sweep_repa_one_cell_pinned(tmp_path):
    report = training.sweep_repa(micro(), [1], [0.1], tmp_path)
    assert report["argmin_cell"] == "depth=1,lambda=0.1"
    cell = report["cells"]["depth=1,lambda=0.1"]
    assert_pinned(cell["final_100_mean_l_diff"], REF["sweep_final_100_mean_l_diff"])
    assert_pinned(cell["eval_aligned_cosine"], REF["sweep_eval_aligned_cosine"])
