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

from divcontrol import training
from divcontrol.checkpoint import load_checkpoint
from divcontrol.config import CONFIG_KEYS, config_digest, resolve_config, resolved_text
from divcontrol.rng import fresh
from divcontrol.runio import read_metrics
from divcontrol.verify import micro_config

STEPS = 105        # past the step-100 checkpoint, so first and last 100 differ
ADAPT_STEPS = 20

REF = {
    "diversion_last_l_total": 1.231702318963048,
    "diversion_mean_l_total": 1.6510215878358396,
    "adapt_last_l_total": 1.4175782981640108,
    "adapt_mean_l_total": 1.2969080683743779,
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
    digest = load_checkpoint(ckpt_path).config_digest
    text = (run_dir / "resolved-config.txt").read_text()
    assert config_digest(resolve_config(text)) == digest
    summary = json.loads((run_dir / "summary.json").read_text())
    assert bytes.fromhex(summary["config_digest"]) == digest


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Train in the three modes and keep the bundle each run trained."""
    root = tmp_path_factory.mktemp("runs")
    trained = {}
    train_steps = training.train_steps

    def spy(bundle, bank, out_dir, **kw):
        trained[os.path.basename(out_dir)] = bundle
        return train_steps(bundle, bank, out_dir, **kw)

    cfg = micro()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "train_steps", spy)
        ckpt = {"diversion": training.train(cfg, root / "diversion")}
        ckpt["adapt"] = training.train(cfg.replace(mode="adapt_frozen"),
                                       root / "adapt", base_ckpt=ckpt["diversion"])
        ckpt["scratch"] = training.train(cfg.replace(mode="scratch"), root / "scratch")
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


@pytest.mark.parametrize("name, mode", [("adapt", "adapt_frozen"),
                                        ("scratch", "scratch")])
def test_adaptation_runs_trajectory_and_run_files(runs, name, mode):
    root, ckpt, _ = runs
    l_total = column(root / name, "l_total")
    assert len(l_total) == ADAPT_STEPS
    assert_pinned(l_total[-1], REF[f"{name}_last_l_total"])
    assert_pinned(float(np.mean(l_total)), REF[f"{name}_mean_l_total"])
    # the run directory keeps the configuration as given, steps included
    assert (root / name / "resolved-config.txt").read_text() == \
        resolved_text(micro(mode=mode))
    assert load_checkpoint(ckpt[name]).step == ADAPT_STEPS
    assert_one_config(root / name, ckpt[name])


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
    assert np.array_equal(bundle.gate.batch_count, ref.gate.batch_count)


def no_svd(*args, **kwargs):
    raise AssertionError("a checkpointed weight was factorized again")


@pytest.mark.parametrize("name", ["diversion", "adapt", "scratch"])
def test_restore_bundle_matches_trained_bundle(runs, name, tmp_path, monkeypatch):
    # restoring, resuming and adapting take every parameter from a
    # checkpoint or a fresh draw, and factorize no weight
    _, ckpt, trained = runs
    cfg = micro(mode={"adapt": "adapt_frozen"}.get(name, name))
    base = ckpt["diversion"] if name == "adapt" else None
    adapter_init = training._bundle(cfg, fresh) if name == "adapt" else None
    monkeypatch.setattr(np.linalg, "svd", no_svd)

    assert_same_bundle(training.restore_bundle(ckpt[name]), trained[name])

    # resuming at the last step trains nothing and rewrites the checkpoint
    resumed, train_steps = [], training.train_steps

    def spy(bundle, bank, out_dir, **kw):
        resumed.append((bundle, kw["opt"]))
        return train_steps(bundle, bank, out_dir, **kw)

    monkeypatch.setattr(training, "train_steps", spy)
    out = training.train(cfg, tmp_path / "resumed", base_ckpt=base, resume=ckpt[name])
    (bundle, opt), = resumed
    assert_same_bundle(bundle, trained[name])
    state = load_checkpoint(ckpt[name])
    for key in opt.params:
        assert np.array_equal(opt.m[key], state.arrays["opt/m/" + key]), key
        assert np.array_equal(opt.v[key], state.arrays["opt/v/" + key]), key
    assert Path(out).read_bytes() == Path(ckpt[name]).read_bytes()

    if name == "adapt":
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
    before = [gate.balance_bias.copy(), gate.usage_count.copy(), gate.batch_count.copy()]
    coeffs = training.zero_shot_route(bundle, "sobel edge outline")
    assert coeffs.active_set == REF["route_active_set"]
    for value, ref in zip(coeffs.g.data, REF["route_g"], strict=True):
        assert_pinned(float(value), ref)
    # routing a novel instruction updates nothing
    after = [gate.balance_bias, gate.usage_count, gate.batch_count]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


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
