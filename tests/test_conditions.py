import os

import numpy as np
import pytest

import condition_oracles as oracle
from divcontrol.conditions import (
    _BLOCK,
    NOVEL_LOW_SIBLINGS,
    Batch,
    DatasetBank,
    apply_condition,
    _build_batch,
    basic_conditions,
    default_registry,
    find_condition,
    metric_encoder_sim,
    metric_ssim,
    _patch_permutation,
    render_images,
)
from divcontrol.errors import ConfigError, ContractError

SEED = 21


def test_registry_shape():
    reg = default_registry()
    assert len(basic_conditions()) == 8
    lows = [c for c in reg if c.shift_class == "novel_low"]
    highs = [c for c in reg if c.shift_class == "novel_high"]
    assert len(lows) == 2 and len(highs) == 2
    # registries are disjoint by id
    ids = [c.condition_id for c in reg]
    assert len(set(ids)) == len(ids)
    # low-shift kinds are perturbed variants of basic kinds
    assert {c.transform_kind for c in lows} == {"edge_laplacian", "blur_box5"}
    # high-shift kinds never appear among basic kinds
    basic_kinds = {c.transform_kind for c in basic_conditions()}
    assert basic_kinds.isdisjoint({c.transform_kind for c in highs})
    for novel, sib in NOVEL_LOW_SIBLINGS.items():
        assert find_condition(novel).shift_class == "novel_low"
        assert find_condition(sib).shift_class == "basic"


def test_unknown_condition_and_kind_rejected():
    with pytest.raises(ConfigError):
        find_condition("no-such-condition")
    from divcontrol.conditions import ConditionSpec

    with pytest.raises(ConfigError):
        ConditionSpec("x", "x", "not_a_kind", "basic")


def test_generate_deterministic_and_in_range():
    a = render_images(SEED, 0, 8, 16, "image")
    b = render_images(SEED, 0, 8, 16, "image")
    assert a.tobytes() == b.tobytes()
    assert a.min() >= -1.0 and a.max() <= 1.0


@pytest.fixture(scope="module")
def oracle_banks():
    """Per-image oracle images and condition images, ``_BLOCK + 1`` per stream."""
    n, registry = _BLOCK + 1, default_registry()
    banks = {}
    for image_stream in ("image", "adapt-image", "eval"):
        images = [oracle.render_components(SEED, i, image_stream=image_stream)[0]
                  for i in range(n)]
        banks[image_stream] = (np.stack(images), [
            np.stack([oracle.apply_condition(img, spec) for img in images])
            for spec in registry])
    return banks


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("image_stream", ["image", "adapt-image", "eval"])
def test_bank_is_byte_equal_to_the_per_image_oracle(oracle_banks, image_stream, size):
    images, conditions = oracle_banks[image_stream]
    bank = DatasetBank(SEED, size, default_registry(), 16, image_stream=image_stream)
    assert bank.images.dtype == images.dtype
    assert bank.images.tobytes() == images[:size].tobytes()
    for c, expected in enumerate(conditions):
        got = bank.condition_images(c)
        assert got.shape == (size, 16, 16) and got.dtype == expected.dtype
        assert got.tobytes() == expected[:size].tobytes(), bank.specs[c].condition_id


def _filter_inputs(fill, n, size):
    rng = np.random.default_rng([n, size])
    if fill == "clipped":   # about a third of the pixels sit at exactly -1 or 1
        return np.clip(rng.normal(0.0, 1.0, (n, size, size)), -1.0, 1.0)
    if fill == "constant":  # Sobel and Laplacian responses are exact zeros
        values = rng.choice([-1.0, 1.0, 0.37, -1 / 3, *rng.uniform(-1, 1, 4)], n)
        return np.broadcast_to(values[:, None, None], (n, size, size)).copy()
    return np.full((n, size, size), {"zero": 0.0, "negative-zero": -0.0}[fill])


@pytest.mark.parametrize("fill", ["clipped", "constant", "zero", "negative-zero"])
@pytest.mark.parametrize("n", [1, _BLOCK + 1])
@pytest.mark.parametrize("size", [8, 12, 16])
def test_every_transform_is_byte_equal_to_the_per_image_oracle(fill, n, size):
    # the oracle's einsum fixes the summation order; stacks of each size
    # and of one image or more than a block, on inputs rendering never makes
    images = _filter_inputs(fill, n, size)
    for spec in default_registry():
        expected = np.stack([oracle.apply_condition(img, spec) for img in images])
        got = apply_condition(images, spec)
        assert got.shape == images.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), spec.condition_id


def test_apply_condition_rejects_a_single_image():
    with pytest.raises(ContractError, match=r"\(N, H, W\) stack"):
        apply_condition(np.zeros((16, 16)), find_condition("edge"))


def test_generate_rejects_bad_n():
    with pytest.raises(ContractError):
        DatasetBank(SEED, 0, basic_conditions(), 16)


def test_foreground_coverage_in_band():
    fracs = []
    for i in range(1000):
        img, bg = oracle.render_components(SEED, i)
        fracs.append((np.abs(img - bg) > 0.02).mean())
    mean = float(np.mean(fracs))
    assert 0.10 <= mean <= 0.60, mean


def test_sobel_on_constant_is_zero():
    spec = find_condition("edge")
    out = apply_condition(np.full((1, 16, 16), 0.37), spec)
    assert np.array_equal(out, np.zeros((1, 16, 16)))


def test_blur_preserves_mean_with_reflective_padding():
    rng = np.random.default_rng(1)
    img = rng.uniform(-1, 1, (1, 16, 16))
    for cid in ("blur", "blur-wide"):
        out = apply_condition(img, find_condition(cid))
        assert abs(out.mean() - img.mean()) < 1e-12


def test_pixelate_idempotent():
    rng = np.random.default_rng(2)
    img = rng.uniform(-1, 1, (1, 16, 16))
    spec = find_condition("pixel")
    once = apply_condition(img, spec)
    twice = apply_condition(once, spec)
    assert np.allclose(once, twice, atol=1e-15)


def test_all_transforms_stay_in_range_and_are_deterministic():
    rng = np.random.default_rng(3)
    img = rng.uniform(-1, 1, (1, 16, 16))
    for spec in default_registry():
        out1 = apply_condition(img, spec)
        out2 = apply_condition(img, spec)
        assert out1.shape == img.shape
        assert out1.min() >= -1.0 - 1e-12 and out1.max() <= 1.0 + 1e-12
        assert np.array_equal(out1, out2)


def test_mask_conditions_complementary_regions():
    img = np.ones((1, 16, 16))
    border = apply_condition(img, find_condition("outpaint"))[0]
    center = apply_condition(img, find_condition("window"))[0]
    assert border[8, 8] == 0.0 and border[0, 0] == 1.0
    assert center[8, 8] == 1.0 and center[0, 0] == 0.0


def test_shuffle_is_a_fixed_permutation():
    rng = np.random.default_rng(4)
    img = rng.uniform(-1, 1, (1, 16, 16))
    spec = find_condition("shuffle")
    out = apply_condition(img, spec)
    assert not np.array_equal(out, img)
    assert np.allclose(np.sort(out.ravel()), np.sort(img.ravel()))
    assert np.array_equal(out, apply_condition(img, spec))
    # one read-only permutation per (condition, patch count), drawn once
    perm = _patch_permutation("shuffle", 16)
    assert perm is _patch_permutation("shuffle", 16) and not perm.flags.writeable
    with pytest.raises(ValueError):
        perm[0] = perm[1]


def test_sample_record_regenerable():
    bank = DatasetBank(SEED, 16, basic_conditions(), 16)
    batch = _build_batch(bank, 4, SEED, 3)
    for i, c, x, x_cond in zip(batch.image_idx, batch.cond_idx, batch.x,
                               batch.x_cond):
        image = render_images(SEED, int(i), int(i) + 1, 16, "image")[0]
        assert np.array_equal(x, image)
        assert np.array_equal(x_cond, apply_condition(x[None], bank.specs[c])[0])


def test_build_batch_is_byte_equal_to_the_per_image_oracle(oracle_banks):
    # each condition transforms only its own items of the batch; the result
    # must not depend on which items share the call
    images, conditions = oracle_banks["image"]
    bank = DatasetBank(SEED, _BLOCK + 1, default_registry(), 16)
    for b in range(20):
        batch = _build_batch(bank, 32, SEED, b)
        assert batch.x_cond.shape == (32, 16, 16)
        for i, c, x, x_cond in zip(batch.image_idx, batch.cond_idx, batch.x,
                                   batch.x_cond):
            assert x.tobytes() == images[i].tobytes()
            assert x_cond.tobytes() == conditions[c][i].tobytes(), (b, i, c)


def test_bank_keeps_no_condition_state():
    bank = DatasetBank(SEED, 32, default_registry(), 16)
    attrs = dict(vars(bank))
    images = bank.images.tobytes()
    first, second = bank.condition_images(3), bank.condition_images(3)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()
    for b in range(3):
        _build_batch(bank, 16, SEED, b)
    assert vars(bank).keys() == attrs.keys()
    assert all(vars(bank)[k] is v for k, v in attrs.items())
    assert bank.images.tobytes() == images


def test_build_batch_uniform_conditions():
    bank = DatasetBank(SEED, 64, basic_conditions(), 16)
    counts = np.zeros(8)
    n_samples = 0
    for b in range(625):  # 10k samples
        batch = _build_batch(bank, 16, SEED, b)
        for c in batch.cond_idx:
            counts[c] += 1
        n_samples += len(batch.cond_idx)
    freqs = counts / n_samples
    assert np.abs(freqs - 1 / 8).max() < 0.02


def test_build_batch_seed_reproducible():
    bank = DatasetBank(SEED, 32, basic_conditions(), 16)
    for b in range(5):
        x, y = _build_batch(bank, 4, SEED, b), _build_batch(bank, 4, SEED, b)
        assert np.array_equal(x.x, y.x)
        assert np.array_equal(x.cond_idx, y.cond_idx)
    assert not np.array_equal(_build_batch(bank, 4, SEED, 0).image_idx,
                              _build_batch(bank, 4, SEED + 1, 0).image_idx)


def test_build_batch_suffix_regenerable():
    # batch b depends only on (seed, b): a fresh bank regenerates any batch
    # without replaying the ones before it
    bank = DatasetBank(SEED, 32, basic_conditions(), 16)
    full = [_build_batch(bank, 4, SEED, b) for b in range(8)]
    fresh = DatasetBank(SEED, 32, basic_conditions(), 16)
    for b in (7, 5, 6):
        a, c = full[b], _build_batch(fresh, 4, SEED, b)
        assert np.array_equal(a.x, c.x)
        assert np.array_equal(a.x_cond, c.x_cond)
        assert np.array_equal(a.cond_idx, c.cond_idx)


def test_ssim_identity_and_sign():
    rng = np.random.default_rng(5)
    img = rng.uniform(-1, 1, (16, 16))
    assert metric_ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    checker = np.indices((16, 16)).sum(axis=0) % 2 * 1.6 - 0.8
    assert metric_ssim(checker, -checker) < 0.0


def naive_ssim(a, b, w=8, k1=0.01, k2=0.03, rng_val=2.0):
    """Independent reference: explicit per-window loops."""
    c1, c2 = (k1 * rng_val) ** 2, (k2 * rng_val) ** 2
    vals = []
    for i in range(a.shape[0] - w + 1):
        for j in range(a.shape[1] - w + 1):
            wa = a[i:i + w, j:j + w].ravel()
            wb = b[i:i + w, j:j + w].ravel()
            mua, mub = wa.mean(), wb.mean()
            va, vb = wa.var(), wb.var()
            cov = ((wa - mua) * (wb - mub)).mean()
            vals.append(((2 * mua * mub + c1) * (2 * cov + c2))
                        / ((mua ** 2 + mub ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_ssim_matches_reference_implementation():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.uniform(-1, 1, (16, 16))
        b = rng.uniform(-1, 1, (16, 16))
        assert metric_ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-6)


def test_encoder_sim_identity_and_range():
    from divcontrol.config import resolve_config
    from divcontrol.model import RepaHead
    from divcontrol.rng import fresh

    head = RepaHead(resolve_config(overrides={"encoder_seed": 7}), fresh)
    img = render_images(SEED, 0, 1, 16, "image")[0]
    assert metric_encoder_sim(head, img, img) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(-1, 1, (16, 16))
        b = rng.uniform(-1, 1, (16, 16))
        v = metric_encoder_sim(head, a, b)
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_encoder_sim_rank_correlates_with_ssim():
    from scipy.stats import spearmanr

    from divcontrol.config import resolve_config
    from divcontrol.model import RepaHead
    from divcontrol.rng import fresh

    head = RepaHead(resolve_config(overrides={"encoder_seed": 7}), fresh)
    rng = np.random.default_rng(8)
    ssims, encs = [], []
    for i in range(100):
        base = render_images(SEED, i, i + 1, 16, "image")[0]
        noisy = np.clip(base + rng.uniform(0.05, 1.0) * rng.standard_normal(base.shape),
                        -1, 1)
        ssims.append(metric_ssim(base, noisy))
        encs.append(metric_encoder_sim(head, base, noisy))
    rho = spearmanr(ssims, encs).statistic
    assert rho > 0.5, rho
