import numpy as np
import pytest

from divcontrol.config import RunConfig
from divcontrol.errors import ContractError
from divcontrol.optim import AdamW
from divcontrol.tensor import Tensor


def test_adamw_zero_grad_zero_decay_is_identity():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    before = p.data.copy()
    for _ in range(5):
        opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_two_steps_match_hand_computation():
    # oracle: the update formula evaluated by hand for grads [1, 1]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    theta = 0.5
    m = v = 0.0
    for t in (1, 2):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)

    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = AdamW({"p": p}, lr=lr, betas=(b1, b2), eps=eps, weight_decay=0.0)
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step()
    assert p.data[0] == pytest.approx(theta, abs=1e-15)


def test_adamw_decay_alone_shrinks_multiplicatively():
    lr, wd = 0.05, 3e-2
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
    for k in range(1, 4):
        opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - lr * wd) ** k, rel=1e-14)


def test_adamw_lr_zero_is_identity():
    rng = np.random.default_rng(0)
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.0, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.1)
    before = p.data.copy()
    p.grad = rng.standard_normal(4)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    p.grad = np.zeros(4)
    with pytest.raises(ContractError):
        opt.step()


def test_adamw_counter_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    for expected in (1, 2, 3):
        opt.step()
        assert opt.step_count == expected


def test_adamw_momentum_moves_param_after_gradient_stops():
    # zero gradient and zero decay leave a parameter still only while its
    # first moment is zero
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    p.grad = np.array([1.0, 0.0])
    opt.step()
    opt.zero_grad()
    before = p.data.copy()
    opt.step()
    assert p.data[0] < before[0]
    assert p.data[1] == before[1]


def reference_adamw_step(params, m, v, t, lr, b1, b2, eps, wd):
    """The allocate-and-rebind update the in-place optimizer replaced."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        if wd:
            p.data = p.data * (1.0 - lr * wd)
        if g is None:
            g = 0.0
        mk = m[name] = b1 * m[name] + (1.0 - b1) * g
        vk = v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        p.data = p.data - lr * (mk / bc1) / (np.sqrt(vk / bc2) + eps)


def test_adamw_in_place_is_bit_identical_to_rebinding_update():
    rng = np.random.default_rng(1)
    shapes = {"w": (3, 4), "b": (4,), "frozen_grad": (2, 2), "s": (5,)}
    ours = {k: Tensor(rng.standard_normal(sh), requires_grad=True)
            for k, sh in shapes.items()}
    ref = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in ours.items()}
    held = {k: t.data for k, t in ours.items()}
    lr, betas, eps, wd = 3e-3, (0.9, 0.999), 1e-8, 3e-2
    opt = AdamW(ours, lr=lr, betas=betas, eps=eps, weight_decay=wd)
    m = {k: np.zeros(sh) for k, sh in shapes.items()}
    v = {k: np.zeros(sh) for k, sh in shapes.items()}
    for t in range(1, 7):
        for k, sh in shapes.items():
            # "frozen_grad" never has a gradient; "s" loses it from step 4
            g = None if k == "frozen_grad" or (k == "s" and t >= 4) \
                else rng.standard_normal(sh)
            ours[k].grad = ref[k].grad = g
        step_lr = lr * (0.5 if t >= 5 else 1.0)
        opt.step(lr=step_lr)
        reference_adamw_step(ref, m, v, t, step_lr, *betas, eps, wd)
        for k in shapes:
            assert np.array_equal(ours[k].data, ref[k].data), (t, k)
            assert np.array_equal(opt.m[k], m[k]), (t, k)
            assert np.array_equal(opt.v[k], v[k]), (t, k)
    for k, t in ours.items():
        assert t.data is held[k]   # updated in place, not rebound


def test_lr_at_paper_values():
    cfg = RunConfig(lr=1.25e-5, lr_milestones=(300000,), lr_factor=0.4)
    assert cfg.lr_at(0) == pytest.approx(1.25e-5)
    assert cfg.lr_at(299999) == pytest.approx(1.25e-5)
    assert cfg.lr_at(300000) == pytest.approx(5e-6)
    assert cfg.lr_at(449999) == pytest.approx(5e-6)


def test_lr_at_no_milestones_constant():
    cfg = RunConfig(lr=1e-3, lr_milestones=(), lr_factor=1.0)
    for s in (0, 10, 10 ** 7):
        assert cfg.lr_at(s) == 1e-3


def test_lr_at_monotone_non_increasing():
    cfg = RunConfig(lr=1.0, lr_milestones=(3, 7, 9), lr_factor=0.5)
    values = [cfg.lr_at(s) for s in range(15)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ContractError):
        cfg.lr_at(-1)
