"""End-to-end gradient verification on a micro configuration.

Differentiates the objective training runs on, ``training._objective``
(denoising MSE through the gated factorized branch, plus weighted
alignment), at one-layer scale, small enough that every coordinate can be
finite-differenced, and checks the tape's gradients against central
differences.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .conditions import apply_condition, default_registry, generate_image
from .config import resolve_config
from .gradcheck import GradCheckReport, finite_diff_check
from .rng import stream
from .training import _objective, _routing_rows, build_diversion_bundle


def micro_config(seed: int = 0):
    return resolve_config(overrides=dict(
        seed=seed, image_size=8, patch_size=4, token_dim=16, mlp_hidden=32,
        layers=1, controlnet_layers=1, timesteps=10, repa_layer=1, repa_dim=8,
        repa_hidden=12, embed_dim=16, n_learngene=4, n_tailor=4, top_k=2,
        dropout=0.0, batch_size=2, dataset_size=4))


def build_e2e_case(seed: int = 0):
    """(loss closure, params) for the one-layer end-to-end objective."""
    cfg = micro_config(seed)
    bundle = build_diversion_bundle(cfg)
    registry = default_registry()
    gen = stream(seed, "e2e-data")
    x0 = np.stack([generate_image(seed, i, cfg.image_size) for i in range(2)])
    cond_idx = np.array([0, 2])
    x_cond = np.stack([apply_condition(img, registry[c])
                       for img, c in zip(x0, cond_idx)])
    t_idx = gen.integers(0, cfg.timesteps, 2)
    eps = gen.standard_normal(x0.shape)
    # make routing non-uniform so selection is meaningful, then freeze it
    bundle.gate.w2.data = 0.3 * gen.standard_normal(bundle.gate.w2.shape)
    with T.no_grad():
        _, frozen_active = _routing_rows(bundle, cond_idx, record=False)
    # pin the active set: selection is treated as a constant per step
    mask = np.zeros(bundle.gate.n_tailor)
    mask[list(frozen_active)] = 1.0

    def loss():
        rows, _ = _routing_rows(bundle, cond_idx, record=False)
        return _objective(bundle, x0, x_cond, t_idx, eps, T.mul(rows, mask))[2]

    return loss, bundle.params()


def run_e2e_gradcheck(seed: int = 0, h: float = 1e-5, tol: float = 1e-5,
                      max_coords_per_param: int | None = None) -> GradCheckReport:
    loss, params = build_e2e_case(seed)
    rng = np.random.default_rng(seed)
    return finite_diff_check(loss, params, h=h, tol=tol,
                             max_coords_per_param=max_coords_per_param, rng=rng)
