"""End-to-end gradient verification on a micro configuration.

Builds the complete training loss (denoising MSE through the gated
factorized branch, plus weighted alignment) at one-layer scale, small
enough that every coordinate can be finite-differenced, and checks the
tape's gradients against central differences.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .conditions import apply_condition, default_registry, generate_image
from .config import resolve_config
from .gradcheck import GradCheckReport, finite_diff_check, run_op_suite
from .model import (
    branch_forward,
    denoiser_forward,
    diffusion_loss,
    forward_noise,
    patchify,
    repa_loss,
)
from .rng import stream
from .training import _routing_rows, build_diversion_bundle


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
    # spread the singular values so tailor gradients are well scaled
    registry = default_registry()
    gen = stream(seed, "e2e-data")
    x0 = np.stack([generate_image(seed, i, cfg.image_size) for i in range(2)])
    cond_idx = np.array([0, 2])
    x_cond = np.stack([apply_condition(img, registry[c])
                       for img, c in zip(x0, cond_idx)])
    t_idx = gen.integers(0, cfg.timesteps, 2)
    eps = gen.standard_normal(x0.shape)
    z_t = forward_noise(x0, t_idx, eps, bundle.sched)
    # make routing non-uniform so selection is meaningful, then freeze it
    bundle.gate.w2.data = 0.3 * gen.standard_normal(bundle.gate.w2.shape)
    e_img = bundle.repa.encode(x_cond)
    eps_tok = patchify(eps, cfg.patch_size)
    zt_tok = patchify(z_t, cfg.patch_size)
    xc_tok = patchify(x_cond, cfg.patch_size)
    with T.no_grad():
        _, frozen_active = _routing_rows(bundle, cond_idx, record=False)

    def loss():
        rows, _ = _routing_rows(bundle, cond_idx, record=False)
        # pin the active set: selection is treated as a constant per step
        mask = np.zeros(bundle.gate.n_tailor)
        mask[list(frozen_active)] = 1.0
        rows = T.mul(rows, mask)
        inj, f_cond = branch_forward(bundle.branch, cfg, xc_tok, t_idx, rows)
        eps_hat = denoiser_forward(bundle.den, cfg, zt_tok, t_idx, inj)
        l_diff = diffusion_loss(eps_tok, eps_hat)
        l_repa = repa_loss(f_cond, e_img, bundle.repa)
        return T.add(l_diff, T.mul(l_repa, cfg.lambda_repa))

    return loss, bundle.params()


def run_e2e_gradcheck(seed: int = 0, h: float = 1e-5, tol: float = 1e-5,
                      max_coords_per_param: int | None = None) -> GradCheckReport:
    loss, params = build_e2e_case(seed)
    rng = np.random.default_rng(seed)
    return finite_diff_check(loss, params, h=h, tol=tol,
                             max_coords_per_param=max_coords_per_param, rng=rng)


def run_full_gradcheck(seed: int = 0, tol: float = 1e-5,
                       e2e_max_coords: int | None = None, log=None) -> dict:
    """Op suite plus the end-to-end case; name -> GradCheckReport."""
    reports = run_op_suite(seed=seed, tol=tol)
    if log:
        for name, rep in reports.items():
            log(f"{'PASS' if rep.passed else 'FAIL'} {name}: "
                f"max rel err {rep.max_rel_err:.3e}")
    reports["e2e_one_layer"] = run_e2e_gradcheck(
        seed=seed, tol=tol, max_coords_per_param=e2e_max_coords)
    if log:
        rep = reports["e2e_one_layer"]
        log(f"{'PASS' if rep.passed else 'FAIL'} e2e_one_layer: "
            f"max rel err {rep.max_rel_err:.3e} over {rep.n_coords} coords")
    return reports
