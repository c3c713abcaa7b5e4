"""Training loops: multi-condition diversion, few-shot adaptation, harnesses.

Every stochastic draw is stream-addressed (see rng.py): batch ``b`` comes
from ("batch", b) and the remaining per-step randomness (timesteps, noise,
dropout masks, in that order) from ("step", b). Together with the
checkpointed optimizer moments and gate state this makes an interrupted
run resume bit-exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from .conditions import (
    DatasetBank,
    _build_batch,
    basic_conditions,
    find_condition,
    metric_encoder_sim,
    metric_ssim,
)
from .config import RunConfig, config_digest, resolve_config, resolved_text
from .errors import CheckpointError, ContractError, NumericError
from .factorized import FactorizedWeight, GatedCoefficients, masked_gradient_apply
from .gate import (
    GateState,
    InstructionEncoder,
    record_usage,
    route,
    topk_select,
    update_biases,
)
from .model import (
    ControlBranch,
    DenoiserNet,
    NoiseSchedule,
    RepaHead,
    branch_forward,
    count_parameters,
    denoiser_forward,
    diffusion_loss,
    forward_noise,
    patchify,
    repa_loss,
    sample_batch,
)
from .optim import AdamW, lr_at
from .rng import stream
from .runio import (
    MetricsWriter,
    export_metrics,
    read_metrics,
    run_lock,
    write_resolved_config,
)
from .tensor import Tensor


@dataclass
class ModelBundle:
    """Everything a run owns: networks, gate, schedules, condition registry."""

    cfg: RunConfig
    den: DenoiserNet
    branch: ControlBranch
    gate: GateState
    repa: RepaHead
    sched: NoiseSchedule
    specs: list
    embeddings: list

    def params(self) -> dict:
        parts = (("den.", self.den), ("br.", self.branch), ("gate.", self.gate),
                 ("repa.", self.repa))
        return {prefix + name: t for prefix, part in parts
                for name, t in part.tensors().items()}

    def trainable_params(self) -> dict:
        return {k: t for k, t in self.params().items() if t.requires_grad}


def _embed_all(cfg: RunConfig, specs) -> list:
    enc = InstructionEncoder(cfg.encoder_seed, cfg.embed_dim)
    return [enc.encode(s.instruction, s.condition_id) for s in specs]


def build_diversion_bundle(cfg: RunConfig) -> ModelBundle:
    """Fresh model for multi-condition training on the basic registry."""
    specs = basic_conditions()
    den = DenoiserNet(cfg, cfg.seed)
    branch = ControlBranch(cfg, cfg.seed, cfg.n_learngene, cfg.n_tailor)
    gate = GateState.init(cfg.embed_dim, cfg.n_tailor, cfg.top_k, cfg.seed,
                          bias_update_rate=cfg.gate_bias_rate)
    repa = RepaHead(cfg, cfg.seed, cfg.encoder_seed)
    return ModelBundle(cfg=cfg, den=den, branch=branch, gate=gate, repa=repa,
                       sched=NoiseSchedule.linear(cfg), specs=specs,
                       embeddings=_embed_all(cfg, specs))


def _fresh_tailor_bank(fw: FactorizedWeight, cfg: RunConfig,
                       name: str) -> FactorizedWeight:
    """Keep the (frozen) learngene block; replace the tailor block with
    randomly initialized trainable components.

    New u/v columns are unit-norm random directions and sigma starts at
    zero, so the swapped-in bank leaves the composed weight untouched
    until training moves the scales.
    """
    n_t = cfg.adapt_n_tailor
    gen = stream(cfg.seed, "init", "adapt." + name)
    u = gen.standard_normal((fw.out_dim, n_t))
    u /= np.linalg.norm(u, axis=0, keepdims=True)
    v = gen.standard_normal((fw.in_dim, n_t))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return FactorizedWeight(fw.u_g, fw.s_g, fw.v_g, u, np.zeros(n_t), v)


def _adaptation_surgery(base: ModelBundle, cfg: RunConfig) -> ModelBundle:
    """Freeze the transferred model and graft fresh tailors plus a fresh
    gate output row set for a single novel condition."""
    new_spec = find_condition(cfg.adapt_condition)
    if new_spec.shift_class != "novel_high":
        raise ContractError(
            f"few-shot adaptation targets high-shift conditions; "
            f"'{new_spec.condition_id}' is {new_spec.shift_class}")
    for t in base.params().values():
        t.requires_grad = False
    branch = base.branch
    for li, blk in enumerate(branch.blocks):
        for key in ("fw_q", "fw_k", "fw_v", "fw_o", "fw_in", "fw_out"):
            blk[key] = _fresh_tailor_bank(blk[key], cfg, f"l{li}.{key}")
    branch.n_tailor = cfg.adapt_n_tailor
    gate = GateState(
        w1=base.gate.w1, b1=base.gate.b1,  # frozen above
        w2=Tensor(np.zeros((cfg.adapt_n_tailor, cfg.embed_dim)), requires_grad=True),
        b2=Tensor(np.zeros(cfg.adapt_n_tailor), requires_grad=True),
        k=cfg.adapt_top_k, bias_update_rate=cfg.gate_bias_rate)
    specs = [new_spec]
    return ModelBundle(cfg=cfg, den=base.den, branch=branch, gate=gate,
                       repa=base.repa, sched=NoiseSchedule.linear(cfg),
                       specs=specs, embeddings=_embed_all(cfg, specs))


def _fresh_bundle(cfg: RunConfig) -> ModelBundle:
    """Random bundle shaped for ``cfg.mode`` (adaptation modes: frozen base)."""
    bundle = build_diversion_bundle(cfg)
    if cfg.mode != "diversion":
        bundle = _adaptation_surgery(bundle, cfg)
    return bundle


# Keys that set a parameter shape of the diversion base. An adaptation
# checkpoint stores only its own config, and restore_bundle rebuilds the
# frozen base from it, so these must equal the base's.
_BASE_SHAPE_KEYS = ("image_size", "patch_size", "token_dim", "mlp_hidden",
                    "layers", "controlnet_layers", "timesteps", "n_learngene",
                    "n_tailor", "embed_dim", "repa_dim", "repa_hidden")


def build_adapt_bundle(cfg: RunConfig, base_ckpt_path) -> ModelBundle:
    """Few-shot bundle: transferred parameters frozen, fresh routing path."""
    if cfg.mode != "adapt_frozen":
        raise ContractError("adaptation requires mode = adapt_frozen")
    base = restore_bundle(base_ckpt_path)
    if base.cfg.mode != "diversion":
        raise ContractError(
            f"adaptation needs a diversion-mode base checkpoint; "
            f"'{base_ckpt_path}' was written in mode {base.cfg.mode}")
    differ = [f"{k} = {getattr(cfg, k)} (base: {getattr(base.cfg, k)})"
              for k in _BASE_SHAPE_KEYS if getattr(cfg, k) != getattr(base.cfg, k)]
    if differ:
        raise ContractError(
            f"adaptation config disagrees with base checkpoint '{base_ckpt_path}' "
            f"on parameter shapes: {', '.join(differ)}")
    return _adaptation_surgery(base, cfg)


# ----------------------------------------------------------------------
# checkpoint wiring
# ----------------------------------------------------------------------

def bundle_state(bundle: ModelBundle, opt: AdamW | None, step: int,
                 cond_ema: np.ndarray, cond_seen: np.ndarray,
                 extra_meta: dict | None = None) -> CheckpointState:
    cfg = bundle.cfg
    arrays = {}
    for name, t in bundle.params().items():
        arrays["param/" + name] = t.data
    if opt is not None:
        for name in opt.params:
            arrays["opt/m/" + name] = opt.m[name]
            arrays["opt/v/" + name] = opt.v[name]
        arrays["opt/t"] = np.array([opt.step_count], dtype=np.int64)
    arrays["gate/balance_bias"] = bundle.gate.balance_bias
    arrays["gate/usage"] = bundle.gate.usage_count.astype(np.int64)
    arrays["gate/batch"] = bundle.gate.batch_count.astype(np.int64)
    arrays["metrics/cond_ema"] = cond_ema
    arrays["metrics/cond_seen"] = cond_seen.astype(np.int64)
    meta = {"config_text": resolved_text(cfg),
            "condition_ids": ",".join(s.condition_id for s in bundle.specs)}
    meta.update(extra_meta or {})
    return CheckpointState(step=step, config_digest=config_digest(cfg),
                           arrays=arrays, meta=meta)


def _block(state: CheckpointState, key: str, shape=None) -> np.ndarray:
    """Copy of block ``key``; CheckpointError if it is missing or not ``shape``."""
    if key not in state.arrays:
        raise CheckpointError(f"checkpoint missing block '{key}'")
    arr = state.arrays[key]
    if shape is not None and arr.shape != shape:
        raise CheckpointError(f"block '{key}' shape {arr.shape} != expected {shape}")
    return arr.copy()


def load_bundle_arrays(bundle: ModelBundle, state: CheckpointState,
                       opt: AdamW | None = None) -> None:
    for name, t in bundle.params().items():
        t.data = _block(state, "param/" + name, t.data.shape)
    bundle.gate.balance_bias = _block(state, "gate/balance_bias")
    bundle.gate.usage_count = _block(state, "gate/usage")
    bundle.gate.batch_count = _block(state, "gate/batch")
    if opt is not None:
        for name, p in opt.params.items():
            opt.m[name] = _block(state, "opt/m/" + name, p.data.shape)
            opt.v[name] = _block(state, "opt/v/" + name, p.data.shape)
        opt.step_count = int(_block(state, "opt/t")[0])


def restore_bundle(ckpt_path) -> ModelBundle:
    """Rebuild the bundle a checkpoint was written from, in its mode."""
    state = load_checkpoint(ckpt_path)
    bundle = _fresh_bundle(resolve_config(state.config_text))
    load_bundle_arrays(bundle, state)
    return bundle


# ----------------------------------------------------------------------
# the training loop
# ----------------------------------------------------------------------

@dataclass
class RunMetrics:
    cond_ema: np.ndarray = None
    cond_seen: np.ndarray = None
    seconds_per_100: list = field(default_factory=list)


_EMA = 0.98


def _routing_rows(bundle: ModelBundle, cond_idx: np.ndarray,
                  record: bool = True):
    """Per-item tailor coefficients for a batch (None when no tailors).

    Returns (rows, active_union) where rows is a (B, n_tailor) tensor of
    unbiased coefficients, differentiable into the gate. ``record`` counts
    one routing event per item toward the balance statistics.
    """
    gate = bundle.gate
    if bundle.branch.n_tailor == 0:
        return None, set()
    unique = sorted(set(int(c) for c in cond_idx))
    g_rows, position = [], {}
    active_union: set = set()
    for ui, c in enumerate(unique):
        alpha = route(gate, bundle.embeddings[c])
        coeffs = topk_select(alpha, gate)
        if record:
            record_usage(gate, coeffs.active_set,
                         count=int((cond_idx == c).sum()))
        active_union |= set(coeffs.active_set)
        g_rows.append(T.reshape(coeffs.g, (1, gate.n_tailor)))
        position[c] = ui
    stacked = g_rows[0] if len(g_rows) == 1 else T.concat(g_rows, axis=0)
    rows = T.gather_rows(stacked, np.array([position[int(c)] for c in cond_idx]))
    return rows, active_union


def _objective(bundle: ModelBundle, x, x_cond, t_idx, eps, rows,
               drop_gen=None) -> tuple:
    """The training objective L = L_diff + lambda_repa * L_REPA on one batch.

    ``x`` and ``x_cond`` are (B, H, W) images, ``eps`` the noise added at
    timesteps ``t_idx`` and ``rows`` the tailor coefficients from
    ``_routing_rows``. Dropout draws from ``drop_gen``; None disables it.
    Returns (l_diff, l_repa, l_total, eps_tok, eps_hat): the three losses as
    scalar tensors, then the target and the predicted noise tokens.
    """
    cfg = bundle.cfg
    patch = cfg.patch_size
    z_t = forward_noise(x, t_idx, eps, bundle.sched)
    inj, f_cond = branch_forward(bundle.branch, cfg, patchify(x_cond, patch),
                                 t_idx, rows, cfg.dropout, drop_gen)
    eps_hat = denoiser_forward(bundle.den, cfg, patchify(z_t, patch), t_idx,
                               inj, cfg.dropout, drop_gen)
    eps_tok = patchify(eps, patch)
    l_diff = diffusion_loss(eps_tok, eps_hat)
    l_repa = repa_loss(f_cond, bundle.repa.encode(x_cond), bundle.repa)
    l_total = T.add(l_diff, T.mul(l_repa, cfg.lambda_repa))
    return l_diff, l_repa, l_total, eps_tok, eps_hat


def train_steps(bundle: ModelBundle, bank: DatasetBank, out_dir,
                start_step: int = 0, stop_step: int | None = None,
                opt: AdamW | None = None, metrics: RunMetrics | None = None,
                log=None) -> tuple:
    """Run optimizer steps [start_step, stop_step) and checkpoint at the end.

    Returns (checkpoint_path, RunMetrics).
    """
    cfg = bundle.cfg
    lr_sched = cfg.schedule()
    stop = cfg.steps if stop_step is None else min(stop_step, cfg.steps)
    if opt is None:
        opt = _new_optimizer(bundle)
    if metrics is None:
        metrics = RunMetrics(cond_ema=np.zeros(len(bundle.specs)),
                             cond_seen=np.zeros(len(bundle.specs)))
    os.makedirs(out_dir, exist_ok=True)
    writer = MetricsWriter(out_dir, [s.condition_id for s in bundle.specs],
                           resume_step=start_step)
    ckpt_path = os.path.join(out_dir, "checkpoint.divc")
    t_block = time.monotonic()
    try:
        for s in range(start_step, stop):
            batch = _build_batch(bank, cfg.batch_size, cfg.seed, s)
            gen = stream(cfg.seed, "step", s)
            t_idx = gen.integers(0, cfg.timesteps, cfg.batch_size)
            eps = gen.standard_normal(batch.x.shape)
            rows, active_union = _routing_rows(bundle, batch.cond_idx)
            l_diff_t, l_repa_t, total_t, eps_tok, eps_hat = _objective(
                bundle, batch.x, batch.x_cond, t_idx, eps, rows, gen)
            l_diff, l_repa, l_total = l_diff_t.item(), l_repa_t.item(), total_t.item()
            if not (np.isfinite(l_total) and np.isfinite(l_repa)):
                snap = os.path.join(out_dir, f"nan-snapshot-step{s + 1}.divc")
                save_checkpoint(snap, bundle_state(
                    bundle, opt, s, metrics.cond_ema, metrics.cond_seen,
                    {"abort": f"non-finite loss at step {s + 1}"}))
                raise NumericError(
                    f"non-finite loss at step {s + 1}; snapshot: {snap}")

            # per-condition running loss (EMA over that condition's items)
            per_item = ((eps_tok - eps_hat.data) ** 2).mean(axis=(1, 2))
            for c in set(int(c) for c in batch.cond_idx):
                val = float(per_item[batch.cond_idx == c].mean())
                if metrics.cond_seen[c]:
                    metrics.cond_ema[c] = _EMA * metrics.cond_ema[c] + (1 - _EMA) * val
                else:
                    metrics.cond_ema[c] = val
                    metrics.cond_seen[c] = 1

            T.backward(total_t)
            if bundle.branch.n_tailor:
                for fw in bundle.branch.factorized_weights():
                    masked_gradient_apply(fw, active_union)
            opt.step(lr=lr_at(lr_sched, s))
            opt.zero_grad()
            update_biases(bundle.gate)
            writer.write(s + 1, l_diff, l_repa, l_total, lr_at(lr_sched, s),
                         metrics.cond_ema)
            if (s + 1) % 100 == 0:
                metrics.seconds_per_100.append(time.monotonic() - t_block)
                t_block = time.monotonic()
                writer.flush()
                save_checkpoint(ckpt_path, bundle_state(
                    bundle, opt, s + 1, metrics.cond_ema, metrics.cond_seen))
                if log:
                    log(f"step {s + 1}/{stop} l_diff={l_diff:.4f} "
                        f"l_repa={l_repa:+.4f}")
    finally:
        T.clear_tape()  # a step abandoned by an error leaves its nodes behind
        writer.close()
    save_checkpoint(ckpt_path, bundle_state(bundle, opt, stop,
                                            metrics.cond_ema, metrics.cond_seen))
    export_metrics(out_dir, extra=_summary_extras(bundle, metrics))
    return ckpt_path, metrics


def _new_optimizer(bundle: ModelBundle) -> AdamW:
    cfg = bundle.cfg
    return AdamW(bundle.trainable_params(), lr=cfg.lr,
                 betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps,
                 weight_decay=cfg.weight_decay)


def _summary_extras(bundle: ModelBundle, metrics: RunMetrics) -> dict:
    params = bundle.params()
    trainable = bundle.trainable_params()
    return {
        "mode": bundle.cfg.mode,
        "config_digest": config_digest(bundle.cfg).hex(),
        "gate_usage": [int(v) for v in bundle.gate.usage_count],
        "n_parameters": count_parameters(params),
        "n_trainable": count_parameters(trainable),
        "seconds_per_100_steps": metrics.seconds_per_100,
        "condition_ids": [s.condition_id for s in bundle.specs],
    }


def _train_run(bundle: ModelBundle, out_dir, start_step: int = 0,
               opt: AdamW | None = None, metrics: RunMetrics | None = None,
               log=None) -> tuple:
    """Lock ``out_dir``, write the bundle's config, build the bank and train.

    Diversion runs draw from ``dataset_size`` base images; adaptation runs
    from ``adapt_images`` few-shot images, for ``adapt_steps`` steps (the
    config file keeps the ``steps`` it was given).
    """
    cfg = bundle.cfg
    with run_lock(out_dir):
        write_resolved_config(out_dir, resolved_text(cfg))
        if cfg.mode == "diversion":
            bank = DatasetBank(cfg.seed, cfg.dataset_size, bundle.specs,
                               cfg.image_size)
        else:
            bank = DatasetBank(cfg.seed, cfg.adapt_images, bundle.specs,
                               cfg.image_size, image_stream="adapt-image")
            bundle.cfg = cfg.replace(steps=cfg.adapt_steps)
        return train_steps(bundle, bank, out_dir, start_step=start_step,
                           opt=opt, metrics=metrics, log=log)


def train_diversion(cfg: RunConfig, out_dir, resume: str | None = None,
                    allow_config_mismatch: bool = False, log=None) -> str:
    """Algorithm: route, compose, denoise, align, update; returns ckpt path."""
    if cfg.mode != "diversion":
        raise ContractError("train_diversion requires mode = diversion")
    bundle = build_diversion_bundle(cfg)
    start, opt, metrics = 0, None, None
    if resume is not None:
        state = load_checkpoint(resume)
        if state.config_digest != config_digest(cfg) and not allow_config_mismatch:
            raise ContractError(
                "resume checkpoint was written under a different config; "
                "pass --allow-config-mismatch to continue anyway")
        opt = _new_optimizer(bundle)
        load_bundle_arrays(bundle, state, opt)
        start = state.step
        metrics = RunMetrics(cond_ema=_block(state, "metrics/cond_ema"),
                             cond_seen=_block(state, "metrics/cond_seen"))
    return _train_run(bundle, out_dir, start, opt, metrics, log)[0]


def zero_shot_route(ckpt_path_or_bundle, instruction_text: str) -> GatedCoefficients:
    """Route a novel instruction through a trained gate; no updates."""
    bundle = ckpt_path_or_bundle
    if not isinstance(bundle, ModelBundle):
        bundle = restore_bundle(bundle)
    enc = InstructionEncoder(bundle.cfg.encoder_seed, bundle.cfg.embed_dim)
    with T.no_grad():
        alpha = route(bundle.gate, enc.encode(instruction_text))
        return topk_select(alpha, bundle.gate)


def adapt_few_shot(cfg: RunConfig, base_ckpt, out_dir, log=None) -> str:
    """Train fresh tailors on a high-shift condition; everything else frozen."""
    return _train_run(build_adapt_bundle(cfg, base_ckpt), out_dir, log=log)[0]


def train_scratch(cfg: RunConfig, out_dir, log=None) -> str:
    """Adaptation control: same trainable set, random frozen base."""
    if cfg.mode != "scratch":
        raise ContractError("train_scratch requires mode = scratch")
    return _train_run(_fresh_bundle(cfg), out_dir, log=log)[0]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate_bundle(bundle: ModelBundle, n_samples: int | None = None,
                    sample_images: bool = True) -> dict:
    """Held-out metrics: noise-prediction loss, aligned cosine, and (when
    ``sample_images``) SSIM / encoder similarity of generated images."""
    cfg = bundle.cfg
    n = cfg.eval_samples if n_samples is None else n_samples
    specs = bundle.specs
    bank = DatasetBank(cfg.seed, n, specs, cfg.image_size, image_stream="eval")
    cond_idx = np.arange(n) % len(specs)
    x = bank.images
    x_cond = np.stack([bank.condition_images(int(c))[i]
                       for i, c in enumerate(cond_idx)])
    gen = stream(cfg.seed, "eval-noise")
    t_idx = gen.integers(0, cfg.timesteps, n)
    eps = gen.standard_normal(x.shape)
    with T.no_grad():
        rows, _ = _routing_rows(bundle, cond_idx, record=False)
        l_diff, l_repa, _, _, _ = _objective(bundle, x, x_cond, t_idx, eps, rows)
    out = {"eval_l_diff": l_diff.item(), "eval_aligned_cosine": -l_repa.item(),
           "n_samples": n}
    if sample_images:
        samples = sample_batch(bundle.den, bundle.branch, cfg, bundle.sched,
                               x_cond, rows, cfg.seed,
                               sample_indices=[f"eval-{i}" for i in range(n)])
        out["eval_ssim"] = float(np.mean(
            [metric_ssim(a, b) for a, b in zip(samples, x)]))
        out["eval_encoder_sim"] = float(np.mean(
            [metric_encoder_sim(bundle.repa, a, b) for a, b in zip(samples, x)]))
    return out


# ----------------------------------------------------------------------
# harnesses: ablation and alignment sweep
# ----------------------------------------------------------------------

ABLATION_ARMS = ("neither", "diversion_only", "both")


def ablation_arm_config(cfg: RunConfig, arm: str) -> RunConfig:
    if arm == "both":
        return cfg
    if arm == "diversion_only":
        return cfg.replace(lambda_repa=0.0)
    if arm == "neither":
        return cfg.replace(lambda_repa=0.0,
                           n_learngene=cfg.n_learngene + cfg.n_tailor,
                           n_tailor=0, top_k=0)
    raise ContractError(f"unknown ablation arm '{arm}'")


def audit_batch_streams(configs, n_batches: int = 3) -> bool:
    """Arms must consume identical batch sequences (same seed, same draws)."""
    baseline = None
    for cfg in configs:
        bank = DatasetBank(cfg.seed, cfg.dataset_size,
                           basic_conditions(), cfg.image_size)
        sig = []
        for b in range(n_batches):
            batch = _build_batch(bank, cfg.batch_size, cfg.seed, b)
            sig.append((batch.image_idx.tobytes(), batch.cond_idx.tobytes()))
        if baseline is None:
            baseline = sig
        elif sig != baseline:
            return False
    return True


def _l_diff(run_dir) -> list:
    """The l_diff column of a run's metrics.csv, bit-exact (stored as repr)."""
    header, rows = read_metrics(run_dir)
    col = header.index("l_diff")
    return [row[col] for row in rows]


def run_ablation(cfg: RunConfig, out_dir, eval_samples: int | None = None,
                 log=None) -> dict:
    """Train the three ablation arms under identical seeds and batches."""
    arm_cfgs = {arm: ablation_arm_config(cfg, arm) for arm in ABLATION_ARMS}
    if not audit_batch_streams(list(arm_cfgs.values())):
        raise ContractError("seed audit failed: arms see different batches")
    report = {"seed": cfg.seed, "seed_audit": "identical-batch-streams",
              "arms": {}}
    for arm, arm_cfg in arm_cfgs.items():
        arm_dir = os.path.join(out_dir, arm)
        if log:
            log(f"[ablation] training arm '{arm}'")
        bundle = build_diversion_bundle(arm_cfg)
        _train_run(bundle, arm_dir, log=log)
        l_diff = _l_diff(arm_dir)
        arm_out = {
            "final_100_mean_l_diff": float(np.mean(l_diff[-100:])),
            "first_100_mean_l_diff": float(np.mean(l_diff[:100])),
            "config_digest": config_digest(arm_cfg).hex(),
        }
        arm_out.update(evaluate_bundle(bundle, n_samples=eval_samples))
        report["arms"][arm] = arm_out
    return report


def sweep_repa(cfg: RunConfig, depths, lambdas, out_dir, log=None) -> dict:
    """Short run per (alignment depth, weight) cell; marks the argmin cell.

    The best cell is reported as observed at this scale and carries no
    claim beyond it.
    """
    depths, lambdas = list(depths), list(lambdas)
    if not depths or not lambdas:
        raise ContractError("sweep grid must be non-empty")
    # every cell's config is checked before the first cell trains
    cells = [(d, lam, cfg.replace(repa_layer=d, lambda_repa=lam))
             for d in depths for lam in lambdas]
    report = {"depths": depths, "lambdas": lambdas, "cells": {}}
    best, best_key = None, None
    for d, lam, cell_cfg in cells:
        cell_dir = os.path.join(out_dir, f"depth{d}_lambda{lam}")
        if log:
            log(f"[sweep] depth={d} lambda={lam}")
        bundle = build_diversion_bundle(cell_cfg)
        _train_run(bundle, cell_dir, log=log)
        final = float(np.mean(_l_diff(cell_dir)[-100:]))
        ev = evaluate_bundle(bundle, n_samples=min(32, cfg.eval_samples),
                             sample_images=False)
        key = f"depth={d},lambda={lam}"
        report["cells"][key] = {
            "final_100_mean_l_diff": final,
            "eval_aligned_cosine": ev["eval_aligned_cosine"],
            "config_digest": config_digest(cell_cfg).hex(),
        }
        if best is None or final < best:
            best, best_key = final, key
    report["argmin_cell"] = best_key
    report["note"] = ("argmin is what this desk-scale grid observed; "
                      "it is not claimed to transfer to other scales")
    return report
