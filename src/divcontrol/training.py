"""Training: one run entry point for every mode, evaluation, harnesses.

``train`` runs every mode through one build, resume and run path. The
mode's record ``cfg.run`` (see ``config.MODES``) decides the bundle, the
image bank, the step budget and whether a diversion base checkpoint is
grafted onto.

Every stochastic draw is stream-addressed (see rng.py): batch ``b`` comes
from ("batch", b) and the remaining per-step randomness (timesteps, noise,
dropout masks, in that order) from ("step", b). Together with the
checkpointed optimizer moments and gate state this makes an interrupted
run resume bit-exactly.

The harness section checks the paper's three claims at desk scale.
``_train_cells`` trains named configs side by side and reports each one's
loss trajectory and evaluation; ``run_ablation`` runs it over the arms of
``ablation_arms``, which separate knowledge diversion from representation
alignment, and ``sweep_repa`` over a grid of alignment depths and weights.
``zero_shot_route`` routes an unseen instruction through a trained gate.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
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
from .model import (
    ControlBranch,
    DenoiserNet,
    GateState,
    NoiseSchedule,
    RepaHead,
    branch_forward,
    count_parameters,
    denoiser_forward,
    diffusion_loss,
    embed_instruction,
    forward_noise,
    masked_gradient_apply,
    patchify,
    record_usage,
    repa_loss,
    route,
    sample_batch,
    topk_select,
    update_biases,
)
from .optim import AdamW
from .rng import fresh, stream
from .runio import (
    MetricsWriter,
    export_metrics,
    read_metrics,
    run_lock,
    write_resolved_config,
)


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
        return {name: t for part in (self.den, self.branch, self.gate, self.repa)
                for name, t in part.tensors().items()}

    def trainable_params(self) -> dict:
        return {k: t for k, t in self.params().items() if t.requires_grad}


def _adapter(name: str) -> bool:
    """Whether an adaptation run trains parameter ``name``: the branch's
    tailor blocks and the gate's output layer. It freezes all the others."""
    return name.endswith((".u_t", ".s_t", ".v_t")) or name in ("gate.w2", "gate.b2")


def _bundle(cfg: RunConfig, source) -> ModelBundle:
    """The bundle of ``cfg.run`` (see ``config.Mode``), each parameter taken
    from ``source`` (see ``rng.fresh``). In a mode that adapts, only the
    ``_adapter`` parameters train."""
    if cfg.run.adapts:
        specs = [find_condition(cfg.adapt_condition)]
        if specs[0].shift_class != "novel_high":
            raise ContractError(
                f"few-shot adaptation targets high-shift conditions; "
                f"'{specs[0].condition_id}' is {specs[0].shift_class}")
    else:
        specs = basic_conditions()
    bundle = ModelBundle(
        cfg=cfg, den=DenoiserNet(cfg, source), branch=ControlBranch(cfg, source),
        gate=GateState(cfg, source), repa=RepaHead(cfg, source),
        sched=NoiseSchedule.linear(cfg), specs=specs,
        embeddings=[embed_instruction(s.instruction, cfg.encoder_seed, cfg.embed_dim)
                    for s in specs])
    if cfg.run.adapts:
        for name, t in bundle.params().items():
            t.requires_grad = _adapter(name)
    return bundle


def build_diversion_bundle(cfg: RunConfig) -> ModelBundle:
    """Fresh model for multi-condition training on the basic registry."""
    if cfg.run.adapts:
        raise ContractError("a diversion bundle requires mode = diversion")
    return _bundle(cfg, fresh)


# Keys that set a parameter shape of the diversion base. An adaptation
# checkpoint stores only its own config, and restore_bundle rebuilds the
# frozen base from it, so these must equal the base's.
_BASE_SHAPE_KEYS = ("image_size", "patch_size", "token_dim", "mlp_hidden",
                    "layers", "controlnet_layers", "timesteps", "n_learngene",
                    "n_tailor", "embed_dim", "repa_dim", "repa_hidden")


def _on_base(cfg: RunConfig, base_ckpt_path):
    """Parameter source of an adaptation on a diversion base checkpoint:
    the adapter is drawn and every other parameter read from the base."""
    if not cfg.run.needs_base:
        raise ContractError("adaptation requires mode = adapt_frozen")
    state, base_cfg = _load(base_ckpt_path)
    if base_cfg.run.adapts:
        raise ContractError(
            f"adaptation needs a diversion-mode base checkpoint; "
            f"'{base_ckpt_path}' was written in mode {base_cfg.mode}")
    differ = [f"{k} = {getattr(cfg, k)} (base: {getattr(base_cfg, k)})"
              for k in _BASE_SHAPE_KEYS if getattr(cfg, k) != getattr(base_cfg, k)]
    if differ:
        raise ContractError(
            f"adaptation config disagrees with base checkpoint '{base_ckpt_path}' "
            f"on parameter shapes: {', '.join(differ)}")
    base = _stored(state)
    return lambda name, shape, draw: (draw() if _adapter(name)
                                      else base(name, shape, draw))


def build_adapt_bundle(cfg: RunConfig, base_ckpt_path) -> ModelBundle:
    """Few-shot bundle: transferred parameters frozen, fresh routing path."""
    return _bundle(cfg, _on_base(cfg, base_ckpt_path))


# ----------------------------------------------------------------------
# checkpoint wiring
# ----------------------------------------------------------------------

def bundle_state(bundle: ModelBundle, opt: AdamW, step: int, metrics: RunMetrics,
                 extra_meta: dict | None = None) -> CheckpointState:
    cfg = bundle.cfg
    arrays = {"param/" + name: t.data for name, t in bundle.params().items()}
    for name in opt.params:
        arrays["opt/m/" + name] = opt.m[name]
        arrays["opt/v/" + name] = opt.v[name]
    arrays["opt/t"] = np.array([opt.step_count], dtype=np.int64)
    arrays["gate/balance_bias"] = bundle.gate.balance_bias
    arrays["gate/usage"] = bundle.gate.usage_count
    arrays["metrics/cond_ema"] = metrics.cond_ema
    arrays["metrics/cond_seen"] = metrics.cond_seen
    meta = {"config_text": resolved_text(cfg), **(extra_meta or {})}
    return CheckpointState(step=step, arrays=arrays, meta=meta)


def _block(state: CheckpointState, key: str, shape) -> np.ndarray:
    """Copy of block ``key``; CheckpointError if it is missing or not ``shape``."""
    if key not in state.arrays:
        raise CheckpointError(f"checkpoint missing block '{key}'")
    arr = state.arrays[key]
    if arr.shape != shape:
        raise CheckpointError(f"block '{key}' shape {arr.shape} != expected {shape}")
    return arr.copy()


def _load(path) -> tuple:
    """(state, cfg) of checkpoint ``path``, ``cfg`` the config it was written
    under; CheckpointError when it stores no config text."""
    state = load_checkpoint(path)
    if "config_text" not in state.meta:
        raise CheckpointError(f"{path}: checkpoint stores no config text")
    return state, resolve_config(state.meta["config_text"])


def _stored(state: CheckpointState):
    """Parameter source that reads each parameter from its ``param/`` block."""
    return lambda name, shape, draw: _block(state, "param/" + name, shape)


def _restored(path) -> tuple:
    """(bundle, state): the bundle checkpoint ``path`` was written from, in
    its mode and with its gate state, and the checkpoint it was read from."""
    state, cfg = _load(path)
    bundle = _bundle(cfg, _stored(state))
    n_t = (bundle.gate.n_tailor,)
    bundle.gate.balance_bias = _block(state, "gate/balance_bias", n_t)
    bundle.gate.usage_count = _block(state, "gate/usage", n_t)
    return bundle, state


def restore_bundle(ckpt_path) -> ModelBundle:
    """Rebuild the bundle a checkpoint was written from, in its mode."""
    return _restored(ckpt_path)[0]


# ----------------------------------------------------------------------
# the training loop
# ----------------------------------------------------------------------

@dataclass
class RunMetrics:
    cond_ema: np.ndarray = None
    cond_seen: np.ndarray = None
    seconds_per_100: list = field(default_factory=list)


_EMA = 0.98


def _routing_rows(bundle: ModelBundle, cond_idx: np.ndarray):
    """Per-item tailor coefficients for a batch; writes no gate state.

    Returns (rows, load) where rows is a (B, 1, n_tailor) tensor of
    unbiased coefficients, differentiable into the gate, or (B, 1, 0) when
    the branch has no tailors, and ``load`` the int64 (n_tailor,) count of
    the items routed to each tailor; ``np.flatnonzero(load)`` lists the
    batch's active tailors.
    """
    gate = bundle.gate
    unique, position, counts = np.unique(cond_idx, return_inverse=True,
                                         return_counts=True)
    g_rows, load = [], np.zeros(gate.n_tailor, dtype=np.int64)
    for c, n in zip(unique, counts):
        alpha = route(gate, bundle.embeddings[c])
        g, active = topk_select(alpha, gate)
        record_usage(load, active, count=int(n))
        g_rows.append(g)
    stacked = g_rows[0] if len(g_rows) == 1 else T.concat(g_rows)
    rows = T.gather_rows(stacked, position[:, None])
    return rows, load


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
                                 t_idx, rows, drop_gen)
    eps_hat = denoiser_forward(bundle.den, cfg, patchify(z_t, patch), t_idx,
                               inj, drop_gen)
    eps_tok = patchify(eps, patch)
    l_diff = diffusion_loss(eps_tok, eps_hat)
    # at lambda_repa = 0 the head would only add exact zeros to gradients
    with T.no_grad() if cfg.lambda_repa == 0 else nullcontext():
        l_repa = repa_loss(f_cond, bundle.repa.encode(x_cond), bundle.repa)
    l_total = T.add(l_diff, T.mul(l_repa, cfg.lambda_repa))
    return l_diff, l_repa, l_total, eps_tok, eps_hat


def train_steps(bundle: ModelBundle, bank: DatasetBank, out_dir,
                start_step: int = 0, stop_step: int | None = None,
                opt: AdamW | None = None, metrics: RunMetrics | None = None) -> tuple:
    """Run optimizer steps [start_step, stop_step) and checkpoint at the end.

    The run's budget is its mode's ``cfg.run.steps`` (see ``config.MODES``);
    ``stop_step`` (default: the budget) is capped at it.
    A stop before ``start_step`` raises ``ContractError`` and writes nothing.
    Returns (checkpoint_path, RunMetrics).
    """
    cfg = bundle.cfg
    stop = cfg.run.steps if stop_step is None else min(stop_step, cfg.run.steps)
    if stop < start_step:
        raise ContractError(f"start_step {start_step} is past stop step {stop}")
    if opt is None:
        opt = _new_optimizer(bundle)
    if metrics is None:
        metrics = RunMetrics(cond_ema=np.zeros(len(bundle.specs)),
                             cond_seen=np.zeros(len(bundle.specs), dtype=np.int64))
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
            rows, load = _routing_rows(bundle, batch.cond_idx)
            l_diff_t, l_repa_t, total_t, eps_tok, eps_hat = _objective(
                bundle, batch.x, batch.x_cond, t_idx, eps, rows, gen)
            l_diff, l_repa, l_total = l_diff_t.item(), l_repa_t.item(), total_t.item()
            if not (np.isfinite(l_total) and np.isfinite(l_repa)):
                snap = os.path.join(out_dir, f"nan-snapshot-step{s + 1}.divc")
                save_checkpoint(snap, bundle_state(
                    bundle, opt, s, metrics,
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
            for fw in bundle.branch.factorized_weights():
                masked_gradient_apply(fw, load)
            lr = cfg.lr_at(s)
            opt.step(lr=lr)
            opt.zero_grad()
            update_biases(bundle.gate, load)
            writer.write(s + 1, l_diff, l_repa, l_total, lr, metrics.cond_ema)
            if (s + 1) % 100 == 0:
                metrics.seconds_per_100.append(time.monotonic() - t_block)
                t_block = time.monotonic()
                writer.flush()
                save_checkpoint(ckpt_path, bundle_state(bundle, opt, s + 1, metrics))
    finally:
        T.clear_tape()  # a step abandoned by an error leaves its nodes behind
        writer.close()
    if start_step == stop or stop % 100:  # else the loop has just saved step stop
        save_checkpoint(ckpt_path, bundle_state(bundle, opt, stop, metrics))
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


def _image_bank(bundle: ModelBundle) -> DatasetBank:
    """The run's training images: ``bank_size`` images from the mode's
    ``image_stream`` (see ``config.MODES``)."""
    cfg = bundle.cfg
    return DatasetBank(cfg.seed, cfg.run.bank_size, bundle.specs, cfg.image_size,
                       image_stream=cfg.run.image_stream)


def _resumed(cfg: RunConfig, resume) -> tuple:
    """(bundle, step, optimizer, RunMetrics) as checkpoint ``resume`` holds them."""
    bundle, state = _restored(resume)
    if config_digest(bundle.cfg) != config_digest(cfg):
        raise ContractError("resume checkpoint was written under a different config")
    opt = _new_optimizer(bundle)
    for name, p in opt.params.items():
        opt.m[name] = _block(state, "opt/m/" + name, p.data.shape)
        opt.v[name] = _block(state, "opt/v/" + name, p.data.shape)
    opt.step_count = int(_block(state, "opt/t", (1,))[0])
    return bundle, state.step, opt, RunMetrics(
        cond_ema=_block(state, "metrics/cond_ema", (len(bundle.specs),)),
        cond_seen=_block(state, "metrics/cond_seen", (len(bundle.specs),)))


def train(cfg: RunConfig, out_dir, base_ckpt=None, resume=None) -> str:
    """Train in ``cfg.mode`` into ``out_dir``; returns the checkpoint path.

    ``base_ckpt`` is the diversion checkpoint that a mode which
    ``needs_base`` (see ``config.MODES``) grafts fresh tailors onto; the
    other modes start from random weights and take none. ``resume``
    continues the run from one of its own checkpoints, bit-exactly.
    """
    if (base_ckpt is not None) != cfg.run.needs_base:
        raise ContractError("a base checkpoint is given exactly when "
                            f"mode = adapt_frozen (mode is {cfg.mode})")
    # a resumed run checks its base as a new one does, and reads no value of it
    source = fresh if base_ckpt is None else _on_base(cfg, base_ckpt)
    if resume is None:
        bundle, start, opt, metrics = _bundle(cfg, source), 0, None, None
    else:
        bundle, start, opt, metrics = _resumed(cfg, resume)
    bank = _image_bank(bundle)
    with run_lock(out_dir):
        write_resolved_config(out_dir, resolved_text(cfg))
        return train_steps(bundle, bank, out_dir, start_step=start, opt=opt,
                           metrics=metrics)[0]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate_bundle(bundle: ModelBundle, n_samples: int | None = None,
                    sample_images: bool = True) -> dict:
    """Held-out metrics: noise-prediction loss, aligned cosine, and (when
    ``sample_images``) SSIM / encoder similarity of generated images."""
    cfg = bundle.cfg
    n = cfg.eval_samples if n_samples is None else n_samples
    bank = DatasetBank(cfg.seed, n, bundle.specs, cfg.image_size, image_stream="eval")
    cond_idx = np.arange(n) % len(bundle.specs)
    x, x_cond = bank.images, bank.conditioned(np.arange(n), cond_idx)
    gen = stream(cfg.seed, "eval-noise")
    t_idx = gen.integers(0, cfg.timesteps, n)
    eps = gen.standard_normal(x.shape)
    with T.no_grad():
        rows, _ = _routing_rows(bundle, cond_idx)
        l_diff, l_repa, _, _, _ = _objective(bundle, x, x_cond, t_idx, eps, rows)
    out = {"eval_l_diff": l_diff.item(), "eval_aligned_cosine": -l_repa.item(),
           "n_samples": n}
    if sample_images:
        samples = sample_batch(bundle.den, bundle.branch, cfg, bundle.sched,
                               x_cond, rows,
                               sample_indices=[f"eval-{i}" for i in range(n)])
        out["eval_ssim"] = float(np.mean(
            [metric_ssim(a, b) for a, b in zip(samples, x)]))
        out["eval_encoder_sim"] = float(np.mean(
            [metric_encoder_sim(bundle.repa, a, b) for a, b in zip(samples, x)]))
    return out


# ----------------------------------------------------------------------
# harnesses: ablation, alignment sweep and zero-shot routing
# ----------------------------------------------------------------------

def zero_shot_route(bundle: ModelBundle, instruction_text: str) -> tuple:
    """Route a novel instruction through a trained gate; no updates.
    Returns ``topk_select``'s ``(g, active)``, ``g`` a (1, n_tailor) row."""
    e = embed_instruction(instruction_text, bundle.cfg.encoder_seed,
                          bundle.cfg.embed_dim)
    with T.no_grad():
        alpha = route(bundle.gate, e)
        return topk_select(alpha, bundle.gate)


def ablation_arms(cfg: RunConfig) -> dict:
    """Arm name -> config. ``both`` is ``cfg``, ``diversion_only`` drops the
    alignment loss, and ``neither`` also folds the tailors into learngenes."""
    no_repa = cfg.replace(lambda_repa=0.0)
    return {"neither": no_repa.replace(n_learngene=cfg.n_learngene + cfg.n_tailor,
                                       n_tailor=0, top_k=0),
            "diversion_only": no_repa, "both": cfg}


def _train_cells(cells: dict, out_dir, **eval_kw) -> dict:
    """Train each named config into ``out_dir/<name>``, restore and evaluate it.

    Reports per name the mean ``l_diff`` of the first and the final 100
    steps, the config digest and ``evaluate_bundle(bundle, **eval_kw)``.
    """
    report = {}
    for name, cell_cfg in cells.items():
        cell_dir = os.path.join(out_dir, name)
        bundle = restore_bundle(train(cell_cfg, cell_dir))
        header, rows = read_metrics(cell_dir)  # l_diff stored as repr: bit-exact
        l_diff = [row[header.index("l_diff")] for row in rows]
        report[name] = {"first_100_mean_l_diff": float(np.mean(l_diff[:100])),
                        "final_100_mean_l_diff": float(np.mean(l_diff[-100:])),
                        "config_digest": config_digest(cell_cfg).hex(),
                        **evaluate_bundle(bundle, **eval_kw)}
    return report


def run_ablation(cfg: RunConfig, out_dir) -> dict:
    """Train the three ablation arms under identical seeds and batches."""
    return {"seed": cfg.seed, "arms": _train_cells(ablation_arms(cfg), out_dir)}


def sweep_repa(cfg: RunConfig, depths, lambdas, out_dir) -> dict:
    """Short run per (alignment depth, weight) cell; marks the argmin cell.

    The best cell is reported as observed at this scale and carries no
    claim beyond it.
    """
    depths, lambdas = list(depths), list(lambdas)
    if not depths or not lambdas:
        raise ContractError("sweep grid must be non-empty")
    # every cell's config is checked before the first cell trains
    cells = {f"depth={d},lambda={lam}": cfg.replace(repa_layer=d, lambda_repa=lam)
             for d in depths for lam in lambdas}
    report = _train_cells(cells, out_dir, n_samples=min(32, cfg.eval_samples),
                          sample_images=False)
    return {"depths": depths, "lambdas": lambdas, "cells": report,
            "argmin_cell": min(report, key=lambda k: report[k]["final_100_mean_l_diff"]),
            "note": ("argmin is what this desk-scale grid observed; "
                     "it is not claimed to transfer to other scales")}
