"""The benchmark's workloads, run through the package's own entry points.

Every workload builds its inputs from one integer seed and calls the same
public functions a user would: ``build_diversion_bundle`` or
``build_adapt_bundle``, ``DatasetBank``, ``train_steps`` and
``evaluate_bundle``. A workload has three parts:

* ``prepare`` runs once per process and is not timed (the adaptation
  workload writes its base checkpoint here);
* ``setup`` is what ``setup_s`` times: bundle build, image bank, filling
  the lazy condition-image cache, and checkpoint load plus surgery where
  the workload has them;
* ``window`` is the measured part: TRAIN_CALLS consecutive
  ``train_steps`` calls, or a series of ``evaluate_bundle`` calls. It
  returns the wall time of each call and one output per step or call (the
  ``l_total`` of each optimizer step, or the metrics of each
  ``evaluate_bundle`` call), which are checked against the reference.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

# Sizes of the inputs. "micro" is a few-millisecond configuration for the
# benchmark's own tests; "default" is the package's default configuration.
SIZES = {
    "default": {},
    "micro": dict(image_size=8, patch_size=4, token_dim=16, mlp_hidden=32,
                  layers=1, controlnet_layers=1, timesteps=10, repa_layer=1,
                  repa_dim=8, repa_hidden=12, embed_dim=16, n_learngene=4,
                  n_tailor=4, top_k=2, batch_size=4, dataset_size=16,
                  adapt_n_tailor=2, adapt_top_k=1, adapt_images=8),
}
EVAL_SAMPLES = {"default": 8, "micro": 4}
TRAIN_CALLS = 5       # train_steps calls per training window
BASE_STEPS = 2        # diversion steps behind the adaptation base checkpoint
BASE_BANK_IMAGES = 64  # images in the bank those base steps draw from


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "eval"
    why: str
    setup_reps: int        # set-ups per run, spread over it; setup_s is their median
    ops_per_second: float  # optimizer steps, or evaluate_bundle calls, per --seconds


WORKLOADS = {w.name: w for w in (
    Workload("diversion_train", "train",
             "default diversion training over 8 basic conditions: forward, "
             "backward, AdamW over 223 tensors and 8-way routing every step",
             setup_reps=6, ops_per_second=10),
    Workload("few_shot_adapt", "train",
             "adaptation of fresh tailors on a frozen base: same forward and "
             "backward, 74 trainable tensors and 1 routed condition per step",
             setup_reps=18, ops_per_second=12),
    Workload("ddpm_eval", "eval",
             "evaluate_bundle with 100-step DDPM sampling under no_grad: "
             "forward kernels only, no tape, backward or optimizer",
             setup_reps=30, ops_per_second=0.45),
)}


def n_ops(workload: Workload, seconds: int) -> int:
    """Optimizer steps (train) or evaluate_bundle calls (eval) in a window."""
    return max(1, round(seconds * workload.ops_per_second))


class Runner:
    """One workload at one input seed and size, bound to the package ``dv``."""

    def __init__(self, dv, workload: Workload, input_seed: int, size: str,
                 work_dir):
        self.dv = dv
        self.wl = workload
        self.work_dir = work_dir
        self.cfg = dv.config.resolve_config(
            overrides={**SIZES[size], "seed": input_seed})
        self.n_samples = EVAL_SAMPLES[size]
        # operations per output: an eval call generates n_samples samples
        self.per_call = self.n_samples if workload.kind == "eval" else 1
        self._base_ckpt = None
        self._dirs = 0

    def _new_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def prepare(self) -> None:
        """Write the adaptation base checkpoint (few_shot_adapt only)."""
        if self.wl.name != "few_shot_adapt":
            return
        tr = self.dv.training
        base = tr.build_diversion_bundle(self.cfg)
        bank = self.dv.conditions.DatasetBank(
            self.cfg.seed, BASE_BANK_IMAGES, base.specs, self.cfg.image_size)
        self._base_ckpt, _ = tr.train_steps(base, bank, self._new_dir("base"),
                                            stop_step=BASE_STEPS)

    def setup(self):
        tr, cfg = self.dv.training, self.cfg
        if self.wl.name == "ddpm_eval":
            return tr.build_diversion_bundle(cfg), None
        if self.wl.name == "few_shot_adapt":
            acfg = cfg.replace(mode="adapt_frozen")
            bundle = tr.build_adapt_bundle(acfg, self._base_ckpt)
            bundle.cfg = acfg.replace(steps=acfg.adapt_steps)
            bank = self.dv.conditions.DatasetBank(
                acfg.seed, acfg.adapt_images, bundle.specs, acfg.image_size,
                image_stream="adapt-image")
        else:
            bundle = tr.build_diversion_bundle(cfg)
            bank = self.dv.conditions.DatasetBank(
                cfg.seed, cfg.dataset_size, bundle.specs, cfg.image_size)
        for c in range(len(bundle.specs)):
            bank.condition_images(c)
        return bundle, bank

    def timed_setup(self):
        t0 = time.perf_counter()
        state = self.setup()
        return time.perf_counter() - t0, state

    def n_calls(self, ops: int) -> int:
        return ops if self.wl.kind == "eval" else min(TRAIN_CALLS, ops)

    def window(self, state, ops: int, gap=None):
        """Run the measured calls; return ([(seconds, ops) per call], outputs).

        ``gap()``, when given, runs after every call, outside the timing.
        """
        bundle, bank = state
        walls, outs = [], []
        if self.wl.kind == "eval":
            for _ in range(ops):
                t0 = time.perf_counter()
                outs.append(self.dv.training.evaluate_bundle(
                    bundle, n_samples=self.n_samples, sample_images=True))
                walls.append((time.perf_counter() - t0, self.n_samples))
                if gap is not None:
                    gap()
            return walls, outs
        if ops > bundle.cfg.steps:
            raise ValueError(f"window of {ops} steps exceeds the configured "
                             f"{bundle.cfg.steps}")
        # Consecutive train_steps calls continue one run through the resume
        # path: the same optimizer, running metrics and run directory.
        cfg = bundle.cfg
        opt = self.dv.optim.AdamW(
            bundle.trainable_params(), lr=cfg.lr,
            betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay)
        out_dir, metrics = self._new_dir("train"), None
        calls = self.n_calls(ops)
        bounds = [round(i * ops / calls) for i in range(calls + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            t0 = time.perf_counter()
            try:
                _, metrics = self.dv.training.train_steps(
                    bundle, bank, out_dir, start_step=start, stop_step=stop,
                    opt=opt, metrics=metrics)
            except self.dv.errors.NumericError:
                # A non-finite loss ends the run: that step and every later
                # one have no row in metrics.csv and count as failed. The
                # abandoned step's tape is dropped so no later run sees it.
                self.dv.tensor.clear_tape()
                walls.append((time.perf_counter() - t0, stop - start))
                break
            walls.append((time.perf_counter() - t0, stop - start))
            if gap is not None:
                gap()
        return walls, read_l_total(out_dir, ops)


def read_l_total(run_dir, steps: int) -> list:
    """The ``l_total`` of steps 1..steps from a run's metrics.csv.

    A step with no row, because the run stopped before it, reads NaN.
    """
    with open(os.path.join(run_dir, "metrics.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["step"]) for r in rows] != list(range(1, len(rows) + 1)) \
            or len(rows) > steps:
        raise ValueError(f"metrics.csv under {run_dir} does not hold steps "
                         f"1..{len(rows)} of at most {steps}")
    return ([float(r["l_total"]) for r in rows]
            + [math.nan] * (steps - len(rows)))
