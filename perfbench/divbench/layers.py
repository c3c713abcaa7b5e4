"""Which functions the traced run times, and the per-layer metrics.

Each target is wrapped at the binding its caller looks up: ``training``
imports most layer functions into its own namespace, so those are wrapped
there, while ``sample_batch`` reaches the forward passes through ``model``
and ``train_steps`` calls ``T.backward`` through ``tensor``. Methods are
wrapped on their class.

A metric lists the spans it is built from; when none of them could be
wrapped (the function was renamed or deleted), the metric is left out.
"""

from __future__ import annotations

import os

from .tracer import STEP_SPAN, Tracer

_MS = 1e-6   # ns -> ms
_S = 1e-9    # ns -> s


def install(tracer: Tracer, dv) -> None:
    """Wrap every layer boundary of the ``divcontrol`` package ``dv``."""
    tr, model, tensor = dv.training, dv.model, dv.tensor
    bank_cls, writer_cls, opt_cls = (dv.conditions.DatasetBank,
                                     dv.runio.MetricsWriter, dv.optim.AdamW)
    filled: set = set()

    def cache_span(args):
        # The first call per (bank, condition) fills the lazy cache.
        key = (id(args[0]), args[1])
        if key in filled:
            return "conditions.cache_hit"
        filled.add(key)
        return "conditions.cache_fill"

    def new_bank(t, args, kwargs, result):
        # A new bank may reuse the id of a freed one.
        filled.difference_update({k for k in filled if k[0] == id(args[0])})

    def tape_nodes(t, args, kwargs):
        if hasattr(tensor, "tape_size"):
            t.count("tape_nodes", tensor.tape_size())

    def mask_result(t, args, kwargs, result):
        t.count("mask_useful", 1 if result else 0)

    def optim_sizes(t, args, kwargs):
        params = args[0].params
        t.count("optim_tensors", len(params))
        t.count("optim_elements", sum(p.data.size for p in params.values()))

    def ckpt_bytes(t, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        if path is not None and os.path.exists(path):
            t.count("checkpoint_bytes", os.path.getsize(path))

    w = tracer.wrap
    w(tr, "train_steps", "training.train_steps")
    w(tr, "evaluate_bundle", "training.evaluate_bundle")
    # data: a step starts where its batch is built
    w(tr, "_build_batch", "conditions.batch",
      before=lambda t, a, k: t.begin_step(),
      provides=("conditions.batch", STEP_SPAN))
    w(bank_cls, "__init__", "conditions.bank_build", after=new_bank)
    w(bank_cls, "condition_images", cache_span,
      provides=("conditions.cache_fill", "conditions.cache_hit"))
    w(tr, "metric_ssim", "conditions.ssim")
    w(tr, "metric_encoder_sim", "conditions.encoder_sim")
    # gate
    w(tr, "_routing_rows", "gate.routing")
    w(tr, "route", "gate.route")
    w(tr, "topk_select", "gate.topk")
    w(tr, "record_usage", "gate.record_usage")
    w(tr, "update_biases", "gate.update_biases")
    # model
    for owner in (tr, model):
        w(owner, "branch_forward", "model.branch_forward")
        w(owner, "denoiser_forward", "model.denoiser_forward")
    w(tr, "diffusion_loss", "model.diffusion_loss")
    w(tr, "repa_loss", "model.repa_loss")
    w(tr, "sample_batch", "model.sample_batch")
    # tape, mask pass, optimizer
    w(tensor, "backward", "tensor.backward", before=tape_nodes)
    w(tr, "masked_gradient_apply", "factorized.mask", after=mask_result)
    w(opt_cls, "step", "optim.step", before=optim_sizes)
    w(opt_cls, "zero_grad", "optim.zero_grad")
    # checkpoint and run files
    w(tr, "bundle_state", "checkpoint.bundle_state")
    w(tr, "save_checkpoint", "checkpoint.save", after=ckpt_bytes)
    w(tr, "load_checkpoint", "checkpoint.load")
    w(writer_cls, "__init__", "runio.open")
    w(writer_cls, "write", "runio.write")
    w(writer_cls, "flush", "runio.flush")
    w(writer_cls, "close", "runio.close",
      before=lambda t, a, k: t.end_step())
    w(tr, "export_metrics", "runio.export")


# (metric in ms per unit, spans whose self time it sums); a unit is one
# optimizer step on the training workloads and one evaluate_bundle call on
# ddpm_eval.
SELF_MS_METRICS = [
    ("conditions.batch_ms", ("conditions.batch", "conditions.cache_hit")),
    ("conditions.eval_metrics_ms", ("conditions.ssim", "conditions.encoder_sim")),
    ("gate.route_ms", ("gate.routing", "gate.route", "gate.topk",
                       "gate.record_usage")),
    ("gate.update_ms", ("gate.update_biases",)),
    ("model.branch_fwd_ms", ("model.branch_forward",)),
    ("model.denoiser_fwd_ms", ("model.denoiser_forward",)),
    ("model.loss_ms", ("model.diffusion_loss", "model.repa_loss")),
    ("tensor.backward_ms", ("tensor.backward",)),
    ("factorized.mask_ms", ("factorized.mask",)),
    ("optim.step_ms", ("optim.step", "optim.zero_grad")),
    ("runio.write_ms", ("runio.open", "runio.write", "runio.flush",
                        "runio.close", "runio.export")),
]


def _pct(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, units: int, timesteps: int,
                      untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the spans of the ``window`` and ``setup`` phases.

    ``units`` is the number of optimizer steps (or evaluate_bundle calls)
    in the traced window; ``untraced_s`` and ``traced_s`` are the wall times
    of the same window run without and with tracing.
    """
    selfs = tracer.self_times()
    window = [(s, st) for s, st in zip(tracer.spans, selfs)
              if s.phase == "window"]
    have = tracer.wrapped
    out = {}

    def put(name, unit, value, needs):
        if any(n in have for n in needs):
            out[name] = (float(value), unit)

    def self_sum(names, spans=window):
        return sum(st for s, st in spans if s.name in names)

    def durations(name, spans=tracer.spans):
        return [s.end - s.start for s in spans if s.name == name]

    n_banks = len(durations("conditions.bank_build"))
    put("conditions.bank_build_s", "s",
        _S * sum(durations("conditions.bank_build")) / max(n_banks, 1),
        ["conditions.bank_build"])
    put("conditions.cache_fill_s", "s",
        _S * sum(durations("conditions.cache_fill")) / max(n_banks, 1),
        ["conditions.cache_fill"])
    for name, spans in SELF_MS_METRICS:
        put(name, "ms", _MS * self_sum(spans) / units, spans)

    routes = [s for s, _ in window if s.name == "gate.route"]
    put("gate.conditions_routed_per_step", "count", len(routes) / units,
        ["gate.route"])
    samples = durations("model.sample_batch", [s for s, _ in window])
    put("model.sample_step_ms", "ms", _MS * _mean(samples) / timesteps,
        ["model.sample_batch"])
    put("tensor.tape_nodes_per_step", "count",
        _mean(tracer.counts.get("tape_nodes", [])), ["tensor.backward"])
    put("factorized.mask_useful_ratio", "ratio",
        _mean(tracer.counts.get("mask_useful", [])), ["factorized.mask"])
    put("optim.tensors_updated", "count",
        _mean(tracer.counts.get("optim_tensors", [])), ["optim.step"])
    put("optim.elements_updated", "count",
        _mean(tracer.counts.get("optim_elements", [])), ["optim.step"])

    saves = [s for s, _ in window if s.name == "checkpoint.save"]
    put("checkpoint.save_ms", "ms",
        _MS * self_sum(("checkpoint.save", "checkpoint.bundle_state"))
        / max(len(saves), 1), ["checkpoint.save"])
    loads = durations("checkpoint.load")
    put("checkpoint.load_ms", "ms", _MS * _mean(loads), ["checkpoint.load"])
    put("checkpoint.bytes", "B",
        _mean(tracer.counts.get("checkpoint_bytes", [])), ["checkpoint.save"])

    steps = [(s.end - s.start, st) for s, st in window if s.name == STEP_SPAN]
    step_ms = [_MS * d for d, _ in steps]
    put("training.step_ms_p50", "ms", _pct(step_ms, 50) if step_ms else 0.0,
        [STEP_SPAN])
    put("training.step_ms_p90", "ms", _pct(step_ms, 90) if step_ms else 0.0,
        [STEP_SPAN])
    put("training.step_samples", "count", len(step_ms), [STEP_SPAN])
    put("training.step_glue_ms", "ms", _MS * sum(st for _, st in steps) / units,
        [STEP_SPAN])
    put("trace.accounted_pct", "%",
        100.0 * (1 - sum(st for _, st in steps) / sum(d for d, _ in steps))
        if steps else 0.0, [STEP_SPAN])
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return out
