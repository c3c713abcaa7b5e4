"""Run one workload, untraced or traced, and build its result."""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile

from . import RUNS, SRC, ROOT, layers, provenance, reference
from .tracer import Tracer
from .workloads import WORKLOADS, Runner, n_ops


def run_one(dv, name: str, seed: int, seconds: int, trace: bool,
            size: str = "default", runs_dir: str = RUNS) -> dict:
    """Run workload ``name`` and return its full result.

    Untraced: set up about ``setup_reps`` times and time one window; the
    metrics are the end-to-end ones. Traced: run half a window untraced,
    then set up and run the same half again with every layer wrapped; the
    metrics are the per-layer ones, and the two halves' outputs must agree
    bit for bit.
    """
    wl = WORKLOADS[name]
    input_seed = seed % reference.REFERENCE_SEEDS
    ops = n_ops(wl, seconds)
    if trace:   # two half windows, so a traced run also measures ~seconds
        ops = max(1, ops // 2)
    ref = reference.lookup(reference.load()["entries"], wl, size, input_seed,
                           ops)
    os.makedirs(runs_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=runs_dir)
    try:
        runner = Runner(dv, wl, input_seed, size, work_dir)
        runner.prepare()
        if trace:
            result = _traced(dv, runner, ops, ref)
        else:
            result = _untraced(runner, ops, ref)
    finally:
        shutil.rmtree(work_dir)
    result["inputs"] = {
        "workload": name, "seed": seed, "input_seed": input_seed,
        "size": size, "seconds": seconds, "trace": int(trace),
        "batch_size": runner.cfg.batch_size,
        "timesteps": runner.cfg.timesteps,
        "steps_in_window": ops if wl.kind == "train" else 0,
        "eval_calls": ops if wl.kind == "eval" else 0,
        "n_samples": runner.n_samples if wl.kind == "eval" else 0,
        "setup_reps": 0 if trace else wl.setup_reps,
        "windows": 2 if trace else 1,
        "ops_per_window": ops * runner.per_call,
    }
    result["provenance"] = provenance.collect(ROOT, SRC)
    return result


def _untraced(runner: Runner, ops: int, ref) -> dict:
    wl = runner.wl
    per_gap = max(1, wl.setup_reps // (runner.n_calls(ops) + 1))
    setups = []

    def set_up():
        for _ in range(per_gap):
            state = None   # let the previous set-up go before building the next
            dt, state = runner.timed_setup()
            setups.append(dt)
        return state

    # Set-ups run before the window and after each of its calls, so that
    # setup_s samples the same mix of fast and slow machine phases as
    # op_ms instead of one short burst.
    walls, outs = runner.window(set_up(), ops, gap=set_up)
    failed = runner.per_call * sum(reference.bad_outputs(wl.kind, outs, ref))
    # Whole-window mean: under this machine's two-speed interference it
    # varies less from run to run than a median of per-call times.
    op_ms = 1e3 * sum(sec for sec, _ in walls) / sum(n for _, n in walls)
    if wl.kind == "eval":
        report = {"eval_s": statistics.mean(sec for sec, _ in walls)}
    else:
        report = {"step_ms": op_ms}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms": (op_ms, "ms"),
        "peak_rss_mb": (provenance.peak_rss_mb(), "MB"),
    }
    report.update({"setup_s_each": setups,
                   "call_s_each": [sec for sec, _ in walls]})
    return {"correct": failed == 0, "attempted": ops * runner.per_call,
            "failed": failed, "metrics": metrics, "report": report,
            "outputs": outs}


def _traced(dv, runner: Runner, ops: int, ref) -> dict:
    wl = runner.wl
    _, state = runner.timed_setup()
    walls_u, outs_u = runner.window(state, ops)
    state = None
    tracer = Tracer()
    layers.install(tracer, dv)
    try:
        tracer.phase = "setup"
        _, state = runner.timed_setup()
        tracer.phase = "window"
        walls_t, outs_t = runner.window(state, ops)
    finally:
        tracer.restore()
    # An operation of the traced run also fails when its output differs in
    # any bit from the untraced run's.
    mismatched = sum(a != b for a, b in zip(outs_u, outs_t))
    bad = reference.bad_outputs(wl.kind, outs_u, ref) + [
        b or u != t for b, u, t in
        zip(reference.bad_outputs(wl.kind, outs_t, ref), outs_u, outs_t)]
    metrics = layers.per_layer_metrics(
        tracer, units=ops, timesteps=runner.cfg.timesteps,
        untraced_s=sum(sec for sec, _ in walls_u),
        traced_s=sum(sec for sec, _ in walls_t))
    return {"correct": not any(bad), "attempted": 2 * ops * runner.per_call,
            "failed": runner.per_call * sum(bad), "metrics": metrics,
            "report": {"bit_identical_to_untraced": mismatched == 0,
                       "missing_targets": tracer.missing},
            "outputs": outs_t, "tracer": tracer}


def contract_line(result: dict) -> dict:
    """The last line the benchmark prints: exactly four keys."""
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in result["metrics"].items()}}
