"""Tests of the benchmark harness itself, at the micro size.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import divbench  # noqa: E402

divbench.bootstrap()

from divbench import bench, layers, reference  # noqa: E402
from divbench.tracer import STEP_SPAN, Tracer  # noqa: E402
from divbench.workloads import WORKLOADS  # noqa: E402

DV = divbench.import_package()
SECONDS = 2
with open(os.path.join(divbench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bindings():
    """Identity of every module global and class attribute the tracer may wrap."""
    owners = [DV.training, DV.model, DV.tensor, DV.conditions.DatasetBank,
              DV.runio.MetricsWriter, DV.optim.AdamW]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke(name, tmp_path):
    result = bench.run_one(DV, name, seed=3, seconds=SECONDS, trace=False,
                           size="micro", runs_dir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in result["metrics"].values())
    assert os.listdir(tmp_path) == []   # run directories are removed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke(name, tmp_path):
    before = _bindings()
    result = bench.run_one(DV, name, seed=5, seconds=SECONDS, trace=True,
                           size="micro", runs_dir=str(tmp_path))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapped binding was not restored"
    assert result["correct"] and result["failed"] == 0
    assert result["report"]["bit_identical_to_untraced"]
    assert result["report"]["missing_targets"] == []

    tracer = result["tracer"]
    selfs = tracer.self_times()
    assert all(st >= 0 for st in selfs)
    step_spans = [s for s in tracer.spans if s.name == STEP_SPAN]
    if WORKLOADS[name].kind == "train":
        assert len(step_spans) == result["inputs"]["steps_in_window"]
    for span in step_spans:
        inside = sum(st for s, st in zip(tracer.spans, selfs)
                     if s.step == span.step)
        assert inside <= span.end - span.start
    assert all(math.isfinite(v) for v, _ in result["metrics"].values())
    assert {k: u for k, (_, u) in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_missing_target_is_skipped_and_its_metric_left_out():
    tracer = Tracer()
    assert not tracer.wrap(types.SimpleNamespace(), "masked_gradient_apply",
                           "factorized.mask")
    (label,) = tracer.missing
    assert label.endswith(".masked_gradient_apply")
    metrics = layers.per_layer_metrics(tracer, units=1, timesteps=1,
                                       untraced_s=1.0, traced_s=1.0)
    assert "factorized.mask_ms" not in metrics
    assert "factorized.mask_useful_ratio" not in metrics


def test_restore_after_exception():
    owner = types.SimpleNamespace(f=lambda: 1 / 0)
    original = owner.f
    tracer = Tracer()
    tracer.wrap(owner, "f", "x.f")
    with pytest.raises(ZeroDivisionError):
        owner.f()
    tracer.restore()
    assert owner.f is original
    (span,) = tracer.spans
    assert span.end >= span.start and tracer.self_times() == [span.end - span.start]


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    a, b = tracer.spans
    assert tracer.self_times() == [(a.end - a.start) - (b.end - b.start),
                                   b.end - b.start]
    assert b.parent == outer


def test_outputs_off_reference_count_as_failed(tmp_path, monkeypatch):
    entries = reference.load()["entries"]
    key = reference.entry_key("diversion_train", "micro", 3)
    bad = dict(entries)
    bad[key] = list(entries[key])
    bad[key][1] *= 1 + 10 * reference.RTOL
    bad[key][4] = float("nan")
    monkeypatch.setattr(reference, "load", lambda path=None: {"entries": bad})
    result = bench.run_one(DV, "diversion_train", seed=3, seconds=SECONDS,
                           trace=False, size="micro", runs_dir=str(tmp_path))
    assert not result["correct"] and result["failed"] == 2


def test_non_finite_loss_fails_its_step_and_every_later_one(tmp_path,
                                                           monkeypatch):
    original = DV.training.diffusion_loss
    calls = []

    def poisoned(*args):
        loss = original(*args)
        calls.append(1)
        if len(calls) == 3:
            loss.data = loss.data * math.nan
        return loss

    monkeypatch.setattr(DV.training, "diffusion_loss", poisoned)
    result = bench.run_one(DV, "diversion_train", seed=3, seconds=SECONDS,
                           trace=False, size="micro", runs_dir=str(tmp_path))
    steps = result["inputs"]["steps_in_window"]
    assert result["attempted"] == steps
    assert not result["correct"] and result["failed"] == steps - 2
    assert DV.tensor.tape_size() == 0


def test_eval_call_off_reference_fails_all_its_samples():
    ref = {k: 0.5 for k in reference.EVAL_KEYS}
    good = dict(ref)
    off = dict(ref, eval_ssim=0.5 + 1e-3)
    assert reference.bad_outputs("eval", [good, off, good], ref) == [False, True, False]
    assert reference.bad_outputs("train", [1.0, float("inf")], [1.0, 1.0]) == [False, True]
