"""Check that another source tree trains and evaluates bit for bit as this one.

    python tools/parity.py OTHER_TREE

Each tree runs in its own subprocess, importing ``divcontrol`` from its own
``src/`` with ``OPENBLAS_NUM_THREADS=1``, and makes the same five runs:

- ``micro_diversion_105``: the micro config in diversion mode, 105 steps
  (so past the step-100 checkpoint);
- ``micro_adapt_frozen_30`` and ``micro_scratch_30``: 30 adaptation steps
  on that base and on a random one;
- ``micro_resumed_100_to_120``: a 120-step diversion run stopped at step
  100, then resumed by ``train`` into a new directory;
- ``default_30``: the default config, 30 steps.

It compares the SHA-256 of each run's ``checkpoint.divc``, ``metrics.csv``
and ``summary.json`` (without the timing key ``seconds_per_100_steps``), and
every value ``evaluate_bundle`` returns for the diversion checkpoint as
``restore_bundle`` reads it back. It prints a Markdown table and exits 1 on
any difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("checkpoint.divc", "metrics.csv", "summary.json")


def _digest(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("summary.json"):
        summary = json.loads(data)
        summary.pop("seconds_per_100_steps", None)
        data = json.dumps(summary, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _runs(out) -> dict:
    """Make the five runs under ``out``; return their digests and the
    evaluation (float values as hex, so equal means bit-identical)."""
    from divcontrol import training
    from divcontrol.config import resolve_config
    from divcontrol.gradcheck import micro_config

    cfg = micro_config(0).replace(steps=105, eval_samples=4, adapt_steps=30,
                                  adapt_images=4, adapt_n_tailor=2, adapt_top_k=1)
    dirs = {name: os.path.join(out, name) for name in (
        "micro_diversion_105", "micro_adapt_frozen_30", "micro_scratch_30",
        "micro_resumed_100_to_120", "default_30")}
    base = training.train(cfg, dirs["micro_diversion_105"])
    training.train(cfg.replace(mode="adapt_frozen"), dirs["micro_adapt_frozen_30"],
                   base_ckpt=base)
    training.train(cfg.replace(mode="scratch"), dirs["micro_scratch_30"])
    long = cfg.replace(steps=120)
    bundle = training.build_diversion_bundle(long)
    at_100, _ = training.train_steps(bundle, training._image_bank(bundle),
                                     os.path.join(out, "stopped_at_100"), stop_step=100)
    training.train(long, dirs["micro_resumed_100_to_120"], resume=at_100)
    training.train(resolve_config(overrides=dict(steps=30)), dirs["default_30"])
    evaluation = training.evaluate_bundle(training.restore_bundle(base))
    return {"package": os.path.dirname(training.__file__),
            "sha256": {run: {f: _digest(os.path.join(d, f)) for f in FILES}
                       for run, d in dirs.items()},
            "evaluate_bundle": {k: float(v).hex() if isinstance(v, float) else v
                                for k, v in evaluation.items()}}


def _start(tree, out):
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", out],
        env=env, stdout=subprocess.PIPE, text=True)


def main(other) -> int:
    trees = {"this": ROOT, "other": os.path.abspath(other)}
    with tempfile.TemporaryDirectory() as tmp:
        procs = {side: _start(tree, os.path.join(tmp, side))
                 for side, tree in trees.items()}
        outs = {side: p.communicate()[0] for side, p in procs.items()}
    for side, p in procs.items():
        if p.returncode:
            print(f"{side} tree ({trees[side]}) failed with exit code {p.returncode}")
            return 1
    this, other = (json.loads(outs[side]) for side in trees)
    for side, result in (("this", this), ("other", other)):
        expected = os.path.join(trees[side], "src", "divcontrol")
        if os.path.realpath(result["package"]) != os.path.realpath(expected):
            print(f"{side} tree imported divcontrol from {result['package']}")
            return 1
    rows = [(run, f, this["sha256"][run][f], other["sha256"].get(run, {}).get(f, "-"))
            for run in this["sha256"] for f in FILES]
    rows += [("evaluate_bundle", k, str(v), str(other["evaluate_bundle"].get(k, "-")))
             for k, v in this["evaluate_bundle"].items()]
    differ = ((this["sha256"], this["evaluate_bundle"])
              != (other["sha256"], other["evaluate_bundle"]))
    print(f"Parity of {trees['this']} against {trees['other']}:\n")
    print("| run | output | this tree | other tree | equal |")
    print("|---|---|---|---|---|")
    for run, name, a, b in rows:
        width = 16 if name in FILES else None  # a digest's first 16 hex digits
        print(f"| {run} | {name} | `{a[:width]}` | `{b[:width]}` | "
              f"{'yes' if a == b else 'NO'} |")
    print(f"\n{'Some outputs differ.' if differ else 'Every output is identical.'}")
    return int(differ)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(_runs(sys.argv[2])))
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
