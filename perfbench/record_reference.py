#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

For every workload, size and input seed 0..REFERENCE_SEEDS-1 this runs the
untraced window once and stores its outputs in perfbench/reference.json:
the ``l_total`` of each optimizer step of a window of BENCHMARK.json's
``run_seconds`` (training), or the metrics of one ``evaluate_bundle`` call
(evaluation). Run it only at a commit whose outputs are known to be right;
the benchmark then fails any operation that drifts past the tolerance.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import divbench  # noqa: E402

divbench.bootstrap()

from divbench import provenance, reference  # noqa: E402
from divbench.workloads import SIZES, WORKLOADS, Runner, n_ops  # noqa: E402


def main() -> int:
    seconds = divbench.run_seconds()
    dv = divbench.import_package()
    entries = {}
    os.makedirs(divbench.RUNS, exist_ok=True)
    for size in SIZES:
        for wl in WORKLOADS.values():
            ops = n_ops(wl, seconds) if wl.kind == "train" else 1
            for seed in range(reference.REFERENCE_SEEDS):
                work_dir = tempfile.mkdtemp(dir=divbench.RUNS)
                try:
                    runner = Runner(dv, wl, seed, size, work_dir)
                    runner.prepare()
                    _, outs = runner.window(runner.setup(), ops)
                finally:
                    shutil.rmtree(work_dir)
                key = reference.entry_key(wl.name, size, seed)
                entries[key] = outs if wl.kind == "train" else {
                    k: outs[0][k] for k in reference.EVAL_KEYS}
                print(key, "recorded", flush=True)
    head = {"recorded_at": provenance.git_commit(divbench.ROOT),
            "src_sha256": provenance.source_digest(divbench.SRC),
            "seconds": seconds}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    with open(reference.PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ', "entries": {\n'
                 + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
