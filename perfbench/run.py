#!/usr/bin/env python3
"""Benchmark for the divcontrol package.

One workload, one process:

    python3 perfbench/run.py --workload diversion_train --seed 0 --seconds 15 --trace 0

Every workload, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --workload all --seed 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones. The
lines before it give the provenance and the full report. Run files, spans
and results go to ``.bench_runs/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import divbench  # noqa: E402  (sets no state on import)

divbench.bootstrap()

from divbench.workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = divbench.run_seconds()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def run_single(args) -> int:
    from divbench import bench

    try:
        dv = divbench.import_package()
    except ImportError as e:
        print(f"cannot import the divcontrol package from {divbench.SRC}: {e}",
              file=sys.stderr)
        return 2
    os.makedirs(divbench.RUNS, exist_ok=True)
    result = bench.run_one(dv, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(divbench.RUNS, f"trace-{stem}.json"))
    line = bench.contract_line(result)
    with open(os.path.join(divbench.RUNS, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, **line}, fh, indent=1, default=str)
    print("provenance " + json.dumps({**result["provenance"],
                                      **result["inputs"]}))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:16s} {name:34s} {value:>14.6g} {unit}")
    for name, value in result["report"].items():
        print(f"{args.workload:16s} {name:34s} {value}")
    print(f"{args.workload:16s} attempted {line['attempted']} failed "
          f"{line['failed']} correct {line['correct']}")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                total["correct"] = False
                continue
            line = json.loads(lines[-1])
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for metric, entry in line["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_single(args)


if __name__ == "__main__":
    sys.exit(main())
