"""Benchmark harness for the divcontrol package (see perfbench/README.md)."""

import json
import os
import sys

BLAS_THREADS = 1
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")


def run_seconds() -> int:
    """``run_seconds`` from BENCHMARK.json: the default length of a window."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["run_seconds"])


def bootstrap() -> None:
    """Pin BLAS threads and put the package source on the path.

    Call before numpy is imported. Every gemm in this model is at most
    16x128 per item, where a second OpenBLAS thread costs more in
    hand-off than it saves (101 vs 88 ms/step on 2 cores) and makes runs
    on a shared machine less steady; one thread never exceeds nproc.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_package():
    """Import the divcontrol package and the modules the benchmark calls."""
    import divcontrol.conditions
    import divcontrol.config
    import divcontrol.errors
    import divcontrol.model
    import divcontrol.optim
    import divcontrol.runio
    import divcontrol.tensor
    import divcontrol.training
    return divcontrol
