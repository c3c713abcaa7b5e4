"""Where a result came from: machine, Python, numpy, BLAS, code version."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource


def blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_library(np) -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_commit(root) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest(src_dir) -> str:
    """SHA-256 over the package's .py files (path and content), sorted."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect(root, src_dir) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(np),
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src_dir),
        "peak_rss_mb": peak_rss_mb(),
    }
