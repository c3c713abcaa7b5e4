"""Run-directory plumbing: metrics CSV, summaries, locks."""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ContractError

METRICS_FILE = "metrics.csv"
SUMMARY_FILE = "summary.json"
RESOLVED_CONFIG_FILE = "resolved-config.txt"
LOCK_FILE = ".divc-lock"


class MetricsWriter:
    """Append-only CSV stream; one row per optimizer step.

    ``resume_step`` > 0 continues an existing file from that step: rows past
    it, written by a run that died after its last checkpoint, are dropped
    first. 0 starts a new file.
    """

    def __init__(self, run_dir, condition_ids, resume_step: int = 0):
        self.path = os.path.join(run_dir, METRICS_FILE)
        if resume_step > 0 and os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            kept = lines[:1] + [ln for ln in lines[1:] if ln.endswith("\n")
                                and int(ln.split(",", 1)[0]) <= resume_step]
            if len(kept) < len(lines):
                replace_file(self.path, "".join(kept))
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(",".join(["step", "l_diff", "l_repa", "l_total", "lr"]
                                    + [f"cond_{c}" for c in condition_ids]) + "\n")

    def write(self, step: int, l_diff: float, l_repa: float, l_total: float,
              lr: float, per_condition) -> None:
        row = [str(step)] + [repr(float(v))
                             for v in (l_diff, l_repa, l_total, lr)]
        row += [repr(float(v)) for v in per_condition]
        self._fh.write(",".join(row) + "\n")

    def flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self.flush()
        self._fh.close()


def read_metrics(run_dir):
    path = os.path.join(run_dir, METRICS_FILE)
    if not os.path.exists(path):
        raise ContractError(f"no metrics found under '{run_dir}'")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def export_metrics(run_dir, extra: dict | None = None) -> dict:
    """Write summary.json from metrics.csv and ``extra`` alone, replacing any
    previous summary.

    The ``extra`` keys are written as given. When the CSV holds rows, the
    summary adds ``steps_recorded``, the ``final`` row and
    ``final_100_mean_l_diff``; a header-only CSV adds none of them.
    """
    header, rows = read_metrics(run_dir)
    summary = dict(extra or {})
    if rows:
        last = dict(zip(header, rows[-1]))
        summary["steps_recorded"] = len(rows)
        summary["final"] = {k: last[k] for k in header}
        tail = rows[-min(100, len(rows)):]
        idx = {name: i for i, name in enumerate(header)}
        summary["final_100_mean_l_diff"] = float(
            np.mean([r[idx["l_diff"]] for r in tail]))
    replace_file(os.path.join(run_dir, SUMMARY_FILE),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def replace_file(path, data) -> None:
    """Write ``data`` (text as UTF-8, bytes, or an iterable of byte chunks
    written in turn) to ``path`` through the temp file ``<path>.tmp`` and an
    atomic rename; an error removes the temp file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    tmp = f"{path}.tmp"
    try:
        # a buffer this size gathers a checkpoint's small chunks into few writes
        with open(tmp, "wb", buffering=1 << 18) as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_resolved_config(run_dir, text: str) -> None:
    replace_file(os.path.join(run_dir, RESOLVED_CONFIG_FILE), text)


@contextmanager
def run_lock(run_dir):
    """Single-writer lock on a run directory: an exclusive ``flock`` on its
    lock file, which holds the holder's pid.

    The kernel drops the lock when its holder dies, so a killed run's lock
    is taken over; a lock held by a live process raises ``ContractError``.
    """
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, LOCK_FILE)
    locked = False
    while not locked:
        fd = os.open(path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks the file before it unlocks it: then retry
            with suppress(FileNotFoundError):
                locked = os.path.samestat(os.fstat(fd), os.stat(path))
        except BlockingIOError:
            raise ContractError(
                f"run directory '{run_dir}' is locked by another writer") from None
        finally:
            if not locked:
                os.close(fd)
    try:
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        try:
            with suppress(FileNotFoundError):
                os.unlink(path)
        finally:
            os.close(fd)
