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

    ``resume_step`` > 0 continues a non-empty file from that step: rows past
    it, written by a run that died after its last checkpoint, are dropped
    first. 0, or a missing or empty file, starts a new file.
    """

    def __init__(self, run_dir, condition_ids, resume_step: int):
        self.path = os.path.join(run_dir, METRICS_FILE)
        if resume_step > 0 and os.path.exists(self.path) and os.path.getsize(self.path):
            lines = _lines(self.path)
            kept = lines[:1] + [ln for i, ln in enumerate(lines[1:], 2) if ln.endswith("\n")
                                and _numbers(self.path, i, ln)[0] <= resume_step]
            if len(kept) < len(lines):
                replace_file(self.path, "".join(kept))
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(",".join(["step", "l_diff", "l_repa", "l_total", "lr"]
                                    + [f"cond_{c}" for c in condition_ids]) + "\n")
            self.flush()  # a run killed before its first checkpoint keeps its header

    def write(self, step: int, l_diff: float, l_repa: float, l_total: float,
              lr: float, per_condition) -> None:
        values = (l_diff, l_repa, l_total, lr, *per_condition)
        self._fh.write(",".join([str(step)] + [repr(float(v)) for v in values]) + "\n")

    def flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self.flush()
        self._fh.close()


def _lines(path) -> list:
    """The lines of the text file ``path``; ContractError if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as e:
        raise ContractError(f"{path} is not UTF-8 text: {e}") from None


def _numbers(path, lineno: int, line: str) -> list:
    """The comma-separated numbers on line ``lineno`` of the file ``path``."""
    try:
        return [float(v) for v in line.split(",")]
    except ValueError as e:
        raise ContractError(f"{path}, line {lineno}: {e}") from None


def read_metrics(run_dir):
    path = os.path.join(run_dir, METRICS_FILE)
    if not os.path.exists(path):
        raise ContractError(f"no metrics found under '{run_dir}'")
    lines = [(i, ln.strip()) for i, ln in enumerate(_lines(path), 1) if ln.strip()]
    if not lines:
        raise ContractError(f"{path} is empty: it has no header line")
    header = lines[0][1].split(",")
    return header, [_numbers(path, i, ln) for i, ln in lines[1:]]


def export_metrics(run_dir, extra: dict) -> dict:
    """Write summary.json from metrics.csv and ``extra`` alone, replacing any
    previous summary.

    The ``extra`` keys are written as given. When the CSV holds rows, the
    summary adds ``steps_recorded``, the ``final`` row and
    ``final_100_mean_l_diff``; a header-only CSV adds none of them.
    """
    header, rows = read_metrics(run_dir)
    summary = dict(extra)
    if rows:
        last = dict(zip(header, rows[-1]))
        summary["steps_recorded"] = len(rows)
        summary["final"] = {k: last[k] for k in header}
        tail = rows[-min(100, len(rows)):]
        i = header.index("l_diff")
        summary["final_100_mean_l_diff"] = float(np.mean([r[i] for r in tail]))
    replace_file(os.path.join(run_dir, SUMMARY_FILE),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def replace_file(path, data) -> None:
    """Write ``data`` (text as UTF-8, or an iterable of byte chunks written in
    turn) to ``path`` through the temp file ``<path>.tmp`` and an atomic
    rename; an error removes the temp file.

    The temp file is fsynced before the rename, so the rename cannot reach
    the disk ahead of the data, and the directory after it, so the rename
    itself survives a power loss."""
    if isinstance(data, str):
        data = (data.encode("utf-8"),)
    tmp = f"{path}.tmp"
    try:
        # a buffer this size gathers a checkpoint's small chunks into few writes
        with open(tmp, "wb", buffering=1 << 18) as fh:
            fh.writelines(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
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
