"""Run-directory files: the single-writer lock and the resolved config."""

import dataclasses
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from divcontrol import runio
from divcontrol.checkpoint import CheckpointState, save_checkpoint
from divcontrol.errors import ContractError
from divcontrol.runio import (LOCK_FILE, METRICS_FILE, RESOLVED_CONFIG_FILE,
                              export_metrics, run_lock, write_resolved_config)


def test_second_acquisition_fails_and_keeps_the_holders_lock(tmp_path):
    lock = tmp_path / LOCK_FILE
    with run_lock(tmp_path):
        with pytest.raises(ContractError, match="locked by another writer"):
            with run_lock(tmp_path):
                pass
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()


def test_lock_file_holds_the_pid_and_goes_when_the_body_returns(tmp_path):
    run = tmp_path / "run"   # run_lock creates the directory
    with run_lock(run):
        assert (run / LOCK_FILE).read_text() == str(os.getpid())
    assert not (run / LOCK_FILE).exists()


def test_lock_file_goes_when_the_body_raises(tmp_path):
    with pytest.raises(RuntimeError, match="body failed"):
        with run_lock(tmp_path):
            raise RuntimeError("body failed")
    assert not (tmp_path / LOCK_FILE).exists()
    with run_lock(tmp_path):   # and the directory can be locked again
        pass


def test_failed_config_write_keeps_the_previous_file(tmp_path, monkeypatch):
    write_resolved_config(tmp_path, "seed = 1\n")
    before = (tmp_path / RESOLVED_CONFIG_FILE).read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(runio.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_resolved_config(tmp_path, "seed = 2\n")
    assert (tmp_path / RESOLVED_CONFIG_FILE).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [RESOLVED_CONFIG_FILE]


def test_failed_checkpoint_and_summary_writes_keep_the_previous_files(
        tmp_path, monkeypatch):
    state = CheckpointState(step=1, config_digest=bytes(32), meta={"k": "v"})
    save_checkpoint(tmp_path / "checkpoint.divc", state)
    (tmp_path / METRICS_FILE).write_text("step,l_diff\n1,0.5\n")
    export_metrics(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(runio.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "checkpoint.divc", dataclasses.replace(state, step=2))
    with pytest.raises(OSError, match="disk full"):
        export_metrics(tmp_path, extra={"k": "v"})
    # the old files are intact and no temp file is left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class _FailsMidWrite:
    """A file that takes half the chunks it is given, then reports a full disk."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        chunks = list(chunks)
        self.fh.writelines(chunks[:len(chunks) // 2])
        self.fh.flush()
        raise OSError("disk full")


def test_checkpoint_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    arrays = {f"w{i}": np.full((4, 5), float(i)) for i in range(6)}
    state = CheckpointState(step=1, config_digest=bytes(32), arrays=arrays)
    save_checkpoint(tmp_path / "checkpoint.divc", state)
    before = (tmp_path / "checkpoint.divc").read_bytes()
    monkeypatch.setattr(runio, "open", _FailsMidWrite, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "checkpoint.divc", dataclasses.replace(state, step=2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.divc"]
    assert (tmp_path / "checkpoint.divc").read_bytes() == before


_HOLD_LOCK = """
import sys, time
from divcontrol.runio import run_lock
with run_lock(sys.argv[1]):
    print("locked", flush=True)
    time.sleep(60)
"""


def test_lock_of_a_killed_run_is_taken_over(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(runio.__file__)))
    child = subprocess.Popen([sys.executable, "-c", _HOLD_LOCK, str(tmp_path)],
                             stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": src})
    try:
        assert child.stdout.readline() == "locked\n"
        with pytest.raises(ContractError, match="locked by another writer"):
            with run_lock(tmp_path):   # the holder is alive
                pass
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=10) == -signal.SIGKILL
    finally:
        child.kill()
        child.stdout.close()
    lock = tmp_path / LOCK_FILE
    assert lock.read_text() == str(child.pid)   # the killed run left its lock
    with run_lock(tmp_path):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()


def test_lock_naming_a_live_pid_that_holds_no_lock_is_taken_over(tmp_path):
    # a pid in a stale lock file can belong to a live process by now
    lock = tmp_path / LOCK_FILE
    lock.write_text(str(os.getppid()))
    with run_lock(tmp_path):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()


_ENTER_TOGETHER = """
import os, sys, time
from divcontrol.errors import ContractError
from divcontrol.runio import run_lock
run_dir, log, go = sys.argv[1:]
print("ready", flush=True)
while not os.path.exists(go):
    time.sleep(0.0005)
try:
    with run_lock(run_dir):
        for mark in ("in", "out"):
            with open(log, "a") as fh:
                fh.write(mark + "\\n")
            time.sleep(0.2)
except ContractError:
    pass
"""


def test_two_takeovers_of_a_dead_pid_lock_never_overlap(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(runio.__file__)))
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait(timeout=10)
    run, log, go = tmp_path / "run", tmp_path / "log", tmp_path / "go"
    run.mkdir()
    (run / LOCK_FILE).write_text(str(dead.pid))
    children = [subprocess.Popen([sys.executable, "-c", _ENTER_TOGETHER, str(run),
                                  str(log), str(go)], stdout=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
                for _ in range(2)]
    try:
        for child in children:
            assert child.stdout.readline() == "ready\n"
        go.touch()
        for child in children:
            assert child.wait(timeout=30) == 0
    finally:
        for child in children:
            child.kill()
            child.stdout.close()
    marks = log.read_text().split()
    assert marks and marks == ["in", "out"] * (len(marks) // 2)
    assert not (run / LOCK_FILE).exists()
