"""Run-directory files: the single-writer lock and the resolved config."""

import dataclasses
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from divcontrol import runio
from divcontrol.checkpoint import CheckpointState, save_checkpoint
from divcontrol.errors import ContractError
from divcontrol.runio import (LOCK_FILE, METRICS_FILE, RESOLVED_CONFIG_FILE,
                              MetricsWriter, export_metrics, read_metrics, run_lock,
                              write_resolved_config)


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
    state = CheckpointState(step=1, meta={"k": "v"})
    save_checkpoint(tmp_path / "checkpoint.divc", state)
    (tmp_path / METRICS_FILE).write_text("step,l_diff\n1,0.5\n")
    export_metrics(tmp_path, extra={})
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


def test_unparsable_metrics_rows_raise_contract_errors_naming_file_and_line(tmp_path):
    path = tmp_path / METRICS_FILE
    text = "step,l_diff\n1,0.25\nxx,0.5\n"
    path.write_text(text)
    where = re.escape(f"{path}, line 3: ")
    with pytest.raises(ContractError, match=where + ".*'xx'"):
        MetricsWriter(tmp_path, [], resume_step=5)
    assert path.read_text() == text   # the resume changed nothing
    with pytest.raises(ContractError, match=where + ".*'xx'"):
        read_metrics(tmp_path)
    path.write_text("step,l_diff\n1,0.25\n\n2,oops\n")   # blank lines count too
    with pytest.raises(ContractError, match=re.escape(f"{path}, line 4: ") + ".*'oops'"):
        read_metrics(tmp_path)


def test_metrics_file_that_is_not_utf8_raises_a_contract_error_naming_it(tmp_path):
    # the writer only writes ASCII, so a byte that is not UTF-8 is damage
    path = tmp_path / METRICS_FILE
    data = b"step,l_diff\n1,0.25\n\x80"
    path.write_bytes(data)
    where = re.escape(f"{path} is not UTF-8 text")
    with pytest.raises(ContractError, match=where):
        MetricsWriter(tmp_path, [], resume_step=1)
    assert path.read_bytes() == data   # the resume changed nothing
    with pytest.raises(ContractError, match=where):
        read_metrics(tmp_path)


def test_empty_metrics_file_raises_a_contract_error_naming_it(tmp_path):
    path = tmp_path / METRICS_FILE
    path.write_text("")
    with pytest.raises(ContractError, match=re.escape(f"{path} is empty")):
        read_metrics(tmp_path)
    with pytest.raises(ContractError, match=re.escape(f"{path} is empty")):
        export_metrics(tmp_path, extra={})


def test_new_metrics_file_holds_its_header_before_the_first_flush(tmp_path):
    writer = MetricsWriter(tmp_path, ["edge", "blur"], resume_step=0)
    try:
        # a run killed here, before any row, leaves a readable file
        assert (tmp_path / METRICS_FILE).read_text() == (
            "step,l_diff,l_repa,l_total,lr,cond_edge,cond_blur\n")
        assert read_metrics(tmp_path) == (
            ["step", "l_diff", "l_repa", "l_total", "lr", "cond_edge", "cond_blur"], [])
    finally:
        writer.close()


def test_resume_onto_an_empty_metrics_file_writes_the_header_first(tmp_path):
    # a 0-byte file is what a run killed before its header reached the disk
    # leaves: a resume treats it as missing, so its first row is no header
    (tmp_path / METRICS_FILE).write_text("")
    writer = MetricsWriter(tmp_path, ["edge"], resume_step=5)
    writer.write(6, 0.5, 0.25, 0.75, 1e-3, [0.5])
    writer.close()
    assert read_metrics(tmp_path) == (
        ["step", "l_diff", "l_repa", "l_total", "lr", "cond_edge"],
        [[6.0, 0.5, 0.25, 0.75, 1e-3, 0.5]])


def test_replace_file_fsyncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def record_replace(src, dst):
        calls.append(("replace", str(src), str(dst)))
        replace(src, dst)

    monkeypatch.setattr(runio.os, "fsync", record_fsync)
    monkeypatch.setattr(runio.os, "replace", record_replace)
    path = tmp_path / "summary.json"
    runio.replace_file(path, "{}\n")
    assert path.read_text() == "{}\n"
    assert calls == [("fsync", path.stat().st_ino),   # the temp file, renamed to path
                     ("replace", f"{path}.tmp", str(path)),
                     ("fsync", tmp_path.stat().st_ino)]


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
    state = CheckpointState(step=1, arrays=arrays)
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
