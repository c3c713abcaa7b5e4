"""The single-writer lock on a run directory."""

import os

import pytest

from divcontrol.errors import ContractError
from divcontrol.runio import LOCK_FILE, run_lock


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
