"""A run killed mid-write resumes to the files of an uninterrupted run.

Three of ``tools/kill_sweep.py``'s kill points, all past the step-100
checkpoint of its 250-step micro run: between two checkpoints, after the
step-200 checkpoint's temp file is written but before its rename, and just
after that rename. CI runs the script's full sweep.
"""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def kill_sweep():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))
        import kill_sweep
        yield kill_sweep


@pytest.fixture(scope="module")
def straight(kill_sweep, tmp_path_factory):
    return kill_sweep.uninterrupted(tmp_path_factory.mktemp("straight"))


@pytest.mark.parametrize("point", [("write", 150, "before"), ("replace", 3, "before"),
                                   ("replace", 3, "after")],
                         ids=lambda point: "-".join(map(str, point)))
def test_killed_run_resumes_to_the_uninterrupted_runs_files(kill_sweep, straight,
                                                           tmp_path, point):
    assert point in kill_sweep.KILL_POINTS
    assert kill_sweep.killed_and_resumed(point, tmp_path) == straight
