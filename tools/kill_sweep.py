"""Kill a training run mid-write, resume it, and check it ends bit-exact.

    PYTHONPATH=src python tools/kill_sweep.py

A child process trains a 250-step micro diversion run, which checkpoints
at steps 100, 200 and 250, and calls ``os._exit(137)`` at one kill point:
just before the n-th ``MetricsWriter.write``, or just before or just after
the n-th ``os.replace``. The first five renames put the resolved config,
the three checkpoints and the summary in place. ``train`` then resumes in
the same directory from the run's checkpoint, or starts afresh where there
is none. The run's ``checkpoint.divc``, ``metrics.csv`` and
``summary.json`` (without its timings, as ``parity.py`` compares them)
must have the SHA-256 of an uninterrupted run.

The script runs every point of ``KILL_POINTS``, one child at a time,
prints one line per point and exits 1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import divcontrol
from divcontrol import runio, training
from divcontrol.gradcheck import micro_config
from parity import FILES, _digest

# (call, n, when): die just ``when`` the n-th call of ``call``
KILL_POINTS = ([("write", n, "before") for n in (1, 50, 100, 101, 150, 200, 201, 249, 250)]
               + [("replace", n, when) for n in range(1, 6) for when in ("before", "after")])
KILLED = 137


def run_config():
    return micro_config(0).replace(steps=250)


def digests(run_dir) -> dict:
    return {f: _digest(os.path.join(run_dir, f)) for f in FILES}


def uninterrupted(run_dir) -> dict:
    """Digests of the run trained straight through into ``run_dir``."""
    training.train(run_config(), run_dir)
    return digests(run_dir)


def killed_and_resumed(point, run_dir) -> dict:
    """Digests of the run killed at ``point`` in a child process, then
    resumed in ``run_dir`` by this one."""
    # the child imports the package this process runs
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(divcontrol.__file__))}
    child = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                            *map(str, point), str(run_dir)], env=env, timeout=300)
    if child.returncode != KILLED:
        raise RuntimeError(f"kill point {point}: child exited {child.returncode}, "
                           f"not {KILLED}")
    ckpt = os.path.join(run_dir, "checkpoint.divc")
    training.train(run_config(), run_dir, resume=ckpt if os.path.exists(ckpt) else None)
    return digests(run_dir)


def _child(call, n, when, run_dir):
    n, calls = int(n), 0

    def killing(f):
        def wrapped(*args, **kw):
            nonlocal calls
            calls += 1
            if calls == n and when == "before":
                os._exit(KILLED)
            out = f(*args, **kw)
            if calls == n:
                os._exit(KILLED)
            return out
        return wrapped

    if call == "write":
        runio.MetricsWriter.write = killing(runio.MetricsWriter.write)
    else:
        os.replace = killing(os.replace)
    training.train(run_config(), run_dir)
    sys.exit(f"the run ended before kill point {(call, n, when)}")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        want = uninterrupted(os.path.join(tmp, "straight"))
        for i, point in enumerate(KILL_POINTS):
            got = killed_and_resumed(point, os.path.join(tmp, str(i)))
            differ = [f for f in FILES if got[f] != want[f]]
            failed += bool(differ)
            print(f"kill {point}: " + (f"DIFFERS in {', '.join(differ)}" if differ
                                       else "resumed bit-exactly"))
    print(f"{len(KILL_POINTS) - failed} of {len(KILL_POINTS)} kill points "
          "resumed bit-exactly")
    return int(failed > 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:])
    elif len(sys.argv) == 1:
        sys.exit(main())
    else:
        sys.exit(__doc__)
