import ast
import importlib
import re
import textwrap
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _steps():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step for job in jobs.values() for step in job["steps"]]


def test_workflow_parses_and_every_step_runs_something():
    # GitHub loads no workflow from a file that does not parse, and then
    # no CI step runs at all
    steps = _steps()
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step


def _divcontrol_names(script: str) -> set:
    """Each ``divcontrol`` name an inline script imports or reads as an
    attribute of an imported one; AttributeError or ImportError if one is
    missing."""
    tree = ast.parse(script)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("divcontrol"):
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name)
                bound[alias.asname or alias.name] = obj
                used.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            getattr(bound[node.value.id], node.attr)
            used.add(f"{node.value.id}.{node.attr}")
    return used


def test_inline_python_uses_only_names_the_package_has():
    # the inline scripts and the tools CI runs reach private names, so a
    # rename in src/ would break CI without failing a test
    scripts = [textwrap.dedent(body) for step in _steps()
               for body in re.findall(r"<<'PY'\n(.*?)^\s*PY$", step.get("run", ""),
                                      re.S | re.M)]
    scripts += [(WORKFLOW.parents[2] / "tools" / name).read_text()
                for name in ("parity.py", "kill_sweep.py")]
    used = set().union(*map(_divcontrol_names, scripts))
    assert {"training._image_bank", "training._new_optimizer",
            "run_e2e_gradcheck", "T._gelu_arg_of", "T._gelu_arg"} <= used
