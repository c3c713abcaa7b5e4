from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_and_every_step_runs_something():
    # GitHub loads no workflow from a file that does not parse, and then
    # no CI step runs at all
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
