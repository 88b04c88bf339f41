"""The CI workflow parses, and each of its steps is well formed."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_are_well_formed():
    """Every step has a name and exactly one of run and uses, and a step run
    outside the checkout reaches the repository's files through $GITHUB_WORKSPACE."""
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert step.get("name"), step
        assert ("run" in step) != ("uses" in step), step["name"]
        if step.get("working-directory") == "${{ runner.temp }}":
            assert not re.search(r"(?<![/\w])(tests|perfbench|src)/", step["run"]), step["name"]
