"""The CI workflow tests what the repository declares: its test step runs
ROADMAP.md's tier-1 command, its matrix runs the oldest Python that
pyproject.toml admits, its oldest-numpy row installs exactly the numpy
floor that pyproject.toml admits, and its tier-1 job has a timeout; and
pyproject.toml declares the package's own version. Text checks, so they run
offline."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read(relative: str) -> str:
    return (ROOT / relative).read_text(encoding="utf-8")


def test_the_oldest_numpy_row_installs_the_declared_floor():
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', read("pyproject.toml"))
    rows = re.findall(r'numpy: \[?"([^"]+)"', read(".github/workflows/tests.yml"))
    assert f"numpy=={floor}.*" in rows
    assert set(rows) <= {f"numpy=={floor}.*", f"numpy>={floor}"}


def test_the_matrix_runs_the_declared_python_floor():
    (floor,) = re.findall(r'requires-python = ">=([0-9.]+)"', read("pyproject.toml"))
    (matrix,) = re.findall(r"python-version: \[([^\]]*)\]", read(".github/workflows/tests.yml"))
    assert floor in re.findall(r'"([^"]+)"', matrix)


def test_the_test_step_runs_the_tier_1_command():
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", read("ROADMAP.md"))
    steps = re.findall(r"- name: (.+)\n\s+run: (.+)", read(".github/workflows/tests.yml"))
    assert ("Tier-1 tests", command) in steps


def test_the_declared_version_is_the_package_version():
    """``datagraph --version`` prints ``datagraph.__version__``; the two copies must not drift."""
    (declared,) = re.findall(r'^version = "([^"]+)"$', read("pyproject.toml"), re.MULTILINE)
    (package,) = re.findall(r'^__version__ = "([^"]+)"$', read("src/datagraph/__init__.py"), re.MULTILINE)
    assert declared == package


def test_the_tier_1_job_sets_a_timeout():
    """A hung socket or thread test must not hold a runner for GitHub's 360-minute default."""
    (job,) = re.findall(r"\n  tier-1:\n((?:    .*\n|\n)+)", read(".github/workflows/tests.yml"))
    assert re.search(r"^    timeout-minutes: \d+$", job, re.MULTILINE)
