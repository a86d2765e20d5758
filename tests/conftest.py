"""Shared test configuration: deterministic, deadline-free hypothesis runs,
and a child process pinned to a set of CPUs."""

import os
import subprocess
import sys

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "causalgap",
    deadline=None,
    max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("causalgap")


@pytest.fixture
def on_one_and_all_cpus():
    """run(script) -> the stdout of script in a child process that first sets
    its own affinity mask to one CPU, and in one that sets it to all the CPUs
    this process may use."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs affinity masks")
    usable = sorted(os.sched_getaffinity(0))

    def run(script: str) -> list[str]:
        return [
            subprocess.run(
                [sys.executable, "-c", f"import os\nos.sched_setaffinity(0, {cpus})\n{script}"],
                capture_output=True, text=True, check=True,
            ).stdout
            for cpus in (usable[:1], usable)
        ]

    return run
