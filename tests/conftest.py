"""Fixtures shared by the test modules."""

import os
import pathlib
import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_capped(argv, limit_mb, timeout=120, entry=("-m", "ossvqa.cli")):
    """(exit code, stderr) of `python entry argv`, the CLI by default, in a
    subprocess whose address space is capped at limit_mb, so a run that
    would allocate more fails instead of taking the machine's memory."""
    if resource is None:
        pytest.skip("the resource module is needed to cap the address space")
    limit = limit_mb << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, *entry, *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stderr


@pytest.fixture
def run_capped():
    """_run_capped, for tests that run a command under a memory cap."""
    return _run_capped
