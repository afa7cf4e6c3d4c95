"""Fixtures shared by the test modules: running code in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

import neumann_sici


@pytest.fixture
def package_env() -> dict[str, str]:
    # The environment of a fresh interpreter that imports this checkout's package
    return dict(os.environ, PYTHONPATH=os.path.dirname(neumann_sici.__path__[0]))


@pytest.fixture
def fresh_interpreter(package_env):
    # run(code, timeout): code in a fresh interpreter, which must exit with 0
    # within timeout seconds; returns its stdout
    def run(code: str, timeout: float) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, text=True,
            timeout=timeout,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
