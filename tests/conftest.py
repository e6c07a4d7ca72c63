"""Session set-up shared by every test module."""

import os
from pathlib import Path

import frostlab


def pytest_configure(config):
    # child processes (python -m frostlab) import the frostlab under test,
    # also when only the pythonpath setting in pyproject.toml found it
    src = str(Path(frostlab.__file__).parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
