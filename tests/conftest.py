import os
from pathlib import Path

import pytest

import repcore
import repcore.verify


@pytest.fixture
def child_env():
    """The environment for a child interpreter that must import this repcore.

    PYTHONPATH starts with the directory the imported package lives in, so
    `python -m repcore` and the scripts run the same code as the tests,
    installed or not.
    """
    src = str(Path(repcore.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def two_workers(monkeypatch):
    """run() at jobs >= 2 deals out two parts or more and forks for them,
    whatever the machine and the universe's size: two usable CPUs, and a
    gate of one first-use prefix split a part, so any universe with two
    Lyndon words and three splits pays for a second worker."""
    monkeypatch.setattr(repcore.verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(repcore.verify, "MIN_SPLITS_PER_PART", 1)
