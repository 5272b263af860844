import os
from pathlib import Path

import pytest

import repcore


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
