import os
from pathlib import Path

import pytest

import coupledpdc


@pytest.fixture
def child_env():
    """The environment for a child interpreter: this one's, with the
    ``src`` of the coupledpdc imported here first on ``PYTHONPATH``, so
    that the child runs the same tree as its parent."""
    src = str(Path(coupledpdc.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
