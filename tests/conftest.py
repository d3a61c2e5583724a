import os
from pathlib import Path

import numpy as np
import pytest

from quivermoment import Quiver, Representation, StabilityParameter, extend

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """Tests that run ``python -m quivermoment.cli`` in a subprocess import
    this checkout's package, also when only pytest's ``pythonpath`` setting
    put it on the test process's path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def a2():
    """Two vertices, one edge 0 -> 1, extended."""
    return extend(Quiver(2, [(0, 1)]))


@pytest.fixture
def jordan():
    """One vertex, one loop, extended."""
    return extend(Quiver(1, [(0, 0)]))


@pytest.fixture
def a2_rep(a2):
    def make(a, b):
        return Representation(
            a2, (1, 1), [np.array([[a]], dtype=complex), np.array([[b]], dtype=complex)]
        )

    return make


@pytest.fixture
def theta11():
    def make(t0, t1):
        return StabilityParameter((float(t0), float(t1)), (1, 1))

    return make
