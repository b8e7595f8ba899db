"""Shared fixtures: small graphs reused across test modules."""

import os

import numpy as np
import pytest

import graphsig as gs

# pytest finds the package through ``pythonpath`` in pyproject.toml; the
# ``python -m graphsig`` subprocesses of the CLI tests need it on their path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(gs.__file__)),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def sensor64():
    """Connected 64-vertex sensor graph with its Fourier basis computed."""
    G = gs.sensor(64, seed=3)
    assert G.is_connected()
    gs.compute_fourier_basis(G)
    return G


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
