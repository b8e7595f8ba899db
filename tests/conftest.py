"""Shared fixtures: small graphs reused across test modules, and a fresh
interpreter for measurements a warm test process would blur."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphsig as gs

# pytest finds the package through ``pythonpath`` in pyproject.toml; the
# ``python -m graphsig`` subprocesses of the CLI tests and the snippets run
# by ``fresh_interpreter`` need it on their path.
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


@pytest.fixture(scope="session")
def fresh_interpreter():
    """Run a snippet in a new interpreter with one BLAS thread (or
    ``threads``) and return its last line of output, parsed as JSON.  Memory
    and timing gates use it, so that the test process's own heap and threads
    do not enter the reading.  A memory snippet should read its peak as
    ``VmHWM`` from ``/proc/self/status``: Linux carries ``ru_maxrss`` over
    the ``exec``, so it would start at this process's peak.
    """

    def run(snippet: str, threads: int = 1):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", snippet], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
