"""The spectral core: every eigensolve and factorization in the package is
called in one place, ``spectral.py``, and the spectral-radius bound keeps
the bits of the expressions it was first written with (``oracles.py``).
"""

import ast
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsig as gs
from graphsig.spectral import _lmax_bound

from oracles import lanczos_lmax_bound, small_lmax_bound

PACKAGE = pathlib.Path(gs.__file__).parent

#: Sparse solvers that factor their matrix.
FACTORIZATIONS = {"splu", "spilu", "spsolve", "factorized"}


def _dotted(node) -> str:
    """``"np.linalg.eigh"`` for the call target ``np.linalg.eigh``, ``""``
    for a target that is not a plain dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def test_each_solver_is_called_once_in_spectral():
    calls, arpack_handlers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.append((path.name, _dotted(node.func)))
            elif (isinstance(node, ast.ExceptHandler) and node.type
                  and "ArpackNoConvergence" in ast.unparse(node.type)):
                arpack_handlers.append(path.name)

    def sites(matches):
        return sorted((name, target) for name, target in calls
                      if matches(target.rsplit(".", 1)[-1]))

    # One ARPACK run and scipy.linalg's dense eigh; no numpy eigensolver.
    assert sites(lambda f: f.startswith("eig")) == [
        ("spectral.py", "sla.eigh"), ("spectral.py", "spl.eigsh")]
    assert sites(FACTORIZATIONS.__contains__) == [("spectral.py", "spl.splu")]
    assert arpack_handlers == ["spectral.py"]


# The in-place mean ``(a + b) * 0.5`` overflows above half the largest
# double, so entries stay within +-1e300.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.lists(st.floats(-1e300, 1e300), min_size=3,
                                   max_size=3))
def test_small_lmax_bound_is_eigvalsh_bit_for_bit(n, entries):
    a, b, c = entries
    A = sp.csr_array(np.array([[a]]) if n == 1 else np.array([[a, b],
                                                             [b, c]]))
    assert _lmax_bound(A) == small_lmax_bound(A)


@pytest.mark.parametrize("n, seed", [(17, 0), (40, 2), (120, 2), (800, 0),
                                     (2000, 0)])
def test_lanczos_lmax_bound_asks_for_the_value_only(n, seed):
    # On these graphs ARPACK's top eigenvalue moves in its last bits when
    # the eigenvector is computed too, and every Chebyshev output with it.
    G = gs.sensor(n, seed=seed)
    assert gs.estimate_lmax(G) == lanczos_lmax_bound(G.L)
