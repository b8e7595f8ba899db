"""Property tests for the in-place Fourier basis.

The basis is built in the densified Laplacian's own buffer: symmetrized and
transposed in place by one block-pair loop, with LAPACK writing the
eigenvectors over it.  It must equal, bit for bit, the basis of
``np.linalg.eigh`` on a symmetrized copy, and the loop must equal the
whole-array expressions on shapes that are not multiples of its block.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsig as gs
from graphsig import spectral

from oracles import dense_fourier_basis

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True)


@st.composite
def random_graphs(draw, max_n=2 * spectral._PAIR_BLOCK + 20):
    """Random undirected graphs of 1 to a little past two blocks of
    vertices, isolated vertices allowed, with either symmetric Laplacian."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    W = np.triu((rng.random((n, n)) < draw(st.floats(0.0, 0.5)))
                * rng.uniform(0.1, 2.0, (n, n)), 1)
    G = gs.graph_from_weights(W + W.T, directed=False)
    gs.laplacian(G, kind=draw(st.sampled_from(["combinatorial",
                                               "normalized"])))
    return G


@PROPERTY_SETTINGS
@given(random_graphs())
def test_fourier_basis_equals_eigh_of_a_symmetrized_copy(G):
    U, e, mu = dense_fourier_basis(G.L)
    S = gs.compute_fourier_basis(G)
    assert np.array_equal(S.U, U)
    assert np.array_equal(S.e, e)
    assert S.mu == mu and S.lmax == e[-1]
    assert S.U.flags.c_contiguous


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(1, 16), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_block_pairs_match_the_whole_array_expressions(n, block, mean,
                                                        seed):
    # Shapes that are multiples of the block and shapes that are not.
    A = np.random.default_rng(seed).standard_normal((n, n))
    expected = (A + A.T) * 0.5 if mean else A.T.copy()
    with mock.patch.object(spectral, "_PAIR_BLOCK", block):
        out = spectral._block_pairs(A, mean=mean)
    assert out is A and np.array_equal(out, expected)
