"""Property tests for the pyramid level loop, its interpolation and the
spectral-bound helper.

Random small sensor graphs; every level of a pyramid must be a Schur
complement, its graph the direct reduction of the finest one, rebuilding from stored keeps must repeat the reduction exactly,
interpolation must agree with the dense Green's-function fit, each level's
smoothing and extension must agree with dense formulas on that level's Schur
complement, every pyramid LU must take its pivots on the diagonal, and the
bound helper must never fall below the true top eigenvalue.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import pyramid, spectral
from graphsig.spectral import _lmax_bound

from oracles import (dense_green_interpolate, dense_schur,
                     random_directed_strongly_connected)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True)


@st.composite
def sensor_graphs(draw, min_n=8, max_n=40):
    return gs.sensor(draw(st.integers(min_n, max_n)),
                     seed=draw(st.integers(0, 10_000)))


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 3), st.floats(0.0, 2.0),
       st.floats(1e-3, 0.5), st.integers(0, 2 ** 32 - 1))
def test_pyramid_reconstructs_perfectly(G, levels, alpha, epsilon, seed):
    mr = gs.graph_multiresolution(G, levels, alpha=alpha, epsilon=epsilon)
    f = np.random.default_rng(seed).standard_normal(G.N)
    rec = gs.pyramid_synthesis(mr, gs.pyramid_analysis(mr, f))
    assert np.max(np.abs(rec - f)) <= 1e-10


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 2 ** 32 - 1))
def test_kron_reduce_matches_dense_schur(G, seed):
    rng = np.random.default_rng(seed)
    kept = np.sort(rng.choice(G.N, size=rng.integers(1, G.N), replace=False))
    R = gs.kron_reduce(G.L, kept)
    assert_allclose(R.toarray(), dense_schur(G.L.toarray(), kept),
                    atol=1e-10)


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 3), st.floats(1e-3, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_interpolate_matches_dense_green_fit(G, columns, epsilon, seed):
    rng = np.random.default_rng(seed)
    kept = np.sort(rng.choice(G.N, size=rng.integers(1, G.N), replace=False))
    shape = (kept.size, columns) if columns else (kept.size,)
    vals = rng.standard_normal(shape)
    out = gs.interpolate(G, kept, vals, epsilon=epsilon)
    assert out.shape == (G.N,) + shape[1:]
    assert_allclose(out, dense_green_interpolate(G.L.toarray(), kept, vals,
                                                 epsilon), rtol=0, atol=1e-9)


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_interpolate_on_every_vertex_returns_the_values(G, columns, seed):
    shape = (G.N, columns) if columns else (G.N,)
    vals = np.random.default_rng(seed).standard_normal(shape)
    assert np.array_equal(gs.interpolate(G, np.arange(G.N), vals), vals)


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_interpolate_pairs_values_with_the_given_order(G, columns, seed):
    rng = np.random.default_rng(seed)
    given_order = rng.choice(G.N, size=rng.integers(1, G.N + 1),
                             replace=False)
    shape = (given_order.size, columns) if columns else (given_order.size,)
    vals = rng.standard_normal(shape)
    order = np.argsort(given_order)
    assert np.array_equal(gs.interpolate(G, given_order, vals),
                          gs.interpolate(G, given_order[order], vals[order]))


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(1, 3), st.floats(1e-3, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_cached_level_extension_is_public_interpolate(G, levels, epsilon,
                                                      seed):
    mr = gs.graph_multiresolution(G, levels, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    for level, kept in enumerate(mr.keeps):
        vals = rng.standard_normal(kept.size)
        ext = pyramid._level_solver(mr, level, "extend")
        ref = gs.interpolate(mr.graphs[level], kept, vals, epsilon=epsilon)
        if level == 0:
            assert np.array_equal(pyramid._extend(ext, kept, vals), ref)
        else:
            assert_allclose(pyramid._extend(ext, kept, vals), ref, rtol=0,
                            atol=1e-10 * np.abs(ref).max())


@st.composite
def keep_chains(draw):
    """A sensor graph and a random chain of 1 to 3 nested kept sets."""
    G = draw(sensor_graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keeps, size = [], G.N
    for _ in range(draw(st.integers(1, 3))):
        if size < 2:
            break
        kept = np.sort(rng.choice(size, size=rng.integers(1, size),
                                  replace=False))
        keeps.append(kept)
        size = kept.size
    return G, keeps, rng


@PROPERTY_SETTINGS
@given(keep_chains())
def test_level_graphs_are_direct_reductions_of_the_finest_graph(chain):
    G, keeps, _ = chain
    mr = gs.multiresolution_from_keeps(G, keeps)
    for level in range(1, mr.n_levels + 1):
        vertices = mr._vertices[level]
        R = gs.kron_reduce(G.L, vertices)
        direct = gs.graph_from_weights(pyramid._laplacian_to_weights(R))
        S = mr.graphs[level].L
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, attr), getattr(direct.L, attr))
        assert_allclose(S.toarray(), dense_schur(G.L.toarray(), vertices),
                        atol=1e-10)


@PROPERTY_SETTINGS
@given(keep_chains(), st.one_of(st.just(0.0), st.floats(0.0, 2.0,
                                                         exclude_min=True)),
       st.floats(1e-3, 0.5))
def test_level_operators_match_dense_schur_levels(chain, alpha, epsilon):
    # Every level's smoothing and extension run on the finest graph; the
    # reference works on that level's dense Schur complement.
    G, keeps, rng = chain
    mr = gs.multiresolution_from_keeps(G, keeps, alpha=alpha, epsilon=epsilon)
    L = G.L.toarray()
    vertices = np.arange(G.N)
    for level, kept in enumerate(keeps):
        S = L if level == 0 else dense_schur(L, vertices)
        n = vertices.size
        x = rng.standard_normal(n)
        smoothed = np.linalg.solve(np.eye(n) + alpha * S, x)
        assert_allclose(pyramid._smooth(mr, level, x), smoothed, rtol=0,
                        atol=1e-10 * np.abs(smoothed).max())
        vals = rng.standard_normal(kept.size)
        rest = np.setdiff1d(np.arange(n), kept)
        extended = np.empty(n)
        extended[kept] = vals
        extended[rest] = -np.linalg.solve(
            S[np.ix_(rest, rest)] + epsilon * np.eye(rest.size),
            S[np.ix_(rest, kept)] @ vals)
        ext = pyramid._level_solver(mr, level, "extend")
        assert_allclose(pyramid._extend(ext, kept, vals), extended, rtol=0,
                        atol=1e-10 * np.abs(extended).max())
        vertices = vertices[kept]


@PROPERTY_SETTINGS
@given(keep_chains(),
       st.one_of(st.just(0.0), st.floats(0.0, 1e-8, exclude_min=True),
                 st.floats(1e-8, 50.0)),
       st.floats(1e-6, 0.5))
def test_pyramid_lus_never_pivot_off_the_diagonal(chain, alpha, epsilon):
    # Every system is diagonally dominant by rows, so elimination takes the
    # diagonal pivot in the symmetric order: the row permutation equals the
    # column permutation.  Counting eigenvalues by the inertia of a factor
    # rests on the same premise.
    G, keeps, rng = chain
    factored = []

    def splu(*args, **kwargs):
        lu = real(*args, **kwargs)
        factored.append(lu)
        return lu

    real = pyramid._splu
    with mock.patch.object(pyramid, "_splu", splu):
        mr = gs.multiresolution_from_keeps(G, keeps, alpha=alpha,
                                           epsilon=epsilon)
        for level in range(mr.n_levels):
            pyramid._level_solver(mr, level, "smooth")
            pyramid._level_solver(mr, level, "extend")
        kept = np.sort(rng.choice(G.N, size=rng.integers(1, G.N),
                                  replace=False))
        gs.interpolate(G, kept, np.ones(kept.size), epsilon=epsilon)
    assert len(factored) == 2 * mr.n_levels + 1
    for lu in factored:
        assert np.array_equal(lu.perm_r, lu.perm_c)


@st.composite
def selection_levels(draw):
    """A sensor graph, the vertices of one of its pyramid's levels (sorted
    indices into it) and the vertices the pyramid kept from that level."""
    G = draw(sensor_graphs(min_n=16, max_n=80))
    level = draw(st.integers(0, 2))
    mr = gs.graph_multiresolution(G, level + 1)
    return G, mr._vertices[level], mr.keeps[level]


@PROPERTY_SETTINGS
@given(selection_levels(), st.integers(0, 2 ** 32 - 1))
def test_selection_does_not_depend_on_roundoff(chain, seed):
    # The dense, Lanczos and implicit eigenvector paths agree to roundoff,
    # so they must select the same vertices, and so must an eigenvector
    # moved by 1e-13.
    G, vertices, selected = chain
    n = vertices.size
    S = dense_schur(G.L.toarray(), vertices) if n < G.N else G.L.toarray()
    u = spectral._fix_signs(np.linalg.eigh(S)[1][:, -1:])[:, 0]
    kept, _ = pyramid._split(S, u)
    with mock.patch.object(pyramid, "_DENSE_EIGVEC_CUTOFF", 0):
        lanczos, _ = pyramid._split(S, pyramid._top_eigenvector(S))
        implicit, _, _ = pyramid._select_kept(
            pyramid._level_operator(G.L, vertices))
    assert np.array_equal(lanczos, kept)
    assert np.array_equal(implicit, kept)
    noise = 1e-13 * np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(pyramid._split(S, u + noise)[0], kept)
    assert np.array_equal(selected, kept)
    assert n <= 2 * kept.size < 2 * n


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(0, 3))
def test_rebuild_from_keeps_is_bit_identical(G, levels):
    mr = gs.graph_multiresolution(G, levels)
    clone = gs.multiresolution_from_keeps(G, mr.keeps)
    assert len(clone.graphs) == len(mr.graphs)
    for a, b in zip(mr.graphs, clone.graphs):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.W, attr), getattr(b.W, attr))


@PROPERTY_SETTINGS
@given(sensor_graphs(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_div_grad_is_the_laplacian(G, k, seed):
    F = np.random.default_rng(seed).standard_normal((G.N, k))
    assert_allclose(gs.div(G, gs.grad(G, F)), G.L @ F, atol=1e-12)


@st.composite
def bound_operators(draw):
    """``L`` or ``D^T D`` of a small undirected or directed graph."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        G = gs.graph_from_weights(
            random_directed_strongly_connected(n, 0.2, seed), directed=True)
    else:
        G = gs.path(n) if n < 8 else gs.sensor(n, seed=seed)
    if draw(st.booleans()):
        return G.L
    D = gs.incidence(G).D
    return sp.csr_array(D.T @ D)


@PROPERTY_SETTINGS
@given(bound_operators(), st.booleans())
def test_lmax_bound_is_an_upper_bound(A, lanczos_fails):
    top = float(np.linalg.eigvalsh(A.toarray())[-1])
    if lanczos_fails:
        failure = spl.ArpackNoConvergence("forced", np.empty(0),
                                          np.empty((0, 0)))
        with mock.patch.object(spectral.spl, "eigsh", side_effect=failure):
            bound = _lmax_bound(A)
    else:
        bound = _lmax_bound(A)
    assert bound >= top
