"""Relabelling properties: renumbering the vertices commutes with the maps.

For a random permutation ``perm`` of a random sensor graph ``G``, ``GP`` is
the graph whose vertex ``i`` is vertex ``perm[i]`` of ``G``, so a signal
``x`` on ``G`` is ``x[perm]`` on ``GP`` and a vertex ``v`` of ``G`` is
``inv[v]`` on ``GP``.  Filtering (both paths, on one fixed ``lmax``),
``tik_denoise`` (solved below that bound), ``prox_tv``, ``interpolate``,
``kron_reduce``, ``localize`` (both paths) and ``div(grad(.))`` must give
the relabelled output to 1e-12 relative.  Nothing in the maths
depends on the labels, so a deviation is a bug such as pairing values with
the wrong order of a vertex set.  ``graph_multiresolution`` must keep the
same vertices at every level, on draws where no tie rule that reads the
labels fires.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphsig as gs

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True)
RTOL = 1e-12


@st.composite
def relabelled(draw, min_n=8):
    n = draw(st.integers(min_n, 300))
    G = gs.sensor(n, seed=draw(st.integers(0, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perm = rng.permutation(n)
    GP = gs.graph_from_weights(G.W[perm][:, perm])
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    return G, GP, perm, inv, rng


def assert_relabelled(out_p, out, perm):
    """``out_p`` is ``out`` with its rows taken in the order ``perm``."""
    err = np.linalg.norm(np.asarray(out_p) - np.asarray(out)[perm])
    assert err <= RTOL * np.linalg.norm(out), err


@PROPERTY_SETTINGS
@given(relabelled(), st.sampled_from(["exact", "chebyshev"]),
       st.sampled_from(["itersine", "mexican_hat", "heat"]),
       st.integers(1, 3))
def test_filtering_commutes_with_relabelling(case, method, kind, k):
    G, GP, perm, _, rng = case
    if method == "exact":
        gs.compute_fourier_basis(G)
        gs.compute_fourier_basis(GP)
    else:
        # One bound for both graphs: the Lanczos estimate depends on the
        # vertex order through its start vector.
        G._lmax_estimate = GP._lmax_estimate = gs.estimate_lmax(G)
    bank = gs.design(kind, 2.0 * float(G.d.max()))
    F = rng.standard_normal((G.N, k))
    C = gs.filter_analysis(G, bank, F, method=method)
    assert_relabelled(gs.filter_analysis(GP, bank, F[perm], method=method),
                      C, perm)
    C = rng.standard_normal(C.shape)
    assert_relabelled(gs.filter_synthesis(GP, bank, C[perm], method=method),
                      gs.filter_synthesis(G, bank, C, method=method), perm)


@PROPERTY_SETTINGS
@given(relabelled(), st.floats(0.01, 10.0))
def test_tik_denoise_commutes_with_relabelling(case, gamma):
    G, GP, perm, _, rng = case
    y = rng.standard_normal(G.N)
    # Conjugate gradients stops anywhere within its residual tolerance, and
    # two vertex orders stop at different points: at the default 1e-10 the
    # outputs differed by up to 1.8e-11 relative over 40 draws, and by
    # 2.1e-14 at 1e-13.  So the solve runs below the bound checked here.
    x, _ = gs.tik_denoise(G, y, gamma, tol=1e-13)
    assert_relabelled(gs.tik_denoise(GP, y[perm], gamma, tol=1e-13)[0], x,
                      perm)


@PROPERTY_SETTINGS
@given(relabelled(), st.floats(0.1, 0.9))
def test_interpolate_commutes_with_relabelling(case, share):
    G, GP, perm, inv, rng = case
    kept = rng.choice(G.N, max(1, int(share * G.N)), replace=False)
    vals = rng.standard_normal(kept.size)
    assert_relabelled(gs.interpolate(GP, inv[kept], vals),
                      gs.interpolate(G, kept, vals), perm)


@PROPERTY_SETTINGS
@given(relabelled(), st.floats(0.1, 0.9))
def test_kron_reduce_commutes_with_relabelling(case, share):
    G, GP, perm, inv, rng = case
    kept = np.sort(rng.choice(G.N, max(1, int(share * G.N)), replace=False))
    R = gs.kron_reduce(G.L, kept).toarray()
    RP = gs.kron_reduce(GP.L, inv[kept]).toarray()
    # Both are indexed by their sorted kept sets: row j of RP is the vertex
    # perm[sorted(inv[kept])[j]] of G, at row ``order[j]`` of R.
    order = np.searchsorted(kept, perm[np.sort(inv[kept])])
    err = np.linalg.norm(RP - R[np.ix_(order, order)])
    assert err <= RTOL * np.linalg.norm(R), err


@PROPERTY_SETTINGS
@given(relabelled(), st.integers(1, 3))
def test_div_grad_commutes_with_relabelling(case, k):
    G, GP, perm, _, rng = case
    F = rng.standard_normal((G.N, k))
    assert_relabelled(gs.div(GP, gs.grad(GP, F[perm])),
                      gs.div(G, gs.grad(G, F)), perm)


@PROPERTY_SETTINGS
@given(relabelled(), st.sampled_from(["exact", "chebyshev"]),
       st.floats(0.05, 2.0))
def test_localize_commutes_with_relabelling(case, method, tau):
    G, GP, perm, inv, rng = case
    if method == "exact":
        gs.compute_fourier_basis(G)
        gs.compute_fourier_basis(GP)
    else:
        G._lmax_estimate = GP._lmax_estimate = gs.estimate_lmax(G)
    i = int(rng.integers(G.N))
    kernel = lambda x: np.exp(-tau * x)  # noqa: E731
    assert_relabelled(gs.localize(GP, kernel, inv[i]),
                      gs.localize(G, kernel, i), perm)


@PROPERTY_SETTINGS
@given(relabelled(), st.floats(0.01, 2.0), st.integers(1, 3))
def test_prox_tv_commutes_with_relabelling(case, gamma, k):
    G, GP, perm, _, rng = case
    Y = rng.standard_normal((G.N, k))
    assert_relabelled(gs.prox_tv(GP, Y[perm], gamma)[0],
                      gs.prox_tv(G, Y, gamma)[0], perm)


@PROPERTY_SETTINGS
@given(relabelled(min_n=60))
def test_pyramid_keeps_the_same_vertices_under_relabelling(case):
    G, GP, perm, _, _ = case
    mr = gs.graph_multiresolution(G, 3)
    # Two tie rules read the labels: a split into equal halves keeps vertex
    # 0's side, and a degenerate split keeps every other vertex.
    assume(not mr.fallback_levels)
    assume(all(2 * kept.size != size
               for kept, size in zip(mr.keeps, mr.level_sizes())))
    mr_p = gs.graph_multiresolution(GP, 3)
    # Each level's vertices, as sorted indices into its finest graph.
    for vertices, vertices_p in zip(mr._vertices, mr_p._vertices):
        assert np.array_equal(np.sort(perm[vertices_p]), vertices)
