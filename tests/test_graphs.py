"""Graph construction, validation and the Laplacian family."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc
from graphsig.graphs import _fingerprint

from oracles import dense_laplacian, random_directed_strongly_connected


class TestConstruction:
    def test_basic_fields(self):
        W = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], float)
        G = gs.graph_from_weights(W)
        assert G.N == 3
        assert G.Ne == 2
        assert not G.directed
        assert_allclose(G.d, [1, 3, 2])
        assert G.lap_kind is gs.LaplacianKind.COMBINATORIAL

    def test_accepts_sparse_and_lists(self):
        W = [[0, 2], [2, 0]]
        G1 = gs.graph_from_weights(W)
        G2 = gs.graph_from_weights(sp.csr_matrix(np.array(W, float)))
        assert (G1.W != G2.W).nnz == 0

    def test_non_square_rejected(self):
        with pytest.raises(exc.NonSquareMatrix):
            gs.graph_from_weights(np.zeros((2, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(exc.NegativeWeight):
            gs.graph_from_weights([[0, -1], [-1, 0]])

    def test_nan_rejected(self):
        with pytest.raises(exc.NonFiniteValue):
            gs.graph_from_weights([[0, np.nan], [np.nan, 0]])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("directed", [False, True])
    def test_overflowing_degrees_rejected(self, n, directed, capfd):
        # Every entry is finite but twice the degree is not.  The spectral
        # routines then raised a bare ValueError (n = 2), or returned an
        # infinite lmax after LAPACK complained on stderr (n = 3).
        W = np.full((n, n), 1e308)
        with pytest.raises(exc.NonFiniteValue):
            gs.graph_from_weights(W, directed=directed)
        assert capfd.readouterr().err == ""
        # Large finite degrees and huge self-loops, which are dropped, pass.
        assert gs.estimate_lmax(gs.graph_from_weights(W / 8)) < np.inf
        gs.graph_from_weights(np.eye(n) * 1e308 + 1.0)

    def test_empty_rejected(self):
        with pytest.raises(exc.EmptyGraph):
            gs.graph_from_weights(np.zeros((0, 0)))

    def test_self_loops_dropped_and_flagged(self):
        G = gs.graph_from_weights([[5, 1], [1, 7]])
        assert G.dropped_self_loops
        assert G.W.diagonal().max() == 0
        assert G.Ne == 1
        clean = gs.graph_from_weights([[0, 1], [1, 0]])
        assert not clean.dropped_self_loops

    def test_auto_detects_directed(self):
        W = np.array([[0, 1], [0, 0]], float)
        assert gs.graph_from_weights(W).directed
        assert not gs.graph_from_weights(W + W.T).directed

    def test_forced_undirected_symmetrizes_exactly(self):
        rng = np.random.default_rng(0)
        W = rng.random((6, 6))
        np.fill_diagonal(W, 0)
        G = gs.graph_from_weights(W, directed=False)
        delta = (G.W - G.W.T).tocoo()
        assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0
        # and the values are the arithmetic mean of the two triangles
        assert_allclose(G.W.toarray(), (W + W.T) / 2, atol=0)

    def test_tiny_asymmetry_treated_as_noise(self):
        W = np.array([[0, 1], [1 + 1e-14, 0]])
        assert not gs.graph_from_weights(W).directed

    def test_directed_kind_on_undirected_graph_allowed(self):
        G = gs.graph_from_weights([[0, 1], [1, 0]], directed=False)
        L = gs.laplacian(G, "combinatorial-directed")
        assert_allclose(L.toarray(), [[1, -1], [-1, 1]], atol=0)

    def test_undirected_kind_on_directed_graph_rejected(self):
        G = gs.graph_from_weights([[0, 1], [0, 0]], directed=True)
        with pytest.raises(exc.KindMismatch):
            gs.laplacian(G, "combinatorial")

    def test_coords_validation(self):
        with pytest.raises(exc.NonSquareMatrix):
            gs.graph_from_weights([[0, 1], [1, 0]], coords=np.zeros((3, 2)))


    @pytest.mark.parametrize("loop", [np.nan, -1.0])
    def test_bad_self_loop_refused_before_it_is_dropped(self, loop):
        error = exc.NonFiniteValue if np.isnan(loop) else exc.NegativeWeight
        for directed in ("auto", False, True):
            with pytest.raises(error):
                gs.graph_from_weights([[loop, 1], [1, 0]], directed=directed)

    def test_negative_weight_refused_before_symmetrizing(self):
        # (W + W.T) / 2 cancels this matrix to an empty graph.
        with pytest.raises(exc.NegativeWeight):
            gs.graph_from_weights([[0, -1], [1, 0]], directed=False)


def _csr(rows):
    return sp.csr_array(np.array(rows, dtype=float))


class TestDirectConstruction:
    """A Graph checks its own weights and attaches its default Laplacian."""

    def test_stored_form_gives_a_complete_graph(self):
        ring = gs.ring(8)
        G = gs.Graph(ring.W.copy(), False)
        assert G.lap_kind is gs.LaplacianKind.COMBINATORIAL
        assert (G.L != ring.L).nnz == 0
        assert _fingerprint(G) == _fingerprint(ring)
        assert gs.estimate_lmax(G) == gs.estimate_lmax(ring)
        D = gs.Graph(_csr([[0, 1, 0], [0, 0, 2], [3, 0, 0]]), True)
        assert D.lap_kind is gs.LaplacianKind.COMBINATORIAL_DIRECTED
        assert_allclose(D.d, [1, 2, 3], atol=0)

    def test_asymmetric_undirected_weights_refused(self):
        # Accepted, it broke div(grad f) == L @ f and save_weights wrote a
        # different matrix.
        W = _csr([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(exc.BadParameter):
            gs.Graph(W, False)
        assert gs.Graph(W, True).directed

    @pytest.mark.parametrize("value, error", [
        (np.nan, exc.NonFiniteValue), (np.inf, exc.NonFiniteValue),
        (-1.0, exc.NegativeWeight)])
    def test_bad_weights_refused(self, value, error):
        with pytest.raises(error):
            gs.Graph(_csr([[0, value], [value, 0]]), False)

    def test_shape_and_size_refused(self):
        with pytest.raises(exc.NonSquareMatrix):
            gs.Graph(sp.csr_array((2, 3)), True)
        with pytest.raises(exc.EmptyGraph):
            gs.Graph(sp.csr_array((0, 0)), True)

    def test_overflowing_degrees_refused(self):
        with pytest.raises(exc.NonFiniteValue):
            gs.Graph(_csr([[0, 1e308, 1e308], [0, 0, 0], [0, 0, 0]]), True)

    def test_bad_coords_refused(self):
        W = gs.ring(4).W
        with pytest.raises(exc.NonSquareMatrix):
            gs.Graph(W, False, coords=np.zeros((3, 2)))
        with pytest.raises(exc.NonFiniteValue):
            gs.Graph(W, False, coords=np.full((4, 2), np.nan))

    def test_duplicates_summed_and_explicit_zeros_dropped(self):
        W = sp.csr_array((np.array([1.0, 1.0, 0.0, 2.0]),
                          np.array([1, 1, 2, 0]), np.array([0, 3, 4, 4])),
                         shape=(3, 3))
        G = gs.Graph(W, True)
        assert_allclose(G.W.toarray(), [[0, 2, 0], [2, 0, 0], [0, 0, 0]],
                        atol=0)
        assert G.Ne == 2


@st.composite
def weight_matrices(draw):
    """Small weight matrices with self-loops, exact zeros, asymmetry and
    asymmetry at the level of rounding noise."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                      st.sampled_from([1.0, 0.5, 1e-300]))
    W = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    W = W.reshape(n, n)
    if draw(st.booleans()):
        W = W + W.T
        if n > 1 and draw(st.booleans()):
            W[0, 1] *= 1.0 + 1e-15
    return W


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight_matrices(), st.sampled_from(["auto", False, True]),
       st.booleans())
def test_graph_rebuilds_the_factory_output(W, directed, with_coords):
    coords = np.arange(2.0 * len(W)).reshape(-1, 2) if with_coords else None
    G = gs.graph_from_weights(W, directed=directed, coords=coords)
    H = gs.Graph(G.W.copy(), G.directed, coords=G.coords)
    assert _fingerprint(H) == _fingerprint(G)
    for a, b in ((H.L.indptr, G.L.indptr), (H.L.indices, G.L.indices),
                 (H.L.data, G.L.data), (H.d, G.d)):
        assert a.tobytes() == b.tobytes()
    assert H.Ne == G.Ne


class TestSignalValidation:
    """Every signal entry point shares one validator."""

    ENTRY_POINTS = {
        "filter_analysis-exact": lambda G, f: gs.filter_analysis(
            G, gs.heat(G, tau=2.0), f, method="exact"),
        "filter_analysis-chebyshev": lambda G, f: gs.filter_analysis(
            G, gs.heat(G, tau=2.0), f, method="chebyshev"),
        "tik_denoise": lambda G, f: gs.tik_denoise(G, f, 0.5),
        "prox_tv": lambda G, f: gs.prox_tv(G, f, 0.5),
        "gft": gs.gft,
        "grad": gs.grad,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, entry, bad):
        G = gs.ring(8)
        gs.compute_fourier_basis(G)
        f = np.ones(8)
        f[3] = bad
        with pytest.raises(exc.NonFiniteValue):
            self.ENTRY_POINTS[entry](G, f)
        with pytest.raises(exc.NonFiniteValue):
            self.ENTRY_POINTS[entry](G, np.column_stack([np.ones(8), f]))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("shape", [(7,), (8, 2, 1), ()])
    def test_wrong_shape_rejected(self, entry, shape):
        G = gs.ring(8)
        gs.compute_fourier_basis(G)
        with pytest.raises(exc.ShapeMismatch):
            self.ENTRY_POINTS[entry](G, np.ones(shape))


class TestLaplacianOracles:
    """Each kind against an independent dense evaluation of its formula."""

    def test_undirected_kinds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            W = rng.random((12, 12)) * (rng.random((12, 12)) < 0.4)
            np.fill_diagonal(W, 0)
            W = (W + W.T) / 2
            W[0, 1] = W[1, 0] = 1.0  # no fully isolated graph
            G = gs.graph_from_weights(W, directed=False)
            for kind in ("combinatorial", "normalized"):
                L = gs.laplacian(G, kind).toarray()
                assert_allclose(L, dense_laplacian(G.W.toarray(), kind),
                                atol=1e-12)

    def test_directed_kinds(self):
        for seed in range(5):
            W = random_directed_strongly_connected(10, 0.3, seed)
            G = gs.graph_from_weights(W, directed=True)
            for kind in ("combinatorial-directed", "degree-normalized",
                         "distribution-normalized"):
                L = gs.laplacian(G, kind).toarray()
                ref = dense_laplacian(G.W.toarray(), kind)
                assert_allclose(L, ref, atol=1e-10)

    def test_symmetric_psd_where_claimed(self):
        W = random_directed_strongly_connected(9, 0.35, 7)
        G = gs.graph_from_weights(W, directed=True)
        for kind in ("combinatorial-directed", "distribution-normalized"):
            L = gs.laplacian(G, kind).toarray()
            assert np.abs(L - L.T).max() < 1e-12
            assert np.linalg.eigvalsh(L).min() > -1e-10

    def test_normalized_spectrum_within_two(self):
        G = gs.ring(10)
        gs.laplacian(G, "normalized")
        e = np.linalg.eigvalsh(G.L.toarray())
        assert e.min() > -1e-10
        assert e.max() < 2 + 1e-10

    def test_combinatorial_row_sums_vanish(self):
        G = gs.sensor(30, seed=1)
        assert np.abs(G.L.sum(axis=1)).max() < 1e-10

    def test_distribution_2cycle_example(self):
        G = gs.graph_from_weights([[0, 1], [1, 0]], directed=True)
        L = gs.laplacian(G, "distribution-normalized")
        assert_allclose(L.toarray(), [[1, -1], [-1, 1]], atol=1e-12)

    def test_degree_normalized_needs_positive_degrees(self):
        # vertex 2 has no outgoing weight
        W = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]], float)
        G = gs.graph_from_weights(W, directed=True)
        with pytest.raises(exc.ZeroDegreeVertex):
            gs.laplacian(G, "degree-normalized")

    def test_distribution_needs_strong_connectivity(self):
        W = np.array([[0, 1], [0, 0]], float)
        W = np.block([[W, np.eye(2)], [np.zeros((2, 2)), W]])
        G = gs.graph_from_weights(W, directed=True)
        with pytest.raises((exc.NotStronglyConnected, exc.ZeroOutDegree)):
            gs.laplacian(G, "distribution-normalized")

    def test_swap_resets_spectral_cache(self):
        G = gs.ring(6)
        S1 = gs.compute_fourier_basis(G)
        gs.laplacian(G, "normalized")
        S2 = gs.compute_fourier_basis(G)
        assert S1 is not S2
        assert abs(S2.lmax - S1.lmax) > 0.5  # 4 vs 2

    def test_string_and_enum_kinds_agree(self):
        G1, G2 = gs.ring(5), gs.ring(5)
        A = gs.laplacian(G1, "normalized").toarray()
        B = gs.laplacian(G2, gs.LaplacianKind.NORMALIZED).toarray()
        assert_allclose(A, B, atol=0)


class TestStationaryDistribution:
    def test_fixed_point_and_normalization(self):
        for seed in range(4):
            W = random_directed_strongly_connected(15, 0.25, seed)
            G = gs.graph_from_weights(W, directed=True)
            data = gs.stationary_distribution(G)
            pi = data.stationary
            assert abs(pi.sum() - 1.0) < 1e-12
            assert pi.min() > 0
            # fixed point of the walk
            residual = np.abs(pi @ data.transition.toarray() - pi).max()
            assert residual < 1e-10

    def test_row_stochastic_transition(self):
        W = random_directed_strongly_connected(8, 0.4, 2)
        G = gs.graph_from_weights(W, directed=True)
        data = gs.stationary_distribution(G)
        assert_allclose(np.asarray(data.transition.sum(axis=1)).ravel(),
                        np.ones(8), atol=1e-12)

    def test_undirected_stationary_proportional_to_degree(self):
        G = gs.sensor(24, seed=0)
        data = gs.stationary_distribution(G)
        assert_allclose(data.stationary, G.d / G.d.sum(), atol=1e-11)

    def test_sink_rejected(self):
        W = np.array([[0, 1], [0, 0]], float)
        G = gs.graph_from_weights(W, directed=True)
        with pytest.raises(exc.ZeroOutDegree):
            gs.stationary_distribution(G)

    def test_cached(self):
        W = random_directed_strongly_connected(6, 0.5, 1)
        G = gs.graph_from_weights(W, directed=True)
        assert gs.stationary_distribution(G) is gs.stationary_distribution(G)
