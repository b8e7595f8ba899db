"""Fourier basis, spectral-radius estimation, transforms and localization."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc

from oracles import random_directed_strongly_connected


class TestFourierBasis:
    def test_is_an_eigendecomposition(self, sensor64):
        S = gs.compute_fourier_basis(sensor64)
        L = sensor64.L.toarray()
        assert_allclose(L @ S.U, S.U * S.e, atol=1e-10)
        assert_allclose(S.U.T @ S.U, np.eye(64), atol=1e-10)
        assert np.all(np.diff(S.e) >= -1e-12)
        assert S.exact_lmax
        assert S.lmax == S.e[-1]

    def test_ring_eigenvalues_closed_form(self):
        for n in (4, 9, 16):
            G = gs.ring(n)
            S = gs.compute_fourier_basis(G)
            k = np.arange(n)
            expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))
            assert_allclose(S.e, expected, atol=1e-8)

    def test_zero_eigenvalue_count_matches_components(self):
        W1 = gs.ring(4).W
        W2 = gs.ring(5).W
        W = sp.block_diag([W1, W2], format="csr")
        G = gs.graph_from_weights(W, directed=False)
        S = gs.compute_fourier_basis(G)
        assert np.sum(np.abs(S.e) < 1e-10) == 2

    def test_deterministic_across_rebuilds(self):
        A = gs.compute_fourier_basis(gs.sensor(40, seed=8))
        B = gs.compute_fourier_basis(gs.sensor(40, seed=8))
        assert np.array_equal(A.U, B.U)
        assert np.array_equal(A.e, B.e)

    def test_cached(self, sensor64):
        assert gs.compute_fourier_basis(sensor64) is \
            gs.compute_fourier_basis(sensor64)

    def test_coherence_bounds(self, sensor64):
        S = gs.compute_fourier_basis(sensor64)
        assert 1.0 / np.sqrt(64) - 1e-12 <= S.mu <= 1.0 + 1e-12
        assert S.mu == np.max(np.abs(S.U))

    def test_asymmetric_laplacian_rejected(self):
        W = np.array([[0, 2, 0], [0, 0, 1], [1, 0, 0]], float)
        G = gs.graph_from_weights(W, directed=True)
        gs.laplacian(G, "degree-normalized")
        with pytest.raises(exc.NonSymmetricLaplacian):
            gs.compute_fourier_basis(G)

    def test_dense_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(gs.spectral.DENSE_CAP_ENV, "10")
        G = gs.ring(12)
        with pytest.raises(exc.GraphTooLargeForDense):
            gs.compute_fourier_basis(G)
        monkeypatch.setenv(gs.spectral.DENSE_CAP_ENV, "not-a-number")
        with pytest.raises(exc.GraphTooLargeForDense):
            gs.compute_fourier_basis(gs.ring(3))

    def test_default_cap_visible(self, monkeypatch):
        monkeypatch.delenv(gs.spectral.DENSE_CAP_ENV, raising=False)
        assert gs.spectral.dense_cap() == gs.spectral.DEFAULT_DENSE_CAP


class TestLmaxEstimate:
    def test_even_ring_window(self):
        G = gs.ring(8)  # exact top eigenvalue 4
        est = gs.estimate_lmax(G)
        assert 4.0 <= est <= 4.0 * 1.011

    def test_normalized_window(self):
        G = gs.ring(8)
        gs.laplacian(G, "normalized")  # exact top eigenvalue 2
        est = gs.estimate_lmax(G)
        assert 2.0 <= est <= 2.0 * 1.011

    def test_never_exceeds_inflated_true_value(self, sensor64):
        G = gs.sensor(64, seed=3)
        est = gs.estimate_lmax(G)
        true = gs.compute_fourier_basis(sensor64).lmax
        assert true * 0.999 <= est <= true * 1.011

    def test_exact_value_wins_once_available(self):
        G = gs.ring(8)
        gs.compute_fourier_basis(G)
        assert gs.estimate_lmax(G) == gs.get_lmax(G)
        assert abs(gs.estimate_lmax(G) - 4.0) < 1e-10

    def test_deterministic(self):
        a = gs.estimate_lmax(gs.sensor(120, seed=6))
        b = gs.estimate_lmax(gs.sensor(120, seed=6))
        assert a == b

    def test_tiny_graph_path(self):
        G = gs.path(2)
        est = gs.estimate_lmax(G)  # eigenvalues {0, 2}
        assert abs(est - 2.0 * 1.01) < 1e-12

    def test_asymmetric_laplacian_rejected(self):
        # Symmetric Lanczos on this degree-normalized directed Laplacian
        # reports 1.01 * 1.839 = 1.857, below its spectral radius 1.868, so
        # the "bound" would not be one.
        W = random_directed_strongly_connected(60, 0.03, seed=2)
        G = gs.graph_from_weights(W, directed=True, kind="degree-normalized")
        with pytest.raises(exc.NonSymmetricLaplacian):
            gs.estimate_lmax(G)
        with pytest.raises(exc.MissingLmax):
            gs.get_lmax(G)

    def test_get_lmax_requires_prior_work(self):
        G = gs.ring(6)
        with pytest.raises(exc.MissingLmax):
            gs.get_lmax(G)
        gs.estimate_lmax(G)
        assert gs.get_lmax(G) > 0


class TestTransforms:
    def test_round_trip_and_parseval(self, sensor64, rng):
        f = rng.standard_normal(64)
        f_hat = gs.gft(sensor64, f)
        assert_allclose(gs.igft(sensor64, f_hat), f, atol=1e-10)
        assert abs(np.linalg.norm(f) - np.linalg.norm(f_hat)) < 1e-10

    def test_matrix_signals(self, sensor64, rng):
        F = rng.standard_normal((64, 5))
        assert gs.gft(sensor64, F).shape == (64, 5)
        assert_allclose(gs.igft(sensor64, gs.gft(sensor64, F)), F, atol=1e-10)

    def test_constant_signal_concentrates(self):
        G = gs.ring(10)
        gs.compute_fourier_basis(G)
        f_hat = gs.gft(G, np.ones(10))
        # all energy on the zero eigenvalue for a connected combinatorial L
        assert abs(abs(f_hat[0]) - np.sqrt(10)) < 1e-10
        assert np.abs(f_hat[1:]).max() < 1e-10

    def test_requires_basis(self, rng):
        G = gs.ring(6)
        with pytest.raises(exc.MissingFourierBasis):
            gs.gft(G, rng.standard_normal(6))

    def test_shape_checked(self, sensor64, rng):
        with pytest.raises(exc.ShapeMismatch):
            gs.gft(sensor64, rng.standard_normal(63))


class TestLocalize:
    def test_flat_kernel_gives_scaled_impulse(self, sensor64):
        out = gs.localize(sensor64, lambda x: np.ones_like(x), 12)
        expected = np.zeros(64)
        expected[12] = np.sqrt(64)
        assert_allclose(out, expected, atol=1e-10)

    def test_exact_and_chebyshev_routes_agree(self):
        kernel = lambda x: np.exp(-x)
        G1 = gs.sensor(64, seed=3)
        gs.compute_fourier_basis(G1)
        exact = gs.localize(G1, kernel, 5)
        G2 = gs.sensor(64, seed=3)
        gs.estimate_lmax(G2)
        approx = gs.localize(G2, kernel, 5, order=40)
        assert_allclose(approx, exact, atol=1e-8)

    def test_bad_vertex(self, sensor64):
        with pytest.raises(exc.IndexOutOfRange):
            gs.localize(sensor64, np.exp, 64)

    def test_needs_some_spectral_data(self):
        G = gs.ring(6)
        with pytest.raises(exc.MissingFourierBasis):
            gs.localize(G, np.exp, 0)


#: Measures, in a fresh process, how far computing the basis of
#: sensor(1200, 0) raises the peak RSS over the RSS just before the call.
#: The peak is the kernel's high-water mark of this process's own memory
#: (``VmHWM``): ``ru_maxrss`` starts at the test process's peak, because
#: Linux carries it over the ``exec`` of a spawned child.
_BASIS_PEAK_SNIPPET = """
import json
import graphsig as gs

def status_kb(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith(field + ":"))

n = 1200
G = gs.sensor(n, seed=0)
before = status_kb("VmRSS")
gs.compute_fourier_basis(G)
grown = (status_kb("VmHWM") - before) * 1024
print(json.dumps({"doubles_per_n2": grown / (8 * n * n)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc")
def test_fourier_basis_peaks_under_four_n_squared_doubles(fresh_interpreter):
    # One N^2 buffer plus dsyevd's 2 N^2 workspace; a symmetrized copy or a
    # second eigenvector array would push it past 4.
    assert fresh_interpreter(_BASIS_PEAK_SNIPPET)["doubles_per_n2"] < 4.0
