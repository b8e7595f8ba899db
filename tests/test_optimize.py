"""Denoising solvers: TV prox, Tikhonov, wavelet shrinkage, BPDN."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc
from graphsig import filters, optimize


def piecewise_clean(G, seed=0):
    """A two-level signal aligned with the left/right halves of the square."""
    return np.where(G.coords[:, 0] < 0.5, 1.0, -1.0)


class TestSnr:
    def test_known_ratio(self):
        ref = np.zeros(100)
        ref[0] = 10.0           # power 100
        est = ref.copy()
        est[1] = 1.0            # error power 1
        assert abs(gs.snr(ref, est) - 20.0) < 1e-12

    def test_perfect_is_infinite(self):
        assert gs.snr([1.0, 2.0], [1.0, 2.0]) == np.inf


class TestProxTV:
    def test_two_vertex_closed_form(self):
        G = gs.graph_from_weights([[0, 1], [1, 0]])
        y = np.array([3.0, -1.0])
        for gamma in (0.5, 1.5, 2.5):
            x, rep = gs.prox_tv(G, y, gamma, tol=1e-12)
            m, d = y.mean(), (y[1] - y[0]) / 2
            delta = np.sign(d) * max(abs(d) - gamma, 0.0)
            assert_allclose(x, [m - delta, m + delta], atol=1e-10)
            assert rep.converged

    def test_zero_gamma_is_identity(self, sensor64, rng):
        y = rng.standard_normal(64)
        x, rep = gs.prox_tv(sensor64, y, 0.0)
        assert np.array_equal(x, y)
        assert rep.converged and rep.iterations == 0

    def test_constant_signal_is_fixed_point(self, sensor64):
        y = np.full(64, 3.25)
        x, rep = gs.prox_tv(sensor64, y, 1.0, tol=1e-12)
        assert_allclose(x, y, atol=1e-12)
        assert rep.converged

    def test_huge_gamma_gives_the_mean(self, rng):
        G = gs.sensor(40, seed=2)
        y = rng.standard_normal(40)
        x, rep = gs.prox_tv(G, y, 50.0, tol=1e-12, max_iter=20000)
        assert rep.converged
        assert_allclose(x, y.mean(), atol=1e-8)

    def test_duality_gap_certificate(self, sensor64, rng):
        y = rng.standard_normal(64)
        x, rep = gs.prox_tv(sensor64, y, 0.3, tol=1e-8, max_iter=20000)
        assert rep.converged
        assert rep.residual <= 1e-8

    def test_history_is_non_increasing(self, sensor64, rng):
        y = rng.standard_normal(64)
        _, rep = gs.prox_tv(sensor64, y, 0.5, tol=1e-10, max_iter=500)
        h = rep.objective_history
        assert all(b <= a for a, b in zip(h, h[1:]))

    def test_denoises_piecewise_signal(self, rng):
        G = gs.sensor(80, seed=11)
        clean = piecewise_clean(G)
        noisy = clean + 0.4 * rng.standard_normal(80)
        x, _ = gs.prox_tv(G, noisy, 0.4, tol=1e-8, max_iter=5000)
        assert gs.snr(clean, x) > gs.snr(clean, noisy) + 2.0

    def test_matrix_columns_match_separate_runs(self, rng):
        G = gs.sensor(40, seed=2)
        Y = rng.standard_normal((40, 2))
        XJ, _ = gs.prox_tv(G, Y, 0.3, tol=1e-11, max_iter=20000)
        for j in range(2):
            xj, _ = gs.prox_tv(G, Y[:, j], 0.3, tol=1e-11, max_iter=20000)
            assert_allclose(XJ[:, j], xj, atol=1e-7)

    def test_validation(self, sensor64, rng):
        with pytest.raises(exc.BadParameter):
            gs.prox_tv(sensor64, rng.standard_normal(64), -1.0)
        with pytest.raises(exc.ShapeMismatch):
            gs.prox_tv(sensor64, rng.standard_normal(63), 1.0)


class TestTikhonov:
    def test_matches_dense_solve(self, sensor64, rng):
        y = rng.standard_normal(64)
        gamma = 0.8
        x, rep = gs.tik_denoise(sensor64, y, gamma)
        A = np.eye(64) + 2.0 * gamma * sensor64.L.toarray()
        assert_allclose(x, np.linalg.solve(A, y), atol=1e-8)
        assert rep.converged
        assert rep.residual <= 1e-9

    def test_zero_gamma_is_identity(self, sensor64, rng):
        y = rng.standard_normal(64)
        x, _ = gs.tik_denoise(sensor64, y, 0.0)
        assert np.array_equal(x, y)

    def test_huge_gamma_gives_the_mean(self, rng):
        G = gs.sensor(40, seed=2)
        y = rng.standard_normal(40)
        x, _ = gs.tik_denoise(G, y, 1e6)
        assert_allclose(x, y.mean(), atol=1e-4)

    def test_solution_beats_obvious_candidates(self, sensor64, rng):
        y = rng.standard_normal(64)
        gamma = 0.5
        L = sensor64.L

        def obj(x):
            return float(np.sum((x - y) ** 2)) + 2 * gamma * float(x @ (L @ x))

        x, rep = gs.tik_denoise(sensor64, y, gamma)
        assert rep.objective <= obj(y) + 1e-9
        assert rep.objective <= obj(np.full(64, y.mean())) + 1e-9
        assert abs(rep.objective - obj(x)) < 1e-9

    def test_history_is_non_increasing(self, sensor64, rng):
        _, rep = gs.tik_denoise(sensor64, rng.standard_normal(64), 1.0)
        h = rep.objective_history
        assert len(h) >= 1
        assert all(b <= a for a, b in zip(h, h[1:]))

    def test_matrix_columns_identical_to_separate_runs(self, sensor64, rng):
        Y = rng.standard_normal((64, 3))
        XJ, _ = gs.tik_denoise(sensor64, Y, 0.7)
        for j in range(3):
            xj, _ = gs.tik_denoise(sensor64, Y[:, j], 0.7)
            assert np.array_equal(XJ[:, j], xj)

    def test_validation(self, sensor64):
        with pytest.raises(exc.BadParameter):
            gs.tik_denoise(sensor64, np.zeros(64), -0.1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_breakdown_is_refused_not_returned(self):
        # tol * ||y|| underflows to 0, so scipy's cg cannot stop at the
        # exact solution and divides 0 by 0 after it.
        with pytest.raises(exc.SolverFailure):
            gs.tik_denoise(gs.ring(8), 1e-30 * np.arange(8.0), 0.5,
                           tol=1e-300)


class TestWaveletDenoise:
    def test_rejects_loose_frames(self, sensor64, rng):
        bank = gs.mexican_hat(gs.compute_fourier_basis(sensor64).lmax,
                              n_scales=4)
        with pytest.raises(exc.NotTightFrame):
            gs.wavelet_denoise(sensor64, bank, rng.standard_normal(64), 0.1)

    def test_zero_threshold_is_identity(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=6)
        y = rng.standard_normal(64)
        x, rep = gs.wavelet_denoise(sensor64, bank, y, 0.0)
        assert_allclose(x, y, atol=1e-10)
        assert rep.iterations == 1 and rep.converged

    def test_improves_snr_on_smooth_signal(self, rng):
        G = gs.sensor(64, seed=0)
        S = gs.compute_fourier_basis(G)
        bank = gs.itersine(S.lmax, n_filters=6)
        clean, _ = gs.tik_denoise(G, rng.standard_normal(64), 20.0 / S.lmax)
        clean = clean / np.sqrt(np.mean(clean ** 2))
        noisy = clean + 0.5 * rng.standard_normal(64)
        x, _ = gs.wavelet_denoise(G, bank, noisy, 0.25)
        assert gs.snr(clean, x) > gs.snr(clean, noisy)

    def test_huge_threshold_zeroes_everything(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=4)
        y = rng.standard_normal(64)
        x, _ = gs.wavelet_denoise(sensor64, bank, y, 1e6)
        assert np.abs(x).max() < 1e-12

    def test_chebyshev_route_is_close(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=4)
        y = rng.standard_normal(64)
        a, _ = gs.wavelet_denoise(sensor64, bank, y, 0.2, method="exact")
        b, _ = gs.wavelet_denoise(sensor64, bank, y, 0.2,
                                  method="chebyshev", order=120)
        assert np.abs(a - b).max() < 2e-2

    def test_validation(self, sensor64):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax)
        with pytest.raises(exc.BadParameter):
            gs.wavelet_denoise(sensor64, bank, np.zeros(64), -0.5)


class TestBPDN:
    def make_bank(self, G):
        return gs.itersine(gs.compute_fourier_basis(G).lmax, n_filters=3)

    def test_kkt_certificate(self, rng):
        G = gs.ring(12)
        bank = self.make_bank(G)
        y = rng.standard_normal(12)
        lam = 0.1
        c, rep = gs.solve_bpdn(G, bank, y, lam=lam, tol=1e-12, max_iter=8000)
        g = gs.filter_analysis(G, bank,
                               gs.filter_synthesis(G, bank, c) - y)
        nz = np.abs(c) > 1e-10
        if nz.any():
            assert np.abs(g[nz] + lam * np.sign(c[nz])).max() < 1e-4
        if (~nz).any():
            assert np.abs(g[~nz]).max() <= lam + 1e-4

    def test_large_lambda_gives_zero(self, rng):
        G = gs.ring(12)
        bank = self.make_bank(G)
        y = rng.standard_normal(12)
        lam = 1.01 * np.abs(gs.filter_analysis(G, bank, y)).max()
        c, rep = gs.solve_bpdn(G, bank, y, lam=lam)
        assert np.all(c == 0) and rep.converged

    def test_zero_lambda_fits_data(self, rng):
        G = gs.ring(16)
        bank = self.make_bank(G)
        y = rng.standard_normal(16)
        c, _ = gs.solve_bpdn(G, bank, y, lam=0.0, tol=1e-12, max_iter=4000)
        recon = gs.filter_synthesis(G, bank, c)
        assert gs.snr(y, recon) > 80.0

    def test_history_is_non_increasing(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=3)
        _, rep = gs.solve_bpdn(sensor64, bank, rng.standard_normal(64),
                               lam=0.05, max_iter=300)
        h = rep.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))

    def test_inpainting_recovers_smooth_signal(self, rng):
        G = gs.sensor(64, seed=0)
        S = gs.compute_fourier_basis(G)
        bank = gs.itersine(S.lmax, n_filters=3)
        clean = S.U[:, 1] - 0.5 * S.U[:, 2]
        mask = rng.random(64) < 0.8
        c, _ = gs.solve_bpdn(G, bank, clean, lam=1e-4, mask=mask,
                             tol=1e-10, max_iter=4000)
        recon = gs.filter_synthesis(G, bank, c)
        assert gs.snr(clean, recon) > 15.0

    def test_coefficient_layout(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=3)
        Y = rng.standard_normal((64, 2))
        c, _ = gs.solve_bpdn(sensor64, bank, Y, lam=0.1, max_iter=50)
        assert c.shape == (64, 6)

    def test_validation(self, sensor64, rng):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=3)
        with pytest.raises(exc.BadParameter):
            gs.solve_bpdn(sensor64, bank, np.zeros(64), lam=-1.0)
        with pytest.raises(exc.ShapeMismatch):
            gs.solve_bpdn(sensor64, bank, np.zeros(64),
                          mask=np.ones(63, dtype=bool))


class TestBPDNWork:
    """Bank work per solve: the bank is prepared once, and an iteration
    costs one analysis and one synthesis (a restart two more)."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = {"analysis": 0, "synthesis": 0, "coeffs": 0, "prox": 0}
        bank_fn, coeffs_fn, soft_fn = (filters._chebyshev_bank,
                                       filters.chebyshev_coeffs,
                                       optimize._soft)

        def bank(L, C, lmax, X, adjoint=False):
            calls["synthesis" if adjoint else "analysis"] += 1
            return bank_fn(L, C, lmax, X, adjoint)

        def coeffs(*args):
            calls["coeffs"] += 1
            return coeffs_fn(*args)

        def soft(v, thresh):
            # One proximal step per iteration, two in a restarted one.
            calls["prox"] += 1
            return soft_fn(v, thresh)

        monkeypatch.setattr(filters, "_chebyshev_bank", bank)
        monkeypatch.setattr(filters, "chebyshev_coeffs", coeffs)
        monkeypatch.setattr(optimize, "_soft", soft)
        return calls

    def solve(self, lam, max_iter):
        G = gs.sensor(64, seed=0)
        bank = gs.itersine(gs.estimate_lmax(G), n_filters=4)
        y = np.random.default_rng(0).standard_normal(64)
        _, rep = gs.solve_bpdn(G, bank, y, lam=lam, max_iter=max_iter,
                               tol=0.0, method="chebyshev", order=20)
        return len(bank), rep

    def test_two_bank_calls_per_iteration(self, counted):
        n_kernels, rep = self.solve(lam=0.05, max_iter=20)
        assert rep.iterations == 20 and counted["prox"] == 20  # no restart
        assert counted["analysis"] == rep.iterations
        assert counted["synthesis"] == 1 + rep.iterations
        assert counted["analysis"] + counted["synthesis"] \
            == 1 + 2 * rep.iterations
        assert counted["coeffs"] == n_kernels

    def test_a_restart_costs_two_more(self, counted):
        n_kernels, rep = self.solve(lam=0.0, max_iter=10)
        restarts = counted["prox"] - rep.iterations
        assert rep.iterations == 10 and restarts == 1
        assert counted["analysis"] + counted["synthesis"] \
            == 1 + 2 * rep.iterations + 2 * restarts
        assert counted["coeffs"] == n_kernels

    def test_exact_responses_evaluated_once(self, sensor64, rng,
                                            monkeypatch):
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=3)
        sizes, evaluate = [], bank.evaluate

        def counted_evaluate(x):
            sizes.append(np.size(x))
            return evaluate(x)

        monkeypatch.setattr(bank, "evaluate", counted_evaluate)
        _, rep = gs.solve_bpdn(sensor64, bank, rng.standard_normal(64),
                               lam=0.05, max_iter=30, tol=0.0)
        assert rep.iterations == 30
        # The frame bounds' grid plus the eigenvalues, then the responses
        # on the eigenvalues once, however many iterations run.
        assert sizes == [1000 + 64, 64]


class TestSolverReport:
    def test_as_dict_round_trips_to_json_types(self, sensor64, rng):
        import json
        _, rep = gs.tik_denoise(sensor64, rng.standard_normal(64), 0.3)
        d = rep.as_dict()
        assert set(d) == {"iterations", "objective", "residual", "converged",
                          "objective_history"}
        blob = json.dumps(d)
        assert json.loads(blob)["iterations"] == rep.iterations
