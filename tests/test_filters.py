"""Filter banks, Chebyshev machinery and frame identities."""

import argparse
import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc
from graphsig import filters
from graphsig import io as gs_io
from graphsig.cli import build_parser


GRID = np.linspace(0.0, 1.0, 501)


class TestKernelAndBank:
    def test_scalar_in_float_out(self):
        k = gs.Kernel(lambda x: 2.0 * x, "double")
        out = k(0.5)
        assert isinstance(out, float) and out == 1.0
        assert_allclose(k(np.array([1.0, 2.0])), [2.0, 4.0], atol=0)

    def test_evaluate_shape(self):
        bank = gs.itersine(1.0, n_filters=4)
        assert bank.evaluate(GRID).shape == (4, GRID.size)
        assert bank.evaluate(0.3).shape == (4, 1)
        assert len(bank) == 4
        assert bank[0] is bank.kernels[0]
        assert [k for k in bank] == bank.kernels

    def test_bank_stores_its_kernels_as_a_list(self):
        kernels = (np.exp, gs.Kernel(np.sin))
        bank = gs.FilterBank(kernels, np.float64(2.0))
        assert bank.kernels == list(kernels)
        assert type(bank.lmax) is float

    def test_lmax_from_graph_estimate(self):
        G = gs.ring(8)
        bank = gs.heat(G, tau=3.0)
        assert bank.lmax == gs.estimate_lmax(G)

    def test_bad_lmax(self):
        with pytest.raises(exc.BadParameter):
            gs.heat(-1.0)
        with pytest.raises(exc.BadParameter):
            gs.heat(float("nan"))


class TestDesigns:
    def test_heat_formula(self):
        bank = gs.heat(4.0, tau=2.0)
        assert_allclose(bank.evaluate(GRID * 4.0)[0],
                        np.exp(-2.0 * GRID), atol=1e-15)

    def test_heat_zero_tau_is_identity(self):
        bank = gs.heat(3.0, tau=0.0)
        assert_allclose(bank.evaluate(GRID * 3.0)[0], 1.0, atol=0)

    def test_heat_negative_tau_rejected(self):
        with pytest.raises(exc.BadParameter):
            gs.heat(2.0, tau=-1.0)

    def test_mexican_hat_peaks_at_one(self):
        bank = gs.mexican_hat(10.0, n_scales=4)
        assert len(bank) == 5  # lowpass + scales
        # every band-pass kernel attains its maximum value 1 somewhere
        vals = bank.evaluate(np.linspace(0, 10, 20001))
        assert_allclose(vals[1:].max(axis=1), 1.0, atol=1e-4)
        assert vals[0, 0] == 1.0  # lowpass at zero

    def test_itersine_partition_of_unity(self):
        for nf in (1, 2, 3, 6, 9):
            bank = gs.itersine(4.0, n_filters=nf)
            total = (bank.evaluate(np.linspace(0, 4, 701)) ** 2).sum(axis=0)
            assert_allclose(total, 1.0, atol=1e-12)

    def test_regular_pair_partition(self):
        for degree in range(5):
            bank = gs.regular_hp_lp(2.0, degree=degree)
            vals = bank.evaluate(GRID * 2.0)
            assert_allclose((vals ** 2).sum(axis=0), 1.0, atol=1e-14)
            # low-pass starts at one, high-pass ends at one
            assert abs(vals[0, 0] - 1.0) < 1e-12
            assert abs(vals[1, -1] - 1.0) < 1e-12

    def test_gabor_centers(self):
        bank = gs.gabor(6.0, n_shifts=4)
        assert len(bank) == 4
        vals = bank.evaluate(np.linspace(0, 6, 4))
        # kernel j peaks exactly at center j
        assert_allclose(np.diag(vals), 1.0, atol=0)

    def test_gabor_custom_mother_not_serializable(self):
        bank = gs.gabor(6.0, n_shifts=3, mother=lambda x: np.exp(-np.abs(x)))
        assert bank.design is None

    def test_expwin_plateau_and_cutoff(self):
        bank = gs.expwin(10.0, band=0.2, transition=0.5)
        k = bank[0]
        assert_allclose(k(np.array([0.0, 1.0, 2.0])), 1.0, atol=0)
        assert_allclose(k(np.array([3.0, 5.0, 10.0])), 0.0, atol=0)
        mid = k(2.5)
        assert 0.0 < mid < 1.0

    def test_warped_translates_partition(self, sensor64):
        bank = gs.warped_translates(sensor64, n_filters=5)
        xs = np.linspace(0, bank.lmax, 701)
        total = (bank.evaluate(xs) ** 2).sum(axis=0)
        assert_allclose(total, 1.0, atol=1e-12)

    def test_warped_translates_needs_basis(self):
        with pytest.raises(exc.MissingFourierBasis):
            gs.warped_translates(gs.ring(6))

    def test_warp_spreads_eigenvalues_evenly(self, sensor64):
        # each band should cover roughly the same number of eigenvalues:
        # the warped response of band m at eigenvalue positions equals the
        # unwarped response at equispaced positions.
        bank = gs.warped_translates(sensor64, n_filters=5)
        S = gs.compute_fourier_basis(sensor64)
        resp = bank.evaluate(S.e) ** 2
        counts = resp.sum(axis=1)
        assert counts.min() > 0.3 * counts.max()

    def test_design_registry(self):
        a = gs.design("heat", 4.0, tau=2.0)
        b = gs.heat(4.0, tau=2.0)
        assert_allclose(a.evaluate(GRID), b.evaluate(GRID), atol=0)
        with pytest.raises(exc.BadParameter):
            gs.design("no-such-design", 4.0)
        with pytest.raises(exc.BadParameter):
            gs.design("warped_translates", 4.0)


class TestDescriptors:
    @pytest.mark.parametrize("make", [
        lambda: gs.heat(3.5, tau=7.0),
        lambda: gs.mexican_hat(5.0, n_scales=3),
        lambda: gs.itersine(2.0, n_filters=5),
        lambda: gs.regular_hp_lp(2.0, degree=2),
        lambda: gs.gabor(6.0, n_shifts=5, width=0.8),
        lambda: gs.expwin(4.0, band=0.3, transition=0.4),
    ])
    def test_json_round_trip_is_exact(self, make):
        bank = make()
        clone = gs.bank_from_descriptor(json.loads(json.dumps(bank.design)))
        xs = np.linspace(0, bank.lmax, 301)
        assert np.array_equal(bank.evaluate(xs), clone.evaluate(xs))
        assert clone.lmax == bank.lmax

    def test_warped_round_trip_without_graph(self, sensor64):
        bank = gs.warped_translates(sensor64, n_filters=4)
        blob = json.dumps(bank.design)
        clone = gs.bank_from_descriptor(json.loads(blob))
        xs = np.linspace(0, bank.lmax, 301)
        assert np.array_equal(bank.evaluate(xs), clone.evaluate(xs))

    def test_malformed_descriptor(self):
        with pytest.raises(exc.BadParameter):
            gs.bank_from_descriptor({"params": {}})
        with pytest.raises(exc.BadParameter):
            gs.bank_from_descriptor({"kind": "mystery", "lmax": 1.0})

    @pytest.mark.parametrize("kind, params", [
        ("warped_translates", {"n_filters": 3, "knots_y": [0, 1]}),
        ("warped_translates", {"n_filters": 3, "knots_x": [0, 1]}),
        ("warped_translates", {"n_filters": 3, "knots_x": [0, 1],
                               "knots_y": [0, 1], "bogus": 1}),
        ("heat", {"bogus": 3}),
        ("itersine", {"n_filters": 3, "lmax": 2.0}),
    ])
    def test_descriptor_parameters_must_fit_the_design(self, kind, params):
        with pytest.raises(exc.BadParameter):
            gs.bank_from_descriptor({"kind": kind, "lmax": 2.0,
                                     "params": params})


class TestChebyshev:
    def test_constant_kernel_coefficients(self):
        coeffs = gs.chebyshev_coeffs(lambda x: np.ones_like(x), 8, 3.0)
        assert coeffs.c[0] == 2.0
        assert np.abs(coeffs.c[1:]).max() < 1e-14

    def test_linear_kernel_coefficients(self):
        coeffs = gs.chebyshev_coeffs(lambda x: x, 1, 2.0)
        assert_allclose(coeffs.c, [2.0, 1.0], atol=1e-14)
        coeffs = gs.chebyshev_coeffs(lambda x: x, 1, 7.0)
        assert_allclose(coeffs.c, [7.0, 3.5], atol=1e-14)

    def test_polynomial_kernels_applied_exactly(self, sensor64, rng):
        f = rng.standard_normal(64)
        lin = gs.chebyshev_coeffs(lambda x: x, 1, 9.0)
        assert_allclose(gs.chebyshev_apply(sensor64, lin, f),
                        sensor64.L @ f, atol=1e-12)
        sq = gs.chebyshev_coeffs(lambda x: x ** 2, 2, 9.0)
        assert_allclose(gs.chebyshev_apply(sensor64, sq, f),
                        sensor64.L @ (sensor64.L @ f), atol=1e-12)

    def test_heat_error_shrinks_with_order(self, sensor64, rng):
        f = rng.standard_normal(64)
        bank = gs.heat(gs.compute_fourier_basis(sensor64).lmax, tau=5.0)
        exact = gs.filter_analysis(sensor64, bank, f, method="exact")
        errs = []
        for order in (5, 10, 20, 40):
            approx = gs.filter_analysis(sensor64, bank, f,
                                        method="chebyshev", order=order)
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert errs[-1] < 1e-10
        assert all(b <= a * 1.1 for a, b in zip(errs, errs[1:]))

    def test_matrix_signals(self, sensor64, rng):
        F = rng.standard_normal((64, 3))
        coeffs = gs.chebyshev_coeffs(lambda x: x, 1, 9.0)
        assert_allclose(gs.chebyshev_apply(sensor64, coeffs, F),
                        sensor64.L @ F, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(exc.BadParameter):
            gs.chebyshev_coeffs(np.exp, 0, 1.0)
        with pytest.raises(exc.BadParameter):
            gs.chebyshev_coeffs(np.exp, 5, 0.0)
        with pytest.raises(exc.BadParameter):
            gs.chebyshev_coeffs(lambda x: 1.0, 5, 1.0)  # scalar return

    def test_interval_ending_below_the_spectrum_refused(self, rng):
        # The recurrence outside [-1, 1] blows up (entries near 1e7 here).
        G = gs.sensor(64, seed=0)
        f = rng.standard_normal(64)
        lmax = gs.estimate_lmax(G)
        heat = gs.heat(lmax, tau=10.0)[0]
        with pytest.raises(exc.BadParameter, match="below the spectrum"):
            gs.chebyshev_apply(G, gs.chebyshev_coeffs(heat, 30, lmax / 2), f)
        # Above the largest degree but below the top eigenvalue: refused
        # once the exact eigenvalue is known.
        top = float(np.linalg.eigvalsh(G.L.toarray())[-1])
        short = gs.chebyshev_coeffs(heat, 30, 0.99 * top)
        assert 0.99 * top > G.L.diagonal().max()
        gs.chebyshev_apply(G, short, f)
        gs.compute_fourier_basis(G)
        with pytest.raises(exc.BadParameter, match="below the spectrum"):
            gs.chebyshev_apply(G, short, f)
        gs.chebyshev_apply(G, gs.chebyshev_coeffs(heat, 30, top), f)

    def test_apply_shape_check(self, sensor64):
        coeffs = gs.chebyshev_coeffs(np.exp, 5, 9.0)
        with pytest.raises(exc.ShapeMismatch):
            gs.chebyshev_apply(sensor64, coeffs, np.zeros(63))

    def test_fields_cannot_be_reassigned(self):
        # A NaN lmax set after construction gave an all-NaN output.
        G = gs.ring(8)
        coeffs = gs.chebyshev_coeffs(np.exp, 5, 4.5)
        want = gs.chebyshev_apply(G, coeffs, np.ones(8))
        for field, value in (("lmax", np.nan), ("c", np.ones(2)),
                             ("order", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(coeffs, field, value)
        assert np.array_equal(gs.chebyshev_apply(G, coeffs, np.ones(8)),
                              want)

    def test_coefficients_are_a_read_only_copy(self):
        # The caller's array was aliased, so a later write to it was applied
        # unchecked.
        c = np.array([2.0, 1.0, 0.5])
        coeffs = gs.ChebyshevCoeffs(c, 2, 3.0)
        c[:] = np.nan
        assert np.array_equal(coeffs.c, [2.0, 1.0, 0.5])
        with pytest.raises(ValueError):
            coeffs.c[0] = 0.0


class TestAnalysisSynthesis:
    def test_output_layout(self, sensor64, rng):
        bank = gs.itersine(gs.estimate_lmax(sensor64), n_filters=3)
        f = rng.standard_normal(64)
        C = gs.filter_analysis(sensor64, bank, f)
        assert C.shape == (64, 3)
        F = rng.standard_normal((64, 2))
        CM = gs.filter_analysis(sensor64, bank, F)
        assert CM.shape == (64, 6)
        # kernel-major: first two columns belong to kernel 0
        single = gs.filter_analysis(sensor64, gs.FilterBank([bank[0]],
                                                            bank.lmax), F)
        assert_allclose(CM[:, :2], single, atol=1e-12)

    def test_single_kernel_1d_round_trip(self, sensor64, rng):
        f = rng.standard_normal(64)
        bank = gs.heat(gs.compute_fourier_basis(sensor64).lmax, tau=0.0)
        out = gs.filter_analysis(sensor64, bank, f)
        assert out.shape == (64,)
        assert_allclose(out, f, atol=1e-10)

    def test_tight_frame_inverts_exactly(self, sensor64, rng):
        S = gs.compute_fourier_basis(sensor64)
        f = rng.standard_normal(64)
        for bank in (gs.itersine(S.lmax, n_filters=6),
                     gs.regular_hp_lp(S.lmax, degree=3),
                     gs.warped_translates(sensor64, n_filters=4)):
            C = gs.filter_analysis(sensor64, bank, f, method="exact")
            r = gs.filter_synthesis(sensor64, bank, C, method="exact")
            assert_allclose(r, f, atol=1e-10)

    def test_chebyshev_route_improves_with_order(self, sensor64, rng):
        f = rng.standard_normal(64)
        bank = gs.itersine(gs.compute_fourier_basis(sensor64).lmax,
                           n_filters=4)
        errs = []
        for order in (30, 100):
            C = gs.filter_analysis(sensor64, bank, f, method="chebyshev",
                                   order=order)
            r = gs.filter_synthesis(sensor64, bank, C, method="chebyshev",
                                    order=order)
            errs.append(np.abs(r - f).max())
        assert errs[1] < errs[0] < 1e-1

    def test_analysis_requires_spectral_data(self, rng):
        G = gs.ring(8)
        bank = gs.itersine(4.0, n_filters=3)
        f = rng.standard_normal(8)
        with pytest.raises(exc.MissingFourierBasis):
            gs.filter_analysis(G, bank, f, method="exact")
        with pytest.raises(exc.MissingLmax):
            gs.filter_analysis(G, bank, f, method="chebyshev")

    def test_bad_method(self, sensor64, rng):
        bank = gs.heat(9.0)
        with pytest.raises(exc.BadParameter):
            gs.filter_analysis(sensor64, bank, rng.standard_normal(64),
                               method="bogus")
        with pytest.raises(exc.BadParameter):
            gs.filter_synthesis(sensor64, bank, rng.standard_normal(64),
                                method="bogus")

    def test_synthesis_shape_check(self, sensor64, rng):
        bank = gs.itersine(9.0, n_filters=3)
        with pytest.raises(exc.ShapeMismatch):
            gs.filter_synthesis(sensor64, bank, rng.standard_normal((64, 4)))


class TestFrameBounds:
    def test_itersine_is_tight_at_one(self):
        bank = gs.itersine(3.0, n_filters=5)
        A, B = gs.frame_bounds(bank)
        assert abs(A - 1.0) < 1e-12 and abs(B - 1.0) < 1e-12

    def test_mexican_hat_is_loose(self):
        A, B = gs.frame_bounds(gs.mexican_hat(10.0, n_scales=5))
        assert 0 < A < B

    def test_extra_eigenvalues_can_tighten_a(self):
        # a lone Gaussian has tiny response far from its center; putting an
        # eigenvalue there must drag the lower bound down.
        bank = gs.gabor(10.0, n_shifts=1, width=0.5)
        A_grid, _ = gs.frame_bounds(bank, grid_size=11)
        A_eig, _ = gs.frame_bounds(bank, grid_size=11, eigenvalues=[9.9])
        assert A_eig <= A_grid

    def test_parameter_validation(self):
        bank = gs.heat(2.0)
        with pytest.raises(exc.BadParameter):
            gs.frame_bounds(bank, grid_size=1)
        with pytest.raises(exc.BadParameter):
            gs.frame_bounds(bank, lmax=-2.0)


def _design_choices(*command):
    """The ``--design`` choices of a ``graphsig`` subcommand."""
    parser = build_parser()
    for name in command:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)
                      ).choices[name]
    return next(a for a in parser._actions if a.dest == "design").choices


class TestDesignRegistry:
    """``design``, ``bank_from_descriptor`` and the CLI's ``--design`` read
    one registry, so they offer one set of kinds."""

    def test_one_set_of_kinds(self, sensor64):
        kinds = set(filters._DESIGNS)
        for command in (["filter"], ["denoise"], ["plot", "filters"]):
            assert set(_design_choices(*command)) == kinds
        for kind in kinds:
            bank = gs.design(kind, sensor64)
            assert bank.design["kind"] == kind
            assert gs.bank_from_descriptor(bank.design).design == bank.design
        for kind in ("mystery", "regular_hp_lp", "Heat"):
            with pytest.raises(exc.BadParameter):
                gs.design(kind, sensor64)
            with pytest.raises(exc.BadParameter):
                gs.bank_from_descriptor({"kind": kind, "lmax": 2.0})

    @pytest.mark.parametrize("kind", sorted(filters._DESIGNS))
    def test_every_kind_round_trips_bit_identically(self, kind, sensor64,
                                                    tmp_path):
        bank = gs.design(kind, sensor64)
        path = tmp_path / "bank.json"
        gs_io.save_filter_bank(path, bank)
        back = gs_io.load_filter_bank(path)
        assert back.design == bank.design and back.lmax == bank.lmax
        for x in (np.linspace(0.0, bank.lmax, 1000), sensor64._spectral.e):
            assert np.array_equal(back.evaluate(x), bank.evaluate(x))
