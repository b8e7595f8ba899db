"""Input checks shared across modules: real parameters, counts, signals,
self-validating hierarchies and the public name list."""

import numpy as np
import pytest

import graphsig as gs
from graphsig import exceptions as exc


def _ring(n=8):
    G = gs.ring(n)
    gs.compute_fourier_basis(G)
    return G


POINTS = np.random.default_rng(0).random((12, 2))
IMAGE = np.arange(36.0).reshape(6, 6)

#: Every real parameter with a range check, as a call taking the value, and
#: the boundary value that must stay accepted: 0 for the ``>= 0``
#: parameters, a small positive value for the positive ones.  A third entry
#: names the error when it is not ``BadParameter``.
REAL_PARAMETERS = {
    "heat-lmax": (lambda v: gs.heat(v), 1e-3),
    "heat-tau": (lambda v: gs.heat(2.0, tau=v), 0.0),
    "gabor-width": (lambda v: gs.gabor(2.0, 4, width=v), 1e-3),
    "expwin-transition": (lambda v: gs.expwin(2.0, 0.2, transition=v), 1e-3),
    "chebyshev_coeffs-lmax": (
        lambda v: gs.chebyshev_coeffs(lambda x: np.exp(-x), 5, v), 1e-3),
    "frame_bounds-lmax": (
        lambda v: gs.frame_bounds(gs.itersine(4.0, 4), lmax=v), 1e-3),
    "prox_tv-gamma": (lambda v: gs.prox_tv(_ring(), np.ones(8), v), 0.0),
    "tik_denoise-gamma": (
        lambda v: gs.tik_denoise(_ring(), np.ones(8), v), 0.0),
    "wavelet_denoise-tau": (
        lambda v: gs.wavelet_denoise(_ring(), gs.itersine(4.0, 4),
                                     np.ones(8), v), 0.0),
    "solve_bpdn-lam": (
        lambda v: gs.solve_bpdn(_ring(), gs.itersine(4.0, 4), np.ones(8),
                                lam=v, max_iter=2), 0.0),
    "graph_multiresolution-alpha": (
        lambda v: gs.graph_multiresolution(gs.ring(8), 1, alpha=v), 0.0),
    "graph_multiresolution-epsilon": (
        lambda v: gs.graph_multiresolution(gs.ring(8), 1, epsilon=v), 1e-3),
    "interpolate-epsilon": (
        lambda v: gs.interpolate(gs.ring(8), [0, 2], [1.0, 2.0], epsilon=v),
        1e-3),
    "two_moons-radius": (lambda v: gs.two_moons(20, radius=v), 1e-3),
    "nn_graph-sigma": (lambda v: gs.nn_graph(POINTS, k=3, sigma=v), 1e-3),
    "nn_graph-epsilon": (lambda v: gs.nn_graph(POINTS, epsilon=v), 1e-3),
    "patch_graph-search_window": (
        lambda v: gs.patch_graph(IMAGE, 3, 3, search_window=v), 1e-3),
    "PlotStyle-vertex_radius": (
        lambda v: gs.PlotStyle(vertex_radius=v), 1e-3),
    "PlotStyle-edge_width": (lambda v: gs.PlotStyle(edge_width=v), 1e-3),
    "export_filter_svg-lmax": (
        lambda v: gs.export_filter_svg(gs.itersine(4.0, 4), lmax=v), 1e-3),
    "PlotStyle-font_size": (lambda v: gs.PlotStyle(font_size=v), 1e-3),
    "expwin-band": (lambda v: gs.expwin(2.0, band=v), 1e-3),
    "erdos_renyi-p": (lambda v: gs.erdos_renyi(10, v), 0.0,
                      exc.BadProbability),
    "sbm-p_in": (lambda v: gs.sbm([3, 4], v, 0.1), 0.0, exc.BadProbability),
    "sbm-p_out": (lambda v: gs.sbm([3, 4], 0.5, v), 0.0, exc.BadProbability),
    "community-p_in": (lambda v: gs.community(12, 3, p_in=v), 0.0,
                       exc.BadProbability),
    "community-p_out": (lambda v: gs.community(12, 3, p_out=v), 0.0,
                        exc.BadProbability),
    "prox_tv-tol": (
        lambda v: gs.prox_tv(_ring(), np.arange(8.0), 0.5, max_iter=20,
                             tol=v), 0.0),
    "tik_denoise-tol": (
        lambda v: gs.tik_denoise(_ring(), np.arange(8.0), 0.5, tol=v),
        1e-300),
    "solve_bpdn-tol": (
        lambda v: gs.solve_bpdn(_ring(), gs.itersine(4.0, 4),
                                np.arange(8.0), max_iter=20, tol=v), 0.0),
}

#: The parameters of ``REAL_PARAMETERS`` that also have an upper bound, 1.
FRACTIONS = ["community-p_in", "community-p_out", "erdos_renyi-p",
             "expwin-band", "sbm-p_in", "sbm-p_out"]


def _expected(table, name):
    """A table entry's call, its accepted boundary and its error type."""
    call, boundary, *error = table[name]
    return call, boundary, error[0] if error else exc.BadParameter


@pytest.mark.parametrize("name", sorted(REAL_PARAMETERS))
def test_real_parameter_must_be_finite_and_in_range(name):
    call, boundary, error = _expected(REAL_PARAMETERS, name)
    for bad in (np.nan, np.inf, -np.inf, "1.0", True, -1.0):
        with pytest.raises(error):
            call(bad)
    call(boundary)
    call(np.float64(boundary))


@pytest.mark.parametrize("name", FRACTIONS)
def test_fraction_must_be_at_most_one(name):
    call, _, error = _expected(REAL_PARAMETERS, name)
    for bad in (1.0 + 1e-12, 2):
        with pytest.raises(error):
            call(bad)
    call(1.0)
    call(1)


def test_multiresolution_validates_direct_construction():
    G = gs.ring(8)
    with pytest.raises(exc.BadParameter):
        gs.Multiresolution([G], [[0, 0]])
    with pytest.raises(exc.BadParameter):
        gs.Multiresolution([G], [], alpha=np.nan)
    with pytest.raises(exc.BadParameter):
        gs.Multiresolution([G], [np.arange(8)])
    with pytest.raises(exc.NotConnected):
        gs.Multiresolution([gs.graph_from_weights(np.zeros((3, 3)))], [])
    mr = gs.Multiresolution([G], [[6, 0, 2, 4]], alpha=1)
    assert mr.level_sizes() == [8, 4] and isinstance(mr.alpha, float)
    assert np.array_equal(mr.keeps[0], [0, 2, 4, 6])


class TestCounts:
    """Counts are refused as floats, not truncated; integers pass."""

    def test_chebyshev_order(self):
        with pytest.raises(exc.BadParameter):
            gs.chebyshev_coeffs(lambda x: np.exp(-x), 2.5, 4.0)
        assert gs.chebyshev_coeffs(lambda x: np.exp(-x), np.int64(2),
                                   4.0).order == 2

    def test_pyramid_levels(self):
        G = gs.ring(8)
        for bad in (1.5, 1.0, True):
            with pytest.raises(exc.BadParameter):
                gs.graph_multiresolution(G, bad)
        assert gs.graph_multiresolution(G, np.int32(1)).n_levels == 1

    def test_localize_vertex(self):
        G = _ring()
        with pytest.raises(exc.BadParameter):
            gs.localize(G, lambda x: np.exp(-x), 2.7)
        assert np.array_equal(gs.localize(G, lambda x: np.exp(-x),
                                          np.uint8(2)),
                              gs.localize(G, lambda x: np.exp(-x), 2))


def _reload_warped(n_filters):
    desc = gs.warped_translates(_ring(), 3).design
    desc["params"]["n_filters"] = n_filters
    return gs.bank_from_descriptor(desc)


#: Every count that used to be truncated, read from a bool or to raise a
#: bare ``TypeError``, as a call taking the value, and the smallest value
#: that must stay accepted.  A third entry names the error when it is not
#: ``BadParameter``.
COUNT_PARAMETERS = {
    "nn_graph-k": (lambda v: gs.nn_graph(POINTS, k=v), 1),
    "patch_graph-k": (lambda v: gs.patch_graph(IMAGE, 3, k=v), 1),
    "frame_bounds-grid_size": (
        lambda v: gs.frame_bounds(gs.itersine(4.0, 4), grid_size=v), 2),
    "export_filter_svg-grid_size": (
        lambda v: gs.export_filter_svg(gs.itersine(4.0, 4), grid_size=v), 2),
    "regular_hp_lp-degree": (lambda v: gs.regular_hp_lp(4.0, v), 0),
    "mexican_hat-n_scales": (lambda v: gs.mexican_hat(4.0, v), 1),
    "itersine-n_filters": (lambda v: gs.itersine(4.0, v), 1),
    "gabor-n_shifts": (lambda v: gs.gabor(4.0, v), 1),
    "warped_translates-n_filters": (
        lambda v: gs.warped_translates(_ring(), v), 1),
    "bank_from_descriptor-n_filters": (_reload_warped, 1),
    "PlotStyle-width": (lambda v: gs.PlotStyle(width=v), 50),
    "PlotStyle-height": (lambda v: gs.PlotStyle(height=v), 50),
    "ring-n": (lambda v: gs.ring(v), 3, exc.SizeTooSmall),
    "path-n": (lambda v: gs.path(v), 2, exc.SizeTooSmall),
    "comet-star_degree": (lambda v: gs.comet(2, v), 1, exc.SizeTooSmall),
    "comet-tail_length": (lambda v: gs.comet(v, 2), 0),
    "grid2d-rows": (lambda v: gs.grid2d(v, 3), 1, exc.SizeTooSmall),
    "grid2d-cols": (lambda v: gs.grid2d(3, v), 1, exc.SizeTooSmall),
    "erdos_renyi-n": (lambda v: gs.erdos_renyi(v, 0.5), 2, exc.SizeTooSmall),
    "sbm-block_size": (lambda v: gs.sbm([v, 4], 0.5, 0.1), 1),
    "community-n": (lambda v: gs.community(v, 2), 2, exc.SizeTooSmall),
    "community-n_communities": (lambda v: gs.community(12, v), 1),
    "sensor-n": (lambda v: gs.sensor(v), 2, exc.SizeTooSmall),
    "sensor-k": (lambda v: gs.sensor(12, k=v), 1),
    "swiss_roll-n": (lambda v: gs.swiss_roll(v), 2, exc.SizeTooSmall),
    "swiss_roll-k": (lambda v: gs.swiss_roll(12, k=v), 1),
    "two_moons-n": (lambda v: gs.two_moons(v), 2, exc.SizeTooSmall),
    "two_moons-k": (lambda v: gs.two_moons(12, k=v), 1),
    "patch_graph-patch_size": (lambda v: gs.patch_graph(IMAGE, v, 3), 1),
    "prox_tv-max_iter": (
        lambda v: gs.prox_tv(_ring(), np.arange(8.0), 0.5, max_iter=v), 0),
    "tik_denoise-max_iter": (
        lambda v: gs.tik_denoise(_ring(), np.arange(8.0), 0.5, max_iter=v),
        1),
    "solve_bpdn-max_iter": (
        lambda v: gs.solve_bpdn(_ring(), gs.itersine(4.0, 4),
                                np.arange(8.0), max_iter=v), 0),
}


@pytest.mark.parametrize("name", sorted(COUNT_PARAMETERS))
def test_count_parameter_must_be_an_integer(name):
    call, smallest, error = _expected(COUNT_PARAMETERS, name)
    for bad in (smallest + 1.5, float(smallest + 1), True, np.nan,
                smallest - 1):
        with pytest.raises(error):
            call(bad)
    call(smallest)
    call(np.int64(smallest))


def test_sbm_checks_blocks_and_total():
    for bad in (5, [], [3, True], "34"):
        with pytest.raises(exc.BadParameter):
            gs.sbm(bad, 0.5, 0.1)
    with pytest.raises(exc.BadParameter):
        gs.sbm([3, 4], 0.5, 0.1, n=7.0)
    assert gs.sbm((np.int64(3), 4), 0.5, 0.1, n=np.int32(7)).N == 7


def test_design_descriptors_store_python_ints():
    bank = gs.itersine(4.0, np.int32(3))
    assert type(bank.design["params"]["n_filters"]) is int
    assert gs.bank_from_descriptor(bank.design).design == bank.design


@pytest.mark.parametrize("generator", [gs.two_moons, gs.swiss_roll])
def test_generator_noise_must_be_finite_and_nonnegative(generator):
    # A negative noise used to be read as no noise.
    for bad in (np.nan, np.inf, -1.0, "0.1"):
        with pytest.raises(exc.BadParameter):
            generator(30, noise=bad)
    assert generator(30, noise=0).N == 30
    assert generator(30, noise=np.float64(0.01)).N == 30


def test_frame_bounds_refuses_non_finite_eigenvalues():
    bank = gs.itersine(4.0, 4)
    for eigs in ([np.nan], [1.0, np.inf]):
        with pytest.raises(exc.NonFiniteValue):
            gs.frame_bounds(bank, eigenvalues=eigs)


def test_solve_bpdn_refuses_a_non_finite_mask():
    mask = np.ones(8)
    mask[3] = np.nan
    with pytest.raises(exc.NonFiniteValue):
        gs.solve_bpdn(_ring(), gs.itersine(4.0, 4), np.ones(8), mask=mask)


def test_snr_refuses_mismatched_shapes():
    with pytest.raises(exc.ShapeMismatch):
        gs.snr(np.ones(5), 0.9 * np.ones((5, 1)))


def test_div_refuses_a_non_finite_edge_signal():
    G = gs.ring(6)
    s = np.ones(G.Ne)
    s[0] = np.nan
    with pytest.raises(exc.NonFiniteValue):
        gs.div(G, s)


def test_export_graph_svg_refuses_bad_signals():
    G = gs.ring(6)
    f = np.arange(6.0)
    f[2] = np.nan
    with pytest.raises(exc.NonFiniteValue):
        gs.export_graph_svg(G, f)
    with pytest.raises(exc.ShapeMismatch):
        gs.export_graph_svg(G, np.ones((3, 2)))


def test_public_names_are_pinned():
    assert sorted(gs.__all__) == [
        "ChebyshevCoeffs", "DirectedData", "FilterBank", "Graph",
        "GraphSigError", "IncidenceOperator", "Kernel",
        "LaplacianKind", "Multiresolution", "PlotStyle", "Pyramid",
        "SolverReport", "SpectralData", "bank_from_descriptor",
        "chebyshev_apply", "chebyshev_coeffs", "comet", "community",
        "compute_fourier_basis", "design", "div", "erdos_renyi",
        "estimate_lmax", "export_filter_svg", "export_graph_dot",
        "export_graph_svg", "expwin", "filter_analysis",
        "filter_synthesis", "frame_bounds", "gabor", "get_lmax",
        "get_spectral", "gft", "grad", "graph_from_weights",
        "graph_multiresolution", "grid2d", "heat", "igft",
        "incidence", "interpolate", "itersine", "kron_reduce",
        "laplacian", "localize", "mexican_hat",
        "multiresolution_from_keeps", "nn_graph", "patch_graph",
        "path", "prox_tv", "pyramid_analysis", "pyramid_synthesis",
        "regular_hp_lp", "ring", "sbm", "sensor", "snr", "solve_bpdn",
        "stationary_distribution", "swiss_roll", "tik_denoise",
        "two_moons", "warped_translates", "wavelet_denoise",
    ]
    assert all(hasattr(gs, name) for name in gs.__all__)
