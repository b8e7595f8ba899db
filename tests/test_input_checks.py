"""Input checks shared across modules: real parameters, counts, signals,
self-validating hierarchies and the public name list."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

import graphsig as gs
from graphsig import exceptions as exc


def _ring(n=8):
    G = gs.ring(n)
    gs.compute_fourier_basis(G)
    return G


def _reload_warped_lmax(lmax):
    desc = gs.warped_translates(_ring(), 3).design
    desc["lmax"] = lmax
    return gs.bank_from_descriptor(desc)


POINTS = np.random.default_rng(0).random((12, 2))
IMAGE = np.arange(36.0).reshape(6, 6)

#: Every real parameter with a range check, as a call taking the value, and
#: the boundary value that must stay accepted: 0 for the ``>= 0``
#: parameters, a small positive value for the positive ones.  A third entry
#: names the error when it is not ``BadParameter``.
REAL_PARAMETERS = {
    "heat-lmax": (lambda v: gs.heat(v), 1e-3),
    "heat-tau": (lambda v: gs.heat(2.0, tau=v), 0.0),
    "bank_from_descriptor-lmax": (_reload_warped_lmax, 1e-3),
    "gabor-width": (lambda v: gs.gabor(2.0, 4, width=v), 1e-3),
    "expwin-transition": (lambda v: gs.expwin(2.0, 0.2, transition=v), 1e-3),
    "chebyshev_coeffs-lmax": (
        lambda v: gs.chebyshev_coeffs(lambda x: np.exp(-x), 5, v), 1e-3),
    "ChebyshevCoeffs-lmax": (lambda v: gs.ChebyshevCoeffs(np.ones(3), 2, v),
                             1e-3),
    "FilterBank-lmax": (lambda v: gs.FilterBank([np.exp], v), 1e-3),
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


def test_multiresolution_takes_only_the_finest_graph():
    # A given coarse graph would be served without a check against the
    # reduction of its level.
    G = gs.sensor(60, seed=1)
    with pytest.raises(exc.BadParameter):
        gs.Multiresolution([G, gs.ring(5)], [np.arange(0, 60, 2)])
    with pytest.raises(exc.BadParameter):
        gs.Multiresolution([], [])
    mr = gs.Multiresolution([G], [np.arange(0, 60, 2)])
    assert mr.level_sizes() == [60, 30] and mr.graphs[1].N == 30


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
    "ChebyshevCoeffs-order": (
        lambda v: gs.ChebyshevCoeffs(np.ones(2), v, 2.0), 1),
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
    "sensor-seed": (lambda v: gs.sensor(12, seed=v), 0),
    "erdos_renyi-seed": (lambda v: gs.erdos_renyi(10, 0.5, seed=v), 0),
    "sbm-seed": (lambda v: gs.sbm([3, 4], 0.5, 0.1, seed=v), 0),
    "swiss_roll-seed": (lambda v: gs.swiss_roll(12, seed=v), 0),
    "two_moons-seed": (lambda v: gs.two_moons(12, seed=v), 0),
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


def _pyramid_analysis(f):
    G = gs.ring(8)
    return gs.pyramid_analysis(gs.graph_multiresolution(G, 1), f)


_MR = gs.graph_multiresolution(gs.ring(8), 1)
_PYR = gs.pyramid_analysis(_MR, np.arange(8.0))


#: Inputs of the wrong kind that numpy, an enum or a call binding would
#: refuse with a bare ``ValueError`` or ``TypeError``, as a call taking the
#: input, and an input that must stay accepted.
TYPED_REFUSALS = {
    "design-heat-unknown_parameter": (
        lambda v: gs.design("heat", 2.0, **v), {"tau": 1.0}, {"bogus": 1}),
    "design-warped_translates-unknown_parameter": (
        lambda v: gs.design("warped_translates", _ring(), **v),
        {"n_filters": 3}, {"bogus": 1}),
    "gft-signal": (lambda v: gs.gft(_ring(), v), np.ones(8), "x"),
    "pyramid_analysis-signal": (_pyramid_analysis, np.ones(8), ["a"] * 8),
    "laplacian-kind": (lambda v: gs.laplacian(gs.ring(8), kind=v),
                       "normalized", "foo"),
    "snr-reference": (lambda v: gs.snr(v, np.ones(3)), np.arange(3.0), "x"),
    "graph_from_weights-weights": (gs.graph_from_weights, gs.ring(4).W, "x"),
    "chebyshev_coeffs-kernel": (lambda v: gs.chebyshev_coeffs(v, 5, 2.0),
                                np.exp, "x"),
    # A wrong object where a graph, a bank or a design kind goes.
    "warped_translates-graph": (gs.warped_translates, _ring(), 4.0),
    "filter_analysis-graph": (
        lambda v: gs.filter_analysis(v, gs.itersine(4.0, 4), np.ones(8)),
        _ring(), "G"),
    "tik_denoise-graph": (lambda v: gs.tik_denoise(v, np.ones(8), 1.0),
                          _ring(), "G"),
    "wavelet_denoise-graph": (
        lambda v: gs.wavelet_denoise(v, gs.itersine(4.0, 4), np.ones(8), 0.1),
        _ring(), "G"),
    "filter_analysis-bank": (
        lambda v: gs.filter_analysis(_ring(), v, np.ones(8)),
        gs.itersine(4.0, 4), "b"),
    "filter_synthesis-bank": (
        lambda v: gs.filter_synthesis(_ring(), v, np.ones((8, 4))),
        gs.itersine(4.0, 4), 5),
    "solve_bpdn-bank": (lambda v: gs.solve_bpdn(_ring(), v, np.ones(8)),
                        gs.itersine(4.0, 4), "b"),
    # Coefficients built directly, not by chebyshev_coeffs: a NaN lmax used
    # to give an all-NaN chebyshev_apply without an error.
    "ChebyshevCoeffs-lmax": (
        lambda v: gs.ChebyshevCoeffs(np.ones(3), 2, lmax=v), 2.0, np.nan),
    "ChebyshevCoeffs-order": (lambda v: gs.ChebyshevCoeffs(np.ones(3), v, 2.0),
                              2, 0),
    "ChebyshevCoeffs-length": (lambda v: gs.ChebyshevCoeffs(v, 2, lmax=3.0),
                               np.ones(3), np.ones(5)),
    "ChebyshevCoeffs-finite": (lambda v: gs.ChebyshevCoeffs(v, 2, lmax=3.0),
                               np.ones(3), [1.0, np.inf, 1.0]),
    "ChebyshevCoeffs-numeric": (lambda v: gs.ChebyshevCoeffs(v, 2, lmax=3.0),
                                np.ones(3), ["a", "b", "c"]),
    # A Graph built directly, not by graph_from_weights: it used to be
    # accepted unchecked and without a Laplacian.
    "Graph-weights": (lambda v: gs.Graph(v, False), gs.ring(4).W,
                      np.ones((3, 3))),
    "Graph-format": (lambda v: gs.Graph(v, False), gs.ring(4).W,
                     sp.csr_matrix(gs.ring(4).W)),
    "Graph-symmetric": (lambda v: gs.Graph(v, False), gs.ring(4).W,
                        sp.csr_array(np.triu(gs.ring(4).W.toarray()))),
    "Graph-self_loops": (lambda v: gs.Graph(v, False), gs.ring(4).W,
                         sp.csr_array(np.eye(4))),
    "Graph-directed": (lambda v: gs.Graph(gs.ring(4).W, v), False, "auto"),
    "Graph-coords": (lambda v: gs.Graph(gs.ring(4).W, False, coords=v),
                     np.zeros((4, 2)), [["a", "b"]] * 4),
    # A bank built directly: an empty one or a bare function used to fail
    # later with a bare ValueError or TypeError.
    "FilterBank-kernels": (lambda v: gs.FilterBank(v, 2.0), [np.exp], []),
    "FilterBank-callables": (lambda v: gs.FilterBank(v, 2.0), (np.exp,),
                             np.exp),
    "FilterBank-design": (lambda v: gs.FilterBank([np.exp], 2.0, design=v),
                          None, "heat"),
    # A Kernel is callable whatever it wraps, so the bank's callable check
    # cannot catch a non-function inside it.
    "Kernel-fn": (gs.Kernel, np.exp, "x"),
    "Multiresolution-keeps": (lambda v: gs.Multiresolution([gs.ring(8)], v),
                              [[0, 2, 4, 6]], [[0, 0]]),
    "chebyshev_apply-coeffs": (
        lambda v: gs.chebyshev_apply(_ring(), v, np.ones(8)),
        gs.chebyshev_coeffs(np.exp, 5, 4.5), "c"),
    "frame_bounds-bank": (gs.frame_bounds, gs.itersine(4.0, 4), "b"),
    "design-kind": (lambda v: gs.design(v, 2.0), "heat", ["heat"]),
    "bank_from_descriptor-kind": (
        lambda v: gs.bank_from_descriptor({"kind": v, "lmax": 2.0}),
        "heat", ["heat"]),
    "estimate_lmax-graph": (gs.estimate_lmax, gs.ring(8), "G"),
    "compute_fourier_basis-graph": (gs.compute_fourier_basis, gs.ring(8),
                                    "G"),
    "get_lmax-graph": (gs.get_lmax, _ring(), "G"),
    "get_spectral-graph": (gs.get_spectral, _ring(), "G"),
    "gft-graph": (lambda v: gs.gft(v, np.ones(8)), _ring(), "G"),
    "igft-graph": (lambda v: gs.igft(v, np.ones(8)), _ring(), "G"),
    "localize-graph": (lambda v: gs.localize(v, np.exp, 1), _ring(), "G"),
    "grad-graph": (lambda v: gs.grad(v, np.ones(8)), gs.ring(8), "G"),
    "div-graph": (lambda v: gs.div(v, np.ones(8)), gs.ring(8), "G"),
    "incidence-graph": (gs.incidence, gs.ring(8), "G"),
    "laplacian-graph": (gs.laplacian, gs.ring(8), "G"),
    "stationary_distribution-graph": (gs.stationary_distribution,
                                      gs.ring(8), "G"),
    "interpolate-graph": (lambda v: gs.interpolate(v, [0], [1.0]),
                          gs.ring(8), "G"),
    "graph_multiresolution-graph": (
        lambda v: gs.graph_multiresolution(v, 1), gs.ring(8), "G"),
    "multiresolution_from_keeps-graph": (
        lambda v: gs.multiresolution_from_keeps(v, [[0, 2]]), gs.ring(8),
        "G"),
    "kron_reduce-laplacian": (lambda v: gs.kron_reduce(v, [0]),
                              gs.ring(8).L, "L"),
    "pyramid_analysis-multiresolution": (
        lambda v: gs.pyramid_analysis(v, np.ones(8)), _MR, "mr"),
    "pyramid_synthesis-multiresolution": (
        lambda v: gs.pyramid_synthesis(v, _PYR), _MR, "mr"),
    "pyramid_synthesis-pyramid": (lambda v: gs.pyramid_synthesis(_MR, v),
                                  _PYR, "p"),
    "export_graph_svg-graph": (gs.export_graph_svg, gs.ring(8), "G"),
    "export_graph_dot-graph": (gs.export_graph_dot, gs.ring(8), "G"),
    "PlotStyle.for_graph-graph": (gs.PlotStyle.for_graph, gs.ring(8), "G"),
    "export_filter_svg-bank": (gs.export_filter_svg, gs.itersine(4.0, 4),
                               "b"),
}


@pytest.mark.parametrize("name", sorted(TYPED_REFUSALS))
def test_wrong_kind_of_input_is_bad_parameter(name):
    call, good, bad = TYPED_REFUSALS[name]
    with pytest.raises(exc.BadParameter):
        call(bad)
    call(good)


#: Public classes that check nothing on construction, each with the reason it
#: needs no refusal row.
RECORD_CLASSES = {
    "DirectedData": "built only by stationary_distribution from a Graph",
    "GraphSigError": "the base of every refusal, not an input",
    "IncidenceOperator": "built only by incidence from a Graph",
    "LaplacianKind": "an enum; laplacian refuses a name it does not hold",
    "Pyramid": "pyramid_synthesis checks it against its hierarchy",
    "SolverReport": "a solver's output, never an input",
    "SpectralData": "built only by compute_fourier_basis",
}

#: Public classes that check their fields on construction.
VALIDATING_CLASSES = ["ChebyshevCoeffs", "FilterBank", "Graph", "Kernel",
                      "Multiresolution", "PlotStyle"]


def test_every_public_callable_has_a_refusal_row():
    rows = {name.split("-")[0] for table in (
        REAL_PARAMETERS, COUNT_PARAMETERS, TYPED_REFUSALS) for name in table}
    missing, unsorted = [], []
    for name in gs.__all__:
        obj = getattr(gs, name)
        if inspect.isclass(obj) and name not in VALIDATING_CLASSES:
            if name not in RECORD_CLASSES:
                unsorted.append(name)
        elif name not in rows:
            missing.append(name)
    assert missing == [] and unsorted == []
    assert set(VALIDATING_CLASSES) <= set(gs.__all__)
    assert set(RECORD_CLASSES) <= set(gs.__all__)


def test_wrong_bank_is_refused_before_the_basis_is_asked_for():
    # Without a Fourier basis this used to raise MissingFourierBasis, which
    # names the wrong cause.
    with pytest.raises(exc.BadParameter):
        gs.filter_analysis(gs.ring(8), "b", np.ones(8))


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
