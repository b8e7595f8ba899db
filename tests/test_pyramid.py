"""Kron reduction, interpolation and the multiresolution pyramid."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc
from graphsig import io as gio
from graphsig import pyramid
from graphsig.cli import main

from oracles import dense_schur, random_directed_strongly_connected


class TestKronReduce:
    def test_path3_closed_form(self):
        L = gs.path(3).L
        R = gs.kron_reduce(L, [0, 2]).toarray()
        assert_allclose(R, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_star_center_elimination(self):
        # eliminating the hub of a unit-weight star wires the leaves into a
        # complete graph of weight 1/degree
        G = gs.comet(tail_length=0, star_degree=4)
        R = gs.kron_reduce(G.L, [1, 2, 3, 4]).toarray()
        expected = np.eye(4) - 0.25 * np.ones((4, 4))
        assert_allclose(R, expected, atol=1e-14)

    def test_matches_dense_schur(self, rng):
        for seed in range(4):
            G = gs.sensor(30 + 5 * seed, seed=seed)
            n = G.N
            kept = np.sort(rng.choice(n, size=n // 2 + 3, replace=False))
            R = gs.kron_reduce(G.L, kept).toarray()
            ref = dense_schur(G.L.toarray(), kept)
            assert_allclose(R, ref, atol=1e-10)

    def test_result_is_a_laplacian(self, rng):
        G = gs.sensor(40, seed=2)
        kept = np.sort(rng.choice(40, size=24, replace=False))
        R = gs.kron_reduce(G.L, kept).toarray()
        assert np.abs(R - R.T).max() == 0
        off = R - np.diag(np.diag(R))
        assert off.max() <= 0
        assert np.abs(R.sum(axis=1)).max() < 1e-9
        assert np.linalg.eigvalsh(R).min() > -1e-10

    def test_kept_validation(self):
        L = gs.path(4).L
        with pytest.raises(exc.EmptyKeptSet):
            gs.kron_reduce(L, [])
        with pytest.raises(exc.IndexOutOfRange):
            gs.kron_reduce(L, [0, 4])
        with pytest.raises(exc.BadParameter):
            gs.kron_reduce(L, [0, 1, 2, 3])

    def test_repeated_kept_index_refused(self):
        # Deduplicating would return a 2 x 2 reduction for three indices.
        with pytest.raises(exc.BadParameter):
            gs.kron_reduce(gs.path(4).L, [0, 0, 3])

    def test_non_integer_kept_refused(self):
        # A float would be truncated onto {0, 2}, a mask read as {0, 1}.
        L = gs.path(4).L
        for kept in ([0.0, 2.9], [True, False, True, False]):
            with pytest.raises(exc.BadParameter, match="integers"):
                gs.kron_reduce(L, kept)
        with pytest.raises(exc.EmptyKeptSet):
            gs.kron_reduce(L, np.array([], dtype=float))
        assert np.array_equal(
            gs.kron_reduce(L, np.array([0, 3], dtype=np.int32)).toarray(),
            gs.kron_reduce(L, [0, 3]).toarray())

    def test_disconnected_elimination_fails(self):
        W = sp.block_diag([gs.path(2).W, gs.path(2).W], format="csr")
        G = gs.graph_from_weights(W, directed=False)
        with pytest.raises(exc.SingularInteriorBlock):
            gs.kron_reduce(G.L, [0, 1])  # eliminates a whole component

    def test_asymmetric_laplacian_refused(self):
        # The symmetrized result was 0.16 (max relative) from the Schur
        # complement of this degree-normalized directed Laplacian.
        W = random_directed_strongly_connected(40, 0.1, seed=0)
        G = gs.graph_from_weights(W, directed=True, kind="degree-normalized")
        with pytest.raises(exc.NonSymmetricLaplacian):
            gs.kron_reduce(G.L, np.arange(0, 40, 2))


class TestHierarchy:
    def test_structure(self, rng):
        G = gs.sensor(64, seed=3)
        mr = gs.graph_multiresolution(G, 3)
        assert mr.n_levels == 3
        assert len(mr.graphs) == 4
        sizes = mr.level_sizes()
        assert sizes[0] == 64
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        # the kept side is always at least half of the level
        for level, kept in enumerate(mr.keeps):
            assert kept.size >= sizes[level] // 2
            assert np.array_equal(kept, np.unique(kept))
            assert_allclose(mr.graphs[level + 1].coords,
                            mr.graphs[level].coords[kept], atol=0)

    def test_deterministic(self):
        a = gs.graph_multiresolution(gs.sensor(300, seed=5), 2)
        b = gs.graph_multiresolution(gs.sensor(300, seed=5), 2)
        for ka, kb in zip(a.keeps, b.keeps):
            assert np.array_equal(ka, kb)
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.W.toarray(), gb.W.toarray())

    def test_zero_levels(self, rng):
        G = gs.sensor(20, seed=1)
        mr = gs.graph_multiresolution(G, 0)
        assert mr.n_levels == 0 and mr.graphs == [G]
        f = rng.standard_normal(20)
        pyr = gs.pyramid_analysis(mr, f)
        assert pyr.errors == [] and np.array_equal(pyr.coarse, f)
        assert_allclose(gs.pyramid_synthesis(mr, pyr), f, atol=0)

    def test_two_vertex_chain(self):
        mr = gs.graph_multiresolution(gs.path(2), 1)
        assert mr.level_sizes() == [2, 1]
        with pytest.raises(exc.BadParameter):
            gs.graph_multiresolution(gs.path(2), 2)

    def test_requires_combinatorial_undirected_connected(self):
        W = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], float)
        D = gs.graph_from_weights(W, directed=True)
        with pytest.raises(exc.KindMismatch):
            gs.graph_multiresolution(D, 1)
        G = gs.ring(8)
        gs.laplacian(G, "normalized")
        with pytest.raises(exc.KindMismatch):
            gs.graph_multiresolution(G, 1)
        two = gs.graph_from_weights(
            sp.block_diag([gs.ring(3).W, gs.ring(3).W], format="csr"))
        with pytest.raises(exc.NotConnected):
            gs.graph_multiresolution(two, 1)

    def test_parameter_validation(self):
        G = gs.ring(8)
        with pytest.raises(exc.BadParameter):
            gs.graph_multiresolution(G, -1)
        with pytest.raises(exc.BadParameter):
            gs.graph_multiresolution(G, 1, alpha=-0.5)
        with pytest.raises(exc.BadParameter):
            gs.graph_multiresolution(G, 1, epsilon=0.0)

    @pytest.mark.parametrize("G, kwargs, error", [
        (gs.ring(8), {"alpha": -1.0}, exc.BadParameter),
        (gs.ring(8), {"epsilon": 0.0}, exc.BadParameter),
        (gs.graph_from_weights(
            np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], float),
            directed=True), {}, exc.KindMismatch),
        (gs.graph_from_weights(
            sp.block_diag([gs.ring(3).W, gs.ring(3).W], format="csr")),
         {}, exc.NotConnected),
    ], ids=["alpha", "epsilon", "directed", "disconnected"])
    def test_from_keeps_validates_like_graph_multiresolution(self, G, kwargs,
                                                             error):
        with pytest.raises(error):
            gs.graph_multiresolution(G, 1, **kwargs)
        with pytest.raises(error):
            gs.multiresolution_from_keeps(G, [np.arange(0, G.N, 2)], **kwargs)

    def test_from_keeps_refuses_a_repeated_index(self):
        G = gs.sensor(48, seed=7)
        keep = np.arange(0, G.N, 2)
        with pytest.raises(exc.BadParameter):
            gs.multiresolution_from_keeps(G, [np.append(keep, keep[-1])])

    def test_from_keeps_refuses_non_integer_keeps(self):
        G = gs.sensor(48, seed=7)
        for kept in (np.arange(0, G.N, 2) + 0.5,
                     np.arange(G.N) % 2 == 0):
            with pytest.raises(exc.BadParameter, match="integers"):
                gs.multiresolution_from_keeps(G, [kept])
        with pytest.raises(exc.EmptyKeptSet):
            gs.multiresolution_from_keeps(G, [[]])

    def test_from_keeps_refuses_a_kept_set_covering_a_level(self):
        G = gs.sensor(48, seed=7)
        keep = np.arange(0, G.N, 2)
        with pytest.raises(exc.BadParameter):
            gs.multiresolution_from_keeps(G, [np.arange(G.N)])
        with pytest.raises(exc.BadParameter):
            gs.multiresolution_from_keeps(G, [keep, np.arange(keep.size)])
        with pytest.raises(exc.IndexOutOfRange):
            gs.multiresolution_from_keeps(G, [keep, [0, keep.size]])

    def test_rebuild_from_keeps(self):
        G1 = gs.sensor(48, seed=7)
        mr = gs.graph_multiresolution(G1, 2, alpha=0.7, epsilon=0.01)
        G2 = gs.sensor(48, seed=7)
        clone = gs.multiresolution_from_keeps(G2, mr.keeps, alpha=0.7,
                                              epsilon=0.01)
        assert clone.level_sizes() == mr.level_sizes()
        for ga, gb in zip(mr.graphs, clone.graphs):
            assert np.array_equal(ga.W.toarray(), gb.W.toarray())


class TestInterpolate:
    def test_exact_on_kept_vertices(self, sensor64, rng):
        kept = np.sort(rng.choice(64, size=30, replace=False))
        vals = rng.standard_normal(30)
        out = gs.interpolate(sensor64, kept, vals)
        assert_allclose(out[kept], vals, atol=1e-9)

    def test_matches_dense_oracle(self, sensor64, rng):
        kept = np.sort(rng.choice(64, size=25, replace=False))
        vals = rng.standard_normal(25)
        eps = 0.005
        out = gs.interpolate(sensor64, kept, vals, epsilon=eps)
        Ld = sensor64.L.toarray() + eps * np.eye(64)
        basis = np.linalg.solve(Ld, np.eye(64)[:, kept])
        coef = np.linalg.solve(basis[kept], vals)
        assert_allclose(out, basis @ coef, atol=1e-8)

    def test_constant_bias_scales_with_epsilon(self, sensor64):
        kept = np.arange(0, 64, 2)
        errs = []
        for eps in (1e-2, 1e-4):
            out = gs.interpolate(sensor64, kept, np.ones(32), epsilon=eps)
            errs.append(np.abs(out - 1.0).max())
        assert errs[0] < 0.1
        assert errs[1] < 0.05 * errs[0]

    def test_matrix_values(self, sensor64, rng):
        kept = np.arange(0, 64, 3)
        vals = rng.standard_normal((kept.size, 4))
        out = gs.interpolate(sensor64, kept, vals)
        assert out.shape == (64, 4)
        assert_allclose(out[kept], vals, atol=1e-9)

    def test_validation(self, sensor64):
        with pytest.raises(exc.BadParameter):
            gs.interpolate(sensor64, [0, 1], [1.0, 2.0], epsilon=-1)
        with pytest.raises(exc.EmptyKeptSet):
            gs.interpolate(sensor64, [], [])
        with pytest.raises(exc.IndexOutOfRange):
            gs.interpolate(sensor64, [0, 64], [1.0, 2.0])
        with pytest.raises(exc.ShapeMismatch):
            gs.interpolate(sensor64, [0, 1], [1.0, 2.0, 3.0])

    def test_non_finite_values_rejected(self, sensor64):
        for bad in (np.nan, np.inf):
            with pytest.raises(exc.NonFiniteValue):
                gs.interpolate(sensor64, [0, 1], [1.0, bad])

    def test_values_follow_the_given_kept_order(self):
        G = gs.path(6)
        out = gs.interpolate(G, [5, 0], [10.0, -10.0])
        assert out[5] == 10.0 and out[0] == -10.0
        assert np.array_equal(out, gs.interpolate(G, [0, 5], [-10.0, 10.0]))

    def test_repeated_kept_index_refused(self):
        with pytest.raises(exc.BadParameter):
            gs.interpolate(gs.path(6), [0, 0, 5], [1.0, 2.0])

    def test_non_integer_kept_refused(self, sensor64):
        # A float would put its value on the truncated vertex.
        for kept in ([0.2, 3.7], [False, True]):
            with pytest.raises(exc.BadParameter, match="integers"):
                gs.interpolate(sensor64, kept, [1.0, 2.0])
        vals = np.array([1.0, 2.0])
        assert np.array_equal(
            gs.interpolate(sensor64, np.array([3, 0], dtype=np.int32), vals),
            gs.interpolate(sensor64, [3, 0], vals))


class TestPyramidTransform:
    def test_perfect_reconstruction(self, rng):
        G = gs.sensor(64, seed=3)
        mr = gs.graph_multiresolution(G, 3)
        for _ in range(5):
            f = rng.standard_normal(64)
            pyr = gs.pyramid_analysis(mr, f)
            assert_allclose(gs.pyramid_synthesis(mr, pyr), f, atol=1e-10)

    def test_reconstruction_with_other_parameters(self, rng):
        G = gs.sensor(48, seed=9)
        for alpha, eps in ((0.0, 0.005), (2.5, 0.05)):
            mr = gs.graph_multiresolution(G, 2, alpha=alpha, epsilon=eps)
            f = rng.standard_normal(48)
            assert_allclose(
                gs.pyramid_synthesis(mr, gs.pyramid_analysis(mr, f)),
                f, atol=1e-10)

    def test_coefficient_layout(self, rng):
        G = gs.sensor(40, seed=4)
        mr = gs.graph_multiresolution(G, 2)
        f = rng.standard_normal(40)
        pyr = gs.pyramid_analysis(mr, f)
        sizes = mr.level_sizes()
        assert pyr.level_sizes == sizes
        assert pyr.coarse.shape == (sizes[-1],)
        assert [e.shape[0] for e in pyr.errors] == sizes[:-1]

    def test_smooth_signal_has_small_errors(self):
        # the pyramid should code a low-frequency signal almost entirely in
        # its coarse part
        G = gs.sensor(64, seed=3)
        gs.compute_fourier_basis(G)
        S = gs.compute_fourier_basis(G)
        f = S.U[:, 1] + 0.5 * S.U[:, 2]
        mr = gs.graph_multiresolution(G, 2)
        pyr = gs.pyramid_analysis(mr, f)
        total = np.linalg.norm(f)
        err_energy = np.sqrt(sum(np.linalg.norm(e) ** 2 for e in pyr.errors))
        assert err_energy < 0.5 * total

    def test_analysis_shape_check(self, rng):
        mr = gs.graph_multiresolution(gs.sensor(20, seed=1), 1)
        with pytest.raises(exc.ShapeMismatch):
            gs.pyramid_analysis(mr, rng.standard_normal(21))
        with pytest.raises(exc.ShapeMismatch):
            gs.pyramid_analysis(mr, rng.standard_normal((20, 2)))

    def test_synthesis_level_validation(self, rng):
        G = gs.sensor(24, seed=6)
        mr = gs.graph_multiresolution(G, 2)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(24))
        other = gs.graph_multiresolution(gs.sensor(24, seed=8), 2)
        if other.level_sizes() != mr.level_sizes():
            with pytest.raises(exc.LevelMismatch):
                gs.pyramid_synthesis(other, pyr)
        bad = gs.Pyramid(coarse=pyr.coarse[:-1], errors=pyr.errors,
                         level_sizes=pyr.level_sizes)
        with pytest.raises(exc.LevelMismatch):
            gs.pyramid_synthesis(mr, bad)
        bad2 = gs.Pyramid(coarse=pyr.coarse, errors=pyr.errors[:-1],
                          level_sizes=pyr.level_sizes)
        with pytest.raises(exc.LevelMismatch):
            gs.pyramid_synthesis(mr, bad2)

    def test_non_finite_signals_rejected(self, rng):
        mr = gs.graph_multiresolution(gs.sensor(24, seed=6), 2)
        f = rng.standard_normal(24)
        f[5] = np.nan
        with pytest.raises(exc.NonFiniteValue):
            gs.pyramid_analysis(mr, f)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(24))
        errors = [e.copy() for e in pyr.errors]
        errors[1][0] = np.inf
        with pytest.raises(exc.NonFiniteValue):
            gs.pyramid_synthesis(mr, gs.Pyramid(pyr.coarse, errors,
                                                pyr.level_sizes))
        coarse = pyr.coarse.copy()
        coarse[-1] = -np.inf
        with pytest.raises(exc.NonFiniteValue):
            gs.pyramid_synthesis(mr, gs.Pyramid(coarse, pyr.errors,
                                                pyr.level_sizes))

    def test_synthesis_makes_no_smoothing_factorization(self, rng,
                                                        monkeypatch):
        G = gs.sensor(48, seed=9)
        mr = gs.graph_multiresolution(G, 2, alpha=1.5)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(48))
        fresh = gs.multiresolution_from_keeps(G, mr.keeps, alpha=1.5)
        factored = []

        def splu(A, error, what):
            factored.append(what)
            return real(A, error, what)

        real = pyramid._splu
        monkeypatch.setattr(pyramid, "_splu", splu)
        gs.pyramid_synthesis(fresh, pyr)
        assert len(factored) == mr.n_levels
        assert not any(w.startswith("smoothing") for w in factored)

    def test_synthesis_refuses_a_column_coarse_signal(self, rng):
        mr = gs.graph_multiresolution(gs.sensor(24, seed=6), 2)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(24))
        column = gs.Pyramid(pyr.coarse[:, None], pyr.errors, pyr.level_sizes)
        with pytest.raises(exc.ShapeMismatch):
            gs.pyramid_synthesis(mr, column)


@pytest.fixture()
def kron_calls(monkeypatch):
    """Sizes of the kept sets passed to ``pyramid.kron_reduce``, one per
    call, from here on."""
    calls = []
    real = pyramid.kron_reduce

    def counted(L, kept):
        calls.append(len(kept))
        return real(L, kept)

    monkeypatch.setattr(pyramid, "kron_reduce", counted)
    return calls


def _chained_levels(G, keeps):
    """The level graphs by explicit chained Kron reduction."""
    graphs = [G]
    for level, kept in enumerate(keeps):
        prev = graphs[-1]
        W = pyramid._laplacian_to_weights(gs.kron_reduce(prev.L, kept))
        graphs.append(gs.graph_from_weights(
            W, directed=False, coords=prev.coords[kept],
            name=f"{G.name}/level{level + 1}"))
    return graphs


class TestLazyLevels:
    @pytest.mark.parametrize("n_levels", [0, 1, 2, 3])
    def test_selection_reduces_only_the_levels_it_reads(self, kron_calls,
                                                        n_levels):
        # A level is reduced from the finest Laplacian, once, when read.
        G = gs.sensor(300, seed=4)
        mr = gs.graph_multiresolution(G, n_levels)
        assert len(kron_calls) == 0
        coarsest = mr.graphs[n_levels]
        assert len(kron_calls) == min(n_levels, 1)
        mr.graphs[n_levels]
        assert len(kron_calls) == min(n_levels, 1)
        if n_levels == 0:
            assert coarsest is G
            return
        vertices = mr._vertices[n_levels]
        direct = gs.graph_from_weights(pyramid._laplacian_to_weights(
            gs.kron_reduce(G.L, vertices)))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(coarsest.W, attr),
                                  getattr(direct.W, attr))
        assert np.array_equal(coarsest.coords, G.coords[vertices])
        # Chained reductions agree to roundoff, on the same pattern.
        ref = _chained_levels(G, mr.keeps)[-1]
        assert coarsest.name == ref.name
        for attr in ("indptr", "indices"):
            assert np.array_equal(getattr(coarsest.W, attr),
                                  getattr(ref.W, attr))
        assert_allclose(coarsest.W.data, ref.W.data, rtol=1e-12, atol=0)
        assert np.array_equal(coarsest.coords, ref.coords)

    def test_reload_and_operators_reduce_nothing(self, kron_calls, rng,
                                                 tmp_path):
        G = gs.sensor(200, seed=2)
        keeps = gs.graph_multiresolution(G, 3).keeps
        f = rng.standard_normal(G.N)
        del kron_calls[:]
        mr = gs.multiresolution_from_keeps(G, keeps, alpha=0.5)
        pyr = gs.pyramid_analysis(mr, f)
        gio.save_pyramid(tmp_path, mr, pyr, signal=f)
        loaded, stored, _ = gio.load_pyramid(tmp_path, G)
        rec = gs.pyramid_synthesis(loaded, stored)
        assert loaded.level_sizes() == [G.N] + [k.size for k in keeps]
        assert kron_calls == []
        assert np.abs(rec - f).max() <= 1e-10

    def test_cli_synthesize_reduces_nothing(self, kron_calls, rng,
                                            tmp_path):
        G = gs.sensor(120, seed=5)
        gio.save_graph(tmp_path / "g.mtx", G)
        G = gio.load_graph(tmp_path / "g.mtx")
        mr = gs.graph_multiresolution(G, 2)
        f = rng.standard_normal(G.N)
        gio.save_pyramid(tmp_path / "pyr", mr, gs.pyramid_analysis(mr, f),
                         signal=f)
        del kron_calls[:]
        assert main(["pyramid", "synthesize", str(tmp_path / "g.mtx"),
                     str(tmp_path / "pyr"),
                     "--out", str(tmp_path / "rec.csv")]) == 0
        assert kron_calls == []
        assert np.abs(gio.load_signal(tmp_path / "rec.csv") - f).max() \
            <= 1e-10

    def test_reading_the_coarsest_level_reduces_it_alone(self, kron_calls):
        # Level 3 of 3000 vertices has about 380; a chain through levels 1
        # and 2 would hold a dense block of level 1 (1526 vertices, 18.6 MB).
        mr = gs.graph_multiresolution(gs.sensor(3000, seed=0), 3)
        tracemalloc.start()
        try:
            coarsest = mr.graphs[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kron_calls == [coarsest.N]
        assert peak < 20e6

    def test_graphs_read_like_a_list(self, kron_calls):
        G = gs.sensor(120, seed=5)
        assert gs.graph_multiresolution(G, 0).graphs == [G]
        mr = gs.multiresolution_from_keeps(
            G, gs.graph_multiresolution(G, 2).keeps)
        del kron_calls[:]
        assert len(mr.graphs) == 3 and mr.graphs[0] is G
        assert kron_calls == []
        assert [g.N for g in mr.graphs] == mr.level_sizes()
        assert len(kron_calls) == 2
        assert mr.graphs[-1] is mr.graphs[2]
        assert mr.graphs[1:] == [mr.graphs[1], mr.graphs[2]]
        assert mr.graphs == list(mr.graphs)
        with pytest.raises(IndexError):
            mr.graphs[3]
        assert len(kron_calls) == 2


class _NaNFactor:
    """A factor whose every solve is NaN, as a singular block may give."""

    def solve(self, b):
        return np.full(b.shape, np.nan)


class TestNonFiniteSolve:
    @pytest.fixture()
    def nan_factors(self, monkeypatch):
        monkeypatch.setattr(pyramid, "_splu", lambda *args: _NaNFactor())

    def test_kron_reduce_refuses_it(self, nan_factors):
        with pytest.raises(exc.SingularInteriorBlock, match="non-finite"):
            gs.kron_reduce(gs.sensor(40, seed=1).L, np.arange(0, 40, 2))

    def test_selection_refuses_it(self, nan_factors):
        # Level 0 is the finest L and solves nothing; level 1 solves.
        G = gs.sensor(40, seed=1)
        assert gs.graph_multiresolution(G, 1).n_levels == 1
        with pytest.raises(exc.SingularInteriorBlock, match="non-finite"):
            gs.graph_multiresolution(G, 2)


def _arpack_fails(*args, **kwargs):
    raise spl.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))


class TestImplicitSelection:
    def test_set_up_reduces_nothing_and_stays_small(self, kron_calls):
        # One dense block of level 1 (1526 vertices) alone would be 18.6 MB.
        G = gs.sensor(3000, seed=0)
        tracemalloc.start()
        try:
            gs.graph_multiresolution(G, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kron_calls == []
        assert peak < 8e6

    def test_wavefront_counts_are_recorded(self):
        G = gs.sensor(300, seed=4)
        mr = gs.graph_multiresolution(G, 3)
        assert len(mr.wavefront_counts) == mr.n_levels
        assert mr.wavefront_counts[0] > 0
        for count, size in zip(mr.wavefront_counts, mr.level_sizes()):
            assert 0 <= count < size
        assert gs.multiresolution_from_keeps(G, mr.keeps).wavefront_counts \
            == []

    def test_dense_eigenvectors_come_from_the_implicit_operator(
            self, kron_calls, monkeypatch):
        G = gs.sensor(300, seed=4)
        lanczos = gs.graph_multiresolution(G, 2).keeps
        monkeypatch.setattr(pyramid.spl, "eigsh", _arpack_fails)
        dense = gs.graph_multiresolution(G, 2).keeps
        assert kron_calls == []
        for a, b in zip(dense, lanczos):
            assert np.array_equal(a, b)

    def test_dense_selection_above_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setenv("GRAPHSIG_DENSE_CAP", "100")
        assert gs.graph_multiresolution(gs.sensor(100, seed=1), 1).n_levels \
            == 1
        with pytest.raises(exc.GraphTooLargeForDense):
            gs.graph_multiresolution(gs.sensor(101, seed=1), 1)
        gs.graph_multiresolution(gs.sensor(300, seed=1), 1)
        monkeypatch.setattr(pyramid.spl, "eigsh", _arpack_fails)
        with pytest.raises(exc.GraphTooLargeForDense):
            gs.graph_multiresolution(gs.sensor(300, seed=1), 1)

    def test_level_graphs_respect_the_dense_cap(self, kron_calls,
                                                monkeypatch):
        # Each level is capped by its own size, not by the levels above it.
        G = gs.sensor(300, seed=4)
        mr = gs.graph_multiresolution(G, 2)
        sizes = mr.level_sizes()
        monkeypatch.setenv("GRAPHSIG_DENSE_CAP", str(sizes[1] - 1))
        assert mr.graphs[0] is G
        with pytest.raises(exc.GraphTooLargeForDense):
            mr.graphs[1]
        assert kron_calls == []
        assert mr.graphs[2].N == sizes[2]
        assert len(kron_calls) == 1


class _CountingOperator:
    """A level operator that counts its products in ``counts[-1]``."""

    def __init__(self, S, counts):
        self.S, self.shape, self.counts = S, S.shape, counts

    def __matmul__(self, v):
        self.counts[-1] += 1
        return self.S @ v


def _cut_fraction(L, side):
    """The share of a level graph's edge weight that crosses the +-1 split
    ``side``: ``side' L side / 4`` crosses, of ``trace(L) / 2`` in all."""
    return float(side @ (L @ side)) / (2.0 * L.diagonal().sum())


class TestWavefrontWork:
    """Selection on sensor(2000, 0) with three levels: the wavefront's round
    count, which sets the set-up cost, and the cut it buys."""

    @pytest.fixture(scope="class")
    def G(self):
        return gs.sensor(2000, seed=0)

    def test_fewer_products_than_the_half_rule(self, G, monkeypatch):
        real, counts = pyramid._split, []

        def counted(S, u):
            counts.append(0)
            return real(_CountingOperator(S, counts), u)

        monkeypatch.setattr(pyramid, "_split", counted)
        gs.graph_multiresolution(G, 3)
        shipped = sum(counts)
        monkeypatch.setattr(pyramid, "_WAVEFRONT_FRACTION", 0.5)
        counts.clear()
        gs.graph_multiresolution(G, 3)
        assert 0 < shipped < sum(counts)

    def test_every_level_cuts_more_than_plain_polarity(self, G):
        # Plain polarity splits by the sign of every eigenvector entry,
        # roundoff included, of the eigenvector that selection used.
        mr = gs.graph_multiresolution(G, 3)
        vertices = np.arange(G.N)
        for level, kept in enumerate(mr.keeps):
            u = pyramid._top_eigenvector(pyramid._level_operator(G.L,
                                                                 vertices))
            L = mr.graphs[level].L
            side = -np.ones(L.shape[0])
            side[kept] = 1.0
            polarity = np.where(u >= 0, 1.0, -1.0)
            assert _cut_fraction(L, side) > _cut_fraction(L, polarity)
            vertices = vertices[kept]
