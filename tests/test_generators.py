"""Graph families: closed-form structure checks and reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import exceptions as exc

from oracles import brute_force_knn, loop_knn_weights


def same_graph(G1, G2):
    """Byte-level equality of two graphs' weight structures."""
    A, B = G1.W.tocoo(), G2.W.tocoo()
    return (A.shape == B.shape and np.array_equal(A.row, B.row)
            and np.array_equal(A.col, B.col)
            and np.array_equal(A.data, B.data))


class TestDeterministicFamilies:
    def test_ring_structure(self):
        G = gs.ring(7)
        assert G.N == 7 and G.Ne == 7
        assert_allclose(G.d, np.full(7, 2.0), atol=0)
        assert_allclose(np.linalg.norm(G.coords, axis=1), np.ones(7),
                        atol=1e-12)
        # neighbours are exactly i +- 1 mod n
        for i in range(7):
            nbrs = sorted(G.W[[i], :].tocoo().col)
            assert nbrs == sorted({(i - 1) % 7, (i + 1) % 7})

    def test_ring_too_small(self):
        with pytest.raises(exc.SizeTooSmall):
            gs.ring(2)

    def test_path_structure(self):
        G = gs.path(5)
        assert G.Ne == 4
        assert_allclose(G.d, [1, 2, 2, 2, 1], atol=0)
        assert_allclose(G.coords[:, 0], np.arange(5), atol=0)
        with pytest.raises(exc.SizeTooSmall):
            gs.path(1)

    def test_comet_structure(self):
        G = gs.comet(tail_length=3, star_degree=4)
        assert G.N == 1 + 4 + 3
        assert G.Ne == 4 + 3
        d = G.d
        assert d[0] == 5            # leaves plus first tail vertex
        assert_allclose(d[1:5], np.ones(4), atol=0)   # leaves
        assert_allclose(d[5:7], np.full(2, 2.0), atol=0)
        assert d[7] == 1            # tail end
        assert G.is_connected()

    def test_comet_no_tail(self):
        G = gs.comet(tail_length=0, star_degree=3)
        assert G.N == 4 and G.d[0] == 3

    def test_grid_structure(self):
        rows, cols = 3, 4
        G = gs.grid2d(rows, cols)
        assert G.N == 12
        assert G.Ne == rows * (cols - 1) + cols * (rows - 1)
        d = G.d.reshape(rows, cols)
        assert d[0, 0] == 2 and d[1, 1] == 4 and d[0, 1] == 3
        # vertex (i, j) sits at (j, rows - 1 - i)
        assert_allclose(G.coords[0], [0, 2], atol=0)
        assert_allclose(G.coords[11], [3, 0], atol=0)

    def test_grid_single_row(self):
        G = gs.grid2d(1, 6)
        assert G.Ne == 5 and G.is_connected()


class TestRandomFamilies:
    def test_erdos_renyi_reproducible(self):
        assert same_graph(gs.erdos_renyi(40, 0.2, seed=9),
                          gs.erdos_renyi(40, 0.2, seed=9))
        assert not same_graph(gs.erdos_renyi(40, 0.2, seed=9),
                              gs.erdos_renyi(40, 0.2, seed=10))

    def test_erdos_renyi_extremes(self):
        assert gs.erdos_renyi(10, 0.0, seed=1).Ne == 0
        assert gs.erdos_renyi(10, 1.0, seed=1).Ne == 45

    def test_erdos_renyi_bad_probability(self):
        with pytest.raises(exc.BadProbability):
            gs.erdos_renyi(10, 1.5)

    def test_sbm_block_structure(self):
        G = gs.sbm([4, 3], p_in=1.0, p_out=0.0, seed=0)
        W = G.W.toarray()
        assert W[:4, :4].sum() == 4 * 3        # clique of 4
        assert W[4:, 4:].sum() == 3 * 2        # clique of 3
        assert W[:4, 4:].sum() == 0

    def test_sbm_size_mismatch(self):
        with pytest.raises(exc.BlockSizeMismatch):
            gs.sbm([4, 3], 0.5, 0.1, n=10)
        G = gs.sbm([4, 3], 0.5, 0.1, n=7)
        assert G.N == 7

    def test_sbm_bad_blocks(self):
        with pytest.raises(exc.BadParameter):
            gs.sbm([4, 0], 0.5, 0.1)

    def test_community_splits_evenly(self):
        G = gs.community(11, n_communities=3, seed=0, p_in=1.0, p_out=0.0)
        # sizes 4, 4, 3 -> three cliques
        import scipy.sparse.csgraph as csg
        n_comp, labels = csg.connected_components(G.W, directed=False)
        assert n_comp == 3
        assert sorted(np.bincount(labels)) == [3, 4, 4]

    def test_community_too_many_blocks(self):
        with pytest.raises(exc.BadParameter):
            gs.community(3, n_communities=5)

    def test_sensor_basics(self):
        G = gs.sensor(50, seed=4)
        assert G.N == 50
        assert G.coords.shape == (50, 2)
        assert G.coords.min() >= 0 and G.coords.max() <= 1
        assert G.W.data.min() > 0 and G.W.data.max() <= 1
        assert same_graph(G, gs.sensor(50, seed=4))

    def test_swiss_roll_radius(self):
        G = gs.swiss_roll(80, seed=2, noise=0.0)
        assert G.coords.shape == (80, 3)
        assert abs(np.linalg.norm(G.coords, axis=1).max() - 1.0) < 1e-12
        assert same_graph(G, gs.swiss_roll(80, seed=2, noise=0.0))

    def test_two_moons_split(self):
        G = gs.two_moons(30, seed=5)
        assert G.N == 30 and G.coords.shape == (30, 2)
        assert same_graph(G, gs.two_moons(30, seed=5))


class TestNNGraph:
    def test_knn_against_brute_force(self, rng):
        pts = rng.random((40, 3))
        k = 4
        G = gs.nn_graph(pts, k=k)
        idx, dist = brute_force_knn(pts, k)
        sigma = dist[:, -1].mean()
        ref = np.zeros((40, 40))
        for i in range(40):
            ref[i, idx[i]] = np.exp(-((dist[i] / sigma) ** 2))
        ref = np.maximum(ref, ref.T)
        assert_allclose(G.W.toarray(), ref, atol=1e-12)
        assert abs(G.plotting["sigma"] - sigma) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40),
           st.integers(1, 3), st.booleans())
    def test_knn_equals_the_per_vertex_loop(self, seed, m, dim, given_sigma):
        # Few distinct points on a coarse grid: many repeats and ties, so
        # some queries miss the point itself.
        rng = np.random.default_rng(seed)
        distinct = np.round(4 * rng.random((rng.integers(1, m + 1), dim))) / 4
        pts = distinct[rng.integers(0, len(distinct), m)]
        k = int(rng.integers(1, m))
        sigma = 0.3 if given_sigma else None
        W, ref_sigma = loop_knn_weights(pts, k, sigma)
        if ref_sigma <= 0:
            with pytest.raises(exc.DegenerateCloud):
                gs.nn_graph(pts, k=k, sigma=sigma)
            return
        G = gs.nn_graph(pts, k=k, sigma=sigma)
        assert np.array_equal(G.W.toarray(), W.toarray())
        assert G.plotting["sigma"] == ref_sigma

    def test_radius_mode_against_dense(self, rng):
        pts = rng.random((30, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        eps = 0.31  # generic radius, not equal to any pairwise distance
        G = gs.nn_graph(pts, epsilon=eps)
        np.fill_diagonal(d, np.inf)
        mask = d < eps
        sel = d[np.triu(mask)]
        sigma = sel.mean()
        ref = np.where(mask, np.exp(-((d / sigma) ** 2)), 0.0)
        assert_allclose(G.W.toarray(), ref, atol=1e-12)

    def test_exactly_one_mode(self, rng):
        pts = rng.random((10, 2))
        with pytest.raises(exc.BadParameter):
            gs.nn_graph(pts)
        with pytest.raises(exc.BadParameter):
            gs.nn_graph(pts, k=3, epsilon=0.5)

    def test_k_too_large(self, rng):
        with pytest.raises(exc.KTooLarge):
            gs.nn_graph(rng.random((5, 2)), k=5)

    def test_degenerate_cloud(self):
        pts = np.zeros((6, 2))
        with pytest.raises(exc.DegenerateCloud):
            gs.nn_graph(pts, k=2)
        # explicit sigma rescues it
        G = gs.nn_graph(pts, k=2, sigma=1.0)
        assert G.W.data.max() == 1.0

    def test_one_dimensional_points(self):
        G = gs.nn_graph(np.array([[0.0], [1.0], [2.5]]), k=1)
        assert G.coords.shape == (3, 2)
        assert_allclose(G.coords[:, 1], 0, atol=0)

    def test_empty_radius_graph(self, rng):
        G = gs.nn_graph(rng.random((8, 2)) * 100, epsilon=1e-6)
        assert G.Ne == 0


class TestPatchGraph:
    def test_single_pixel_patch_matches_nn_graph(self, rng):
        img = rng.random((6, 5))
        Gp = gs.patch_graph(img, patch_size=1, k=3)
        Gn = gs.nn_graph(img.reshape(-1, 1), k=3)
        assert_allclose(Gp.W.toarray(), Gn.W.toarray(), atol=1e-12)

    def test_coords_follow_pixels(self, rng):
        img = rng.random((4, 6))
        G = gs.patch_graph(img, patch_size=3, k=4)
        assert G.N == 24
        assert_allclose(G.coords[0], [0, 3], atol=0)      # top-left pixel
        assert_allclose(G.coords[-1], [5, 0], atol=0)     # bottom-right

    def test_color_images_supported(self, rng):
        img = rng.random((5, 5, 3))
        G = gs.patch_graph(img, patch_size=3, k=4)
        assert G.N == 25 and G.Ne > 0

    def test_search_window_localizes(self, rng):
        # A tiled image gives every interior pixel an exact twin six rows
        # away; without locality the twin wins, with a tight window it loses.
        tile = rng.random((6, 4))
        img = np.vstack([tile, tile])
        far = lambda G: any(
            abs(G.coords[i, 1] - G.coords[j, 1]) >= 6
            for i, j in zip(*G.W.nonzero()))
        assert far(gs.patch_graph(img, patch_size=3, k=1))
        assert not far(gs.patch_graph(img, patch_size=3, k=1,
                                      search_window=2))

    def test_even_patch_rejected(self, rng):
        with pytest.raises(exc.BadParameter):
            gs.patch_graph(rng.random((5, 5)), patch_size=2)

    def test_patch_larger_than_image(self, rng):
        with pytest.raises(exc.PatchLargerThanImage):
            gs.patch_graph(rng.random((3, 3)), patch_size=5)
