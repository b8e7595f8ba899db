"""Round trips through the on-disk formats."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import io as gio
from graphsig import exceptions as exc
from graphsig.graphs import _fingerprint


class TestWeightsMtx:
    def test_undirected_round_trip_is_exact(self, tmp_path):
        G = gs.sensor(30, seed=2)
        p = tmp_path / "g.mtx"
        gio.save_weights(p, G)
        W = gio.load_weights(p)
        assert np.array_equal(W.toarray(), G.W.toarray())

    def test_symmetric_header_for_undirected(self, tmp_path):
        G = gs.ring(6)
        p = tmp_path / "ring.mtx"
        gio.save_weights(p, G)
        header = p.read_text().splitlines()[0]
        assert header.endswith("symmetric")
        # one triangle on disk: Ne data lines
        body = [l for l in p.read_text().splitlines()
                if l and not l.startswith("%")]
        assert len(body) == 1 + G.Ne  # size line + entries

    def test_general_header_for_directed(self, tmp_path):
        W = np.array([[0, 1.5], [0, 0]])
        G = gs.graph_from_weights(W, directed=True)
        p = tmp_path / "d.mtx"
        gio.save_weights(p, G)
        assert p.read_text().splitlines()[0].endswith("general")
        assert np.array_equal(gio.load_weights(p).toarray(), W)

    def test_full_precision_survives(self, tmp_path):
        w = 1.0 / 3.0 + 1e-16
        G = gs.graph_from_weights([[0, w], [w, 0]])
        p = tmp_path / "p.mtx"
        gio.save_weights(p, G)
        assert gio.load_weights(p).toarray()[0, 1] == G.W.toarray()[0, 1]

    def test_laplacian_export_detects_symmetry(self, tmp_path):
        G = gs.ring(5)
        p = tmp_path / "L.mtx"
        gio.save_sparse_matrix(p, G.L)
        assert p.read_text().splitlines()[0].endswith("symmetric")
        assert_allclose(gio.load_weights(p).toarray(), G.L.toarray(), atol=0)

    def test_asymmetric_matrix_gets_general(self, tmp_path):
        M = np.array([[0, 1.0], [2.0, 0]])
        p = tmp_path / "M.mtx"
        gio.save_sparse_matrix(p, M)
        assert p.read_text().splitlines()[0].endswith("general")

    def test_malformed_mtx(self, tmp_path):
        p = tmp_path / "junk.mtx"
        p.write_text("this is not matrix market\n")
        with pytest.raises(exc.BadParameter):
            gio.load_weights(p)


class TestGraphFiles:
    def test_graph_with_coords_round_trip(self, tmp_path):
        G = gs.sensor(20, seed=4)
        p = tmp_path / "net.mtx"
        written = gio.save_graph(p, G)
        assert str(p) in written
        assert gio.coords_path_for(p) in written
        G2 = gio.load_graph(p)
        assert np.array_equal(G2.W.toarray(), G.W.toarray())
        assert np.array_equal(G2.coords, G.coords)
        assert G2.name == "net"

    def test_graph_without_coords(self, tmp_path):
        G = gs.erdos_renyi(12, 0.3, seed=1)
        p = tmp_path / "er.mtx"
        gio.save_graph(p, G)
        G2 = gio.load_graph(p)
        assert G2.coords is None

    def test_load_graph_kind_forwarded(self, tmp_path):
        G = gs.ring(6)
        p = tmp_path / "r.mtx"
        gio.save_graph(p, G)
        G2 = gio.load_graph(p, kind="normalized")
        assert G2.lap_kind is gs.LaplacianKind.NORMALIZED


class TestSignals:
    def test_vector_round_trip_exact(self, tmp_path, rng):
        v = rng.standard_normal(40)
        p = tmp_path / "v.csv"
        gio.save_signal(p, v)
        assert np.array_equal(gio.load_signal(p), v)

    def test_matrix_round_trip_exact(self, tmp_path, rng):
        M = rng.standard_normal((10, 3))
        p = tmp_path / "m.csv"
        gio.save_signal(p, M)
        assert np.array_equal(gio.load_signal(p), M)

    def test_single_value_loads_1d(self, tmp_path):
        p = tmp_path / "one.csv"
        gio.save_signal(p, np.array([4.25]))
        out = gio.load_signal(p)
        assert out.shape == (1,) and out[0] == 4.25

    @pytest.mark.parametrize("block", [gio._CSV_BLOCK, 5])
    def test_bytes_equal_savetxt(self, tmp_path, rng, block, monkeypatch):
        # A block of 5 values splits every array below into several writes.
        monkeypatch.setattr(gio, "_CSV_BLOCK", block)
        arrays = [rng.standard_normal(40), rng.standard_normal((9, 3)),
                  rng.standard_normal((4, 7)) * 1e-300, np.zeros(0),
                  np.zeros((3, 0)), np.zeros((0, 2)), np.arange(6),
                  np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])]
        for i, arr in enumerate(arrays):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            gio.save_signal(got, arr)
            np.savetxt(want, arr, fmt="%.17g", delimiter=",")
            assert got.read_bytes() == want.read_bytes()

    def test_compressed_suffix_still_compresses(self, tmp_path, rng):
        v = rng.standard_normal(10)
        p = tmp_path / "v.csv.gz"
        gio.save_signal(p, v)
        assert p.read_bytes()[:2] == b"\x1f\x8b"
        assert np.array_equal(gio.load_signal(p), v)

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(exc.BadParameter):
            gio.save_signal(tmp_path / "x.csv", np.zeros((2, 2, 2)))

    def test_malformed_csv(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nthree,4.0\n")
        with pytest.raises(exc.BadParameter):
            gio.load_signal(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(exc.NonFiniteValue):
            gio.load_signal(p)


class TestFilterBankFiles:
    def test_round_trip(self, tmp_path):
        bank = gs.itersine(3.5, n_filters=4)
        p = tmp_path / "bank.json"
        gio.save_filter_bank(p, bank)
        clone = gio.load_filter_bank(p)
        xs = np.linspace(0, 3.5, 200)
        assert np.array_equal(bank.evaluate(xs), clone.evaluate(xs))

    def test_custom_bank_refuses(self, tmp_path):
        bank = gs.FilterBank([gs.Kernel(np.exp)], 2.0)
        with pytest.raises(exc.BadParameter):
            gio.save_filter_bank(tmp_path / "no.json", bank)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "frag.json"
        p.write_text("{not json")
        with pytest.raises(exc.BadParameter):
            gio.load_filter_bank(p)

    def test_report_file(self, tmp_path, rng):
        G = gs.sensor(16, seed=0)
        _, rep = gs.tik_denoise(G, rng.standard_normal(16), 0.5)
        p = tmp_path / "rep.json"
        gio.save_report(p, rep)
        import json
        data = json.loads(p.read_text())
        assert data["converged"] is True
        assert data["iterations"] == rep.iterations


class TestPyramidDirectory:
    def test_round_trip_reconstructs_exactly(self, tmp_path, rng):
        G = gs.sensor(48, seed=6)
        mr = gs.graph_multiresolution(G, 2, alpha=0.8, epsilon=0.01)
        f = rng.standard_normal(48)
        pyr = gs.pyramid_analysis(mr, f)
        d = tmp_path / "pyr"
        written = gio.save_pyramid(d, mr, pyr, signal=f)
        assert (d / "pyramid.json").exists()
        assert len(written) == 2 + mr.n_levels + 1

        G2 = gs.sensor(48, seed=6)
        mr2, pyr2, sig = gio.load_pyramid(d, G2)
        assert np.array_equal(sig, f)
        assert mr2.level_sizes() == mr.level_sizes()
        recon = gs.pyramid_synthesis(mr2, pyr2)
        assert_allclose(recon, f, atol=1e-10)

    def test_wrong_size_graph_rejected(self, tmp_path, rng):
        G = gs.sensor(48, seed=6)
        mr = gs.graph_multiresolution(G, 2)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(48))
        d = tmp_path / "pyr"
        gio.save_pyramid(d, mr, pyr)
        with pytest.raises((exc.LevelMismatch, exc.IndexOutOfRange)):
            gio.load_pyramid(d, gs.sensor(40, seed=13))

    def test_same_size_wrong_graph_rejected(self, tmp_path, rng):
        # equal vertex counts pass the size checks; the fingerprint does not
        G = gs.sensor(48, seed=6)
        mr = gs.graph_multiresolution(G, 2)
        pyr = gs.pyramid_analysis(mr, rng.standard_normal(48))
        d = tmp_path / "pyr"
        gio.save_pyramid(d, mr, pyr)
        with pytest.raises(exc.LevelMismatch, match="fingerprint"):
            gio.load_pyramid(d, gs.sensor(48, seed=13))

    def test_malformed_manifest(self, tmp_path):
        d = tmp_path / "pyr"
        d.mkdir()
        (d / "pyramid.json").write_text('{"alpha": 1.0}\n')
        with pytest.raises(exc.BadParameter):
            gio.load_pyramid(d, gs.sensor(10, seed=0))

    @staticmethod
    def _saved_with_manifest_edit(d, rng, edit):
        G = gs.sensor(30, seed=1)
        mr = gs.graph_multiresolution(G, 1)
        gio.save_pyramid(d, mr, gs.pyramid_analysis(mr, rng.standard_normal(30)))
        manifest = json.loads((d / "pyramid.json").read_text())
        edit(manifest)
        (d / "pyramid.json").write_text(json.dumps(manifest))
        return G

    def test_manifest_without_fingerprint_refused(self, tmp_path, rng):
        G = self._saved_with_manifest_edit(
            tmp_path, rng, lambda m: m.pop("fingerprint"))
        with pytest.raises(exc.BadParameter, match="fingerprint"):
            gio.load_pyramid(tmp_path, G)

    def test_manifest_with_negative_alpha_refused(self, tmp_path, rng):
        G = self._saved_with_manifest_edit(
            tmp_path, rng, lambda m: m.update(alpha=-0.5))
        with pytest.raises(exc.BadParameter, match="alpha"):
            gio.load_pyramid(tmp_path, G)

    def test_manifest_with_non_integer_keeps_refused(self, tmp_path, rng):
        G = self._saved_with_manifest_edit(
            tmp_path, rng,
            lambda m: m.update(keeps=[[k + 0.5 for k in m["keeps"][0]]]))
        with pytest.raises(exc.BadParameter, match="integers"):
            gio.load_pyramid(tmp_path, G)

    def test_fingerprint_survives_mtx_round_trip(self, tmp_path):
        G = gs.sensor(30, seed=1)
        gio.save_graph(tmp_path / "g.mtx", G)
        loaded = gio.load_graph(tmp_path / "g.mtx")
        assert loaded.W.indices.dtype != G.W.indices.dtype
        assert _fingerprint(loaded) == _fingerprint(G)
        gs.laplacian(loaded, "normalized")
        assert _fingerprint(loaded) != _fingerprint(G)
