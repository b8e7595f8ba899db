"""Command line front end: exit codes, manifests, reruns, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import io as gio
from graphsig.cli import main


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def sensor_files(tmp_path):
    """A sensor graph on disk plus a noisy smooth signal for it."""
    gpath = tmp_path / "g.mtx"
    assert run("generate", "sensor", "--n", 40, "--seed", 3,
               "--out", gpath) == 0
    G = gio.load_graph(gpath)
    S = gs.compute_fourier_basis(G)
    rng = np.random.default_rng(7)
    clean = S.U[:, 1] + 0.4 * S.U[:, 3]
    noisy = clean + 0.2 * rng.standard_normal(40)
    spath = tmp_path / "y.csv"
    gio.save_signal(spath, noisy)
    return tmp_path, gpath, spath


class TestGenerate:
    def test_writes_graph_coords_and_manifest(self, tmp_path):
        out = tmp_path / "ring.mtx"
        assert run("generate", "ring", "--n", 12, "--out", out) == 0
        G = gio.load_graph(out)
        assert G.N == 12 and G.Ne == 12
        assert G.coords is not None
        manifest = json.loads((tmp_path / "ring.manifest.json").read_text())
        assert manifest["tool"] == "graphsig"
        assert manifest["command"] == "generate"
        assert manifest["results"] == {"vertices": 12, "edges": 12}
        assert str(out) in manifest["outputs"]

    def test_seeded_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        assert run("generate", "sensor", "--n", 30, "--seed", 5,
                   "--out", a) == 0
        assert run("generate", "sensor", "--n", 30, "--seed", 5,
                   "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sbm_blocks(self, tmp_path):
        out = tmp_path / "sbm.mtx"
        assert run("generate", "sbm", "--n", 10, "--blocks", "5,5",
                   "--p-in", 1.0, "--p-out", 0.0, "--out", out) == 0
        assert gio.load_graph(out).N == 10

    @pytest.mark.parametrize("kind, flags, direct", [
        ("ring", ["--n", 9], lambda: gs.ring(9)),
        ("path", ["--n", 7], lambda: gs.path(7)),
        ("comet", ["--tail", 4, "--star-degree", 3], lambda: gs.comet(4, 3)),
        ("grid2d", ["--rows", 3, "--cols", 5], lambda: gs.grid2d(3, 5)),
        ("erdos_renyi", ["--n", 20, "--p", 0.3, "--seed", 2],
         lambda: gs.erdos_renyi(20, 0.3, seed=2)),
        ("sensor", ["--n", 25, "--k", 4, "--seed", 3],
         lambda: gs.sensor(25, seed=3, k=4)),
        ("community", ["--n", 24, "--communities", 3, "--seed", 1],
         lambda: gs.community(24, 3, seed=1)),
        ("sbm", ["--n", 14, "--blocks", "6,8", "--p-in", 0.9,
                 "--p-out", 0.1, "--seed", 4],
         lambda: gs.sbm([6, 8], 0.9, 0.1, seed=4, n=14)),
        ("swiss_roll", ["--n", 30, "--noise", 0.1, "--k", 4, "--seed", 5],
         lambda: gs.swiss_roll(30, seed=5, noise=0.1, k=4)),
        ("two_moons", ["--n", 30, "--noise", 0.02, "--radius", 2.0,
                       "--k", 4, "--seed", 6],
         lambda: gs.two_moons(30, seed=6, noise=0.02, radius=2.0, k=4)),
    ])
    def test_every_kind_matches_the_generator(self, tmp_path, kind, flags,
                                              direct):
        out, ref = tmp_path / "cli.mtx", tmp_path / "ref.mtx"
        assert run("generate", kind, *flags, "--out", out) == 0
        gio.save_graph(ref, direct())
        assert out.read_bytes() == ref.read_bytes()

    def test_domain_error_is_exit_2(self, tmp_path):
        assert run("generate", "ring", "--n", 2,
                   "--out", tmp_path / "r.mtx") == 2

    def test_custom_manifest_location(self, tmp_path):
        out = tmp_path / "p.mtx"
        mpath = tmp_path / "elsewhere.json"
        assert run("--manifest", mpath, "generate", "path", "--n", 5,
                   "--out", out) == 0
        assert json.loads(mpath.read_text())["command"] == "generate"


class TestLaplacianFourier:
    def test_laplacian_export(self, sensor_files):
        tmp, gpath, _ = sensor_files
        lout = tmp / "L.mtx"
        eout = tmp / "e.csv"
        assert run("laplacian", gpath, "--out", lout,
                   "--out-eigenvalues", eout) == 0
        assert lout.read_text().splitlines()[0].endswith("symmetric")
        e = gio.load_signal(eout)
        assert e.shape == (40,) and abs(e[0]) < 1e-10
        manifest = json.loads((tmp / "L.manifest.json").read_text())
        assert manifest["results"]["kind"] == "combinatorial"
        assert manifest["results"]["lmax"] == pytest.approx(e[-1])

    def test_normalized_kind(self, sensor_files):
        tmp, gpath, _ = sensor_files
        eout = tmp / "en.csv"
        assert run("laplacian", gpath, "--kind", "normalized",
                   "--out-eigenvalues", eout) == 0
        e = gio.load_signal(eout)
        assert e.max() <= 2.0 + 1e-10

    def test_needs_an_output_flag(self, sensor_files):
        _, gpath, _ = sensor_files
        assert run("laplacian", gpath) == 1

    @pytest.mark.parametrize("command", ["laplacian", "fourier"])
    def test_missing_output_flag_is_reported_before_the_load(
            self, tmp_path, capsys, command):
        # The flag check comes first, so a malformed graph is never parsed.
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "3 3 1\nnot a number\n")
        assert run(command, bad) == 1
        assert f"{command} needs --" in capsys.readouterr().err

    def test_missing_graph_is_exit_1(self, tmp_path):
        assert run("laplacian", tmp_path / "ghost.mtx",
                   "--out", tmp_path / "L.mtx") == 1

    def test_undirected_kind_on_directed_graph_is_exit_2(self, tmp_path):
        W = np.array([[0, 1.0], [0, 0]])
        G = gs.graph_from_weights(W, directed=True)
        gpath = tmp_path / "d.mtx"
        gio.save_graph(gpath, G)
        assert run("laplacian", gpath, "--kind", "combinatorial",
                   "--out", tmp_path / "L.mtx") == 2

    def test_fourier_basis_is_orthonormal(self, sensor_files):
        tmp, gpath, _ = sensor_files
        eout, uout = tmp / "e.csv", tmp / "U.csv"
        assert run("fourier", gpath, "--out-eigenvalues", eout,
                   "--out-basis", uout) == 0
        U = gio.load_signal(uout)
        assert_allclose(U.T @ U, np.eye(40), atol=1e-10)
        manifest = json.loads((tmp / "e.manifest.json").read_text())
        assert 0 < manifest["results"]["coherence"] <= 1


class TestFilter:
    def test_filter_and_bank_reuse(self, sensor_files):
        tmp, gpath, spath = sensor_files
        c1, c2 = tmp / "c1.csv", tmp / "c2.csv"
        bpath = tmp / "bank.json"
        assert run("filter", gpath, "--signal", spath, "--out", c1,
                   "--design", "itersine", "--filters", 4,
                   "--save-bank", bpath) == 0
        coef = gio.load_signal(c1)
        assert coef.shape == (40, 4)
        manifest = json.loads((tmp / "c1.manifest.json").read_text())
        assert manifest["results"]["frame_lower"] == pytest.approx(1.0)
        assert manifest["results"]["frame_upper"] == pytest.approx(1.0)
        # reusing the saved bank reproduces the coefficients byte for byte
        assert run("filter", gpath, "--signal", spath, "--out", c2,
                   "--bank", bpath) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_exact_method(self, sensor_files):
        tmp, gpath, spath = sensor_files
        out = tmp / "ce.csv"
        assert run("filter", gpath, "--signal", spath, "--out", out,
                   "--design", "heat", "--tau", 4.0,
                   "--method", "exact") == 0
        assert gio.load_signal(out).shape == (40,)


class TestPyramid:
    def test_analyze_synthesize_round_trip(self, sensor_files):
        tmp, gpath, spath = sensor_files
        pdir = tmp / "pyr"
        assert run("pyramid", "analyze", gpath, "--signal", spath,
                   "--levels", 2, "--out", pdir) == 0
        assert (pdir / "pyramid.json").exists()
        assert (pdir / "run.manifest.json").exists()
        rout = tmp / "rec.csv"
        assert run("pyramid", "synthesize", gpath, pdir, "--out", rout) == 0
        rec = gio.load_signal(rout)
        y = gio.load_signal(spath)
        assert np.abs(rec - y).max() < 1e-10
        manifest = json.loads((tmp / "rec.manifest.json").read_text())
        assert manifest["results"]["max_abs_diff"] < 1e-10

    def test_missing_subcommand_is_exit_1(self):
        assert run("pyramid") == 1

    def test_missing_directory_is_exit_1(self, sensor_files):
        tmp, gpath, _ = sensor_files
        assert run("pyramid", "synthesize", gpath, tmp / "nope",
                   "--out", tmp / "r.csv") == 1


class TestDenoise:
    def test_tik_matches_library(self, sensor_files):
        tmp, gpath, spath = sensor_files
        out = tmp / "x.csv"
        rep = tmp / "rep.json"
        assert run("denoise", gpath, "--signal", spath, "--out", out,
                   "--solver", "tik", "--gamma", 0.5, "--report", rep) == 0
        G = gio.load_graph(gpath)
        y = gio.load_signal(spath)
        ref, _ = gs.tik_denoise(G, y, 0.5)
        assert_allclose(gio.load_signal(out), ref, atol=0)
        report = json.loads(rep.read_text())
        assert report["converged"] is True
        manifest = json.loads((tmp / "x.manifest.json").read_text())
        assert manifest["results"]["snr_vs_input"] is not None

    def test_tv(self, sensor_files):
        tmp, gpath, spath = sensor_files
        out = tmp / "tv.csv"
        assert run("denoise", gpath, "--signal", spath, "--out", out,
                   "--solver", "tv", "--gamma", 0.2) == 0
        assert gio.load_signal(out).shape == (40,)

    def test_wavelet_with_tight_bank(self, sensor_files):
        tmp, gpath, spath = sensor_files
        out = tmp / "w.csv"
        assert run("denoise", gpath, "--signal", spath, "--out", out,
                   "--solver", "wavelet", "--design", "itersine",
                   "--filters", 6, "--tau", 0.1,
                   "--method", "exact") == 0
        assert gio.load_signal(out).shape == (40,)

    def test_wavelet_with_loose_bank_is_exit_2(self, sensor_files):
        tmp, gpath, spath = sensor_files
        assert run("denoise", gpath, "--signal", spath,
                   "--out", tmp / "w.csv", "--solver", "wavelet",
                   "--design", "mexican_hat", "--tau", 0.1,
                   "--method", "exact") == 2

    @pytest.mark.parametrize("solver", ["tv", "bpdn"])
    def test_non_finite_tol_is_exit_2(self, sensor_files, solver):
        tmp, gpath, spath = sensor_files
        assert run("denoise", gpath, "--signal", spath,
                   "--out", tmp / "t.csv", "--solver", solver,
                   "--tol", "nan") == 2
        assert not (tmp / "t.csv").exists()

    def test_bpdn_with_mask_and_coefficients(self, sensor_files):
        tmp, gpath, spath = sensor_files
        mask = np.ones(40)
        mask[::4] = 0.0
        mpath = tmp / "mask.csv"
        gio.save_signal(mpath, mask)
        out, cpath = tmp / "b.csv", tmp / "coef.csv"
        assert run("denoise", gpath, "--signal", spath, "--out", out,
                   "--solver", "bpdn", "--design", "itersine",
                   "--filters", 3, "--lam", 0.01, "--mask", mpath,
                   "--method", "exact", "--max-iter", 200,
                   "--out-coefficients", cpath) == 0
        assert gio.load_signal(cpath).shape == (40, 3)
        assert gio.load_signal(out).shape == (40,)


    @pytest.mark.parametrize("method", ["exact", "chebyshev"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_bpdn_output_is_the_synthesis_of_its_coefficients(
            self, sensor_files, method, k):
        tmp, gpath, spath = sensor_files
        y = np.tile(gio.load_signal(spath)[:, None], (1, k)).squeeze()
        gio.save_signal(tmp / "yk.csv", y)
        out, cpath = tmp / "b.csv", tmp / "coef.csv"
        assert run("denoise", gpath, "--signal", tmp / "yk.csv",
                   "--out", out, "--solver", "bpdn", "--filters", 4,
                   "--lam", 0.01, "--method", method, "--max-iter", 30,
                   "--out-coefficients", cpath) == 0
        G = gio.load_graph(gpath)
        if method == "exact":
            gs.compute_fourier_basis(G)
        else:
            gs.estimate_lmax(G)
        want = gs.filter_synthesis(G, gs.itersine(G, 4),
                                   gio.load_signal(cpath), method=method)
        assert np.array_equal(gio.load_signal(out), want)


class TestPlot:
    def test_graph_svg_with_signal(self, sensor_files):
        tmp, gpath, spath = sensor_files
        out = tmp / "g.svg"
        assert run("plot", "graph", gpath, "--signal", spath,
                   "--out", out) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        import xml.etree.ElementTree as ET
        ET.fromstring(text)

    def test_graph_dot_by_extension(self, sensor_files):
        tmp, gpath, _ = sensor_files
        out = tmp / "g.dot"
        assert run("plot", "graph", gpath, "--out", out) == 0
        assert out.read_text().startswith("graph {")

    def test_filters_from_lmax(self, tmp_path):
        out = tmp_path / "f.svg"
        assert run("plot", "filters", "--lmax", 4.0, "--design", "itersine",
                   "--filters", 5, "--out", out) == 0
        manifest = json.loads((tmp_path / "f.manifest.json").read_text())
        assert manifest["results"]["frame_lower"] == pytest.approx(1.0)

    def test_filters_need_a_source(self, tmp_path):
        assert run("plot", "filters", "--out", tmp_path / "f.svg") == 1

    def test_missing_subcommand_is_exit_1(self):
        assert run("plot") == 1

    def test_byte_identical_across_runs(self, sensor_files):
        tmp, gpath, spath = sensor_files
        a, b = tmp / "a.svg", tmp / "b.svg"
        assert run("plot", "graph", gpath, "--signal", spath, "--out", a) == 0
        assert run("plot", "graph", gpath, "--signal", spath, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRerun:
    def test_rerun_reproduces_outputs(self, tmp_path):
        out = tmp_path / "s.mtx"
        assert run("generate", "sensor", "--n", 25, "--seed", 9,
                   "--out", out) == 0
        original = out.read_bytes()
        coords = (tmp_path / "s.coords.csv").read_bytes()
        out.unlink()
        (tmp_path / "s.coords.csv").unlink()
        assert run("rerun", tmp_path / "s.manifest.json") == 0
        assert out.read_bytes() == original
        assert (tmp_path / "s.coords.csv").read_bytes() == coords

    def test_rerun_of_rerun_refused(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"argv": ["rerun", "other.json"]}))
        assert run("rerun", mpath) == 2

    def test_malformed_manifest_is_exit_2(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("{}")
        assert run("rerun", mpath) == 2

    def test_manifest_argv_must_be_a_list_of_strings(self, tmp_path):
        mpath = tmp_path / "m.json"
        for argv in ("generate ring --n 10 --out r.mtx", ["generate", 10],
                     None):
            mpath.write_text(json.dumps({"argv": argv}))
            assert run("rerun", mpath) == 2
        mpath.write_text("[]")
        assert run("rerun", mpath) == 2

    def test_missing_manifest_is_exit_1(self, tmp_path):
        assert run("rerun", tmp_path / "none.json") == 1


#: One call per graph-reading subcommand: the argv built from the graph,
#: the signal and the working directory, and the manifest path within it.
EVERY_COMMAND = {
    "laplacian": (lambda g, y, d: [
        "laplacian", g, "--out", d / "L.mtx", "--out-eigenvalues",
        d / "e.csv"], "L.manifest.json"),
    "fourier": (lambda g, y, d: [
        "fourier", g, "--out-eigenvalues", d / "e.csv", "--out-basis",
        d / "U.csv"], "e.manifest.json"),
    "filter": (lambda g, y, d: [
        "filter", g, "--signal", y, "--filters", 4, "--out", d / "c.csv",
        "--save-bank", d / "bank.json"], "c.manifest.json"),
    "pyramid analyze": (lambda g, y, d: [
        "pyramid", "analyze", g, "--signal", y, "--levels", 2,
        "--out", d / "pyr"], "pyr/run.manifest.json"),
    "pyramid synthesize": (lambda g, y, d: [
        "pyramid", "synthesize", g, d / "stored", "--out", d / "rec.csv"],
        "rec.manifest.json"),
    "denoise tv": (lambda g, y, d: [
        "denoise", g, "--signal", y, "--solver", "tv", "--gamma", 0.2,
        "--out", d / "tv.csv", "--report", d / "rep.json"],
        "tv.manifest.json"),
    "denoise bpdn": (lambda g, y, d: [
        "denoise", g, "--signal", y, "--solver", "bpdn", "--filters", 3,
        "--lam", 0.01, "--mask", d / "mask.csv", "--max-iter", 50,
        "--out", d / "b.csv", "--out-coefficients", d / "bc.csv"],
        "b.manifest.json"),
    "plot graph": (lambda g, y, d: [
        "plot", "graph", g, "--signal", y, "--out", d / "view.svg"],
        "view.manifest.json"),
    "plot filters": (lambda g, y, d: [
        "plot", "filters", "--graph", g, "--design", "mexican_hat",
        "--scales", 4, "--out", d / "f.svg"], "f.manifest.json"),
}


@pytest.fixture()
def command_inputs(sensor_files):
    """``sensor_files`` plus a bpdn mask and a stored pyramid."""
    tmp, gpath, spath = sensor_files
    mask = np.ones(40)
    mask[::4] = 0.0
    gio.save_signal(tmp / "mask.csv", mask)
    assert run("pyramid", "analyze", gpath, "--signal", spath,
               "--levels", 2, "--out", tmp / "stored") == 0
    return tmp, gpath, spath


@pytest.mark.parametrize("name", list(EVERY_COMMAND))
class TestEveryCommand:
    def test_manifest_and_byte_identical_rerun(self, command_inputs, name):
        tmp, gpath, spath = command_inputs
        build, manifest = EVERY_COMMAND[name]
        argv = [str(a) for a in build(gpath, spath, tmp)]
        assert main(argv) == 0
        mpath = tmp / manifest
        recorded = json.loads(mpath.read_text())
        assert set(recorded) == {"tool", "command", "argv", "parameters",
                                 "outputs", "results"}
        assert recorded["tool"] == "graphsig"
        assert recorded["command"] == argv[0]
        assert recorded["argv"] == argv
        written = {p: Path(p).read_bytes() for p in recorded["outputs"]}
        assert written
        stored = mpath.read_bytes()
        for p in written:
            Path(p).unlink()
        assert run("rerun", mpath) == 0
        assert {p: Path(p).read_bytes() for p in written} == written
        assert mpath.read_bytes() == stored

    def test_missing_graph_or_signal_is_exit_1(self, command_inputs, name):
        tmp, gpath, spath = command_inputs
        build, _ = EVERY_COMMAND[name]
        ghost = tmp / "ghost"
        assert run(*build(ghost, spath, tmp)) == 1
        if "--signal" in build(gpath, spath, tmp):
            assert run(*build(gpath, ghost, tmp)) == 1


#: Commands naming a missing input besides the graph, from the malformed
#: graph ``g`` and the working directory ``d``.
MISSING_INPUT = {
    "signal": lambda g, d: [
        "denoise", g, "--signal", d / "missing.csv", "--solver", "tv",
        "--out", d / "x.csv"],
    "pyramid directory": lambda g, d: [
        "pyramid", "synthesize", g, d / "missing_dir", "--out", d / "r.csv"],
    "mask": lambda g, d: [
        "denoise", g, "--signal", d / "y.csv", "--solver", "bpdn",
        "--mask", d / "missing.csv", "--out", d / "b.csv"],
    "bank": lambda g, d: [
        "filter", g, "--signal", d / "y.csv", "--bank", d / "missing.json",
        "--out", d / "c.csv"],
}


@pytest.mark.parametrize("name", list(MISSING_INPUT))
def test_missing_input_is_reported_before_the_graph_is_read(tmp_path, capsys,
                                                            name):
    # Every input path is checked first, so the malformed graph is never
    # parsed and the run is a usage error (1), not a parse error (2).
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 1\nnot a number\n")
    gio.save_signal(tmp_path / "y.csv", np.zeros(3))
    assert run(*MISSING_INPUT[name](bad, tmp_path)) == 1
    assert "missing" in capsys.readouterr().err


class TestTopLevel:
    def test_no_arguments_is_exit_1(self):
        assert run() == 1

    def test_unknown_command_is_exit_1(self):
        assert run("frobnicate") == 1

    def test_help_is_exit_0(self):
        assert run("--help") == 0

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "r.mtx"
        proc = subprocess.run(
            [sys.executable, "-m", "graphsig", "generate", "ring",
             "--n", "8", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
