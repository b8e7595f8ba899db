"""The four benchmark workloads.

Each workload builds its state once (``setup``), makes fresh inputs for op
``i`` from the workload seed (``inputs``, untimed), runs one operation
through the library (``run``, which times exactly the library calls) and
checks the outputs (``check``, untimed, numpy only).  All graphs are
``sensor(N, GRAPH_SEED)`` with k=6.  Signals, noise and masks are drawn
from the workload seed, so a claim can be re-checked on a seed that was
not used while the change was written.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

K_NEIGHBOURS = 6
# The graph is part of a workload's definition, like N.  Kron and LU fill,
# and with them the pyramid's memory and set-up time, change from one sensor
# graph to the next; the workload seed varies only signals, noise and masks.
GRAPH_SEED = 0


def op_rng(seed: int, i: int) -> np.random.Generator:
    """The random stream of op ``i`` of a run with workload seed ``seed``."""
    return np.random.default_rng([seed, i])


def snr_db(clean, estimate) -> float:
    clean = np.asarray(clean, dtype=float)
    err = clean - np.asarray(estimate, dtype=float)
    return 10.0 * np.log10(np.sum(clean ** 2) / np.sum(err ** 2))


def smooth_signal(coords, rng) -> np.ndarray:
    """A smooth field over the unit square, sampled at the vertices."""
    fx, fy = rng.uniform(0.5, 1.5, size=2)
    x, y = coords[:, 0], coords[:, 1]
    return np.sin(2 * np.pi * fx * x) * np.cos(2 * np.pi * fy * y)


def add_noise(clean, rng, level=0.3) -> np.ndarray:
    return clean + level * clean.std() * rng.standard_normal(clean.shape)


class Workload:
    """Base: ``workdir`` is a private directory for files the ops write.

    ``imports`` are the modules set-up time starts with, since importing the
    package is part of getting the first operation ready.
    """

    imports = ("graphsig",)

    def __init__(self, workdir):
        self.workdir = workdir


@dataclass
class Check:
    """Outcome of one op's output check."""

    ok: bool
    arrays: list                      # hashed, in order, into the digest
    reason: str = ""
    recon_rel_err: float | None = None
    snr_gains_db: list = field(default_factory=list)


class ChebFilter(Workload):
    """Chebyshev bank analysis + synthesis on a 16k-vertex graph.

    All the work is the sparse recurrence in ``filters``: no dense basis and
    no pyramid, at the largest size the roadmap names.
    """

    name = "cheb-filter-16k"
    n, n_filters, order, columns = 16000, 8, 40, 4
    # itersine is a tight frame; the round trip at order 40 measures about
    # 8.5e-4 relative error, so 1e-3 flags a loss of approximation accuracy.
    recon_tol = 1e-3
    setup_reps, min_ops = 5, 3

    def setup(self, gs, seed):
        G = gs.sensor(self.n, seed=GRAPH_SEED, k=K_NEIGHBOURS)
        gs.estimate_lmax(G)
        return {"G": G, "bank": gs.itersine(G, self.n_filters)}

    def inputs(self, state, seed, i):
        return {"f": op_rng(seed, i).standard_normal((self.n, self.columns))}

    def run(self, gs, state, inp):
        G, bank = state["G"], state["bank"]
        t0 = time.perf_counter()
        coef = gs.filter_analysis(G, bank, inp["f"], method="chebyshev",
                                  order=self.order)
        rec = gs.filter_synthesis(G, bank, coef, method="chebyshev",
                                  order=self.order)
        return {"coef": coef, "rec": rec}, time.perf_counter() - t0

    def check(self, state, inp, out):
        f, rec = inp["f"], out["rec"]
        err = float(np.linalg.norm(rec - f) / np.linalg.norm(f))
        ok = bool(np.all(np.isfinite(out["coef"]))) and err <= self.recon_tol
        return Check(ok, [out["coef"], rec],
                     "" if ok else f"round-trip error {err:.3g} > {self.recon_tol}",
                     recon_rel_err=err)


class KronPyramid(Workload):
    """Kron-reduction pyramid analysis + synthesis at N=4000.

    Set-up is ``graph_multiresolution``, dominated by ``kron_reduce``; the
    ops spend their time in ``pyramid.interpolate`` (dense Green's
    functions, LU solves).  ``filters`` and ``optimize`` do no work here.
    """

    name = "pyramid-4k"
    n, levels = 4000, 3
    recon_tol = 1e-10          # the README's perfect-reconstruction promise
    setup_reps, min_ops = 3, 2

    def setup(self, gs, seed):
        G = gs.sensor(self.n, seed=GRAPH_SEED, k=K_NEIGHBOURS)
        return {"mr": gs.graph_multiresolution(G, self.levels)}

    def inputs(self, state, seed, i):
        return {"f": op_rng(seed, i).standard_normal(self.n)}

    def run(self, gs, state, inp):
        mr = state["mr"]
        t0 = time.perf_counter()
        pyr = gs.pyramid_analysis(mr, inp["f"])
        rec = gs.pyramid_synthesis(mr, pyr)
        return {"pyr": pyr, "rec": rec}, time.perf_counter() - t0

    def check(self, state, inp, out):
        f, rec = inp["f"], out["rec"]
        worst = float(np.max(np.abs(rec - f)))
        ok = worst <= self.recon_tol
        pyr = out["pyr"]
        return Check(ok, [pyr.coarse, *pyr.errors, rec],
                     "" if ok else f"reconstruction off by {worst:.3g}",
                     recon_rel_err=float(np.linalg.norm(rec - f)
                                         / np.linalg.norm(f)))


def _non_increasing(history) -> bool:
    return bool(np.all(np.diff(np.asarray(history, dtype=float)) <= 0))


class Denoise(Workload):
    """BPDN inpainting (exact path), TV and Tikhonov denoising at N=2000.

    Uses ``filters`` through dense Fourier-basis products, not the
    recurrence, plus the solver loops in ``optimize`` and the incidence
    operator.  Set-up pays for the dense ``eigh``.
    """

    name = "denoise-2k"
    n, n_filters = 2000, 8
    lam, max_iter, observed = 0.05, 50, 0.7
    tv_gamma, tik_gamma = 0.1, 0.5
    setup_reps, min_ops = 3, 2

    def setup(self, gs, seed):
        G = gs.sensor(self.n, seed=GRAPH_SEED, k=K_NEIGHBOURS)
        gs.compute_fourier_basis(G)
        return {"G": G, "bank": gs.itersine(G, self.n_filters)}

    def inputs(self, state, seed, i):
        rng = op_rng(seed, i)
        clean = smooth_signal(state["G"].coords, rng)
        return {"clean": clean, "y": add_noise(clean, rng),
                "mask": rng.random(self.n) < self.observed}

    def run(self, gs, state, inp):
        G, bank, y = state["G"], state["bank"], inp["y"]
        t0 = time.perf_counter()
        coef, bpdn = gs.solve_bpdn(G, bank, y, lam=self.lam, mask=inp["mask"],
                                   max_iter=self.max_iter, method="exact")
        x_bpdn = gs.filter_synthesis(G, bank, coef, method="exact")
        x_tv, tv = gs.prox_tv(G, y, self.tv_gamma)
        x_tik, tik = gs.tik_denoise(G, y, self.tik_gamma)
        elapsed = time.perf_counter() - t0
        return {"x": [x_bpdn, x_tv, x_tik], "reports": [bpdn, tv, tik],
                "coef": coef}, elapsed

    def check(self, state, inp, out):
        clean, y = inp["clean"], inp["y"]
        base = snr_db(clean, y)
        gains = [snr_db(clean, x) - base for x in out["x"]]
        problems = []
        if not all(np.all(np.isfinite(x)) for x in out["x"]):
            problems.append("non-finite output")
        if not all(_non_increasing(r.objective_history) for r in out["reports"]):
            problems.append("objective history increases")
        if not (gains[1] > 0 and gains[2] > 0):
            problems.append(f"TV/Tikhonov SNR gain {gains[1]:.3g}/{gains[2]:.3g} dB")
        return Check(not problems, [out["coef"], *out["x"]], "; ".join(problems),
                     snr_gains_db=gains)


class CliPipeline(Workload):
    """The README pipeline through ``cli.main``, in-process, at N=2000.

    Every command reloads the graph and pays its own set-up again (lmax, a
    second Kron reduction in ``pyramid synthesize``), so a cache that only
    lives inside one process shows no gain here.
    """

    name = "cli-2k"
    n, n_filters, order, levels = 2000, 8, 40, 3
    lam, max_iter, observed, tv_gamma = 0.05, 50, 0.7, 0.1
    recon_tol = 1e-10
    setup_reps, min_ops = 5, 2

    imports = ("graphsig", "graphsig.cli")

    def setup(self, gs, seed):
        return {"main": gs.cli.main}

    def inputs(self, state, seed, i):
        d = os.path.join(self.workdir, f"op{i}")
        os.makedirs(d)
        return {"dir": d, "rng": op_rng(seed, i)}

    def run(self, gs, state, inp):
        d, rng = inp["dir"], inp["rng"]
        path = functools.partial(os.path.join, d)
        codes, stderr, busy = {}, io.StringIO(), 0.0

        def call(step, *argv):
            nonlocal busy
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                codes[step] = state["main"]([str(a) for a in argv])
            busy += time.perf_counter() - t0

        call("generate", "generate", "sensor", "--n", self.n, "--k", K_NEIGHBOURS,
             "--seed", GRAPH_SEED, "--out", path("g.mtx"))
        # The signals need the vertex coordinates generate wrote; making
        # them is harness work and is not timed.
        clean = smooth_signal(np.loadtxt(path("g.coords.csv"), delimiter=","), rng)
        y = add_noise(clean, rng)
        mask = rng.random(self.n) < self.observed
        np.savetxt(path("y.csv"), y, fmt="%.17g")
        np.savetxt(path("m.csv"), mask.astype(float), fmt="%.17g")
        call("filter", "filter", path("g.mtx"), "--signal", path("y.csv"),
             "--design", "itersine", "--filters", self.n_filters,
             "--method", "chebyshev", "--order", self.order,
             "--out", path("coef.csv"))
        call("analyze", "pyramid", "analyze", path("g.mtx"),
             "--signal", path("y.csv"), "--levels", self.levels,
             "--out", path("pyr"))
        call("synthesize", "pyramid", "synthesize", path("g.mtx"), path("pyr"),
             "--out", path("rec.csv"))
        call("tv", "denoise", path("g.mtx"), "--signal", path("y.csv"),
             "--solver", "tv", "--gamma", self.tv_gamma, "--out", path("tv.csv"))
        call("bpdn", "denoise", path("g.mtx"), "--signal", path("y.csv"),
             "--solver", "bpdn", "--method", "chebyshev",
             "--filters", self.n_filters, "--order", self.order,
             "--lam", self.lam, "--mask", path("m.csv"),
             "--max-iter", self.max_iter, "--out", path("bpdn.csv"))
        with open(path("g.mtx"), "rb") as fh:
            graph_bytes = fh.read()
        call("rerun", "rerun", path("g.manifest.json"))
        return {"dir": d, "codes": codes, "stderr": stderr.getvalue(),
                "clean": clean, "y": y, "graph_bytes": graph_bytes}, busy

    def check(self, state, inp, out):
        if any(out["codes"].values()):
            return Check(False, [], f"exit codes {out['codes']}: "
                         f"{out['stderr'].strip()}")
        path = functools.partial(os.path.join, out["dir"])
        coef, rec, x_tv, x_bpdn = (np.loadtxt(path(name), delimiter=",") for name
                                   in ("coef.csv", "rec.csv", "tv.csv", "bpdn.csv"))
        with open(path("g.mtx"), "rb") as fh:
            rerun_same = fh.read() == out["graph_bytes"]
        y, clean = out["y"], out["clean"]
        worst = float(np.max(np.abs(rec - y)))
        base = snr_db(clean, y)
        problems = []
        if not rerun_same:
            problems.append("rerun changed g.mtx")
        if worst > self.recon_tol:
            problems.append(f"pyramid reconstruction off by {worst:.3g}")
        if not all(np.all(np.isfinite(a)) for a in (coef, x_tv, x_bpdn)):
            problems.append("non-finite output")
        graph = np.frombuffer(out["graph_bytes"], dtype=np.uint8)
        return Check(not problems, [graph, coef, rec, x_tv, x_bpdn],
                     "; ".join(problems),
                     recon_rel_err=float(np.linalg.norm(rec - y)
                                         / np.linalg.norm(y)),
                     snr_gains_db=[snr_db(clean, x) - base for x in (x_tv, x_bpdn)])


WORKLOADS = {w.name: w for w in (ChebFilter, KronPyramid, Denoise, CliPipeline)}
