"""Command line front end.

Exit codes: 0 on success, 1 for usage problems (bad flags, missing
subcommands or inputs, outputs that cannot be opened), 2 when a toolbox
operation raises one of its typed errors.  Every successful run writes a JSON
manifest next to its primary output (override with ``--manifest``) recording
the exact argument vector, resolved parameters, output paths and headline
numbers; ``graphsig rerun <manifest>`` replays the stored argument vector,
reproducing the outputs bit for bit.

There is one command path.  :func:`main` parses the arguments, refuses a
command that sets none of the flags it needs one of or names an input file
or directory that does not exist (before reading any file), loads the graph
(``args.graph``) and the signal (``args.signal``) when the command has
them, calls the handler and writes the manifest.  A handler
``_cmd_*(args, G, f)`` only computes and writes its own outputs, and returns
``(primary, parameters, outputs, results)``: the path the manifest is named
after, and the manifest's three payload fields.  ``G`` and ``f`` are None
when the command does not take them.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
from typing import List, Optional

import numpy as np

from . import io as gio
from .exceptions import BadParameter, GraphSigError
from .filters import _DESIGNS, design, filter_analysis, frame_bounds
from .generators import (comet, community, erdos_renyi, grid2d, path, ring,
                         sbm, sensor, swiss_roll, two_moons)
from .graphs import LaplacianKind
from .optimize import _solve_bpdn, prox_tv, snr, tik_denoise, wavelet_denoise
from .plotting import PlotStyle, export_graph_dot, export_graph_svg, \
    export_filter_svg
from .pyramid import graph_multiresolution, pyramid_analysis, pyramid_synthesis
from .spectral import compute_fourier_basis, estimate_lmax


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _write_manifest(args, argv: List[str], primary_out: str,
                    parameters: dict, outputs: List[str],
                    results: dict) -> None:
    payload = {
        "tool": "graphsig",
        "command": args.command,
        "argv": list(argv),
        "parameters": parameters,
        "outputs": [str(p) for p in outputs],
        "results": results,
    }
    gio._dump_json(args.manifest or
                   os.path.splitext(primary_out)[0] + ".manifest.json",
                   payload)


def _load_graph(args):
    directed = {"auto": "auto", "true": True, "false": False}[args.directed]
    return gio.load_graph(args.graph, directed=directed, kind=args.kind)


def _require_one_of(p, *flags) -> None:
    """Make :func:`main` refuse a run of subcommand ``p`` that sets none of
    ``flags``, before it loads any input."""
    p.set_defaults(one_of=(p.prog.partition(" ")[2], flags))


def _check_one_of(args) -> None:
    name, flags = getattr(args, "one_of", ("", ()))
    if flags and not any(getattr(args, f[2:].replace("-", "_"))
                         for f in flags):
        raise _UsageError(
            f"{name} needs {', '.join(flags[:-1])} or {flags[-1]}")


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _check_inputs(args) -> None:
    """Refuse a run whose input files are missing, before any is read."""
    for name in ("graph", "signal", "mask", "bank"):
        path = getattr(args, name, None)
        if path:
            _require_file(path)
    pyramid_dir = getattr(args, "pyramid_dir", None)
    if pyramid_dir and not os.path.isdir(pyramid_dir):
        raise FileNotFoundError(f"no such directory: {pyramid_dir}")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

#: ``generate`` kinds, in the order the CLI lists them.
_GENERATORS = {
    "ring": lambda a: ring(a.n),
    "path": lambda a: path(a.n),
    "comet": lambda a: comet(a.tail, a.star_degree),
    "grid2d": lambda a: grid2d(a.rows, a.cols),
    "erdos_renyi": lambda a: erdos_renyi(a.n, a.p, seed=a.seed),
    "sensor": lambda a: sensor(a.n, seed=a.seed, k=a.k),
    "community": lambda a: community(a.n, a.communities, seed=a.seed),
    "sbm": lambda a: sbm([int(b) for b in a.blocks.split(",") if b.strip()],
                         a.p_in, a.p_out, seed=a.seed,
                         n=a.n if a.n > 0 else None),
    "swiss_roll": lambda a: swiss_roll(a.n, seed=a.seed, noise=a.noise,
                                       k=a.k),
    "two_moons": lambda a: two_moons(a.n, seed=a.seed, noise=a.noise,
                                     radius=a.radius, k=a.k),
}


def _cmd_generate(args, _G, _f):
    G = _GENERATORS[args.kind](args)
    outputs = gio.save_graph(args.out, G)
    params = {"kind": args.kind, "n": G.N, "seed": args.seed}
    return args.out, params, outputs, {"vertices": G.N, "edges": G.Ne}


# ---------------------------------------------------------------------------
# laplacian / fourier
# ---------------------------------------------------------------------------

def _cmd_laplacian(args, G, _f):
    outputs = []
    results = {"kind": G.lap_kind.value, "vertices": G.N, "edges": G.Ne}
    if args.out:
        gio.save_sparse_matrix(args.out, G.L)
        outputs.append(args.out)
    if args.out_eigenvalues:
        S = compute_fourier_basis(G)
        gio.save_signal(args.out_eigenvalues, S.e)
        outputs.append(args.out_eigenvalues)
        results["lmax"] = S.lmax
    return (args.out or args.out_eigenvalues,
            {"kind": G.lap_kind.value, "directed": G.directed},
            outputs, results)


def _cmd_fourier(args, G, _f):
    S = compute_fourier_basis(G)
    outputs = []
    if args.out_eigenvalues:
        gio.save_signal(args.out_eigenvalues, S.e)
        outputs.append(args.out_eigenvalues)
    if args.out_basis:
        gio.save_signal(args.out_basis, S.U)
        outputs.append(args.out_basis)
    results = {"lmax": S.lmax, "coherence": S.mu,
               "kind": G.lap_kind.value}
    return (args.out_eigenvalues or args.out_basis,
            {"kind": G.lap_kind.value}, outputs, results)


# ---------------------------------------------------------------------------
# filter banks
# ---------------------------------------------------------------------------

#: Design flag (its ``args`` name) -> the design parameter it sets.
_DESIGN_FLAGS = {"tau": "tau", "scales": "n_scales", "filters": "n_filters",
                 "degree": "degree", "shifts": "n_shifts", "width": "width",
                 "band": "band", "transition": "transition"}


def _design_params(args) -> dict:
    """The set design flags that ``args.design``'s builder takes."""
    takes = inspect.signature(_DESIGNS[args.design][0]).parameters
    return {kwarg: getattr(args, flag) for flag, kwarg in _DESIGN_FLAGS.items()
            if kwarg in takes and getattr(args, flag) is not None}


def _build_bank(args, G):
    """Prepare ``G`` for ``--method`` and the design, then build the bank.

    The Fourier basis is computed for the exact path and for a
    ``warped_translates`` design, the spectral-radius bound otherwise.
    Without a graph (``plot filters``) the design is laid on ``--lmax``.
    """
    if G is not None:
        if args.method == "exact" or (args.design == "warped_translates"
                                      and not args.bank):
            compute_fourier_basis(G)
        else:
            estimate_lmax(G)
    if args.bank:
        return gio.load_filter_bank(args.bank)
    return design(args.design, args.lmax if G is None else G,
                  **_design_params(args))


def _cmd_filter(args, G, f):
    bank = _build_bank(args, G)
    coef = filter_analysis(G, bank, f, method=args.method, order=args.order)
    gio.save_signal(args.out, coef)
    outputs = [args.out]
    if args.save_bank:
        gio.save_filter_bank(args.save_bank, bank)
        outputs.append(args.save_bank)
    a, b = frame_bounds(bank)
    params = {"design": args.design if not args.bank else "from-file",
              "method": args.method, "order": args.order,
              "kernels": len(bank)}
    return (args.out, params, outputs,
            {"frame_lower": a, "frame_upper": b, "lmax": bank.lmax})


# ---------------------------------------------------------------------------
# pyramid
# ---------------------------------------------------------------------------

def _cmd_pyramid_analyze(args, G, f):
    mr = graph_multiresolution(G, args.levels, alpha=args.alpha,
                               epsilon=args.epsilon)
    pyr = pyramid_analysis(mr, f)
    outputs = gio.save_pyramid(args.out, mr, pyr, signal=f)
    params = {"levels": args.levels, "alpha": args.alpha,
              "epsilon": args.epsilon}
    results = {"level_sizes": mr.level_sizes(),
               "fallback_levels": mr.fallback_levels,
               "wavefront_counts": mr.wavefront_counts}
    return os.path.join(args.out, "run"), params, outputs, results


def _cmd_pyramid_synthesize(args, G, _f):
    mr, pyr, signal = gio.load_pyramid(args.pyramid_dir, G)
    rec = pyramid_synthesis(mr, pyr)
    gio.save_signal(args.out, rec)
    results = {"level_sizes": mr.level_sizes()}
    if signal is not None:
        results["max_abs_diff"] = float(np.max(np.abs(rec - signal)))
    return (args.out, {"alpha": mr.alpha, "epsilon": mr.epsilon},
            [args.out], results)


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def _cmd_denoise(args, G, y):
    outputs = [args.out]
    params = {"solver": args.solver}
    if args.solver == "tv":
        x, report = prox_tv(G, y, args.gamma, max_iter=args.max_iter,
                            tol=args.tol)
        params["gamma"] = args.gamma
    elif args.solver == "tik":
        x, report = tik_denoise(G, y, args.gamma)
        params["gamma"] = args.gamma
    elif args.solver == "wavelet":
        bank = _build_bank(args, G)
        x, report = wavelet_denoise(G, bank, y, args.tau,
                                    method=args.method, order=args.order)
        params.update({"tau": args.tau, "design": args.design,
                       "method": args.method})
    elif args.solver == "bpdn":
        bank = _build_bank(args, G)
        mask = None
        if args.mask:
            mask = gio.load_signal(args.mask) > 0.5
        coef, x, report = _solve_bpdn(G, bank, y, lam=args.lam, mask=mask,
                                      max_iter=args.max_iter, tol=args.tol,
                                      method=args.method, order=args.order)
        if args.out_coefficients:
            gio.save_signal(args.out_coefficients, coef)
            outputs.append(args.out_coefficients)
        params.update({"lam": args.lam, "design": args.design,
                       "method": args.method})
    else:  # pragma: no cover - argparse restricts choices
        raise BadParameter(f"unknown solver {args.solver!r}")
    gio.save_signal(args.out, x)
    if args.report:
        gio.save_report(args.report, report)
        outputs.append(args.report)
    gain = snr(y, x) if np.asarray(y).ndim == 1 else None
    results = {"iterations": report.iterations,
               "objective": report.objective,
               "converged": report.converged,
               # Strict JSON has no infinity: an output equal to its input
               # (infinite SNR) is written as null.
               "snr_vs_input": gain if gain is not None and np.isfinite(gain)
               else None}
    return args.out, params, outputs, results


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _style_from_args(args) -> Optional[PlotStyle]:
    overrides = {}
    if args.width:
        overrides["width"] = args.width
    if args.height:
        overrides["height"] = args.height
    if args.colormap:
        overrides["colormap"] = args.colormap
    return PlotStyle(**overrides) if overrides else None


def _cmd_plot_graph(args, G, signal):
    ext = os.path.splitext(args.out)[1].lower()
    fmt = args.format or ("dot" if ext == ".dot" else "svg")
    if fmt == "dot":
        export_graph_dot(G, path=args.out)
    else:
        export_graph_svg(G, signal=signal, style=_style_from_args(args),
                         path=args.out)
    return (args.out, {"format": fmt, "signal": bool(args.signal)},
            [args.out], {"vertices": G.N, "edges": G.Ne})


def _cmd_plot_filters(args, G, _f):
    bank = _build_bank(args, G)
    export_filter_svg(bank, grid_size=args.grid, path=args.out)
    a, b = frame_bounds(bank)
    return (args.out, {"design": args.design, "kernels": len(bank)},
            [args.out], {"frame_lower": a, "frame_upper": b})


# ---------------------------------------------------------------------------
# rerun
# ---------------------------------------------------------------------------

def _cmd_rerun(args):
    mpath = _require_file(args.manifest_file)
    manifest = gio._load_json(mpath)
    stored = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(stored, list) and
            all(isinstance(a, str) for a in stored)):
        raise BadParameter(
            f"malformed manifest {mpath}: 'argv' must be a list of strings")
    if stored and stored[0] == "rerun":
        raise BadParameter("refusing to rerun a rerun manifest")
    return main(stored)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_graph_args(p):
    p.add_argument("graph", help="weight matrix in Matrix Market (.mtx)")
    p.add_argument("--directed", choices=["auto", "true", "false"],
                   default="auto", help="directedness of the input matrix")
    p.add_argument("--kind",
                   choices=[k.value for k in LaplacianKind], default=None,
                   help="laplacian to attach (default matches directedness)")


def _add_design_args(p):
    p.add_argument("--design", default="itersine",
                   choices=sorted(_DESIGNS),
                   help="filter bank design")
    p.add_argument("--bank", default=None,
                   help="load the bank from a JSON descriptor instead")
    p.add_argument("--tau", type=float, default=None,
                   help="heat diffusion time / shrinkage threshold")
    p.add_argument("--scales", type=int, default=None,
                   help="mexican_hat: number of wavelet scales")
    p.add_argument("--filters", type=int, default=None,
                   help="itersine / warped_translates: number of kernels")
    p.add_argument("--degree", type=int, default=None,
                   help="regular: transition iteration depth")
    p.add_argument("--shifts", type=int, default=None,
                   help="gabor: number of window translates")
    p.add_argument("--width", type=float, default=None,
                   help="gabor: window width")
    p.add_argument("--band", type=float, default=None,
                   help="expwin: passband fraction of lmax")
    p.add_argument("--transition", type=float, default=None,
                   help="expwin: rolloff length as a fraction of the band")
    p.add_argument("--method", choices=["exact", "chebyshev"],
                   default="chebyshev", help="filtering path")
    p.add_argument("--order", type=int, default=30,
                   help="chebyshev polynomial order")


def build_parser() -> _Parser:
    parser = _Parser(prog="graphsig",
                     description="Graph signal processing toolbox")
    parser.add_argument("--manifest", default=None,
                        help="run-manifest path (default: next to the output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph from a named family")
    p.add_argument("kind", choices=list(_GENERATORS))
    p.add_argument("--out", required=True, help="output .mtx path")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--tail", type=int, default=10)
    p.add_argument("--star-degree", type=int, default=6)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--p-in", type=float, default=0.3)
    p.add_argument("--p-out", type=float, default=0.02)
    p.add_argument("--blocks", default="",
                   help="sbm block sizes, comma separated")
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("laplacian", help="build and export a laplacian")
    _add_graph_args(p)
    p.add_argument("--out", default=None, help="laplacian .mtx output")
    p.add_argument("--out-eigenvalues", default=None,
                   help="eigenvalue CSV output (triggers a dense solve)")
    p.set_defaults(func=_cmd_laplacian)
    _require_one_of(p, "--out", "--out-eigenvalues")

    p = sub.add_parser("fourier", help="dense eigendecomposition")
    _add_graph_args(p)
    p.add_argument("--out-eigenvalues", default=None)
    p.add_argument("--out-basis", default=None,
                   help="CSV of eigenvectors, one per column")
    p.set_defaults(func=_cmd_fourier)
    _require_one_of(p, "--out-eigenvalues", "--out-basis")

    p = sub.add_parser("filter", help="run a filter bank over a signal")
    _add_graph_args(p)
    p.add_argument("--signal", required=True, help="input signal CSV")
    p.add_argument("--out", required=True, help="coefficient CSV output")
    _add_design_args(p)
    p.add_argument("--save-bank", default=None,
                   help="also write the bank descriptor JSON here")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("pyramid", help="multiresolution analysis/synthesis")
    psub = p.add_subparsers(dest="pyramid_command", required=True)
    pa = psub.add_parser("analyze", help="decompose a signal")
    _add_graph_args(pa)
    pa.add_argument("--signal", required=True)
    pa.add_argument("--levels", type=int, default=3)
    pa.add_argument("--alpha", type=float, default=1.0)
    pa.add_argument("--epsilon", type=float, default=0.005)
    pa.add_argument("--out", required=True, help="output directory")
    pa.set_defaults(func=_cmd_pyramid_analyze)
    ps = psub.add_parser("synthesize", help="reconstruct from a directory")
    _add_graph_args(ps)
    ps.add_argument("pyramid_dir", help="directory written by analyze")
    ps.add_argument("--out", required=True, help="reconstruction CSV")
    ps.set_defaults(func=_cmd_pyramid_synthesize)

    p = sub.add_parser("denoise", help="graph-regularized denoising")
    _add_graph_args(p)
    p.add_argument("--signal", required=True, help="noisy signal CSV")
    p.add_argument("--out", required=True, help="denoised signal CSV")
    p.add_argument("--solver", required=True,
                   choices=["tv", "tik", "wavelet", "bpdn"])
    p.add_argument("--gamma", type=float, default=0.5,
                   help="tv/tik regularization strength")
    p.add_argument("--lam", type=float, default=0.1,
                   help="bpdn sparsity weight")
    p.add_argument("--mask", default=None,
                   help="bpdn: CSV of 0/1 observed-vertex flags")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--report", default=None, help="solver report JSON path")
    p.add_argument("--out-coefficients", default=None,
                   help="bpdn: also write the coefficient matrix CSV")
    _add_design_args(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("plot", help="SVG/DOT export")
    plsub = p.add_subparsers(dest="plot_command", required=True)
    pg = plsub.add_parser("graph", help="draw a graph")
    _add_graph_args(pg)
    pg.add_argument("--signal", default=None, help="color vertices by this CSV")
    pg.add_argument("--out", required=True, help=".svg or .dot output")
    pg.add_argument("--format", choices=["svg", "dot"], default=None,
                    help="override the extension-derived format")
    pg.add_argument("--width", type=int, default=None)
    pg.add_argument("--height", type=int, default=None)
    pg.add_argument("--colormap", default=None)
    pg.set_defaults(func=_cmd_plot_graph)
    pf = plsub.add_parser("filters", help="draw a filter bank")
    pf.add_argument("--graph", default=None,
                    help="take the spectral interval from this graph")
    pf.add_argument("--directed", choices=["auto", "true", "false"],
                    default="auto")
    pf.add_argument("--kind",
                    choices=[k.value for k in LaplacianKind], default=None)
    pf.add_argument("--lmax", type=float, default=None,
                    help="spectral interval endpoint when no graph is given")
    pf.add_argument("--out", required=True, help=".svg output")
    pf.add_argument("--grid", type=int, default=500,
                    help="evaluation points")
    _add_design_args(pf)
    pf.set_defaults(func=_cmd_plot_filters)
    _require_one_of(pf, "--graph", "--bank", "--lmax")

    p = sub.add_parser("rerun", help="replay a run manifest")
    p.add_argument("manifest_file")

    # A missing subcommand is reported with the choices, as help lists them.
    for s in (sub, psub, plsub):
        s.metavar = "{" + ",".join(s.choices) + "}"
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every :func:`main` call in this process (``rerun``
    makes two), built once: building it costs about 2.5 ms."""
    return build_parser()


def main(argv=None) -> int:
    """Parse, load the inputs, run the handler and write its manifest;
    returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "rerun":
            return _cmd_rerun(args)
        _check_one_of(args)
        _check_inputs(args)
        G = _load_graph(args) if getattr(args, "graph", None) else None
        f = gio.load_signal(args.signal) \
            if getattr(args, "signal", None) else None
        _write_manifest(args, argv, *args.func(args, G, f))
        return 0
    except (_UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GraphSigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
