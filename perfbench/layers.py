"""The package functions the traced run wraps, and the counts taken at them.

Layers are the package modules.  ``plotting`` is left out: SVG/DOT export
sits on no pipeline's blocking path.
"""

from __future__ import annotations

import importlib

import numpy as np

PACKAGE = "graphsig"

TRACED = {
    "generators": ["sensor"],
    "graphs": ["graph_from_weights", "laplacian"],
    "spectral": ["estimate_lmax", "compute_fourier_basis"],
    "operators": ["incidence"],
    "filters": ["chebyshev_coeffs", "chebyshev_apply", "filter_analysis",
                "filter_synthesis", "frame_bounds"],
    "pyramid": ["graph_multiresolution", "multiresolution_from_keeps",
                "kron_reduce", "interpolate", "pyramid_analysis",
                "pyramid_synthesis"],
    "optimize": ["solve_bpdn", "prox_tv", "tik_denoise"],
    "io": ["load_graph", "save_graph", "load_signal", "save_signal",
           "save_pyramid", "load_pyramid"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _matvec_cols(args, kwargs, result):
    # chebyshev_apply(G, coeffs, f): one sparse product per order and column.
    coeffs, f = args[1], np.asarray(args[2])
    cols = 1 if f.ndim == 1 else f.shape[1]
    return {"filters.chebyshev_apply.matvec_cols": coeffs.order * cols}


def _basis_bytes(args, kwargs, result):
    # interpolate(G, kept, ...) builds a dense N x |K| float64 basis.
    G, kept = args[0], args[1]
    return {"pyramid.interpolate.basis_bytes":
            G.N * np.unique(np.asarray(kept)).size * 8}


def _level_nnz(args, kwargs, result):
    return {"pyramid.level_nnz": sum(g.W.nnz for g in result.graphs)}


def _iterations(name):
    def count(args, kwargs, result):
        return {f"{name}.iterations": result[1].iterations}
    return count


COUNTERS = {
    "filters.chebyshev_apply": _matvec_cols,
    "pyramid.interpolate": _basis_bytes,
    "pyramid.graph_multiresolution": _level_nnz,
    "pyramid.multiresolution_from_keeps": _level_nnz,
    "optimize.solve_bpdn": _iterations("optimize.solve_bpdn"),
    "optimize.prox_tv": _iterations("optimize.prox_tv"),
    "optimize.tik_denoise": _iterations("optimize.tik_denoise"),
}

#: Counts derived from argument shapes, not observed inside the library.
COMPUTED_COUNTS = ("filters.chebyshev_apply.matvec_cols",
                   "pyramid.interpolate.basis_bytes")

COUNT_NAMES = COMPUTED_COUNTS + (
    "pyramid.level_nnz",
    "optimize.solve_bpdn.iterations",
    "optimize.prox_tv.iterations",
    "optimize.tik_denoise.iterations",
)


def targets() -> dict:
    """``{span name: (module, attribute)}`` for every traced function."""
    out = {}
    for mod, fns in TRACED.items():
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        for fn in fns:
            out[f"{mod}.{fn}"] = (module, fn)
    return out
