"""File formats: Matrix Market weights, CSV signals, JSON descriptors.

Conventions shared with the command line front end:

* weight matrices travel as Matrix Market ``.mtx`` (1-based, ``symmetric``
  storage for undirected graphs, ``general`` for directed ones);
* signals and coordinates are headerless CSV with full-precision floats
  (``%.17g``, which round-trips doubles exactly);
* filter banks, solver reports and run manifests are JSON with sorted keys;
* a graph file ``foo.mtx`` may carry its layout in a sibling
  ``foo.coords.csv``;
* CSV and Matrix Market land at exactly their path, compressed by suffix.
"""

from __future__ import annotations

import bz2
import gzip
import json
import lzma
import os
from io import BytesIO
from typing import List, Optional, Tuple

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .exceptions import BadParameter, LevelMismatch, NonFiniteValue
from .filters import FilterBank, bank_from_descriptor
from .graphs import Graph, _fingerprint, graph_from_weights
from .optimize import SolverReport
from .pyramid import Multiresolution, Pyramid, multiresolution_from_keeps

FLOAT_FMT = "%.17g"


_COMPRESSORS = {".gz": lambda path, mode: gzip.GzipFile(path, mode, mtime=0),
                ".bz2": bz2.BZ2File, ".xz": lzma.LZMAFile}


def _create(path):
    """Open exactly ``path`` for binary writing, compressed by its suffix.
    The gzip header carries time 0, so a rerun writes the same bytes."""
    return _COMPRESSORS.get(os.path.splitext(path)[1], open)(path, "wb")


# ---------------------------------------------------------------------------
# Weight matrices (Matrix Market)
# ---------------------------------------------------------------------------

def save_weights(path, G: Graph) -> None:
    """Write a graph's weight matrix as Matrix Market.

    Undirected graphs use the ``symmetric`` storage qualifier (only one
    triangle on disk), directed ones ``general``.
    """
    save_sparse_matrix(path, G.W, symmetric=not G.directed)


def save_sparse_matrix(path, M, symmetric: Optional[bool] = None) -> None:
    """Write any sparse matrix as Matrix Market, detecting symmetry.

    Used for exporting Laplacians; symmetric operators get the compact
    ``symmetric`` storage.  scipy writes into a buffer: given a name it would
    append ``.mtx`` and ignore a failed open, and it seeks, which bz2 refuses.
    """
    M = sp.csr_array(M)
    if symmetric is None:
        delta = (M - M.T).tocoo()
        symmetric = delta.nnz == 0 or float(np.max(np.abs(delta.data))) == 0.0
    buf = BytesIO()
    sio.mmwrite(buf, sp.coo_matrix(M), field="real",
                symmetry="symmetric" if symmetric else "general",
                precision=17)
    with _create(path) as fh:
        fh.write(buf.getbuffer())


def load_weights(path) -> sp.csr_array:
    """Read a Matrix Market file into a CSR weight matrix.

    Raises:
        BadParameter: The file is not parseable Matrix Market.
    """
    try:
        M = sio.mmread(str(path))
    except (ValueError, TypeError) as exc:
        raise BadParameter(f"cannot parse {path} as Matrix Market: {exc}") \
            from exc
    return sp.csr_array(sp.coo_array(M))


def coords_path_for(mtx_path) -> str:
    """Sibling coordinates file: ``foo.mtx`` -> ``foo.coords.csv``."""
    base, _ = os.path.splitext(str(mtx_path))
    return base + ".coords.csv"


def save_graph(path, G: Graph) -> List[str]:
    """Write weights (and coordinates, when present); returns written paths."""
    save_weights(path, G)
    written = [str(path)]
    if G.coords is not None:
        cpath = coords_path_for(path)
        save_signal(cpath, G.coords)
        written.append(cpath)
    return written


def load_graph(path, directed="auto", kind=None, name: str = "") -> Graph:
    """Load a graph from ``.mtx``, picking up a sibling coordinates file."""
    W = load_weights(path)
    coords = None
    cpath = coords_path_for(path)
    if os.path.exists(cpath):
        coords = _load_csv(cpath, ndmin=2)
        if coords.shape[1] == 1:
            coords = np.column_stack([coords[:, 0],
                                      np.zeros(coords.shape[0])])
    return graph_from_weights(
        W, directed=directed, kind=kind, coords=coords,
        name=name or os.path.splitext(os.path.basename(str(path)))[0])


# ---------------------------------------------------------------------------
# Signals and coordinate tables (headerless CSV)
# ---------------------------------------------------------------------------

#: Values per ``%`` operation in :func:`save_signal`.  A signal of up to this
#: many values is formatted and written at once; a larger array (a Fourier
#: basis) goes in blocks of rows, so it never holds a tuple of all its values.
_CSV_BLOCK = 1 << 16


def save_signal(path, values) -> None:
    """Write a vector (one value per line) or matrix (rows) as CSV.

    The bytes are those of ``np.savetxt`` with ``FLOAT_FMT`` and ``,``, which
    formats and writes row by row; here one ``%`` operation formats up to
    ``_CSV_BLOCK`` values (1-D N = 2000: 6.9 to 2.0 ms).  A compressed suffix
    compresses those same bytes (:func:`_create`).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise BadParameter(f"can only save 1-D or 2-D arrays, got {arr.ndim}-D")
    rows = arr[:, None] if arr.ndim == 1 else arr
    line = (",".join([FLOAT_FMT] * rows.shape[1]) + "\n").encode()
    step = max(1, _CSV_BLOCK // max(rows.shape[1], 1))
    with _create(path) as fh:
        for i in range(0, rows.shape[0], step):
            block = rows[i:i + step]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _load_csv(path, ndmin: int) -> np.ndarray:
    """Read a headerless CSV with at least ``ndmin`` dimensions.

    Raises:
        BadParameter: Malformed CSV.
        NonFiniteValue: NaN or infinity in the data.
    """
    try:
        arr = np.loadtxt(str(path), delimiter=",", dtype=float, ndmin=ndmin)
    except ValueError as exc:
        raise BadParameter(f"cannot parse {path} as CSV: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{path} contains NaN or infinite entries")
    return arr


def load_signal(path) -> np.ndarray:
    """Read a headerless CSV signal (one column per signal); a single column
    loads as 1-D.  Raises as :func:`_load_csv`."""
    return _load_csv(path, ndmin=1)


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------

def _dump_json(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON; a NaN or infinity raises
    ``NonFiniteValue`` before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadParameter(f"cannot parse {path} as JSON: {exc}") from exc


def save_filter_bank(path, bank: FilterBank) -> None:
    """Write a designed bank's descriptor as JSON.

    Raises:
        BadParameter: The bank wraps custom callables and has no descriptor.
    """
    if bank.design is None:
        raise BadParameter(
            "this bank wraps custom callables and cannot be serialized; "
            "only design-built banks round-trip through JSON")
    _dump_json(path, bank.design)


def load_filter_bank(path) -> FilterBank:
    """Rebuild a bank from a JSON descriptor, bit-identically."""
    return bank_from_descriptor(_load_json(path))


def save_report(path, report: SolverReport) -> None:
    _dump_json(path, report.as_dict())


# ---------------------------------------------------------------------------
# Pyramid directories
# ---------------------------------------------------------------------------

PYRAMID_MANIFEST = "pyramid.json"


def save_pyramid(directory, mr: Multiresolution, pyr: Pyramid,
                 signal=None) -> List[str]:
    """Write a pyramid decomposition into a directory.

    Layout: ``pyramid.json`` (levels, kept indices, parameters and the
    fingerprint of the finest graph), ``coarse.csv``,
    ``error_<level>.csv`` per level, and optionally ``signal.csv`` with the
    analyzed input for later verification.  Returns the written paths.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    manifest = {
        "alpha": mr.alpha,
        "epsilon": mr.epsilon,
        "fingerprint": _fingerprint(mr.graphs[0]),
        "level_sizes": mr.level_sizes(),
        "keeps": [k.tolist() for k in mr.keeps],
    }
    mpath = os.path.join(directory, PYRAMID_MANIFEST)
    _dump_json(mpath, manifest)
    written.append(mpath)
    cpath = os.path.join(directory, "coarse.csv")
    save_signal(cpath, pyr.coarse)
    written.append(cpath)
    for level, err in enumerate(pyr.errors):
        epath = os.path.join(directory, f"error_{level}.csv")
        save_signal(epath, err)
        written.append(epath)
    if signal is not None:
        spath = os.path.join(directory, "signal.csv")
        save_signal(spath, signal)
        written.append(spath)
    return written


def load_pyramid(directory, G: Graph) -> Tuple[Multiresolution, Pyramid,
                                               Optional[np.ndarray]]:
    """Rebuild hierarchy and coefficients from a pyramid directory.

    The hierarchy is reconstructed deterministically from the stored kept
    sets, so the graph must be the one whose fingerprint the manifest holds.

    Raises:
        BadParameter: Malformed manifest, missing keys and invalid parameters
            included.
        LevelMismatch: ``G`` is not the graph the pyramid was built from, or
            the stored level sizes disagree with the reconstruction.
    """
    manifest = _load_json(os.path.join(directory, PYRAMID_MANIFEST))
    try:
        # No cast: the pyramid refuses kept indices that are not integers.
        keeps = [np.asarray(k) for k in manifest["keeps"]]
        alpha = float(manifest["alpha"])
        epsilon = float(manifest["epsilon"])
        sizes = [int(s) for s in manifest["level_sizes"]]
        fingerprint = str(manifest["fingerprint"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameter(
            f"malformed pyramid manifest in {directory}: {exc}") from exc
    if fingerprint != _fingerprint(G):
        raise LevelMismatch(f"the pyramid in {directory} was built from "
                            "another graph (fingerprint differs)")
    mr = multiresolution_from_keeps(G, keeps, alpha=alpha, epsilon=epsilon)
    if mr.level_sizes() != sizes:
        raise LevelMismatch(
            f"stored level sizes {sizes} disagree with the sizes "
            f"{mr.level_sizes()} the stored keeps give")
    coarse = load_signal(os.path.join(directory, "coarse.csv"))
    errors = [load_signal(os.path.join(directory, f"error_{level}.csv"))
              for level in range(len(keeps))]
    pyr = Pyramid(coarse=coarse, errors=errors, level_sizes=sizes)
    spath = os.path.join(directory, "signal.csv")
    signal = load_signal(spath) if os.path.exists(spath) else None
    return mr, pyr, signal
