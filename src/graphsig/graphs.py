"""Core graph container, Laplacian operators and random-walk quantities.

A graph is a sparse nonnegative weight matrix plus derived data (degrees, an
active Laplacian, optional coordinates).  :class:`Graph` holds the invariant:
its constructor refuses a weight matrix that is not already in stored form
(float64 CSR, finite, nonnegative, zero diagonal, exactly symmetric unless
directed) and attaches the default Laplacian, so no graph exists half built.
:func:`graph_from_weights` only normalizes: it converts any matrix, drops
self-loops and symmetrizes, then constructs.  One helper,
``_check_weights``, checks the weights at both sites.  After construction a
:class:`Graph` is treated as immutable, with two exceptions that are part of
the contract:

* :func:`laplacian` may swap the *active* Laplacian (and resets any spectral
  caches that depended on the old one), and
* expensive derived objects (Fourier basis, spectral-radius estimate,
  incidence operator, random-walk data) are computed once on first use and
  then published on the instance.  Publication is a single attribute
  assignment, so concurrent readers either see the finished object or
  recompute it; no partially built state is ever visible.
"""

from __future__ import annotations

import enum
import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .exceptions import (
    BadParameter,
    EmptyGraph,
    KindMismatch,
    NegativeWeight,
    NonFiniteValue,
    NonSquareMatrix,
    NotConverged,
    NotStronglyConnected,
    ShapeMismatch,
    ZeroDegreeVertex,
    ZeroOutDegree,
)

#: Asymmetry below this (absolute, entrywise) is treated as numerical noise
#: when deciding whether an input matrix is directed.
ASYMMETRY_TOL = 1e-12


class LaplacianKind(enum.Enum):
    """The supported Laplacian operators.

    The first two apply to undirected graphs, the remaining three to directed
    ones (an undirected graph may also be pushed through the directed
    formulas, where it behaves as a bidirected graph).
    """

    COMBINATORIAL = "combinatorial"
    NORMALIZED = "normalized"
    COMBINATORIAL_DIRECTED = "combinatorial-directed"
    DEGREE_NORMALIZED = "degree-normalized"
    DISTRIBUTION_NORMALIZED = "distribution-normalized"

    @property
    def for_directed(self) -> bool:
        """True if this kind is defined through in/out degrees."""
        return self in (
            LaplacianKind.COMBINATORIAL_DIRECTED,
            LaplacianKind.DEGREE_NORMALIZED,
            LaplacianKind.DISTRIBUTION_NORMALIZED,
        )


@dataclass
class DirectedData:
    """Random-walk quantities of a graph with positive out-degrees.

    Attributes:
        out_degrees: Row sums of the weight matrix.
        in_degrees: Column sums of the weight matrix.
        transition: Row-stochastic random-walk matrix ``P`` (each row of the
            weight matrix divided by its out-degree).
        stationary: Stationary distribution ``pi`` with ``pi @ P == pi``,
            normalized to sum to one.
    """

    out_degrees: np.ndarray
    in_degrees: np.ndarray
    transition: sp.csr_array
    stationary: np.ndarray


class Graph:
    """Weighted graph at desk scale (thousands of vertices).

    The constructor checks the stored form itself and attaches the default
    Laplacian, so every ``Graph`` is complete.  It takes ``W`` as it will be
    kept: a float64 ``scipy.sparse.csr_array`` with finite nonnegative
    weights, a zero diagonal and, unless ``directed``, exact symmetry.
    ``W`` is stored, not copied; duplicate entries are summed, explicit
    zeros removed and indices sorted in place.  To build a graph from any
    other matrix (dense, another sparse format, self-loops, asymmetry) use
    :func:`graph_from_weights`, which normalizes it into this form.

    Attributes:
        W: Sparse nonnegative weight matrix, zero diagonal.
        N: Number of vertices.
        Ne: Number of edges (each undirected edge counted once).
        d: Degree vector (row sums of ``W``).
        directed: Whether ``W`` is interpreted as directed.
        L: The active Laplacian (sparse), matching ``lap_kind``.
        lap_kind: Which Laplacian ``L`` currently holds; combinatorial for an
            undirected graph and combinatorial-directed for a directed one
            until :func:`laplacian` swaps it.
        coords: Optional ``(N, 2)`` or ``(N, 3)`` vertex coordinates.
        name: Human-readable label, may be empty.
        plotting: Free-form plotting defaults (vertex size, edge width,
            colormap name) consulted by the export helpers.
        dropped_self_loops: True if the input had diagonal entries that were
            removed during construction.

    Raises:
        BadParameter: ``W`` is not a float64 ``csr_array``, ``directed`` is
            not a bool, ``W`` has a nonzero diagonal, or an undirected ``W``
            is not exactly symmetric.
        NonSquareMatrix: ``W`` is not square, or ``coords`` is not
            ``(N, 2)`` or ``(N, 3)``.
        EmptyGraph: ``W`` has zero rows.
        NonFiniteValue: A weight or coordinate is NaN or infinite, or twice
            the largest row or column sum is not finite.
        NegativeWeight: A weight is negative.
    """

    def __init__(self, W: sp.csr_array, directed: bool, name: str = "",
                 coords: Optional[np.ndarray] = None,
                 plotting: Optional[dict] = None,
                 dropped_self_loops: bool = False):
        if not (isinstance(W, sp.csr_array) and W.dtype == np.float64):
            raise BadParameter(
                "W must be a float64 scipy.sparse.csr_array, got "
                f"{type(W).__name__} of {getattr(W, 'dtype', None)}; "
                "graph_from_weights converts other matrices")
        if not isinstance(directed, (bool, np.bool_)):
            raise BadParameter(f"directed must be a bool, got {directed!r}")
        directed = bool(directed)
        W.sum_duplicates()
        _check_weights(W)
        if W.diagonal().any():
            raise BadParameter("W has self-loops (a nonzero diagonal); "
                               "graph_from_weights drops them")
        W.eliminate_zeros()
        if not directed and _asymmetry(W, W.T.tocsr()):
            raise BadParameter(
                "an undirected W must be exactly symmetric; "
                "graph_from_weights(W, directed=False) symmetrizes it")
        # 2 dmax bounds the spectrum; past the float range every solver
        # overflows.
        with np.errstate(over="ignore"):
            self.d = np.asarray(W.sum(axis=1)).ravel()
            if not np.isfinite(2.0 * max(self.d.max(), W.sum(0).max())):
                raise NonFiniteValue(
                    "weight matrix degrees overflow: twice the largest row "
                    "or column sum is not finite")
        if coords is not None:
            coords = _float_array(coords, "coords")
            if coords.ndim != 2 or coords.shape[0] != W.shape[0] \
                    or coords.shape[1] not in (2, 3):
                raise NonSquareMatrix(
                    f"coords must be (N, 2) or (N, 3), got {coords.shape}")
            if not np.all(np.isfinite(coords)):
                raise NonFiniteValue(
                    "coordinates contain NaN or infinite entries")
        self.W = W
        self.N = W.shape[0]
        self.directed = directed
        self.Ne = W.nnz if directed else W.nnz // 2
        self.name = name
        self.coords = coords
        self.plotting = dict(plotting) if plotting else {}
        self.dropped_self_loops = dropped_self_loops
        # Compute-once caches (see module docstring for the publication rule).
        self._spectral = None
        self._lmax_estimate: Optional[float] = None
        self._incidence = None
        self._directed_data: Optional[DirectedData] = None
        laplacian(self, LaplacianKind.COMBINATORIAL_DIRECTED if directed
                  else LaplacianKind.COMBINATORIAL)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        arrow = "directed" if self.directed else "undirected"
        return (f"Graph({label and label.strip()} N={self.N} Ne={self.Ne} "
                f"{arrow} laplacian={self.lap_kind.value})")

    def is_connected(self, strong: bool = False) -> bool:
        """Whether the graph is (strongly, if asked) connected."""
        connection = "strong" if (strong and self.directed) else "weak"
        n_comp, _ = connected_components(
            self.W, directed=self.directed, connection=connection)
        return n_comp == 1


def _check_weights(M: sp.csr_array) -> None:
    """Refuse a weight matrix that is not square (``NonSquareMatrix``) or
    has no rows (``EmptyGraph``), or a weight that is NaN or infinite
    (``NonFiniteValue``) or negative (``NegativeWeight``).

    :class:`Graph` runs it on what it stores.  :func:`graph_from_weights`
    runs it on its raw input too: symmetrizing turns ``[[0, -1], [1, 0]]``
    into an empty graph, and dropping the diagonal would hide a NaN or
    negative self-loop.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquareMatrix(f"weight matrix has shape {M.shape}")
    if M.shape[0] == 0:
        raise EmptyGraph("weight matrix has no rows")
    if M.nnz and not np.all(np.isfinite(M.data)):
        raise NonFiniteValue("weight matrix contains NaN or infinite entries")
    if M.nnz and M.data.min() < 0:
        raise NegativeWeight(
            f"weight matrix contains negative entries (min {M.data.min():g})")


def _asymmetry(M: sp.csr_array, MT: sp.csr_array) -> float:
    """The largest entry of ``|M - MT|``, for ``MT`` the transpose of ``M``
    in CSR; 0.0 when ``M`` is exactly symmetric.  Where the two share one
    sorted pattern, the arrays are compared without forming ``M - MT``."""
    if np.array_equal(M.indptr, MT.indptr) \
            and np.array_equal(M.indices, MT.indices):
        delta = M.data - MT.data
    else:
        delta = (M - MT).data
    return float(np.abs(delta).max()) if delta.size else 0.0


def _as_sparse(weights) -> sp.csr_array:
    """Coerce an array-like or sparse matrix to float64 CSR."""
    if sp.issparse(weights):
        M = sp.csr_array(weights)
    else:
        M = sp.csr_array(_float_array(weights, "weight matrix"))
    return M.astype(np.float64)


def graph_from_weights(weights, directed="auto", name: str = "",
                       coords=None, kind=None, plotting=None) -> Graph:
    """Normalize a weight matrix into a :class:`Graph`.

    The input is converted to float64 CSR and checked, self-loops are
    dropped, and an undirected graph is symmetrized; :class:`Graph` then
    checks the result and attaches its default Laplacian.

    Args:
        weights: Square array-like or scipy sparse matrix with nonnegative,
            finite entries.  Diagonal entries (self-loops) are dropped and
            recorded on ``graph.dropped_self_loops``.
        directed: ``True``, ``False`` or ``"auto"``.  With ``"auto"`` the
            matrix is considered directed when its asymmetry exceeds
            ``ASYMMETRY_TOL``.  With ``directed=False`` an asymmetric input is
            symmetrized to ``(W + W.T) / 2``; the stored matrix is then
            exactly symmetric.
        name: Optional label.
        coords: Optional ``(N, 2)`` or ``(N, 3)`` vertex coordinates.
        kind: Laplacian to attach, a :class:`LaplacianKind` or its string
            value.  ``None`` keeps the graph's default: combinatorial for
            undirected graphs and the combinatorial directed form for
            directed ones.
        plotting: Optional plotting-defaults map stored verbatim.

    Returns:
        A :class:`Graph` with ``L`` and ``lap_kind`` populated.

    Raises:
        BadParameter: If the weights or the coordinates are not numeric.
        NonSquareMatrix: If the matrix is not square, or ``coords`` is not
            ``(N, 2)`` or ``(N, 3)``.
        NonFiniteValue: If any entry or coordinate is NaN or infinite, or
            twice the largest row or column sum of the stored matrix is not
            finite.
        NegativeWeight: If any entry is negative.
        EmptyGraph: If the matrix has zero rows.
    """
    M = _as_sparse(weights)
    _check_weights(M)
    diag = M.diagonal()
    dropped = bool(np.any(diag != 0))
    if dropped:
        M = sp.csr_array(M - sp.diags_array(diag))
    if directed == "auto" or not directed:
        # One transpose serves the asymmetry test and the symmetrization.
        MT = M.T.tocsr()
        asym = _asymmetry(M, MT)
        if directed == "auto":
            directed = asym > ASYMMETRY_TOL
        if not directed and asym:
            # Exact symmetry, even if the asymmetry was only rounding noise;
            # an exactly symmetric M is its own (M + M.T) / 2.
            M = sp.csr_array((M + MT) * 0.5)
    G = Graph(M, bool(directed), name=name, coords=coords,
              plotting=plotting, dropped_self_loops=dropped)
    if kind is not None:
        laplacian(G, kind)
    return G


def _float_array(x, label: str) -> np.ndarray:
    """``x`` as a float array; ``BadParameter`` if numpy cannot convert it."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"{label} must be numeric: {exc}") from exc


def _check_type(label: str, value, cls):
    """``value`` itself; ``BadParameter`` for anything but a ``cls``, raised
    where an entry point first reads its graph, bank or hierarchy."""
    if not isinstance(value, cls):
        raise BadParameter(
            f"{label} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_graph(G) -> Graph:
    """``G`` itself; ``BadParameter`` for anything but a :class:`Graph`."""
    return _check_type("graph", G, Graph)


def _as_signal(G, f, label: str = "signal") -> np.ndarray:
    """A signal ``(N,)`` or block ``(N, k)`` as a float array, shape kept.

    ``G`` is the graph or its vertex count ``N``.  Raises ``BadParameter``
    for a ``G`` that is neither or for non-numeric input, ``ShapeMismatch``
    for any other shape and ``NonFiniteValue`` for NaN or infinite entries.
    """
    if isinstance(G, numbers.Integral) and not isinstance(G, bool):
        n = int(G)
    else:
        n = _check_graph(G).N
    arr = _float_array(f, label)
    if arr.ndim not in (1, 2) or arr.shape[0] != n:
        raise ShapeMismatch(
            f"{label} must have {n} rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{label} contains NaN or infinite entries")
    return arr


def _as_1d_signal(n: int, x, label: str = "signal",
                  size_error=ShapeMismatch) -> np.ndarray:
    """A finite 1-D signal of ``n`` entries; non-numeric input raises
    ``BadParameter``, wrong lengths ``size_error``, a second axis
    ``ShapeMismatch``."""
    arr = _float_array(x, label)
    if arr.shape[:1] != (n,):
        raise size_error(
            f"{label} must have {n} entries, got shape {arr.shape}")
    if arr.ndim != 1:
        raise ShapeMismatch(f"{label} must be 1-D, got shape {arr.shape}")
    return _as_signal(n, arr, label)


def _check_real(name: str, value, positive: bool = False,
                maximum: Optional[float] = None,
                error=BadParameter) -> float:
    """``value`` as a float; ``error`` unless it is a finite real number
    ``>= 0`` (``> 0`` with ``positive``), at most ``maximum`` when given,
    and not a bool.  NaN fails every comparison, so the test lets good
    values in rather than bad ones out."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)
            and (value > 0 if positive else value >= 0)
            and (maximum is None or value <= maximum)):
        raise error(f"{name} must be {'positive' if positive else '>= 0'}"
                    f"{'' if maximum is None else f', <= {maximum:g}'} and "
                    f"finite, got {value!r}")
    return float(value)


def _check_int(name: str, value, minimum: Optional[int] = None,
               error=BadParameter) -> int:
    """``value`` as an int; ``error`` unless it is a Python or numpy integer
    (a cast would truncate a float and read a bool as 0/1) and at least
    ``minimum`` when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _fingerprint(G: Graph) -> str:
    """sha256 of ``W``'s CSR arrays, the directed flag and the Laplacian kind.

    Indices are hashed as little-endian int64 and weights as float64, so a
    graph read back from Matrix Market (int32 indices) hashes like the one
    that was written.
    """
    W = G.W
    h = hashlib.sha256(f"{W.shape}:{G.directed}:{G.lap_kind.value}".encode())
    for arr in (W.indptr.astype("<i8"), W.indices.astype("<i8"),
                W.data.astype("<f8")):
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def _inv_sqrt(vec: np.ndarray) -> np.ndarray:
    """Entrywise 1/sqrt with zeros kept at zero."""
    out = np.zeros_like(vec, dtype=float)
    nz = vec > 0
    out[nz] = 1.0 / np.sqrt(vec[nz])
    return out


def laplacian(G: Graph, kind=None) -> sp.csr_array:
    """Build the requested Laplacian and make it the graph's active one.

    The weight structure of ``G`` is untouched; only ``G.L`` and
    ``G.lap_kind`` change.  Spectral caches (Fourier basis, spectral-radius
    estimate) are reset because they belong to the previous operator.

    Args:
        G: The graph.
        kind: :class:`LaplacianKind` or its string value.  ``None`` keeps the
            current kind and simply rebuilds.

    Returns:
        The sparse Laplacian, also stored as ``G.L``.

    Raises:
        BadParameter: ``G`` is not a :class:`Graph`, or ``kind`` names no
            :class:`LaplacianKind`.
        KindMismatch: Undirected kind requested for a directed graph.
        ZeroDegreeVertex: Degree-normalized form with an isolated in/out side.
        NotStronglyConnected: Distribution-normalized form on a graph whose
            random walk is not irreducible.
        ZeroOutDegree: Distribution-normalized form with a sink vertex.
    """
    _check_graph(G)
    if kind is None:
        kind = G.lap_kind
    try:
        kind = LaplacianKind(kind)
    except ValueError:
        raise BadParameter(f"unknown laplacian kind {kind!r}") from None
    if not kind.for_directed and G.directed:
        raise KindMismatch(
            f"laplacian kind {kind.value!r} needs an undirected graph")

    W = G.W
    N = G.N
    if kind is LaplacianKind.COMBINATORIAL:
        L = sp.diags_array(G.d) - W
    elif kind is LaplacianKind.NORMALIZED:
        dis = _inv_sqrt(G.d)
        Dis = sp.diags_array(dis)
        L = Dis @ (sp.diags_array(G.d) - W) @ Dis
    elif kind is LaplacianKind.COMBINATORIAL_DIRECTED:
        d_in = np.asarray(W.sum(axis=0)).ravel()
        L = (sp.diags_array(G.d) + sp.diags_array(d_in) - W - W.T) * 0.5
    elif kind is LaplacianKind.DEGREE_NORMALIZED:
        d_out = G.d
        d_in = np.asarray(W.sum(axis=0)).ravel()
        if np.any(d_out <= 0) or np.any(d_in <= 0):
            bad = int(np.argmax((d_out <= 0) | (d_in <= 0)))
            raise ZeroDegreeVertex(
                f"vertex {bad} has zero in- or out-degree; the "
                "degree-normalized laplacian is undefined")
        S = W + W.T
        L = sp.eye_array(N) - 0.5 * (
            sp.diags_array(_inv_sqrt(d_out)) @ S @ sp.diags_array(_inv_sqrt(d_in)))
    elif kind is LaplacianKind.DISTRIBUTION_NORMALIZED:
        if not G.is_connected(strong=True):
            raise NotStronglyConnected(
                "distribution-normalized laplacian needs a strongly "
                "connected graph")
        data = stationary_distribution(G)
        pi_h = np.sqrt(data.stationary)
        A = sp.diags_array(pi_h) @ data.transition @ sp.diags_array(1.0 / pi_h)
        L = sp.eye_array(N) - 0.5 * (A + A.T)
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(kind)

    L = sp.csr_array(L)
    L.sort_indices()
    G.L = L
    G.lap_kind = kind
    G._spectral = None
    G._lmax_estimate = None
    return L


# ---------------------------------------------------------------------------
# Random walk
# ---------------------------------------------------------------------------

#: Convergence threshold (L1 step difference) for the stationary iteration.
STATIONARY_TOL = 1e-12
#: Iteration cap for the stationary iteration.
STATIONARY_MAX_ITER = 10000


def stationary_distribution(G: Graph) -> DirectedData:
    """Random-walk transition matrix and its stationary distribution.

    The stationary vector is found by a damped power iteration,
    ``pi <- (pi + pi @ P) / 2``, started from the uniform distribution and
    run until the L1 change drops below ``STATIONARY_TOL``.  The damping
    removes the period-2 oscillation that plain power iteration exhibits on
    bipartite-like walks.  The result is cached on the graph.

    Raises:
        ZeroOutDegree: If some vertex has no outgoing weight.
        NotConverged: If the iteration cap is reached; the message carries the
            last residual.
    """
    if _check_graph(G)._directed_data is not None:
        return G._directed_data

    d_out = G.d
    if np.any(d_out <= 0):
        bad = int(np.argmax(d_out <= 0))
        raise ZeroOutDegree(f"vertex {bad} has zero out-degree")
    d_in = np.asarray(G.W.sum(axis=0)).ravel()
    P = sp.csr_array(sp.diags_array(1.0 / d_out) @ G.W)

    pi = np.full(G.N, 1.0 / G.N)
    PT = P.T.tocsr()
    for _ in range(STATIONARY_MAX_ITER):
        nxt = 0.5 * (pi + PT @ pi)
        nxt /= nxt.sum()
        step = float(np.abs(nxt - pi).sum())
        pi = nxt
        if step <= STATIONARY_TOL:
            break
    else:
        raise NotConverged(
            f"stationary distribution did not reach {STATIONARY_TOL:g} in "
            f"{STATIONARY_MAX_ITER} iterations (last step {step:g})")

    data = DirectedData(out_degrees=d_out, in_degrees=d_in,
                        transition=P, stationary=pi)
    G._directed_data = data
    return data
