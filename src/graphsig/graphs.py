"""Core graph container, Laplacian operators and random-walk quantities.

A graph is a sparse nonnegative weight matrix plus derived data (degrees, an
active Laplacian, optional coordinates).  Construction goes through
:func:`graph_from_weights`, which validates and normalizes the input once;
after that a :class:`Graph` is treated as immutable, with two exceptions that
are part of the contract:

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

    Do not call the constructor directly; use :func:`graph_from_weights` or a
    generator from :mod:`graphsig.generators`.

    Attributes:
        W: Sparse nonnegative weight matrix, zero diagonal.
        N: Number of vertices.
        Ne: Number of edges (each undirected edge counted once).
        d: Degree vector (row sums of ``W``).
        directed: Whether ``W`` is interpreted as directed.
        L: The active Laplacian (sparse), matching ``lap_kind``.
        lap_kind: Which Laplacian ``L`` currently holds.
        coords: Optional ``(N, 2)`` or ``(N, 3)`` vertex coordinates.
        name: Human-readable label, may be empty.
        plotting: Free-form plotting defaults (vertex size, edge width,
            colormap name) consulted by the export helpers.
        dropped_self_loops: True if the input had diagonal entries that were
            removed during construction.
    """

    def __init__(self, W: sp.csr_array, directed: bool, name: str = "",
                 coords: Optional[np.ndarray] = None,
                 plotting: Optional[dict] = None,
                 dropped_self_loops: bool = False):
        self.W = W
        self.N = W.shape[0]
        self.directed = directed
        self.d = np.asarray(W.sum(axis=1)).ravel()
        self.Ne = W.nnz if directed else W.nnz // 2
        self.name = name
        self.coords = coords
        self.plotting = dict(plotting) if plotting else {}
        self.dropped_self_loops = dropped_self_loops
        # Active Laplacian; filled in by graph_from_weights via laplacian().
        self.L: Optional[sp.csr_array] = None
        self.lap_kind: Optional[LaplacianKind] = None
        # Compute-once caches (see module docstring for the publication rule).
        self._spectral = None
        self._lmax_estimate: Optional[float] = None
        self._incidence = None
        self._directed_data: Optional[DirectedData] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        kind = self.lap_kind.value if self.lap_kind else "none"
        arrow = "directed" if self.directed else "undirected"
        return (f"Graph({label and label.strip()} N={self.N} Ne={self.Ne} "
                f"{arrow} laplacian={kind})")

    def is_connected(self, strong: bool = False) -> bool:
        """Whether the graph is (strongly, if asked) connected."""
        if self.N == 0:
            return False
        connection = "strong" if (strong and self.directed) else "weak"
        n_comp, _ = connected_components(
            self.W, directed=self.directed, connection=connection)
        return n_comp == 1


def _as_sparse(weights) -> sp.csr_array:
    """Coerce an array-like or sparse matrix to float64 CSR."""
    if sp.issparse(weights):
        M = sp.csr_array(weights)
    else:
        M = sp.csr_array(np.asarray(weights, dtype=float))
    return M.astype(np.float64)


def graph_from_weights(weights, directed="auto", name: str = "",
                       coords=None, kind=None, plotting=None) -> Graph:
    """Build a validated :class:`Graph` from a weight matrix.

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
            value.  Defaults to combinatorial for undirected graphs and the
            combinatorial directed form for directed ones.
        plotting: Optional plotting-defaults map stored verbatim.

    Returns:
        A :class:`Graph` with ``L`` and ``lap_kind`` populated.

    Raises:
        NonSquareMatrix: If the matrix is not square.
        NonFiniteValue: If any entry is NaN or infinite.
        NegativeWeight: If any entry is negative.
        EmptyGraph: If the matrix has zero rows.
    """
    M = _as_sparse(weights)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquareMatrix(f"weight matrix has shape {M.shape}")
    if M.shape[0] == 0:
        raise EmptyGraph("weight matrix has no rows")
    if M.nnz and not np.all(np.isfinite(M.data)):
        raise NonFiniteValue("weight matrix contains NaN or infinite entries")
    if M.nnz and M.data.min() < 0:
        raise NegativeWeight(
            f"weight matrix contains negative entries (min {M.data.min():g})")

    dropped = False
    diag = M.diagonal()
    if np.any(diag != 0):
        M = sp.csr_array(M - sp.diags_array(diag))
        dropped = True
    M.eliminate_zeros()

    asym = 0.0
    if M.nnz:
        delta = (M - M.T).tocoo()
        asym = float(np.max(np.abs(delta.data))) if delta.nnz else 0.0
    if directed == "auto":
        directed = asym > ASYMMETRY_TOL
    directed = bool(directed)
    if not directed:
        # Exact symmetry, even if the asymmetry was only rounding noise.
        M = sp.csr_array((M + M.T) * 0.5)
        M.eliminate_zeros()
    M.sort_indices()

    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] != M.shape[0] \
                or coords.shape[1] not in (2, 3):
            raise NonSquareMatrix(
                f"coords must be (N, 2) or (N, 3), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise NonFiniteValue("coordinates contain NaN or infinite entries")

    G = Graph(M, directed=directed, name=name, coords=coords,
              plotting=plotting, dropped_self_loops=dropped)
    if kind is None:
        kind = (LaplacianKind.COMBINATORIAL_DIRECTED if directed
                else LaplacianKind.COMBINATORIAL)
    laplacian(G, kind)
    return G


def _as_signal(G, f, label: str = "signal") -> np.ndarray:
    """A signal ``(N,)`` or block ``(N, k)`` as a float array, shape kept.

    ``G`` is the graph or its vertex count ``N``.  Raises ``ShapeMismatch``
    for any other shape and ``NonFiniteValue`` for NaN or infinite entries.
    """
    n = G.N if isinstance(G, Graph) else int(G)
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] != n:
        raise ShapeMismatch(
            f"{label} must have {n} rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{label} contains NaN or infinite entries")
    return arr


def _as_1d_signal(n: int, x, label: str = "signal",
                  size_error=ShapeMismatch) -> np.ndarray:
    """A finite 1-D signal of ``n`` entries; wrong lengths raise
    ``size_error``, a second axis ``ShapeMismatch``."""
    arr = np.asarray(x, dtype=float)
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
        KindMismatch: Undirected kind requested for a directed graph.
        ZeroDegreeVertex: Degree-normalized form with an isolated in/out side.
        NotStronglyConnected: Distribution-normalized form on a graph whose
            random walk is not irreducible.
        ZeroOutDegree: Distribution-normalized form with a sink vertex.
    """
    if kind is None:
        kind = G.lap_kind or (
            LaplacianKind.COMBINATORIAL_DIRECTED if G.directed
            else LaplacianKind.COMBINATORIAL)
    kind = LaplacianKind(kind)
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
        d_out = np.asarray(W.sum(axis=1)).ravel()
        d_in = np.asarray(W.sum(axis=0)).ravel()
        L = (sp.diags_array(d_out) + sp.diags_array(d_in) - W - W.T) * 0.5
    elif kind is LaplacianKind.DEGREE_NORMALIZED:
        d_out = np.asarray(W.sum(axis=1)).ravel()
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
    if G._directed_data is not None:
        return G._directed_data

    d_out = np.asarray(G.W.sum(axis=1)).ravel()
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
