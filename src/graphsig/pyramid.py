"""Multiresolution of graphs by Kron reduction, with analysis and synthesis.

Coarsening keeps the vertices where the top Laplacian eigenvector is
nonnegative, eliminates the rest by a Schur complement of the combinatorial
Laplacian (which is again a Laplacian), and repeats.  Signals ride along via
a smoothing filter before downsampling plus stored prediction errors, so the
transform is perfectly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .exceptions import (
    BadParameter,
    EmptyKeptSet,
    IndexOutOfRange,
    KindMismatch,
    LevelMismatch,
    NotConnected,
    ShapeMismatch,
    SingularInteriorBlock,
    SolverFailure,
)
from .graphs import Graph, LaplacianKind, graph_from_weights
from .spectral import _fix_signs, _lanczos_start

#: Off-diagonal entries of a reduced Laplacian in (0, +CLAMP] are treated as
#: elimination roundoff and zeroed; anything larger is a genuine error.
POSITIVE_OFFDIAG_CLAMP = 1e-10


def _check_kept(n: int, kept) -> np.ndarray:
    kept = np.unique(np.asarray(kept, dtype=int))
    if kept.size == 0:
        raise EmptyKeptSet("kept set is empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexOutOfRange(
            f"kept indices must lie in [0, {n}), got range "
            f"[{kept[0]}, {kept[-1]}]")
    if kept.size == n:
        raise BadParameter("kept set must leave at least one vertex out")
    return kept


def kron_reduce(L, kept) -> sp.csr_array:
    """Schur complement of a Laplacian onto a kept vertex set.

    Eliminates the complement block with a sparse LU factorization and
    returns ``L[kept, kept] - L[kept, rest] @ inv(L[rest, rest]) @
    L[rest, kept]`` as a sparse matrix.  The result of reducing a connected
    combinatorial Laplacian is again one; tiny positive off-diagonal entries
    left by roundoff (at most :data:`POSITIVE_OFFDIAG_CLAMP`) are zeroed.

    Raises:
        SingularInteriorBlock: The eliminated block cannot be factorized,
            e.g. when it contains a whole connected component.
    """
    L = sp.csr_array(L)
    n = L.shape[0]
    kept = _check_kept(n, kept)
    rest = np.setdiff1d(np.arange(n), kept)

    L_rr = sp.csc_array(L[np.ix_(rest, rest)])
    L_rk = L[np.ix_(rest, kept)].toarray()
    L_kr = L[np.ix_(kept, rest)]
    L_kk = L[np.ix_(kept, kept)].toarray()
    try:
        lu = spl.splu(sp.csc_matrix(L_rr))
        X = lu.solve(L_rk)
    except RuntimeError as exc:
        raise SingularInteriorBlock(
            f"eliminated block of size {rest.size} is singular: {exc}") from exc
    if not np.all(np.isfinite(X)):
        raise SingularInteriorBlock(
            f"eliminated block of size {rest.size} is singular "
            "(non-finite solve)")
    # In place where the arithmetic allows: each temporary is |kept|^2
    # doubles, and fewer of them keep the allocator's heap from growing.
    L_kk -= L_kr @ X
    del X
    R = L_kk + L_kk.T
    R *= 0.5
    # Zero the roundoff-positive off-diagonal entries.
    off = ~np.eye(R.shape[0], dtype=bool)
    noise = off & (R > 0) & (R <= POSITIVE_OFFDIAG_CLAMP)
    R[noise] = 0.0
    out = sp.csr_array(R)
    out.eliminate_zeros()
    return out


@dataclass
class Multiresolution:
    """A chain of graphs produced by repeated Kron reduction.

    Attributes:
        graphs: ``n_levels + 1`` graphs, finest first.
        keeps: For each reduction step, the sorted indices (into that level)
            of the vertices that survive into the next level.
        alpha: Smoothing strength of the analysis filter ``1 / (1 + alpha x)``.
        epsilon: Regularization of the interpolation Green's functions.
        fallback_levels: Level indices where the eigenvector split was
            degenerate and the deterministic every-other-vertex fallback was
            used instead.
    """

    graphs: List[Graph]
    keeps: List[np.ndarray]
    alpha: float = 1.0
    epsilon: float = 0.005
    fallback_levels: List[int] = field(default_factory=list)

    def __post_init__(self):
        self._interp_factors = [None] * len(self.keeps)
        self._smooth_factors = [None] * len(self.keeps)

    @property
    def n_levels(self) -> int:
        return len(self.keeps)

    def level_sizes(self) -> List[int]:
        return [g.N for g in self.graphs]


#: Below this size the top eigenvector comes from a dense solve; above it a
#: Lanczos iteration with a fixed start vector keeps the cost linear-ish.
_DENSE_EIGVEC_CUTOFF = 256


def _top_eigenvector(L: sp.csr_array) -> np.ndarray:
    """Largest-eigenvalue eigenvector with a deterministic sign."""
    n = L.shape[0]
    U = None
    if n > _DENSE_EIGVEC_CUTOFF:
        try:
            _, U = spl.eigsh(L.astype(float), k=1, which="LA",
                             tol=0, v0=_lanczos_start(n), ncv=min(n, 32))
        except (spl.ArpackError, spl.ArpackNoConvergence):
            pass
    if U is None:
        U = np.linalg.eigh(L.toarray())[1][:, -1:]
    return _fix_signs(U)[:, 0]


def _select_kept(L: sp.csr_array) -> tuple[np.ndarray, bool]:
    """Vertices in the nonnegative part of the top eigenvector.

    Returns the kept index set and a flag marking the deterministic fallback
    (taken when the split would keep everything or nothing).  When the
    nonnegative side is the minority, the eigenvector sign is flipped so at
    least half the vertices survive — eigenvectors are only defined up to
    sign anyway.
    """
    n = L.shape[0]
    u = _top_eigenvector(L)
    kept = np.flatnonzero(u >= 0)
    if kept.size < (n + 1) // 2:
        kept = np.flatnonzero(-u >= 0)
    if kept.size in (0, n):
        return np.arange(0, n, 2), True
    return kept, False


def _reduce_levels(G: Graph, n_levels: int, choose, alpha: float,
                   epsilon: float) -> Multiresolution:
    """The one level loop: validate once, then Kron-reduce level by level.

    ``choose(level, current)`` returns the kept indices for that level and
    whether they came from the deterministic fallback.
    """
    if G.directed or G.lap_kind is not LaplacianKind.COMBINATORIAL:
        raise KindMismatch(
            "multiresolution needs an undirected graph with its "
            "combinatorial laplacian active")
    if not G.is_connected():
        raise NotConnected("multiresolution needs a connected graph")
    if n_levels < 0:
        raise BadParameter(f"n_levels must be >= 0, got {n_levels}")
    if alpha < 0:
        raise BadParameter(f"alpha must be >= 0, got {alpha}")
    if epsilon <= 0:
        raise BadParameter(f"epsilon must be positive, got {epsilon}")

    graphs = [G]
    keeps: List[np.ndarray] = []
    fallback: List[int] = []
    current = G
    for level in range(int(n_levels)):
        kept, used_fallback = choose(level, current)
        kept = _check_kept(current.N, kept)
        if used_fallback:
            fallback.append(level)
        R = kron_reduce(current.L, kept)
        coords = current.coords[kept] if current.coords is not None else None
        nxt = graph_from_weights(
            _laplacian_to_weights(R), directed=False,
            kind=LaplacianKind.COMBINATORIAL, coords=coords,
            name=f"{G.name or 'graph'}/level{level + 1}")
        graphs.append(nxt)
        keeps.append(kept)
        current = nxt
    return Multiresolution(graphs=graphs, keeps=keeps, alpha=float(alpha),
                           epsilon=float(epsilon), fallback_levels=fallback)


def graph_multiresolution(G: Graph, n_levels: int, alpha: float = 1.0,
                          epsilon: float = 0.005) -> Multiresolution:
    """Build a Kron-reduction pyramid of ``n_levels + 1`` graphs.

    Args:
        G: Connected undirected graph carrying its combinatorial Laplacian.
        n_levels: Number of reduction steps (0 gives just the input graph).
        alpha: Analysis smoothing strength, must be >= 0.
        epsilon: Interpolation regularization, must be > 0.

    Raises:
        KindMismatch: The active Laplacian is not the combinatorial one.
        NotConnected: The graph is disconnected (elimination blocks would
            go singular).
        BadParameter: A level would shrink below two vertices.
    """
    def choose(level, current):
        if current.N < 2:
            raise BadParameter(
                f"cannot reduce below 2 vertices (level {level} has "
                f"{current.N})")
        return _select_kept(current.L)

    return _reduce_levels(G, n_levels, choose, alpha, epsilon)


def _laplacian_to_weights(L: sp.csr_array) -> sp.csr_array:
    """Weight matrix from a Laplacian's negated off-diagonal part."""
    A = (-L).tocoo()
    mask = (A.row != A.col) & (A.data > 0)
    W = sp.coo_array((A.data[mask], (A.row[mask], A.col[mask])),
                     shape=A.shape)
    return sp.csr_array(W)


def multiresolution_from_keeps(G: Graph, keeps, alpha: float = 1.0,
                               epsilon: float = 0.005) -> Multiresolution:
    """Rebuild a pyramid from stored kept-index chains (deserialization),
    with the same checks as :func:`graph_multiresolution`."""
    keeps = list(keeps)
    return _reduce_levels(G, len(keeps),
                          lambda level, _: (keeps[level], False),
                          alpha, epsilon)


# ---------------------------------------------------------------------------
# Interpolation and the signal pyramid
# ---------------------------------------------------------------------------

def _factorize(L: sp.csr_array, shift: float):
    try:
        lu = spl.splu(sp.csc_matrix(sp.csc_array(L) +
                                    shift * sp.eye_array(L.shape[0],
                                                         format="csc")))
    except RuntimeError as exc:
        raise SolverFailure(f"factorization failed: {exc}") from exc
    return lu


def interpolate(G: Graph, kept, values, epsilon: float = 0.005,
                _lu=None) -> np.ndarray:
    """Interpolate values given on a vertex subset to the whole graph.

    Fits a combination of regularized Green's functions — columns of
    ``inv(L + epsilon I)`` — that matches the given values exactly on the
    kept vertices, and evaluates it everywhere.  Exact reproduction holds on
    the kept set; elsewhere the surface follows the graph structure, with a
    bias of order ``epsilon`` on globally smooth inputs.

    Args:
        G: The graph (any symmetric Laplacian; combinatorial in the pyramid).
        kept: Indices the values live on.
        values: One value per kept index, or a matrix with one column per
            signal.
        epsilon: Positive regularization.

    Raises:
        ShapeMismatch: ``values`` does not match ``kept``.
        SolverFailure: The Green's-function system is singular.
    """
    if epsilon <= 0:
        raise BadParameter(f"epsilon must be positive, got {epsilon}")
    kept = np.unique(np.asarray(kept, dtype=int))
    if kept.size == 0:
        raise EmptyKeptSet("kept set is empty")
    if kept[0] < 0 or kept[-1] >= G.N:
        raise IndexOutOfRange(
            f"kept indices must lie in [0, {G.N})")
    vals = np.asarray(values, dtype=float)
    was_1d = vals.ndim == 1
    if was_1d:
        vals = vals[:, None]
    if vals.shape[0] != kept.size:
        raise ShapeMismatch(
            f"expected {kept.size} values, got shape "
            f"{np.asarray(values).shape}")

    lu = _lu if _lu is not None else _factorize(G.L, float(epsilon))
    rhs = np.zeros((G.N, kept.size))
    rhs[kept, np.arange(kept.size)] = 1.0
    basis = lu.solve(rhs)          # columns: Green's functions of kept set
    gram = basis[kept, :]
    try:
        coef = np.linalg.solve(gram, vals)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(
            f"Green's-function system is singular: {exc}") from exc
    out = basis @ coef
    if not np.all(np.isfinite(out)):
        raise SolverFailure("interpolation produced non-finite values")
    return out[:, 0] if was_1d else out


@dataclass
class Pyramid:
    """Coefficients of a pyramid transform.

    Attributes:
        coarse: Signal on the coarsest graph.
        errors: Per level (finest first), the prediction error on that
            level's graph.
        level_sizes: Vertex counts, finest first, for validation.
    """

    coarse: np.ndarray
    errors: List[np.ndarray]
    level_sizes: List[int]


def _analysis_filter(mr: Multiresolution, level: int, f: np.ndarray):
    """Apply ``(I + alpha L)^{-1}`` on one level, caching the factorization."""
    if mr.alpha == 0:
        return f
    lu = mr._smooth_factors[level]
    if lu is None:
        n = mr.graphs[level].N
        A = sp.csc_matrix(sp.csc_array(mr.graphs[level].L) * mr.alpha +
                          sp.eye_array(n, format="csc"))
        try:
            lu = spl.splu(A)
        except RuntimeError as exc:
            raise SolverFailure(f"smoothing solve failed: {exc}") from exc
        mr._smooth_factors[level] = lu
    return lu.solve(f)


def _interp_lu(mr: Multiresolution, level: int):
    lu = mr._interp_factors[level]
    if lu is None:
        lu = _factorize(mr.graphs[level].L, mr.epsilon)
        mr._interp_factors[level] = lu
    return lu


def pyramid_analysis(mr: Multiresolution, f) -> Pyramid:
    """Decompose a signal into a coarse part plus per-level errors.

    On each level the signal is smoothed by ``(I + alpha L)^{-1}``, sampled
    on the kept set, and the interpolation residual against that sample is
    stored.  Keeping full-length residuals makes the transform exactly
    invertible by :func:`pyramid_synthesis`.
    """
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != mr.graphs[0].N:
        raise ShapeMismatch(
            f"signal must be 1-D with {mr.graphs[0].N} entries, got shape "
            f"{arr.shape}")
    errors: List[np.ndarray] = []
    current = arr
    for level in range(mr.n_levels):
        kept = mr.keeps[level]
        smoothed = _analysis_filter(mr, level, current)
        coarse = smoothed[kept]
        predicted = interpolate(mr.graphs[level], kept, coarse, mr.epsilon,
                                _lu=_interp_lu(mr, level))
        errors.append(current - predicted)
        current = coarse
    return Pyramid(coarse=current, errors=errors,
                   level_sizes=mr.level_sizes())


def pyramid_synthesis(mr: Multiresolution, pyr: Pyramid) -> np.ndarray:
    """Invert :func:`pyramid_analysis` exactly.

    Raises:
        LevelMismatch: The pyramid does not match the hierarchy (wrong level
            count or signal lengths).
    """
    sizes = mr.level_sizes()
    if pyr.level_sizes != sizes or len(pyr.errors) != mr.n_levels:
        raise LevelMismatch(
            f"pyramid levels {pyr.level_sizes} do not match hierarchy "
            f"{sizes}")
    if np.asarray(pyr.coarse).shape[0] != sizes[-1]:
        raise LevelMismatch(
            f"coarse signal has {np.asarray(pyr.coarse).shape[0]} entries, "
            f"expected {sizes[-1]}")
    current = np.asarray(pyr.coarse, dtype=float)
    for level in range(mr.n_levels - 1, -1, -1):
        err = np.asarray(pyr.errors[level], dtype=float)
        if err.shape[0] != sizes[level]:
            raise LevelMismatch(
                f"error at level {level} has {err.shape[0]} entries, "
                f"expected {sizes[level]}")
        predicted = interpolate(mr.graphs[level], mr.keeps[level], current,
                                mr.epsilon, _lu=_interp_lu(mr, level))
        current = predicted + err
    return current
