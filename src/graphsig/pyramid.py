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
    NonFiniteValue,
    NotConnected,
    ShapeMismatch,
    SingularInteriorBlock,
    SolverFailure,
)
from .graphs import Graph, LaplacianKind, _as_signal, graph_from_weights
from .spectral import _fix_signs, _lanczos_start

#: Off-diagonal entries of a reduced Laplacian in (0, +CLAMP] are treated as
#: elimination roundoff and zeroed; anything larger is a genuine error.
POSITIVE_OFFDIAG_CLAMP = 1e-10


def _check_kept(n: int, kept) -> np.ndarray:
    """Sorted kept indices, refused when empty, out of range or repeated."""
    given = np.asarray(kept, dtype=int).ravel()
    kept = np.unique(given)
    if kept.size == 0:
        raise EmptyKeptSet("kept set is empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexOutOfRange(
            f"kept indices must lie in [0, {n}), got range "
            f"[{kept[0]}, {kept[-1]}]")
    if kept.size != given.size:
        raise BadParameter("kept indices must not repeat")
    return kept


def _splu(A, error, what: str):
    """Sparse LU of ``A``; SuperLU's ``RuntimeError`` becomes ``error``."""
    try:
        return spl.splu(sp.csc_matrix(A))
    except RuntimeError as exc:
        raise error(f"{what}: {exc}") from exc


def kron_reduce(L, kept) -> sp.csr_array:
    """Schur complement of a Laplacian onto a kept vertex set.

    Eliminates the complement block with a sparse LU factorization and
    returns ``L[kept, kept] - L[kept, rest] @ inv(L[rest, rest]) @
    L[rest, kept]`` as a sparse matrix.  The result of reducing a connected
    combinatorial Laplacian is again one; tiny positive off-diagonal entries
    left by roundoff (at most :data:`POSITIVE_OFFDIAG_CLAMP`) are zeroed.

    Raises:
        BadParameter: ``kept`` repeats an index or covers every vertex.
        SingularInteriorBlock: The eliminated block cannot be factorized,
            e.g. when it contains a whole connected component.
    """
    L = sp.csr_array(L)
    n = L.shape[0]
    kept = _check_kept(n, kept)
    if kept.size == n:
        raise BadParameter("kept set must leave at least one vertex out")
    rest = np.setdiff1d(np.arange(n), kept)

    L_rr = sp.csc_array(L[np.ix_(rest, rest)])
    L_rk = L[np.ix_(rest, kept)].toarray()
    L_kr = L[np.ix_(kept, rest)]
    L_kk = L[np.ix_(kept, kept)].toarray()
    X = _splu(L_rr, SingularInteriorBlock,
              f"eliminated block of size {rest.size} is singular"
              ).solve(L_rk)
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
        epsilon: Regularization ``L + epsilon I`` of the interpolation.
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
        # Per level: the solvers built so far, see _level_solver.
        self._solvers = [{} for _ in self.keeps]

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

def _extension(L: sp.csr_array, kept: np.ndarray, eps: float):
    """``(rest, L[rest, kept], LU of L[rest, rest] + eps I)`` for sorted
    ``kept``: what :func:`_extend` needs."""
    rest = np.setdiff1d(np.arange(L.shape[0]), kept)
    A_rr = L[np.ix_(rest, rest)] + eps * sp.eye_array(rest.size)
    lu = _splu(A_rr, SolverFailure, "interpolation factorization failed")
    return rest, L[np.ix_(rest, kept)], lu


def _extend(ext, kept: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``vals`` on ``kept``, ``-inv(L_rr + eps I) @ L_rk @ vals`` elsewhere."""
    rest, L_rk, lu = ext
    out = np.empty((rest.size + kept.size,) + vals.shape[1:])
    out[kept] = vals
    out[rest] = -lu.solve(L_rk @ vals)
    if not np.all(np.isfinite(out)):
        raise SolverFailure("interpolation produced non-finite values")
    return out


def interpolate(G: Graph, kept, values, epsilon: float = 0.005) -> np.ndarray:
    """Interpolate values given on a vertex subset to the whole graph.

    The regularized Green's-function fit (the combination of columns of
    ``inv(L + epsilon I)[:, K]`` matching the values on the kept set ``K``)
    equals their harmonic extension: ``x_K = values`` and, on the rest
    ``R``, ``x_R = -inv(L_RR + epsilon I) @ L_RK @ values``.  That costs one
    sparse LU and no dense N x |K| block.  The surface follows the graph
    structure, with a bias of order ``epsilon`` on globally smooth inputs.
    A kept set covering the whole graph returns the values, placed on their
    vertices.

    Args:
        G: The graph (any symmetric Laplacian; combinatorial in the pyramid).
        kept: Distinct indices the values live on, in any order;
            ``values[i]`` is the value at vertex ``kept[i]``.
        values: One value per kept index, or a matrix with one column per
            signal.
        epsilon: Positive regularization.

    Raises:
        BadParameter: ``kept`` repeats an index.
        ShapeMismatch: ``values`` does not match ``kept``.
        NonFiniteValue: ``values`` holds NaN or infinite entries.
        SolverFailure: The extension system is singular.
    """
    if epsilon <= 0:
        raise BadParameter(f"epsilon must be positive, got {epsilon}")
    given = np.asarray(kept, dtype=int).ravel()
    kept = _check_kept(G.N, given)
    vals = np.asarray(values, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] != kept.size:
        raise ShapeMismatch(
            f"expected {kept.size} values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("values contain NaN or infinite entries")
    # Pair each value with its own index: reorder to the sorted kept set.
    vals = vals[np.argsort(given, kind="stable")]
    if kept.size == G.N:
        return vals
    return _extend(_extension(G.L, kept, float(epsilon)), kept, vals)


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


def _level_solver(mr: Multiresolution, level: int, kind: str):
    """One level's smoothing LU of ``I + alpha L`` (``kind="smooth"``, used
    by analysis only) or its :func:`_extension` (``kind="extend"``), built
    on first use."""
    cache = mr._solvers[level]
    if kind not in cache:
        L = mr.graphs[level].L
        if kind == "smooth":
            cache[kind] = _splu(sp.csc_array(L) * mr.alpha +
                                sp.eye_array(L.shape[0], format="csc"),
                                SolverFailure, "smoothing solve failed")
        else:
            cache[kind] = _extension(L, mr.keeps[level], mr.epsilon)
    return cache[kind]


def _level_signal(G: Graph, x, label: str, size_error) -> np.ndarray:
    """A finite 1-D signal on a level graph; wrong lengths raise size_error."""
    arr = np.asarray(x, dtype=float)
    if arr.shape[:1] != (G.N,):
        raise size_error(
            f"{label} must have {G.N} entries, got shape {arr.shape}")
    if arr.ndim != 1:
        raise ShapeMismatch(f"{label} must be 1-D, got shape {arr.shape}")
    return _as_signal(G, arr, label)


def pyramid_analysis(mr: Multiresolution, f) -> Pyramid:
    """Decompose a signal into a coarse part plus per-level errors.

    On each level the signal is smoothed by ``(I + alpha L)^{-1}``, sampled
    on the kept set, and the interpolation residual against that sample is
    stored.  Keeping full-length residuals makes the transform exactly
    invertible by :func:`pyramid_synthesis`.

    Raises:
        ShapeMismatch: ``f`` is not 1-D with one entry per vertex.
        NonFiniteValue: ``f`` holds NaN or infinite entries.
    """
    current = _level_signal(mr.graphs[0], f, "signal", ShapeMismatch)
    errors: List[np.ndarray] = []
    for level in range(mr.n_levels):
        kept = mr.keeps[level]
        smoothed = current if mr.alpha == 0 else \
            _level_solver(mr, level, "smooth").solve(current)
        coarse = smoothed[kept]
        errors.append(current - _extend(_level_solver(mr, level, "extend"),
                                        kept, coarse))
        current = coarse
    return Pyramid(coarse=current, errors=errors,
                   level_sizes=mr.level_sizes())


def pyramid_synthesis(mr: Multiresolution, pyr: Pyramid) -> np.ndarray:
    """Invert :func:`pyramid_analysis` exactly.

    Raises:
        LevelMismatch: The pyramid does not match the hierarchy (wrong level
            count or signal lengths).
        ShapeMismatch: The coarse signal or an error is not 1-D.
        NonFiniteValue: The coarse signal or an error holds NaN or infinite
            entries.
    """
    sizes = mr.level_sizes()
    if pyr.level_sizes != sizes or len(pyr.errors) != mr.n_levels:
        raise LevelMismatch(
            f"pyramid levels {pyr.level_sizes} do not match hierarchy "
            f"{sizes}")
    current = _level_signal(mr.graphs[-1], pyr.coarse, "coarse signal",
                            LevelMismatch)
    errors = [_level_signal(mr.graphs[level], err, f"error at level {level}",
                            LevelMismatch)
              for level, err in enumerate(pyr.errors)]
    for level in range(mr.n_levels - 1, -1, -1):
        current = _extend(_level_solver(mr, level, "extend"),
                          mr.keeps[level], current) + errors[level]
    return current
