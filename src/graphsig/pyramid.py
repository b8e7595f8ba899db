"""Multiresolution of graphs by Kron reduction, with analysis and synthesis.

Coarsening keeps the vertices where the top Laplacian eigenvector is
nonnegative, eliminates the rest by a Schur complement of the combinatorial
Laplacian (which is again a Laplacian), and repeats.  Signals ride along via
a smoothing filter before downsampling plus stored prediction errors, so the
transform is perfectly invertible.

A Schur complement of a Schur complement is the Schur complement onto the
nested set, so level ``l`` is ``S_l = L / (V \\ K_l)`` of the finest
Laplacian ``L``, with ``K_l`` the level's vertices as indices into the
finest graph.  The analysis and synthesis operators use that: each level
costs two sparse LUs of at most ``N`` rows of the finest ``L`` (smoothing and
extension), built on first use, and no level graph.  Level graphs are
Kron-reduced only where vertex selection reads them or a caller indexes
:attr:`Multiresolution.graphs`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List

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
    SingularInteriorBlock,
    SolverFailure,
)
from .graphs import (Graph, LaplacianKind, _as_1d_signal, _as_signal,
                     _check_int, _check_real, graph_from_weights)
from .spectral import _fix_signs, _lanczos_start

#: Off-diagonal entries of a reduced Laplacian in (0, +CLAMP] are treated as
#: elimination roundoff and zeroed by :func:`kron_reduce`.  Nothing raises on
#: a larger positive entry: it stays in ``kron_reduce``'s output, and
#: :func:`_laplacian_to_weights` leaves it out of the level graph.
POSITIVE_OFFDIAG_CLAMP = 1e-10


def _check_kept(n: int, kept) -> np.ndarray:
    """Sorted kept indices, refused when empty, not integers, out of range
    or repeated."""
    given = np.asarray(kept)
    if given.size == 0:
        raise EmptyKeptSet("kept set is empty")
    # Casting would silently truncate floats and read a mask as indices.
    if given.dtype.kind not in "iu":
        raise BadParameter(
            f"kept indices must be integers, got dtype {given.dtype}")
    given = given.astype(int, copy=False).ravel()
    kept = np.unique(given)
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexOutOfRange(
            f"kept indices must lie in [0, {n}), got range "
            f"[{kept[0]}, {kept[-1]}]")
    if kept.size != given.size:
        raise BadParameter("kept indices must not repeat")
    return kept


def _splu(A, error, what: str, *, symmetric: bool = True):
    """Sparse LU of ``A``; SuperLU's ``RuntimeError`` becomes ``error``.

    Every system the pyramid solves has a symmetric pattern and is
    diagonally dominant by rows, and elimination without pivoting is stable
    on such a matrix (growth factor at most 2; Higham, *Accuracy and
    Stability of Numerical Algorithms*, §9).  So the factorization orders by
    minimum degree on ``A + A^T`` and always takes the diagonal pivot, which
    keeps ``perm_r == perm_c`` and about halves the fill of SuperLU's
    default column ordering with partial pivoting.  ``symmetric=False``
    keeps that default.
    """
    options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True)) if symmetric else {}
    try:
        return spl.splu(sp.csc_matrix(A), **options)
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
        BadParameter: ``kept`` is not integer, repeats an index or covers
            every vertex.
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
    # SuperLU's default ordering, pinned: vertex selection reads this
    # output, and its kept sets follow the signs of eigenvector entries
    # that are pure roundoff, so the last bits here decide them (the
    # symmetric ordering moves 1033 level-1 keeps of sensor(4000, 0)).
    # Drop the pin once selection no longer depends on roundoff.
    X = _splu(L_rr, SingularInteriorBlock,
              f"eliminated block of size {rest.size} is singular",
              symmetric=False).solve(L_rk)
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


class _LevelGraphs(Sequence):
    """The graphs of a pyramid, finest first.

    ``graphs`` holds the levels built so far.  Indexing a missing level
    Kron-reduces each level up to it from the one before, onto that level's
    kept set in ``keeps``, a list the hierarchy may still be growing.
    """

    def __init__(self, graphs, keeps):
        self._graphs = list(graphs)
        self._keeps = keeps

    def __len__(self):
        return len(self._keeps) + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        level = range(len(self))[index]
        graphs = self._graphs
        while len(graphs) <= level:
            prev, kept = graphs[-1], self._keeps[len(graphs) - 1]
            coords = prev.coords[kept] if prev.coords is not None else None
            graphs.append(graph_from_weights(
                _laplacian_to_weights(kron_reduce(prev.L, kept)),
                directed=False, kind=LaplacianKind.COMBINATORIAL,
                coords=coords,
                name=f"{graphs[0].name or 'graph'}/level{len(graphs)}"))
        return graphs[level]

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self):
        return f"<{len(self)} level graphs, {len(self._graphs)} built>"


@dataclass
class Multiresolution:
    """A chain of graphs produced by repeated Kron reduction.

    The analysis and synthesis operators need only the finest graph and the
    kept sets: each level costs two sparse LUs of at most ``N`` rows of the
    finest Laplacian, built on first use, and no level graph.  However it
    is built, the hierarchy validates itself on construction.

    Attributes:
        graphs: ``n_levels + 1`` graphs, finest first.  Only the given ones
            (the finest, plus the levels vertex selection read) are held;
            indexing or iterating materializes the rest by Kron reduction.
        keeps: For each reduction step, the sorted indices (into that level)
            of the vertices that survive into the next level.
        alpha: Smoothing strength of the analysis filter ``1 / (1 + alpha x)``.
        epsilon: Regularization ``L + epsilon I`` of the interpolation.
        fallback_levels: Level indices where the eigenvector split was
            degenerate and the deterministic every-other-vertex fallback was
            used instead.

    Raises:
        KindMismatch: The active Laplacian is not the combinatorial one.
        NotConnected: The graph is disconnected (elimination blocks would
            go singular).
        BadParameter: ``alpha`` or ``epsilon`` is not finite and in range,
            or a kept set is not integer, repeats an index or covers its
            level.
        EmptyKeptSet, IndexOutOfRange: A kept set is empty or out of range.
    """

    graphs: Sequence[Graph]
    keeps: List[np.ndarray]
    alpha: float = 1.0
    epsilon: float = 0.005
    fallback_levels: List[int] = field(default_factory=list)

    def __post_init__(self):
        G = self.graphs[0]
        if G.directed or G.lap_kind is not LaplacianKind.COMBINATORIAL:
            raise KindMismatch(
                "multiresolution needs an undirected graph with its "
                "combinatorial laplacian active")
        if not G.is_connected():
            raise NotConnected("multiresolution needs a connected graph")
        self.alpha = _check_real("alpha", self.alpha)
        self.epsilon = _check_real("epsilon", self.epsilon, positive=True)
        given, self.keeps = self.keeps, []
        self.graphs = _LevelGraphs(self.graphs, self.keeps)
        # Per level: the solvers built so far, see _level_solver.
        self._solvers = []
        # Per level: its vertices as sorted indices into the finest graph.
        self._vertices = [np.arange(G.N)]
        for kept in given:
            self._add_level(kept)

    def _add_level(self, kept) -> None:
        """Append one reduction step of the coarsest level onto ``kept``."""
        level, size = len(self.keeps), self._vertices[-1].size
        kept = _check_kept(size, kept)
        if kept.size == size:
            raise BadParameter(f"kept set of level {level} must leave at "
                               "least one vertex out")
        self.keeps.append(kept)
        self._solvers.append({})
        self._vertices.append(self._vertices[-1][kept])

    @property
    def n_levels(self) -> int:
        return len(self.keeps)

    def level_sizes(self) -> List[int]:
        return [v.size for v in self._vertices]


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


def graph_multiresolution(G: Graph, n_levels: int, alpha: float = 1.0,
                          epsilon: float = 0.005) -> Multiresolution:
    """Build a Kron-reduction pyramid of ``n_levels + 1`` graphs.

    Selection reads the graphs of levels ``0 .. n_levels - 1``, so this
    makes ``n_levels - 1`` Kron reductions; the coarsest graph is reduced
    when first accessed.

    Args:
        G: Connected undirected graph carrying its combinatorial Laplacian.
        n_levels: Number of reduction steps (0 gives just the input graph).
        alpha: Analysis smoothing strength, must be >= 0.
        epsilon: Interpolation regularization, must be > 0.

    Raises:
        BadParameter: ``n_levels`` is not a nonnegative integer, or a level
            would shrink below two vertices.
        GraphSigError: What :class:`Multiresolution` refuses.
    """
    n_levels = _check_int("n_levels", n_levels, minimum=0)
    mr = Multiresolution([G], [], alpha, epsilon)
    for level in range(n_levels):
        current = mr.graphs[level]
        if current.N < 2:
            raise BadParameter(
                f"cannot reduce below 2 vertices (level {level} has "
                f"{current.N})")
        kept, used_fallback = _select_kept(current.L)
        if used_fallback:
            mr.fallback_levels.append(level)
        mr._add_level(kept)
    return mr


def _laplacian_to_weights(L: sp.csr_array) -> sp.csr_array:
    """Weight matrix from a Laplacian's negated off-diagonal part."""
    A = (-L).tocoo()
    mask = (A.row != A.col) & (A.data > 0)
    W = sp.coo_array((A.data[mask], (A.row[mask], A.col[mask])),
                     shape=A.shape)
    return sp.csr_array(W)


def multiresolution_from_keeps(G: Graph, keeps, alpha: float = 1.0,
                               epsilon: float = 0.005) -> Multiresolution:
    """Rebuild a pyramid from stored kept-index chains (deserialization).
    The hierarchy validates itself (see :class:`Multiresolution`).  No level
    graph is Kron-reduced until one is accessed."""
    return Multiresolution([G], keeps, alpha, epsilon)


# ---------------------------------------------------------------------------
# Interpolation and the signal pyramid
# ---------------------------------------------------------------------------

def _extension(L: sp.csr_array, outer: np.ndarray, inner: np.ndarray,
               eps: float):
    """What :func:`_extend` needs to extend values on ``inner`` over
    ``outer``, both sorted indices into ``L`` with ``inner`` inside
    ``outer``.

    The extension on the Schur complement ``S = L / (V \\ outer)`` is the
    solve of ``L[U, U] + eps diag(1_outer)`` over ``U = V \\ inner`` with the
    right-hand side ``-L[U, inner] @ vals``, read on ``outer``: eliminating
    ``V \\ outer`` from it leaves ``(S_RR + eps I) x_R = -S_RK vals``.  With
    ``outer`` every vertex this is the plain harmonic extension.  Returns
    ``(rest, on_outer, L[U, inner], LU)`` with ``rest`` the positions in
    ``outer`` that are not in ``inner``.
    """
    n = L.shape[0]
    free = np.ones(n, dtype=bool)
    free[inner] = False
    U = np.flatnonzero(free)
    level = np.zeros(n, dtype=bool)
    level[outer] = True
    on_outer = level[U]
    A_uu = L[np.ix_(U, U)] + eps * sp.diags_array(on_outer.astype(float))
    lu = _splu(A_uu, SolverFailure, "interpolation factorization failed")
    rest = np.searchsorted(outer, U[on_outer])
    return rest, on_outer, L[np.ix_(U, inner)], lu


def _extend(ext, kept: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``vals`` on ``kept``, their harmonic extension (see
    :func:`_extension`) elsewhere."""
    rest, on_outer, L_uk, lu = ext
    out = np.empty((rest.size + kept.size,) + vals.shape[1:])
    out[kept] = vals
    out[rest] = -lu.solve(L_uk @ vals)[on_outer]
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
        kept: Distinct integer indices the values live on, in any order;
            ``values[i]`` is the value at vertex ``kept[i]``.
        values: One value per kept index, or a matrix with one column per
            signal.
        epsilon: Positive regularization.

    Raises:
        BadParameter: ``kept`` is not integer or repeats an index, or
            ``epsilon`` is not finite and positive.
        ShapeMismatch: ``values`` does not match ``kept``.
        NonFiniteValue: ``values`` holds NaN or infinite entries.
        SolverFailure: The extension system is singular.
    """
    epsilon = _check_real("epsilon", epsilon, positive=True)
    sorted_kept = _check_kept(G.N, kept)
    vals = _as_signal(sorted_kept.size, values, "values")
    # Pair each value with its own index: reorder to the sorted kept set.
    vals = vals[np.argsort(np.ravel(kept), kind="stable")]
    if sorted_kept.size == G.N:
        return vals
    return _extend(_extension(G.L, np.arange(G.N), sorted_kept, epsilon),
                   sorted_kept, vals)


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
    """One level's solver on the finest Laplacian ``L``, built on first use:
    the smoothing LU of ``alpha L + diag(1_K)`` for the level's vertices
    ``K`` (``kind="smooth"``, used by analysis only) or the
    :func:`_extension` onto the next level (``kind="extend"``)."""
    cache = mr._solvers[level]
    if kind not in cache:
        L, vertices = mr.graphs[0].L, mr._vertices
        if kind == "smooth":
            on_level = np.zeros(L.shape[0])
            on_level[vertices[level]] = 1.0
            # The rows off the level are divided by alpha, which leaves the
            # solution as it is and keeps a tiny alpha from underflowing
            # the eliminated block.
            rows = sp.diags_array(np.where(on_level == 1.0, mr.alpha, 1.0))
            cache[kind] = _splu(rows @ sp.csc_array(L) +
                                sp.diags_array(on_level, format="csc"),
                                SolverFailure, "smoothing solve failed")
        else:
            cache[kind] = _extension(L, vertices[level], vertices[level + 1],
                                     mr.epsilon)
    return cache[kind]


def _smooth(mr: Multiresolution, level: int, x: np.ndarray) -> np.ndarray:
    """``inv(I + alpha S) @ x`` for the level's Laplacian ``S``: one solve
    with ``alpha L + diag(1_K)`` and ``x`` placed on ``K``, read on ``K``.
    Eliminating the rest of the finest graph leaves ``(I + alpha S)``."""
    if mr.alpha == 0:
        return x
    vertices = mr._vertices[level]
    rhs = np.zeros(mr.graphs[0].N)
    rhs[vertices] = x
    return _level_solver(mr, level, "smooth").solve(rhs)[vertices]


def pyramid_analysis(mr: Multiresolution, f) -> Pyramid:
    """Decompose a signal into a coarse part plus per-level errors.

    On each level the signal is smoothed by ``(I + alpha S)^{-1}`` for the
    level's Laplacian ``S``, sampled on the kept set, and the interpolation
    residual against that sample is stored.  Keeping full-length residuals
    makes the transform exactly invertible by :func:`pyramid_synthesis`.
    Both solves run on the finest graph; no level graph is built.

    Raises:
        ShapeMismatch: ``f`` is not 1-D with one entry per vertex.
        NonFiniteValue: ``f`` holds NaN or infinite entries.
    """
    current = _as_1d_signal(mr.graphs[0].N, f)
    errors: List[np.ndarray] = []
    for level in range(mr.n_levels):
        kept = mr.keeps[level]
        coarse = _smooth(mr, level, current)[kept]
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
    current = _as_1d_signal(sizes[-1], pyr.coarse, "coarse signal",
                            LevelMismatch)
    errors = [_as_1d_signal(sizes[level], err, f"error at level {level}",
                            LevelMismatch)
              for level, err in enumerate(pyr.errors)]
    for level in range(mr.n_levels - 1, -1, -1):
        current = _extend(_level_solver(mr, level, "extend"),
                          mr.keeps[level], current) + errors[level]
    return current
