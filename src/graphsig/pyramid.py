"""Multiresolution of graphs by Kron reduction, with analysis and synthesis.

Coarsening splits each level in two by the top eigenvector of its Laplacian,
keeps the larger side, eliminates the rest by a Schur complement of the
combinatorial Laplacian (which is again a Laplacian), and repeats.  Signals
ride along via a smoothing filter before downsampling plus stored prediction
errors, so the transform is perfectly invertible.

Only eigenvector entries above ``1e-8`` times the largest are split by
polarity; the signs of the smaller ones are roundoff, and on sensor graphs,
whose top eigenvector sits on a few hubs, that is most of them.  A greedy
wavefront on the level's Laplacian assigns those vertices, each to the side
opposite its decided neighbours' weighted majority, in rounds that take
every vertex pulled at least a quarter as hard as the most pulled one
(:data:`_WAVEFRONT_FRACTION`), so the split is the same from a dense, a
Lanczos or a perturbed eigenvector (see :func:`_split`).

A Schur complement of a Schur complement is the Schur complement onto the
nested set, so level ``l`` is ``S_l = L / (V \\ K_l)`` of the finest
Laplacian ``L``, with ``K_l`` the level's vertices as indices into the
finest graph.  :func:`_level_operator` applies ``S_l`` with one sparse LU of
the eliminated block, the one place that slices and factors a Schur
complement.  Selection runs on it (small levels and a failed Lanczos run
take its dense form, up to the dense cap), and so does :func:`kron_reduce`.
Analysis and synthesis cost two sparse LUs of at most ``N`` rows of the
finest ``L`` per level, built on first use.  No level graph is built until a
caller indexes :attr:`Multiresolution.graphs`; then the finest ``L`` is
reduced straight onto that level's vertices, once, and a level above the
dense cap (``GRAPHSIG_DENSE_CAP``) raises ``GraphTooLargeForDense``.
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
                     _check_graph, _check_int, _check_real,
                     _check_type, _float_array, graph_from_weights)
from .spectral import (_block_pairs, _check_dense_cap, _dense_eigh,
                       _lanczos_top, _require_symmetric, _splu)

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


def kron_reduce(L, kept) -> sp.csr_array:
    """Schur complement of a Laplacian onto a kept vertex set.

    Returns ``L[kept, kept] - L[kept, rest] @ inv(L[rest, rest]) @
    L[rest, kept]`` as a sparse matrix: :func:`_level_operator` applied to
    the identity.  The result of reducing a connected combinatorial
    Laplacian is again one; tiny positive off-diagonal entries left by
    roundoff (at most :data:`POSITIVE_OFFDIAG_CLAMP`) are zeroed.

    Raises:
        BadParameter: ``L`` is not numeric, or ``kept`` is not integer,
            repeats an index or covers every vertex.
        NonSymmetricLaplacian: ``L`` is not symmetric.
        SingularInteriorBlock: The eliminated block cannot be factorized,
            e.g. when it contains a whole connected component.
    """
    L = sp.csr_array(L if sp.issparse(L) else _float_array(L, "Laplacian"))
    n = L.shape[0]
    kept = _check_kept(n, kept)
    if kept.size == n:
        raise BadParameter("kept set must leave at least one vertex out")
    _require_symmetric(L, "Kron reduction needs a symmetric one")
    R = _block_pairs(_dense_level(_level_operator(L, kept)), mean=True)
    # Zero the roundoff-positive off-diagonal entries.
    off = ~np.eye(R.shape[0], dtype=bool)
    noise = off & (R > 0) & (R <= POSITIVE_OFFDIAG_CLAMP)
    R[noise] = 0.0
    return sp.csr_array(R)


class _LevelGraphs(Sequence):
    """The graphs of a pyramid, finest first: the finest as given, each
    coarser one built on first read.

    Level ``l`` is the finest Laplacian Kron-reduced straight onto
    ``vertices[l]`` (a list the hierarchy may still be growing), cached.  A
    level above :func:`spectral.dense_cap` raises ``GraphTooLargeForDense``.
    """

    def __init__(self, finest: Graph, vertices):
        self._graphs = {0: finest}
        self._vertices = vertices

    def __len__(self):
        return len(self._vertices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        level = range(len(self))[index]
        if level not in self._graphs:
            G, vertices = self._graphs[0], self._vertices[level]
            _check_dense_cap(vertices.size, f"level {level}")
            self._graphs[level] = graph_from_weights(
                _laplacian_to_weights(kron_reduce(G.L, vertices)),
                directed=False,
                coords=None if G.coords is None else G.coords[vertices],
                name=f"{G.name or 'graph'}/level{level}")
        return self._graphs[level]

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
        graphs: ``n_levels + 1`` graphs, finest first.  Construction takes
            only the finest one, as a one-item list; indexing a coarser
            level Kron-reduces the finest graph onto it, once
            (``GraphTooLargeForDense`` above the dense cap).
        keeps: For each reduction step, the sorted indices (into that level)
            of the vertices that survive into the next level.
        alpha: Smoothing strength of the analysis filter ``1 / (1 + alpha x)``.
        epsilon: Regularization ``L + epsilon I`` of the interpolation.
        fallback_levels: Level indices where the eigenvector split was
            degenerate and the deterministic every-other-vertex fallback was
            used instead.
        wavefront_counts: Per level selected by :func:`graph_multiresolution`,
            how many vertices the wavefront assigned because their
            eigenvector entries were roundoff (empty for given keeps).

    Raises:
        KindMismatch: The active Laplacian is not the combinatorial one.
        NotConnected: The graph is disconnected (elimination blocks would
            go singular).
        BadParameter: ``graphs`` holds more than the finest graph or
            anything but a :class:`Graph`,
            ``alpha`` or ``epsilon`` is not finite and in range, or a kept
            set is not integer, repeats an index or covers its level.
        EmptyKeptSet, IndexOutOfRange: A kept set is empty or out of range.
    """

    graphs: Sequence[Graph]
    keeps: List[np.ndarray]
    alpha: float = 1.0
    epsilon: float = 0.005
    fallback_levels: List[int] = field(default_factory=list)
    wavefront_counts: List[int] = field(default_factory=list)

    def __post_init__(self):
        if len(self.graphs) != 1:
            # A given coarse graph would be served unchecked against the
            # reduction of its level.
            raise BadParameter(
                "multiresolution takes only the finest graph, got "
                f"{len(self.graphs)}; coarser levels are Kron-reduced from it")
        G = _check_graph(self.graphs[0])
        if G.directed or G.lap_kind is not LaplacianKind.COMBINATORIAL:
            raise KindMismatch(
                "multiresolution needs an undirected graph with its "
                "combinatorial laplacian active")
        if not G.is_connected():
            raise NotConnected("multiresolution needs a connected graph")
        self.alpha = _check_real("alpha", self.alpha)
        self.epsilon = _check_real("epsilon", self.epsilon, positive=True)
        given, self.keeps = self.keeps, []
        # Per level: the solvers built so far, see _level_solver.
        self._solvers = []
        # Per level: its vertices as sorted indices into the finest graph.
        self._vertices = [np.arange(G.N)]
        self.graphs = _LevelGraphs(G, self._vertices)
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

#: Eigenvector entries of magnitude at most this fraction of the largest are
#: treated as roundoff: their sign decides nothing (see :func:`_split`).
_POLARITY_TOL = 1e-8

#: A wavefront round assigns every undecided vertex whose ``|g|`` is at least
#: this fraction of the round's largest (see :func:`_split`).  Each round is
#: one product with the level operator, a full ``L_RR`` solve above level 0,
#: so the fraction sets the set-up cost.  ``graph_multiresolution(sensor(N,
#: 0), 3)``, one BLAS thread: at N = 4000 a quarter took 135 / 146 / 72
#: rounds at levels 0 / 1 / 2 and 0.11 s, against 327 / 396 / 184 and
#: 0.18 s for one half, and at N = 16000 0.92 against 1.81 s.  The share of
#: level edge weight crossing the split went from 0.622 / 0.653 / 0.629 to
#: 0.607 / 0.620 / 0.598 at N = 4000 (plain polarity: 0.31 / 0.36 / 0.37).
#: 0.35 kept 0.612 / 0.646 / 0.630 but took 0.14 s.
_WAVEFRONT_FRACTION = 0.25


def _level_operator(L: sp.csr_array, vertices: np.ndarray):
    """The Laplacian ``S = L / (V \\ K)`` of the level whose vertices ``K``
    are ``vertices`` (sorted indices into the finest ``L``), not formed:
    ``S v = L_KK v - L_KR (L_RR^{-1} (L_RK v))`` with one sparse LU of
    ``L_RR``.  The finest level is ``L`` itself.

    Raises:
        SingularInteriorBlock: ``L_RR`` cannot be factorized, or a solve
            with it is not finite.
    """
    n = L.shape[0]
    if vertices.size == n:
        return L
    rest = np.setdiff1d(np.arange(n), vertices)
    L_kk = L[np.ix_(vertices, vertices)]
    L_kr = L[np.ix_(vertices, rest)]
    L_rk = L[np.ix_(rest, vertices)]
    singular = f"eliminated block of size {rest.size} is singular"
    lu = _splu(L[np.ix_(rest, rest)], SingularInteriorBlock, singular)

    def apply(v):
        x = lu.solve(L_rk @ v)
        if not np.all(np.isfinite(x)):
            raise SingularInteriorBlock(f"{singular} (non-finite solve)")
        return L_kk @ v - L_kr @ x

    return spl.LinearOperator((vertices.size,) * 2, matvec=apply,
                              matmat=apply, dtype=float)


#: Identity columns per product in :func:`_dense_level`: at sensor(4000, 0),
#: one BLAS thread, 64 built levels 1 / 2 / 3 in 0.14 / 0.12 / 0.08 s against
#: 0.25 / 0.20 / 0.16 s for 256, and each solve holds |R| x 64 doubles.
_DENSE_BLOCK = 64


def _dense_level(S) -> np.ndarray:
    """The level operator ``S`` as a dense array, by applying it to the
    identity in blocks of :data:`_DENSE_BLOCK` columns.  Callers check the
    dense cap where they need one; :func:`kron_reduce` has none."""
    n = S.shape[0]
    out = np.empty((n, n))
    for j in range(0, n, _DENSE_BLOCK):
        block = np.eye(n, min(_DENSE_BLOCK, n - j), -j)
        out[:, j:j + block.shape[1]] = S @ block
    return out


def _top_eigenvector(S) -> np.ndarray:
    """Largest-eigenvalue eigenvector of the symmetric level operator ``S``
    (sparse, implicit or dense) with a deterministic sign."""
    n = S.shape[0]
    if n > _DENSE_EIGVEC_CUTOFF:
        u = _lanczos_top(S, 0, min(n, 32), vector=True)
        if u is not None:
            return u
    _check_dense_cap(n, "level")
    return _dense_eigh(_dense_level(S))[1][:, -1]


def _split(S, u: np.ndarray) -> tuple[np.ndarray, int]:
    """Two-sided split of a level by the top eigenvector ``u`` of its
    Laplacian ``S``, roundoff-free.

    Only the entries with ``|u_i| > _POLARITY_TOL * max |u|`` are decided
    by polarity; the signs of the others are roundoff.  A greedy wavefront
    on ``S`` assigns those: with ``g = S s`` for the partial +-1 assignment
    ``s``, every undecided vertex with ``|g_i|`` at least
    :data:`_WAVEFRONT_FRACTION` (a quarter) of the largest undecided ``|g|``
    takes the side ``sign(g_i)``, which is opposite its decided neighbours'
    weighted majority, until none is undecided.  Each round is one product
    with ``S``.  (Should every undecided ``g_i`` vanish, the first undecided
    vertex takes side +1.)  Returns the larger side, the one holding vertex
    0 on a tie, and the number of vertices the wavefront assigned.
    """
    side = np.where(np.abs(u) > _POLARITY_TOL * np.abs(u).max(),
                    np.sign(u), 0.0)
    undecided = np.flatnonzero(side == 0)
    assigned = undecided.size
    while undecided.size:
        g = np.ravel(S @ side)[undecided]
        reach = np.abs(g)
        top = reach.max()
        if top == 0:
            side[undecided[0]] = 1.0
            undecided = undecided[1:]
            continue
        now = reach >= _WAVEFRONT_FRACTION * top
        side[undecided[now]] = np.sign(g[now])
        undecided = undecided[~now]
    plus = np.count_nonzero(side > 0)
    larger = 1.0 if 2 * plus > side.size else -1.0
    if 2 * plus == side.size:
        larger = side[0]
    return np.flatnonzero(side == larger), assigned


def _select_kept(S) -> tuple[np.ndarray, bool, int]:
    """The kept vertices of a level with Laplacian ``S``, by :func:`_split`
    on its top eigenvector.

    Returns the kept index set, a flag marking the deterministic
    every-other-vertex fallback (taken when the split would keep everything
    or nothing), and the number of vertices the wavefront assigned.
    """
    n = S.shape[0]
    kept, assigned = _split(S, _top_eigenvector(S))
    if kept.size in (0, n):
        return np.arange(0, n, 2), True, assigned
    return kept, False, assigned


def graph_multiresolution(G: Graph, n_levels: int, alpha: float = 1.0,
                          epsilon: float = 0.005) -> Multiresolution:
    """Build a Kron-reduction pyramid of ``n_levels + 1`` graphs.

    Each level's vertices are selected on its Laplacian applied implicitly
    through the finest one (see :func:`_level_operator`), so this builds no
    level graph: each is Kron-reduced when first accessed.

    Args:
        G: Connected undirected graph carrying its combinatorial Laplacian.
        n_levels: Number of reduction steps (0 gives just the input graph).
        alpha: Analysis smoothing strength, must be >= 0.
        epsilon: Interpolation regularization, must be > 0.

    Raises:
        BadParameter: ``n_levels`` is not a nonnegative integer, or a level
            would shrink below two vertices.
        GraphTooLargeForDense: A level whose eigenvector needs a dense
            solve (at most ``_DENSE_EIGVEC_CUTOFF`` vertices, or Lanczos
            failed) has more vertices than the dense cap.
        GraphSigError: What :class:`Multiresolution` refuses.
    """
    n_levels = _check_int("n_levels", n_levels, minimum=0)
    mr = Multiresolution([G], [], alpha, epsilon)
    for level in range(n_levels):
        vertices = mr._vertices[level]
        if vertices.size < 2:
            raise BadParameter(
                f"cannot reduce below 2 vertices (level {level} has "
                f"{vertices.size})")
        kept, used_fallback, assigned = _select_kept(
            _level_operator(G.L, vertices))
        if used_fallback:
            mr.fallback_levels.append(level)
        mr.wavefront_counts.append(assigned)
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
    sorted_kept = _check_kept(_check_graph(G).N, kept)
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
        BadParameter: ``mr`` is not a :class:`Multiresolution`.
        ShapeMismatch: ``f`` is not 1-D with one entry per vertex.
        NonFiniteValue: ``f`` holds NaN or infinite entries.
    """
    current = _as_1d_signal(
        _check_type("mr", mr, Multiresolution).graphs[0].N, f)
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
        BadParameter: ``mr`` is not a :class:`Multiresolution` or ``pyr``
            not a :class:`Pyramid`.
        LevelMismatch: The pyramid does not match the hierarchy (wrong level
            count or signal lengths).
        ShapeMismatch: The coarse signal or an error is not 1-D.
        NonFiniteValue: The coarse signal or an error holds NaN or infinite
            entries.
    """
    sizes = _check_type("mr", mr, Multiresolution).level_sizes()
    _check_type("pyr", pyr, Pyramid)
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
