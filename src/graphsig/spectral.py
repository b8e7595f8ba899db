"""Eigendecomposition, graph Fourier transform and vertex-domain localization.

This module owns every eigensolve and factorization in the package: one
Lanczos helper, one dense symmetric eigensolver and one sparse LU.

The full eigendecomposition is dense work and is gated by a vertex cap
(:data:`DEFAULT_DENSE_CAP`, overridable through the ``GRAPHSIG_DENSE_CAP``
environment variable).  Pipelines that only need a spectral-radius bound can
use :func:`estimate_lmax`, which is a cheap Lanczos pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .exceptions import (
    GraphTooLargeForDense,
    IndexOutOfRange,
    MissingFourierBasis,
    MissingLmax,
    NonSymmetricLaplacian,
)
from .graphs import Graph, _as_signal, _check_graph, _check_int

#: Largest vertex count for which a dense eigendecomposition is attempted.
DEFAULT_DENSE_CAP = 3000

#: Environment variable overriding :data:`DEFAULT_DENSE_CAP`.
DENSE_CAP_ENV = "GRAPHSIG_DENSE_CAP"

#: Safety factor applied to the Lanczos spectral-radius estimate.
LMAX_SAFETY = 1.01

_SIGN_EPS = 1e-8

#: Block edge of :func:`_block_pairs`: at N=2000 on a 2-core x86-64 host,
#: the in-place transpose took 13 ms against 15 ms for 64 or 256 and 28 ms
#: for a transposed copy.
_PAIR_BLOCK = 128


def dense_cap() -> int:
    """Current dense-solve vertex cap (environment override wins)."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise GraphTooLargeForDense(
            f"{DENSE_CAP_ENV}={raw!r} is not an integer") from exc


def _check_dense_cap(n: int, what: str) -> None:
    """Refuse dense work on ``what`` above :func:`dense_cap` vertices."""
    cap = dense_cap()
    if n > cap:
        raise GraphTooLargeForDense(
            f"{what} has {n} vertices, dense cap is {cap} "
            f"(override with {DENSE_CAP_ENV})")


@dataclass
class SpectralData:
    """Eigendecomposition of a graph's active Laplacian.

    Attributes:
        U: Orthonormal eigenvectors, one per column, in eigenvalue order and
            with a deterministic sign (first entry of magnitude above 1e-8 in
            each column is positive).
        e: Eigenvalues in nondecreasing order.
        lmax: Largest eigenvalue.
        exact_lmax: True here (the bound came from a full decomposition); the
            Lanczos path stores its estimate on the graph instead.
        mu: Coherence, the largest absolute entry of ``U``.
    """

    U: np.ndarray
    e: np.ndarray
    lmax: float
    exact_lmax: bool
    mu: float


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so their leading significant entry is >= 0."""
    for j in range(U.shape[1]):
        col = U[:, j]
        nz = np.flatnonzero(np.abs(col) > _SIGN_EPS)
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
    return U


def _block_pairs(A: np.ndarray, mean: bool) -> np.ndarray:
    """Replace the square array ``A`` in place by ``A.T`` or, with ``mean``,
    by ``(A + A.T) * 0.5``, one pair of blocks ``A[I, J]``, ``A[J, I]`` at
    a time, so the work space is two blocks of :data:`_PAIR_BLOCK` squared.
    The arithmetic is that of the whole-array expressions, bit for bit."""
    n, b = A.shape[0], _PAIR_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper, lower = A[i:i + b, j:j + b], A[j:j + b, i:i + b]
            if mean:
                upper[...] = (upper + lower.T) * 0.5
                lower[...] = upper.T
            else:
                old = upper.copy()
                upper[...] = lower.T
                lower[...] = old.T
    return A


def _require_symmetric(L, consequence: str, kind=None) -> None:
    """Raise unless the Laplacian ``L`` (of kind ``kind``, the graph's
    active one when given) is symmetric to roundoff."""
    scale = max(1.0, float(abs(L).max()))
    if float(abs(L - L.T).max()) > 1e-10 * scale:
        what = f"active laplacian ({kind.value})" if kind else "laplacian"
        raise NonSymmetricLaplacian(f"{what} is not symmetric; {consequence}")


def _dense_eigh(Ld: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e, U)`` of the square array ``Ld``, symmetrized, built in its buffer
    as :func:`compute_fourier_basis` describes, signs by :func:`_fix_signs`."""
    Ld = _block_pairs(Ld, mean=True)
    # On the Fortran-ordered view LAPACK works in place: the eigenvectors
    # land in Ld's buffer as the columns of V.  Transposing the C-ordered
    # V.T in place then leaves V's values in C order.
    e, V = sla.eigh(Ld.T, overwrite_a=True, driver="evd")
    return e, _block_pairs(_fix_signs(V).T, mean=False)


def _lanczos_top(A, tol: float, ncv: int, vector: bool):
    """Largest eigenvalue of the symmetric operator ``A`` or, with
    ``vector``, its eigenvector (1-D, sign as :func:`_fix_signs`), by ARPACK
    with ``ncv`` Lanczos vectors; ``None`` when ARPACK fails.  ARPACK's
    eigenvalue bits depend on ``vector``: ask for it only when it is used.
    """
    # A ramp rather than a constant: the constant vector is the null
    # eigenvector of every combinatorial Laplacian, which would start the
    # iteration with zero overlap on the wanted top eigenspace.  A fixed
    # vector keeps results reproducible and leaves the global RNG untouched.
    v0 = np.arange(1.0, A.shape[0] + 1.0)
    try:
        out = spl.eigsh(A, k=1, which="LA", return_eigenvectors=vector,
                        tol=tol, ncv=ncv, v0=v0 / np.linalg.norm(v0))
    except (spl.ArpackError, spl.ArpackNoConvergence):
        return None
    return _fix_signs(out[1])[:, 0] if vector else float(out[0])


def _splu(A, error, what: str):
    """Sparse LU of ``A``; SuperLU's ``RuntimeError`` becomes ``error``.

    Every caller must pass a matrix with a symmetric pattern that is
    diagonally dominant by rows (each pyramid system) or symmetric positive
    definite (``interpolate`` on a normalized Laplacian).  Elimination
    without pivoting is stable on both (growth factor at most 2 and 1;
    Higham, *Accuracy and Stability of Numerical Algorithms*, §9, §10).  So
    the factorization orders by minimum degree on ``A + A^T`` and always
    takes the diagonal pivot, which keeps ``perm_r == perm_c`` and about
    halves the fill of SuperLU's default column ordering with partial
    pivoting.
    """
    try:
        return spl.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise error(f"{what}: {exc}") from exc


def compute_fourier_basis(G: Graph) -> SpectralData:
    """Full symmetric eigendecomposition of the graph's active Laplacian.

    The result is cached on the graph; repeated calls return the same object.
    Swapping the Laplacian with :func:`graphsig.graphs.laplacian` clears the
    cache.

    The basis is built in the one ``N x N`` array the densified Laplacian
    takes: it is symmetrized in place, LAPACK's divide-and-conquer driver
    (``dsyevd``) writes the eigenvectors over it, and an in-place transpose
    leaves ``U`` C-ordered.  With the driver's workspace the peak is about
    3 N^2 doubles, some 216 MB at the default cap of 3000 vertices.

    Raises:
        GraphTooLargeForDense: More vertices than the dense cap allows.
        NonSymmetricLaplacian: The active Laplacian is not symmetric (for
            example the degree-normalized directed form).
    """
    if _check_graph(G)._spectral is not None:
        return G._spectral
    _check_dense_cap(G.N, "graph")
    _require_symmetric(G.L, "no orthonormal Fourier basis exists", G.lap_kind)
    e, U = _dense_eigh(G.L.toarray())
    data = SpectralData(U=U, e=e, lmax=float(e[-1]), exact_lmax=True,
                        mu=max(float(U.max()), -float(U.min())))
    G._spectral = data
    return data


def _lmax_bound(A) -> float:
    """The bound :func:`estimate_lmax` describes, for any symmetric PSD matrix."""
    n, A = A.shape[0], A.astype(float)
    if n <= 2:
        est = LMAX_SAFETY * float(_dense_eigh(A.toarray())[0][-1])
    else:
        top = _lanczos_top(A, 1e-6, min(n, 20), vector=False)
        est = (float(np.max(abs(A).sum(axis=1))) if top is None
               else LMAX_SAFETY * top)
    return max(est, 0.0)


def estimate_lmax(G: Graph) -> float:
    """Upper bound on the largest Laplacian eigenvalue, cached on the graph.

    Runs a coarse Lanczos iteration (a dense solve up to two vertices) and
    inflates the result by 1 percent so the bound errs on the large side,
    which is what polynomial filtering needs.  If Lanczos fails to converge,
    the Gershgorin row bound is used instead.  When the exact decomposition
    is already available its top eigenvalue wins.

    Raises:
        NonSymmetricLaplacian: The active Laplacian is not symmetric, so
            symmetric Lanczos gives no bound.
    """
    if _check_graph(G)._spectral is None and G._lmax_estimate is None:
        _require_symmetric(G.L, "symmetric Lanczos gives no spectral-radius "
                           "bound", G.lap_kind)
        G._lmax_estimate = _lmax_bound(G.L)
    return get_lmax(G)


def get_lmax(G: Graph, required_by: str = "this operation") -> float:
    """Best available spectral-radius bound, exact over estimated.

    Raises:
        MissingLmax: Neither the Fourier basis nor an estimate exists.
    """
    if _check_graph(G)._spectral is not None:
        return G._spectral.lmax
    if G._lmax_estimate is not None:
        return G._lmax_estimate
    raise MissingLmax(
        f"{required_by} needs a spectral-radius bound; call "
        "estimate_lmax() or compute_fourier_basis() first")


def get_spectral(G: Graph, required_by: str = "this operation") -> SpectralData:
    """Cached eigendecomposition, raising if it has not been computed."""
    if _check_graph(G)._spectral is None:
        raise MissingFourierBasis(
            f"{required_by} needs the Fourier basis; call "
            "compute_fourier_basis() first")
    return G._spectral


def gft(G: Graph, f) -> np.ndarray:
    """Graph Fourier transform: project a signal onto the eigenbasis.

    Accepts a single signal or a matrix of column signals; shape is
    preserved.
    """
    S = get_spectral(G, "gft")
    return S.U.T @ _as_signal(G, f)


def igft(G: Graph, f_hat) -> np.ndarray:
    """Inverse graph Fourier transform."""
    S = get_spectral(G, "igft")
    return S.U @ _as_signal(G, f_hat, "spectrum")


def localize(G: Graph, kernel, i: int, order: int = 30) -> np.ndarray:
    """Translate a spectral kernel to vertex ``i``.

    Returns ``sqrt(N)`` times the kernel filtered impulse at ``i``.  Uses the
    exact eigenbasis when it is cached, otherwise falls back to Chebyshev
    filtering of the impulse (needs a spectral-radius bound).

    Raises:
        BadParameter: ``i`` is not an integer.
        IndexOutOfRange: ``i`` is not a vertex.
        MissingFourierBasis: Neither basis nor spectral-radius bound exists.
    """
    i = _check_int("vertex index", i)
    if not 0 <= i < _check_graph(G).N:
        raise IndexOutOfRange(f"vertex {i} outside [0, {G.N})")
    root_n = np.sqrt(G.N)
    if G._spectral is not None:
        S = G._spectral
        return root_n * (S.U @ (np.asarray(kernel(S.e)) * S.U[i, :]))
    if G._lmax_estimate is None:
        raise MissingFourierBasis(
            "localize needs the Fourier basis or a spectral-radius bound; "
            "call compute_fourier_basis() or estimate_lmax() first")
    from .filters import chebyshev_apply, chebyshev_coeffs
    coeffs = chebyshev_coeffs(kernel, order, G._lmax_estimate)
    impulse = np.zeros(G.N)
    impulse[i] = 1.0
    return root_n * chebyshev_apply(G, coeffs, impulse)
