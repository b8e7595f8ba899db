"""Independent dense reference implementations used as test oracles.

Everything here is deliberately written against plain numpy arrays, separate
from the package's sparse code paths, so the two can disagree.
"""

import numpy as np


def dense_stationary(W):
    """Stationary distribution via a dense left-eigenvector solve."""
    W = np.asarray(W, dtype=float)
    P = W / W.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(P.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


def dense_laplacian(W, kind, pi=None):
    """Entrywise-dense evaluation of each Laplacian formula."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    d_out = W.sum(axis=1)
    d_in = W.sum(axis=0)
    if kind == "combinatorial":
        return np.diag(d_out) - W
    if kind == "normalized":
        inv = np.zeros(n)
        inv[d_out > 0] = 1.0 / np.sqrt(d_out[d_out > 0])
        Dis = np.diag(inv)
        return Dis @ (np.diag(d_out) - W) @ Dis
    if kind == "combinatorial-directed":
        return 0.5 * (np.diag(d_out) + np.diag(d_in) - W - W.T)
    if kind == "degree-normalized":
        S = W + W.T
        return np.eye(n) - 0.5 * (np.diag(1.0 / np.sqrt(d_out)) @ S
                                  @ np.diag(1.0 / np.sqrt(d_in)))
    if kind == "distribution-normalized":
        if pi is None:
            pi = dense_stationary(W)
        P = W / d_out[:, None]
        A = np.diag(np.sqrt(pi)) @ P @ np.diag(1.0 / np.sqrt(pi))
        return np.eye(n) - 0.5 * (A + A.T)
    raise ValueError(kind)


def brute_force_knn(points, k):
    """O(M^2) k-nearest-neighbour lists (indices exclude the point itself)."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


def dense_schur(L, kept):
    """Dense Schur complement of a Laplacian onto the kept set."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    kept = np.asarray(kept, dtype=int)
    rest = np.setdiff1d(np.arange(n), kept)
    A = L[np.ix_(kept, kept)]
    B = L[np.ix_(kept, rest)]
    C = L[np.ix_(rest, rest)]
    return A - B @ np.linalg.solve(C, B.T)


def random_directed_strongly_connected(n, p, seed):
    """Random directed weights plus a directed ring so the walk mixes."""
    rng = np.random.default_rng(seed)
    W = (rng.random((n, n)) < p) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(W, 0.0)
    ring = np.arange(n)
    W[ring, (ring + 1) % n] = np.maximum(W[ring, (ring + 1) % n],
                                         rng.uniform(0.5, 2.0, n))
    return W


def dense_polynomial(L, a):
    """``sum_i a[i] * L**i`` from explicit dense matrix powers."""
    L = np.asarray(L, dtype=float)
    out = np.zeros_like(L)
    power = np.eye(L.shape[0])
    for coef in a:
        out += coef * power
        power = power @ L
    return out


def dense_green_interpolate(L, kept, vals, eps):
    """Regularized Green's-function fit: the combination of the columns of
    ``inv(L + eps I)[:, kept]`` that matches ``vals`` on ``kept``."""
    L = np.asarray(L, dtype=float)
    kept = np.asarray(kept, dtype=int)
    basis = np.linalg.solve(L + eps * np.eye(L.shape[0]),
                            np.eye(L.shape[0])[:, kept])
    return basis @ np.linalg.solve(basis[kept], vals)
