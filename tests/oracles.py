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


def dense_bank(U, responses):
    """The filters ``U diag(g_j) U^T`` of a bank, one per kernel, from the
    kernel responses ``g_j`` on the eigenvalues (rows of ``responses``)."""
    U = np.asarray(U, dtype=float)
    return [(U * g) @ U.T for g in np.asarray(responses, dtype=float)]


def dense_green_interpolate(L, kept, vals, eps):
    """Regularized Green's-function fit: the combination of the columns of
    ``inv(L + eps I)[:, kept]`` that matches ``vals`` on ``kept``."""
    L = np.asarray(L, dtype=float)
    kept = np.asarray(kept, dtype=int)
    basis = np.linalg.solve(L + eps * np.eye(L.shape[0]),
                            np.eye(L.shape[0])[:, kept])
    return basis @ np.linalg.solve(basis[kept], vals)


def reference_bpdn(analysis, synthesis, y, lam, step, mask=None,
                   max_iter=500, tol=1e-6):
    """Accelerated proximal gradient for BPDN that synthesizes every iterate
    afresh: ``synthesis(z)`` for the gradient and ``synthesis(c_new)`` for
    the objective, three bank applications per iteration and three more
    per restart.

    ``analysis`` maps ``(N, k)`` signals to kernel-major coefficients and
    ``synthesis`` maps those back to ``(N, k)``.  Returns ``(c, history,
    objective, iterations)`` with ``history`` the accepted objectives.
    """
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    m = None if mask is None else np.asarray(mask, dtype=float)[:, None]

    def masked(v):
        return v if m is None else m * v

    def soft(v, thresh):
        return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)

    def objective(c):
        r = masked(synthesis(c) - y)
        return 0.5 * float(np.sum(r ** 2)) + lam * float(np.sum(np.abs(c)))

    def prox_step(c):
        return soft(c - step * analysis(masked(synthesis(c) - y)),
                    step * lam)

    c = np.zeros_like(analysis(y))
    z, t = c, 1.0
    f_prev = objective(c)
    history = [f_prev]
    it = 0
    for it in range(1, max_iter + 1):
        c_new = prox_step(z)
        f_new = objective(c_new)
        if f_new > f_prev:
            c_new = prox_step(c)
            f_new = objective(c_new)
            t = 1.0
            if f_new > f_prev:
                break
        change = abs(f_prev - f_new) / (1.0 + abs(f_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = c_new + ((t - 1.0) / t_next) * (c_new - c)
        c, t, f_prev = c_new, t_next, f_new
        history.append(f_new)
        if change <= tol:
            break
    return c, history, f_prev, it


def loop_knn_weights(features, k, sigma=None):
    """Symmetrized Gaussian kNN weights built one vertex at a time:
    ``(W, sigma)`` as :func:`graphsig.nn_graph` builds them.

    Each row takes the ``k + 1`` nearest matches, drops the point itself and
    keeps the first ``k`` left, so a row whose query missed the point (it
    has repeats) drops its farthest match instead.  ``W`` is ``None`` when
    the inferred ``sigma`` is zero.
    """
    import scipy.sparse as sp
    from scipy.spatial import cKDTree

    pts = np.asarray(features, dtype=float)
    m = pts.shape[0]
    dist, idx = cKDTree(pts).query(pts, k=k + 1)
    rows, cols, dists = [], [], []
    for i in range(m):
        keep = idx[i] != i
        nbrs, dd = idx[i][keep][:k], dist[i][keep][:k]
        rows.append(np.full(nbrs.size, i))
        cols.append(nbrs)
        dists.append(dd)
    rows, cols, dists = map(np.concatenate, (rows, cols, dists))
    if sigma is None:
        sigma = float(dists.reshape(m, k)[:, -1].mean())
        if sigma <= 0:
            return None, sigma
    vals = np.exp(-(dists / sigma) ** 2)
    W = sp.coo_array((vals, (rows, cols)), shape=(m, m)).tocsr()
    return W.maximum(W.T), float(sigma)
