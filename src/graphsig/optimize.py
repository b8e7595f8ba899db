"""Graph-regularized denoising: TV prox, Tikhonov, wavelet shrinkage, BPDN.

Every solver returns ``(solution, SolverReport)``.  Hitting the iteration cap
is not an exception — the best iterate comes back with ``converged=False`` so
batch pipelines can keep going and inspect the report.  A ``tol`` must be
finite and ``>= 0`` and a ``max_iter`` an integer ``>= 0`` (for
:func:`tik_denoise`, ``> 0`` and ``>= 1``), or ``BadParameter`` is raised.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .exceptions import BadParameter, NotTightFrame, ShapeMismatch, SolverFailure
# filter_analysis and filter_synthesis stay importable from this module.
from .filters import (FilterBank, _bank_operator, _squeezed,  # noqa: F401
                      filter_analysis, filter_synthesis, frame_bounds)
from .graphs import Graph, _as_1d_signal, _as_signal, _check_int, _check_real
from .operators import incidence
from .spectral import _lmax_bound, get_lmax

#: Relative agreement of the frame bounds below which a frame counts as tight.
TIGHTNESS_TOL = 1e-6


@dataclass
class SolverReport:
    """What a solver did and how it ended.

    Attributes:
        iterations: Iterations actually run.
        objective: Final objective value.
        residual: Solver-specific convergence measure (duality gap for the
            TV prox, relative linear residual for Tikhonov, relative
            objective change for BPDN).
        converged: Whether the tolerance was met within the iteration cap.
        objective_history: Best objective value reached by each iteration,
            non-increasing by construction.  For multi-column inputs only the
            final total is recorded.
    """

    iterations: int
    objective: float
    residual: float
    converged: bool
    objective_history: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["objective_history"] = [float(v) for v in d["objective_history"]]
        return d


def snr(reference, estimate) -> float:
    """Signal-to-noise ratio of ``estimate`` against ``reference``, in dB.

    Raises:
        ShapeMismatch: The two arrays differ in shape.
    """
    ref = np.asarray(reference, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if est.shape != ref.shape:
        raise ShapeMismatch(f"estimate has shape {est.shape}, reference "
                            f"{ref.shape}")
    err = ref - est
    p_ref = float(np.sum(ref ** 2))
    p_err = float(np.sum(err ** 2))
    if p_err == 0:
        return np.inf
    return 10.0 * np.log10(p_ref / p_err)


def prox_tv(G: Graph, y, gamma: float, max_iter: int = 1000,
            tol: float = 1e-6):
    """Proximal operator of graph total variation.

    Solves ``argmin_x 0.5 ||x - y||^2 + gamma * ||grad x||_1`` through its
    dual, an accelerated projected-gradient iteration on the edge variable
    with ``||p||_inf <= gamma``.  The primal iterate is recovered as
    ``y - div-adjoint of p``; iteration stops when the duality gap falls
    below ``tol * (1 + |objective|)``.

    Args:
        G: The graph (its incidence operator defines the TV seminorm).
        y: Signal ``(N,)`` or signals ``(N, k)``.
        gamma: Nonnegative regularization strength; zero returns ``y``.
        max_iter: Iteration cap.
        tol: Relative duality-gap tolerance.

    Returns:
        ``(x, SolverReport)``; the report's ``residual`` is the final
        relative duality gap.
    """
    gamma = _check_real("gamma", gamma)
    max_iter = _check_int("max_iter", max_iter, minimum=0)
    tol = _check_real("tol", tol)
    arr, was_1d = _as_signal(G, y).reshape(G.N, -1), np.ndim(y) == 1
    op = incidence(G)
    D = op.D
    ne = D.shape[0]
    if gamma == 0 or ne == 0:
        x = arr.copy()
        obj = 0.0
        report = SolverReport(iterations=0, objective=obj, residual=0.0,
                              converged=True, objective_history=[obj])
        return (x[:, 0] if was_1d else x), report

    step = 1.0 / _lmax_bound(sp.csr_array(D.T @ D))
    Dy = D @ arr

    def primal(x):
        return 0.5 * float(np.sum((x - arr) ** 2)) \
            + gamma * float(np.sum(np.abs(D @ x)))

    def dual(p, dtp):
        return float(np.sum(p * Dy)) - 0.5 * float(np.sum(dtp ** 2))

    p = np.zeros((ne, arr.shape[1]))
    z = p
    t = 1.0
    history: List[float] = []
    best_x, best_gap, best_obj = arr.copy(), np.inf, primal(arr)
    converged = False
    it = 0
    prev_obj = np.inf
    for it in range(1, max_iter + 1):
        grad_dual = D @ (arr - D.T @ z)
        p_new = np.clip(z + step * grad_dual, -gamma, gamma)
        dtp = D.T @ p_new
        x = arr - dtp
        obj = primal(x)
        gap = obj - dual(p_new, dtp)
        rel_gap = gap / (1.0 + abs(obj))
        if rel_gap < best_gap:
            best_gap, best_x, best_obj = rel_gap, x, obj
        history.append(min(obj, history[-1]) if history else obj)
        if rel_gap <= tol:
            converged = True
            p = p_new
            break
        if obj > prev_obj:
            # Momentum overshot; restart acceleration.
            t = 1.0
            z = p_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = p_new + ((t - 1.0) / t_next) * (p_new - p)
            t = t_next
        p = p_new
        prev_obj = obj
    report = SolverReport(iterations=it, objective=best_obj,
                          residual=best_gap, converged=converged,
                          objective_history=history if arr.shape[1] == 1
                          else history[-1:])
    return (best_x[:, 0] if was_1d else best_x), report


def tik_denoise(G: Graph, y, gamma: float, tol: float = 1e-10,
                max_iter: Optional[int] = None):
    """Tikhonov denoising: ``argmin_x ||x - y||^2 + 2 gamma x' L x``.

    The optimality condition is the sparse SPD system
    ``(I + 2 gamma L) x = y``, solved by conjugate gradients to relative
    residual ``tol``.

    Returns:
        ``(x, SolverReport)``; the report's ``residual`` is the worst
        relative linear residual over the columns.

    Raises:
        BadParameter: ``gamma`` is negative or not finite, ``tol`` is not
            positive and finite, or ``max_iter`` is given and is not an
            integer ``>= 1``.
        SolverFailure: Conjugate gradients broke down.
    """
    gamma = _check_real("gamma", gamma)
    # Not 0: scipy's cg then iterates past an exact solution into 0 / 0.
    tol = _check_real("tol", tol, positive=True)
    if max_iter is not None:
        # Not 0: scipy's cg reports success after zero iterations.
        max_iter = _check_int("max_iter", max_iter, minimum=1)
    arr, was_1d = _as_signal(G, y).reshape(G.N, -1), np.ndim(y) == 1
    if gamma == 0:
        x = arr.copy()
        report = SolverReport(iterations=0, objective=0.0, residual=0.0,
                              converged=True, objective_history=[0.0])
        return (x[:, 0] if was_1d else x), report

    A = sp.csr_array(sp.eye_array(G.N) + (2.0 * gamma) * G.L)
    L = G.L

    def objective(x, b):
        return float(np.sum((x - b) ** 2)) + 2.0 * gamma * float(x @ (L @ x))

    out = np.empty_like(arr)
    history: List[float] = []
    total_iters = 0
    worst_res = 0.0
    all_ok = True
    for j in range(arr.shape[1]):
        b = arr[:, j]
        track = arr.shape[1] == 1
        col_hist: List[float] = []
        count = [0]

        def callback(xk):
            count[0] += 1
            if track:
                col_hist.append(objective(xk, b))

        xj, info = spl.cg(A, b, rtol=tol, atol=0.0, maxiter=max_iter,
                          callback=callback)
        if info < 0 or not np.all(np.isfinite(xj)):
            raise SolverFailure(f"conjugate gradient broke down (info={info})")
        out[:, j] = xj
        total_iters += count[0]
        bnorm = float(np.linalg.norm(b)) or 1.0
        res = float(np.linalg.norm(A @ xj - b)) / bnorm
        worst_res = max(worst_res, res)
        all_ok = all_ok and info == 0
        if track:
            # CG minimizes the energy-norm error, so the objective decreases;
            # clip the last bits of roundoff to keep the record monotone.
            running = np.minimum.accumulate(col_hist) if col_hist else []
            history = [float(v) for v in running]
    final_obj = sum(objective(out[:, j], arr[:, j])
                    for j in range(arr.shape[1]))
    if not history:
        history = [final_obj]
    report = SolverReport(iterations=total_iters, objective=final_obj,
                          residual=worst_res, converged=all_ok,
                          objective_history=history)
    return (out[:, 0] if was_1d else out), report


def _soft(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def _bank_bounds(G: Graph, bank: FilterBank):
    eigs = G._spectral.e if G._spectral is not None else None
    lmax = max(bank.lmax, get_lmax(G, "frame-based denoising"))
    return frame_bounds(bank, lmax=lmax, eigenvalues=eigs)


def wavelet_denoise(G: Graph, bank: FilterBank, y, tau: float,
                    method: str = "exact", order: int = 30):
    """Denoise by soft-thresholding tight-frame coefficients.

    Analysis, entrywise soft threshold at ``tau``, synthesis, divided by the
    frame bound.  Only valid for (numerically) tight frames; anything else
    raises, pointing at :func:`solve_bpdn` which copes with loose frames.

    Returns:
        ``(x, SolverReport)``; single-shot, so ``iterations == 1``.
    """
    tau = _check_real("tau", tau)
    a, b = _bank_bounds(G, bank)
    if abs(b - a) > TIGHTNESS_TOL * max(1.0, abs(b)):
        raise NotTightFrame(
            f"frame bounds A={a:.6g}, B={b:.6g} differ; wavelet_denoise "
            "needs a tight frame — use solve_bpdn instead")
    y = _as_signal(G, y)
    apply = _bank_operator(G, bank, method, order)
    coef = apply(y.reshape(G.N, -1))
    shrunk = _soft(coef, tau)
    x = apply(shrunk, adjoint=True) / a
    delta = shrunk - coef
    obj = float(tau * np.sum(np.abs(shrunk)) + 0.5 * np.sum(delta ** 2))
    report = SolverReport(iterations=1, objective=obj, residual=0.0,
                          converged=True, objective_history=[obj])
    return (x[:, 0] if y.ndim == 1 else x), report


def solve_bpdn(G: Graph, bank: FilterBank, y, lam: float = 0.1,
               mask=None, max_iter: int = 500, tol: float = 1e-6,
               method: str = "exact", order: int = 30):
    """Sparse-coefficient recovery in a (possibly loose) frame.

    Minimizes ``0.5 || mask * (synthesis(c) - y) ||^2 + lam * ||c||_1`` over
    bank coefficients ``c`` by an accelerated proximal-gradient iteration
    with restart; an overshooting momentum step falls back to a plain
    gradient step, so the recorded objective never increases.  With a mask,
    unobserved vertices are simply left out of the data term — inpainting.
    The bank is prepared once per solve, and each iteration costs two bank
    applications (one analysis, one synthesis); a restart costs two more.

    Args:
        G: The graph.
        bank: Synthesis dictionary.
        y: Signal ``(N,)`` or signals ``(N, k)``.
        lam: Nonnegative sparsity weight.
        mask: Optional vertex mask, nonzero where the entry is observed;
            NaN or infinite entries raise ``NonFiniteValue``.
        max_iter: Iteration cap.
        tol: Relative objective-change tolerance.
        method: ``"exact"`` or ``"chebyshev"`` filtering path.
        order: Chebyshev order for the approximate path.

    Returns:
        ``(c, SolverReport)`` where ``c`` is ``(N, len(bank) * k)``
        kernel-major; reconstruct with :func:`graphsig.filters.filter_synthesis`.
    """
    c, _, report = _solve_bpdn(G, bank, y, lam, mask, max_iter, tol, method,
                               order)
    return c, report


def _solve_bpdn(G: Graph, bank: FilterBank, y, lam: float, mask,
                max_iter: int, tol: float, method: str, order: int):
    """:func:`solve_bpdn`, returning ``(c, synthesis(c), report)``; the
    synthesis is the one the solver already holds, shaped as
    :func:`graphsig.filters.filter_synthesis` returns it."""
    lam = _check_real("lam", lam)
    max_iter = _check_int("max_iter", max_iter, minimum=0)
    tol = _check_real("tol", tol)
    arr = _as_signal(G, y).reshape(G.N, -1)
    m = None
    if mask is not None:
        m = (_as_1d_signal(G.N, mask, "mask") != 0)[:, None].astype(float)

    _, b_upper = _bank_bounds(G, bank)
    if b_upper <= 0:
        raise BadParameter("filter bank is identically zero")
    step = 0.95 / b_upper

    apply = _bank_operator(G, bank, method, order)

    def masked(v):
        return v if m is None else m * v

    def objective(c, r):
        return 0.5 * float(np.sum(masked(r) ** 2)) \
            + lam * float(np.sum(np.abs(c)))

    def prox_step(c, s):
        # One proximal-gradient step from c, whose synthesis is s.
        return _soft(c - step * apply(masked(s - arr)), step * lam)

    # Synthesis is linear, so each iterate's synthesis is carried beside it
    # (sc for c, sz for z): an iteration costs one analysis and one
    # synthesis, and a restart the same again.
    n_coef = len(bank) * arr.shape[1]
    c = np.zeros((G.N, n_coef))
    sc = apply(c, adjoint=True)
    z, sz = c, sc
    t = 1.0
    f_prev = objective(c, sc - arr)
    history = [f_prev]
    converged = False
    it = 0
    change = np.inf
    for it in range(1, max_iter + 1):
        c_new = prox_step(z, sz)
        s_new = apply(c_new, adjoint=True)
        f_new = objective(c_new, s_new - arr)
        if f_new > f_prev:
            # Monotone fallback: plain proximal step from the last accepted c.
            c_new = prox_step(c, sc)
            s_new = apply(c_new, adjoint=True)
            f_new = objective(c_new, s_new - arr)
            t = 1.0
            if f_new > f_prev:
                # Even the plain step cannot improve: stagnation at roundoff.
                converged = True
                break
        change = abs(f_prev - f_new) / (1.0 + abs(f_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        z = c_new + beta * (c_new - c)
        sz = s_new + beta * (s_new - sc)
        c, sc, t, f_prev = c_new, s_new, t_next, f_new
        history.append(f_new)
        if change <= tol:
            converged = True
            break
    if arr.shape[1] > 1:
        history = history[-1:]
    report = SolverReport(iterations=it, objective=f_prev,
                          residual=float(change) if np.isfinite(change) else 0.0,
                          converged=converged, objective_history=history)
    return c, _squeezed(sc), report
