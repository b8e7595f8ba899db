"""Spectral filter banks and polynomial-accelerated filtering.

A kernel is a scalar function of the Laplacian eigenvalue; a filter bank is a
list of kernels sharing one spectral interval ``[0, lmax]``.  ``_DESIGNS`` is
the one registry of designs, read by :func:`design`, by
:func:`bank_from_descriptor` and for the CLI's ``--design``.  A designed bank
carries the descriptor ``{"kind", "lmax", "params"}``, so it is written to
JSON and rebuilt bit-identically; a bank of arbitrary callables is not.  A
graph or bank argument of the wrong type raises ``BadParameter``.

Filtering runs either through the exact eigenbasis or through a Chebyshev
polynomial approximation that only touches the sparse Laplacian, which is the
path that scales.  Both go through one bank operator, which builds the kernel
responses or the Chebyshev coefficients once and can then be applied any
number of times.  A Chebyshev application costs ``order`` sparse products for
the whole bank: analysis shares one forward recurrence across the kernels,
whose terms it buffers and combines with one product per kernel, and
synthesis runs one Clenshaw recurrence.  An exact application costs one
product with the whole eigenvector matrix ``U`` plus products with each
kernel's band of columns of ``U``, the eigenvalues from its first to its last
nonzero response.  The translate designs (``itersine``, ``warped_translates``)
have bands of about ``2 N`` columns in total, against ``len(bank) N`` for
kernels of full support (``heat``, ``mexican_hat``, ``gabor``), which take one
product for the whole bank.  That is for one signal column; on several
columns all kernels share one product with the whole of ``U``.  Measured
with one BLAS thread on ``sensor(2000, 0)`` and ``itersine(G, 8)``, an
analysis through the whole of ``U`` took 26.8, 32.5 and 42.4 ms on 2, 4 and
8 columns, against 35.6, 37.8 and 37.2 ms through the bands: faster up to 4
columns, slower at 8.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .exceptions import BadParameter, NonFiniteValue, ShapeMismatch
from .graphs import (Graph, _as_signal, _check_int, _check_real, _check_type,
                     _float_array)
from .spectral import estimate_lmax, get_lmax, get_spectral


class Kernel:
    """Vectorized scalar spectral map with a display label."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], label: str = ""):
        self.fn = fn
        self.label = label

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return float(np.asarray(self.fn(arr.reshape(1)))[0])
        return np.asarray(self.fn(arr), dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.label or 'custom'})"


@dataclass
class FilterBank:
    """Kernels sharing one spectral interval.

    Attributes:
        kernels: The member kernels, low-pass first by convention, stored as
            a list.
        lmax: Right end of the spectral interval the bank was designed for.
        design: JSON-ready descriptor ``{"kind", "lmax", "params"}`` when the
            bank came from a design function, else ``None``.

    Raises:
        BadParameter: ``kernels`` is not a non-empty sequence of callables,
            ``lmax`` is not positive and finite, or ``design`` is neither
            ``None`` nor a dict.
    """

    kernels: List[Kernel]
    lmax: float
    design: Optional[dict] = field(default=None)

    def __post_init__(self):
        if not (isinstance(self.kernels, Sequence) and self.kernels
                and all(map(callable, self.kernels))):
            raise BadParameter("kernels must be a non-empty sequence of "
                               f"callables, got {self.kernels!r}")
        self.kernels = list(self.kernels)
        self.lmax = _check_real("lmax", self.lmax, positive=True)
        if not (self.design is None or isinstance(self.design, dict)):
            raise BadParameter(
                f"design must be None or a dict, got {self.design!r}")

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __getitem__(self, idx) -> Kernel:
        return self.kernels[idx]

    def evaluate(self, x) -> np.ndarray:
        """Evaluate every kernel on ``x``; rows index kernels."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        return np.vstack([k(arr) for k in self.kernels])


def _resolve_lmax(G_or_lmax) -> float:
    """Spectral interval endpoint from a graph (estimating if needed) or number."""
    if isinstance(G_or_lmax, Graph):
        return estimate_lmax(G_or_lmax)
    return _check_real("lmax", G_or_lmax, positive=True)


def _designed(kind: str, lmax: float, kernels, **params) -> FilterBank:
    """A bank with the descriptor ``{"kind", "lmax", "params"}`` from which
    :func:`bank_from_descriptor` rebuilds it."""
    return FilterBank(kernels, lmax,
                      design={"kind": kind, "lmax": lmax, "params": params})


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

def heat(G_or_lmax, tau: float = 10.0) -> FilterBank:
    """Single heat kernel ``exp(-tau * x / lmax)``.

    ``tau`` controls diffusion time; ``tau = 0`` is the identity filter.
    """
    lmax = _resolve_lmax(G_or_lmax)
    tau = _check_real("tau", tau)
    kern = Kernel(lambda x, t=tau, lm=lmax: np.exp(-t * x / lm),
                  label=f"heat(tau={tau:g})")
    return _designed("heat", lmax, [kern], tau=tau)


def _mexican_mother(x: np.ndarray) -> np.ndarray:
    """Band-pass mother ``x * exp(1 - x)``, peaking at 1 with value 1."""
    return x * np.exp(1.0 - x)


def mexican_hat(G_or_lmax, n_scales: int = 6) -> FilterBank:
    """Band-pass wavelet bank from a scaled ``x * exp(1 - x)`` mother.

    Scales are log-spaced so the kernel peaks sweep from ``lmax / 20`` up to
    ``lmax / 2``; a Gaussian low-pass companion covers the bottom of the
    spectrum.  The frame is snug but not tight.
    """
    lmax = _resolve_lmax(G_or_lmax)
    n_scales = _check_int("n_scales", n_scales, minimum=1)
    t_min, t_max = 2.0 / lmax, 20.0 / lmax
    scales = np.logspace(np.log10(t_max), np.log10(t_min), n_scales)
    kernels = [Kernel(lambda x, lm=lmax: np.exp(-((5.0 * x / lm) ** 2)),
                      label="lowpass")]
    for j, t in enumerate(scales):
        kernels.append(Kernel(lambda x, tt=t: _mexican_mother(tt * x),
                              label=f"scale {j} (t={t:.4g})"))
    return _designed("mexican_hat", lmax, kernels, n_scales=n_scales)


def _itersine_window(t: np.ndarray) -> np.ndarray:
    """Smooth window ``sin(pi/2 * cos(pi t)^2)`` supported on |t| <= 1/2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) <= 0.5
    out[m] = np.sin(0.5 * np.pi * np.cos(np.pi * t[m]) ** 2)
    return out


def _uniform_translate_kernels(n_filters: int, warp=None,
                               lmax: float = 1.0) -> List[Kernel]:
    """Half-overlapping iterated-sine windows forming a partition of unity.

    The squared windows sum to exactly one over [0, lmax] (after the optional
    warp is applied to the abscissa), which is what makes the frame tight.
    """
    kappa = 0.5 * (n_filters - 1)

    def bump(x, m):
        u = np.asarray(x, dtype=float) / lmax
        if warp is not None:
            u = warp(np.asarray(x, dtype=float))
        if kappa == 0:
            return np.ones_like(u)
        return _itersine_window(u * kappa - 0.5 * m)

    return [Kernel(lambda x, mm=m: bump(x, mm), label=f"band {m}")
            for m in range(n_filters)]


def itersine(G_or_lmax, n_filters: int = 6) -> FilterBank:
    """Tight frame of half-overlapping iterated-sine windows.

    The squared kernels sum to one everywhere on ``[0, lmax]``, so analysis
    followed by synthesis is the identity.
    """
    lmax = _resolve_lmax(G_or_lmax)
    n_filters = _check_int("n_filters", n_filters, minimum=1)
    kernels = _uniform_translate_kernels(n_filters, warp=None, lmax=lmax)
    return _designed("itersine", lmax, kernels, n_filters=n_filters)


def regular_hp_lp(G_or_lmax, degree: int = 3) -> FilterBank:
    """Complementary low/high-pass pair with ``lp^2 + hp^2 == 1``.

    The transition profile is the ``degree``-fold iterate of
    ``sin(pi u / 2)`` on the centered spectrum, which flattens the pair near
    the band edges as ``degree`` grows; ``degree = 0`` gives the plain
    half-cosine pair.
    """
    lmax = _resolve_lmax(G_or_lmax)
    degree = _check_int("degree", degree, minimum=0)

    def profile(x):
        u = np.clip(2.0 * np.asarray(x, dtype=float) / lmax - 1.0, -1.0, 1.0)
        for _ in range(degree):
            u = np.sin(0.5 * np.pi * u)
        return u

    lp = Kernel(lambda x: np.cos(0.25 * np.pi * (1.0 + profile(x))),
                label="lowpass")
    hp = Kernel(lambda x: np.sin(0.25 * np.pi * (1.0 + profile(x))),
                label="highpass")
    return _designed("regular", lmax, [lp, hp], degree=degree)


def gabor(G_or_lmax, n_shifts: int = 8, width: Optional[float] = None,
          mother: Optional[Callable] = None) -> FilterBank:
    """Uniform translates of a window along the spectrum.

    The default window is a Gaussian of width ``lmax / n_shifts``; centers
    sit at ``linspace(0, lmax, n_shifts)``.  A custom ``mother`` callable is
    translated instead, at the price of losing JSON serializability.
    """
    lmax = _resolve_lmax(G_or_lmax)
    n_shifts = _check_int("n_shifts", n_shifts, minimum=1)
    w = (_check_real("width", width, positive=True) if width is not None
         else lmax / n_shifts)
    centers = np.linspace(0.0, lmax, n_shifts)
    window = (lambda u: np.exp(-((u / w) ** 2))) if mother is None else mother
    kernels = [Kernel(lambda x, cc=c: window(np.asarray(x) - cc),
                      label=f"shift {c:.4g}") for c in centers]
    if mother is not None:
        return FilterBank(kernels, lmax)
    return _designed("gabor", lmax, kernels, n_shifts=n_shifts, width=w)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """Infinitely smooth ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


def expwin(G_or_lmax, band: float = 0.2, transition: float = 0.5) -> FilterBank:
    """Infinitely smooth low-pass window.

    Equals one on ``[0, band * lmax]``, then rolls off over a further
    ``transition * band * lmax`` using a bump-function ramp, so every
    derivative is continuous — handy where polynomial approximation quality
    matters.
    """
    lmax = _resolve_lmax(G_or_lmax)
    band = _check_real("band", band, positive=True, maximum=1.0)
    transition = _check_real("transition", transition, positive=True)
    b = band * lmax
    kern = Kernel(
        lambda x: _smooth_step(((1.0 + transition) * b - np.asarray(x, float))
                               / (transition * b)),
        label=f"expwin(band={band:g})")
    return _designed("expwin", lmax, [kern], band=band, transition=transition)


def _warped_bank(lmax: float, knots_x, knots_y, n_filters: int) -> FilterBank:
    """The translates of :func:`warped_translates` under the warp through
    ``(knots_x, knots_y)``; rebuilds that design from its descriptor."""
    n_filters = _check_int("n_filters", n_filters, minimum=1)
    knots_x = np.asarray(knots_x, dtype=float)
    knots_y = np.asarray(knots_y, dtype=float)
    lmax = float(lmax)
    kernels = _uniform_translate_kernels(
        n_filters, warp=lambda x: np.interp(x, knots_x, knots_y), lmax=lmax)
    return _designed("warped_translates", lmax, kernels, n_filters=n_filters,
                     knots_x=knots_x.tolist(), knots_y=knots_y.tolist())


def warped_translates(G: Graph, n_filters: int = 6) -> FilterBank:
    """Spectrum-adapted tight frame.

    The uniform iterated-sine tiling is composed with the empirical spectral
    distribution of the graph (a piecewise-linear interpolant through the
    sorted eigenvalues), so each kernel covers roughly the same number of
    eigenvalues instead of the same spectral length.  Needs the Fourier
    basis.  The warp knots are stored in the descriptor, so a saved bank
    reloads without the graph.

    Raises:
        BadParameter: ``G`` is not a :class:`Graph`, or a bad ``n_filters``.
    """
    S = get_spectral(G, "warped_translates")
    e = np.asarray(S.e, dtype=float)
    n = e.size
    if n < 2 or S.lmax <= 0:
        # Degenerate spectrum: fall back to the unwarped tiling on [0, 1].
        return _warped_bank(max(S.lmax, 1.0), [0.0, 1.0], [0.0, 1.0],
                            n_filters)
    target = np.arange(n) / (n - 1)
    # Repeated eigenvalues would make the interpolant ambiguous; keep the
    # last (largest) target value for each distinct eigenvalue.
    keep = np.flatnonzero(np.diff(e, append=np.inf) > 1e-12)
    kx, ky = e[keep], target[keep]
    if kx.size == 1:
        kx = np.array([0.0, max(kx[0], 1.0)])
        ky = np.array([0.0, 1.0])
    else:
        ky = (ky - ky[0]) / (ky[-1] - ky[0])
    return _warped_bank(S.lmax, kx, ky, n_filters)


#: Every design kind and its two builders: :func:`design` calls the first
#: with a graph or a number, :func:`bank_from_descriptor` the second with the
#: stored ``lmax`` and ``params``.  They are one function except for
#: ``warped_translates``, whose descriptor stores its warp knots.
_DESIGNS = {
    "heat": (heat, heat),
    "mexican_hat": (mexican_hat, mexican_hat),
    "itersine": (itersine, itersine),
    "regular": (regular_hp_lp, regular_hp_lp),
    "gabor": (gabor, gabor),
    "expwin": (expwin, expwin),
    "warped_translates": (warped_translates, _warped_bank),
}


def _build(kind, rebuild: bool, first, params, unknown: str) -> FilterBank:
    """``builder(first, **params)`` with ``kind``'s builder from ``_DESIGNS``;
    an unknown or unhashable ``kind`` (``unknown`` ends the message) and
    parameters the builder lacks or does not take raise ``BadParameter``."""
    try:
        builder = _DESIGNS[kind][rebuild]
    except (KeyError, TypeError) as exc:
        raise BadParameter(
            f"unknown filter design {kind!r}{unknown}") from exc
    try:
        bound = inspect.signature(builder).bind(first, **params)
    except TypeError as exc:
        raise BadParameter(
            f"{kind} parameters {sorted(params)}: {exc}") from exc
    return builder(*bound.args, **bound.kwargs)


def design(kind: str, G_or_lmax, **params) -> FilterBank:
    """Build a named filter bank; the string front end used by the CLI.

    ``kind`` names a design function (``regular`` is :func:`regular_hp_lp`);
    ``warped_translates`` requires a graph with a computed Fourier basis.

    Raises:
        BadParameter: An unknown ``kind`` or parameter, or a number for
            ``warped_translates``.
    """
    return _build(kind, False, G_or_lmax, params,
                  f"; choose from {sorted(_DESIGNS)}")


def bank_from_descriptor(desc: dict) -> FilterBank:
    """Rebuild a bank from its JSON descriptor, bit-identically.

    Raises:
        BadParameter: The descriptor lacks ``kind`` or ``lmax``, its
            ``lmax`` is not a finite positive number, it names an unknown
            design, lacks a parameter the design needs or has one it does
            not take, or holds a value the design refuses.
    """
    try:
        kind = desc["kind"]
        lmax = desc["lmax"]
        params = dict(desc.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameter(f"malformed filter descriptor: {desc!r}") from exc
    lmax = _check_real("lmax", lmax, positive=True)
    return _build(kind, True, lmax, params, " in descriptor")


# ---------------------------------------------------------------------------
# Chebyshev machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevCoeffs:
    """Chebyshev expansion of a kernel on ``[0, lmax]``.

    ``c`` holds ``order + 1`` coefficients in the half-first-coefficient
    convention: the reconstruction is ``c[0] / 2 + sum(c[k] * T_k)``, so a
    constant kernel of value one gives ``c[0] == 2``.  The fields are
    checked once, so they cannot change afterwards: the dataclass is frozen
    and ``c`` is a read-only copy of the array passed in.

    Raises:
        BadParameter: ``order`` is not an integer ``>= 1``, ``lmax`` is not
            positive and finite, or ``c`` is not ``order + 1`` finite
            numbers.
    """

    c: np.ndarray
    order: int
    lmax: float

    def __post_init__(self):
        order = _check_int("order", self.order, minimum=1)
        lmax = _check_real("lmax", self.lmax, positive=True)
        c = np.array(_float_array(self.c, "Chebyshev coefficients"))
        if c.shape != (order + 1,):
            raise BadParameter(
                f"Chebyshev coefficients must have shape ({order + 1},)"
                f" for order {order}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise BadParameter("Chebyshev coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lmax", lmax)
        object.__setattr__(self, "c", c)


def chebyshev_coeffs(kernel, order: int, lmax: float) -> ChebyshevCoeffs:
    """Interpolate a kernel at Chebyshev nodes mapped onto ``[0, lmax]``.

    Args:
        kernel: Callable evaluated vectorized on the nodes.
        order: Polynomial order ``K >= 1``; ``K + 1`` coefficients result.
        lmax: Right end of the interval (must be positive).

    Raises:
        BadParameter: ``kernel`` is not callable, ``order`` or ``lmax`` is
            out of range, or the kernel does not return one value per node.
    """
    if not callable(kernel):
        raise BadParameter(
            f"kernel must be callable, got {type(kernel).__name__}")
    order = _check_int("order", order, minimum=1)
    lmax = _check_real("lmax", lmax, positive=True)
    npts = order + 1
    theta = np.pi * (np.arange(npts) + 0.5) / npts
    nodes = 0.5 * lmax * (np.cos(theta) + 1.0)
    vals = np.asarray(kernel(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise BadParameter("kernel must return one value per input point")
    # c_k = 2/(K+1) * sum_j vals_j cos(k theta_j); multiply before dividing
    # so a constant kernel of one yields c_0 == 2 exactly.
    basis = np.cos(np.outer(np.arange(npts), theta))
    c = (basis @ vals) * 2.0 / npts
    return ChebyshevCoeffs(c=c, order=order, lmax=lmax)


#: Bytes of recurrence terms :func:`_chebyshev_bank` holds at once.  With
#: ``N * k`` and the order it sets the block of terms, never with the kernel
#: count, so a bank's kernel equals :func:`chebyshev_apply` on it bit for
#: bit.  Measured with one BLAS thread and ``itersine(G, 8)`` at order 40:
#: on ``sensor(2000, 0)`` and one column all 41 terms fit, and analysis took
#: 1.3-1.4 ms against 2.1-2.4 ms with one axpy per kernel per term.  At
#: N = 16000 on 4 columns it holds 2 terms; a 4 MB buffer (8 terms) was no
#: faster there, and it raised the peak RSS of a loop of analyses and
#: syntheses by 4.1 MB over the axpy version, against 1.4 MB.  The sparse
#: products do not set that cost: of a 48 ms analysis, the 40 products took
#: 20 ms, the recurrence axpys 5 ms and the per-kernel sums 15 ms (168
#: two-term products, 21 blocks times 8 kernels), interleaved medians.
_CHEB_BUFFER_BYTES = 1 << 20


def _chebyshev_bank(L, C: np.ndarray, lmax: float, X: np.ndarray,
                    adjoint: bool = False) -> np.ndarray:
    """Filter a 2-D block by the Chebyshev series in the rows of ``C``.

    Analysis stacks ``p_j(L) X`` kernel-major; ``T_t(L) X`` does not depend
    on the kernel, so one forward recurrence serves every row.  Its terms go
    into one buffer of up to :data:`_CHEB_BUFFER_BYTES`, and each block of
    terms adds one product ``C[j, block] @ terms`` to kernel ``j``'s sum.  Synthesis (``adjoint``) sums ``p_j(L) X_j`` over the
    kernel-major blocks of ``X``, which is ``sum_t T_t(L) Z_t`` with
    ``Z_t = sum_j C[j, t] X_j``: one Clenshaw recurrence, run in place,
    with a block's ``Z_t`` formed by one product when it is reached.
    Either way the cost is ``order`` sparse products, and ``L`` is only
    used through ``L @ v``.
    """
    half = 0.5 * lmax
    m, terms = C.shape
    n, k = X.shape[0], X.shape[1] // m if adjoint else X.shape[1]
    # The series is c_0 / 2 T_0 + sum_t c_t T_t.
    C = C.copy()
    C[:, 0] *= 0.5
    size = max(2, min(terms, _CHEB_BUFFER_BYTES // (8 * max(n * k, 1))))
    starts = range(0, terms, size)

    def shifted(v):
        # (2 L / lmax - I) v, the recurrence operator on [-1, 1], in the one
        # array the sparse product allocates.
        w = L @ v
        w /= half
        w -= v
        return w

    if adjoint:
        blocks = X.reshape(n, m, k).transpose(1, 0, 2).reshape(m, n * k)
        Z = np.empty((size, n * k))
        b_cur, b_next = None, 0.0
        for s in reversed(starts):
            count = min(size, terms - s)
            z = np.matmul(C[:, s:s + count].T, blocks,
                          out=Z[:count]).reshape(count, n, k)
            for t in range(count - 1, -1, -1):
                if b_cur is None:
                    # A copy, since the next block refills Z.
                    b_cur = z[t].copy()
                    continue
                w = shifted(b_cur)
                if s + t:
                    w *= 2.0
                w += z[t]
                w -= b_next
                b_cur, b_next = w, b_cur
        return b_cur
    T = np.empty((size, n, k))
    # Kernel j's sum stays contiguous in acc[j] until the one copy into the
    # kernel-major layout: at N = 16000 on 4 columns, adding each block into
    # that strided layout cost 2.9 ms per block against 0.25 ms contiguous.
    acc = np.empty((m, n * k))
    prev = cur = None
    for s in starts:
        for r in range(min(size, terms - s)):
            row = T[r]
            if s + r == 0:
                row[...] = X
            elif s + r == 1:
                row[...] = shifted(cur)
            else:
                w = shifted(cur)
                w *= 2.0
                # row is prev itself when the buffer holds two terms.
                np.subtract(w, prev, out=row)
            prev, cur = cur, row
        flat = T[:r + 1].reshape(r + 1, -1)
        for j in range(m):
            if s:
                acc[j] += C[j, s:s + r + 1] @ flat
            else:
                np.matmul(C[j, s:s + r + 1], flat, out=acc[j])
    # Free the terms before the copy, so that the peak is the sums and the
    # output, as with one array per kernel.
    del T, flat, prev, cur, row
    return acc.reshape(m, n, k).transpose(1, 0, 2).reshape(n, m * k)


def chebyshev_apply(G: Graph, coeffs: ChebyshevCoeffs, f) -> np.ndarray:
    """Apply a Chebyshev-expanded kernel to a signal via the recurrence.

    Only sparse matrix-vector products with the active Laplacian are used;
    cost is ``order`` products per signal.  Accepts a vector or a matrix of
    column signals.

    Raises:
        BadParameter: ``coeffs`` is not a :class:`ChebyshevCoeffs`, or
            ``coeffs.lmax`` lies below the spectrum, where the
            recurrence grows without bound: below the exact top eigenvalue
            when the Fourier basis is cached, otherwise below the largest
            diagonal entry of the Laplacian (a lower bound on the top
            eigenvalue of a symmetric one).
    """
    arr = _as_signal(G, f)
    _check_type("coeffs", coeffs, ChebyshevCoeffs)
    floor = (G._spectral.lmax if G._spectral is not None
             else float(G.L.diagonal().max()))
    if coeffs.lmax < floor:
        raise BadParameter(
            f"Chebyshev interval [0, {coeffs.lmax}] ends below the "
            f"spectrum, which reaches at least {floor}")
    out = _chebyshev_bank(G.L, coeffs.c[None, :], coeffs.lmax,
                          arr.reshape(G.N, -1))
    return out[:, 0] if arr.ndim == 1 else out


# ---------------------------------------------------------------------------
# Bank application
# ---------------------------------------------------------------------------

def _bands(resp: np.ndarray):
    """Where each kernel of a bank is nonzero, as column ranges of ``U``.

    A kernel's band is the range ``[a, b)`` of eigenvalue indices from its
    first to its last nonzero response in ``resp`` (one row per kernel); a
    kernel that is zero at every eigenvalue has none.  Returns one
    ``(a, b, J)`` per distinct band, with the kernels ``J`` that share it.
    """
    bands = {}
    for j, nz in enumerate(map(np.flatnonzero, resp)):
        if nz.size:
            bands.setdefault((int(nz[0]), int(nz[-1]) + 1), []).append(j)
    return [(a, b, J) for (a, b), J in bands.items()]


def _bank_operator(G: Graph, bank: FilterBank, method: str, order: int):
    """Prepare a bank on a graph once: the one routine behind all filtering.

    The method check, the spectral data and either the kernel responses on
    the eigenvalues (exact) or the ``(len(bank), order + 1)`` Chebyshev
    coefficient matrix are computed here, once, not per application.  The
    returned ``apply(X, adjoint=False)`` maps ``(N, k)`` signals to
    ``(N, len(bank) * k)`` kernel-major coefficients; ``adjoint=True`` is
    synthesis, mapping those back to ``(N, k)``.  An exact application
    costs one product with the whole eigenvector matrix ``U`` plus products
    with each kernel's band of columns of ``U`` (see :func:`_bands`), so
    about ``2 N`` columns for a translate design against ``len(bank) N``
    for full-support kernels, which share one product.  That holds for one
    signal column; with several, all kernels share one product with the
    whole of ``U``.  A Chebyshev application costs ``order`` sparse products
    for the whole bank, plus one dense product per kernel for each block of
    buffered recurrence terms (one block at N = 2000 on one column; see
    :data:`_CHEB_BUFFER_BYTES`) in analysis, and one per block in synthesis.
    """
    _check_type("bank", bank, FilterBank)
    if method == "exact":
        S = get_spectral(G, "exact filtering")
        resp = bank.evaluate(S.e)
        bands = _bands(resp)
        whole = [(0, G.N, sorted(j for _, _, J in bands for j in J))]

        def apply(X, adjoint=False):
            k = X.shape[1] // len(bank) if adjoint else X.shape[1]
            # With one column per kernel the band products are matrix-vector
            # products, whose cost is the columns of U they read, so each
            # band reads only its own.  With more columns one product with
            # all of U serves every kernel, which measured faster than the
            # bands on 2 and 4 columns, slower on 8 (module docstring).  The
            # U[:, a:b] slices are views: a copy would cost up to two N x N
            # blocks per application.
            parts = bands if k == 1 else whole
            if adjoint:
                blocks = X.reshape(G.N, len(bank), k)
                spec = np.zeros((G.N, k))
                for a, b, J in parts:
                    part = S.U[:, a:b].T @ blocks[:, J].reshape(G.N, -1)
                    spec[a:b] += np.einsum("jn,njk->nk", resp[J, a:b],
                                           part.reshape(b - a, len(J), k))
                return S.U @ spec
            spec = S.U.T @ X
            out = np.zeros((G.N, len(bank), k))
            for a, b, J in parts:
                part = np.einsum("jn,nk->njk", resp[J, a:b], spec[a:b])
                out[:, J] += (S.U[:, a:b] @ part.reshape(b - a, -1)).reshape(
                    G.N, len(J), k)
            return out.reshape(G.N, -1)
        return apply
    if method == "chebyshev":
        lmax = get_lmax(G, "chebyshev filtering")
        C = np.vstack([chebyshev_coeffs(kern, order, lmax).c for kern in bank])

        def apply(X, adjoint=False):
            return _chebyshev_bank(G.L, C, lmax, X, adjoint)
        return apply
    raise BadParameter(
        f"method must be 'exact' or 'chebyshev', got {method!r}")


def filter_analysis(G: Graph, bank: FilterBank, f, method: str = "exact",
                    order: int = 30) -> np.ndarray:
    """Run every kernel of a bank over a signal.

    Args:
        G: Graph whose active Laplacian defines the spectrum.
        bank: The filter bank.
        f: Signal ``(N,)`` or signals ``(N, k)``.
        method: ``"exact"`` (needs the Fourier basis) or ``"chebyshev"``
            (needs a spectral-radius bound).
        order: Chebyshev order for the approximate path.

    Returns:
        ``(N, len(bank) * k)`` array, kernel-major: the first ``k`` columns
        belong to the first kernel.  A 1-D input returns ``(N, len(bank))``,
        squeezed to 1-D for a single-kernel bank.
    """
    arr = _as_signal(G, f)
    out = _bank_operator(G, bank, method, order)(arr.reshape(G.N, -1))
    return out[:, 0] if arr.ndim == 1 and len(bank) == 1 else out


def filter_synthesis(G: Graph, bank: FilterBank, coefficients,
                     method: str = "exact", order: int = 30) -> np.ndarray:
    """Adjoint of :func:`filter_analysis`: sum the re-filtered bands.

    For a tight frame with unit bound this inverts analysis exactly; in
    general divide by the lower frame bound or use a least-squares solver.

    Args:
        coefficients: ``(N, len(bank) * k)`` kernel-major array as produced
            by analysis (1-D allowed for a single-kernel bank).

    Returns:
        ``(N, k)`` signals, squeezed to 1-D when ``k == 1``.
    """
    arr = _as_signal(G, coefficients, "coefficients").reshape(G.N, -1)
    apply = _bank_operator(G, bank, method, order)
    if arr.shape[1] % len(bank) != 0:
        raise ShapeMismatch(
            f"coefficients must be (N={G.N}, {len(bank)}*k), got shape "
            f"{np.asarray(coefficients).shape}")
    return _squeezed(apply(arr, adjoint=True))


def _squeezed(out: np.ndarray) -> np.ndarray:
    """An ``(N, k)`` synthesis in :func:`filter_synthesis`'s output shape:
    1-D when ``k == 1``."""
    return out[:, 0] if out.shape[1] == 1 else out


def frame_bounds(bank: FilterBank, lmax: Optional[float] = None,
                 grid_size: int = 1000, eigenvalues=None):
    """Frame bounds ``(A, B)`` of a bank from a spectral grid.

    ``A`` and ``B`` are the extrema of the summed squared kernel responses
    over ``grid_size`` points spanning ``[0, lmax]``, plus any explicitly
    supplied eigenvalues.  ``A == B`` (numerically) means a tight frame.

    Raises:
        BadParameter: ``bank`` is not a :class:`FilterBank`, or ``lmax`` is
            not finite and positive.
        NonFiniteValue: An eigenvalue is NaN or infinite.
    """
    _check_type("bank", bank, FilterBank)
    grid_size = _check_int("grid_size", grid_size, minimum=2)
    lmax = _check_real("lmax", bank.lmax if lmax is None else lmax,
                       positive=True)
    x = np.linspace(0.0, lmax, grid_size)
    if eigenvalues is not None:
        eigs = np.asarray(eigenvalues, dtype=float).ravel()
        if not np.all(np.isfinite(eigs)):
            raise NonFiniteValue(
                "eigenvalues contain NaN or infinite entries")
        x = np.concatenate([x, eigs])
    total = (bank.evaluate(x) ** 2).sum(axis=0)
    return float(total.min()), float(total.max())
