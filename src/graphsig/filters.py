"""Spectral filter banks and polynomial-accelerated filtering.

A kernel is a scalar function of the Laplacian eigenvalue; a filter bank is a
list of kernels sharing one spectral interval ``[0, lmax]``.  Banks built by
the design functions carry a serializable descriptor (kind plus parameters),
so they can be written to JSON and rebuilt bit-identically; banks wrapping
arbitrary callables do not.

Filtering runs either through the exact eigenbasis or through a Chebyshev
polynomial approximation that only touches the sparse Laplacian, which is the
path that scales.  Both go through one bank operator, which builds the kernel
responses or the Chebyshev coefficients once and can then be applied any
number of times.  A Chebyshev application costs ``order`` sparse products for
the whole bank: analysis shares one forward recurrence across the kernels and
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

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .exceptions import BadParameter, NonFiniteValue, ShapeMismatch
from .graphs import Graph, _as_signal, _check_int, _check_real
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
        kernels: The member kernels, low-pass first by convention.
        lmax: Right end of the spectral interval the bank was designed for.
        design: JSON-ready descriptor ``{"kind", "lmax", "params"}`` when the
            bank came from a design function, else ``None``.
    """

    kernels: List[Kernel]
    lmax: float
    design: Optional[dict] = field(default=None)

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
    return FilterBank([kern], lmax,
                      design={"kind": "heat", "lmax": lmax,
                              "params": {"tau": tau}})


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
    return FilterBank(kernels, lmax,
                      design={"kind": "mexican_hat", "lmax": lmax,
                              "params": {"n_scales": n_scales}})


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
    return FilterBank(kernels, lmax,
                      design={"kind": "itersine", "lmax": lmax,
                              "params": {"n_filters": n_filters}})


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
    return FilterBank([lp, hp], lmax,
                      design={"kind": "regular", "lmax": lmax,
                              "params": {"degree": degree}})


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
    if mother is None:
        def mk(c):
            return Kernel(lambda x, cc=c: np.exp(-(((np.asarray(x) - cc) / w)
                                                   ** 2)),
                          label=f"shift {c:.4g}")
        design = {"kind": "gabor", "lmax": lmax,
                  "params": {"n_shifts": n_shifts, "width": w}}
    else:
        def mk(c):
            return Kernel(lambda x, cc=c: mother(np.asarray(x) - cc),
                          label=f"shift {c:.4g}")
        design = None
    return FilterBank([mk(c) for c in centers], lmax, design=design)


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
    return FilterBank([kern], lmax,
                      design={"kind": "expwin", "lmax": lmax,
                              "params": {"band": band,
                                         "transition": transition}})


def _warp_from_knots(knots_x: np.ndarray, knots_y: np.ndarray):
    return lambda x: np.interp(np.asarray(x, dtype=float), knots_x, knots_y)


def _warped_bank(knots_x, knots_y, n_filters: int, lmax: float) -> FilterBank:
    knots_x = np.asarray(knots_x, dtype=float)
    knots_y = np.asarray(knots_y, dtype=float)
    warp = _warp_from_knots(knots_x, knots_y)
    kernels = _uniform_translate_kernels(n_filters, warp=warp, lmax=lmax)
    design = {"kind": "warped_translates", "lmax": float(lmax),
              "params": {"n_filters": int(n_filters),
                         "knots_x": knots_x.tolist(),
                         "knots_y": knots_y.tolist()}}
    return FilterBank(kernels, float(lmax), design=design)


def warped_translates(G: Graph, n_filters: int = 6) -> FilterBank:
    """Spectrum-adapted tight frame.

    The uniform iterated-sine tiling is composed with the empirical spectral
    distribution of the graph (a piecewise-linear interpolant through the
    sorted eigenvalues), so each kernel covers roughly the same number of
    eigenvalues instead of the same spectral length.  Needs the Fourier
    basis.  The warp knots are stored in the descriptor, so a saved bank
    reloads without the graph.
    """
    n_filters = _check_int("n_filters", n_filters, minimum=1)
    S = get_spectral(G, "warped_translates")
    e = np.asarray(S.e, dtype=float)
    n = e.size
    if n < 2 or S.lmax <= 0:
        # Degenerate spectrum: fall back to the unwarped tiling on [0, 1].
        return _warped_bank([0.0, 1.0], [0.0, 1.0], n_filters,
                            max(S.lmax, 1.0))
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
    return _warped_bank(kx, ky, n_filters, S.lmax)


_DESIGNS = {
    "heat": heat,
    "mexican_hat": mexican_hat,
    "itersine": itersine,
    "regular": regular_hp_lp,
    "gabor": gabor,
    "expwin": expwin,
}


def design(kind: str, G_or_lmax, **params) -> FilterBank:
    """Build a named filter bank; the string front end used by the CLI.

    ``kind`` is one of ``heat``, ``mexican_hat``, ``itersine``, ``regular``,
    ``gabor``, ``expwin`` or ``warped_translates`` (the latter requires a
    graph with a computed Fourier basis).
    """
    if kind == "warped_translates":
        if not isinstance(G_or_lmax, Graph):
            raise BadParameter("warped_translates needs a Graph, not a number")
        return warped_translates(G_or_lmax, **params)
    try:
        builder = _DESIGNS[kind]
    except KeyError:
        raise BadParameter(
            f"unknown filter design {kind!r}; choose from "
            f"{sorted(_DESIGNS) + ['warped_translates']}") from None
    return builder(G_or_lmax, **params)


def bank_from_descriptor(desc: dict) -> FilterBank:
    """Rebuild a bank from its JSON descriptor, bit-identically."""
    try:
        kind = desc["kind"]
        lmax = float(desc["lmax"])
        params = dict(desc.get("params", {}))
    except (KeyError, TypeError) as exc:
        raise BadParameter(f"malformed filter descriptor: {desc!r}") from exc
    if kind == "warped_translates":
        return _warped_bank(params["knots_x"], params["knots_y"],
                            _check_int("n_filters", params["n_filters"],
                                       minimum=1),
                            lmax)
    if kind not in _DESIGNS:
        raise BadParameter(f"unknown filter design {kind!r} in descriptor")
    return _DESIGNS[kind](lmax, **params)


# ---------------------------------------------------------------------------
# Chebyshev machinery
# ---------------------------------------------------------------------------

@dataclass
class ChebyshevCoeffs:
    """Chebyshev expansion of a kernel on ``[0, lmax]``.

    ``c`` holds ``order + 1`` coefficients in the half-first-coefficient
    convention: the reconstruction is ``c[0] / 2 + sum(c[k] * T_k)``, so a
    constant kernel of value one gives ``c[0] == 2``.
    """

    c: np.ndarray
    order: int
    lmax: float


def chebyshev_coeffs(kernel, order: int, lmax: float) -> ChebyshevCoeffs:
    """Interpolate a kernel at Chebyshev nodes mapped onto ``[0, lmax]``.

    Args:
        kernel: Callable evaluated vectorized on the nodes.
        order: Polynomial order ``K >= 1``; ``K + 1`` coefficients result.
        lmax: Right end of the interval (must be positive).
    """
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


def _chebyshev_bank(L, C: np.ndarray, lmax: float, X: np.ndarray,
                    adjoint: bool = False) -> np.ndarray:
    """Filter a 2-D block by the Chebyshev series in the rows of ``C``.

    Analysis stacks ``p_j(L) X`` kernel-major; ``T_t(L) X`` does not depend
    on the kernel, so one forward recurrence serves every row.  Synthesis
    (``adjoint``) sums ``p_j(L) X_j`` over the kernel-major blocks of ``X``,
    which is ``sum_t T_t(L) Z_t`` with ``Z_t = sum_j C[j, t] X_j``: one
    Clenshaw recurrence, forming each ``Z_t`` when it is reached.  Either
    way the cost is ``order`` sparse products.
    """
    half = 0.5 * lmax

    def shifted(v):
        # (2 L / lmax - I) v, the recurrence operator on [-1, 1].
        return (L @ v) / half - v

    if adjoint:
        blocks = np.stack(np.hsplit(X, C.shape[0])).reshape(C.shape[0], -1)

        def term(t):
            return (C[:, t] @ blocks).reshape(X.shape[0], -1)

        b_cur, b_next = term(C.shape[1] - 1), 0.0
        for t in range(C.shape[1] - 2, 0, -1):
            b_cur, b_next = term(t) + 2.0 * shifted(b_cur) - b_next, b_cur
        return 0.5 * term(0) + shifted(b_cur) - b_next
    t_prev, t_cur = X, shifted(X)
    outs = [0.5 * c[0] * t_prev + c[1] * t_cur for c in C]
    for t in range(2, C.shape[1]):
        t_next = 2.0 * shifted(t_cur) - t_prev
        for c, out in zip(C, outs):
            out += c[t] * t_next
        t_prev, t_cur = t_cur, t_next
    return np.hstack(outs)


def chebyshev_apply(G: Graph, coeffs: ChebyshevCoeffs, f) -> np.ndarray:
    """Apply a Chebyshev-expanded kernel to a signal via the recurrence.

    Only sparse matrix-vector products with the active Laplacian are used;
    cost is ``order`` products per signal.  Accepts a vector or a matrix of
    column signals.

    Raises:
        BadParameter: ``coeffs.lmax`` lies below the spectrum, where the
            recurrence grows without bound: below the exact top eigenvalue
            when the Fourier basis is cached, otherwise below the largest
            diagonal entry of the Laplacian (a lower bound on the top
            eigenvalue of a symmetric one).
    """
    arr = _as_signal(G, f)
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
    for the whole bank.
    """
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
    if arr.shape[1] % len(bank) != 0:
        raise ShapeMismatch(
            f"coefficients must be (N={G.N}, {len(bank)}*k), got shape "
            f"{np.asarray(coefficients).shape}")
    return _squeezed(_bank_operator(G, bank, method, order)(arr, adjoint=True))


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
        BadParameter: ``lmax`` is not finite and positive.
        NonFiniteValue: An eigenvalue is NaN or infinite.
    """
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
