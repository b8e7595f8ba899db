"""Property tests for the shared bank operator.

Random undirected sensor graphs, bank sizes, signal counts and Chebyshev
orders; the exact and Chebyshev paths must each behave as one linear
operator and its adjoint, and BPDN built on it must agree with a solver
that synthesizes every iterate afresh.  The exact path multiplies only each
kernel's band of eigenvectors, so it is also checked on kernels with random
supports against dense filter matrices.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import graphsig as gs
from graphsig import filters, optimize

from oracles import dense_bank, dense_polynomial, reference_bpdn

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True)


def _bank(kind, lmax, m):
    if kind == "itersine":
        return gs.itersine(lmax, n_filters=m)
    if kind == "gabor":
        return gs.gabor(lmax, n_shifts=m)
    return gs.mexican_hat(lmax, n_scales=max(m - 1, 1))


@st.composite
def cases(draw, kinds=("itersine", "gabor", "mexican_hat")):
    n = draw(st.integers(8, 48))
    G = gs.sensor(n, seed=draw(st.integers(0, 10_000)))
    lmax = gs.estimate_lmax(G)
    bank = _bank(draw(st.sampled_from(kinds)), lmax, draw(st.integers(1, 8)))
    k = draw(st.integers(1, 3))
    order = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return G, bank, rng.standard_normal((n, k)), order, rng


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from(["exact", "chebyshev"]))
def test_synthesis_is_adjoint_of_analysis(case, method):
    G, bank, F, order, rng = case
    if method == "exact":
        gs.compute_fourier_basis(G)
    C = rng.standard_normal((G.N, len(bank) * F.shape[1]))
    AF = gs.filter_analysis(G, bank, F, method=method, order=order)
    AtC = gs.filter_synthesis(G, bank, C, method=method,
                              order=order).reshape(F.shape)
    lhs, rhs = np.sum(AF * C), np.sum(F * AtC)
    scale = np.linalg.norm(AF) * np.linalg.norm(C) \
        + np.linalg.norm(F) * np.linalg.norm(AtC)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(cases(kinds=("itersine",)), st.integers(0, 4), st.booleans())
def test_tight_frames_invert_on_exact_path(case, degree, use_regular):
    G, bank, F, _, _ = case
    gs.compute_fourier_basis(G)
    if use_regular:
        bank = gs.regular_hp_lp(G, degree=degree)
    C = gs.filter_analysis(G, bank, F, method="exact")
    rec = gs.filter_synthesis(G, bank, C, method="exact").reshape(F.shape)
    assert_allclose(rec, F, rtol=0, atol=1e-10 * np.abs(F).max())


def _per_kernel(G, kern, B, method, order):
    """One kernel over one block, the loop the bank routine replaced."""
    if method == "exact":
        S = gs.compute_fourier_basis(G)
        return S.U @ (kern(S.e)[:, None] * (S.U.T @ B))
    coeffs = gs.chebyshev_coeffs(kern, order, gs.estimate_lmax(G))
    return gs.chebyshev_apply(G, coeffs, B)


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from(["exact", "chebyshev"]))
def test_bank_matches_per_kernel_loop(case, method):
    G, bank, F, order, rng = case
    if method == "exact":
        gs.compute_fourier_basis(G)
    k = F.shape[1]
    C = gs.filter_analysis(G, bank, F, method=method, order=order)
    for j, kern in enumerate(bank):
        block = C[:, j * k:(j + 1) * k]
        ref = _per_kernel(G, kern, F, method, order)
        if method == "chebyshev":
            # The shared forward recurrence does the same arithmetic.
            assert np.array_equal(block, ref)
        else:
            assert_allclose(block, ref, rtol=0,
                            atol=1e-12 * max(np.abs(ref).max(), 1.0))
    X = rng.standard_normal(C.shape)
    got = gs.filter_synthesis(G, bank, X, method=method, order=order)
    want = sum(_per_kernel(G, kern, X[:, j * k:(j + 1) * k], method, order)
               for j, kern in enumerate(bank))
    assert_allclose(got.reshape(want.shape), want, rtol=0,
                    atol=1e-12 * max(np.abs(want).max(), 1.0))


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_polynomial_kernels_match_dense_powers(case, data):
    G, _, F, order, rng = case
    lmax = gs.estimate_lmax(G)
    degree = data.draw(st.integers(0, order))
    a = rng.uniform(-1.0, 1.0, degree + 1)
    kern = gs.Kernel(lambda x: np.polynomial.polynomial.polyval(x / lmax, a))
    bank = gs.FilterBank([kern], lmax)
    got = gs.filter_analysis(G, bank, F, method="chebyshev", order=order)
    want = dense_polynomial(G.L.toarray() / lmax, a) @ F
    assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


def _block_sizes(order, drawn):
    """Term-buffer sizes that split a series of ``order + 1`` terms: two, the
    smallest that does not divide ``order + 1`` and one drawn size."""
    odd = [b for b in range(3, order + 1) if (order + 1) % b]
    return sorted({2, drawn, *odd[:1]})


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_bank_in_several_term_blocks(case, data):
    G, bank, F, order, rng = case
    lmax = gs.estimate_lmax(G)
    n, k, m = G.N, F.shape[1], len(bank)
    # Polynomial kernels of degree at most the order, so the series is exact
    # and dense matrix powers are the oracle.
    a = [rng.uniform(-1.0, 1.0, data.draw(st.integers(0, order)) + 1)
         for _ in range(m)]
    poly = gs.FilterBank(
        [gs.Kernel(lambda x, aj=aj: np.polynomial.polynomial.polyval(
            x / lmax, aj)) for aj in a], lmax)
    X = rng.standard_normal((n, m * k))
    dense = [dense_polynomial(G.L.toarray() / lmax, aj) for aj in a]
    want_a = np.hstack([P @ F for P in dense])
    want_s = sum(P @ X[:, j * k:(j + 1) * k] for j, P in enumerate(dense))

    def run():
        A = gs.filter_analysis(G, poly, F, method="chebyshev", order=order)
        S = gs.filter_synthesis(G, poly, X, method="chebyshev",
                                order=order).reshape(n, k)
        return A, S

    one_a, one_s = run()   # every term fits the default buffer
    for size in _block_sizes(order, data.draw(st.integers(2, order + 1))):
        with mock.patch.object(filters, "_CHEB_BUFFER_BYTES",
                               size * 8 * n * k):
            got_a, got_s = run()
            coeffs = [gs.chebyshev_coeffs(kern, order, lmax) for kern in poly]
            loop_a = [gs.chebyshev_apply(G, c, F) for c in coeffs]
            loop_s = sum(gs.chebyshev_apply(G, c, B)
                         for c, B in zip(coeffs, np.hsplit(X, m)))
        for j in range(m):
            assert np.array_equal(got_a[:, j * k:(j + 1) * k], loop_a[j])
        for got, want in ((got_a, want_a), (got_s, want_s), (got_s, loop_s)):
            assert_allclose(got, want, rtol=0,
                            atol=1e-12 * max(np.abs(want).max(), 1.0))
        for got, one in ((got_a, one_a), (got_s, one_s)):
            assert_allclose(got, one, rtol=0, atol=1e-13 * np.abs(one).max())


def test_chebyshev_bank_on_no_columns():
    G = gs.sensor(20, seed=0)
    bank = gs.itersine(G, 3)
    # With no columns a term counts as 8 bytes, so these budgets hold 2, 4
    # and all 10 terms.
    for size in (2, 4, 10):
        with mock.patch.object(filters, "_CHEB_BUFFER_BYTES", 8 * size):
            A = gs.filter_analysis(G, bank, np.zeros((20, 0)),
                                   method="chebyshev", order=9)
            S = gs.filter_synthesis(G, bank, np.zeros((20, 0)),
                                    method="chebyshev", order=9)
        assert A.shape == S.shape == (20, 0)


_THREADS_SNIPPET = """
import hashlib, json
import numpy as np
import graphsig as gs
from graphsig import filters

G = gs.sensor(300, seed=0)
bank = gs.itersine(G, 8)
rng = np.random.default_rng(0)
digests = {}
for budget in (filters._CHEB_BUFFER_BYTES, 7 * 8 * 300 * 3):
    filters._CHEB_BUFFER_BYTES = budget
    for k in (1, 3):
        F = rng.standard_normal((300, k))
        A = gs.filter_analysis(G, bank, F, method="chebyshev", order=40)
        S = gs.filter_synthesis(G, bank, A, method="chebyshev", order=40)
        digests[f"{budget}-{k}"] = [hashlib.sha256(v.tobytes()).hexdigest()
                                    for v in (A, S)]
    c, _ = gs.solve_bpdn(G, bank, rng.standard_normal(300), lam=0.05,
                         max_iter=30, method="chebyshev", order=40)
    digests[f"{budget}-bpdn"] = hashlib.sha256(c.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def test_chebyshev_bits_do_not_depend_on_blas_threads(fresh_interpreter):
    # The bank's coefficient products go through BLAS; the sparse paths must
    # still give the same bits at any thread count, in one and in several
    # term blocks.
    assert fresh_interpreter(_THREADS_SNIPPET, threads=1) \
        == fresh_interpreter(_THREADS_SNIPPET, threads=2)


class _CountingOperator:
    """Stands in for ``G.L`` and counts the ``L @ v`` products."""

    def __init__(self, L):
        self.L = L
        self.products = 0

    def __matmul__(self, v):
        self.products += 1
        return self.L @ v


@PROPERTY_SETTINGS
@given(cases())
def test_chebyshev_cost_is_order_products_per_bank(case):
    G, bank, F, order, _ = case
    gs.estimate_lmax(G)
    counter = G.L = _CountingOperator(G.L)
    C = gs.filter_analysis(G, bank, F, method="chebyshev", order=order)
    assert counter.products == order
    counter.products = 0
    gs.filter_synthesis(G, bank, C, method="chebyshev", order=order)
    assert counter.products == order


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from(["exact", "chebyshev"]), st.booleans(),
       st.sampled_from([1, 3]), st.sampled_from([0.0, 0.01, 0.1]))
def test_bpdn_matches_the_three_call_reference(case, method, use_mask, k,
                                               lam):
    G, bank, _, order, rng = case
    if method == "exact":
        gs.compute_fourier_basis(G)
    y = rng.standard_normal((G.N, k))
    mask = rng.random(G.N) < 0.7 if use_mask else None
    c, rep = gs.solve_bpdn(G, bank, y, lam=lam, mask=mask, max_iter=40,
                           tol=1e-9, method=method, order=order)
    step = 0.95 / optimize._bank_bounds(G, bank)[1]
    c_ref, history, f_ref, iterations = reference_bpdn(
        lambda X: gs.filter_analysis(G, bank, X, method=method, order=order),
        lambda C: gs.filter_synthesis(G, bank, C, method=method,
                                      order=order).reshape(G.N, -1),
        y, lam, step, mask=mask, max_iter=40, tol=1e-9)
    assert rep.iterations == iterations
    assert_allclose(c, c_ref, rtol=0, atol=1e-12 * np.abs(c_ref).max())
    # Relative to the objective at c = 0: with lam = 0 the objective falls
    # to ~1e-11 while the residual's roundoff stays near 1e-16 * |y|.
    scale = history[0]
    assert abs(rep.objective - f_ref) <= 1e-12 * scale
    h = rep.objective_history
    assert all(b <= a for a, b in zip(h, h[1:]))
    if k == 1:
        assert_allclose(h, history, rtol=0, atol=1e-12 * scale)


def _window(lo, hi, rng, hole=None):
    """A kernel that is nonzero exactly on ``[lo, hi]`` outside ``hole``."""
    amp, freq, phase = rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0), \
        rng.uniform(0.0, 6.3)

    def fn(x):
        inside = (x >= lo) & (x <= hi)
        if hole is not None:
            inside &= (x < hole[0]) | (x > hole[1])
        return np.where(inside, amp * (1.5 + np.cos(freq * x + phase)), 0.0)
    return gs.Kernel(fn)


@st.composite
def band_cases(draw):
    """A graph with its basis, and a shuffled bank of kernels with random
    supports: random windows (some of full support), one zero at every
    eigenvalue, one with zeros inside its band and one nonzero at a single
    eigenvalue.  Returns the index of the zero kernel too."""
    n = draw(st.integers(8, 48))
    G = gs.sensor(n, seed=draw(st.integers(0, 10_000)))
    e = gs.compute_fourier_basis(G).e
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    kernels = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = (0, n - 1) if draw(st.booleans()) else sorted(
            draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        kernels.append(_window(e[a], e[b], rng))
    a = draw(st.integers(0, n - 3))
    b = draw(st.integers(a + 2, n - 1))
    mid = draw(st.integers(a + 1, b - 1))
    kernels.append(_window(e[a], e[b], rng, hole=(e[mid], e[mid])))
    single = draw(st.integers(0, n - 1))
    kernels.append(_window(e[single], e[single], rng))
    kernels.append(gs.Kernel(np.zeros_like))
    order = draw(st.permutations(range(len(kernels))))
    bank = gs.FilterBank([kernels[i] for i in order], float(e[-1]) or 1.0)
    return G, bank, order.index(len(kernels) - 1), rng


@PROPERTY_SETTINGS
@given(band_cases(), st.sampled_from([1, 3]))
def test_exact_bands_match_dense_filters(case, k):
    G, bank, zero, rng = case
    S = gs.compute_fourier_basis(G)
    filters = dense_bank(S.U, bank.evaluate(S.e))
    F = rng.standard_normal((G.N, k))
    C = rng.standard_normal((G.N, len(bank) * k))
    AF = gs.filter_analysis(G, bank, F, method="exact")
    AtC = gs.filter_synthesis(G, bank, C, method="exact").reshape(F.shape)
    want_a = np.hstack([T @ F for T in filters])
    want_s = sum(T @ C[:, j * k:(j + 1) * k] for j, T in enumerate(filters))
    assert_allclose(AF, want_a, rtol=0, atol=1e-12 * np.abs(want_a).max())
    assert_allclose(AtC, want_s, rtol=0, atol=1e-12 * np.abs(want_s).max())
    assert np.all(AF[:, zero * k:(zero + 1) * k] == 0.0)
    lhs, rhs = np.sum(AF * C), np.sum(F * AtC)
    scale = np.linalg.norm(AF) * np.linalg.norm(C) \
        + np.linalg.norm(F) * np.linalg.norm(AtC)
    assert abs(lhs - rhs) <= 1e-12 * scale
