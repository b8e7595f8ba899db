"""Graph families: deterministic shapes, random models and point-cloud graphs.

All random families take a ``seed``, an integer ``>= 0`` (anything else
raises ``BadParameter``), and draw every sample from
``numpy.random.default_rng(seed)``; the same seed therefore reproduces the
same graph bit for bit, and no global random state is touched.

Sizes and probabilities are refused with their own error types: a vertex
count (``n``, ``rows``, ``cols``, ``star_degree``) that is not an integer of
at least the family's minimum raises ``SizeTooSmall``, and an edge
probability that is not a real number in [0, 1] raises ``BadProbability``.
Other counts (``k``, ``patch_size``, block sizes, ``n_communities``,
``tail_length``) and real parameters raise ``BadParameter``.  A float is
never truncated and a bool never read as a number.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    BadParameter,
    BadProbability,
    BlockSizeMismatch,
    DegenerateCloud,
    KTooLarge,
    PatchLargerThanImage,
    SizeTooSmall,
)
from .graphs import Graph, _check_int, _check_real, graph_from_weights


def _undirected(rows, cols, vals, n, **kwargs) -> Graph:
    """Assemble an undirected graph from one triangle of its edge list."""
    W = sp.coo_array((vals, (rows, cols)), shape=(n, n))
    W = sp.csr_array(W + W.T)
    return graph_from_weights(W, directed=False, **kwargs)


# ---------------------------------------------------------------------------
# Deterministic families
# ---------------------------------------------------------------------------

def ring(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices, unit weights, vertices on the unit circle."""
    n = _check_int("n", n, minimum=3, error=SizeTooSmall)
    i = np.arange(n)
    theta = 2.0 * np.pi * i / n
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return _undirected(i, (i + 1) % n, np.ones(n), n,
                       name=f"ring({n})", coords=coords)


def path(n: int) -> Graph:
    """Path on ``n >= 2`` vertices laid out on the x axis."""
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    i = np.arange(n - 1)
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return _undirected(i, i + 1, np.ones(n - 1), n,
                       name=f"path({n})", coords=coords)


def comet(tail_length: int, star_degree: int) -> Graph:
    """Star of ``star_degree`` leaves with a path of ``tail_length`` attached.

    Vertex 0 is the center, vertices ``1..star_degree`` are the leaves, and
    the remaining vertices form the tail, walking away from the center.
    """
    star_degree = _check_int("star_degree", star_degree, minimum=1,
                             error=SizeTooSmall)
    tail_length = _check_int("tail_length", tail_length, minimum=0)
    n = 1 + star_degree + tail_length
    rows = [np.zeros(star_degree, dtype=int)]
    cols = [np.arange(1, star_degree + 1)]
    if tail_length:
        t = np.arange(tail_length)
        tail = star_degree + 1 + t
        prev = np.concatenate([[0], tail[:-1]])
        rows.append(prev)
        cols.append(tail)
    # Leaves fan out on the left half circle, the tail runs along +x.
    coords = np.zeros((n, 2))
    ang = np.pi / 2 + np.pi * (np.arange(star_degree) + 1) / (star_degree + 1)
    coords[1:star_degree + 1, 0] = np.cos(ang)
    coords[1:star_degree + 1, 1] = np.sin(ang)
    if tail_length:
        coords[star_degree + 1:, 0] = np.arange(1, tail_length + 1)
    vals = np.ones(star_degree + tail_length)
    return _undirected(np.concatenate(rows), np.concatenate(cols), vals, n,
                       name=f"comet({tail_length},{star_degree})",
                       coords=coords)


def grid2d(rows: int, cols: int) -> Graph:
    """Four-connected ``rows x cols`` lattice with unit weights."""
    rows = _check_int("rows", rows, minimum=1, error=SizeTooSmall)
    cols = _check_int("cols", cols, minimum=1, error=SizeTooSmall)
    if rows * cols < 2:
        raise SizeTooSmall(f"grid2d needs at least 2 vertices, got "
                           f"{rows}x{cols}")
    idx = np.arange(rows * cols).reshape(rows, cols)
    r_list, c_list = [], []
    if cols > 1:
        r_list.append(idx[:, :-1].ravel())
        c_list.append(idx[:, 1:].ravel())
    if rows > 1:
        r_list.append(idx[:-1, :].ravel())
        c_list.append(idx[1:, :].ravel())
    rr = np.concatenate(r_list)
    cc = np.concatenate(c_list)
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    coords = np.column_stack([jj.ravel().astype(float),
                              (rows - 1 - ii).ravel().astype(float)])
    return _undirected(rr, cc, np.ones(rr.size), rows * cols,
                       name=f"grid2d({rows},{cols})", coords=coords)


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the n(n-1)/2 possible edges present with probability p."""
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    p = _check_real("p", p, maximum=1.0, error=BadProbability)
    rng = np.random.default_rng(_check_int("seed", seed, minimum=0))
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(rows.size) < p
    return _undirected(rows[mask], cols[mask], np.ones(int(mask.sum())), n,
                       name=f"erdos_renyi({n},{p:g})")


def sbm(block_sizes, p_in: float, p_out: float, seed: int = 0,
        n: Optional[int] = None) -> Graph:
    """Stochastic block model.

    Args:
        block_sizes: Sequence of positive block sizes.
        p_in: Edge probability inside a block.
        p_out: Edge probability across blocks.
        seed: RNG seed.
        n: Optional total vertex count; must equal ``sum(block_sizes)``.

    Raises:
        BadParameter: A block size is not an integer ``>= 1``, or ``n`` is
            not an integer.
        BlockSizeMismatch: If ``n`` is given and disagrees with the sizes.
        BadProbability: If either probability is outside [0, 1].
    """
    sizes = [_check_int("block size", s, minimum=1)
             for s in (block_sizes if np.iterable(block_sizes) else [])]
    if not sizes:
        raise BadParameter(
            f"block sizes must be a nonempty sequence, got {block_sizes!r}")
    total = sum(sizes)
    if n is not None and _check_int("n", n) != total:
        raise BlockSizeMismatch(
            f"block sizes sum to {total}, but n={n} was requested")
    if total < 2:
        raise SizeTooSmall("sbm needs at least 2 vertices")
    p_in = _check_real("p_in", p_in, maximum=1.0, error=BadProbability)
    p_out = _check_real("p_out", p_out, maximum=1.0, error=BadProbability)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(_check_int("seed", seed, minimum=0))
    rows, cols = np.triu_indices(total, k=1)
    prob = np.where(labels[rows] == labels[cols], p_in, p_out)
    mask = rng.random(rows.size) < prob
    return _undirected(rows[mask], cols[mask], np.ones(int(mask.sum())),
                       total, name=f"sbm({sizes},{p_in:g},{p_out:g})")


#: Default within-community edge probability for :func:`community`.
COMMUNITY_P_IN = 0.7
#: Default across-community edge probability for :func:`community`.
COMMUNITY_P_OUT = 0.02


def community(n: int, n_communities: int = 4, seed: int = 0,
              p_in: float = COMMUNITY_P_IN,
              p_out: float = COMMUNITY_P_OUT) -> Graph:
    """Clustered random graph: a block model with dense, near-equal blocks.

    ``n`` vertices are split into ``n_communities`` blocks whose sizes differ
    by at most one, wired with probability ``p_in`` inside a block and
    ``p_out`` across blocks.
    """
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    n_communities = _check_int("n_communities", n_communities, minimum=1)
    if n_communities > n:
        raise BadParameter(
            f"cannot split {n} vertices into {n_communities} communities")
    base = n // n_communities
    sizes = [base + (1 if i < n % n_communities else 0)
             for i in range(n_communities)]
    G = sbm(sizes, p_in, p_out, seed=seed)
    G.name = f"community({n},{n_communities})"
    return G


def sensor(n: int, seed: int = 0, k: int = 6) -> Graph:
    """Random sensor network: uniform points in the unit square, kNN edges."""
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    rng = np.random.default_rng(_check_int("seed", seed, minimum=0))
    pts = rng.random((n, 2))
    return nn_graph(pts, k=min(k, n - 1), name=f"sensor({n})")


def swiss_roll(n: int, seed: int = 0, noise: float = 0.0, k: int = 5) -> Graph:
    """Spiral sheet in 3-D, rescaled to unit radius, connected by kNN.

    The roll winds through 1.5 turns; ``noise`` is the standard deviation of
    Gaussian jitter added after rescaling.
    """
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    noise = _check_real("noise", noise)
    rng = np.random.default_rng(_check_int("seed", seed, minimum=0))
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
    height = rng.random(n)
    pts = np.column_stack([t * np.cos(t), height * 21.0, t * np.sin(t)])
    pts /= np.max(np.linalg.norm(pts, axis=1))
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
    return nn_graph(pts, k=min(k, n - 1), name=f"swiss_roll({n})")


def two_moons(n: int, seed: int = 0, noise: float = 0.05,
              radius: float = 1.0, k: int = 5) -> Graph:
    """Two interleaved half circles with Gaussian jitter, connected by kNN."""
    n = _check_int("n", n, minimum=2, error=SizeTooSmall)
    radius = _check_real("radius", radius, positive=True)
    noise = _check_real("noise", noise)
    rng = np.random.default_rng(_check_int("seed", seed, minimum=0))
    n_top = n // 2
    n_bot = n - n_top
    t_top = np.pi * rng.random(n_top)
    t_bot = np.pi * rng.random(n_bot)
    top = radius * np.column_stack([np.cos(t_top), np.sin(t_top)])
    bot = radius * np.column_stack([1.0 - np.cos(t_bot),
                                    0.5 - np.sin(t_bot)])
    pts = np.vstack([top, bot])
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
    return nn_graph(pts, k=min(k, n - 1), name=f"two_moons({n})")


# ---------------------------------------------------------------------------
# Point clouds and images
# ---------------------------------------------------------------------------

def _knn_weights(features: np.ndarray, k: int, sigma: Optional[float]):
    """Symmetrized kNN weights ``exp(-dist^2 / sigma^2)``; returns
    ``(W, sigma)``, with ``sigma`` inferred when ``None``."""
    m = features.shape[0]
    k = _check_int("k", k, minimum=1)
    if k >= m:
        raise KTooLarge(f"k={k} but there are only {m - 1} other points")
    # Imported here: scipy.spatial, with the scipy.special it loads, adds
    # about 0.13 s to start-up, and only the point-cloud generators use it.
    from scipy.spatial import cKDTree
    dist, idx = cKDTree(features).query(features, k=k + 1)
    # Drop each point's self-match.  Among repeated points the query may not
    # return the point itself; such a row drops its farthest neighbour.
    keep = idx != np.arange(m)[:, None]
    keep[keep.all(axis=1), -1] = False
    cols, dists = idx[keep], dist[keep]
    if sigma is None:
        # Width from the data: mean distance to the k-th neighbour.  Every
        # row keeps exactly k entries, so the reshape is safe.
        sigma = float(dists.reshape(m, k)[:, -1].mean())
        if sigma <= 0:
            raise DegenerateCloud(
                "all neighbour distances are zero; give sigma explicitly")
    vals = np.exp(-(dists / sigma) ** 2)
    W = sp.coo_array((vals, (np.repeat(np.arange(m), k), cols)),
                     shape=(m, m)).tocsr()
    return W.maximum(W.T), float(sigma)


def nn_graph(points, k: Optional[int] = None, epsilon: Optional[float] = None,
             sigma: Optional[float] = None, name: str = "") -> Graph:
    """Nearest-neighbour graph over a point cloud.

    Exactly one of ``k`` (symmetrized k-nearest-neighbour connectivity) or
    ``epsilon`` (all pairs within that radius) must be given.  Edge weights
    are ``exp(-dist^2 / sigma^2)``; when ``sigma`` is omitted it is inferred
    from the data (mean k-th-neighbour distance, or mean distance over the
    selected pairs in radius mode).

    The first two or three feature columns double as vertex coordinates.

    Raises:
        BadParameter: Neither or both of ``k`` / ``epsilon`` given.
        KTooLarge: ``k`` not smaller than the number of points.
        DegenerateCloud: Automatic ``sigma`` came out zero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise BadParameter(f"points must be (M>=2, dim), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise BadParameter("points contain NaN or infinite entries")
    if (k is None) == (epsilon is None):
        raise BadParameter("give exactly one of k= or epsilon=")
    if sigma is not None:
        sigma = _check_real("sigma", sigma, positive=True)
    m = pts.shape[0]

    if k is not None:
        W, used_sigma = _knn_weights(pts, k, sigma)
    else:
        epsilon = _check_real("epsilon", epsilon, positive=True)
        from scipy.spatial import cKDTree
        tree = cKDTree(pts)
        pairs = tree.query_pairs(epsilon, output_type="ndarray")
        if pairs.size:
            dists = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
            if sigma is None:
                used_sigma = float(dists.mean())
                if used_sigma <= 0:
                    raise DegenerateCloud(
                        "all selected pair distances are zero; give sigma "
                        "explicitly")
            else:
                used_sigma = sigma
            vals = np.exp(-(dists / used_sigma) ** 2)
            W = sp.coo_array((vals, (pairs[:, 0], pairs[:, 1])),
                             shape=(m, m)).tocsr()
            W = sp.csr_array(W + W.T)
        else:
            W = sp.csr_array((m, m))
            used_sigma = sigma if sigma is not None else 0.0

    coords = pts[:, :3] if pts.shape[1] >= 3 else pts[:, :2]
    if pts.shape[1] < 2:
        coords = np.column_stack([pts[:, 0], np.zeros(m)])
    G = graph_from_weights(W, directed=False, name=name or f"nn_graph({m})",
                           coords=coords)
    G.plotting["sigma"] = used_sigma
    return G


def patch_graph(image, patch_size: int = 5, k: int = 10,
                sigma: Optional[float] = None,
                search_window: Optional[int] = None) -> Graph:
    """Non-local-means style pixel graph of an image.

    Every pixel becomes a vertex whose feature vector is the flattened
    ``patch_size x patch_size`` patch around it (symmetric padding at the
    borders).  Vertices are wired to their ``k`` nearest neighbours in patch
    space with Gaussian weights.  With ``search_window`` set, pixel positions
    scaled by ``sqrt(patch_dim) / search_window`` are appended to the
    features, so that a displacement of one window length costs as much as a
    full-contrast patch difference and far-away matches are suppressed.

    Args:
        image: 2-D grayscale or 3-D (H, W, channels) array.
        patch_size: Odd patch side, at least 1.
        k: Neighbours per pixel.
        sigma: Gaussian width; inferred from the data when omitted.
        search_window: Optional locality scale in pixels.

    Returns:
        Undirected graph with one vertex per pixel; coordinates are pixel
        positions (column, row-from-bottom) so exports match the image.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise BadParameter(f"image must be 2-D or 3-D, got shape {img.shape}")
    h, w, ch = img.shape
    patch_size = _check_int("patch_size", patch_size, minimum=1)
    if patch_size % 2 == 0:
        raise BadParameter(f"patch_size must be odd and >= 1, got {patch_size}")
    if patch_size > h or patch_size > w:
        raise PatchLargerThanImage(
            f"patch {patch_size}x{patch_size} does not fit in a "
            f"{h}x{w} image")
    if search_window is not None:
        search_window = _check_real("search_window", search_window,
                                    positive=True)

    pad = patch_size // 2
    padded = np.pad(img, ((pad, pad), (pad, pad), (0, 0)), mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (patch_size, patch_size), axis=(0, 1))
    feats = windows.reshape(h * w, ch * patch_size * patch_size)

    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    if search_window is not None:
        scale = np.sqrt(feats.shape[1]) / search_window
        feats = np.column_stack([feats,
                                 scale * cc.ravel(), scale * rr.ravel()])

    W, used_sigma = _knn_weights(np.ascontiguousarray(feats), k, sigma)
    coords = np.column_stack([cc.ravel().astype(float),
                              (h - 1 - rr).ravel().astype(float)])
    G = graph_from_weights(W, directed=False, coords=coords,
                           name=f"patch_graph({h}x{w})")
    G.plotting["sigma"] = used_sigma
    return G
