"""Differential operators: weighted incidence, gradient and divergence.

The incidence operator maps vertex signals to edge signals; each edge row is
``sqrt(w) * (indicator(j) - indicator(i))``.  Its transpose maps back, and
for an undirected graph the composition reproduces the combinatorial
Laplacian exactly: ``div(grad(f)) == L @ f``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, _as_signal, _check_graph


@dataclass
class IncidenceOperator:
    """Edge list plus the sparse gradient matrix built from it.

    Attributes:
        edges: ``(Ne, 2)`` integer array of vertex pairs, one row per edge.
            For undirected graphs these are the upper-triangle entries in
            row-major order with ``i < j``; for directed graphs every nonzero
            weight contributes its (source, target) pair.
        weights: Edge weights matching ``edges``.
        D: Sparse ``(Ne, N)`` gradient matrix.
    """

    edges: np.ndarray
    weights: np.ndarray
    D: sp.csr_array


def incidence(G: Graph) -> IncidenceOperator:
    """Build (or fetch the cached) incidence operator of a graph."""
    if _check_graph(G)._incidence is not None:
        return G._incidence
    coo = (G.W if G.directed else sp.triu(G.W, k=1)).tocoo()
    order = np.lexsort((coo.col, coo.row))
    src, dst, w = coo.row[order], coo.col[order], coo.data[order]
    ne = src.size
    root = np.sqrt(w)
    rows = np.repeat(np.arange(ne), 2)
    cols = np.empty(2 * ne, dtype=int)
    cols[0::2] = src
    cols[1::2] = dst
    vals = np.empty(2 * ne)
    vals[0::2] = -root
    vals[1::2] = root
    D = sp.csr_array(sp.coo_array((vals, (rows, cols)),
                                  shape=(ne, G.N)))
    op = IncidenceOperator(edges=np.column_stack([src, dst]),
                           weights=w, D=D)
    G._incidence = op
    return op


def grad(G: Graph, f) -> np.ndarray:
    """Graph gradient: differences ``sqrt(w_ij) * (f[j] - f[i])`` per edge."""
    return incidence(G).D @ _as_signal(G, f)


def div(G: Graph, s) -> np.ndarray:
    """Graph divergence, the adjoint of :func:`grad`.

    Takes an edge signal of length ``Ne`` (or a matrix of such columns).
    """
    D = incidence(G).D
    return D.T @ _as_signal(D.shape[0], s, "edge signal")
