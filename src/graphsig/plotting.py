"""Deterministic SVG and DOT text export.

No plotting toolkit is involved: the exporters emit SVG 1.1 / Graphviz text
directly, with fixed attribute order and fixed-precision numbers, so the same
graph and signal always produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .exceptions import BadParameter, MissingCoordinates
from .filters import FilterBank
from .graphs import (Graph, _as_1d_signal, _check_graph, _check_int,
                     _check_real, _check_type)
from .operators import incidence

#: Perceptually ordered dark-to-bright map used for vertex colors.
VIRIDIS_STOPS: Tuple[Tuple[float, Tuple[int, int, int]], ...] = (
    (0.00, (68, 1, 84)),
    (0.14, (70, 50, 127)),
    (0.29, (54, 92, 141)),
    (0.43, (39, 127, 142)),
    (0.57, (31, 161, 135)),
    (0.71, (74, 194, 109)),
    (0.86, (159, 218, 58)),
    (1.00, (253, 231, 37)),
)

GRAY_STOPS: Tuple[Tuple[float, Tuple[int, int, int]], ...] = (
    (0.0, (20, 20, 20)),
    (1.0, (235, 235, 235)),
)

COLORMAPS = {"viridis": VIRIDIS_STOPS, "gray": GRAY_STOPS}

#: Line colors for filter curves, cycled.
CURVE_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
                 "#b279a2", "#9d755d", "#eeca3b", "#bab0ac", "#ff9da6")


@dataclass
class PlotStyle:
    """Knobs for the SVG exporters.

    Unknown colormap names raise at use, not at construction, so a style can
    be built before the map registry is consulted.
    """

    width: int = 800
    height: int = 600
    vertex_radius: float = 5.0
    edge_width: float = 1.0
    colormap: str = "viridis"
    background: str = "#ffffff"
    font_size: float = 12

    def __post_init__(self):
        self.width = _check_int("width", self.width, minimum=50)
        self.height = _check_int("height", self.height, minimum=50)
        _check_real("vertex_radius", self.vertex_radius, positive=True)
        _check_real("edge_width", self.edge_width, positive=True)
        _check_real("font_size", self.font_size, positive=True)

    @classmethod
    def for_graph(cls, G: Graph) -> "PlotStyle":
        """Default style, overridden by keys in ``G.plotting``."""
        kwargs = {}
        mapping = {"vertex_size": "vertex_radius", "edge_width": "edge_width",
                   "colormap": "colormap"}
        for src, dst in mapping.items():
            if src in _check_graph(G).plotting:
                kwargs[dst] = G.plotting[src]
        return cls(**kwargs)

    def stops(self):
        try:
            return COLORMAPS[self.colormap]
        except KeyError:
            raise BadParameter(
                f"unknown colormap {self.colormap!r}; choose from "
                f"{sorted(COLORMAPS)}") from None


def _hex_at(stops, t: float) -> str:
    """Piecewise-linear color lookup, t clipped to [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(stops, stops[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % stops[-1][1]


def _f(v: float) -> str:
    """Fixed-precision coordinate formatting (byte determinism)."""
    return f"{float(v):.3f}"


def _scale_points(coords: np.ndarray, box: Tuple[float, float, float, float]):
    """Map raw coordinates into a pixel box, y up -> SVG y down."""
    x0, y0, w, h = box
    xs, ys = coords[:, 0], coords[:, 1]
    xr = xs.max() - xs.min()
    yr = ys.max() - ys.min()
    px = x0 + (w / 2.0 if xr == 0 else (xs - xs.min()) / xr * w)
    py = y0 + (h / 2.0 if yr == 0 else (ys.max() - ys) / yr * h)
    return np.broadcast_to(px, xs.shape).astype(float), \
        np.broadcast_to(py, ys.shape).astype(float)


def export_graph_svg(G: Graph, signal=None, style: Optional[PlotStyle] = None,
                     path=None) -> str:
    """Render a graph (optionally colored by a signal) as an SVG document.

    Edges are drawn under vertices; with a signal, vertices are colored
    through the style's colormap and a labeled colorbar is added on the
    right.  Output is deterministic down to the byte.

    Args:
        G: Graph with 2-D or 3-D coordinates (3-D drops the last axis).
        signal: Optional vertex values, length ``N``.
        style: Optional :class:`PlotStyle`; defaults honour ``G.plotting``.
        path: Optional file path; when given the text is also written there.

    Raises:
        BadParameter: ``G`` is not a :class:`Graph`.
        MissingCoordinates: The graph has no coordinates.
        ShapeMismatch: The signal is not 1-D of length ``N``.
        NonFiniteValue: The signal holds NaN or infinite entries.
    """
    if _check_graph(G).coords is None:
        raise MissingCoordinates(
            "graph has no coordinates; attach coords or use export_graph_dot")
    st = style or PlotStyle.for_graph(G)
    stops = st.stops()
    coords = np.asarray(G.coords, dtype=float)[:, :2]
    vals = None if signal is None else _as_1d_signal(G.N, signal)

    bar_w = 56 if vals is not None else 0
    margin = max(20.0, st.vertex_radius * 2.0 + 8.0)
    box = (margin, margin, st.width - 2 * margin - bar_w,
           st.height - 2 * margin)
    px, py = _scale_points(coords, box)

    if vals is not None:
        vmin, vmax = float(vals.min()), float(vals.max())
        if vmax > vmin:
            t = (vals - vmin) / (vmax - vmin)
        else:
            t = np.full(G.N, 0.5)
        fills = [_hex_at(stops, ti) for ti in t]
    else:
        fills = [_hex_at(stops, 0.45)] * G.N

    lines = _svg_head(st, f"{_escape(G.name or 'graph')}: {G.N} vertices, "
                          f"{G.Ne} edges")

    edges = incidence(G).edges
    lines.append(f'<g stroke="#9b9b9b" stroke-width="{_f(st.edge_width)}" '
                 'stroke-linecap="round">')
    for i, j in edges:
        lines.append(f'<line x1="{_f(px[i])}" y1="{_f(py[i])}" '
                     f'x2="{_f(px[j])}" y2="{_f(py[j])}"/>')
    lines.append("</g>")

    lines.append('<g stroke="#2f2f2f" stroke-width="0.500">')
    for i in range(G.N):
        lines.append(f'<circle cx="{_f(px[i])}" cy="{_f(py[i])}" '
                     f'r="{_f(st.vertex_radius)}" fill="{fills[i]}"/>')
    lines.append("</g>")

    if vals is not None:
        gx = st.width - margin - bar_w + 16
        gy, gh, gw = margin, st.height - 2 * margin, 14
        lines.append("<defs>")
        lines.append('<linearGradient id="cbar" x1="0" y1="1" x2="0" y2="0">')
        for pos, rgb in stops:
            lines.append(f'<stop offset="{_f(pos)}" '
                         f'stop-color="#%02x%02x%02x"/>' % rgb)
        lines.append("</linearGradient>")
        lines.append("</defs>")
        lines.append(f'<rect x="{_f(gx)}" y="{_f(gy)}" width="{_f(gw)}" '
                     f'height="{_f(gh)}" fill="url(#cbar)" '
                     'stroke="#2f2f2f" stroke-width="0.500"/>')
        lines.append(
            f'<text x="{_f(gx + gw + 4)}" y="{_f(gy + 5)}" '
            f'font-family="sans-serif" font-size="{st.font_size}" '
            f'fill="#2f2f2f">{vmax:.4g}</text>')
        lines.append(
            f'<text x="{_f(gx + gw + 4)}" y="{_f(gy + gh)}" '
            f'font-family="sans-serif" font-size="{st.font_size}" '
            f'fill="#2f2f2f">{vmin:.4g}</text>')

    lines.append("</svg>")
    return _emit(lines, path)


def _escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _svg_head(st: PlotStyle, desc: str) -> List[str]:
    """An SVG document's first lines: the canvas, ``desc`` and background."""
    return ['<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{st.width}" height="{st.height}" '
            f'viewBox="0 0 {st.width} {st.height}">',
            f"<desc>{desc}</desc>",
            f'<rect x="0" y="0" width="{st.width}" height="{st.height}" '
            f'fill="{st.background}"/>']


def _emit(lines: List[str], path) -> str:
    """An exporter's text from its lines, also written to ``path`` if given."""
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def export_filter_svg(bank: FilterBank, lmax: Optional[float] = None,
                      grid_size: int = 500,
                      style: Optional[PlotStyle] = None, path=None) -> str:
    """Plot a filter bank's spectral responses as an SVG document.

    Each kernel is one polyline; the dashed gray curve is the summed squared
    response whose flatness shows frame tightness at a glance.

    Args:
        bank: The filter bank.
        lmax: Right end of the abscissa, default the bank's own.
        grid_size: Evaluation points, at least 2.
        style: Optional :class:`PlotStyle`.
        path: Optional output file path.
    """
    _check_type("bank", bank, FilterBank)
    grid_size = _check_int("grid_size", grid_size, minimum=2)
    st = style or PlotStyle(width=720, height=420)
    lm = _check_real("lmax", bank.lmax if lmax is None else lmax,
                     positive=True)
    x = np.linspace(0.0, lm, grid_size)
    curves = bank.evaluate(x)
    total = (curves ** 2).sum(axis=0)
    ymax = max(1.0, float(curves.max()), float(total.max())) * 1.05

    ml, mr, mt, mb = 54.0, 16.0, 16.0, 42.0
    pw, ph = st.width - ml - mr, st.height - mt - mb

    def sx(v):
        return ml + v / lm * pw

    def sy(v):
        return mt + (1.0 - v / ymax) * ph

    lines = _svg_head(st, f"filter bank: {len(bank)} kernels on "
                          f"[0, {lm:.6g}]")

    # Axes and ticks.
    lines.append('<g stroke="#2f2f2f" stroke-width="1.000">')
    lines.append(f'<line x1="{_f(ml)}" y1="{_f(mt + ph)}" '
                 f'x2="{_f(ml + pw)}" y2="{_f(mt + ph)}"/>')
    lines.append(f'<line x1="{_f(ml)}" y1="{_f(mt)}" '
                 f'x2="{_f(ml)}" y2="{_f(mt + ph)}"/>')
    lines.append("</g>")
    lines.append(f'<g font-family="sans-serif" font-size="{st.font_size}" '
                 'fill="#2f2f2f">')
    for tv in np.linspace(0.0, lm, 5):
        lines.append(f'<text x="{_f(sx(tv) - 10)}" y="{_f(mt + ph + 16)}">'
                     f"{tv:.3g}</text>")
    for tv in np.linspace(0.0, ymax, 5):
        lines.append(f'<text x="{_f(4)}" y="{_f(sy(tv) + 4)}">'
                     f"{tv:.3g}</text>")
    lines.append("</g>")

    def polyline(ys, color, dashed=False, label=""):
        pts = " ".join(f"{_f(sx(xi))},{_f(sy(max(yi, 0.0)))}"
                       for xi, yi in zip(x, ys))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        return (f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="1.500"{dash} points="{pts}">'
                f"<title>{_escape(label)}</title></polyline>")

    lines.append(polyline(total, "#8a8a8a", dashed=True,
                          label="sum of squared responses"))
    for idx in range(curves.shape[0]):
        color = CURVE_PALETTE[idx % len(CURVE_PALETTE)]
        lines.append(polyline(curves[idx], color,
                              label=bank[idx].label or f"kernel {idx}"))
    lines.append("</svg>")
    return _emit(lines, path)


def export_graph_dot(G: Graph, path=None) -> str:
    """Emit the graph in Graphviz DOT form.

    Undirected graphs use ``graph``/``--``, directed ones ``digraph``/``->``;
    every edge carries its weight attribute and isolated vertices appear as
    bare node statements so no vertex is lost.
    """
    op = incidence(G)
    arrow = "->" if G.directed else "--"
    head = "digraph" if G.directed else "graph"
    body: List[str] = [f"{head} {{"]
    seen = np.zeros(G.N, dtype=bool)
    if op.edges.size:
        seen[op.edges[:, 0]] = True
        seen[op.edges[:, 1]] = True
    for i in np.flatnonzero(~seen):
        body.append(f"  {i};")
    for (i, j), w in zip(op.edges, op.weights):
        body.append(f"  {i} {arrow} {j} [weight={w:.12g}];")
    body.append("}")
    return _emit(body, path)
