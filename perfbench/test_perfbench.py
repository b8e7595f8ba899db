"""Tests for the benchmark's own machinery: tracer, self time, statistics."""

import sys
import types

import numpy as np
import pytest

import layers
import spans


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def fake_package(monkeypatch):
    """A ``fakepkg`` package whose submodule re-exports its function."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x + 1)

    mod.inner, mod.outer = inner, outer
    pkg.inner = inner               # like ``from .work import inner``
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.work", mod)
    return pkg, mod


def test_self_time_of_nested_spans(monkeypatch):
    pkg, mod = fake_package(monkeypatch)
    clock = ScriptedClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer({"work.outer": (mod, "outer"),
                           "work.inner": (mod, "inner")}, "fakepkg",
                          clock=clock)
    with tracer.installed():
        assert mod.outer(1) == 3
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (outer.id, outer.id, None)
    own = spans.self_times(tracer.spans)
    assert own == {outer.id: 5.0, first.id: 2.0, second.id: 3.0}
    totals = spans.layer_totals(tracer.spans, ["work.outer", "work.inner",
                                               "work.unused"])
    assert totals["work.inner.calls"] == 2
    assert totals["work.inner.total_s"] == 5.0
    assert totals["work.outer.self_s"] == 5.0
    assert totals["work.unused.calls"] == 0


def test_wrappers_restored_and_failed_span_marked(monkeypatch):
    pkg, mod = fake_package(monkeypatch)
    original = mod.inner
    tracer = spans.Tracer({"work.inner": (mod, "inner")}, "fakepkg")
    with pytest.raises(ValueError):
        with tracer.installed():
            assert pkg.inner is not original and mod.inner is not original
            pkg.inner(-1)
    assert pkg.inner is original and mod.inner is original
    (span,) = tracer.spans
    assert span.failed and span.end is not None


def test_graphsig_bindings_restored_after_a_raising_op():
    import graphsig
    targets = layers.targets()
    modules = [m for name, m in sys.modules.items()
               if name == "graphsig" or name.startswith("graphsig.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
              if callable(v)}
    tracer = spans.Tracer(targets, layers.PACKAGE, layers.COUNTERS)
    G = graphsig.ring(12)
    coeffs = graphsig.chebyshev_coeffs(lambda x: np.exp(-x), 5, 4.0)
    with pytest.raises(graphsig.GraphSigError):
        with tracer.installed():
            assert graphsig.optimize.filter_analysis is not \
                before[("graphsig.optimize", "filter_analysis")]
            graphsig.chebyshev_apply(G, coeffs, np.ones((12, 3)))
            graphsig.chebyshev_apply(G, coeffs, np.ones(5))   # wrong length
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
             if callable(v)}
    assert after == before
    assert [s.failed for s in tracer.spans] == [False, True]
    # One sparse product per order and column, counted for the good call only.
    assert tracer.counts == {"filters.chebyshev_apply.matvec_cols": 15}


def test_percentile_and_ops_per_second():
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert spans.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert spans.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert spans.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)
    assert spans.ops_per_second(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        spans.ops_per_second(3, 0.0)
