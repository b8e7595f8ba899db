"""One workload in one process: set up, time the ops, optionally trace.

Started by ``run.py`` with BLAS threads already pinned in the environment
and ``PYTHONPATH`` pointing at the checkout's ``src``.  Prints one JSON
record as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback

import numpy as np

import layers
import spans
from workloads import WORKLOADS


def measure(wl, gs, state, seed, seconds, tracer=None):
    """Run ops until ``seconds`` have passed and at least ``wl.min_ops`` ran.

    The digest covers the outputs of ops ``0 .. min_ops - 1`` in order, so
    every run of a seed hashes the same ops however many it completes.
    """
    times, failures, recon, gains = [], [], [], []
    digest = hashlib.sha256()
    attempted = 0
    start = time.perf_counter()
    while attempted < wl.min_ops or time.perf_counter() - start < seconds:
        i = attempted
        attempted += 1
        if tracer is not None:
            tracer.op = i
        try:
            inp = wl.inputs(state, seed, i)
            out, op_s = wl.run(gs, state, inp)
            chk = wl.check(state, inp, out)
        except Exception as exc:  # a failed op is counted, the run goes on
            failures.append(f"op {i}: {type(exc).__name__}: {exc}\n"
                            + traceback.format_exc(limit=3))
            continue
        if i < wl.min_ops:
            for a in chk.arrays:
                digest.update(np.ascontiguousarray(a).tobytes())
        if not chk.ok:
            failures.append(f"op {i}: {chk.reason}")
            continue
        times.append(op_s)
        if chk.recon_rel_err is not None:
            recon.append(chk.recon_rel_err)
        gains.extend(chk.snr_gains_db)
    return {"attempted": attempted, "failures": failures, "op_s": times,
            "phase_s": time.perf_counter() - start,
            "digest": digest.hexdigest(),
            "recon_rel_err": max(recon) if recon else None,
            "snr_gain_db": float(np.mean(gains)) if gains else None}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def traced_pass(cls, gs, seed, workdir, untraced_p50):
    """Set up and run ``min_ops`` ops again with every traced function wrapped."""
    tracer = spans.Tracer(layers.targets(), layers.PACKAGE, layers.COUNTERS)
    wl = cls(workdir)
    with tracer.installed():
        tracer.op = "setup"
        state = wl.setup(gs, seed)
        run = measure(wl, gs, state, seed, 0.0, tracer)
    metrics = spans.layer_totals(tracer.spans, layers.SPAN_NAMES)
    metrics.update({name: tracer.counts.get(name, 0)
                    for name in layers.COUNT_NAMES})
    if run["op_s"] and untraced_p50:
        metrics["trace.overhead_pct"] = 100.0 * (
            spans.percentile(run["op_s"], 50) / untraced_p50 - 1.0)
    return run, metrics, [s.as_dict() for s in tracer.spans]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding graphsig")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for module in cls.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    gs = sys.modules["graphsig"]
    expected = os.path.realpath(os.path.join(args.src, "graphsig"))
    if os.path.dirname(os.path.realpath(gs.__file__)) != expected:
        print(f"graphsig imported from {gs.__file__}, not {expected}",
              file=sys.stderr)
        return 3
    from graphsig.spectral import dense_cap

    record = {"workload": args.workload, "seed": args.seed,
              "env": {"python": platform.python_version(),
                      "numpy": np.__version__,
                      "scipy": sys.modules["scipy"].__version__,
                      "blas": blas_info(),
                      "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                      "graphsig_dense_cap": dense_cap()}}
    root = os.path.dirname(os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-work-") as work:
        wl = cls(os.path.join(work, "untraced"))
        setup_s = []
        for _ in range(cls.setup_reps):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = wl.setup(gs, args.seed)
            setup_s.append(time.perf_counter() - t0)
        run = measure(wl, gs, state, args.seed, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record.update(import_s=import_s, setup_reps_s=setup_s, run=run,
                      peak_rss_mb=rss_kb / 1024.0)
        if args.trace:
            state = None
            gc.collect()
            p50 = spans.percentile(run["op_s"], 50) if run["op_s"] else None
            traced, layer_metrics, span_dicts = traced_pass(
                cls, gs, args.seed, os.path.join(work, "traced"), p50)
            record.update(traced=traced, layers=layer_metrics)
            if args.spans_out:
                with open(args.spans_out, "w", encoding="utf-8") as fh:
                    json.dump(span_dicts, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
