"""graphsig benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cheb-filter-16k --seed 1 --seconds 20
    python3 perfbench/run.py --seed 1 --trace 1        # all four workloads

Each workload runs in its own child process with BLAS threads pinned.  The
untraced run gives the end-to-end metrics; ``--trace 1`` adds a traced pass
(every listed library function wrapped) that gives the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, digest, quality numbers, failures) and the spans are written
under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import spans
from layers import COMPUTED_COUNTS, COUNT_NAMES, SPAN_NAMES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: One BLAS thread: the benchmark box has two shared cores, and one thread
#: keeps dense products from competing with each other across runs.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
QUALITY = {
    "error_rate": ("ratio", "lower"),
    "recon_rel_err": ("ratio", "lower"),
    "snr_gain_db": ("dB", "higher"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_pct"):
        return "%"
    return "count"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(workload, seed, seconds, trace):
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = SRC
    spans_out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", SRC,
           "--spans-out", spans_out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(record, trace):
    """Turn a child record into the result line and the full record."""
    run = record["run"]
    attempted = run["attempted"]
    failures = list(run["failures"])
    if trace:
        attempted += record["traced"]["attempted"]
        failures += [f"traced {f}" for f in record["traced"]["failures"]]
        if record["traced"]["digest"] != run["digest"]:
            failures.append("traced digest differs from untraced digest")
    op_s = run["op_s"]
    values = {
        "setup_s": record["import_s"] + spans.percentile(record["setup_reps_s"], 50),
        "op_p50_ms": 1000.0 * spans.percentile(op_s, 50) if op_s else 0.0,
        "ops_per_s": spans.ops_per_second(len(op_s), run["phase_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    quality = {"error_rate": len(failures) / attempted,
               "recon_rel_err": run["recon_rel_err"],
               "snr_gain_db": run["snr_gain_db"]}
    if trace:
        layer = dict(record["layers"])
        layer.setdefault("trace.overhead_pct", 0.0)
        names = [f"{n}.{k}" for n in SPAN_NAMES
                 for k in ("calls", "total_s", "self_s")]
        names += list(COUNT_NAMES) + ["trace.overhead_pct"]
        metrics = {n: {"value": layer[n], "unit": layer_unit(n)} for n in names}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n][0]}
                   for n, v in values.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    full = dict(record, end_to_end=values, quality=quality, failures=failures,
                ops=len(op_s))
    return result, full


def print_report(full, trace):
    print(f"== {full['workload']}  seed {full['seed']}  "
          f"ops {full['ops']} checked, {len(full['failures'])} failed")
    for name, value in full["end_to_end"].items():
        unit, better = END_TO_END[name]
        print(f"  {name:<14} {value:>14.6g} {unit:<6} ({better} is better)")
    for name, value in full["quality"].items():
        if value is not None:
            unit, better = QUALITY[name]
            print(f"  {name:<14} {value:>14.6g} {unit:<6} ({better} is better)")
    print(f"  digest         {full['run']['digest']}")
    if trace:
        print(f"  traced digest  {full['traced']['digest']}")
        for name, value in sorted(full["layers"].items()):
            if value:
                tag = " (computed)" if name in COMPUTED_COUNTS else ""
                print(f"  {name:<44} {value:>14.6g} {layer_unit(name)}{tag}")
    for failure in full["failures"]:
        print(f"  FAILED {failure}")
    print(f"  env {json.dumps(full['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphsig", "__init__.py")):
        print(f"no graphsig sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = {"nproc": os.cpu_count(), "git_commit": git_commit(),
           "seed": args.seed}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = run_child(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        record["env"].update(env)
        results[name], full = summarize(record, args.trace)
        print_report(full, args.trace)
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-result.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
