"""dcoh benchmark: seeded closed-loop workloads, checked by independent oracles.

Run from the repository root:

    python3 bench/run.py --workload finite-h1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller sends its next query when the last one returns.  With
`--trace 0` the run measures the end-to-end metrics, each query's time
scaled to a reference speed of the host (bench/refclock.py); with
`--trace 1` it
alternates untraced and traced passes over the same rounds and reports the
per-layer metrics (see bench/README.md).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Details of every run go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import layertrace
import refclock

WORKLOADS = {
    "finite-h1": "wl_finite_h1",
    "algebra-audit": "wl_algebra_audit",
    "ratfun-decide": "wl_ratfun_decide",
    "cli-mix": "wl_cli_mix",
}
SETUP_REPEATS = 7
SETUP_BLOCK_SHARE = 10     # kernel time around a set-up, in set-ups
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, "bench", "out")


class ProgramMissing(Exception):
    pass


def load_program():
    """Import dcoh afresh from ./src and return its modules by layer."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dcoh", "__init__.py")):
        raise ProgramMissing(f"no dcoh sources under {src}; run from the repository root")
    for name in [m for m in sys.modules if m == "dcoh" or m.startswith("dcoh.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    pkg = importlib.import_module("dcoh")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"dcoh imported from {pkg.__file__}, not from {src}")
    mods = {layer: importlib.import_module(f"dcoh.{layer}") for layer in layertrace.LAYERS}
    return pkg, mods


def setup(wl_module, seed, seconds):
    """Import the program, build fields and inputs; time it several times,
    each time at the reference speed measured just before and after it."""
    raw, scaled = [], []
    before = refclock.block(0.01)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg, mods = load_program()
        dc = SimpleNamespace(package=pkg, **mods)
        n_rounds = max(2, math.ceil(1.5 * seconds / wl_module.ROUND_SECONDS) + 1)
        wl = wl_module.Workload(dc, seed, n_rounds)
        dt = perf_counter() - t0
        after = refclock.block(SETUP_BLOCK_SHARE * dt)
        raw.append(dt)
        scaled.append(dt * refclock.REF_KERNEL_S / statistics.median(before + after))
        before = after
    return dc, wl, statistics.median(scaled), raw


def run_query(wl, query):
    """(result, error text or None, seconds)."""
    t0 = perf_counter()
    try:
        result, err = wl.run(query), None
    except Exception:
        result, err = None, traceback.format_exc(limit=4)
    return result, err, perf_counter() - t0


def machine():
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                sha = fh.read().strip()
        else:
            sha = ref
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system(),
            "git_sha": sha}


def quantile(values, q):
    """Inclusive linear quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_workload(args):
    name = args.workload
    wl_module = importlib.import_module(WORKLOADS[name])
    refclock.warm()
    dc, wl, setup_s, setup_samples = setup(wl_module, args.seed, args.seconds)
    records = []            # (query, result, error, seconds, pass label)

    # warm-up round: caches fill and lazy set-up finishes before timing
    for query in wl.rounds[0]:
        result, err, dt = run_query(wl, query)
        records.append((query, result, err, dt, "warmup"))

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer(
            {layer: getattr(dc, layer) for layer in layertrace.LAYERS},
            namespaces=(dc.package,))
    walls = {"plain": 0.0, "traced": 0.0}
    latencies = []          # raw seconds of the untraced queries
    blocks = []             # kernel times taken right after each of them
    gc.collect()
    t_start = perf_counter()
    i = 1
    while True:
        # whole rounds only; traced runs alternate which pass goes first
        if tracer is None:
            passes = ("plain",)
        else:
            passes = ("plain", "traced") if i % 2 else ("traced", "plain")
        for label in passes:
            if label == "traced":
                tracer.install()
            t_pass = perf_counter()
            try:
                for query in wl.rounds[i % len(wl.rounds)]:
                    if label == "traced":
                        tracer.query += 1
                    result, err, dt = run_query(wl, query)
                    records.append((query, result, err, dt, label))
                    if tracer is None:
                        latencies.append(dt)
                        blocks.append(refclock.block(dt))
            finally:
                if label == "traced":
                    tracer.remove()
            walls[label] += perf_counter() - t_pass
        i += 1
        if perf_counter() - t_start >= args.seconds:
            break
    loop_wall = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # check every answer, warm-up included; a wrong answer is never dropped
    failed = undecided = 0
    errors = []
    for query, result, err, dt, label in records:
        ok = False
        if err is None:
            try:
                ok, und = wl.check(query, result)
                undecided += bool(und)
            except Exception:
                err = "oracle: " + traceback.format_exc(limit=4)
        if not ok:
            failed += 1
            if len(errors) < 10:
                errors.append({"query": repr(query)[:300], "pass": label,
                               "error": err or "wrong answer"})
    attempted = len(records)
    error_rate = failed / attempted
    undecided_rate = undecided / attempted
    timed = [r for r in records if r[4] != "warmup"]

    details = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "attempted": attempted, "failed": failed, "undecided": undecided,
        "error_rate": error_rate, "undecided_rate": undecided_rate,
        "errors": errors, "setup_samples_s": setup_samples,
        "loop_wall_s": loop_wall, "rounds": i - 1, "timed_queries": len(timed),
        "latency_samples": len(latencies),
        "input_sizes": wl.sizes([r[0] for r in timed]),
        "latency_ms_by_stratum": by_stratum(wl, timed),
    }
    if hasattr(wl, "digest"):
        details["output_digest"] = wl.digest()

    if tracer is None:
        scaled = refclock.normalize(latencies, blocks)
        kernel_s = [t for b in blocks for t in b]
        details["raw"] = {
            "throughput_qps": len(latencies) / loop_wall,
            "query_throughput_qps": len(latencies) / sum(latencies),
            "latency_p50_ms": 1000 * quantile(latencies, 0.5),
            "latency_p90_ms": 1000 * quantile(latencies, 0.9),
            "setup_s": statistics.median(setup_samples),
            "kernel_ms_quartiles": [1000 * x for x in statistics.quantiles(kernel_s, n=4)],
            "kernel_share_of_loop": sum(kernel_s) / loop_wall,
        }
        metrics = {
            "throughput_qps": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (1000 * quantile(scaled, 0.5), "ms"),
            "latency_p90_ms": (1000 * quantile(scaled, 0.9), "ms"),
            "correct_rate": (1.0 - error_rate, "ratio"),
            "decided_rate": (1.0 - undecided_rate, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_wall = walls["traced"] - tracer.hook_s
        metrics = tracer.layer_metrics(traced_wall)
        covered = sum(tracer.self_s.get(layer, 0.0) for layer in layertrace.LAYERS)
        metrics.update(counter_metrics(tracer, records, wl))
        metrics["trace.overhead"] = (walls["traced"] / walls["plain"], "ratio")
        metrics["trace.coverage"] = (covered / traced_wall, "ratio")
        details["traced_wall_s"] = walls["traced"]
        details["plain_wall_s"] = walls["plain"]
        details["hook_s"] = tracer.hook_s
        details["spans_recorded"] = len(tracer.spans)
        details["spans_dropped"] = tracer.spans_dropped
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.json")

    print(f"# {name}: {attempted} queries checked, {failed} failed, "
          f"error_rate={error_rate:.4f}, undecided_rate={undecided_rate:.4f}, "
          f"{len(latencies)} latency samples, setup {setup_s:.3f} s")
    if "raw" in details:
        r = details["raw"]
        print(f"# raw wall clock: {r['throughput_qps']:.4g} queries/s over the loop, "
              f"p50 {r['latency_p50_ms']:.4g} ms, p90 {r['latency_p90_ms']:.4g} ms, "
              f"setup {r['setup_s']:.4g} s; reference kernel quartiles "
              f"{', '.join(f'{x:.4g}' for x in r['kernel_ms_quartiles'])} ms "
              f"(nominal {1000 * refclock.REF_KERNEL_S:g} ms)")
    if "output_digest" in details:
        print(f"# output digest {details['output_digest']}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def by_stratum(wl, records) -> dict:
    """Query count and median latency of each stratum, slowest first."""
    groups = {}
    for query, result, err, dt, label in records:
        if label != "traced":
            groups.setdefault(wl.stratum(query), []).append(dt)
    rows = {k: [len(v), round(1000 * statistics.median(v), 3)] for k, v in groups.items()}
    return dict(sorted(rows.items(), key=lambda kv: -kv[1][1]))


def counter_metrics(tracer, records, wl) -> dict:
    c, m = tracer.counters, tracer.maxima
    cand, points = c["groups.enum_candidates"], c["groups.enum_points"]
    out = {
        "groups.enum_candidates": (cand, "count"),
        "groups.enum_points": (points, "count"),
        "groups.enum_yield": (points / cand if cand else 0.0, "ratio"),
        "cocycles.z1_yield": (c["cocycles.z1"] / points if points else 0.0, "ratio"),
        "groups.budget_refusals": (c["groups.budget_refusals"], "count"),
        "linalg.solves": (c["linalg.solves"], "count"),
        "linalg.max_cells": (m["linalg.max_cells"], "count"),
        "linalg.max_entry_bits": (m["linalg.max_entry_bits"], "bits"),
        "operators.degree_bound_max": (m["operators.degree_bound_max"], "count"),
        "operators.universal_den_deg_max": (m["operators.universal_den_deg_max"], "count"),
        "algebras.max_tensor_dim": (m["algebras.max_tensor_dim"], "count"),
    }
    verify = wl.verify_counts(records) if hasattr(wl, "verify_counts") else {}
    for key in ("verified", "unverified", "rejected"):
        out[f"cli.verify_{key}"] = (verify.get(key, 0), "count")
    return out


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        combined[name] = res
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for line in lines[:-1]:
            print("   " + line)
        status |= 0 if res["correct"] else 1
    print(json.dumps({"workloads": combined}))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ProgramMissing as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
