"""One benchmark process: set a workload up, then measure it or trace it.

``run.py`` starts this file as
``python3 worker.py --mode setup|measure --workload W --seed N --seconds S
--trace 0|1`` with the library's source directory on PYTHONPATH and the BLAS
thread count fixed in the environment.  It prints one JSON line:
``{"setup_marks": [[<time.monotonic()>, <machine speed factor then>], ...],
"result": {...}}``, with speed probes taken after the imports, after input
generation and when set-up ended (the last mark); ``result`` is absent in
``setup`` mode, which stops after set-up.

Set-up is import, input generation and a warm-up cycle.  ``measure`` then
runs a closed loop (one client, the next query only after the previous one
returned) for ``--seconds``; with ``--trace 1`` it instead runs a fixed pass
of queries twice, untraced and traced, and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np
import scipy
import scipy.linalg

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".perfbench")

# Median time of Speedometer's task on the 2-vCPU Xeon VM the benchmark was
# written on; timings are reported at that machine speed.
REFERENCE_TASK_S = 0.8e-3
PROBE_EVERY_S = 0.1


class Speedometer:
    """The machine's momentary speed, from a fixed task that avoids realpos.

    On a shared machine the core's speed swings by a quarter or more, for
    seconds to minutes and evenly across code: measured over 60 s, raw
    cycle times of ``projections-mix`` spread by 38 % (IQR over median of
    3-s windows) while their ratio to this task's time spread by 4 %.  The
    task mixes what realpos spends its time on: small LAPACK calls and
    interpreted Python.  ``sample()`` returns the factor that turns a time
    measured now into a time at reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._h = self._m + self._m.conj().T
        # Bound now, before any tracer wraps them, so probes are never traced.
        self._norm, self._lu = np.linalg.norm, scipy.linalg.lu_factor
        self._eigvalsh = np.linalg.eigvalsh
        self.factors: list = []
        self._task()  # first calls pay lazy set-up

    def _task(self) -> float:
        s = 0.0
        for _ in range(12):
            s += self._norm(self._m, 2)
            self._lu(self._m)
            s += float(self._eigvalsh(self._h)[0])
            s += sum(abs(z) for z in self._m[0])
        return s

    def sample(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._task()
            times.append(time.perf_counter() - t0)
        factor = REFERENCE_TASK_S / statistics.median(times)
        self.factors.append(factor)
        return factor


def run_query(query) -> str:
    try:
        return query.run()
    except Exception as exc:  # a raising query is a failed query; keep measuring
        traceback.print_exc()
        return f"raised-{type(exc).__name__}"


def run_timed(pick, finished, speed: Speedometer, tracer=None) -> tuple[list, list, list, list]:
    """Closed loop over ``pick(i)`` until ``finished(i, now)``.

    Returns the queries, their verdicts, their wall times and their times
    scaled to reference speed: the queries since the last probe are scaled
    by the mean speed of the probes that bracket them.
    """
    queries, verdicts, raw, scaled = [], [], [], []
    before = speed.sample()
    probed = time.perf_counter()
    while True:
        q = pick(len(queries))
        if tracer is not None:
            tracer.query = len(queries)
        t0 = time.perf_counter()
        verdicts.append(run_query(q))
        t1 = time.perf_counter()
        queries.append(q)
        raw.append(t1 - t0)
        done = finished(len(queries), t1)
        if done or t1 - probed >= PROBE_EVERY_S:
            after = speed.sample()
            probed = time.perf_counter()
            factor = (before + after) / 2.0
            scaled += [t * factor for t in raw[len(scaled):]]
            before = after
        if done:
            return queries, verdicts, raw, scaled


def tail_latency(latencies: list) -> tuple[float, float]:
    """(value, percentile): p99, or the highest nearest-rank percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(0.99 * n)  # 1-based nearest rank of p99
    if n - rank < 10:
        rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def outcome_summary(queries: list, verdicts: list) -> dict:
    failures = Counter(f"{q.kind} n={q.n}: {v}"
                       for q, v in zip(queries, verdicts) if v != workloads.OK)
    failed = sum(failures.values())
    return {
        "attempted": len(verdicts),
        "failed": failed,
        "correct": "check" not in verdicts,
        "outcomes": {"ok": len(verdicts) - failed, **dict(sorted(failures.items()))},
    }


def measure(wl, seconds: float, speed: Speedometer) -> dict:
    pool = wl.pool
    start = time.perf_counter()
    queries, verdicts, raw, latencies = run_timed(
        lambda i: pool[i % len(pool)], lambda i, now: now >= start + seconds, speed)
    n = len(latencies)
    summary = outcome_summary(queries, verdicts)
    tail, percentile = tail_latency(latencies)
    cli = isinstance(wl, workloads.CliOneshot)
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    summary["metrics"] = {
        "queries_per_s": {"value": n / sum(latencies), "unit": "1/s"},
        "query_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "query_p99_ms": {"value": 1e3 * tail, "unit": "ms"},
        "success_frac": {"value": (n - summary["failed"]) / n, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024.0, "unit": "MB"},
    }
    summary["info"] = {
        "samples": n,
        "tail_percentile": percentile,
        "cycles": n // wl.cycle,
        "repeats": -(-n // len(pool)),  # most times one instance ran
        "measured_s": time.perf_counter() - start,
        "speed_factor": {"median": statistics.median(speed.factors),
                         "min": min(speed.factors), "max": max(speed.factors)},
        "unscaled": {"queries_per_s": n / sum(raw),
                     "query_p50_ms": 1e3 * statistics.median(raw),
                     "query_p99_ms": 1e3 * tail_latency(raw)[0]},
    }
    return summary


def trace(wl, seed: int, setup_totals: Counter, speed: Speedometer) -> dict:
    """Untraced and traced passes over the same fixed queries."""
    queries = wl.trace_pass()

    def run_pass(tracer=None):
        return run_timed(queries.__getitem__, lambda i, now: i == len(queries), speed, tracer)

    _, plain, _, plain_scaled = run_pass()
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    tracer = layertrace.Tracer()
    cli = isinstance(wl, workloads.CliOneshot)
    if cli:
        wl.trace_dir = os.path.join(traces, f"{wl.name}-seed{seed}")
        shutil.rmtree(wl.trace_dir, ignore_errors=True)
        os.makedirs(wl.trace_dir)
    tracer.install()
    try:
        _, traced, latencies, traced_scaled = run_pass(tracer)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    layertrace.write_spans(os.path.join(traces, f"{wl.name}-seed{seed}.json"), spans)

    totals = layertrace.tally(spans)
    totals["time", "generators"] = setup_totals["time", "generators"]
    if cli:
        for name in sorted(os.listdir(wl.trace_dir)):
            child_spans, extra = layertrace.read_spans(os.path.join(wl.trace_dir, name))
            totals.update(layertrace.tally(child_spans))
            totals["import_s", "cli"] += extra["import_s"]

    summary = outcome_summary(queries + queries, plain + traced)
    if plain != traced:
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a != b]
        print(f"traced verdicts differ from untraced ones at queries {mismatched}",
              file=sys.stderr)
        summary["correct"] = False
    overhead_s = sum(traced_scaled) - sum(plain_scaled)
    summary["metrics"] = layertrace.layer_metrics(totals, sum(latencies), overhead_s)
    summary["info"] = {"pass_queries": len(queries), "spans": len(spans),
                       "untraced_pass_s": sum(plain_scaled), "traced_pass_s": sum(traced_scaled)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.makedirs(WORK, exist_ok=True)
    speed = Speedometer()  # before any tracer wraps what it calls
    marks = [(time.monotonic(), speed.sample())]
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:  # only to time the generators during set-up
        tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed, args.seconds, WORK, dict(os.environ))
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_totals = layertrace.tally(tracer.take()) if tracer is not None else Counter()
    marks.append((time.monotonic(), speed.sample()))
    # A traced run times an untraced pass against a traced one, so both need
    # every query of the pass warm; a measured run warms one cycle.
    warm = wl.trace_pass() if args.trace and args.mode == "measure" else wl.queries[: wl.warmup]
    try:
        for q in warm:
            run_query(q)
        marks.append((time.monotonic(), speed.sample()))
        message = {"setup_marks": marks}
        if args.mode == "measure":
            if args.trace:
                result = trace(wl, args.seed, setup_totals, speed)
            else:
                result = measure(wl, args.seconds, speed)
            result["info"].update({
                "sizes": wl.sizes,
                "pool_queries": len(wl.pool),
                "cycle_queries": wl.cycle,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": _blas_name(),
            })
            message["result"] = result
    finally:
        wl.close()
    print(json.dumps(message))
    return 0


def _blas_name() -> str:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


if __name__ == "__main__":
    sys.exit(main())
