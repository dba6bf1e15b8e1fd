"""Benchmark of the realpos library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of the workload (see README.md); with ``--trace 1`` it
holds the per-layer metrics of a separate traced run.  The line before it
records the machine, library versions and sizes.  Each workload runs in its
own worker process (``worker.py``); set-up time is the median over several
fresh processes.  Times are scaled to a reference machine speed measured as
the run goes (``worker.Speedometer``).  The exit code is 0 only when a result
was printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("powers-mix", "projections-mix", "interp-algebra-mix", "cli-oneshot")
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
# One BLAS thread: at n <= 16 threads only add overhead, and the count must
# not exceed the cores of the smallest machine the benchmark runs on.
BLAS_THREADS = 1
SETUP_ONLY_RUNS = 2  # set-up samples besides the measuring process's own
BUDGET_S = 170.0  # the whole run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def scaled_setup(spawned: float, marks: list) -> float:
    """Set-up time at reference speed: each stretch between the worker's speed
    probes is scaled by the mean of the probes that bracket it, the stretch
    from spawn to the first probe by that probe alone."""
    total, then, before = 0.0, spawned, marks[0][1]
    for at, factor in marks:
        total += (at - then) * (before + factor) / 2.0
        then, before = at, factor
    return total


def run_worker(mode: str, args, timeout: float) -> tuple[float, float, dict]:
    """(set-up seconds from spawn to ready, the same at reference speed,
    worker message)."""
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    message = json.loads(out.strip().splitlines()[-1])
    marks = message["setup_marks"]
    return marks[-1][0] - spawned, scaled_setup(spawned, marks), message


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "realpos")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the realpos library.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "realpos", "__init__.py")):
        print(f"error: no realpos sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    setup_samples = []  # (seconds, seconds at reference speed)
    try:
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setup_s, scaled, _ = run_worker("setup", args, deadline - time.monotonic())
                setup_samples.append((setup_s, scaled))
        setup_s, scaled, message = run_worker("measure", args, deadline - time.monotonic())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append((setup_s, scaled))

    result = message["result"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setup_samples),
                              "unit": "s"}
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    info = {
        **result["info"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "outcomes": result["outcomes"],
        "setup_samples_s": [s for s, _ in setup_samples],
        "setup_samples_scaled_s": [s for _, s in setup_samples],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
