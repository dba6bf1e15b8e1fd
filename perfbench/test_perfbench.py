"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the benchmark end to end on tiny runs, so they take a few minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

COUNT_FIELDS = (".calls", ".failed", "iterations_mean", "rounds_mean")


def bench(workload: str, trace: int, seed: int = 3, seconds: int = 1, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def info(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-2])["info"]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in layertrace.PER_LAYER
    ]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    out = result(proc)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] and out["attempted"] >= 1
    assert out["failed"] == 0
    assert out["metrics"]["success_frac"]["value"] == 1.0
    assert info(proc)["repeats"] == 1


def test_instances_draw_from_disjoint_seed_streams():
    seeds = {workloads.stream_seed(s, stream, j)
             for s in (0, 1) for stream in range(10) for j in (0, 1, workloads.STREAM - 1)}
    assert len(seeds) == 2 * 10 * 3
    assert workloads.stream_seed(5, 0, 7) == workloads.case_seed(5, 7)


def test_a_h_queries_get_fresh_conjugated_algebras():
    first, again = (workloads._a_h_case(4, 11) for _ in range(2))
    other = workloads._a_h_case(4, 12)
    assert first[0] is not again[0]
    assert np.allclose(first[0].basis, again[0].basis)
    assert not np.allclose(first[0].basis, other[0].basis)
    assert first[0].ambient_dim == 4 and first[2] is None  # worked algebra 1 at k = 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    counts = [name for name in expected if name.endswith(COUNT_FIELDS)]
    assert [first["metrics"][n]["value"] for n in counts] == [
        second["metrics"][n]["value"] for n in counts
    ]
    assert first["metrics"]["matrices.op_norm.calls"]["value"] > 0


def test_refuses_to_run_without_library_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("powers-mix", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_latency_takes_p99_or_keeps_ten_samples_beyond():
    value, pct = worker.tail_latency(list(range(1, 2001)))
    assert (value, pct) == (1980, 99.0)
    value, pct = worker.tail_latency(list(range(1, 101)))
    assert (value, pct) == (90, 90.0)
    assert worker.tail_latency([3, 1, 2]) == (3, 100.0)


def test_same_json_compares_numbers_to_relative_precision():
    assert workloads._same_json({"a": [1.0, None, "x"]}, {"a": [1.0 + 1e-12, None, "x"]})
    assert not workloads._same_json({"a": 1.0}, {"a": 1.001})
    assert not workloads._same_json({"a": True}, {"a": 1})
    assert not workloads._same_json({"a": 1.0}, {"b": 1.0})
