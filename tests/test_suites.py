from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from realpos import interp, suites
from realpos.generators import gen_accretive
from realpos.matrices import matrix_to_json
from realpos.suites import run_suite, suite_names

from conftest import returns_of


def test_registry_is_complete():
    assert len(suite_names()) == 13


def test_unknown_suite_is_an_error():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("unknown")


def test_f_bijection_at_seed_42():
    report = run_suite("f-bijection", seed=42, sizes=range(2, 9))
    assert report.cases == 300 and not report.failures


def test_report_shape_and_determinism(tmp_path):
    r1 = run_suite("lemerdy", seed=7, dump_dir=str(tmp_path))
    r2 = run_suite("lemerdy", seed=7, dump_dir=str(tmp_path))
    d1, d2 = r1.to_json(), r2.to_json()
    assert d1.pop("wall_time") >= 0.0 and d2.pop("wall_time") >= 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert set(d1) == {
        "suite", "seed", "sizes", "cases", "failures", "tolerances", "extra", "passed",
    }
    assert d1["tolerances"]["solver_tol"] == 1e-6
    assert not list(tmp_path.iterdir())  # nothing failed, nothing dumped


def test_interpolation_suite_verifies_each_solve_once():
    # the gate reads the checks the solve returned instead of running the
    # peak/support checks again
    with returns_of(interp._check_strict_urysohn) as runs:
        report = run_suite("interpolation", seed=0)
    assert report.passed
    assert len(runs) == 50


def test_failure_dumps_hold_each_case_inputs(tmp_path, monkeypatch):
    # every f-bijection case fails its round trip, every oa-unitality case
    # finds no unit; each dump holds the inputs rebuilt from its case seed
    monkeypatch.setattr(suites, "f_inverse", lambda t, tol: -1e6 * np.eye(len(t)))
    monkeypatch.setattr(suites, "identity_of", lambda a, tol: None)
    seed, sizes = 3, [2, 3]

    def inputs(name, k, s, n):
        if name == "f-bijection":
            return {"x": matrix_to_json(gen_accretive(n, s))}
        gens = [gen_accretive(n, s + 13 * j) for j in range(1 + k % 2)]
        return {"generators": [matrix_to_json(g) for g in gens]}

    for name, count in (("f-bijection", 300), ("oa-unitality", 100)):
        report = run_suite(name, seed=seed, sizes=sizes, dump_dir=str(tmp_path))
        assert report.cases == len(report.failures) == count
        for k, failure in enumerate(report.failures):
            s = (seed * 1_000_003 + k) % 2**31
            assert failure["case"] == k and failure["seed"] == s
            path = os.path.join(str(tmp_path), f"{name}-{k:04d}.json")
            assert failure["dump_path"] == path
            with open(path) as fh:
                assert fh.read() == json.dumps(inputs(name, k, s, sizes[k % 2]), sort_keys=True)
    assert len(list(tmp_path.iterdir())) == 400


def _diverged(fn):
    return lambda *args, **kw: dataclasses.replace(fn(*args, **kw), status="diverged")


@pytest.mark.parametrize(
    "suite, name, patch, failing",
    [
        ("peak", "is_peak_for", lambda fn: lambda x, q, tol: False, None),
        ("peak", "peak_projection", _diverged, None),
        ("lemerdy", "sector_angle", lambda fn: lambda x, tol: None, [6]),
        ("support", "support_projection", _diverged, None),
    ],
    ids=["not-a-peak", "peak-diverged", "no-sector-angle", "support-diverged"],
)
def test_a_forced_failure_records_a_finite_negative_margin(monkeypatch, suite, name, patch, failing):
    # a case passes iff its margin is >= 0, so a forced failure shows in the
    # margin: finite, below 0, and the report stays strict JSON
    monkeypatch.setattr(suites, name, patch(getattr(suites, name)))
    report = run_suite(suite, seed=0)
    expected = list(range(report.cases)) if failing is None else failing
    assert [f["case"] for f in report.failures] == expected
    assert all(math.isfinite(f["margin"]) and f["margin"] < 0.0 for f in report.failures)
    json.dumps(report.to_json(), allow_nan=False)
