"""Acceptance criteria, one test per criterion.

Each test runs the corresponding seeded suite at its pinned tolerances and
prints a PASS/FAIL line (run pytest with -s to see them inline).
"""
from __future__ import annotations

import pytest

from realpos.suites import run_suite, suite_names

CRITERIA = [
    ("A1", "f-bijection"),
    ("A2", "root-laws"),
    ("A3", "method-agreement"),
    ("A4", "sector-bound"),
    ("A5", "support"),
    ("A6", "peak"),
    ("A7", "half-f-monotonicity"),
    ("A8", "lemerdy"),
    ("A9", "ah-amplification"),
    ("A10", "oa-unitality"),
    ("A11", "interpolation"),
    ("A12", "vav"),
    ("A13", "kernel-invariants"),
]


def test_every_criterion_has_a_suite():
    assert sorted(name for _, name in CRITERIA) == sorted(suite_names())


@pytest.mark.parametrize("criterion,suite", CRITERIA, ids=[c for c, _ in CRITERIA])
def test_acceptance(criterion, suite, tmp_path):
    report = run_suite(suite, seed=0, dump_dir=str(tmp_path))
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} {criterion} {suite}: {report.cases} cases, "
        f"{len(report.failures)} failures, {report.wall_time:.2f}s"
    )
    assert report.passed, (
        f"{criterion} ({suite}) failed on {len(report.failures)} of "
        f"{report.cases} cases: {report.failures[:3]}"
    )
