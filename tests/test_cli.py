from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realpos
from realpos import interp
from realpos.algebra import algebra_to_json, upper_triangular_algebra
from realpos.cli import build_parser, main
from realpos.cones import MAX_GRID
from realpos.generators import gen_accretive
from realpos.matrices import matrix_from_json, matrix_to_json
from realpos.powers import MAX_NODES, MAX_TERMS

from conftest import returns_of


def _write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, complex))))
    return str(path)


def test_check_reports_and_exit_codes(tmp_path, capsys):
    eye = _write_matrix(tmp_path / "eye.json", np.eye(2))
    assert main(["check", eye]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["accretive_margin"] == pytest.approx(1.0)

    ii = _write_matrix(tmp_path / "ii.json", 1j * np.eye(2))
    assert main(["check", ii, "--require", "accretive"]) == 0
    assert main(["check", ii, "--require", "f"]) == 1

    # margin exactly -psd_slack, and one ulp below it
    for low, code in ((-1e-7, 0), (np.nextafter(-1e-7, -np.inf), 1)):
        slack = _write_matrix(tmp_path / "slack.json", np.diag([low, 1.0]))
        assert main(["check", slack, "--require", "accretive"]) == code


@pytest.mark.parametrize("argv, m, message", [
    (["check", "{}", "--require", "accretive"], 1e308 * np.ones((2, 2)),
     "the Hermitian part of the matrix overflows"),
    (["project", "{}", "--kind", "support"], 1e308 * np.ones((2, 2)),
     "the Hermitian part of the matrix overflows"),
    (["power", "{}", "--alpha", "0.5", "--method", "spectral"], [[1e308, 1e308], [-1e308, 1e308]],
     "the Hermitian part of the matrix overflows"),
    (["check", "{}"], [[1.0, 1e160], [-1e160, 1.0]],
     "the constant C with x*x <= C (x + x*) overflows"),
])
def test_an_overflow_exits_2(tmp_path, capsys, argv, m, message):
    path = _write_matrix(tmp_path / "x.json", m)
    assert main([arg.format(path) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2, \"entries\": []}")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    pair = [1, 0]
    for entries in ([1, 2, 3, 4], [pair] * 3 + ["ab"], [pair] * 3 + [[True, 0]],
                    [pair] * 3 + [[1, 2, 3]], [[1e400, 0]] * 4, 4):
        bad.write_text(json.dumps({"n": 2, "entries": entries}))
        capsys.readouterr()
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_2(tmp_path, capsys, tol):
    # -diag(1, 0.5) fails both predicates; a non-finite --tol must not pass it
    neg = _write_matrix(tmp_path / "neg.json", -np.diag([1.0, 0.5]))
    assert main(["check", neg, "--tol", tol, "--require", "accretive", "half-f"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eq_tol must be finite") and err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Objects shaped like the matrix wire format, so the property reaches past the
# missing-field check into the entry and dimension checks.
MATRIX_LIKE = st.fixed_dictionaries({
    "n": st.integers(-1, 3) | JSON_VALUES,
    "entries": st.lists(
        st.lists(st.integers(-3, 3) | st.floats() | JSON_VALUES, min_size=2, max_size=2)
        | JSON_VALUES,
        max_size=9,
    ) | JSON_VALUES,
})


@settings(max_examples=200, deadline=None)
@given(doc=JSON_VALUES | MATRIX_LIKE)
def test_check_any_json_exits_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "any.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_transform_roundtrip(tmp_path, capsys):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 2.0]))
    out = tmp_path / "t.json"
    assert main(["transform", src, "--op", "f", "--json-out", str(out)]) == 0
    t = matrix_from_json(json.loads(out.read_text()))
    assert np.allclose(t, np.diag([0.5, 2.0 / 3.0]))
    back = tmp_path / "b.json"
    assert main(["transform", str(out), "--op", "finv", "--json-out", str(back)]) == 0
    assert np.allclose(matrix_from_json(json.loads(back.read_text())), np.diag([1.0, 2.0]))


def test_power_command(tmp_path, capsys):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 4.0]))
    assert main(["power", src, "--alpha", "0.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    value = matrix_from_json(data["value"])
    assert np.allclose(value, np.diag([1.0, 2.0]), atol=1e-10)
    assert main(["power", src, "--alpha", "0.5", "--method", "balakrishnan", "--nodes", "64"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "balakrishnan"

    half = _write_matrix(tmp_path / "h.json", 0.5 * np.eye(2))
    assert main(["power", half, "--alpha", "0.5", "--method", "series"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "series"
    assert main(["power", half, "--alpha", "0.3", "--method", "series"]) == 2  # not 1/m

    # invalid alpha exits 2 with a one-line message naming it, on every route
    for method in ("auto", "spectral", "series"):
        for alpha in ("inf", "nan", "0", "1e-320"):
            if alpha == "1e-320" and method != "series":
                continue  # a valid positive power
            capsys.readouterr()
            assert main(["power", src, f"--alpha={alpha}", "--method", method]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "alpha" in err


@pytest.mark.parametrize("m, alpha, method", [
    (2.1 * np.eye(2) + 0.1 * np.ones((2, 2)), "2000.5", "spectral"),
    (2.1 * np.eye(2) + 0.1 * np.ones((2, 2)), "2000.5", "auto"),
    (3.0 * np.array([[1.0, 1.0], [0.0, 1.0]]), "900.5", "auto"),  # the quadrature route
])
def test_an_overflowing_power_exits_2(tmp_path, capsys, m, alpha, method):
    src = _write_matrix(tmp_path / "x.json", m)
    assert main(["power", src, "--alpha", alpha, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: x^{alpha} overflows: its value has non-finite entries\n"


def test_quadrature_power_near_one_is_accurate(tmp_path, capsys):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 4.0]))
    r = 0.999999999997
    assert main(["power", src, "--alpha", str(r), "--method", "balakrishnan"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certified"]
    assert abs(matrix_from_json(data["value"])[1, 1] - 4.0**r) <= 1e-10 * 4.0**r


@pytest.mark.parametrize("alpha", ["1e-320", "1e-17"])
def test_quadrature_rejects_an_exponent_that_rounds_away(tmp_path, capsys, alpha):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 4.0]))
    assert main(["power", src, "--alpha", alpha, "--method", "balakrishnan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"r = {float(alpha)!r}" in err and "alpha and beta" not in err


@pytest.mark.parametrize("alpha", ["6e-17", "1e-16"])
def test_quadrature_does_not_certify_an_exponent_moved_by_rounding(tmp_path, capsys, alpha):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 4.0]))
    assert main(["power", src, "--alpha", alpha, "--method", "balakrishnan"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"]["entries"][0][0] - 1.0) > 0.05
    assert data["certified"] is False


@pytest.mark.parametrize("argv", [
    ["range", "--grid", str(MAX_GRID + 1)],
    ["power", "--alpha", "0.5", "--method", "balakrishnan", "--nodes", str(MAX_NODES + 1)],
    ["power", "--alpha", "0.5", "--method", "series", "--terms", str(MAX_TERMS + 1)],
])
def test_counts_above_their_caps_exit_2(tmp_path, capsys, argv):
    src = _write_matrix(tmp_path / "x.json", np.diag([1.0, 0.5]))
    assert main([argv[0], src, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and argv[-1] in err


def test_a_refused_quadrature_node_exits_2_naming_the_route(tmp_path, capsys):
    # diag(1e12, 0) is accretive, but the quadrature route refuses its
    # smallest node; the message named only a pivot of "the matrix"
    src = _write_matrix(tmp_path / "x.json", np.diag([1e12, 0.0]))
    assert main(["power", src, "--alpha", "0.5", "--method", "balakrishnan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the quadrature route refused node 0 (u_k = ") and err.count("\n") == 1
    assert "pivot 1 has magnitude" in err


@pytest.mark.parametrize("nodes", ["5", str(MAX_NODES + 1)])
def test_power_checks_nodes_on_every_matrix(tmp_path, capsys, nodes):
    # diag(1, 4) takes the spectral route and the Jordan block the quadrature
    # fallback; a bad node count fails both with the same message
    errors = []
    for name, m in (("d", np.diag([1.0, 4.0])), ("j", [[1.0, 1.0], [0.0, 1.0]])):
        src = _write_matrix(tmp_path / f"{name}.json", m)
        assert main(["power", src, "--alpha", "0.5", "--nodes", nodes]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1 and nodes in errors[0]


@pytest.mark.parametrize("n", [2.5, 2.0, "2", True])
def test_matrix_json_needs_an_integer_n(tmp_path, capsys, n):
    # as many entries as int(n) asks for, so only the type of n is wrong
    src = tmp_path / "x.json"
    src.write_text(json.dumps({"n": n, "entries": [[1, 0]] * int(n) ** 2}))
    assert main(["check", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "integer 'n'" in err


@pytest.mark.parametrize("key,value", [("seed", True), ("seed", "3"), ("seed", 2.9),
                                       ("seed", 2.0), ("eps", "0.1"), ("eps", True),
                                       ("near_eps", "0.1"), ("near_eps", False)])
def test_interp_numbers_are_typed(tmp_path, capsys, key, value):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"algebra": "diag:2", "b": matrix_to_json(0.5 * np.eye(2)),
                                   key: value}))
    assert main(["interp", str(problem), "--theorem", "dominate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "must be numbers" in err


# Runs realpos.cli.main(argv) in a fresh interpreter and prints the exit code
# and the scipy modules loaded by then.
SCIPY_PROBE = """
import contextlib, io, json, sys
import realpos.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = realpos.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh_cli(argv, cwd):
    src = os.path.dirname(os.path.dirname(realpos.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_cli_loads_scipy_only_for_quadrature(tmp_path):
    # The commands a cold shell call runs most need numpy only; scipy is
    # imported on first use by the quadrature rule (scipy.special) and by
    # the LAPACK routines matrices binds for _schur and solve()
    # (scipy.linalg.lapack's zgees, zgetrf and zgetrs).
    x = _write_matrix(tmp_path / "x.json", gen_accretive(4, 5))
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "algebra": "diag:2", "b": matrix_to_json(0.5 * np.eye(2, dtype=complex)), "eps": 0.05,
    }))
    for argv in (["check", x], ["power", x, "--alpha", "0.5", "--method", "auto"],
                 ["project", x, "--kind", "support"], ["algebra", "identity", "upper:3"],
                 ["interp", str(problem), "--theorem", "dominate"]):
        assert _fresh_cli(argv, tmp_path) == [0, []], argv
    code, loaded = _fresh_cli(["power", x, "--alpha", "0.5", "--method", "balakrishnan"],
                              tmp_path)
    assert code == 0 and "scipy.special" in loaded


def test_project_command(tmp_path, capsys):
    src = _write_matrix(tmp_path / "x.json", np.diag([0.0, 1.0, 1.0j]))
    assert main(["project", src, "--kind", "support", "--method", "both"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "converged"
    assert data["oracle_residual"] <= 1e-8
    assert isinstance(data["trace"], list)

    div = _write_matrix(tmp_path / "d.json", np.diag([1.0, -1.0]))
    assert main(["project", div, "--kind", "peak", "--method", "iterative"]) == 1


PROJECT_KEYS = {"proj", "method", "iterations", "oracle_residual", "status", "trace"}


@pytest.mark.parametrize("method", ["iterative", "oracle", "both"])
def test_project_support_of_tiny_inputs(tmp_path, capsys, method):
    # The iterative stop test once read 1e-13 I as already idempotent: P = 0.
    tiny = _write_matrix(tmp_path / "tiny.json", 1e-13 * np.eye(3))
    assert main(["project", tiny, "--kind", "support", "--method", method]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == PROJECT_KEYS
    assert data["status"] == "converged"
    assert np.allclose(matrix_from_json(data["proj"]), np.eye(3), atol=1e-10)

    floor = _write_matrix(tmp_path / "floor.json", 1e-15 * np.eye(3))
    assert main(["project", floor, "--kind", "support", "--method", method]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == PROJECT_KEYS
    assert data["status"] == "zero"
    assert not matrix_from_json(data["proj"]).any()


def test_project_support_inside_the_accretive_slack(tmp_path, capsys):
    # check --require accretive takes diag(-9e-8, 0.5), and so does project;
    # x / ||x||, margin -1.8e-7, was once refused with exit 2
    x = _write_matrix(tmp_path / "x.json", np.diag([-0.9e-7, 0.5]))
    assert main(["check", x, "--require", "accretive"]) == 0
    capsys.readouterr()
    assert main(["project", x, "--kind", "support"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "converged" and np.array_equal(matrix_from_json(data["proj"]), np.eye(2))


def test_range_command(tmp_path):
    src = _write_matrix(tmp_path / "x.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = tmp_path / "range.csv"
    assert main(["range", src, "--grid", "90", "--csv-out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,support,boundary_re,boundary_im"
    assert len(lines) == 91
    support = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(abs(s - 0.5) for s in support) <= 1e-9


def test_algebra_commands(tmp_path, capsys):
    assert main(["algebra", "identity", "upper:2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert np.allclose(matrix_from_json(data["identity"]), np.eye(2))

    assert main(["algebra", "a-h", "diag:2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert np.allclose(matrix_from_json(data["q"]), np.eye(2), atol=1e-8)

    assert main(["algebra", "amplify", "diag:2", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ambient"] == 4 and len(data["basis"]) == 8

    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps({
        "generators": [matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]], complex))],
        "mode": "cstar",
    }))
    assert main(["algebra", "generate", str(spec)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["basis"]) == 4

    assert main(["algebra", "identity", "bogus:9"]) == 2
    # canned names obey MAX_DIM like matrices read from files
    assert main(["algebra", "identity", "full:20"]) == 2
    assert "at most 16; got 20" in capsys.readouterr().err
    assert main(["algebra", "identity", "blockupper:10,10"]) == 2
    # ... and so do span files, algebra JSON and amplification
    big = matrix_to_json(np.eye(20, dtype=complex))
    span = tmp_path / "span.json"
    span.write_text(json.dumps([big]))
    gen = tmp_path / "big.json"
    gen.write_text(json.dumps({"generators": [big]}))
    for argv in (["algebra", "identity", f"span:{span}"], ["algebra", "generate", str(gen)],
                 ["algebra", "amplify", "upper:8", "--k", "5"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert "at most 16" in capsys.readouterr().err
    # generator JSON keeps its label, and zero generators give the zero algebra
    spec.write_text(json.dumps({"generators": [matrix_to_json(np.zeros((2, 2)))],
                                "label": "Z"}))
    capsys.readouterr()
    assert main(["algebra", "generate", str(spec)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["label"] == "Z" and data["ambient"] == 2 and data["basis"] == []
    assert main(["algebra", "a-h", str(spec)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a_h"]["label"] == "Z_H" and not matrix_from_json(data["q"]).any()
    # with_identity must be a JSON boolean: the string "false" is refused,
    # not read as true
    for flag in ("false", "true", 0, 1, None):
        spec.write_text(json.dumps({"generators": [matrix_to_json(np.diag([1.0, 0.0]))],
                                    "with_identity": flag}))
        capsys.readouterr()
        assert main(["algebra", "generate", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "with_identity" in err
    spec.write_text(json.dumps({"generators": [matrix_to_json(np.diag([1.0, 0.0]))],
                                "with_identity": False}))
    assert main(["algebra", "generate", str(spec)]) == 0
    assert len(json.loads(capsys.readouterr().out)["basis"]) == 1
    # a label that is not a string is refused, not concatenated
    spec.write_text(json.dumps({"basis": [matrix_to_json(np.eye(2))], "label": [None]}))
    assert main(["algebra", "unitize", str(spec)]) == 2


def test_interp_command(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "algebra": "full:2",
        "b": matrix_to_json(0.5 * np.eye(2)),
        "eps": 0.05,
    }))
    assert main(["interp", str(problem), "--theorem", "dominate"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "feasible"
    sol = matrix_from_json(data["solution"])
    assert np.linalg.eigvalsh((sol + sol.conj().T) / 2.0 - 0.5 * np.eye(2))[0] >= -1e-6

    problem.write_text(json.dumps({
        "algebra": "diag:3",
        "q": matrix_to_json(np.diag([1.0, 0, 0]).astype(complex)),
        "p": matrix_to_json(np.diag([1.0, 1.0, 0]).astype(complex)),
    }))
    assert main(["interp", str(problem), "--theorem", "strict-urysohn"]) == 0

    problem.write_text(json.dumps({"algebra": "diag:3"}))
    assert main(["interp", str(problem), "--theorem", "dominate"]) == 2
    b = matrix_to_json(np.eye(2))
    half = matrix_to_json(0.5 * np.eye(2))
    e11 = matrix_to_json(np.diag([1.0, 0.0]))
    square = [[0, -0.25], [1, -0.25], [1, 0.25], [0, 0.25]]
    cases = [({"algebra": 5, "b": b}, "dominate", "must be an object"),
             ({"algebra": [1, 2], "b": b}, "dominate", "must be an object"),
             ({"algebra": {"basis": 3}, "b": b}, "dominate", "must be a list"),
             ({"algebra": "full:20", "b": b}, "dominate", "at most 16"),
             ([1, 2], "dominate", "must be an object"),
             ({"algebra": "diag:2", "b": b, "seed": [0]}, "dominate", "must be numbers"),
             ({"algebra": "diag:2", "q": e11}, "urysohn", "missing u"),
             ({"algebra": "diag:2", "q": e11, "u": matrix_to_json(np.eye(3))}, "urysohn",
              "dimension mismatch"),
             ({"algebra": "diag:2", "q": e11, "b": half,
               "region": [[float("nan"), 0]] + square[1:]}, "tietze", "finite"),
             ({"algebra": "diag:2", "q": e11, "b": half,
               "region": [[1e200 * x, 1e200 * y] for x, y in square]}, "tietze", "magnitude")]
    for key, theorem in (("eps", "dominate"), ("near_eps", "np"), ("eps", "urysohn"),
                         ("near_eps", "urysohn")):
        for value in (0, -1, float("nan")):
            data = {"algebra": "diag:2", "b": half, "c": half, "q": e11, "u": e11, key: value}
            cases.append((data, theorem, key))
    for bad, theorem, needle in cases:
        problem.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["interp", str(problem), "--theorem", theorem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err


def _diag(*values):
    return matrix_to_json(np.diag(values).astype(complex))


_SQUARE = [[0, -0.25], [1, -0.25], [1, 0.25], [0, 0.25]]
_E11_3 = _diag(1, 0, 0)
_UPPER_B = matrix_to_json(np.array([[0.4, 0.2], [0.2, 0.3]], complex))
_AMBIENT_U = matrix_to_json(np.diag([1.0, 0.5, 0.5]) + np.array([[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]]))
_HALF_F_CORNER = {"half_f_excess", "corner"}
# (theorem, problem, residual keys): every theorem on diag:3 and upper:2, and
# the README example
INTERP_CASES = [
    ("dominate", {"algebra": "diag:3", "b": _diag(.3, .5, .1), "eps": .05},
     {"half_f_excess", "domination_deficit", "im_norm"}),
    ("dominate", {"algebra": "upper:2", "b": _UPPER_B, "seed": 2},
     {"half_f_excess", "domination_deficit", "im_norm"}),
    ("decompose", {"algebra": "diag:3", "b": _diag(.2, -.3, .5j)},
     {"half_f_excess", "half_f_excess_complement", "difference"}),
    ("decompose", {"algebra": "upper:2", "b": matrix_to_json(np.array([[.3, .2], [0, -.1j]]))},
     {"half_f_excess", "half_f_excess_complement", "difference"}),
    ("np", {"algebra": "diag:3", "c": _diag(.2, .4, .1), "near_eps": .05},
     {"half_f_excess", "schur_deficit", "im_norm"}),
    ("np", {"algebra": "upper:2", "c": _UPPER_B}, {"half_f_excess", "schur_deficit", "im_norm"}),
    ("urysohn", {"algebra": "diag:3", "q": _E11_3, "u": _diag(1, 1, 0)}, _HALF_F_CORNER),
    ("urysohn", {"algebra": "diag:3", "q": _E11_3, "u": _AMBIENT_U, "eps": .05}, _HALF_F_CORNER),
    ("urysohn", {"algebra": "upper:2", "q": _diag(1, 0), "u": _diag(1, 1)}, _HALF_F_CORNER),
    ("strict-urysohn", {"algebra": "diag:3", "q": _E11_3, "p": _diag(1, 1, 0)}, _HALF_F_CORNER),
    ("strict-urysohn", {"algebra": "upper:2", "q": _diag(1, 0), "p": _diag(1, 1)}, _HALF_F_CORNER),
    ("strict-urysohn", {"algebra": "upper:3", "q": _E11_3, "p": _diag(1, 1, 0), "eps": 0.05,
                        "seed": 3}, _HALF_F_CORNER),
    ("peak", {"algebra": "diag:3", "q": _E11_3, "b": _diag(.5, .3, .2)}, _HALF_F_CORNER),
    ("peak", {"algebra": "upper:2", "q": _diag(1, 0), "b": _diag(.5, 2.0)}, _HALF_F_CORNER),
    ("tietze", {"algebra": "diag:3", "q": _E11_3, "b": _diag(.5, .2, .1), "region": _SQUARE},
     {"corner", "norm_excess"}),
    ("tietze", {"algebra": "upper:2", "q": _diag(1, 0), "b": _diag(.5, .3j), "region": _SQUARE},
     {"corner", "norm_excess"}),
]


def test_interp_tietze_unit_other_than_identity_exits_2(tmp_path, capsys):
    # span{E11} has a unit, E11, but does not contain I, and the region
    # misses 0: no lift exists, so the input is refused
    e11 = _diag(1, 0)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"algebra": {"basis": [e11]}, "q": e11, "b": _diag(.5, 0),
                                   "region": [[.4, -.1], [.6, -.1], [.6, .1], [.4, .1]]}))
    assert main(["interp", str(problem), "--theorem", "tietze"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "does not contain the identity" in captured.err


@pytest.mark.parametrize("theorem,data,keys", INTERP_CASES)
def test_interp_every_theorem(tmp_path, capsys, theorem, data, keys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(data))
    assert main(["interp", str(problem), "--theorem", theorem]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "feasible"
    assert set(out["residuals"]) == keys
    assert max(out["residuals"].values()) <= 1e-5
    assert set(out) == {"verdict", "residuals", "solution"} | (
        {"complement"} if theorem == "decompose" else set())


@pytest.mark.parametrize("theorem,data", list({t: d for t, d, _ in INTERP_CASES}.items()))
def test_interp_verifies_each_solve_once(tmp_path, capsys, theorem, data):
    # the theorem's check function runs once, in the solve, and the residual
    # table is the largest value of each of its labels in the checks it returned
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(data))
    with returns_of(getattr(interp, "_check_" + theorem.replace("-", "_"))) as runs:
        assert main(["interp", str(problem), "--theorem", theorem]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(runs) == 1
    values = {label: value for label, value, _ in runs[0]}
    assert out["residuals"] == {key: max(0.0, *(values[label] for label in labels))
                                for key, labels in interp.THEOREMS[theorem].residuals.items()}


def test_interp_reads_span_algebras(tmp_path, capsys):
    basis = [matrix_to_json(np.array(m, complex)) for m in (
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]])]
    span = tmp_path / "span.json"
    span.write_text(json.dumps(basis))
    problem = tmp_path / "p.json"
    outs = []
    for algebra in ({"basis": basis}, f"span:{span}"):
        problem.write_text(json.dumps({"algebra": algebra, "q": _E11_3, "p": _diag(1, 1, 0)}))
        assert main(["interp", str(problem), "--theorem", "strict-urysohn"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["verdict"] == "feasible"


# Problems and algebras shaped like the real ones: canned names and matrices
# of one dimension n, so that the property reaches past the parsers into the
# preconditions and the solvers; arbitrary JSON stands in for any field.
_POOL = {n: [matrix_to_json(m) for m in (
    np.zeros((n, n)), np.eye(n), 0.5 * np.eye(n), np.diag([1.0] + [0.0] * (n - 1)),
    np.diag([0.3] + [0.6] * (n - 1)), np.triu(np.full((n, n), 0.4)), 1j * np.eye(n))]
    for n in (1, 2)}


@st.composite
def _shaped(draw, kind):
    n = draw(st.sampled_from([1, 2]))
    valid = st.sampled_from(_POOL[n])
    mat = st.one_of(valid, valid, valid, MATRIX_LIKE, JSON_VALUES)
    if kind == "algebra":
        mats = st.lists(valid, min_size=1, max_size=3) | st.lists(mat, max_size=3) | JSON_VALUES
        return draw(st.fixed_dictionaries({}, optional={
            "basis": mats, "generators": mats, "label": JSON_VALUES,
            "mode": st.sampled_from(["algebra", "cstar"]) | JSON_VALUES,
            "with_identity": st.booleans() | JSON_VALUES,
        }))
    number = st.sampled_from([0.05, 0.5]) | st.floats() | JSON_VALUES
    return draw(st.fixed_dictionaries(
        {"algebra": st.one_of(*[st.just(f"{kind}:{n}") for kind in ("diag", "upper", "full")],
                              JSON_VALUES),
         **{key: mat for key in ("b", "c", "q", "u", "p")},
         "region": st.sampled_from([_SQUARE]) | st.lists(
             st.lists(st.floats(), min_size=2, max_size=2), max_size=4) | JSON_VALUES},
        optional={"eps": number, "near_eps": number, "seed": st.integers(-2, 2) | JSON_VALUES},
    ))


def _exits_cleanly(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=JSON_VALUES | _shaped("problem"),
       theorem=st.sampled_from(["dominate", "decompose", "np", "urysohn", "strict-urysohn",
                                "peak", "tietze"]))
def test_interp_any_json_exits_cleanly(tmp_path_factory, doc, theorem):
    path = tmp_path_factory.getbasetemp() / "problem.json"
    path.write_text(json.dumps(doc))
    _exits_cleanly(["interp", str(path), "--theorem", theorem])


@settings(max_examples=150, deadline=None)
@given(doc=JSON_VALUES | _shaped("algebra"),
       op=st.sampled_from(["identity", "generate", "unitize", "a-h"]))
def test_algebra_any_json_exits_cleanly(tmp_path_factory, doc, op):
    path = tmp_path_factory.getbasetemp() / "algebra.json"
    path.write_text(json.dumps(doc))
    _exits_cleanly(["algebra", op, str(path)])


def test_verify_suite_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "lemerdy", "--json-out", str(out1)]) == 0
    assert main(["verify", "--suite", "lemerdy", "--json-out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    for r in (r1, r2):
        for rep in r:
            rep.pop("wall_time")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_verify_unknown_suite():
    # argparse rejects unknown suite names
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


# The shared options each subcommand reads; any other one is a usage error.
SHARED_BY_COMMAND = {
    "check": {"--tol", "--json-out"},
    "transform": {"--tol", "--json-out"},
    "power": {"--tol", "--json-out"},
    "project": {"--tol", "--json-out"},
    "algebra": {"--tol", "--json-out"},
    "range": {"--csv-out"},
    "interp": {"--tol", "--json-out", "--seed"},
    "verify": {"--tol", "--seed", "--json-out", "--csv-out"},
}
SHARED_VALUES = {"--tol": "1e-8", "--seed": "4", "--json-out": "out.json", "--csv-out": "out.csv"}
BASE_ARGV = {
    "check": ["check", "x.json"],
    "transform": ["transform", "x.json", "--op", "f"],
    "power": ["power", "x.json", "--alpha", "0.5"],
    "project": ["project", "x.json", "--kind", "support"],
    "algebra": ["algebra", "identity", "upper:2"],
    "range": ["range", "x.json"],
    "interp": ["interp", "p.json", "--theorem", "dominate"],
    "verify": ["verify", "--suite", "lemerdy"],
}


def test_each_subcommand_takes_only_the_shared_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shared = {name: {flag for action in parser._actions for flag in action.option_strings
                     if flag in SHARED_VALUES}
              for name, parser in sub.choices.items()}
    assert shared == SHARED_BY_COMMAND
    assert sum(map(len, shared.values())) == 18


@pytest.mark.parametrize("command,flag", [(c, f) for c in SHARED_BY_COMMAND for f in SHARED_VALUES
                                          if f not in SHARED_BY_COMMAND[c]])
def test_unread_shared_option_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGV[command], flag, SHARED_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_range_json_out_writes_nothing(tmp_path):
    src = _write_matrix(tmp_path / "x.json", np.eye(2))
    out = tmp_path / "range.json"
    with pytest.raises(SystemExit) as exc:
        main(["range", src, "--json-out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_verify_seed_and_csv_out(tmp_path):
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["verify", "--suite", "lemerdy", "--seed", "7", "--json-out", str(report)]
    assert main([*argv, "--csv-out", str(table)]) == 0
    (data,) = json.loads(report.read_text())
    assert data["seed"] == 7
    header, row = table.read_text().splitlines()
    assert header == "suite,cases,failures,passed,wall_time"
    assert row.split(",")[:4] == ["lemerdy", str(data["cases"]), "0", "True"]


def test_interp_seed_changes_nothing(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"algebra": "upper:2", "b": _UPPER_B}))
    argv = ["interp", str(problem), "--theorem", "dominate"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--seed", "3"]) == 0
    assert capsys.readouterr().out == plain


# Per-op options: (subcommand, option) -> the ops or methods that do not read it.
UNREAD_PER_OP = {
    ("algebra", "--k"): ("generate", "a-h", "unitize", "identity"),
    ("transform", "--tol"): ("cayley", "f"),
    ("power", "--nodes"): ("spectral", "series"),
    ("power", "--terms"): ("auto", "spectral", "balakrishnan"),
}
PER_OP_VALUES = {"--k": "3", "--tol": "1e-8", "--nodes": "64", "--terms": "100"}
PER_OP_ARGV = {
    "algebra": lambda op: ["algebra", op, "upper:2"],
    "transform": lambda op: ["transform", "x.json", "--op", op],
    "power": lambda method: ["power", "x.json", "--alpha", "0.5", "--method", method],
}


@pytest.mark.parametrize("command,flag,op", [(c, f, op) for (c, f), ops in UNREAD_PER_OP.items()
                                             for op in ops])
def test_per_op_option_its_op_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                            command, flag, op):
    monkeypatch.chdir(tmp_path)
    _write_matrix(tmp_path / "x.json", np.diag([1.0, 0.5]))
    with pytest.raises(SystemExit) as exc:
        main([*PER_OP_ARGV[command](op), flag, PER_OP_VALUES[flag], "--json-out", "out.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and command in err and f" {op}" in err
    assert not (tmp_path / "out.json").exists()


def test_finv_reads_tol(tmp_path, capsys):
    src = _write_matrix(tmp_path / "t.json", np.diag([1.0 - 1e-4, 0.5]))
    assert main(["transform", src, "--op", "finv"]) == 0
    assert np.allclose(matrix_from_json(json.loads(capsys.readouterr().out)),
                       np.diag([(1.0 - 1e-4) / 1e-4, 1.0]))
    assert main(["transform", src, "--op", "finv", "--tol", "1e-3"]) == 2
    assert "||T|| < 1" in capsys.readouterr().err


def test_series_reads_terms(tmp_path, capsys):
    half = _write_matrix(tmp_path / "h.json", 0.5 * np.eye(2))
    argv = ["power", half, "--alpha", "0.5", "--method", "series"]
    for extra, terms in (([], 200), (["--terms", "50"], 50)):
        assert main([*argv, *extra]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "series" and data["nodes_or_terms"] == terms
        assert np.allclose(matrix_from_json(data["value"]), np.sqrt(0.5) * np.eye(2), atol=1e-10)


# span{I + 1e-8 E12} holds I within --tol 1e-7 but not within the default 1e-9
_NEAR_UNIT = matrix_to_json(np.array([[1.0, 1e-8], [0.0, 1.0]], complex))


def test_generate_and_unitize_agree_under_tol(tmp_path, capsys):
    span = tmp_path / "span.json"
    span.write_text(json.dumps({"basis": [_NEAR_UNIT]}))
    for op in ("generate", "unitize"):
        assert main(["algebra", op, str(span), "--tol", "1e-7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["basis"]) == 1 and data["contains_identity"] is True
    assert main(["algebra", "unitize", str(span)]) == 0
    assert len(json.loads(capsys.readouterr().out)["basis"]) == 2


def test_unitize_below_the_rank_tolerance_exits_2(tmp_path, capsys):
    # at --tol 1e-11, I is not in span{I + 1e-10 E12} but cannot be adjoined
    # at RANK_TOL; peak interpolation reaches unitize through its q check
    near = matrix_to_json(np.array([[1.0, 1e-10], [0.0, 1.0]], complex))
    half = matrix_to_json(0.5 * matrix_from_json(near))
    span = tmp_path / "span.json"
    span.write_text(json.dumps({"basis": [near]}))
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"algebra": {"basis": [near]}, "q": near, "b": half}))
    for argv in (["algebra", "unitize", str(span)], ["interp", str(problem), "--theorem", "peak"]):
        assert main([*argv, "--tol", "1e-11"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "cannot adjoin I" in captured.err


def test_tol_decides_the_unit_of_interp_algebras(tmp_path, capsys):
    # Tietze on an algebra without I needs 0 in the region, and this one misses 0
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([_NEAR_UNIT]))
    region = [[0.4, -0.1], [0.6, -0.1], [0.6, 0.1], [0.4, 0.1]]
    half = matrix_to_json(0.5 * matrix_from_json(_NEAR_UNIT))
    problem = tmp_path / "p.json"
    for algebra in ({"basis": [_NEAR_UNIT]}, f"span:{listed}"):
        problem.write_text(json.dumps({"algebra": algebra, "q": _NEAR_UNIT, "b": half,
                                       "region": region}))
        argv = ["interp", str(problem), "--theorem", "tietze"]
        assert main(argv) == 2
        assert "does not contain the identity" in capsys.readouterr().err
        assert main([*argv, "--tol", "1e-7"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "feasible"


def test_algebra_generate_takes_canned_names(capsys):
    assert main(["algebra", "generate", "upper:2"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(
        json.dumps(algebra_to_json(upper_triangular_algebra(2))))
