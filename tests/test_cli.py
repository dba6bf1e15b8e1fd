from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos.cli import main
from realpos.matrices import matrix_from_json, matrix_to_json


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


def test_project_command(tmp_path, capsys):
    src = _write_matrix(tmp_path / "x.json", np.diag([0.0, 1.0, 1.0j]))
    assert main(["project", src, "--kind", "support", "--method", "both"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "converged"
    assert data["oracle_residual"] <= 1e-8
    assert isinstance(data["trace"], list)

    div = _write_matrix(tmp_path / "d.json", np.diag([1.0, -1.0]))
    assert main(["project", div, "--kind", "peak", "--method", "iterative"]) == 1


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
    # canned names obey REALPOS_MAX_DIM like matrices read from files
    assert main(["algebra", "identity", "full:20"]) == 2
    assert "REALPOS_MAX_DIM" in capsys.readouterr().err
    assert main(["algebra", "identity", "blockupper:10,10"]) == 2


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
    for bad in ({"algebra": 5, "b": b}, {"algebra": [1, 2]}, {"algebra": {"basis": 3}},
                {"algebra": "full:20"}, [1, 2], {"algebra": "diag:2", "b": b, "seed": [0]}):
        problem.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["interp", str(problem), "--theorem", "dominate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
