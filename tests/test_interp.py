from __future__ import annotations

import json

import numpy as np
import pytest

from realpos import interp, suites
from realpos.algebra import (
    _from_real,
    _to_real,
    contains,
    diagonal_algebra,
    full_algebra,
    generate_algebra,
    identity_of,
    span_algebra,
    upper_triangular_algebra,
)
from realpos.cli import main
from realpos.cones import f_membership
from realpos.generators import gen_unitary
from realpos.interp import (
    AffineEquality,
    AffineTerm,
    ConvexRegion,
    FeasibilityProblem,
    HermFloor,
    MatrixAffine,
    NormCap,
    UnconvergedError,
    decompose,
    dominate,
    interp_np,
    peak_interpolate,
    solve_feasibility,
    strict_urysohn,
    tietze_lift,
    urysohn_interpolate,
)
from realpos.matrices import (DEFAULT_TOL, as_matrix, dagger, im_part, matrix_to_json, min_real_eig,
                              op_norm)
from realpos.powers import power
from realpos.projections import peak_projection, support_projection

from conftest import unit


def _fixed_target_problem(alg, target):
    n = alg.ambient_dim
    eye = np.eye(n, dtype=complex)
    amap = MatrixAffine([AffineTerm(eye, eye)], np.zeros((n, n), complex))
    return FeasibilityProblem(alg, equalities=[AffineEquality(amap, target, "a = R")])


def test_solve_feasibility_exact_target(e11, e12):
    alg = span_algebra([e11, e12])
    target = 0.3 * e11 + (0.1 + 0.2j) * e12
    sol = solve_feasibility(_fixed_target_problem(alg, target))
    assert sol.verdict == "feasible"
    assert op_norm(sol.value - target) <= 1e-10
    assert sol.iterations == 1  # one affine projection lands on the target


def test_solve_feasibility_infeasible_target_reports_distance(e11, e12):
    alg = span_algebra([e12])
    sol = solve_feasibility(_fixed_target_problem(alg, e11.astype(complex)))
    assert sol.verdict == "unconverged"
    assert sol.residuals["a = R"] == pytest.approx(1.0, abs=1e-9)


def test_feasibility_problem_needs_constraints():
    with pytest.raises(ValueError):
        FeasibilityProblem(full_algebra(2))


def test_feasibility_problem_rejects_inconsistent_shapes():
    alg = full_algebra(2)
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="inconsistent shapes"):
        FeasibilityProblem(alg, equalities=[
            AffineEquality(MatrixAffine([AffineTerm(eye2, eye2)], np.zeros((2, 2))), eye3, "a = I")])
    with pytest.raises(ValueError, match="inconsistent shapes"):
        FeasibilityProblem(alg, floors=[
            HermFloor(MatrixAffine([AffineTerm(eye2, eye2)], np.zeros((3, 3))), "a >= 0")])


def test_feasibility_problem_rejects_repeated_labels(e11, e12):
    # residuals are keyed by label: a repeated one would hide the violation
    # of every constraint but the last that carries it
    alg = span_algebra([e12])
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), complex)
    a = MatrixAffine([AffineTerm(eye, eye)], zero)
    re_a_plus_1 = MatrixAffine([AffineTerm(eye / 2.0, eye), AffineTerm(eye / 2.0, eye, conj=True)], eye)

    def problem(eq_label, floor_label):
        # a = E11 misses span{E12} by 1 at every point; Re a + I >= 0 holds at 0
        return FeasibilityProblem(alg, equalities=[AffineEquality(a, e11.astype(complex), eq_label)],
                                  floors=[HermFloor(re_a_plus_1, floor_label)])

    with pytest.raises(ValueError, match="'x' is repeated"):
        problem("x", "x")
    sol = solve_feasibility(problem("eq", "floor"), max_rounds=50)
    assert sol.verdict == "unconverged"
    assert sol.residuals["eq"] == pytest.approx(1.0, abs=1e-9)
    assert sol.residuals["floor"] == 0.0


@pytest.mark.parametrize("kind,bad", [
    ("floor const", np.inf), ("floor const", np.nan), ("equality target", np.inf),
    ("cap", np.nan), ("cap", np.inf), ("cap", -1.0)])
def test_feasibility_problem_rejects_non_finite_maps_and_bad_caps(kind, bad):
    # unchecked, a non-finite floor reads as feasible (its NaN eigenvalue is
    # lost in max(0, -low)), a NaN cap or equality breaks LAPACK's SVD, and a
    # negative cap runs to an unconverged verdict
    alg = diagonal_algebra(2)
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), complex)
    a = MatrixAffine([AffineTerm(eye, eye)], zero)
    spoilt = zero.copy()
    spoilt[0, 0] = bad
    con = {
        "floor const": lambda: {"floors": [HermFloor(MatrixAffine([AffineTerm(eye, eye)], spoilt), "bad")]},
        "equality target": lambda: {"equalities": [AffineEquality(a, spoilt, "bad")]},
        "cap": lambda: {"caps": [NormCap(a, bad, "bad")]},
    }[kind]()
    with pytest.raises(ValueError, match="'bad'"):
        FeasibilityProblem(alg, **con)


class _Stop(Exception):
    pass


def _recorded_problems(monkeypatch, calls) -> list:
    """The feasibility problems the solver calls build and the keyword
    arguments (the warm start) they pass, recorded as they reach the
    engine (which is never run)."""
    problems = []

    def record(problem, **kwargs):
        problems.append((problem, kwargs))
        raise _Stop

    monkeypatch.setattr(interp, "solve_feasibility", record)
    for call in calls:
        with pytest.raises(_Stop):
            call()
    return problems


def _conjugated(mats, seed):
    w = gen_unitary(mats[0].shape[0], seed)
    return w, generate_algebra([w @ m @ dagger(w) for m in mats])


def _reference_value(con, alg, u):
    """const + sum left (a or a*) right, at a = sum_j (u_j + i u_{d+j}) b_j."""
    d = alg.dim
    a = np.tensordot(u[:d] + 1j * u[d:], alg.basis, axes=1)
    out = np.array(con.map.const, dtype=complex)
    for t in con.map.terms:
        out = out + t.left @ (a.conj().T if t.conj else a) @ t.right
    return out - con.target if isinstance(con, AffineEquality) else out


def _theorem_algebras() -> tuple:
    """A unital and a nonunital algebra in conjugated bases, with the
    conjugating unitaries: upper:3 and span{E11, E12} in M_3."""
    w, unital = _conjugated(list(upper_triangular_algebra(3).basis), 4)
    assert unital.contains_identity
    v, nonunital = _conjugated([unit(3, 0, 0), unit(3, 0, 1)], 5)
    assert not nonunital.contains_identity
    return w, unital, v, nonunital


def _theorem_problems(monkeypatch) -> list:
    """(problem, engine keyword arguments) of the Tietze lift, the one theorem
    that builds engine problems, on a unital and a nonunital algebra."""
    w, unital, v, nonunital = _theorem_algebras()
    q = w @ np.diag([1.0, 0, 0]) @ dagger(w)
    bq = w @ np.diag([0.5, 0.2, 0.1]) @ dagger(w)
    region = ConvexRegion(np.array([-0.5 - 0.5j, 1 - 0.5j, 1 + 0.5j, -0.5 + 0.5j]))
    q1 = v @ np.diag([1.0, 0, 0]) @ dagger(v)
    calls = [
        lambda: tietze_lift(unital, q, bq, region),
        lambda: tietze_lift(nonunital, q1, 0.5 * q1, region),
    ]
    return _recorded_problems(monkeypatch, calls)


def test_compiled_maps_match_their_sandwich_terms(monkeypatch):
    problems = [problem for problem, _ in _theorem_problems(monkeypatch)]
    rng = np.random.default_rng(0)
    labels = set()
    for problem in problems:
        alg = problem.algebra
        constraints = [*problem.equalities, *problem.floors, *problem.caps]
        assert len(constraints) == len(problem.compiled)
        assert len({con.label for con in constraints}) == len(constraints)
        for con, compiled in zip(constraints, problem.compiled):
            labels.add(con.label)
            assert compiled.jac.shape == (2 * np.size(con.map.const), 2 * alg.dim)
            for _ in range(3):
                u = rng.standard_normal(2 * alg.dim)
                flat = compiled.jac @ u + compiled.const
                half = flat.size // 2
                got = (flat[:half] + 1j * flat[half:]).reshape(np.shape(con.map.const))
                want = _reference_value(con, alg, u)
                assert op_norm(got - want) <= 1e-12 * max(1.0, op_norm(want)), con.label
    assert {problem.algebra.contains_identity for problem in problems} == {True, False}
    assert labels == {"g q = b q", "q g = b q", "a in ball", *(f"W(g) halfplane {k}" for k in range(4))}


def _loop_residuals(problem, u) -> dict:
    """One kernel call per constraint: the loop the batched residuals replace."""
    out = {}
    for c in problem.compiled:
        m = c.value(u)
        if isinstance(c.con, AffineEquality):
            out[c.con.label] = op_norm(m)
        elif isinstance(c.con, HermFloor):
            out[c.con.label] = max(0.0, -min_real_eig(m))
        else:
            out[c.con.label] = max(0.0, op_norm(m) - c.con.cap)
    return out


def _bits(res: dict) -> list:
    return [(label, value.hex()) for label, value in res.items()]


def _warm_coords(problem, kwargs) -> np.ndarray:
    return _to_real(problem.algebra.coords(as_matrix(kwargs["warm_start"])))


def test_batched_residuals_equal_the_per_constraint_loop(monkeypatch):
    rng = np.random.default_rng(1)
    violated = set()
    for problem, kwargs in _theorem_problems(monkeypatch):
        warm = _warm_coords(problem, kwargs)
        for u in (warm, warm + 0.3 * rng.standard_normal(warm.shape), 3.0 * rng.standard_normal(warm.shape)):
            got = interp._residuals(problem, u)
            assert _bits(got) == _bits(_loop_residuals(problem, u))
            violated |= {type(c.con) for c in problem.compiled if got[c.con.label] > 0.0}
    assert violated == {AffineEquality, HermFloor, NormCap}


class _Counted:
    """Counts the calls of the function it wraps."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_feasible_warm_start_builds_only_the_affine_pseudo_inverse(monkeypatch):
    # Tietze's warm start is feasible once projected onto the equality flat,
    # so the solve stops at round 1: one SVD builds the flat, one
    # scoring reads it, and no floor or cap is ever clipped
    for problem, kwargs in _theorem_problems(monkeypatch):
        clip, scores = _Counted(interp._clip), _Counted(interp._residuals)
        svd, make_rng = _Counted(np.linalg.svd), _Counted(np.random.default_rng)
        monkeypatch.setattr(interp, "_clip", clip)
        monkeypatch.setattr(interp, "_residuals", scores)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.random, "default_rng", make_rng)
        sol = solve_feasibility(problem, **kwargs)
        monkeypatch.undo()
        assert (sol.verdict, sol.iterations) == ("feasible", 1)
        assert (clip.calls, scores.calls, make_rng.calls) == (0, 1, 0)
        # op_norms' batched residual SVDs go through np.linalg.svd too
        norm_batches = [floor for floor, _ in problem.batches].count(False)
        assert svd.calls == norm_batches + (1 if problem.equalities else 0)


def test_zero_rounds_scores_the_warm_start(monkeypatch):
    # max_rounds=0 returns the warm start projected onto the equality flat
    for problem, kwargs in _theorem_problems(monkeypatch):
        warm = _warm_coords(problem, kwargs)
        sol = solve_feasibility(problem, max_rounds=0, **kwargs)
        assert sol.iterations == 0
        t, const, pinv, _ = interp._flat(problem)
        u = warm - pinv @ (t @ warm + const)
        if problem.equalities:
            assert np.allclose(u, warm - np.linalg.pinv(t) @ (t @ warm + const), atol=1e-12)
        else:
            assert np.array_equal(u, warm)
        assert _bits(sol.residuals) == _bits(_loop_residuals(problem, u))
        assert np.array_equal(sol.value, problem.algebra.reconstruct(_from_real(u, (problem.algebra.dim,))))


def _stagnating_problem() -> FeasibilityProblem:
    """An infeasible floor and cap on upper:2, whose rounds stagnate."""
    rng = np.random.default_rng(1)
    eye = np.eye(2, dtype=complex)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = rng.standard_normal((2, 2))
    s = (s + s.T) / 2.0 - 1.5 * np.eye(2)
    floor = MatrixAffine([AffineTerm(z / 2.0, eye), AffineTerm(eye / 2.0, dagger(z), conj=True)], s)
    cap = MatrixAffine([AffineTerm(w, eye)], np.zeros((2, 2), complex))
    return FeasibilityProblem(upper_triangular_algebra(2), floors=[HermFloor(floor, "f")],
                              caps=[NormCap(cap, 0.3, "c")])


def test_clipping_solve_is_deterministic_and_draws_no_random_numbers(monkeypatch):
    runs = []
    for _ in range(2):
        problem = _stagnating_problem()
        make_rng = _Counted(np.random.default_rng)
        monkeypatch.setattr(np.random, "default_rng", make_rng)
        sol = solve_feasibility(problem, max_rounds=800)
        monkeypatch.undo()
        assert make_rng.calls == 0
        assert (sol.verdict, sol.iterations) == ("unconverged", 800)
        # the clip/pull-back engine without restarts stopped at 1.9044511528
        assert max(sol.residuals.values()) <= 1.9044511528
        runs.append((sol.value.tobytes(), _bits(sol.residuals)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("theorem", ["tietze"])
def test_cold_start_solves_converge(monkeypatch, theorem):
    # from zero, the rounds themselves must reach a feasible point
    recorded = []
    for k in range(10):
        inst = suites._case_seed(0, sum(map(ord, theorem)) % 997 + 31 * k)
        alg, problem = suites._interp_instance(theorem, k, inst, DEFAULT_TOL)
        recorded += _recorded_problems(
            monkeypatch, [lambda: interp.THEOREMS[theorem].solve(alg, problem, DEFAULT_TOL)])
        monkeypatch.undo()
    rounds = []
    for problem, _ in recorded:
        sol = solve_feasibility(problem)
        assert sol.verdict == "feasible", sol.residuals
        rounds.append(sol.iterations)
    assert max(rounds) > 1


def test_dominate_examples(e11):
    corner = span_algebra([e11])
    a = dominate(corner, 0.5 * e11, eps=0.01)
    assert f_membership(a).half_f_gap >= -1e-6
    assert min_real_eig(a - 0.5 * e11) >= -1e-6
    assert op_norm(im_part(a)) < 0.01

    a = dominate(full_algebra(2), 0.5 * np.eye(2), eps=0.01)
    assert min_real_eig(a - 0.5 * np.eye(2)) >= -1e-6

    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = g @ dagger(g)
    b *= 0.9 / op_norm(b)
    a = dominate(upper_triangular_algebra(2), b, eps=0.05)
    assert f_membership(a).half_f_gap >= -1e-6
    assert min_real_eig(a - b) >= -1e-6


def test_dominate_preconditions(e11, e12):
    with pytest.raises(ValueError):
        dominate(full_algebra(2), np.eye(2), eps=0.1)  # norm not < 1
    with pytest.raises(ValueError):
        dominate(full_algebra(2), 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]]), eps=0.1)
    with pytest.raises(ValueError):
        dominate(span_algebra([e12]), 0.5 * np.eye(2), eps=0.1)  # nonunital


def test_dominate_monotone_roots():
    # on a commutative algebra the returned element dominates b through roots
    alg = diagonal_algebra(3)
    rng = np.random.default_rng(9)
    b = np.diag(rng.random(3) * 0.8).astype(complex)
    a = dominate(alg, b, eps=0.01)
    for m in (2, 3):
        root = power(a, 1.0 / m).value
        assert min_real_eig(root - b) >= -1e-5


def test_decompose():
    up = upper_triangular_algebra(2)
    b = np.array([[0.3, 0.5], [0.0, -0.2]], dtype=complex)
    x, y = decompose(up, b)
    assert f_membership(x).half_f_gap >= -1e-6
    assert f_membership(y).half_f_gap >= -1e-6
    assert op_norm(b - (x - y)) <= 1e-6
    assert contains(up, x)[0] and contains(up, y)[0]

    x0, y0 = decompose(up, np.zeros((2, 2)))
    assert op_norm(x0 - y0) <= 1e-8

    xh, yh = decompose(full_algebra(2), 0.5 * np.eye(2))
    assert op_norm((xh - yh) - 0.5 * np.eye(2)) <= 1e-6

    with pytest.raises(ValueError):
        decompose(up, np.eye(2))


def test_interp_np():
    alg = diagonal_algebra(3)
    c = np.diag([0.1, 0.5, 0.8]).astype(complex)
    a = interp_np(alg, c)
    n = 3
    eye = np.eye(n)
    block = np.block([[eye - c, dagger(eye - a)], [eye - a, eye]])
    assert min_real_eig(block) >= -1e-6
    assert f_membership(a).half_f_gap >= -1e-6
    assert op_norm(im_part(a)) < 1e-2

    a0 = interp_np(full_algebra(2), np.zeros((2, 2)))
    assert f_membership(a0).half_f_gap >= -1e-6

    # scalar witness level: |1 - a|^2 <= 1/2 at a = (1 - 1/sqrt2)
    aw = (1.0 - 1.0 / np.sqrt(2.0)) * np.eye(2)
    blk = np.block([[0.5 * np.eye(2), dagger(np.eye(2) - aw)], [np.eye(2) - aw, np.eye(2)]])
    assert min_real_eig(blk) >= -1e-12


def test_urysohn_in_algebra_mode(e11):
    up = upper_triangular_algebra(2)
    a = urysohn_interpolate(up, e11.astype(complex), np.eye(2, dtype=complex))
    assert op_norm(a @ e11 - e11) <= 1e-6
    assert op_norm(e11 @ a - e11) <= 1e-6
    assert f_membership(a).half_f_gap >= -1e-6

    zero = np.zeros((2, 2), dtype=complex)
    a = urysohn_interpolate(up, zero, np.eye(2, dtype=complex))
    assert f_membership(a).half_f_gap >= -1e-6

    a = urysohn_interpolate(full_algebra(2), np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert op_norm(a - np.eye(2)) <= 1e-6


def test_urysohn_ambient_mode():
    alg = diagonal_algebra(4)
    q = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    v = np.zeros((4, 1), dtype=complex)
    v[1, 0] = 1.0 / np.sqrt(2.0)
    v[2, 0] = 1j / np.sqrt(2.0)
    u = q + v @ dagger(v)  # not diagonal, so not in the algebra
    assert not contains(alg, u)[0]
    a = urysohn_interpolate(alg, q, u, eps=0.05)
    assert op_norm(a @ q - q) <= 1e-6
    assert op_norm(a @ (np.eye(4) - u)) < 0.05
    assert op_norm((np.eye(4) - u) @ a) < 0.05


def test_urysohn_requires_domination(e11):
    with pytest.raises(ValueError):
        urysohn_interpolate(full_algebra(2), np.eye(2, dtype=complex), e11.astype(complex))


def test_strict_urysohn():
    alg = diagonal_algebra(3)
    q = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = strict_urysohn(alg, q, p)
    assert op_norm(peak_projection(x).proj - q) <= 1e-5
    assert op_norm(support_projection(x).proj - p) <= 1e-5
    prod = support_projection(x @ (np.eye(3) - x), method="oracle").proj
    assert op_norm(prod - (p - q)) <= 1e-5

    x = strict_urysohn(alg, q, q)
    assert op_norm(x - q) <= 1e-6

    zero = np.zeros((3, 3), dtype=complex)
    x = strict_urysohn(alg, zero, zero)
    assert op_norm(x) <= 1e-6


def _never_solve(problem, **kwargs):
    raise AssertionError("a closed-form solver reached the feasibility engine")


def test_strict_urysohn_solver_route(monkeypatch):
    # one route for every input: the closed form, verified, with no engine call
    monkeypatch.setattr(interp, "solve_feasibility", _never_solve)
    q = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    for alg in (diagonal_algebra(3), upper_triangular_algebra(3)):
        x = strict_urysohn(alg, q, p)
        assert np.array_equal(x, (p + q) / 2.0)
        assert op_norm(peak_projection(x).proj - q) <= 1e-5
        assert op_norm(support_projection(x).proj - p) <= 1e-5
        prod = support_projection(x @ (np.eye(3) - x), method="oracle").proj
        assert op_norm(prod - (p - q)) <= 1e-5


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_strict_urysohn_is_the_closed_form_without_the_engine(monkeypatch, n):
    # rotated q <= p of ranks k <= m: x = (p + q)/2, verified, and no engine
    monkeypatch.setattr(interp, "solve_feasibility", _never_solve)
    w = gen_unitary(n, n)
    for k, m in ((0, 1), (1, 1), (1, n - 1), (n // 2, n)):
        q = w[:, :k] @ dagger(w[:, :k])
        p = w[:, :m] @ dagger(w[:, :m])
        x = strict_urysohn(full_algebra(n), q, p, retries=3, seed=7)
        assert np.array_equal(x, (p + q) / 2.0)
        (out,), checks = interp.THEOREMS["strict-urysohn"].solve(full_algebra(n), {"q": q, "p": p}, DEFAULT_TOL)
        assert np.array_equal(out, x)
        assert all(ok for _, _, ok in checks), checks


def test_closed_form_solver_routes(monkeypatch):
    # every theorem but Tietze returns its proof's point through a.project,
    # verified, with no engine call: on a unital algebra all five, on a
    # nonunital one Urysohn (u in A and u ambient) and peak
    monkeypatch.setattr(interp, "solve_feasibility", _never_solve)
    w, unital, v, nonunital = _theorem_algebras()
    e = identity_of(unital)
    q = w @ np.diag([1.0, 0, 0]) @ dagger(w)
    b = w @ np.diag([0.3, 0.5, 0.2]) @ dagger(w)
    bq = w @ np.diag([0.5, 0.2, 0.1]) @ dagger(w)
    ambient_u = w @ np.array([[1.0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]) @ dagger(w)  # not in A
    q1 = v @ np.diag([1.0, 0, 0]) @ dagger(v)
    assert not contains(unital, ambient_u)[0] and contains(nonunital, q1)[0]
    eps = {"eps": 0.05, "near_eps": 0.05}
    cases = [
        ("dominate", unital, {"b": b}, [0.5 * (1.0 + op_norm(b)) * e]),
        ("decompose", unital, {"b": 0.5 * b}, [(e + 0.5 * b) / 2.0]),
        ("np", unital, {"c": b}, [0.5 * (1.0 + op_norm(b)) * e]),
        ("urysohn", unital, {"q": q, "u": np.eye(3)}, [q]),
        ("urysohn", unital, {"q": q, "u": ambient_u}, [q]),
        ("peak", unital, {"q": q, "b": bq}, [bq @ q]),
        ("urysohn", nonunital, {"q": q1, "u": q1}, [q1]),
        ("urysohn", nonunital, {"q": q1, "u": np.eye(3)}, [q1]),
        ("peak", nonunital, {"q": q1, "b": 0.5 * q1}, [0.5 * q1 @ q1]),
    ]
    for theorem, alg, problem, closed in cases:
        outputs, checks = interp.THEOREMS[theorem].solve(alg, {**problem, **eps}, DEFAULT_TOL)
        want = [alg.project(m) for m in closed]
        if theorem == "decompose":
            want.append(want[0] - 0.5 * b)
        assert all(np.array_equal(got, m) for got, m in zip(outputs, want, strict=True)), theorem
        assert all(ok for _, _, ok in checks), (theorem, checks)


def test_closed_forms_need_a_hermitian_unit(tmp_path, capsys):
    # span{[[1, 1], [0, 0]]} is unital, but its unit is an idempotent of norm
    # sqrt 2; the closed forms need an identity of norm 1
    idem = np.array([[1.0, 1.0], [0.0, 0.0]])
    alg = span_algebra([idem])
    assert np.allclose(identity_of(alg), idem)
    zero = np.zeros((2, 2))
    for call in (lambda: dominate(alg, zero), lambda: decompose(alg, zero), lambda: interp_np(alg, zero)):
        with pytest.raises(ValueError, match="Hermitian unit"):
            call()
    problem = tmp_path / "p.json"
    for theorem, key in (("dominate", "b"), ("decompose", "b"), ("np", "c")):
        problem.write_text(json.dumps({"algebra": {"basis": [matrix_to_json(idem)]}, key: matrix_to_json(zero)}))
        capsys.readouterr()
        assert main(["interp", str(problem), "--theorem", theorem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Hermitian unit" in err


def _tilted_p() -> np.ndarray:
    # p projects onto span{(cos t, sin t, 0), e3}; lambda_min(p - E11) = -sin t
    t = 2e-4
    v = np.array([[np.cos(t), 0.0], [np.sin(t), 0.0], [0.0, 1.0]], dtype=complex)
    return v @ dagger(v)


@pytest.mark.parametrize("alg,q,p,match", [
    (full_algebra(3), unit(3, 0, 0), _tilted_p(), "p must dominate q"),
    (upper_triangular_algebra(2), np.full((2, 2), 0.5), np.eye(2), "q is not in the algebra"),
], ids=["p-tilted-off-q", "q-outside-upper2"])
def test_strict_urysohn_preconditions(alg, q, p, match):
    with pytest.raises(ValueError, match=match):
        strict_urysohn(alg, q, p)


def test_peak_interpolate(e11):
    q = e11.astype(complex)
    b = np.diag([0.5, 5.0]).astype(complex)
    g = peak_interpolate(full_algebra(2), q, b)
    assert f_membership(g).half_f_gap >= -1e-6
    assert op_norm(g @ q - b @ q) <= 1e-6

    # b = q: any Urysohn-style output works
    g = peak_interpolate(full_algebra(2), q, q)
    assert op_norm(g @ q - q) <= 1e-6

    with pytest.raises(ValueError):
        peak_interpolate(full_algebra(2), q, np.array([[0.0, 1.0], [0.0, 0.0]]))  # no commuting


def test_convex_region_validation():
    with pytest.raises(ValueError):
        ConvexRegion(np.array([0.0 + 0j, 1.0 + 0j]))
    with pytest.raises(ValueError):
        ConvexRegion(np.array([0.0 + 0j, 0.5 + 0j, 1.0 + 0j]))  # collinear = segment
    with pytest.raises(ValueError):
        ConvexRegion(np.array([0 + 0j, 1 + 0j, 1 + 1j, 0.9 + 0.1j, 0 + 1j]))  # nonconvex
    # clockwise input is normalized
    cw = ConvexRegion(np.array([0 + 0j, 0 + 1j, 1 + 1j, 1 + 0j]))
    assert cw.contains_point(0.5 + 0.5j)
    assert not cw.contains_point(2.0 + 0.0j)
    assert len(cw.half_planes()) == 4


def test_tietze_lift(e11):
    square = ConvexRegion(np.array([0 - 0.25j, 1 - 0.25j, 1 + 0.25j, 0 + 0.25j]))
    q = e11.astype(complex)
    b = np.diag([0.5, 3.0j]).astype(complex)
    g = tietze_lift(full_algebra(2), q, b, square)
    assert op_norm(g) <= 1.0 + 1e-6
    assert op_norm(g @ q - b @ q) <= 1e-6
    for theta, h in square.half_planes():
        top = np.linalg.eigvalsh((np.exp(-1j * theta) * g + dagger(np.exp(-1j * theta) * g)) / 2.0)[-1]
        assert top <= h + 1e-6

    # compression numerical range escaping the region is a precondition error
    with pytest.raises(ValueError):
        tietze_lift(full_algebra(2), q, np.diag([5.0, 0.0]).astype(complex), square)


def test_tietze_nonunital_needs_zero_in_region(e11, e12):
    alg = span_algebra([e11, e12])  # no two-sided identity
    q = e11.astype(complex)
    b = 0.5 * e11
    away = ConvexRegion(np.array([0.3 + 0j, 0.7 + 0j, 0.7 + 0.2j, 0.3 + 0.2j]))
    with pytest.raises(ValueError, match="0"):
        tietze_lift(alg, q, b, away)
    around = ConvexRegion(np.array([-0.1 - 0.1j, 0.7 - 0.1j, 0.7 + 0.2j, -0.1 + 0.2j]))
    g = tietze_lift(alg, q, b, around)
    assert op_norm(g @ q - b @ q) <= 1e-6
    assert op_norm(g) <= 1.0 + 1e-6


def test_unconverged_error_carries_residuals(e11, e12):
    alg = span_algebra([e12])
    sol = solve_feasibility(_fixed_target_problem(alg, e11.astype(complex)), max_rounds=50)
    assert sol.verdict == "unconverged"
    err = UnconvergedError("nope", sol)
    assert err.solution is sol
