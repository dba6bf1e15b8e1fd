from __future__ import annotations

import json

import numpy as np
import pytest

from realpos import algebra, interp, suites
from realpos.algebra import (
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
    ConvexRegion,
    decompose,
    dominate,
    interp_np,
    peak_interpolate,
    strict_urysohn,
    tietze_lift,
    urysohn_interpolate,
)
from realpos.matrices import (DEFAULT_TOL, dagger, im_part, matrix_to_json, min_real_eig,
                              op_norm, re_part)
from realpos.powers import power
from realpos.projections import peak_projection, support_projection

from conftest import unit


def _conjugated(mats, seed):
    w = gen_unitary(mats[0].shape[0], seed)
    return w, generate_algebra([w @ m @ dagger(w) for m in mats])


def _theorem_algebras() -> tuple:
    """A unital and a nonunital algebra in conjugated bases, with the
    conjugating unitaries: upper:3 and span{E11, E12} in M_3."""
    w, unital = _conjugated(list(upper_triangular_algebra(3).basis), 4)
    assert unital.contains_identity
    v, nonunital = _conjugated([unit(3, 0, 0), unit(3, 0, 1)], 5)
    assert not nonunital.contains_identity
    return w, unital, v, nonunital


_SQUARE = np.array([-0.5 - 0.5j, 1 - 0.5j, 1 + 0.5j, -0.5 + 0.5j])


def _tietze_problems() -> list:
    """(algebra, q, b, region) of a Tietze lift on a unital and a nonunital
    algebra, in conjugated bases."""
    w, unital, v, nonunital = _theorem_algebras()
    q = w @ np.diag([1.0, 0, 0]) @ dagger(w)
    bq = w @ np.diag([0.5, 0.2, 0.1]) @ dagger(w)
    q1 = v @ np.diag([1.0, 0, 0]) @ dagger(v)
    region = ConvexRegion(_SQUARE)
    return [(unital, q, bq, region), (nonunital, q1, 0.5 * q1, region)]


def _reference_checks(g, q, b, region) -> dict:
    """Each Tietze constraint's violation at g, one constraint at a time:
    the corners g q = q g = b q, ||g|| <= 1 and W(g) in each half-plane."""
    out = {"contraction": op_norm(g) - 1.0, "g q = b q": op_norm(g @ q - b @ q),
           "q g = b q": op_norm(q @ g - b @ q)}
    for k, (theta, h) in enumerate(region.half_planes()):
        out[f"W(g) halfplane {k}"] = np.linalg.eigvalsh(re_part(np.exp(-1j * theta) * g))[-1] - h
    return out


def test_compiled_maps_match_their_sandwich_terms():
    # the Tietze checks are the constraints of the lift: at random points of
    # A each one's value is its own sandwich term's violation
    rng = np.random.default_rng(0)
    labels = set()
    for alg, q, b, region in _tietze_problems():
        for _ in range(3):
            coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            g = alg.reconstruct(coords)
            checks = interp._check_tietze(g, q, b, region)
            want = _reference_checks(g, q, b, region)
            assert [label for label, _, _ in checks] == list(want)
            for label, value, _ in checks:
                labels.add(label)
                assert abs(value - want[label]) <= 1e-12 * max(1.0, abs(want[label])), label
    assert labels == {"g q = b q", "q g = b q", "contraction", *(f"W(g) halfplane {k}" for k in range(4))}


def test_batched_residuals_equal_the_per_constraint_loop():
    # the half-plane checks come from one batched eigenvalue call; each
    # equals its own call bit for bit, at the lift and away from it
    rng = np.random.default_rng(1)
    violated = set()
    for alg, q, b, region in _tietze_problems():
        lift = tietze_lift(alg, q, b, region)
        for g in (lift, lift + 0.3 * alg.project(rng.standard_normal(q.shape)),
                  3.0 * alg.project(rng.standard_normal(q.shape))):
            checks = interp._check_tietze(g, q, b, region)
            want = _reference_checks(g, q, b, region)
            for label, value, ok in checks:
                if label.startswith("W(g)"):
                    assert value.hex() == float(want[label]).hex(), label
                if not ok:
                    violated.add(label.split(" ")[0])
    assert violated == {"contraction", "g", "q", "W(g)"}


def test_feasibility_problem_rejects_repeated_labels(e11):
    # residuals are keyed by check label: a repeated one would hide the
    # violation of every check but the last that carries it
    for alg, q, b, region in _tietze_problems():
        (g,), checks = interp.THEOREMS["tietze"].solve(alg, {"q": q, "b": b, "region": region}, DEFAULT_TOL)
        assert len({label for label, _, _ in checks}) == len(checks)
    alg, q, b = full_algebra(2), e11.astype(complex), 0.5 * e11
    g = np.diag([0.5, 0.0]) + 0.2 * unit(2, 0, 1)  # g q = b q, but q g misses b q by 0.2
    checks = interp._check_tietze(g, q, b, ConvexRegion(_SQUARE))
    residuals = interp.THEOREMS["tietze"].residual_table(checks)
    assert residuals["corner"] == pytest.approx(0.2, abs=1e-12)
    assert residuals["norm_excess"] == 0.0
    with pytest.raises(interp.VerificationFailedError, match=r"q g = b q: 2\.000e-01"):
        interp._verify(checks, "tietze_lift")


@pytest.mark.parametrize("kind,bad", [
    ("floor const", np.inf), ("floor const", np.nan), ("equality target", np.inf)])
def test_feasibility_problem_rejects_non_finite_maps_and_bad_caps(kind, bad, e11):
    # the region's vertices give each W(g) floor its constant and b q is the
    # target of g q = q g = b q: a non-finite one is rejected before any
    # eigenvalue or norm is computed (the norm cap is 1, so no cap is bad)
    spoilt = np.array(_SQUARE)
    spoilt[0] = bad
    q, b = e11.astype(complex), 0.5 * e11.astype(complex)
    if kind == "floor const":
        with pytest.raises(ValueError, match="region vertices must be finite"):
            tietze_lift(full_algebra(2), q, b, ConvexRegion(spoilt))
    else:
        b[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            tietze_lift(full_algebra(2), q, b, ConvexRegion(_SQUARE))


def test_feasibility_problem_rejects_inconsistent_shapes(e11):
    region = ConvexRegion(_SQUARE)
    q2, q3 = e11.astype(complex), unit(3, 0, 0).astype(complex)
    with pytest.raises(ValueError, match="dimension mismatch"):
        tietze_lift(full_algebra(2), q3, 0.5 * q3, region)
    with pytest.raises(ValueError, match="square"):
        tietze_lift(full_algebra(2), q2, np.zeros((2, 3)), region)


class _Counted:
    """Counts the calls of the function it wraps."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_zero_rounds_scores_the_warm_start():
    # the lift is the point a search would start from, q b q + c (I - q)
    # (b q without I), and the checks the solve returns score that point
    for alg, q, b, region in _tietze_problems():
        (g,), checks = interp.THEOREMS["tietze"].solve(alg, {"q": q, "b": b, "region": region}, DEFAULT_TOL)
        if alg.contains_identity:
            warm = q @ b @ q + region.centroid() * (np.eye(alg.ambient_dim) - q)
        else:
            warm = b @ q
        assert np.array_equal(g, alg.project(warm))
        want = interp._check_tietze(g, q, b, region)
        assert [(label, value.hex(), ok) for label, value, ok in checks] == \
            [(label, value.hex(), ok) for label, value, ok in want]


def test_clipping_solve_is_deterministic_and_draws_no_random_numbers(monkeypatch, e11):
    # a region whose centroid is off the unit disc clips c to its point
    # nearest 0; the lift ignores its seed and draws no random numbers
    far = ConvexRegion(np.array([0.2 - 0.1j, 5.0 - 0.1j, 5.0 + 0.3j, 0.2 + 0.3j]))
    assert abs(far.centroid()) > 1.0
    alg, q, b = full_algebra(2), e11.astype(complex), np.diag([0.5, 0.0]).astype(complex)
    c = far.nearest_to_origin()
    assert c == pytest.approx(0.2, abs=1e-15)
    runs = []
    for seed in (0, 0, 7):
        make_rng = _Counted(np.random.default_rng)
        monkeypatch.setattr(np.random, "default_rng", make_rng)
        g = tietze_lift(alg, q, b, far, seed=seed)
        monkeypatch.undo()
        assert make_rng.calls == 0
        assert np.array_equal(g, alg.project(q @ b @ q + c * (np.eye(2) - q)))
        runs.append(g.tobytes())
    assert len(set(runs)) == 1


@pytest.mark.parametrize("theorem", ["tietze"])
def test_cold_start_solves_converge(theorem):
    # the A11 instances a search once had to solve from zero: the closed
    # form alone reaches a point that passes every check
    for k in range(10):
        inst = suites._case_seed(0, sum(map(ord, theorem)) % 997 + 31 * k)
        alg, problem = suites._interp_instance(theorem, k, inst, DEFAULT_TOL)
        (g,), checks = interp.THEOREMS[theorem].solve(alg, problem, DEFAULT_TOL)
        assert all(ok for _, _, ok in checks), checks
        assert contains(alg, g)[0]


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


def test_strict_urysohn_solver_route():
    # one route for every input: the closed form, verified
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
def test_strict_urysohn_is_the_closed_form_without_the_engine(n):
    # rotated q <= p of ranks k <= m: x = (p + q)/2, verified
    w = gen_unitary(n, n)
    for k, m in ((0, 1), (1, 1), (1, n - 1), (n // 2, n)):
        q = w[:, :k] @ dagger(w[:, :k])
        p = w[:, :m] @ dagger(w[:, :m])
        x = strict_urysohn(full_algebra(n), q, p, retries=3, seed=7)
        assert np.array_equal(x, (p + q) / 2.0)
        (out,), checks = interp.THEOREMS["strict-urysohn"].solve(full_algebra(n), {"q": q, "p": p}, DEFAULT_TOL)
        assert np.array_equal(out, x)
        assert all(ok for _, _, ok in checks), checks


def test_closed_form_solver_routes():
    # every theorem returns its proof's point through a.project, verified:
    # on a unital algebra all six, on a nonunital one Urysohn (u in A and u
    # ambient), peak and Tietze (b q, as A does not contain I)
    w, unital, v, nonunital = _theorem_algebras()
    e = identity_of(unital)
    q = w @ np.diag([1.0, 0, 0]) @ dagger(w)
    b = w @ np.diag([0.3, 0.5, 0.2]) @ dagger(w)
    bq = w @ np.diag([0.5, 0.2, 0.1]) @ dagger(w)
    ambient_u = w @ np.array([[1.0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]) @ dagger(w)  # not in A
    q1 = v @ np.diag([1.0, 0, 0]) @ dagger(v)
    assert not contains(unital, ambient_u)[0] and contains(nonunital, q1)[0]
    region = ConvexRegion(np.array([-0.5 - 0.5j, 1 - 0.5j, 1 + 0.5j, -0.5 + 0.5j]))
    eye = np.eye(3, dtype=complex)
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
        ("tietze", unital, {"q": q, "b": bq, "region": region}, [q @ bq @ q + region.centroid() * (eye - q)]),
        ("tietze", nonunital, {"q": q1, "b": 0.5 * q1, "region": region}, [0.5 * q1 @ q1]),
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


@pytest.mark.parametrize("theorem", ["peak", "tietze"])
def test_a11_outputs_do_not_depend_on_rebuilding_the_unitization(monkeypatch, theorem):
    # unitize returns a unital A itself; the rebuild it skips (one _extend
    # by I, then _algebra) is the reference, and both give the same outputs.
    def rebuilt(a, tol):
        n, d = a.ambient_dim, a.dim
        rows = np.concatenate([a.basis.reshape(d, n * n), np.empty((int(d < n * n), n * n))])
        dim = algebra._extend(rows, d, np.eye(n, dtype=complex).reshape(1, n * n))
        return algebra._algebra(rows[:dim].reshape(dim, n, n), a.label, tol)

    for seed in (0, 1, 7):
        for k in range(0, 50, 5):
            inst = suites._case_seed(seed, sum(map(ord, theorem)) % 997 + 31 * k)
            alg, problem = suites._interp_instance(theorem, k, inst, DEFAULT_TOL)
            solve = interp.THEOREMS[theorem].solve
            with monkeypatch.context() as patched:
                patched.setattr(interp, "unitize", rebuilt)
                want = solve(alg, problem, DEFAULT_TOL)
            got = solve(alg, problem, DEFAULT_TOL)
            assert [g.tobytes() for g in got[0]] == [g.tobytes() for g in want[0]]
            assert got[1] == want[1]


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


def _hull(points: np.ndarray) -> np.ndarray:
    """The counterclockwise convex hull of points in the plane (monotone chain)."""
    pts = sorted(set(zip(points.real.tolist(), points.imag.tolist())))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array([complex(x, y) for x, y in half(pts) + half(pts[::-1])])


def test_tietze_far_centroid_takes_the_nearest_point():
    # A11 Tietze instances whose region gets one far vertex, so |centroid| > 1:
    # c is the region's point nearest 0, and every output passes its checks
    rng = np.random.default_rng(5)
    for i in range(40):
        alg, problem = suites._interp_instance("tietze", i % 50, 10_000 + i, DEFAULT_TOL)
        far = 30.0 * np.exp(2j * np.pi * rng.random())
        region = ConvexRegion(_hull(np.append(problem["region"].vertices, far)))
        assert abs(region.centroid()) > 1.0
        q, b = problem["q"], problem["b"]
        g = tietze_lift(alg, q, b, region)
        c = region.nearest_to_origin()
        assert abs(c) <= 1.0 and region.contains_point(c, 1e-12)
        assert np.array_equal(g, alg.project(q @ b @ q + c * (np.eye(alg.ambient_dim) - q)))
        assert all(ok for _, _, ok in interp._check_tietze(g, q, b, region))
        assert contains(alg, g)[0]


def test_tietze_with_q_zero_is_a_multiple_of_the_identity():
    alg, zero, b = full_algebra(2), np.zeros((2, 2), complex), np.diag([0.5, 3.0j])
    near = ConvexRegion(np.array([0.2 - 0.1j, 0.6 - 0.1j, 0.6 + 0.3j, 0.2 + 0.3j]))
    far = ConvexRegion(np.array([0.8 - 0.1j, 5.0 - 0.1j, 5.0 + 0.1j, 0.8 + 0.1j]))
    for region, c in ((near, 0.4 + 0.1j), (far, 0.8 + 0j)):
        g = tietze_lift(alg, zero, b, region)
        assert op_norm(g - c * np.eye(2)) <= 1e-12
        assert all(ok for _, _, ok in interp._check_tietze(g, zero, b, region))


def test_tietze_region_missing_the_unit_disc_has_no_lift():
    # W(g) of a contraction lies in the unit disc, so no g exists
    away = ConvexRegion(np.array([2.0 - 0.5j, 3.0 - 0.5j, 3.0 + 0.5j, 2.0 + 0.5j]))
    with pytest.raises(ValueError, match="unit disc"):
        tietze_lift(full_algebra(2), np.zeros((2, 2)), np.diag([0.5, 0.2]), away)


def test_tietze_unit_other_than_identity_needs_zero_in_region(e11):
    # span{E11} has the unit E11, not I: every g in it vanishes on ran(I - E11),
    # so 0 lies in W(g), and a region without 0 admits no lift
    alg = span_algebra([e11])
    assert identity_of(alg) is not None and not alg.contains_identity
    square = ConvexRegion(np.array([0.4 - 0.1j, 0.6 - 0.1j, 0.6 + 0.1j, 0.4 + 0.1j]))
    with pytest.raises(ValueError, match="does not contain the identity"):
        tietze_lift(alg, e11, 0.5 * e11, square)


def test_region_half_planes_are_computed_once():
    region = ConvexRegion(np.array([0 - 0.25j, 1 - 0.25j, 1 + 0.25j, 1 + 0.25j, 0 + 0.25j]))
    planes = region.half_planes()
    assert planes is region.half_planes() and len(planes) == 4  # the repeated vertex has no edge


# -- preconditions settle by norm verdicts -----------------------------------


def _count_svds(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


# SVDs per solve on A11's instances at seed 0, k = 0..7 (the solvers made 8,
# 9, 8 and 12 when ||m|| and each residual of a precondition took an SVD,
# and 4, 5, 4 and 5 when each half-F check also took the SVD of 1 - x)
_SOLVER_SVDS = {
    "dominate": (lambda a, p: dominate(a, p["b"], p["eps"]), 3),
    "decompose": (lambda a, p: decompose(a, p["b"]), 3),
    "np": (lambda a, p: interp_np(a, p["c"], p["near_eps"]), 3),
    "peak": (lambda a, p: peak_interpolate(a, p["q"], p["b"]), 4),
}


def test_preconditions_settle_membership_without_svds(monkeypatch):
    calls = _count_svds(monkeypatch)
    full = full_algebra(3)
    for m in (0.3 * full.basis[4], 0.5 * np.eye(3) + 0.1j * unit(3, 2, 0), np.zeros((3, 3))):
        calls.clear()
        algebra._require_in(full, m, "m", DEFAULT_TOL)  # a member with ||m||_F < 1
        assert calls == []  # 2 when ||m|| and the residual took an SVD each
    for theorem, (solver, count) in _SOLVER_SVDS.items():
        for k in range(8):
            inst = suites._case_seed(0, sum(map(ord, theorem)) % 997 + 31 * k)
            alg, problem = suites._interp_instance(theorem, k, inst, DEFAULT_TOL)
            calls.clear()
            solver(alg, problem)
            assert len(calls) == count, (theorem, k)


def test_a_non_member_keeps_its_message_and_verdict():
    # m = E11 + t E21 in upper:2 has residual t and ||m|| = sqrt(1 + t^2), so
    # t around eq_tol puts the verdict at its threshold, plain and rotated
    w = gen_unitary(2, 9)
    up, rotated = upper_triangular_algebra(2), generate_algebra([w @ b @ dagger(w) for b in
                                                                 upper_triangular_algebra(2).basis])
    eq_tol, verdicts = DEFAULT_TOL.eq_tol, set()
    for t in [eq_tol * (1.0 + k * 2.0 ** -52) for k in range(-4, 5)] + [0.5, 2.0]:
        m = unit(2, 0, 0) + t * unit(2, 1, 0)
        for alg, x in ((up, m), (rotated, w @ m @ dagger(w))):
            inside, residual = contains(alg, x)
            verdicts.add(inside)
            try:
                algebra._require_in(alg, x, "b", DEFAULT_TOL)
            except ValueError as exc:
                assert not inside and str(exc) == f"b is not in the algebra (residual {residual:.2e})"
            else:
                assert inside
            if not inside:
                with pytest.raises(ValueError) as exc:
                    decompose(alg, x)
                assert str(exc.value) == f"b is not in the algebra (residual {residual:.2e})"
    assert verdicts == {True, False}
    with pytest.raises(ValueError) as exc:
        decompose(up, 0.5 * unit(2, 1, 0))
    assert str(exc.value) == "b is not in the algebra (residual 5.00e-01)"


def test_decompose_refuses_a_norm_at_one_minus_eq_tol_and_not_below():
    # ||b|| < 1 - eq_tol strictly: b = t E11 plain and rotated, t from a few
    # floats below the bound to a few above, each decided as op_norm(b) >= bound
    w = gen_unitary(2, 10)
    full, bound = full_algebra(2), 1.0 - DEFAULT_TOL.eq_tol
    refused = set()
    for k in range(-3, 4):
        t = bound
        for _ in range(abs(k)):
            t = np.nextafter(t, np.inf if k > 0 else 0.0)
        for b in (t * unit(2, 0, 0), w @ (t * unit(2, 0, 0)) @ dagger(w), t * np.eye(2)):
            too_big = op_norm(b) >= bound
            refused.add(too_big)
            if too_big:
                with pytest.raises(ValueError) as exc:
                    decompose(full, b)
                assert str(exc.value) == "decomposition needs ||b|| < 1 strictly"
            else:
                x, y = decompose(full, b)
                assert op_norm(b - (x - y)) <= 1e-12
    assert refused == {True, False}
