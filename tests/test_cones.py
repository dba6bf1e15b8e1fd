from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realpos import interp
from realpos.algebra import algebra_from_name, full_algebra, span_algebra
from realpos.cli import main
from realpos.cones import (
    MAX_GRID,
    _f_gap,
    _in_f,
    c_certificate,
    cone_report,
    f_membership,
    is_accretive,
    is_strictly_real_positive,
    numerical_range,
    sector_angle,
    support_function,
)
from realpos.generators import gen_accretive, gen_sectorial
from realpos.matrices import DEFAULT_TOL, Tolerances, dagger, matrix_to_json, min_real_eig, op_norm, re_part
from realpos.powers import (NotAccretiveError, disk_order_check, power, power_all,
                            power_balakrishnan, power_spectral)
from realpos.projections import hsa_and_ideal, peak_projection, support_projection, vav_identity_check
from realpos.transforms import f_inverse


def test_is_accretive(lemerdy):
    assert is_accretive(np.eye(2)) == (True, pytest.approx(1.0))
    ok, margin = is_accretive(-np.eye(2))
    assert not ok and margin == pytest.approx(-1.0)
    ok, margin = is_accretive(lemerdy)
    assert ok and margin == pytest.approx(0.0, abs=1e-14)


def test_f_membership():
    fm = f_membership(0.5 * np.eye(2))
    assert fm.in_half_f and fm.half_f_gap == pytest.approx(1.0)
    fm = f_membership(1j * np.eye(2))
    assert not fm.in_f and fm.f_gap == pytest.approx(1.0 - np.sqrt(2.0))
    fm = f_membership(np.diag([1.0, 0.0]))
    assert fm.in_half_f and fm.half_f_gap == pytest.approx(0.0, abs=1e-12)


def test_c_certificate(lemerdy):
    assert c_certificate(np.eye(2)) == pytest.approx(0.5)
    assert c_certificate(1j * np.eye(2)) is None
    # kernel of x + x* is e2 and x e2 != 0, so no constant exists
    assert c_certificate(lemerdy) is None
    assert c_certificate(np.zeros((2, 2))) == 0.0


def test_sector_angle(lemerdy):
    assert sector_angle(np.diag([1.0, np.exp(1j * np.pi / 4.0)])) == pytest.approx(
        np.pi / 4.0, abs=1e-9
    )
    assert sector_angle(np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    assert sector_angle(lemerdy) == pytest.approx(np.pi / 2.0, abs=1e-6)
    assert sector_angle(-np.eye(2)) is None


def test_numerical_range_scalar_and_normal():
    nr = numerical_range(np.eye(2), 64)
    assert np.allclose(nr.support, np.cos(nr.thetas), atol=1e-10)
    nr = numerical_range(np.diag([1.0, 1j]), 360)
    idx0 = 0
    idx90 = 90
    assert nr.support[idx0] == pytest.approx(1.0, abs=1e-10)
    assert nr.support[idx90] == pytest.approx(1.0, abs=1e-10)


def test_numerical_range_nilpotent_disk():
    nr = numerical_range(np.array([[0.0, 1.0], [0.0, 0.0]]), 720)
    assert np.abs(nr.support - 0.5).max() <= 1e-9


def test_numerical_range_invariants():
    rng = np.random.default_rng(7)
    for k in range(20):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nr = numerical_range(x, 180)
        # support dominates every boundary point in every direction
        for z in nr.boundary[::30]:
            assert np.all(nr.support >= (np.exp(-1j * nr.thetas) * z).real - 1e-8)
        for lam in np.linalg.eigvals(x):
            assert np.all((np.exp(-1j * nr.thetas) * lam).real <= nr.support + 1e-8)
        # state consistency at theta = 0 and pi
        assert -nr.support[90] == pytest.approx(min_real_eig(x), abs=1e-9)
        assert nr.support[0] == pytest.approx(-min_real_eig(-x), abs=1e-9)


def test_support_function_matches_the_numerical_range_sweep():
    rng = np.random.default_rng(11)
    for k in range(30):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nr = numerical_range(x, 64)
        assert np.abs(support_function(x, nr.thetas) - nr.support).max() <= 1e-12
        # one angle at a time, as the half-plane checks ask
        theta = float(rng.uniform(-np.pi, np.pi))
        top = np.linalg.eigvalsh(re_part(np.exp(-1j * theta) * x))[-1]
        assert abs(support_function(x, [theta])[0] - top) <= 1e-12


def test_numerical_range_grid_validation():
    with pytest.raises(ValueError):
        numerical_range(np.eye(2), 4)
    with pytest.raises(ValueError, match=str(MAX_GRID)):
        numerical_range(np.eye(2), MAX_GRID + 1)


@pytest.mark.parametrize("grid_size", [8.0, 8.5])
def test_numerical_range_grid_must_be_an_integer(grid_size):
    # both raised TypeError from np.linspace
    with pytest.raises(ValueError, match=f"^grid_size must be an integer, at least 8 and at most {MAX_GRID}"):
        numerical_range(np.eye(2), grid_size)


def test_strictly_real_positive(e11):
    full = full_algebra(2)
    assert is_strictly_real_positive(full, np.eye(2))
    assert not is_strictly_real_positive(full, np.diag([1.0, 1j]))
    # -I lies in the unital upper:2 and fails the accretive order itself
    assert not is_strictly_real_positive(algebra_from_name("upper:2"), -np.eye(2))
    corner = span_algebra([e11])
    assert is_strictly_real_positive(corner, (1.0 + 1j) * e11)
    with pytest.raises(ValueError):
        is_strictly_real_positive(full, np.ones((3, 3)))
    # nonunital algebras are rejected with an explanation, not guessed at
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="identity"):
        is_strictly_real_positive(span_algebra([e12]), 0.1 * e12)


def test_cone_linkage():
    # a finite constant certifies membership of x/(2C) in half-F, and
    # conversely half-F membership pins C at 1/2 or less
    rng = np.random.default_rng(11)
    for k in range(300):
        n = 2 + k % 7
        x = gen_accretive(n, 2000 + k)
        c = c_certificate(x)
        if c is None or c == 0.0:
            continue
        fm = f_membership(x / (2.0 * c))
        assert fm.half_f_gap >= -1e-6
        if f_membership(x).in_half_f:
            assert c <= 0.5 + 1e-6


def test_sector_inside_accretive():
    for k in range(50):
        x = gen_sectorial(2 + k % 5, 300 + k, rho=0.3 + 0.2 * (k % 3))
        angle = sector_angle(x)
        assert angle is not None
        assert is_accretive(x)[0]


def test_sector_bound_certificate():
    # numerical range in a sector of angle rho bounds x*x by a multiple of Re x
    for k in range(60):
        rho = (np.pi / 8.0, np.pi / 4.0, np.pi / 3.0)[k % 3]
        x = gen_sectorial(2 + k % 5, 400 + k, rho)
        bound = op_norm(re_part(x)) / np.cos(rho) ** 2
        margin = min_real_eig(bound * (x + dagger(x)) - dagger(x) @ x)
        assert margin >= -1e-6 * max(1.0, op_norm(x) ** 2)


def test_sector_angle_against_boundary_argument_oracle():
    # independent route: largest |arg| over dense numerical-range boundary points
    for k in range(15):
        n = 2 + k % 4
        x = gen_sectorial(n, 800 + k, rho=0.15 + 0.1 * (k % 6))
        angle = sector_angle(x)
        nr = numerical_range(x, 2048)
        args = np.abs(np.angle(nr.boundary[np.abs(nr.boundary) > 1e-9]))
        oracle = float(args.max()) if args.size else 0.0
        # boundary sampling underestimates; bisection must dominate it and
        # stay within the grid resolution
        assert angle >= oracle - 1e-6
        assert angle <= oracle + 2e-2


def test_c_certificate_against_bisection_oracle():
    # independent route: bisect the smallest C with C(x+x*) - x*x PSD
    def oracle(x, hi=1e6):
        h = x + dagger(x)
        g = dagger(x) @ x
        if min_real_eig(hi * h - g) < -1e-9:
            return None
        lo = 0.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if min_real_eig(mid * h - g) >= -1e-12:
                hi = mid
            else:
                lo = mid
        return hi

    for k in range(25):
        n = 2 + k % 4
        x = gen_accretive(n, 850 + k, min_margin=0.05)
        c = c_certificate(x)
        c_ref = oracle(x)
        assert c is not None and c_ref is not None
        assert c == pytest.approx(c_ref, rel=1e-6, abs=1e-8)


def test_roots_enter_c_cone():
    for k in range(20):
        x = gen_accretive(2 + k % 5, 500 + k)
        for alpha in (0.2, 0.5, 0.8):
            y = power(x, alpha).value
            assert c_certificate(y) is not None


def test_proper_cone():
    # membership of both tx and -sx in F forces x to vanish
    grid = np.linspace(0.25, 2.0, 8)
    for x in (np.zeros((2, 2)), 1j * np.eye(2), gen_accretive(3, 9)):
        plus = any(f_membership(t * x).in_f for t in grid)
        minus = any(f_membership(-s * x).in_f for s in grid)
        if plus and minus:
            assert op_norm(x) <= 1e-8


def test_cone_report_fields(lemerdy):
    rep = cone_report(lemerdy)
    assert rep.c_constant is None
    assert rep.sector_angle == pytest.approx(np.pi / 2.0, abs=1e-6)
    assert rep.norm == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0)
    assert rep.im_norm == pytest.approx(1.0)
    data = rep.to_json()
    assert set(data) == {
        "accretive_margin", "norm", "f_gap", "half_f_gap",
        "c_constant", "sector_angle", "im_norm",
    }


# -- the accretive order's one rule ------------------------------------------

# diag(m, 1) has margin exactly m: at -psd_slack, and one ulp below it
AT_SLACK = np.diag([-DEFAULT_TOL.psd_slack, 1.0])
PAST_SLACK = np.diag([np.nextafter(-DEFAULT_TOL.psd_slack, -np.inf), 1.0])
# Hermitian parts that overflow: a nonzero PSD matrix and an accretive one
PSD308 = 1e308 * np.ones((2, 2))
ACC308 = np.array([[1e308, 1e308], [-1e308, 1e308]])


def _refused(call, error, match) -> bool:
    """Whether call() raises error with match in its message.  Any other
    outcome, a later check's failure included, is not this refusal."""
    try:
        call()
    except error as exc:
        return match in str(exc)
    except interp.VerificationFailedError:
        pass
    return False


def test_is_accretive_turns_at_minus_psd_slack():
    assert is_accretive(AT_SLACK) == (True, -DEFAULT_TOL.psd_slack)
    assert is_accretive(PAST_SLACK) == (False, PAST_SLACK[0, 0])


@pytest.mark.parametrize("site, error, match", [
    (lambda x: power_spectral(x, 0.5), NotAccretiveError, "not accretive"),
    (lambda x: power_balakrishnan(x, 0.5), NotAccretiveError, "not accretive"),
    (lambda x: power_all(x, (0.5, 1.5)), NotAccretiveError, "not accretive"),
    (lambda x: power(x, 0.5), NotAccretiveError, "not accretive"),
    (lambda x: vav_identity_check(x, np.eye(2), 0.5), NotAccretiveError, "not accretive"),
    (support_projection, NotAccretiveError, "accretive input"),
    (lambda x: hsa_and_ideal(algebra_from_name("diag:2"), x), NotAccretiveError, "accretive x"),
    (lambda x: interp.dominate(full_algebra(2), np.diag([x[0, 0], 0.5])), ValueError,
     "b must be positive semidefinite"),
    (lambda x: interp.interp_np(full_algebra(2), np.diag([x[0, 0], 0.5])), ValueError,
     "c must be positive semidefinite"),
])
def test_every_site_turns_where_is_accretive_does(site, error, match):
    # join's out >= p, q and is_strictly_real_positive are left out: their
    # preconditions (projections; x in A) admit no margin at -psd_slack
    assert not _refused(lambda: site(AT_SLACK), error, match)
    assert _refused(lambda: site(PAST_SLACK), error, match)


def test_order_sites_on_differences_turn_where_is_accretive_does():
    # u - q, p - q and the disk calculus's conclusion have a margin of -d for
    # a d set by rounding; psd_slack = d serves them, one ulp less refuses
    full = full_algebra(2)
    q, u = np.diag([1.0 + 1e-9, 0.0]), np.diag([1.0, 0.0])
    d = -is_accretive(u - q)[1]
    for slack, refused in ((d, False), (np.nextafter(d, 0.0), True)):
        tol = Tolerances(eq_tol=1e-9, psd_slack=slack)
        assert is_accretive(u - q, tol)[0] is not refused
        assert _refused(lambda: interp.urysohn_interpolate(full, q, u, tol=tol), ValueError,
                        "u must dominate q") is refused
        assert _refused(lambda: interp.strict_urysohn(full, q, u, tol=tol), ValueError,
                        "p must dominate q") is refused
    # g(1 - x) - f(1 - x) = 1 + (1 - x) = diag(-d, 1), with x in F within eq_tol = d
    x = np.diag([2.0 + 1e-7, 1.0])
    d = x[0, 0] - 2.0
    for slack, refused in ((d, False), (np.nextafter(d, 0.0), True)):
        tol = Tolerances(eq_tol=slack, psd_slack=slack)
        assert is_accretive(np.diag([-d, 1.0]), tol)[0] is not refused
        assert _refused(lambda: disk_order_check([0.0], [1.0, 1.0], x, tol), ArithmeticError,
                        "disk ordering violated") is refused


@pytest.mark.parametrize("x", [PSD308, ACC308], ids=["psd308", "acc308"])
@pytest.mark.parametrize("site", [
    is_accretive,
    lambda x: power_spectral(x, 0.5),
    lambda x: power_balakrishnan(x, 0.5),
    lambda x: power(x, 0.5),
    support_projection,
    lambda x: hsa_and_ideal(full_algebra(2), x),
    lambda x: is_strictly_real_positive(full_algebra(2), x),
    cone_report,
])
def test_an_overflowing_hermitian_part_is_refused(site, x):
    with pytest.raises(ValueError, match="^the Hermitian part of the matrix overflows$"):
        site(x)


def test_an_overflowing_c_constant_is_refused():
    with pytest.raises(ValueError, match=r"^the constant C with x\*x <= C \(x \+ x\*\) overflows$"):
        c_certificate(np.array([[1.0, 1e160], [-1e160, 1.0]]))


def test_c_certificate_past_the_square_root_of_the_largest_float(tmp_path, capsys):
    # x*x = 1e310 overflows, so the PSD check runs on x scaled by a power of
    # two; C = ||x||^2 / 2||x|| = 5e154, and check reports it without a warning
    x = 1e155 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c_certificate(x) == pytest.approx(5e154, rel=1e-12)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(matrix_to_json(x)))
        assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["c_constant"] == pytest.approx(5e154, rel=1e-12)


@pytest.mark.parametrize("k", [1, 50, 399, 400, 401, 520, 1000])
def test_c_certificate_scales_with_powers_of_two(k):
    # C(t x) = t C(x): x*x <= C (x + x*) scales by t^2 on the left, t on the right
    scale = math.ldexp(1.0, k)
    for seed in range(4):
        x = gen_accretive(2 + seed, 870 + seed, min_margin=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c_certificate(scale * x) == pytest.approx(scale * c_certificate(x), rel=1e-12)


def test_support_and_vav_refusals_name_the_margin():
    message = "support projections need accretive input: matrix is not accretive (margin -1.000e-07)"
    for call in (lambda: support_projection(PAST_SLACK), lambda: vav_identity_check(PAST_SLACK, np.eye(2), 0.5)):
        with pytest.raises(NotAccretiveError) as exc:
            call()
        assert str(exc.value) == message


# -- F and half-F's one rule -------------------------------------------------

# a = fl(1 + psd_slack) lies above 1 + psd_slack and the float below it does
# not; t = diag((1 - a)/2, 1/2) has 1 - 2t = diag(a, 0) exactly, and the
# norm-1 contraction diag((1 - a)/2, 1) has 1 - 2x = diag(a, -1)
AT_HALF_F_BOUND = 1.0 + DEFAULT_TOL.psd_slack


@pytest.mark.parametrize("a, inside", [(AT_HALF_F_BOUND, False),
                                       (np.nextafter(AT_HALF_F_BOUND, 0.0), True)])
def test_every_half_f_site_turns_where_f_membership_does(tmp_path, a, inside):
    t, x = np.diag([(1.0 - a) / 2.0, 0.5]), np.diag([(1.0 - a) / 2.0, 1.0])
    assert f_membership(t).in_half_f is inside and f_membership(x).in_half_f is inside
    assert _in_f(2.0 * t, DEFAULT_TOL) is inside and _in_f(2.0 * x, DEFAULT_TOL) is inside
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f_inverse(t)
    assert [w.category for w in caught] == ([] if inside else [RuntimeWarning])
    assert _refused(lambda: peak_projection(x, method="oracle"), ValueError, "needs x in half-F") is not inside
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(t)))
    assert main(["check", str(path), "--require", "half-f"]) == (0 if inside else 1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), rank_one=st.booleans(),
       slack=st.sampled_from([1e-7, 2e-7, 1e-12, 0.5]))
@example(n=15, seed=1_874_439_103, rank_one=True, slack=0.5)  # g / op_norm(g) keeps a norm below 1
def test_in_f_is_the_gap_verdict(n, seed, rank_one, slack):
    # 1 - x = y scaled to norms a few floats either side of 1 and of
    # 1 + slack, which rounds up at 1e-7 and 1e-12, down at 2e-7 and not at
    # 0.5.  The scale steps from the computed ||g||, which may sit a few ulps
    # off 1, and the SVD of each scaled g is a few ulps off its scale, so the
    # sweep also reaches 64 and 1024 ulps out: it straddles 1 + slack on
    # every draw, and stays inside _within's band, where the SVD decides.
    tol = Tolerances(eq_tol=min(slack, 1e-9), psd_slack=slack)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if rank_one:
        g = np.outer(g[:, 0], g[0].conj())
    g = g / op_norm(g)
    norm = op_norm(g)
    verdicts = set()
    for target in (1.0, 1.0 + slack):
        for k in (-1024, -64, *range(-4, 5), 64, 1024):
            x = np.eye(n) - (target + k * np.spacing(target)) / norm * g
            inside = _f_gap(x) >= -slack
            assert _in_f(x, tol) is inside, (target, k)
            verdicts.add(inside)
    assert verdicts == {True, False}
