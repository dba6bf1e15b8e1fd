from __future__ import annotations

import numpy as np
import pytest

from realpos.algebra import full_algebra, span_algebra
from realpos.cones import (
    MAX_GRID,
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
from realpos.matrices import dagger, min_real_eig, op_norm, re_part
from realpos.powers import power


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
