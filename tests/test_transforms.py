from __future__ import annotations

import numpy as np
import pytest

from realpos.algebra import contains, diagonal_algebra, generate_algebra, unitize, upper_triangular_algebra
from realpos.cones import f_membership, is_accretive
from realpos.generators import gen_accretive, gen_half_f
from realpos.matrices import dagger, min_real_eig, op_norm, solve
from realpos.transforms import cayley, f_inverse, f_transform


def test_cayley_values():
    assert op_norm(cayley(np.eye(2))) <= 1e-14
    assert np.allclose(cayley(np.zeros((2, 2))), -np.eye(2))
    assert np.allclose(cayley(1j * np.eye(2)), 1j * np.eye(2))


def test_cayley_contraction():
    for k in range(30):
        x = gen_accretive(2 + k % 6, 40 + k)
        assert op_norm(cayley(x)) <= 1.0 + 1e-9


def test_f_transform_values():
    assert np.allclose(f_transform(np.zeros((2, 2))), np.zeros((2, 2)))
    assert np.allclose(f_transform(np.eye(2)), 0.5 * np.eye(2))
    t = f_transform(1j * np.eye(2))
    assert np.allclose(t, (1.0 + 1j) / 2.0 * np.eye(2))
    assert op_norm(t) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert op_norm(np.eye(2) - 2.0 * t) == pytest.approx(1.0)


def test_f_inverse_values():
    assert np.allclose(f_inverse(np.zeros((2, 2))), np.zeros((2, 2)))
    assert np.allclose(f_inverse(0.5 * np.eye(2)), np.eye(2))


def test_roundtrip():
    for k in range(50):
        x = gen_accretive(2 + k % 7, 1234 + k)
        t = f_transform(x)
        assert op_norm(f_inverse(t) - x) <= 1e-8 * (1.0 + op_norm(x))


def test_f_inverse_norm_precondition():
    with pytest.raises(ValueError):
        f_inverse(np.eye(2))


def test_f_inverse_warns_outside_half_f():
    t = np.diag([-0.5, 0.0]).astype(complex)  # strict contraction, not half-F
    with pytest.warns(RuntimeWarning):
        f_inverse(t)


def test_surjectivity_onto_strict_half_f_contractions():
    # transforms of accretive matrices cover the strict contractions in
    # half-F; the inverse transform is accretive with the proof's identity
    for k in range(300):
        n = 2 + k % 7
        t = gen_half_f(n, 900 + k)
        fm = f_membership(t)
        assert fm.in_half_f and op_norm(t) < 1.0
        x = f_inverse(t)
        assert min_real_eig(x) >= -1e-7
        eye = np.eye(n)
        inv = solve(eye - t, eye)
        lhs = x + dagger(x)
        rhs = dagger(inv) @ (t + dagger(t) - 2.0 * dagger(t) @ t) @ inv
        assert op_norm(lhs - rhs) <= 1e-7 * max(1.0, op_norm(rhs))
        assert min_real_eig(rhs) >= -1e-7


def test_algebra_preservation():
    rng = np.random.default_rng(17)
    upper = upper_triangular_algebra(3)
    diag = diagonal_algebra(3)
    for alg in (upper, diag):
        raw = alg.reconstruct(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
        x = raw + (op_norm(raw) + 0.1) * np.eye(3)
        assert is_accretive(x)[0]
        assert contains(alg, f_transform(x))[1] <= 1e-7
        assert contains(unitize(alg), cayley(x))[1] <= 1e-7
    x = gen_accretive(3, 77)
    oa = generate_algebra([x], mode="algebra")
    assert contains(oa, f_transform(x))[1] <= 1e-7
    assert contains(unitize(oa), cayley(x))[1] <= 1e-7


def test_boundary_degradation():
    # the transform of t*I walks to the boundary of the ball as t grows
    gaps = []
    for t in (1.0, 10.0, 100.0, 1000.0):
        gaps.append(1.0 - op_norm(f_transform(t * np.eye(2))))
    assert all(gaps[i] > gaps[i + 1] > 0.0 for i in range(3))


def test_f_transform_has_the_bits_of_one_resolvent_solve():
    # f_transform factors x + 1 once for both of its forms; the value keeps
    # the bits of solve(x + 1, x) at every size
    for n in range(1, 17):
        for seed in range(200):
            x = gen_accretive(n, seed)
            assert np.array_equal(f_transform(x), solve(x + np.eye(n), x)), (n, seed)
