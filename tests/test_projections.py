from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos import projections
from realpos.algebra import contains, full_algebra, identity_of, upper_triangular_algebra
from realpos.cones import f_membership
from realpos.generators import gen_accretive, gen_half_f, gen_peaked_half_f, gen_sectorial, gen_unitary
from realpos.matrices import dagger, op_norm
from realpos.powers import NotAccretiveError, power, root_series
from realpos.projections import (
    hsa_and_ideal,
    is_peak_for,
    join,
    join_all,
    meet,
    peak_projection,
    support_projection,
)

from conftest import unit


def test_support_examples():
    res = support_projection(np.diag([0.0, 1.0, 1j]), method="both")
    assert np.allclose(res.proj, np.diag([0.0, 1.0, 1.0]), atol=1e-8)
    assert res.oracle_residual <= 1e-8

    zero = support_projection(np.zeros((2, 2)), method="both")
    assert zero.status == "zero" and op_norm(zero.proj) == 0.0

    eye = support_projection(np.eye(3), method="both")
    assert np.allclose(eye.proj, np.eye(3), atol=1e-10)


def test_support_rejects_non_accretive():
    with pytest.raises(NotAccretiveError):
        support_projection(-np.eye(2))


def test_support_serves_every_input_the_accretive_order_takes():
    # margin -9e-8, inside psd_slack; the rescaled x / ||x|| has margin
    # -1.8e-7, past it, and was once checked again before the deep root
    x = np.diag([-0.9e-7, 0.5])
    for method in ("iterative", "both"):
        res = support_projection(x, method=method)
        assert res.status == "converged" and np.array_equal(res.proj, np.eye(2)), method
    assert res.oracle_residual == 0.0


def test_support_iterative_vs_oracle_random():
    for k in range(40):
        n = 2 + k % 6
        rank = None if k % 2 == 0 else max(1, n - 1)
        x = gen_accretive(n, 7000 + k, rank=rank)
        res = support_projection(x, method="both")
        assert res.status != "diverged"
        assert res.oracle_residual <= 1e-6
        assert max(op_norm(res.proj @ x - x), op_norm(x @ res.proj - x)) <= 1e-7 * max(1.0, op_norm(x))


def _rank(p) -> int:
    return int(round(np.trace(p).real))


def _iterative_vs_oracle(x):
    """Run both routes; fail on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = support_projection(x, method="both")
        oracle = support_projection(x, method="oracle")
    return res, oracle


def test_support_of_tiny_inputs():
    # An absolute stop test once called every x with ||x|| below ~1e-10 zero.
    res, oracle = _iterative_vs_oracle(1e-13 * np.eye(3))
    assert res.status == "converged" and np.allclose(res.proj, np.eye(3), atol=1e-10)
    assert res.oracle_residual <= 1e-6
    u = gen_unitary(3, 3)
    res, oracle = _iterative_vs_oracle(1e-11 * u @ np.diag([1.0, 0.5, 0.0]) @ dagger(u))
    assert _rank(res.proj) == _rank(oracle.proj) == 2
    assert res.oracle_residual <= 1e-6
    for method in ("iterative", "oracle", "both"):
        floor = support_projection(1e-15 * np.eye(3), method=method)
        assert floor.status == "zero" and not floor.proj.any()


def test_support_of_jordan_blocks():
    # P = I passes p x = x p = x, so only the oracle sees an over-large support.
    u = gen_unitary(3, 3)
    jordan = np.zeros((3, 3), dtype=complex)
    jordan[0, 0] = jordan[1, 1] = jordan[0, 1] = 1.0
    res, oracle = _iterative_vs_oracle(u @ jordan @ dagger(u))
    assert _rank(oracle.proj) == 2
    assert res.status == "converged" and res.oracle_residual <= 1e-6
    shift = np.diag([1.0, 1.0], 1)
    x = 2.0 * np.eye(3) + shift
    assert power(x / op_norm(x), projections.DEEP_ROOT).method == "balakrishnan"
    res, _ = _iterative_vs_oracle(x)
    assert res.status == "converged" and res.oracle_residual <= 1e-6


def test_verify_support_sees_an_over_large_support():
    u = gen_unitary(3, 3)
    jordan = np.zeros((3, 3), dtype=complex)
    jordan[0, 0] = jordan[1, 1] = jordan[0, 1] = 1.0
    x = u @ jordan @ dagger(u)
    with pytest.warns(RuntimeWarning, match="exceeds the support"):
        projections._verify_support(np.eye(3), x)
    support = u @ np.diag([1.0, 1.0, 0.0]) @ dagger(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        projections._verify_support(support, x)
        projections._verify_support(np.zeros((3, 3)), np.zeros((3, 3)))


def test_oracle_support_takes_two_svds(monkeypatch):
    # The oracle's full SVD also gives ||x|| for the warning thresholds;
    # the only other SVD is of x on ran(p).  A separate op_norm(x) made 3.
    svd, calls = np.linalg.svd, []

    def counted(m, *args, **kwargs):
        calls.append((np.shape(m), kwargs.get("compute_uv", True)))
        return svd(m, *args, **kwargs)

    x = gen_accretive(5, 0)
    monkeypatch.setattr(np.linalg, "svd", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = support_projection(x, method="oracle")
    assert calls == [((5, 5), True), ((5, 5), False)]
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert res.proj.tobytes() == projections._kernel_complement_projection(x)[0].tobytes()


def test_support_separation_band():
    # One kept eigenvalue of 1e-6 ||x|| has defect 1e-6 in x itself; it must
    # survive purification.
    res, _ = _iterative_vs_oracle(np.diag([1.0, 1e-6, 0.0]))
    assert _rank(res.proj) == 2 and res.oracle_residual <= 1e-6
    assert res.purifications > 0 and res.iterations > res.purifications
    assert len(res.trace) == res.iterations
    # Relative values in (1e-12, 1e-10]: the eigenvalue cut keeps what the
    # singular-value cut drops.  Below and above the band the routes agree.
    for rel, rank_it, rank_or in ((1e-13, 1, 1), (1e-11, 2, 1), (1e-9, 2, 2)):
        res, oracle = _iterative_vs_oracle(np.diag([0.5, 0.5 * rel, 0.0]))
        assert (_rank(res.proj), _rank(oracle.proj)) == (rank_it, rank_or), rel
        assert res.status == "converged"


def test_support_square_roots_until_purification_may_start(monkeypatch):
    # Accretive inputs seldom leave the deep root with a defect above the
    # 0.05 start; a shallow first root exercises the square-root branch.
    monkeypatch.setattr(projections, "DEEP_ROOT", 0.5)
    x = gen_accretive(4, 7050, rank=2)
    res, _ = _iterative_vs_oracle(x)
    roots = res.iterations - 1 - res.purifications
    assert roots > 0 and res.purifications > 0
    assert res.trace[roots] <= projections.PURIFY_START < res.trace[roots - 1]
    assert res.oracle_residual <= 1e-6


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    k_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
    log_scale=st.floats(-8.0, 2.0),
)
def test_support_iterative_matches_oracle_on_compressions(n, k_frac, seed, log_scale):
    k = 1 + int(k_frac * (n - 1))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v, _ = np.linalg.qr(g)
    x = 10.0**log_scale * v @ gen_accretive(k, seed) @ dagger(v)
    res, _ = _iterative_vs_oracle(x)
    assert res.status != "diverged"
    assert res.oracle_residual <= 1e-6


def test_support_root_invariance():
    for k in range(10):
        x = gen_accretive(4, 7100 + k, rank=3)
        p1 = support_projection(x, method="oracle").proj
        p2 = support_projection(power(x, 0.5).value, method="oracle").proj
        assert op_norm(p1 - p2) <= 1e-6


def test_peak_examples():
    res = peak_projection(np.diag([1.0, 0.5]), method="both")
    assert np.allclose(res.proj, np.diag([1.0, 0.0]), atol=1e-10)
    small = peak_projection(0.9 * gen_half_f(3, 71))
    assert small.status == "zero"
    with pytest.raises(ValueError):
        peak_projection(2.0 * np.eye(2))


def test_peak_divergence_is_first_class():
    assert peak_projection(np.diag([1.0, -1.0])).status == "diverged"
    assert peak_projection(np.diag([np.exp(0.7j), 1.0])).status == "diverged"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
def test_peak_trace_is_the_norms_of_the_squares(n):
    # trace[k] = ||z_k|| bit for bit, z_0 = x, z_{k+1} = z_k z_k: the norms
    # of the powers x^{2^k}, one per squaring taken, not the defects.
    for seed in range(3):
        x, _ = gen_peaked_half_f(n, seed)
        res = peak_projection(x)
        assert res.status == "converged" and len(res.trace) == res.iterations + 1
        z, norms = x, []
        for _ in res.trace:
            norms.append(op_norm(z))
            z = z @ z
        assert res.trace == norms


@pytest.mark.parametrize("x, status, iterations, length", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "zero", 1, 2),  # nilpotent: x^2 = 0
    (np.diag([1.0, -1.0]), "diverged", 1, 2),  # x^2 = I fails to absorb x
    (np.diag([np.exp(0.7j), 1.0]), "diverged", 56, 57),  # rounding grows |x^{2^k}| past 10
])
def test_peak_zero_and_diverged_paths(x, status, iterations, length):
    res = peak_projection(x)
    assert (res.status, res.iterations, len(res.trace)) == (status, iterations, length)
    assert len(res.trace) == res.iterations + 1
    assert res.trace[0] == 1.0 and op_norm(res.proj) == 0.0


def test_peak_loop_takes_one_batched_svd(monkeypatch):
    # The squaring steps decide by Frobenius norms; the SVD runs once on the
    # stacked chain for the trace, beside ||x||, and at most once more for a
    # step whose verdict falls in _within's band.  One SVD per squaring
    # would make iterations + 2 calls.
    svd, shapes = np.linalg.svd, []

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for n in (2, 3, 4, 5, 6, 7, 8, 16):
        for seed in range(3):
            x, _ = gen_peaked_half_f(n, seed)
            shapes.clear()
            res = peak_projection(x)
            assert res.status == "converged" and res.iterations >= 4
            assert [s for s in shapes if len(s) == 3] == [(len(res.trace), n, n)]
            assert len(shapes) <= 3 < res.iterations + 2


def test_peak_iterative_vs_oracle():
    for k in range(40):
        n = 2 + k % 6
        x, q_true = gen_peaked_half_f(n, 7200 + k)
        res = peak_projection(x, method="both")
        assert res.status == "converged"
        assert res.oracle_residual <= 1e-6
        assert op_norm(res.proj - q_true) <= 1e-6


def test_peak_root_invariance():
    for k in range(10):
        x, _ = gen_peaked_half_f(4, 7300 + k)
        root = root_series(x, 2).value
        root = root / max(1.0, op_norm(root))
        p1 = peak_projection(x).proj
        p2 = peak_projection(root).proj
        assert op_norm(p1 - p2) <= 1e-6


def test_is_peak_for():
    assert is_peak_for(np.diag([1.0, 0.5]), np.diag([1.0, 0.0]))
    assert not is_peak_for(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    x, _ = gen_peaked_half_f(4, 7400)
    q = peak_projection(x).proj
    assert is_peak_for(x, q)
    # strictly smaller projections fail the criterion
    w, v = np.linalg.eigh(q)
    keep = np.nonzero(w > 0.5)[0]
    if len(keep) > 1:
        smaller = v[:, keep[:-1]] @ dagger(v[:, keep[:-1]])
        assert not is_peak_for(x, smaller)
    with pytest.raises(ValueError):
        is_peak_for(np.diag([1.0, 0.5]), np.diag([0.0, 1.0]))  # q x != q


def test_join_meet():
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(join(p1, p2), np.eye(2))
    tilted = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert np.allclose(join(p1, tilted), np.eye(2), atol=1e-10)
    assert np.allclose(join(p1, p1), p1, atol=1e-12)
    assert np.allclose(meet(p1, p2), np.zeros((2, 2)), atol=1e-10)
    assert np.allclose(meet(np.eye(2), p1), p1, atol=1e-10)
    assert np.allclose(join_all([p1, p2, tilted]), np.eye(2), atol=1e-10)
    with pytest.raises(ValueError):
        join(np.array([[0.5, 0.0], [0.0, 0.0]]), p1)


def test_lattice_operations_validate_their_input():
    # nested lists are matrices; shapes must agree, not broadcast, and a
    # join of nothing has no ambient dimension
    p1 = [[1, 0], [0, 0]]
    assert np.array_equal(join_all([p1]), np.diag([1.0, 0.0]))
    assert np.allclose(join_all([p1, [[0, 0], [0, 1]]]), np.eye(2), atol=1e-12)
    for op in (join, meet, lambda p, q: join_all([p, q])):
        with pytest.raises(ValueError, match="one shape"):
            op(np.eye(1), p1)
    with pytest.raises(ValueError, match="at least one"):
        join_all([])
    with pytest.raises(ValueError, match="square"):
        join_all([[1, 0]])


def test_convergence_rate_witness():
    # the proof's inequality bounds the root's distance to the support
    rng = np.random.default_rng(73)
    for k in range(10):
        n = 3 + k % 3
        x = gen_half_f(n, 7500 + k)
        s = support_projection(x, method="oracle").proj
        for depth in (1, 2, 4):
            a = power(x, 1.0 / 2.0**depth).value
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z /= np.linalg.norm(z)
            lhs = np.linalg.norm((a - s) @ z) ** 2
            rhs = np.vdot(z, (s - (a + dagger(a)) / 2.0) @ z).real
            assert lhs <= rhs + 1e-7


def test_kernel_invariant_vectors():
    for k in range(20):
        n = 3 + k % 4
        x = gen_sectorial(n, 7600 + k, rho=0.6, rank=n - 1)
        h = x + dagger(x)
        w, v = np.linalg.eigh(h)
        s = support_projection(x, method="oracle").proj
        for i in range(n):
            if w[i] <= 1e-12:
                vec = v[:, i]
                assert np.linalg.norm(x @ vec) <= 1e-5
                assert np.linalg.norm(s @ vec) <= 1e-5
        for m in (2, 3, 4):
            y = power(x, 1.0 / m).value
            wy, vy = np.linalg.eigh((y + dagger(y)) / 2.0)
            for i in range(n):
                if wy[i] <= 1e-12:
                    assert np.linalg.norm(s @ vy[:, i]) <= 1e-5


def test_strict_urysohn_product_fact():
    # ||1 - 4(x - x^2)|| = ||(1-2x)^2|| <= 1, and for normal x the support
    # of x(1-x) splits off the peak part
    for k in range(20):
        n = 2 + k % 5
        x = gen_half_f(n, 7700 + k)
        eye = np.eye(n)
        prod = x @ (eye - x)
        assert op_norm(eye - 4.0 * prod) <= 1.0 + 1e-9
        assert f_membership(4.0 * prod).in_f
    rng = np.random.default_rng(79)
    for k in range(10):
        n = 3 + k % 3
        u = gen_unitary(n, 7800 + k)
        vals = np.concatenate([[1.0], rng.random(n - 1) * 0.9])  # normal half-F element
        x = u @ np.diag(vals) @ dagger(u)
        eye = np.eye(n)
        s_prod = support_projection(x @ (eye - x), method="oracle").proj
        s_x = support_projection(x, method="oracle").proj
        u_x = peak_projection(x).proj
        assert op_norm(s_prod - s_x @ (eye - u_x)) <= 1e-6


def test_hsa_and_ideal(e11, e12):
    full = full_algebra(2)
    d, j = hsa_and_ideal(full, e11)
    assert d.dim == 1 and contains(d, e11)[0]
    assert j.dim == 2 and contains(j, e12)[0]

    upper = upper_triangular_algebra(2)
    e22 = unit(2, 1, 1)
    d, j = hsa_and_ideal(upper, e22)
    assert d.dim == 1 and contains(d, e22)[0]
    assert j.dim == 1 and contains(j, e22)[0]

    e = identity_of(upper)
    d, j = hsa_and_ideal(upper, e)
    assert d.dim == upper.dim and j.dim == upper.dim

    with pytest.raises(NotAccretiveError):
        hsa_and_ideal(full, -np.eye(2))
