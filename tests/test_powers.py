from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import roots_jacobi

from realpos import powers as powers_module
from realpos.algebra import contains, generate_algebra
from realpos.cones import sector_angle
from realpos.generators import gen_accretive, gen_half_f, gen_sectorial, gen_unitary
from realpos.matrices import (DEFAULT_TOL, SingularMatrixError, Tolerances, _op_norm_bounds, dagger,
                              im_part, min_real_eig, op_norm, solve)
from realpos.powers import (
    MAX_NODES,
    MAX_TERMS,
    DefectiveMatrixError,
    NotAccretiveError,
    disk_order_check,
    power,
    power_all,
    power_balakrishnan,
    power_spectral,
    rescaled_root_check,
    root_monotonicity_report,
    root_series,
)
from realpos.projections import support_projection, vav_identity_check
from realpos.transforms import f_inverse, f_transform


def test_spectral_values(lemerdy):
    assert np.allclose(power_spectral(4.0 * np.eye(1), 0.5).value, 2.0 * np.eye(1))
    r = power_spectral(1j * np.eye(2), 0.5)
    assert np.allclose(r.value, np.exp(1j * np.pi / 4.0) * np.eye(2))
    root = power_spectral(lemerdy, 0.5)
    assert op_norm(root.value) > 1.0 + 1e-3  # roots escape the unit ball


def test_spectral_rejects_non_accretive():
    with pytest.raises(NotAccretiveError):
        power_spectral(-np.eye(2), 0.5)


def test_spectral_defective_raises(monkeypatch):
    # the condition number comes from the singular values of the eigenvectors;
    # an exactly singular eigenvector matrix gives an infinite one, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrixError):
            power_spectral(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)
        monkeypatch.setattr(np.linalg, "eig", lambda x: (np.ones(2), np.array([[1, 1], [0, 0j]])))
        with pytest.raises(DefectiveMatrixError) as exc:
            power_spectral(np.eye(2), 0.5)
    assert exc.value.cond == math.inf


def test_balakrishnan_values():
    r = power_balakrishnan(np.diag([1.0, 4.0]).astype(complex), 0.5, nodes=64)
    assert op_norm(r.value - np.diag([1.0, 2.0])) <= 1e-8
    r = power_balakrishnan(np.eye(3), 0.3, nodes=32)
    assert op_norm(r.value - np.eye(3)) <= 1e-10
    r = power_balakrishnan(1j * np.eye(1), 0.5, nodes=64)
    assert abs(r.value[0, 0] - np.exp(1j * np.pi / 4.0)) <= 1e-8
    assert r.certified
    # a spectrum wider than the 64-node rule resolves: 127.9 against sqrt(1e7)
    # = 3162, with an estimate of 63.9, must not be certified
    r = power_balakrishnan(np.diag([1e7, 1.0]).astype(complex), 0.5, nodes=64)
    assert abs(r.value[0, 0] - np.sqrt(1e7)) > 1e3
    assert not r.certified


def test_balakrishnan_parameter_validation():
    with pytest.raises(ValueError):
        power_balakrishnan(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        power_balakrishnan(np.eye(2), 0.5, nodes=8)
    with pytest.raises(ValueError, match=str(MAX_NODES)):
        power_balakrishnan(np.eye(2), 0.5, nodes=MAX_NODES + 1)


@pytest.mark.parametrize("r", [1e-320, 1e-17])
def test_balakrishnan_rejects_r_whose_weight_exponent_rounds_to_minus_one(r):
    # the Jacobi weight exponent r - 1 is -1.0 in floating point here; the
    # check must fire before scipy sees it, with a message that names r
    with pytest.raises(ValueError, match=f"r = {r!r}") as info:
        power_balakrishnan(np.eye(2), r)
    assert "greater than -1" not in str(info.value)


@pytest.mark.parametrize("r", [6e-17, 1e-16])
def test_balakrishnan_does_not_certify_r_moved_by_the_weight_rounding(r):
    # fl(r - 1) = -1 + 2^-53 integrates as if r were 1.1e-16, so the rule
    # returns about r / 1.1e-16 (0.54, 0.90) in place of 1; the half-node
    # estimate shares the rounded weight and stays near 1e-11
    x = np.diag([1.0, 4.0]).astype(complex)
    res = power_balakrishnan(x, r)
    assert abs(res.value[0, 0] - 1.0) > 0.05 and res.est_error < 1e-6
    assert not res.certified
    # r - 1 is exact for r >= 0.5 and for r = 0.25
    assert all(power_balakrishnan(x, exact).certified for exact in (0.25, 0.5, 0.75))


def test_quadrature_near_r_one_certifies_accurate_values():
    # r * pi rounds next to pi, so sin(r pi) lost eps / (1 - r) of relative
    # accuracy that the half-node estimate, sharing the factor, cannot see
    r = 0.999999999997
    res = power_balakrishnan(np.diag([1.0, 4.0]).astype(complex), r, nodes=96)
    assert res.certified
    assert abs(res.value[1, 1] - 4.0**r) <= 1e-10 * 4.0**r
    jordan = power(np.array([[4.0, 1.0], [0.0, 4.0]]), r)  # defective: the quadrature route
    exact = np.array([[4.0**r, r * 4.0 ** (r - 1.0)], [0.0, 4.0**r]])
    assert jordan.method == "balakrishnan" and jordan.certified
    assert op_norm(jordan.value - exact) <= 1e-10 * op_norm(exact)


def test_balakrishnan_singular_node_raises_at_its_pivot():
    # the smallest node u_k gives M_k = diag(1e12 (1-u_k), u_k): its second
    # pivot sits below 1e-13 ||M_k||, so solve() must reject it
    with pytest.raises(SingularMatrixError) as info:
        power_balakrishnan(np.diag([1e12, 0.0]), 0.5)
    assert info.value.pivot_index == 1


def test_balakrishnan_refusal_names_the_route_and_its_node():
    # the route's smallest node u_0 is the one refused on diag(1e12, 0)
    u0 = (1.0 + powers_module._jacobi_rule(64, 0.5)[0][0]) / 2.0
    with pytest.raises(SingularMatrixError) as info:
        power_balakrishnan(np.diag([1e12, 0.0]), 0.5)
    assert str(info.value).startswith(f"the quadrature route refused node 0 (u_k = {u0:.3e}) "
                                      "as numerically singular: pivot 1 has magnitude ")
    assert info.value.pivot_index == 1 and info.value.pivot == pytest.approx(u0, rel=1e-12)
    assert "spectral" not in str(info.value)


def _per_node_reference(x, r, nodes):
    with np.errstate(invalid="ignore"):  # benign internal scipy divide
        xi, w = roots_jacobi(nodes, -r, r - 1.0)
    eye = np.eye(x.shape[0], dtype=complex)
    acc = np.zeros_like(x)
    for xi_k, w_k in zip(xi, w):
        u = (1.0 + xi_k) / 2.0
        acc = acc + w_k * solve(u * eye + (1.0 - u) * x, x)
    return np.sin(r * np.pi) / np.pi * acc


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
def test_balakrishnan_matches_per_node_solves(n):
    # a random accretive input, and a unitarily rotated scaled Jordan-like
    # block s (1.01 + N), N the shift: accretive, far from normal, and its
    # Schur form is not diagonal
    u = gen_unitary(n, 950 + n)
    jordan = u @ (3.0 * (1.01 * np.eye(n) + np.eye(n, k=1))) @ u.conj().T
    for k, (r, nodes) in enumerate(itertools.product((0.25, 0.5, 0.75), (16, 64, 128))):
        for x in (gen_accretive(n, 900 + 10 * n + k), jordan):
            ref = _per_node_reference(x, r, nodes)
            value = power_balakrishnan(x, r, nodes).value
            assert op_norm(value - ref) <= 1e-13 * op_norm(ref)


@pytest.mark.parametrize("nodes", [64, 128])
def test_balakrishnan_matches_per_node_solves_near_singular(nodes):
    # large norm on the accretivity boundary: the pivot bound cannot clear
    # every node, yet solve() accepts them all
    x = np.diag([1e8, 0.0]).astype(complex)
    ref = _per_node_reference(x, 0.5, nodes)
    value = power_balakrishnan(x, 0.5, nodes).value
    assert op_norm(value - ref) <= 1e-13 * op_norm(ref)


def _full_row_resolvents(x, u):
    # The back substitution as it first stood: every row of s over all n
    # columns, the lower triangle included.  _schur_resolvents must keep
    # its bits.
    t, z = scipy.linalg.schur(x, output="complex")
    n, k = x.shape[0], len(u)
    v = 1.0 - u
    s = np.empty((n, n, k), dtype=complex)
    for i in range(n - 1, -1, -1):
        below = (t[i, i + 1:] @ s[i + 1:].reshape(n - i - 1, n * k)).reshape(n, k)
        s[i] = (t[i, :, None] - v * below) / (u + v * t[i, i])
    return z, s


def _both_rules_nodes(nodes, r):
    # the u_k of _balakrishnan_sums: the fine rule's, then the half rule's
    xi = powers_module._jacobi_rule(nodes, r)[0]
    xi_c = powers_module._jacobi_rule(nodes // 2, r)[0]
    return (1.0 + np.concatenate([xi, xi_c])) / 2.0


def _resolvent_inputs(n):
    # random accretive inputs and the rotated Jordan-like block of
    # test_balakrishnan_matches_per_node_solves
    u = gen_unitary(n, 950 + n)
    jordan = u @ (3.0 * (1.01 * np.eye(n) + np.eye(n, k=1))) @ u.conj().T
    return [gen_accretive(n, 960 + n), gen_accretive(n, 980 + n), jordan]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_schur_resolvents_keep_the_full_row_bits(n):
    # Only the upper triangle is computed now; it must equal the full-row
    # recurrence entry for entry, and the lower triangle must be exactly 0.
    lower = np.tril_indices(n, -1)
    for x in _resolvent_inputs(n):
        for r, nodes in itertools.product((0.25, 0.5, 0.75), (16, 64, 128)):
            u = _both_rules_nodes(nodes, r)
            z_ref, s_ref = _full_row_resolvents(x, u)
            z, s = powers_module._schur_resolvents(x, u)
            assert np.array_equal(z, z_ref)
            assert np.array_equal(s, s_ref)
            assert not np.any(s[lower])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_balakrishnan_keeps_the_full_row_bits(monkeypatch, n):
    # n = 1 makes no GEMV in the loop
    inputs = _resolvent_inputs(n)
    cases = list(itertools.product(range(len(inputs)), (0.25, 0.5, 0.75), (16, 64, 128)))
    results = [power_balakrishnan(inputs[j], r, nodes) for j, r, nodes in cases]
    calls = []

    def reference(x, u):
        calls.append(1)
        return _full_row_resolvents(x, u)

    monkeypatch.setattr(powers_module, "_schur_resolvents", reference)
    for (j, r, nodes), res in zip(cases, results):
        ref = power_balakrishnan(inputs[j], r, nodes)
        assert res.value.tobytes() == ref.value.tobytes()
        assert res.est_error == ref.est_error and res.certified == ref.certified
    assert len(calls) == len(cases)  # every case took the Schur route


def test_balakrishnan_defective_fallback():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    r = power(jordan, 0.5)
    assert r.method == "balakrishnan"
    assert np.allclose(r.value, [[1.0, 0.5], [0.0, 1.0]], atol=1e-9)
    # nilpotent perturbation of 1: the series truncates after two terms
    s = root_series(jordan, 2)
    assert np.allclose(s.value, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)


def test_root_series_values():
    assert np.allclose(root_series(np.eye(2), 2).value, np.eye(2))
    # boundary eigenvalue: the partial sum converges only at the tail rate
    r = root_series(np.diag([1.0, 0.0]).astype(complex), 2)
    assert op_norm(r.value - np.diag([1.0, 0.0])) <= r.est_error + 1e-12
    r = root_series(np.diag([1.0, 0.0]).astype(complex), 2, terms=20000)
    assert op_norm(r.value - np.diag([1.0, 0.0])) <= 5e-3
    r = root_series(0.5 * np.eye(2), 2)
    assert op_norm(r.value - np.sqrt(0.5) * np.eye(2)) <= r.est_error
    with pytest.raises(ValueError):
        root_series(3.0 * np.eye(2), 2)
    with pytest.raises(ValueError):
        root_series(np.eye(2), 1)
    with pytest.raises(ValueError, match=str(MAX_TERMS)):
        root_series(np.eye(2), 2, terms=MAX_TERMS + 1)


def _series_reference(x, m, terms):
    """Sequential Horner sum of the binomial series and its signed tail."""
    y = np.eye(x.shape[0], dtype=complex) - x
    coeffs, coeff, tail = [1.0], 1.0, 1.0
    for k in range(terms):
        coeff = coeff * (k - 1.0 / m) / (k + 1.0)
        coeffs.append(coeff)
        tail += coeff
    acc = np.zeros_like(y)
    for c in reversed(coeffs):
        acc = acc @ y + c * np.eye(x.shape[0], dtype=complex)
    return acc, abs(tail)


# one block (1, 2, 3 terms), full last blocks (8 and 15 terms: 9 = 3 * 3 and
# 16 = 4 * 4 coefficients) and partial last blocks (16, 200, 20000 terms)
@pytest.mark.parametrize("terms", [1, 2, 3, 8, 15, 16, 200, 20000])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_root_series_matches_sequential_horner(n, terms):
    x = 2.0 * gen_half_f(n, 60 + n)  # lands in F
    for m in (2, 3, 7):
        ref, tail = _series_reference(x, m, terms)
        res = root_series(x, m, terms=terms)
        assert op_norm(res.value - ref) <= 1e-13 * max(1.0, op_norm(ref))
        assert (res.method, res.est_error, res.nodes_or_terms, res.certified) == (
            "series", tail, terms, True)
        # the tail sum_{k <= K} binom(1/m, k) (-1)^k is prod_{j <= K} (1 - (1/m)/j)
        closed = math.exp(math.lgamma(terms + 1.0 - 1.0 / m) - math.lgamma(1.0 - 1.0 / m)
                          - math.lgamma(terms + 1.0))
        assert res.est_error == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("terms", [1, 2, 3, 200, 20000])
def test_root_series_of_a_nilpotent_perturbation_is_exact(terms):
    # 1 - x squares to 0, so every partial sum is 1 + binom(1/m, 1) (x - 1)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    for m in (2, 3, 7):
        value = root_series(jordan, m, terms=terms).value
        assert np.array_equal(value, [[1.0, 1.0 / m], [0.0, 1.0]])


@pytest.mark.parametrize("length", [1, 2, 3])
def test_short_polynomials_are_plain_horner(length):
    # block size isqrt(length) = 1: the evaluator is the sequential Horner loop
    rng = np.random.default_rng(length)
    x = 2.0 * gen_half_f(4, 70 + length)
    y = np.eye(4, dtype=complex) - x
    for _ in range(5):
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ref = np.zeros((4, 4), dtype=complex)
        for c in reversed(coeffs):
            ref = ref @ y + c * np.eye(4, dtype=complex)
        assert np.array_equal(powers_module._matrix_polyval(coeffs, y), ref)
        _, conclusion = disk_order_check([0.0], list(coeffs), x)
        assert conclusion == min_real_eig(ref)


def test_counts_must_be_integers():
    x = 2.0 * gen_half_f(3, 80)
    for terms in (2.5, 8.0, True, "8"):
        with pytest.raises(ValueError, match="terms must be an integer"):
            root_series(x, 2, terms=terms)
    for nodes in (64.5, 64.0, True, None):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            power_balakrishnan(x, 0.5, nodes=nodes)
        with pytest.raises(ValueError, match="nodes must be an integer"):
            power(x, 0.5, nodes=nodes)
    # numpy integers are counts
    assert _same_result(root_series(x, 2, terms=np.int64(8)), root_series(x, 2, terms=8))
    assert _same_result(power_balakrishnan(x, 0.5, nodes=np.int32(64)),
                        power_balakrishnan(x, 0.5, nodes=64))


@pytest.mark.parametrize("scale, nodes", [(1.0, 64), (1e7, 64), (1e7, 128), (1e8, 128)])
def test_balakrishnan_takes_one_schur_form_on_every_node(monkeypatch, scale, nodes):
    # One Schur form serves every node of both rules, on the accretivity
    # boundary at large norm too, and no LU factorization runs.
    import scipy.linalg

    calls = {"schur": 0, "lu_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    x = np.diag([scale, 0.0]).astype(complex)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
        patch.setattr(scipy.linalg, "lu_factor", counted("lu_factor", scipy.linalg.lu_factor))
        res = power_balakrishnan(x, 0.5, nodes)
    assert calls == {"schur": 1, "lu_factor": 0}
    fine = _per_node_reference(x, 0.5, nodes)
    coarse = _per_node_reference(x, 0.5, nodes // 2)
    assert op_norm(res.value - fine) <= 1e-13 * op_norm(fine)
    assert res.est_error == pytest.approx(op_norm(fine - coarse), rel=1e-6, abs=1e-12)


def test_balakrishnan_refuses_a_rotated_boundary_input():
    # ||x|| = 1e9 on the accretivity boundary, not diagonal in the standard
    # basis: at the smallest node u the pivot u + (1 - u) lambda of the
    # eigenvalue lambda ~ 0 is below PIVOT_RTOL ||M||, so no value comes back
    u = gen_unitary(2, 3)
    x = u @ np.diag([1e9, 0.0]) @ u.conj().T
    with pytest.raises(SingularMatrixError):
        power_balakrishnan(x, 0.25, 64)


def test_balakrishnan_refuses_an_exactly_singular_node():
    # at the smallest node u, M = u + (1 - u) x = diag(1, 0): the refusal
    # comes before the back substitution could divide by that zero pivot
    u = (1.0 + powers_module._jacobi_rule(4096, 1e-3)[0][0]) / 2.0
    x = np.diag([1.0, -u / (1.0 - u)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError) as info:
            power_balakrishnan(x, 1e-3, 4096)
    assert info.value.pivot_index == 1 and info.value.pivot == 0.0


@pytest.mark.parametrize("coeffs", [[], [np.nan], [np.inf], [[1.0, 2.0]], [[1.0], [2.0, 3.0]], ["a"], None])
def test_disk_order_check_refuses_bad_coefficients(coeffs):
    # an empty list raised IndexError, NaN a RuntimeWarning and a 2-d list
    # a broadcast error; each is refused by name before any arithmetic
    x = gen_half_f(3, 53)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^f_coeffs must be a non-empty 1-d list"):
            disk_order_check(coeffs, [0.0], x)
        with pytest.raises(ValueError, match="^g_coeffs must be a non-empty 1-d list"):
            disk_order_check([0.0], coeffs, x)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, "2", 2.5, 1, 0, -3, True, 2 + 0j, None])
def test_root_series_refuses_every_non_integer_m(m):
    with pytest.raises(ValueError, match=r"^m must be an integer >= 2$"):
        root_series(np.eye(2), m)


def test_root_series_takes_integral_floats_and_numpy_integers():
    x = 2.0 * gen_half_f(3, 81)
    for m in (2, 3):
        ref = root_series(x, m)
        for same in (float(m), np.int64(m), np.int32(m), np.float64(m)):
            assert _same_result(root_series(x, same), ref)


def test_verdict_only_norm_sites_take_no_svd_when_frobenius_settles(monkeypatch):
    # f_transform's two-form self-check, solve()'s pivot test, f_inverse's
    # two tests, the ||1 - x|| <= 1 preconditions of root_series and
    # disk_order_check, rescaled_root_check's nonzero test and
    # vav_identity_check's v*v = s precondition only compare a norm with a
    # threshold
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for n in (2, 3, 5):
        # T = f(x) is near I / 3, so ||T||_F and ||1 - 2T||_F are below 1
        x = 0.5 * np.eye(n) + 0.05 * gen_accretive(n, 820 + n)
        y = gen_accretive(n, 830 + n)
        near_one = np.eye(n) - 0.5 * y / np.linalg.norm(y)  # ||1 - x||_F = 0.5
        calls.clear()
        f_inverse(f_transform(x))
        root_series(near_one, 2)
        disk_order_check([0.0], [1.0, 1.0], near_one)
        assert calls == [], n
        for fn, args in ((root_series, (-np.eye(n), 2)), (disk_order_check, ([0.0], [1.0], -np.eye(n)))):
            with pytest.raises(ValueError, match=r"\|\|1 - x\|\| <= 1"):
                fn(*args)
        assert calls == [], n
        # a norm that goes into a message is computed when the call raises
        with pytest.raises(ValueError, match="got 2.000000"):
            f_inverse(2.0 * np.eye(n))
        with pytest.raises(SingularMatrixError, match="against scale 1.000e"):
            solve(np.diag([1.0] + [0.0] * (n - 1)), np.eye(n))
        assert len(calls) == 2, n
    calls.clear()
    with pytest.raises(ValueError, match="nonzero"):
        rescaled_root_check(np.zeros((3, 3)))
    assert calls == []
    # the oracle support takes two SVDs and ||s|| = 1 one more; v*v - s =
    # E22 is settled by its Frobenius norm
    a = np.diag([1.0, 0.0]).astype(complex)
    calls.clear()
    with pytest.raises(ValueError, match="support projection"):
        vav_identity_check(a, np.eye(2), 0.5)
    assert len(calls) == 3


def test_power_general():
    x = gen_accretive(3, 23)
    assert np.allclose(power(x, 1.0).value, x)
    assert np.allclose(power(2.0 * np.eye(2), 1.5).value, 2.0 * np.sqrt(2.0) * np.eye(2))
    r = power(x, 0.3)
    s = power(x, 0.7)
    assert op_norm(r.value @ s.value - x) <= 1e-6


def test_power_scaling_law():
    x = gen_accretive(4, 29)
    for c in (0.5, 2.0, 10.0):
        for alpha in (0.5, 0.7):
            gap = op_norm(power(c * x, alpha).value - c**alpha * power(x, alpha).value)
            assert gap <= 1e-8


def test_power_continuity():
    x = gen_accretive(4, 31)
    base = power(x, 0.5).value
    diffs = [op_norm(power(x, 0.5 + 10.0**-k).value - base) for k in (1, 2, 3, 4)]
    assert all(diffs[i] > diffs[i + 1] for i in range(3))


def test_power_in_generated_algebra():
    x = gen_accretive(3, 37)
    oa = generate_algebra([x], mode="algebra")
    for alpha in (0.5, 1.0 / 3.0, 1.5):
        assert contains(oa, power(x, alpha).value)[1] <= 1e-6


def test_fractional_powers_land_in_their_sector():
    for k in range(10):
        x = gen_accretive(4, 650 + k)
        for alpha in (0.3, 0.5, 0.8):
            angle = sector_angle(power(x, alpha).value)
            assert angle is not None and angle <= alpha * np.pi / 2.0 + 1e-6


def test_sector_shrinkage():
    for k in range(10):
        x = gen_sectorial(3, 600 + k, rho=0.9)
        rho = sector_angle(x)
        for alpha in (0.3, 0.5):
            shrunk = sector_angle(power(x, alpha).value)
            assert shrunk is not None and shrunk <= alpha * rho + 1e-6


def test_imaginary_decay():
    # Im(x^{1/n}) decays with n; the limit bound scales with the root angle
    for k in range(5):
        x = gen_accretive(4, 700 + k)
        norms = [op_norm(im_part(power(x, 1.0 / n).value)) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(norms[i] >= norms[i + 1] - 1e-7 for i in range(len(norms) - 1))
        cap = np.sin(np.pi / 128.0) * max(1.0, op_norm(power(x, 1.0 / 64).value))
        assert norms[-1] <= cap + 1e-7


def test_method_agreement_spot():
    x = gen_accretive(5, 41, min_margin=0.1)
    for r in (0.25, 0.5, 0.75):
        gap = op_norm(power_spectral(x, r).value - power_balakrishnan(x, r, 128).value)
        assert gap <= 1e-6 * max(1.0, op_norm(x) ** r)


def test_methods_at_dimension_cap():
    # the MAX_DIM boundary still behaves
    x = gen_accretive(16, 43, min_margin=0.1)
    gap = op_norm(power_spectral(x, 0.5).value - power_balakrishnan(x, 0.5, 128).value)
    assert gap <= 1e-6 * max(1.0, op_norm(x) ** 0.5)


def test_vav_identity():
    a = np.diag([0.0, 1.0]).astype(complex)
    v = np.diag([0.0, 1.0]).astype(complex)
    assert vav_identity_check(a, v, 0.5) <= 1e-10
    a = gen_accretive(3, 43, min_margin=0.1)
    u = gen_unitary(3, 44)
    assert vav_identity_check(a, u, 0.5) <= 1e-7
    assert vav_identity_check(a, u, 2.0) <= 1e-9
    with pytest.raises(ValueError):
        vav_identity_check(a, np.diag([1.0, 0.0, 0.0]).astype(complex), 0.5)


@pytest.mark.parametrize("n", range(1, 17))
def test_vav_identity_integer_powers_match_matrix_power(n):
    # an integer r (within 1e-14) goes through power(); the reference is the
    # direct np.linalg.matrix_power of both sides, and the residuals agree bit for bit
    def reference(a, v, k):
        lhs = np.linalg.matrix_power(v @ a @ dagger(v), k)
        return op_norm(lhs - v @ np.linalg.matrix_power(a, k) @ dagger(v))

    for seed in range(2):
        a = gen_accretive(n, seed)
        w = gen_unitary(n, seed + 100)
        rank = max(1, n // 2)
        singular = w @ np.pad(gen_accretive(rank, seed + 200), (0, n - rank)) @ dagger(w)
        s = support_projection(singular, method="oracle").proj
        for x, v in ((a, gen_unitary(n, seed + 300)), (singular, s)):
            for r in (1.0, 2.0, 3.0, 5.0, 2.0 + 4e-15, 3.0 - 4e-15):
                assert vav_identity_check(x, v, r) == reference(x, v, round(r))


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_vav_identity_refuses_a_non_finite_r(r):
    # inf raised OverflowError and NaN "cannot convert float NaN to integer"
    a = gen_accretive(3, 43, min_margin=0.1)
    with pytest.raises(ValueError, match=r"^r must be in \(0, 1\) or a positive integer$"):
        vav_identity_check(a, gen_unitary(3, 44), r)


def test_vav_identity_checks_r_before_any_svd(monkeypatch):
    # r is refused before the accretivity check, the support projection and
    # the v*v = s test, so a call with a bad v too gets the message on r
    a = gen_accretive(3, 43, min_margin=0.1)
    v, bad_v = gen_unitary(3, 44), np.diag([1.0, 0.0, 0.0]).astype(complex)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for r in (math.inf, math.nan, -math.inf, 0.0, 1.5, -2.0):
        for w in (v, bad_v):
            with pytest.raises(ValueError, match=r"^r must be in \(0, 1\) or a positive integer$"):
                vav_identity_check(a, w, r)
    assert calls == []


@pytest.mark.parametrize("n_max", [2.5, -1, True, 13])
def test_root_monotonicity_report_takes_an_integer_n_max_to_12(n_max):
    # 2.5 raised TypeError, and -1 and True returned an empty margin array
    with pytest.raises(ValueError, match=f"^n_max must be an integer, at least 0 and at most 12; got {n_max!r}$"):
        root_monotonicity_report(gen_half_f(3, 59), n_max)


def test_root_monotonicity(lemerdy):
    margins = root_monotonicity_report(0.5 * np.eye(2), 8)
    assert np.all(margins > 0.0)
    x = gen_half_f(4, 47)
    assert np.all(root_monotonicity_report(x, 8) >= -1e-7)
    # the counterexample genuinely fails monotonicity
    assert root_monotonicity_report(lemerdy, 8).min() <= -1e-3
    with pytest.raises(ValueError):
        root_monotonicity_report(np.eye(2), 13)


def _same_result(a, b) -> bool:
    return (a.value.tobytes() == b.value.tobytes()
            and (a.method, a.est_error, a.nodes_or_terms, a.certified)
            == (b.method, b.est_error, b.nodes_or_terms, b.certified))


ALPHAS = (1e-3, 0.5, 1.0, 1.5, 2.0, 1.0 / 3.0, 2.75)


@pytest.mark.parametrize("n", range(1, 17))
def test_power_all_equals_power_at_each_exponent(n):
    for x in (gen_accretive(n, 100 + n), gen_half_f(n, 200 + n),
              gen_accretive(n, 300 + n, rank=max(1, n - 1))):
        results = power_all(x, ALPHAS)
        assert len(results) == len(ALPHAS)
        for alpha, res in zip(ALPHAS, results):
            assert _same_result(res, power(x, alpha)), alpha
            if alpha < 1.0:
                assert _same_result(res, power_spectral(x, alpha)), alpha
    assert power_all(gen_accretive(n, 400 + n), ()) == []


def test_power_all_factors_a_defective_matrix_once(monkeypatch):
    jordan = np.array([[4.0, 1.0], [0.0, 4.0]])
    expected = [power(jordan, alpha) for alpha in ALPHAS]
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(1) or eig(m))
    results = power_all(jordan, ALPHAS)
    assert len(calls) == 1
    for alpha, res, ref in zip(ALPHAS, results, expected):
        assert _same_result(res, ref), alpha
        assert res.method == ("spectral" if alpha in (1.0, 2.0) else "balakrishnan")
    # integer exponents never factor x
    power_all(jordan, (1.0, 2.0, 3.0))
    assert len(calls) == 1


def test_power_all_validates_every_exponent_and_the_input():
    with pytest.raises(ValueError, match="alpha"):
        power_all(np.eye(2), (0.5, -1.0))
    with pytest.raises(ValueError, match="4097"):
        power_all(np.eye(2), (2.0,), nodes=4097)
    with pytest.raises(NotAccretiveError):
        power_all(-np.eye(2), ())


def test_root_monotonicity_report_factors_x_once(monkeypatch):
    x = gen_half_f(5, 53)
    roots = [power(x, 1.0 / n).value for n in range(1, 9)]
    expected = np.array([min_real_eig(roots[n] - roots[n - 1]) for n in range(1, 8)])
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(1) or eig(m))
    margins = root_monotonicity_report(x, 8)
    assert len(calls) == 1
    assert margins.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_max", [0, 1])
def test_root_monotonicity_report_without_pairs_is_empty(n_max):
    margins = root_monotonicity_report(gen_half_f(3, 59), n_max)
    assert margins.dtype == np.float64 and margins.shape == (0,)
    with pytest.raises(NotAccretiveError):
        root_monotonicity_report(-np.eye(2), n_max)


def test_rescaled_root_check(lemerdy):
    c, margins = rescaled_root_check(np.eye(2))
    assert c == pytest.approx(4.0, abs=1e-9)
    assert np.all(margins >= -1e-7)
    c, margins = rescaled_root_check(lemerdy)
    assert np.all(margins >= -1e-7)
    # scaling the matrix scales the constant and leaves the margins alone
    c_eye, margins_eye = rescaled_root_check(np.eye(2))
    c10, margins10 = rescaled_root_check(10.0 * np.eye(2))
    assert c10 == pytest.approx(10.0 * c_eye, abs=1e-8)
    assert np.allclose(margins10, margins_eye, atol=1e-9)


def test_rescaled_root_check_tests_accretivity_once_per_matrix(monkeypatch):
    # x itself is checked inside power(x, 0.5) and x / c inside power_all
    margins = []

    def counted(m):
        margins.append(min_real_eig(m))
        return margins[-1]

    monkeypatch.setattr(powers_module, "min_real_eig", counted)
    rescaled_root_check(gen_half_f(4, 3))
    assert len(margins) == 2
    # a margin below -psd_slack makes ||x|| > psd_slack >= eq_tol, so the
    # nonzero check never pre-empts the accretivity error
    tight = Tolerances(eq_tol=1e-7, psd_slack=1e-7)
    for x, tol in ((-np.eye(2), DEFAULT_TOL), (-1.5e-7 * np.eye(3), tight)):
        with pytest.raises(NotAccretiveError, match="not accretive"):
            rescaled_root_check(x, tol)
    with pytest.raises(ValueError, match="nonzero"):
        rescaled_root_check(np.zeros((2, 2)))


def test_disk_order_check():
    x = gen_half_f(3, 53)  # inside F
    premise, conclusion = disk_order_check([0.0], [1.0, 1.0], x)
    assert premise >= -1e-12 and conclusion >= -1e-7
    premise, conclusion = disk_order_check([0.0], [1.0, 0.0, 1.0], x)
    assert premise >= -1e-12 and conclusion >= -1e-7
    premise, conclusion = disk_order_check([0.0, 1.0], [1.0], x)
    assert conclusion == pytest.approx(min_real_eig(x), abs=1e-10)
    with pytest.raises(ValueError):
        disk_order_check([0.0], [1.0], 5.0 * np.eye(2))


class _EagerSpectralFactor:
    # _SpectralFactor as it stood with an eager estimate: cond(v) by the SVD
    # before v is inverted, and four SVDs per power.  The deferred estimate
    # and the Frobenius conditioning verdict must keep its bits, its routes
    # and its DefectiveMatrixError.cond.
    def __init__(self, x):
        lam, v = np.linalg.eig(x)
        s = np.linalg.svd(v, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        if cond > powers_module.COND_CAP:
            raise DefectiveMatrixError(cond)
        xnorm = max(op_norm(x), 1e-300)
        self.v = v
        self.vinv = np.linalg.inv(v)
        self.lam = lam.astype(complex)
        self.cut = np.abs(lam) <= powers_module.EIG_RTOL * xnorm
        recon = op_norm(v @ (lam[:, None] * self.vinv) - x)
        self.rel_error = recon / xnorm + np.finfo(float).eps * cond

    def power(self, alpha):
        powered = np.where(self.cut, 0.0, np.power(self.lam, alpha))
        value = self.v @ (powered[:, None] * self.vinv)
        est = self.rel_error * max(1.0, op_norm(value))
        return powers_module.PowerResult(value, "spectral", float(est), self.v.shape[0])


EXPONENT_SETS = [(0.5,), (0.3, 0.7), tuple(1.0 / k for k in range(1, 9)), (1.5, 2.75, 1e-3, 2.0)]


def _outcome(fn, *args):
    # every field of each result, or the type, message and cond of the error
    try:
        results = fn(*args)
    except ValueError as exc:  # DefectiveMatrixError, SingularMatrixError
        return (type(exc).__name__, str(exc), getattr(exc, "cond", None))
    results = results if isinstance(results, list) else [results]
    return [(r.value.tobytes(), r.method, r.est_error, r.nodes_or_terms, r.certified)
            for r in results]


def _assert_eager_bits(monkeypatch, inputs, exponent_sets=EXPONENT_SETS):
    calls = [(power_all, x, alphas) for x in inputs for alphas in exponent_sets]
    calls += [(power_spectral, x, 0.5) for x in inputs]
    got = [_outcome(fn, np.array(x), a) for fn, x, a in calls]
    with monkeypatch.context() as m:
        m.setattr(powers_module, "_SpectralFactor", _EagerSpectralFactor)
        want = [_outcome(fn, np.array(x), a) for fn, x, a in calls]
    for (fn, x, a), g, w in zip(calls, got, want):
        assert g == w, (fn.__name__, x, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_spectral_results_keep_the_eager_bits(monkeypatch, n):
    inputs = [gen_accretive(n, 600 + n), gen_half_f(n, 620 + n),
              gen_accretive(n, 640 + n, rank=max(1, n // 2))]
    _assert_eager_bits(monkeypatch, inputs)


def _near_cap_inputs(n):
    # I + N + diag(k e): the eigenvector condition number crosses COND_CAP
    # as e falls, plain and rotated
    u = gen_unitary(n, 1000 + n)
    for e in np.logspace(-2, -14, 49):
        x = (np.eye(n) + np.eye(n, k=1) + np.diag(np.arange(n) * e)).astype(complex)
        yield x
        yield u @ x @ dagger(u)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_near_cap_inputs_keep_their_route_and_cond(monkeypatch, n):
    _assert_eager_bits(monkeypatch, list(_near_cap_inputs(n)), [(0.5, 1.25)])


def test_the_conditioning_verdict_holds_at_a_cap_on_each_condition_number(monkeypatch):
    # With COND_CAP moved onto an input's own SVD condition number c, the
    # route flips between c and the float below it; the Frobenius verdict
    # must flip with it.  Rotated 2 x 2 inputs have a computed c above the
    # computed Frobenius bound by up to 5e-9, so a zero margin fails here.
    moved, cond_cap = 0, powers_module.COND_CAP
    for n in (2, 3, 4):
        for x in _near_cap_inputs(n):
            s = np.linalg.svd(np.linalg.eig(x)[1], compute_uv=False)
            c = float(s[0] / s[-1])
            if c > cond_cap:
                continue
            moved += 1
            for cap in (c, np.nextafter(c, 0.0)):
                monkeypatch.setattr(powers_module, "COND_CAP", cap)
                _assert_eager_bits(monkeypatch, [x], [(0.5,)])
    assert moved > 40


def _cut_band_inputs(n):
    # diag(1, c 1e-12, 0, ...) and diag(1, ..., 1, c 1e-12), whose ||x||_F
    # is 1 and sqrt(n - 1), with c about either end of the cut's Frobenius
    # band: 1, where the SVD's threshold EIG_RTOL ||x|| lies, and
    # ||x||_F / sqrt(n), where the lower bound's does; plain and rotated
    u = gen_unitary(n, 1040 + n)
    for ones in {1, n - 1}:
        for end in (1.0, math.sqrt(ones / n)):
            for rel in (0.0, 1e-9, 3e-9, 2e-8, 1e-6, 1e-4, 1e-3):
                for c in (end * (1.0 - rel), end * (1.0 + rel)):
                    x = np.diag([1.0] * ones + [c * 1e-12] + [0.0] * (n - 1 - ones)).astype(complex)
                    yield x
                    yield u @ x @ dagger(u)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_the_frobenius_cut_is_the_svd_cut(monkeypatch, n):
    inputs = list(_cut_band_inputs(n))
    in_band = set()  # the SVD's verdicts on eigenvalues the Frobenius bounds leave open
    for x in inputs:
        factor = powers_module._SpectralFactor(x)
        size = np.abs(factor.lam)
        svd_cut = size <= powers_module.EIG_RTOL * max(op_norm(x), 1e-300)
        assert np.array_equal(factor.cut, svd_cut)
        lo, hi = (powers_module.EIG_RTOL * b for b in _op_norm_bounds(x))
        in_band.update(svd_cut[(size > lo) & (size <= hi)].tolist())
    assert in_band == {True, False}
    _assert_eager_bits(monkeypatch, inputs, [(0.5,), (0.25, 1.5)])


@pytest.mark.parametrize("n", [3, 4])
def test_a_singular_eigenvector_matrix_is_defective(monkeypatch, n):
    # c N (N the nilpotent shift) is accretive within psd_slack, and eig
    # returns an exactly singular v for it: inv raises, and the SVD gives
    # cond = inf, as before
    x = 1e-12 * np.eye(n, k=1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(x.astype(complex))[1])
    with pytest.raises(DefectiveMatrixError) as info:
        power_spectral(x, 0.5)
    assert info.value.cond == np.inf
    assert power(x, 0.5).method == "balakrishnan"
    _assert_eager_bits(monkeypatch, [x])


def test_the_estimate_reads_only_what_the_result_owns(monkeypatch):
    # as_matrix hands a complex128 x through uncopied, and x^1 is x itself
    x = gen_accretive(5, 660)
    with monkeypatch.context() as m:
        m.setattr(powers_module, "_SpectralFactor", _EagerSpectralFactor)
        want = [r.est_error for r in power_all(x.copy(), (0.3, 1.3, 2.5))]
        want.append(power_spectral(x.copy(), 0.7).est_error)
    results = power_all(x, (0.3, 1.3, 2.5)) + [power_spectral(x, 0.7)]
    x[...] = 7.0
    for res in results:
        res.value[...] = np.nan
    assert [r.est_error for r in results] == want


def test_an_unread_power_makes_no_svd(monkeypatch):
    # ||x||_F settles the EIG_RTOL cut; cond(v), ||x||, the reconstruction
    # residual and ||value|| wait for the first read of est_error
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for n in (2, 3, 4, 5, 6, 7, 8, 16):
        for r in (0.3, 0.5):
            x = gen_accretive(n, 680 + n)
            calls.clear()
            res = power(x, r)
            assert res.value.shape == (n, n) and len(calls) == 0, (n, r)
            est = res.est_error
            assert len(calls) == 4
            assert res.est_error == est and len(calls) == 4
    x = gen_half_f(6, 690)
    calls.clear()
    root_monotonicity_report(x, 8)
    assert len(calls) == 0


def _eager_balakrishnan(x, r, nodes=64, tol=DEFAULT_TOL):
    # power_balakrishnan as it stood with an eager estimate: the SVD of the
    # two rules' difference, then the verdicts on it.  The _within verdicts
    # and the deferred estimate must keep its bits and its certified.
    x = np.asarray(x, dtype=complex)
    margin = powers_module._require_accretive(x, tol)
    value, coarse = powers_module._balakrishnan_sums(x, r, nodes)
    est = op_norm(value - coarse)
    d = r - ((r - 1.0) + 1.0)
    certified = (
        not (margin <= tol.psd_slack and est > 1e-6)
        and est <= 1e-6 * max(1.0, np.linalg.norm(value))
        and abs(d) <= 1e-6 * r
    )
    return powers_module.PowerResult(value, "balakrishnan", float(est), nodes, certified)


def _in_band_quadrature_inputs():
    # diag(0, e, e) on the accretivity boundary and diag(e, e, 1) off it,
    # with e set by bisection so that ||value - coarse|| is 0.9 times the
    # certification bound (1e-6 and 1e-6 max(1, ||value||_F)): the Frobenius
    # norm of the difference, sqrt(2) times that, is above the bound, so
    # only the SVD's verdict certifies them
    def ratio(x):
        value, coarse = powers_module._balakrishnan_sums(x, 0.5, 64)
        return op_norm(value - coarse) / (1e-6 * max(1.0, np.linalg.norm(value)))

    for head, tail in (([0.0], []), ([], [1.0])):
        lo, hi = 1e-3, 1e-1  # the ratio falls from about 1e3 to 1e-9 here
        for _ in range(50):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if ratio(np.diag(head + [mid, mid] + tail)) > 0.9 else (lo, mid)
        yield np.diag(head + [hi, hi] + tail)


def _quadrature_inputs():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    for scale in (1e7, 1e8):  # on the accretivity boundary at a large norm
        yield np.diag([scale, 0.0])
    yield np.diag([1.0, 0.0])
    yield np.diag([1.0, 1e-8, 0.0])
    for n in (2, 5, 8):
        yield gen_accretive(n, 1100 + n, rank=1)  # margin <= psd_slack
    for k in (-20, -8, 0, 8, 20):
        for x in (gen_accretive(3, 1110), gen_accretive(6, 1116), jordan,
                  np.eye(3) + np.eye(3, k=1) + 0.5 * np.eye(3, k=2)):
            yield 2.0 ** k * x


def test_quadrature_results_keep_the_eager_bits(monkeypatch):
    # each call by name, so that power_all takes the patched route too
    calls = []
    for x in _quadrature_inputs():
        for r in (0.5, 0.3, 1e-3, 0.999, 1e-12):
            for nodes in (64, 128):
                calls.append(("power_balakrishnan", x, r, nodes))
        calls.append(("power_all", x, (0.5, 1.25, 2.75), 64))  # the defective ones take the quadrature route
    got = [_outcome(getattr(powers_module, fn), np.array(x), a, k) for fn, x, a, k in calls]
    with monkeypatch.context() as m:
        m.setattr(powers_module, "power_balakrishnan", _eager_balakrishnan)
        want = [_outcome(getattr(powers_module, fn), np.array(x), a, k) for fn, x, a, k in calls]
    certified = set()
    for (fn, x, a, k), g, w in zip(calls, got, want):
        assert g == w, (fn, x, a, k)
        if fn == "power_balakrishnan" and isinstance(g, list):
            certified.add(g[0][4])
    assert certified == {True, False}
    for x in _in_band_quadrature_inputs():
        res, eager = power_balakrishnan(x, 0.5), _eager_balakrishnan(x, 0.5)
        assert res.certified and (res.certified, res.est_error) == (eager.certified, eager.est_error)


def test_an_unread_quadrature_result_makes_no_svd(monkeypatch):
    # certified is settled by _within; the SVD of the rules' difference waits
    # for the first read of est_error
    inputs = [gen_accretive(n, 1130 + n) for n in (1, 2, 3, 8, 16)]
    inputs += [np.diag([1.0, 0.0]), np.diag([1e7, 0.0])]  # on the accretivity boundary
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for x in inputs:
        for r in (0.3, 0.5):
            calls.clear()
            res = power_balakrishnan(x, r)
            assert len(calls) == 0, (x, r)
            est = res.est_error
            assert len(calls) == 1
            assert res.est_error == est and len(calls) == 1


OVERFLOWS = [
    (power_spectral, 2.1 * np.eye(2) + 0.1 * np.ones((2, 2)), 2000.5),
    (power, 2.1 * np.eye(2) + 0.1 * np.ones((2, 2)), 2000.5),
    (power, 3.0 * np.array([[1.0, 1.0], [0.0, 1.0]]), 900.5),  # the quadrature route
    (power, 3.0 * np.eye(2), 900.0),
]


@pytest.mark.parametrize("fn, x, alpha", OVERFLOWS)
def test_an_overflowing_power_is_refused(fn, x, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"x\\^{alpha!r} overflows"):
            fn(x, alpha)


def test_a_result_takes_a_plain_estimate():
    res = powers_module.PowerResult(np.eye(2), "series", 0.25, 7)
    assert (res.est_error, res.nodes_or_terms, res.certified) == (0.25, 7, True)
    assert "est_error=0.25" in repr(res)
