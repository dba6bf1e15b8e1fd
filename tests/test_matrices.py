from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import realpos
from realpos import matrices as matrices_module
from realpos.cones import c_certificate, cone_report, f_membership, is_accretive
from realpos.matrices import (
    SingularMatrixError,
    Tolerances,
    _at_most_rtol_norm,
    _linalg,
    _schur,
    _unit_defect,
    _unit_defects,
    _within,
    as_matrix,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    max_op_norm,
    min_real_eig,
    op_norm,
    op_norms,
    solve,
)
from realpos.powers import power, root_series
from realpos.projections import peak_projection, support_projection
from realpos.transforms import f_transform


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])


def test_herm_eig_identity():
    w, v = herm_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_herm_eig_pauli():
    w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_herm_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))


def test_op_norm_values(lemerdy):
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    # closed form: largest eigenvalue of M*M = [[2, i], [-i, 1]] is (3+sqrt5)/2
    expected = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
    assert expected == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0)
    assert op_norm(lemerdy) == pytest.approx(expected, abs=1e-12)


def test_solve_basics():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(solve(np.eye(2), b), b)
    assert np.allclose(solve(2.0 * np.eye(2), np.eye(2)), 0.5 * np.eye(2))
    assert np.allclose(solve(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 0.5]))


def test_solve_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as err:
        solve(np.diag([1.0, 0.0]), np.eye(2))
    assert err.value.pivot_index == 1


def test_solve_refuses_a_pivot_by_the_svd_threshold():
    # pivots about both ends of the Frobenius band around PIVOT_RTOL ||m||:
    # refused exactly when at or below it, with ||m|| in the message
    from realpos.matrices import PIVOT_RTOL

    for end in (1.0, 1.0 / math.sqrt(2.0)):
        for c in (end * (1.0 - 1e-9), end, end * (1.0 + 1e-9), np.nextafter(end, 2.0)):
            m = np.diag([1.0, c * PIVOT_RTOL])
            refused = c * PIVOT_RTOL <= PIVOT_RTOL * op_norm(m)
            try:
                solve(m, np.eye(2))
            except SingularMatrixError as exc:
                assert refused and exc.pivot_index == 1, c
                assert str(exc).endswith(f"against scale {op_norm(m):.3e}")
            else:
                assert not refused, c


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", range(1, 17))
def test_solve_keeps_the_bits_of_scipys_lu_wrappers(n):
    # zgetrf and zgetrs bound directly give the bits of lu_factor and
    # lu_solve, for one rhs, a block of them and a stack of blocks
    import scipy.linalg

    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        m = _random_complex(rng, n, n)
        lu = scipy.linalg.lu_factor(m)
        for b in (_random_complex(rng, n), _random_complex(rng, n, n), _random_complex(rng, n, 3)):
            assert np.array_equal(solve(m, b), scipy.linalg.lu_solve(lu, b))
        stack = _random_complex(rng, 2, n, n)
        expected = np.array([scipy.linalg.lu_solve(lu, rhs) for rhs in stack])
        assert np.array_equal(solve(m, stack), expected)


@pytest.mark.parametrize("n", range(1, 17))
def test_schur_keeps_the_bits_of_scipys_schur(n):
    # zgees with the workspace cached per n gives scipy.linalg.schur's bits,
    # on the first call at this n and on later ones
    import scipy.linalg

    rng = np.random.default_rng(60 + n)
    for m in (_random_complex(rng, n, n), _random_complex(rng, n, n), np.triu(_random_complex(rng, n, n))):
        t, z = _schur(m)
        t_ref, z_ref = scipy.linalg.schur(m, output="complex")
        assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_solve_refuses_a_non_finite_rhs(bad):
    b = np.ones((2, 2, 2), dtype=complex)
    b[1, 0, 1] = bad
    for rhs in (b, b[1], b[1, 0]):
        with pytest.raises(ValueError, match="^solve rhs has non-finite entries$"):
            solve(np.eye(2), rhs)


def test_solve_refuses_an_exactly_zero_pivot_without_a_warning():
    # zgetrf reports the zero through info; the pivot test refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, k in ((np.zeros((3, 3)), 0), (np.ones((2, 2)), 1), (np.diag([2.0, 0.0]), 1)):
            with pytest.raises(SingularMatrixError) as err:
                solve(m, np.eye(m.shape[0]))
            assert (err.value.pivot_index, err.value.pivot) == (k, 0.0)


def test_solve_reports_residual():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    x = solve(m, b)
    residual = np.linalg.norm(m @ x - b, 2)
    assert residual <= 1e-9 * np.linalg.norm(b, 2)
    assert np.allclose(m @ x, b)


def test_min_real_eig(lemerdy):
    assert min_real_eig(np.eye(2)) == pytest.approx(1.0)
    assert min_real_eig(1j * np.eye(2)) == pytest.approx(0.0, abs=1e-14)
    assert min_real_eig(lemerdy) == pytest.approx(0.0, abs=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for k in range(200):
        n = int(rng.integers(1, 13))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        w, v = herm_eig(h)
        scale = max(op_norm(h), 1e-12)
        assert op_norm(v @ np.diag(w) @ v.conj().T - h) <= 1e-9 * scale
        assert op_norm(v.conj().T @ v - np.eye(n)) <= 1e-10


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert op_norm(u @ m @ w) == pytest.approx(op_norm(m), abs=1e-9)


def test_op_norm_submultiplicative_triangle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9
        assert op_norm(a + b) <= op_norm(a) + op_norm(b) + 1e-9


def test_op_norms_are_bit_identical_to_numpy_two_norm():
    # both take the largest singular value from the complex LAPACK SVD that
    # np.linalg.norm(., 2) wraps, so they agree to the last bit on real
    # entries too once those are made complex
    rng = np.random.default_rng(11)
    for n in range(1, 17):
        k = max(1, n // 2)
        tall = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        cases = [rng.standard_normal((n, n)), np.zeros((n, n)),
                 rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                 rng.standard_normal((n, k)) @ rng.standard_normal((k, n)),  # rank <= k
                 tall @ tall.conj().T * 1e-9]
        for m in cases:
            assert op_norm(m) == np.linalg.norm(np.asarray(m, complex), 2), n
        stack = np.array(cases, dtype=complex)
        assert max_op_norm(stack) == np.linalg.norm(stack, 2, axis=(1, 2)).max(), n
        assert max_op_norm(stack[:0]) == 0.0


def test_op_norms_match_op_norm_per_matrix():
    rng = np.random.default_rng(13)
    for n in range(1, 17):
        stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        stack[1] = 0.0
        stack[2] = stack[2][:, :1] @ stack[2][:1]  # rank one
        norms = op_norms(stack)
        assert norms.dtype == np.float64
        assert [float(v) for v in norms] == [op_norm(m) for m in stack], n
        assert op_norms(stack[:0]).shape == (0,)
    assert op_norms(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="3-d"):
        op_norms(np.eye(2))


@pytest.mark.parametrize("shape", [(), (3,), (2, 3, 3)])
def test_op_norm_rejects_input_that_is_not_2d(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        op_norm(np.ones(shape))


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(eq_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(eq_tol=1e-3, psd_slack=1e-9)
    for bad in (math.inf, math.nan):
        for name in ("eq_tol", "psd_slack", "iter_tol"):
            with pytest.raises(ValueError, match="finite"):
                Tolerances(**{name: bad})


def test_matrix_json_roundtrip(lemerdy):
    data = matrix_to_json(lemerdy)
    assert data["n"] == 2 and len(data["entries"]) == 4
    assert np.allclose(matrix_from_json(data), lemerdy)
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"entries": []})


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def _shaped(n: int, seed: int, kind: str, exponent: int) -> np.ndarray:
    """A random complex n x n matrix of a given shape, scaled by 10**exponent.
    Rank one has ||m||_F = ||m||_2 and a multiple of a unitary ||m||_F =
    sqrt(n) ||m||_2, so bounds near ||m|| reach both ends of the band."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "rank one":
        g = np.outer(g[:, 0], g[0].conj())
    elif kind == "unitary":
        g = np.linalg.qr(g)[0]
    elif kind == "diagonal":
        g = np.diag(np.diag(g))
    return g * 10.0 ** exponent


def _bounds(norm: float, ks) -> list:
    """Bounds at norm (1 + k 1e-9), exactly norm, one ulp either side, far
    above and far below, zero and a negative one."""
    out = [norm * (1.0 + k * 1e-9) for k in ks]
    out += [norm, np.nextafter(norm, np.inf), np.nextafter(norm, -np.inf),
            norm * 1e3, norm * 1e-3, np.inf, 0.0, -1.0]
    return out


_SHAPES = st.sampled_from(["full", "rank one", "unitary", "diagonal"])
_EXPONENTS = st.sampled_from([0, 0, 0, -8, 3, -150, -170, -200, 160, 200])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), kind=_SHAPES, exponent=_EXPONENTS)
def test_within_is_the_op_norm_verdict(n, seed, kind, exponent):
    m = _shaped(n, seed, kind, exponent)
    norm = op_norm(m)
    for bound in _bounds(norm, range(-30, 31)):
        assert _within(m, bound) == (norm <= bound), (bound, norm)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), kind=_SHAPES, exponent=_EXPONENTS,
       floor=st.sampled_from([0.0, 1e-300]))
def test_at_most_rtol_norm_is_the_svd_verdict(n, seed, kind, exponent, floor):
    # entries about rtol max(||m||, floor), together and one at a time, so
    # that the verdict holds when one entry alone sits in the band
    m = _shaped(n, seed, kind, exponent)
    threshold = 1e-12 * max(op_norm(m), floor)
    a = np.array(_bounds(threshold, range(-30, 31)))
    assert np.array_equal(_at_most_rtol_norm(a, 1e-12, m, floor), a <= threshold)
    for entry in a:
        assert _at_most_rtol_norm(np.array([entry]), 1e-12, m, floor)[0] == (entry <= threshold), entry


def test_within_on_zero_and_non_finite_input():
    for n in (1, 4, 16):
        zero = np.zeros((n, n), dtype=complex)
        assert _within(zero, 0.0) and op_norm(zero) <= 0.0
        assert not _within(zero, -1e-300)
        bad = np.eye(n, dtype=complex)
        bad[0, -1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            op_norm(bad)
        with pytest.raises(np.linalg.LinAlgError):
            _within(bad, 1.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 16), k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       kind=_SHAPES, exponent=_EXPONENTS)
@example(n=5, k=3, seed=82, kind="diagonal", exponent=160)  # finite real and imaginary halves whose sum overflows
@example(n=3, k=0, seed=0, kind="full", exponent=0)  # the empty stack, whose defect is 0
def test_within_on_unit_defects_is_the_unit_defect_verdict(n, k, seed, kind, exponent):
    # e = I + a perturbation, and a stack whose defects span many scales:
    # the largest sits in the band at a bound near it, the small ones clear.
    # _within decides a stack's verdict as it decides each matrix's.
    rng = np.random.default_rng(seed)
    e = np.eye(n) + _shaped(n, seed, kind, exponent)
    stack = np.array([_shaped(n, seed + j + 1, "full", 0) * 10.0 ** -rng.integers(0, 12)
                      for j in range(k)]).reshape(k, n, n)
    defect = _unit_defect(e, stack)
    for bound in _bounds(defect, range(-30, 31, 3)):
        assert _within(_unit_defects(e, stack), bound) == (defect <= bound), (bound, defect)


def test_within_on_unit_defects_raises_on_nan_as_unit_defect_does():
    stack = np.array([np.eye(3), 1e6 * np.eye(3)], dtype=complex)
    e = np.diag([1.0, 1.0, np.nan]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        _unit_defect(e, stack)
    with pytest.raises(np.linalg.LinAlgError):
        _within(_unit_defects(e, stack), 1.0)


# Each owner in matrices._linalg and its numpy.linalg function, called alike.
_LINALG_CALLS = {
    "svd values": lambda linalg, a: linalg.svd(a, compute_uv=False),
    "svd thin": lambda linalg, a: linalg.svd(a, full_matrices=False),
    "svd full": lambda linalg, a: linalg.svd(a),
    "eigvalsh": lambda linalg, a: linalg.eigvalsh(a),
    "eigh": lambda linalg, a: linalg.eigh(a),
    "eig": lambda linalg, a: linalg.eig(a),
    "inv": lambda linalg, a: linalg.inv(a),
}


@pytest.mark.parametrize("name", list(_LINALG_CALLS))
def test_the_linalg_owners_keep_numpys_bits(name):
    # single matrices and stacks of them at n = 1..16 (tall ones too for the
    # SVD), complex through the gufunc and real through the public function
    call, rng = _LINALG_CALLS[name], np.random.default_rng(41)
    for n in range(1, 17):
        shapes = [(n, n), (3, n, n)] + ([(n + 2, n), (2, n + 2, n)] if name.startswith("svd") else [])
        for shape in shapes:
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for a in (z, z.real.copy()):
                got, want = call(_linalg, a), call(np.linalg, a)
                got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
                assert len(got) == len(want), (name, shape)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape, (name, shape, a.dtype)
                    assert g.tobytes() == w.tobytes(), (name, shape, a.dtype)


def test_the_linalg_owners_raise_linalgerror_under_warnings_as_errors():
    # the owners set numpy's error state for the gufuncs as the public
    # wrappers do: a failed solve raises LinAlgError, never RuntimeWarning
    nan = np.eye(4, dtype=complex)
    nan[3, 0] = np.nan
    cases = [
        (op_norm, nan, "SVD did not converge"),
        (op_norms, np.array([np.eye(4), nan]), "SVD did not converge"),
        (_linalg.eig, nan, "Array must not contain infs or NaNs"),
        (_linalg.eigvalsh, nan, "Eigenvalues did not converge"),
        (_linalg.inv, np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex), "Singular matrix"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kernel, a, message in cases:
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
                kernel(a)


def test_the_linalg_owners_fall_back_to_numpys_functions(monkeypatch):
    # without numpy's private error-state helper the owners are the public
    # functions themselves
    ufunc_config = pytest.importorskip("numpy._core._ufunc_config")
    monkeypatch.delattr(ufunc_config, "_make_extobj")
    public = matrices_module._bind_linalg()
    assert [getattr(public, name) for name in ("svd", "eigvalsh", "eigh", "eig", "inv")] == [
        np.linalg.svd, np.linalg.eigvalsh, np.linalg.eigh, np.linalg.eig, np.linalg.inv]


# Reads names that the kernel table does not bind, copies the table, and
# prints the scipy modules loaded by then; then binds zgees.
KERNEL_TABLE_PROBE = """
import copy, json, sys
from realpos import matrices
try:
    matrices._linalg.zgesv
    refused = False
except AttributeError:
    refused = True
copy.deepcopy(matrices._linalg)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from scipy.linalg import lapack
print(json.dumps([refused, hasattr(matrices._linalg, "x"), loaded, matrices._linalg.zgees is lapack.zgees]))
"""


def test_the_kernel_table_imports_scipy_for_its_lapack_routines_alone():
    # in a fresh interpreter: an unknown name is an AttributeError, and
    # neither it nor hasattr nor a deep copy imports scipy
    src = os.path.dirname(os.path.dirname(realpos.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", KERNEL_TABLE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, False, [], True]


# Each public entry point that takes a matrix, called on a 0 x 0 one.
_ON_EMPTY = {
    "is_accretive": is_accretive,
    "power": lambda x: power(x, 0.5),
    "support_projection": support_projection,
    "cone_report": cone_report,
    "min_real_eig": min_real_eig,
    "peak_projection": peak_projection,
    "root_series": lambda x: root_series(x, 2),
    "f_transform": f_transform,
    "c_certificate": c_certificate,
    "f_membership": f_membership,
}


@pytest.mark.parametrize("entry", _ON_EMPTY.values(), ids=_ON_EMPTY.keys())
def test_entry_points_refuse_an_empty_matrix(entry):
    # as_matrix refuses it, before any kernel sees it
    with pytest.raises(ValueError, match=" is empty$"):
        entry(np.zeros((0, 0)))
