"""Support and peak projections, the peak criterion, and lattice operations.

The support projection s(x) of an accretive x is the limit of the roots
x^{1/2^k}.  The iterative route jumps to k = 10 with one principal power,
where the spectrum is already split into {0} and a small disc about 1, and
finishes with McWeeny purification y <- 3y^2 - 2y^3, a polynomial in that
root which converges quadratically to the same limit.  The kernel-based
oracle (projection onto ker(x)^perp) is exact in finite dimensions because
accretivity forces ker x = ker x* to reduce x orthogonally; it reads
singular values and the iteration eigenvalues, so each checks the other.
The peak projection u(x) of a contraction is the limit of the
powers x^{2^k} when it exists; for x in half-F with norm 1 it is the
projection onto ker(x - 1).  The (v a v*)^r = v a^r v* check sits beside
the support projection it reads.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _algebra, _columns, _products, _require_in, orthonormalize
from .cones import NotAccretiveError, _accretive, _in_f, _require_accretive
from .matrices import (
    DEFAULT_TOL,
    SINGULAR_RTOL,
    SUPPORT_DEFECT_RTOL,
    SUPPORT_VANISH_RTOL,
    ZERO_FLOOR,
    Tolerances,
    _kernel_complement_projection,
    _linalg,
    _norm_floor_one,
    _unit_defect,
    _unit_defects,
    _within,
    as_matrix,
    dagger,
    op_norm,
    op_norms,
    range_basis,
)
from .powers import EIG_RTOL, _OnFirstRead, _powers, power

__all__ = [
    "ProjectionResult",
    "support_projection",
    "peak_projection",
    "is_peak_for",
    "join",
    "meet",
    "join_all",
    "hsa_and_ideal",
    "vav_identity_check",
]


@dataclass
class ProjectionResult:
    proj: np.ndarray
    method: str  # 'iterative' | 'oracle'
    iterations: int
    oracle_residual: Optional[float]  # ||iterative - oracle|| when both ran
    status: str  # 'converged' | 'diverged' | 'zero'
    # support: the defect ||y^2 - y|| before each step and at the end;
    # peak: the norms ||x^{2^k}|| of the squares taken.  The iterative
    # routes pass a function, so the trace's SVDs run on its first read:
    # no caller but the CLI reads it.
    trace: list = _OnFirstRead()
    purifications: int = 0  # McWeeny steps among the iterations


def _round_to_projection(m: np.ndarray) -> np.ndarray:
    """Snap a nearly idempotent, nearly Hermitian matrix to a projection."""
    vecs = range_basis(m)
    return vecs @ dagger(vecs)


# The iterative route starts from y = (x/||x||)^DEEP_ROOT.  power_spectral
# maps every eigenvalue with |lambda| <= EIG_RTOL ||x/||x|| || = 1e-12 to 0,
# and a kept eigenvalue lambda = |lambda| e^{i theta}, |lambda| <= 1,
# |theta| <= pi/2, goes to |lambda|^{1/1024} e^{i theta/1024}, of modulus
# in ((1e-12)^{1/1024}, 1] = (0.973.., 1] and argument at most pi/2048.  So
# the spectrum of y is {0} plus a disc of radius 0.03 about 1: the kernel
# is split from the rest after one root, however small the kept
# eigenvalues of x are.  Scaling is harmless since s(cx) = s(x) for c > 0,
# and principal roots of accretive matrices compose, so y is x^{1/2^10} up
# to a positive factor.
DEEP_ROOT = 2.0**-10

# McWeeny's step y <- 3y^2 - 2y^3 runs while the defect e = y^2 - y has
# ||e|| <= PURIFY_START.  For y' = 3y^2 - 2y^3 one has y'^2 - y' =
# 4e^3 - 3e^2, so ||e'|| <= ||e|| (3||e|| + 4||e||^2) <= 0.16 ||e||: the
# defect falls quadratically in norm.  The step is a polynomial in y, so it
# sends the eigenvalues near 1 to 1 and 0 to 0, and the limit is the
# spectral projection of y for the disc about 1.  The defect is a start
# rule only after the deep root: purifying x^{1/2^k} as soon as its defect
# is at most 0.05 would send a kept eigenvalue of 1e-6, whose defect is
# 1e-6, to 0.  After the deep root a large defect means a non-normal y
# whose norm defect outruns its spectrum; square roots keep the spectrum
# in {0} plus the disc and shrink that excess until the bound holds.
PURIFY_START = 0.05

_MAX_STEPS = 60

# Most squarings the iterative peak projection takes.
_MAX_SQUARINGS = 200


def support_projection(
    x, method: str = "iterative", tol: Tolerances = DEFAULT_TOL
) -> ProjectionResult:
    """Support projection s(x) of an accretive matrix.

    method 'iterative' takes one deep principal root
    y = (x/||x||)^{2^-10}, then loops on the defect ||y^2 - y||: McWeeny
    purification y <- 3y^2 - 2y^3 while the defect is at most 0.05, a
    square root while it is above, until it is within ``iter_tol``; the
    result is rounded spectrally.  It uses eigenvalues, never the SVD, so
    it stays independent of 'oracle', which projects onto ker(x)^perp by
    singular values; 'both' runs the iteration and records the distance
    to the oracle.  Both routes return 0 for ||x|| <= ZERO_FLOOR = 1e-14.

    The routes cut small values differently: the iteration drops
    eigenvalues with |lambda| <= EIG_RTOL ||x|| = 1e-12 ||x||, the oracle
    singular values at most SINGULAR_RTOL ||x|| = 1e-10 ||x||.  For x with
    a value in the relative band (EIG_RTOL, SINGULAR_RTOL] the iteration
    keeps a direction that the oracle drops; outside it they agree.

    ``iterations`` counts every step, the deep root included;
    ``purifications`` counts the McWeeny steps among them, and ``trace``
    holds the defect before each step and at the end.  Each step only
    compares its defect with the two thresholds, so ``_within`` settles it;
    the trace is computed on its first read, by one batched SVD of the
    defects the result keeps.
    """
    x = as_matrix(x)
    margin = _require_support_accretive(x, tol)
    if method not in ("iterative", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    return _support(x, margin, method, tol)


def _require_support_accretive(x: np.ndarray, tol: Tolerances) -> float:
    """lambda_min(Re x), or NotAccretiveError naming the support projection."""
    try:
        return _require_accretive(x, tol)
    except NotAccretiveError as exc:
        raise NotAccretiveError(f"support projections need accretive input: {exc}") from None


def _support(x: np.ndarray, margin: float, method: str, tol: Tolerances) -> ProjectionResult:
    """:func:`support_projection` on arguments the caller has validated,
    margin = lambda_min(Re x)."""
    oracle = None
    if method in ("oracle", "both"):
        oracle, oracle_norm = _kernel_complement_projection(x)
    if method == "oracle":
        status = "zero" if _within(oracle, tol.eq_tol) else "converged"
        result = ProjectionResult(oracle, "oracle", 0, None, status)
        # ||x|| only sets the warning thresholds here, so the SVD's s[0] serves
        _verify_support(result.proj, x, oracle_norm)
        return result

    xnorm = op_norm(x)
    defects = []
    status = "diverged"
    iterations = purifications = 0
    if xnorm <= ZERO_FLOOR:
        y = np.zeros_like(x)
        status = "zero"
    else:
        # validated through x: psd_slack does not scale, so x / xnorm may fail it
        y = _powers(x / xnorm, (DEEP_ROOT,), margin / xnorm, 96, tol)[0].value
        iterations = 1
        while iterations < _MAX_STEPS:
            y2 = y @ y
            d = y2 - y
            defects.append(d)
            if _within(d, tol.iter_tol):
                status = "converged"
                break
            if _within(d, PURIFY_START):
                y = 3.0 * y2 - 2.0 * (y2 @ y)
                purifications += 1
            else:
                y = power(y, 0.5, tol=tol).value
            iterations += 1
    proj = _round_to_projection(y)
    if status == "converged" and _within(proj, tol.eq_tol):
        status = "zero"
    residual = op_norm(proj - oracle) if oracle is not None else None
    result = ProjectionResult(proj, "iterative", iterations, residual, status,
                              _norms_on_read(defects, x.shape[0]), purifications)
    if status != "diverged":
        _verify_support(result.proj, x, xnorm)
    return result


def _norms_on_read(mats: list, n: int, head: tuple = ()):
    """A trace for :class:`ProjectionResult`: the floats ``head`` followed by
    the op_norm of each of the (n, n) arrays ``mats``, by one batched SVD
    when it is first read.  The arrays must be the result's own, so that
    writing to the caller's input or to the result changes nothing."""
    return lambda: [*head, *op_norms(np.reshape(mats, (-1, n, n))).tolist()]


def _verify_support(p: np.ndarray, x: np.ndarray, xnorm: Optional[float] = None) -> None:
    """Warn when p x = x p = x fails (p too small) or x vanishes on a
    direction of ran(p) (p too large; p = I passes the first test for every
    x); the thresholds are SUPPORT_DEFECT_RTOL and SUPPORT_VANISH_RTOL.
    ``xnorm`` is ||x|| when the caller has it."""
    if xnorm is None:
        xnorm = op_norm(x)
    if not _within(_unit_defects(p, x[None]), SUPPORT_DEFECT_RTOL * max(1.0, xnorm)):
        defect = _unit_defect(p, x[None])
        warnings.warn(
            f"support projection fails p x = x p = x (defect {defect:.2e})",
            RuntimeWarning,
        )
    low = _linalg.svd(x @ range_basis(p), compute_uv=False)  # x on ran(p)
    if low.size and low[-1] <= SUPPORT_VANISH_RTOL * xnorm:
        warnings.warn(f"support projection exceeds the support of x (x vanishes on ran p: "
                      f"{low[-1]:.2e})", RuntimeWarning)


def vav_identity_check(a, v, r: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of (v a v*)^r = v a^r v* for v*v equal to the support of a.

    r must be in (0, 1) or a positive integer.
    """
    a = as_matrix(a)
    v = as_matrix(v)
    integer = np.isfinite(r) and abs(r - round(r)) < 1e-14 and round(r) >= 1
    if not integer and not 0.0 < r < 1.0:
        raise ValueError("r must be in (0, 1) or a positive integer")
    margin = _require_support_accretive(a, tol)  # checked once, for s and a^r
    s = _support(a, margin, "oracle", tol).proj
    if not _within(dagger(v) @ v - s, 1e-7 * _norm_floor_one(s)):
        raise ValueError("v*v must equal the support projection of a")
    if integer:
        r = float(round(r))  # an exact integer: _powers takes np.linalg.matrix_power
    lhs = power(v @ a @ dagger(v), r, tol=tol).value
    rhs = v @ _powers(a, (r,), margin, 96, tol)[0].value @ dagger(v)
    return op_norm(lhs - rhs)


def peak_projection(
    x, method: str = "iterative", tol: Tolerances = DEFAULT_TOL
) -> ProjectionResult:
    """Peak projection u(x) = lim x^{2^k} of a contraction.

    Divergence is a first-class status: for general contractions the limit
    may fail to exist or may be zero.  The oracle (projection onto
    ker(x - 1)) applies to x in half-F, where the eigenvalue 1 sits on the
    boundary circle and reduces orthogonally.

    The iteration squares z_0 = x, z_{k+1} = z_k^2 until ||z_k|| < 1e-8
    (zero), ||z_k|| > 10 (diverged) or ||z_k^2 - z_k|| <= ``iter_tol``
    (converged).  ``trace`` holds the norms ||z_k|| = ||x^{2^k}|| of the
    squares it took, not the defects; it is computed on its first read.
    ``iterations`` is the last k (the squaring cap when none of the three
    happens).
    """
    x = as_matrix(x)
    xnorm = op_norm(x)
    if xnorm > 1.0 + tol.eq_tol:
        raise ValueError("peak projections need a contraction")
    if method not in ("iterative", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")

    oracle = None
    if method in ("oracle", "both"):
        if _in_f(2.0 * x, tol):
            oracle = _eigenspace_projection(x)
        elif method == "oracle":
            raise ValueError("the eigenspace oracle needs x in half-F")
    if method == "oracle":
        status = "zero" if _within(oracle, tol.eq_tol) else "converged"
        return ProjectionResult(oracle, "oracle", 0, None, status)

    # Each step only compares norms with thresholds, so _within decides it
    # (the strict zero test reads ||z|| only once it is at most 1e-8).  The
    # norms of the trace come from one batched SVD of the chain on its first
    # read.  chain[0] is the caller's x (as_matrix does not copy it), so the
    # trace keeps only the squares and takes ||z_0|| = ||x|| from xnorm.
    z = x
    chain = []
    status = "diverged"
    for iterations in range(_MAX_SQUARINGS):
        chain.append(z)
        z2 = z @ z
        if _within(z, 1e-8) and op_norm(z) < 1e-8:
            status = "zero"
            z = np.zeros_like(z)
            break
        if not _within(z, 10.0):
            break
        if _within(z2 - z, tol.iter_tol):
            status = "converged"
            break
        z = z2
    else:
        iterations = _MAX_SQUARINGS
    trace = _norms_on_read(chain[1:], x.shape[0], (xnorm,))

    proj = _round_to_projection(z) if status == "converged" else np.zeros_like(z)
    if status == "converged":
        # Squaring only sees the powers x^{2^k}; the candidate is a genuine
        # limit of the full power sequence iff it absorbs x on both sides.
        if not _within(_unit_defects(x, proj[None]), 1e-7 * max(1.0, xnorm)):
            status = "diverged"
            proj = np.zeros_like(z)
    residual = op_norm(proj - oracle) if (oracle is not None and status != "diverged") else None
    return ProjectionResult(proj, "iterative", iterations, residual, status, trace)


def _eigenspace_projection(x: np.ndarray) -> np.ndarray:
    """Projection onto ker(x - 1): the right singular vectors of x - 1 with
    singular value at most SINGULAR_RTOL max(||x - 1||, 1)."""
    eye = np.eye(x.shape[0], dtype=complex)
    _, s, vh = _linalg.svd(x - eye, full_matrices=False)
    vt = vh[s <= SINGULAR_RTOL * max(s[0], 1.0)]
    return dagger(vt) @ vt


def is_peak_for(x, q, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Finite-dimensional peak criterion.

    States vanishing on q are exactly the states supported on q^perp, so x
    peaks at q iff the compression of x*x to q^perp has norm strictly below
    one.
    """
    x = as_matrix(x)
    q = as_matrix(q)
    xnorm = op_norm(x)
    if xnorm > 1.0 + tol.eq_tol:
        raise ValueError("x must be a contraction")
    _require_projection(q)
    if not _within(q @ x - q, tol.eq_tol * max(1.0, xnorm)):
        raise ValueError("q x = q must hold before testing the peak criterion")
    comp = np.eye(x.shape[0], dtype=complex) - q
    top = float(_linalg.eigvalsh(comp @ dagger(x) @ x @ comp)[-1])
    return top < 1.0 - tol.psd_slack


def _require_projection(p: np.ndarray, what: str = "input") -> None:
    if not (_within(p @ p - p, 1e-8) and _within(p - dagger(p), 1e-8)):
        raise ValueError(f"{what} is not an orthogonal projection")


def _require_projections(projections) -> list:
    """The inputs as matrices of one shape, each an orthogonal projection."""
    projections = [as_matrix(p) for p in projections]
    if len({p.shape for p in projections}) > 1:
        raise ValueError("projections must all have one shape")
    for p in projections:
        _require_projection(p)
    return projections


def join(p, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lattice join: support of the accretive sum p + q."""
    p, q = _require_projections([p, q])
    out = support_projection(p + q, method="oracle", tol=tol).proj
    if not (_accretive(out - p, tol)[0] and _accretive(out - q, tol)[0]):
        raise ArithmeticError("join does not dominate its arguments")
    return out


def meet(p, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lattice meet via de Morgan: 1 - ((1-p) v (1-q))."""
    p, q = _require_projections([p, q])
    eye = np.eye(p.shape[0], dtype=complex)
    return eye - join(eye - p, eye - q, tol)


def join_all(projections, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lattice join of one or more projections: support of their sum."""
    projections = _require_projections(projections)
    if not projections:
        raise ValueError("join_all needs at least one projection")
    return support_projection(sum(projections), method="oracle", tol=tol).proj


def hsa_and_ideal(algebra, x, tol: Tolerances = DEFAULT_TOL):
    """The hereditary subalgebra x A x and right ideal x A + C x.

    Verifies D A D inside D and that s(x) is a two-sided identity on D.
    Returns (D, J) as algebras.
    """
    x = as_matrix(x)
    _require_in(algebra, x, "x", tol)
    if not _accretive(x, tol)[0]:
        raise NotAccretiveError("hereditary subalgebras here require accretive x")

    a = algebra.basis
    hsa = _algebra(orthonormalize(x @ a @ x), "xAx", tol)
    ideal = _algebra(orthonormalize(np.concatenate([x @ a, x[None]])), "xA+Cx", tol)

    d = hsa.basis
    a_cols, d_cols = _columns(a), _columns(d)
    worst = max((hsa.residual(_products(_products(b[None], a_cols), d_cols)) for b in d), default=0.0)
    if worst > 1e-7:
        raise ArithmeticError(f"D A D escapes D (residual {worst:.2e})")

    s = support_projection(x, method="oracle", tol=tol).proj
    if not _within(_unit_defects(s, d), 1e-7):
        raise ArithmeticError("s(x) is not an identity on the hereditary subalgebra")
    return hsa, ideal
