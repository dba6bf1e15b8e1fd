"""Principal fractional powers of accretive matrices.

Three routes, kept independent so they can cross-check each other:

* spectral: diagonalize and take principal powers of the eigenvalues;
* quadrature: the resolvent integral
  ``x^r = (sin(r pi)/pi) * integral_0^inf t^{r-1} (t + x)^{-1} x dt``
  evaluated with Gauss-Jacobi nodes after mapping t = u/(1-u);
* series: the binomial expansion of ``(1 - (1-x))^{1/m}`` for x in F.

Also houses the root-law checks (scaling, monotonicity of rescaled roots,
commuting Hoelder ratios, disk-function-calculus ordering).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cones import f_membership
from .matrices import (
    DEFAULT_TOL,
    PIVOT_RTOL,
    Tolerances,
    _require_positive,
    as_matrix,
    dagger,
    frob_norm,
    min_real_eig,
    op_norm,
    re_part,
    solve,
)

__all__ = [
    "PowerResult",
    "NotAccretiveError",
    "DefectiveMatrixError",
    "power_spectral",
    "power_balakrishnan",
    "root_series",
    "power",
    "vav_identity_check",
    "root_monotonicity_report",
    "rescaled_root_check",
    "holder_check",
    "disk_order_check",
]

COND_CAP = 1e8
# power_spectral maps eigenvalues with |lambda| <= EIG_RTOL ||x|| to 0.
EIG_RTOL = 1e-12
# Largest quadrature node count and series term count: a rule of MAX_NODES
# nodes holds MAX_NODES n x n systems, and each series term is one product.
MAX_NODES = 4096
MAX_TERMS = 100_000


class NotAccretiveError(ValueError):
    """Input is outside the accretive cone (beyond psd_slack)."""


class DefectiveMatrixError(ValueError):
    """Eigenvector matrix too ill-conditioned for the spectral route.

    Callers should fall back to the quadrature route, which only needs
    linear solves.
    """

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"eigenvector condition number {cond:.3e} exceeds {COND_CAP:.0e}; "
            "use the quadrature method"
        )


@dataclass(frozen=True)
class PowerResult:
    value: np.ndarray
    method: str  # 'spectral' | 'balakrishnan' | 'series'
    est_error: float  # a posteriori estimate, method-specific
    nodes_or_terms: int
    certified: bool = True


def _require_accretive(x: np.ndarray, tol: Tolerances) -> float:
    """Return the accretivity margin lambda_min(Re x), raising below -psd_slack."""
    margin = min_real_eig(x)
    if margin < -tol.psd_slack:
        raise NotAccretiveError(
            f"matrix is not accretive (margin {margin:.3e})"
        )
    return margin


def power_spectral(x, alpha: float, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """Principal power via eigendecomposition.

    Eigenvalues of magnitude at most ``EIG_RTOL * ||x||`` are mapped to 0 (they
    are semisimple for accretive input); the rest are powered on the
    principal branch.  Raises :class:`DefectiveMatrixError` when the
    eigenvector matrix has condition number above 1e8.
    """
    x = as_matrix(x)
    _require_positive(alpha, "alpha")
    _require_accretive(x, tol)
    lam, v = np.linalg.eig(x)
    cond = float(np.linalg.cond(v))
    if cond > COND_CAP:
        raise DefectiveMatrixError(cond)
    xnorm = max(op_norm(x), 1e-300)
    cut = EIG_RTOL * xnorm
    powered = np.where(np.abs(lam) <= cut, 0.0, np.power(lam.astype(complex), alpha))
    # No singular-pivot test is needed for v^{-1}.  LU with partial pivoting
    # takes each pivot as the largest entry in the first column of a Schur
    # complement S, and S^{-1} is a block of v^{-1}, so
    # |pivot| >= sigma_min(S)/sqrt(n) >= sigma_min(v)/n.  After the check
    # above sigma_min(v) >= 1e-8 sigma_max(v), which for n <= 16 is over
    # 6000 times solve()'s PIVOT_RTOL sigma_max(v) limit, so one plain
    # inversion replaces solve()'s SVD and LU.
    vinv = np.linalg.inv(v)
    value = v @ (powered[:, None] * vinv)
    recon = op_norm(v @ (lam[:, None] * vinv) - x)
    est = (recon / xnorm + np.finfo(float).eps * cond) * max(1.0, op_norm(value))
    return PowerResult(value, "spectral", float(est), x.shape[0])


def _require_nodes(nodes: int) -> None:
    if not 16 <= nodes <= MAX_NODES:
        raise ValueError(f"need between 16 and {MAX_NODES} quadrature nodes, got {nodes}")


@lru_cache(maxsize=256)
def _jacobi_rule(nodes: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_jacobi  # scipy loads on the quadrature route only

    with np.errstate(invalid="ignore"):  # benign internal scipy divide
        return roots_jacobi(nodes, -r, r - 1.0)


def _balakrishnan_sum(
    x: np.ndarray, r: float, nodes: int, margin: float, tol: Tolerances
) -> np.ndarray:
    # After t = u/(1-u) and u = (1+xi)/2 the integral becomes a Gauss-Jacobi
    # quadrature with weight (1-xi)^{-r} (1+xi)^{r-1}; the smooth factor is
    # F(u) = (u + (1-u) x)^{-1} x.
    xi, w = _jacobi_rule(nodes, r)
    u = (1.0 + xi) / 2.0
    n = x.shape[0]
    mats = (1.0 - u)[:, None, None] * x
    mats[:, range(n), range(n)] += u[:, None]
    # solve() rejects M_k = u_k + (1-u_k) x when an LU pivot is at most
    # PIVOT_RTOL ||M_k||.  A stacked solve shows no pivots, so it is taken
    # only when a bound proves that no node can fail that test:
    # * each pivot of LU with partial pivoting is the largest entry in the
    #   first column of a Schur complement S, and S^{-1} is a block of
    #   M_k^{-1}, so |pivot| >= sigma_min(S)/sqrt(n) >= sigma_min(M_k)/n;
    # * sigma_min(M_k) >= lambda_min(Re M_k) = u_k + (1-u_k) margin, since
    #   ||M v|| >= Re<M v, v> for unit v;
    # * ||M_k|| <= u_k + (1-u_k) ||x||_F.
    # The factor 100 covers rounding in the bounds and in the factorization.
    # When any node misses the bound the whole rule goes through solve(), so
    # the same node raises SingularMatrixError with the same pivot index.
    low = (u + (1.0 - u) * margin) / n
    high = u + (1.0 - u) * frob_norm(x)
    if np.all(low > 100.0 * PIVOT_RTOL * high):
        sols = np.linalg.solve(mats, np.broadcast_to(x, mats.shape))
    else:
        sols = np.array([solve(m, x, tol) for m in mats])
    return float(np.sin(r * np.pi) / np.pi) * np.tensordot(w, sols, axes=1)


def power_balakrishnan(
    x, r: float, nodes: int = 64, tol: Tolerances = DEFAULT_TOL
) -> PowerResult:
    """Principal power by the resolvent-integral quadrature.

    Works for defective matrices since only linear solves are needed.  The
    error estimate compares against the half-node rule; the result is
    flagged uncertified when that estimate is above ``1e-6 max(1,
    ||value||_F)``, or above 1e-6 when the input sits on the accretivity
    boundary, or when the rounding of the weight exponent r - 1 moves r by
    more than 1e-6 r.
    """
    x = as_matrix(x)
    if not 0.0 < r < 1.0:
        raise ValueError("the quadrature route needs r in (0, 1)")
    if r - 1.0 <= -1.0:  # the Jacobi weight (1 - t)^(r - 1) needs an exponent above -1
        raise ValueError(
            f"r = {r!r} is too small for the quadrature route: r - 1 rounds to -1"
        )
    _require_nodes(nodes)
    margin = _require_accretive(x, tol)
    value = _balakrishnan_sum(x, r, nodes, margin, tol)
    coarse = _balakrishnan_sum(x, r, nodes // 2, margin, tol)
    est = op_norm(value - coarse)
    # The rule integrates against the weight exponent fl(r - 1) = (r - d) - 1,
    # so the value is off by a relative d / r that the half-node estimate,
    # built on the same weight, cannot see.  d is the exact rounding error of
    # r - 1 (Fast2Sum, exact since |r| < 1); it is 0 for r >= 0.5.
    d = r - ((r - 1.0) + 1.0)
    certified = (
        not (margin <= tol.psd_slack and est > 1e-6)
        and est <= 1e-6 * max(1.0, frob_norm(value))
        and abs(d) <= 1e-6 * r
    )
    return PowerResult(value, "balakrishnan", float(est), nodes, certified)


def root_series(x, m: int, terms: int = 200, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """m-th root of x in F by the binomial series in (1 - x).

    The coefficients past k = 0 all share one sign, so the tail of their
    absolute sum is available exactly; it bounds the truncation error since
    ||1 - x|| <= 1.
    """
    x = as_matrix(x)
    if m < 2 or int(m) != m:
        raise ValueError("m must be an integer >= 2")
    if not 1 <= terms <= MAX_TERMS:
        raise ValueError(f"need between 1 and {MAX_TERMS} series terms, got {terms}")
    eye = np.eye(x.shape[0], dtype=complex)
    y = eye - x
    if op_norm(y) > 1.0 + tol.eq_tol:
        raise ValueError("series route needs ||1 - x|| <= 1")
    alpha = 1.0 / m
    coeff = 1.0  # binom(alpha, k) (-1)^k at k = 0
    total = coeff * eye
    signed_sum = coeff
    yk = eye
    for k in range(terms):
        coeff = coeff * (k - alpha) / (k + 1.0)
        yk = yk @ y
        total = total + coeff * yk
        signed_sum += coeff
    # signed_sum is exactly the remaining absolute mass of the coefficients.
    est = abs(signed_sum)
    return PowerResult(total, "series", float(est), terms)


def power(x, alpha: float, nodes: int = 96, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """General positive power: integer part times fractional part.

    The fractional part goes through the spectral route, falling back to the
    quadrature route on defectiveness.  ``nodes`` is checked up front, so a
    bad count fails whichever route the matrix takes.
    """
    x = as_matrix(x)
    _require_positive(alpha, "alpha")
    _require_nodes(nodes)
    _require_accretive(x, tol)
    m = int(np.floor(alpha))
    r = alpha - m
    if r < 1e-14:
        value = np.linalg.matrix_power(x, m)
        return PowerResult(value, "spectral", 0.0, 0)
    try:
        frac = power_spectral(x, r, tol)
    except DefectiveMatrixError:
        frac = power_balakrishnan(x, r, nodes, tol)
    if m == 0:
        return frac
    xm = np.linalg.matrix_power(x, m)
    return PowerResult(
        xm @ frac.value,
        frac.method,
        frac.est_error * max(1.0, op_norm(xm)),
        frac.nodes_or_terms,
        frac.certified,
    )


def vav_identity_check(a, v, r: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of (v a v*)^r = v a^r v* for v*v equal to the support of a.

    r must be in (0, 1) or a positive integer.
    """
    from .projections import support_projection  # projections imports powers

    a = as_matrix(a)
    v = as_matrix(v)
    _require_accretive(a, tol)
    s = support_projection(a, method="oracle", tol=tol).proj
    if op_norm(dagger(v) @ v - s) > 1e-7 * max(1.0, op_norm(s)):
        raise ValueError("v*v must equal the support projection of a")
    integer = abs(r - round(r)) < 1e-14 and round(r) >= 1
    if not integer and not 0.0 < r < 1.0:
        raise ValueError("r must be in (0, 1) or a positive integer")
    vav = v @ a @ dagger(v)
    if integer:
        k = int(round(r))
        lhs = np.linalg.matrix_power(vav, k)
        rhs = v @ np.linalg.matrix_power(a, k) @ dagger(v)
    else:
        lhs = power(vav, r, tol=tol).value
        rhs = v @ power(a, r, tol=tol).value @ dagger(v)
    return op_norm(lhs - rhs)


def root_monotonicity_report(x, n_max: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Margins lambda_min(Re(x^{1/(n+1)}) - Re(x^{1/n})), n = 1..n_max-1.

    All margins are >= 0 for x in half-F; for merely accretive x some margin
    can be genuinely negative.
    """
    x = as_matrix(x)
    if n_max > 12:
        raise ValueError("n_max capped at 12")
    _require_accretive(x, tol)
    roots = [power(x, 1.0 / n, tol=tol).value for n in range(1, n_max + 1)]
    return np.array(
        [min_real_eig(roots[n] - roots[n - 1]) for n in range(1, n_max)]
    )


def rescaled_root_check(x, tol: Tolerances = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Normalizing constant c = (2 ||Re(x^{1/2})||)^2 and root margins.

    After dividing by c the square root lands in half-F, so the real parts
    of the roots (x/c)^{1/m} increase with m; the returned margins (for
    m = 2..8) certify that numerically.
    """
    x = as_matrix(x)
    _require_accretive(x, tol)
    if op_norm(x) <= tol.eq_tol:
        raise ValueError("x must be nonzero")
    half = power(x, 0.5, tol=tol).value
    c = (2.0 * op_norm(re_part(half))) ** 2
    scaled = x / c
    if not f_membership(power(scaled, 0.5, tol=tol).value, tol).in_half_f:
        raise ArithmeticError("rescaled square root left the half-F set")
    roots = [power(scaled, 1.0 / m, tol=tol).value for m in range(2, 9)]
    return float(c), np.array(
        [min_real_eig(roots[i + 1] - roots[i]) for i in range(len(roots) - 1)]
    )


def holder_check(
    a,
    b,
    alpha: float,
    samples: int = 64,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Empirical Hoelder constant for commuting accretive pairs.

    Samples unit vectors z and reports the largest ratio
    ``||(a^alpha - b^alpha) z|| / ||(a - b) z||^alpha`` (0 when no sample has
    a usable denominator).  No assertion is made about the universal
    constant; this is a measurement.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    _require_accretive(a, tol)
    _require_accretive(b, tol)
    if op_norm(a @ b - b @ a) > 1e-8:
        raise ValueError("holder_check needs commuting inputs")
    pa = power(a, alpha, tol=tol).value
    pb = power(b, alpha, tol=tol).value
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    best = 0.0
    for _ in range(samples):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        den = np.linalg.norm((a - b) @ z)
        if den <= 1e-8:
            continue
        best = max(best, float(np.linalg.norm((pa - pb) @ z) / den**alpha))
    return best


def _matrix_polyval(coeffs, m: np.ndarray) -> np.ndarray:
    """Polynomial in a matrix; coefficients ascending (c0 + c1 z + ...)."""
    n = m.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for c in reversed(list(coeffs)):
        acc = acc @ m + c * np.eye(n, dtype=complex)
    return acc


def disk_order_check(
    f_coeffs, g_coeffs, x, boundary_samples: int = 4096, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float]:
    """Disk-algebra functional calculus preserves the accretive order.

    For polynomials with ``Re(g - f) >= 0`` on the closed unit disk and x in
    F, the matrix ``g(1-x) - f(1-x)`` is accretive.  Returns
    ``(premise_margin, conclusion_margin)``: the minimum of ``Re((g-f)(z))``
    over the boundary circle (harmonicity puts the minimum there) and
    ``lambda_min(Re(g(1-x) - f(1-x)))``.  A nonnegative premise with a
    conclusion below -psd_slack raises, since the implication is exact.
    """
    x = as_matrix(x)
    eye = np.eye(x.shape[0], dtype=complex)
    if op_norm(eye - x) > 1.0 + tol.eq_tol:
        raise ValueError("disk order check needs x in F (||1 - x|| <= 1)")
    diff = np.zeros(max(len(f_coeffs), len(g_coeffs)), dtype=complex)
    diff[: len(g_coeffs)] += np.asarray(g_coeffs, dtype=complex)
    diff[: len(f_coeffs)] -= np.asarray(f_coeffs, dtype=complex)
    z = np.exp(2j * np.pi * np.arange(boundary_samples) / boundary_samples)
    premise = float(np.polynomial.polynomial.polyval(z, diff).real.min())
    conclusion = min_real_eig(_matrix_polyval(diff, eye - x))
    if premise >= 0.0 and conclusion < -tol.psd_slack:
        raise ArithmeticError(
            f"disk ordering violated numerically (premise {premise:.2e}, "
            f"conclusion {conclusion:.2e})"
        )
    return premise, conclusion
