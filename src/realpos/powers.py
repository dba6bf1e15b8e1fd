"""Principal fractional powers of accretive matrices.

Three routes, kept independent so they can cross-check each other:

* spectral: diagonalize and take principal powers of the eigenvalues;
* quadrature: the resolvent integral
  ``x^r = (sin(r pi)/pi) * integral_0^inf t^{r-1} (t + x)^{-1} x dt``
  evaluated with Gauss-Jacobi nodes after mapping t = u/(1-u).  All the
  resolvents come from one unitary Schur form x = Z T Z* by back
  substitution (Laub, IEEE TAC 26, 1981; Higham, ch. 9).  No eigenvectors
  are formed and zgees is backward stable, so the route holds for
  defective x and stays an independent check of the spectral one;
* series: the binomial expansion of ``(1 - (1-x))^{1/m}`` for x in F,
  summed by Paterson-Stockmeyer: a degree-d partial sum takes about
  2 sqrt(d) matrix products instead of d.

``power_all(x, alphas)`` gives one result per exponent and factors x once:
the fractional parts all power one eigendecomposition (Higham, *Functions
of Matrices*, 2008, ch. 4), or all take the quadrature route when x is
defective.  ``power(x, alpha)`` is ``power_all(x, (alpha,))[0]``, and
``power_spectral`` powers the same factorization, so there is one spectral
implementation.  Nothing is cached across calls.

Also houses the root-law checks (scaling, monotonicity of rescaled roots,
commuting Hoelder ratios, disk-function-calculus ordering).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from numbers import Integral

import numpy as np

from .cones import f_membership
from .matrices import (
    DEFAULT_TOL,
    PIVOT_RTOL,
    Tolerances,
    _require_positive,
    as_matrix,
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
    "power_all",
    "root_monotonicity_report",
    "rescaled_root_check",
    "holder_check",
    "disk_order_check",
]

COND_CAP = 1e8
# power_spectral maps eigenvalues with |lambda| <= EIG_RTOL ||x|| to 0.
EIG_RTOL = 1e-12
# Largest quadrature node count and series term count: a rule of MAX_NODES
# nodes and its half-node rule hold 1.5 MAX_NODES n x n resolvents (25 MB
# at n = 16), and MAX_TERMS series terms take about 630 matrix products.
MAX_NODES = 4096
MAX_TERMS = 100_000


class NotAccretiveError(ValueError):
    """Input is outside the accretive cone (beyond psd_slack)."""


class DefectiveMatrixError(ValueError):
    """Eigenvector matrix too ill-conditioned for the spectral route.

    Callers should fall back to the quadrature route, which forms no
    eigenvectors.
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


class _SpectralFactor:
    """One eigendecomposition x = v diag(lam) v^{-1} of an accretive x, with
    the checks every power of it shares; :meth:`power` takes one exponent.

    Eigenvalues of magnitude at most ``EIG_RTOL * ||x||`` are mapped to 0
    (they are semisimple for accretive input); the rest are powered on the
    principal branch.  Raises :class:`DefectiveMatrixError` when the
    eigenvector matrix has condition number above ``COND_CAP``.
    """

    def __init__(self, x: np.ndarray):
        lam, v = np.linalg.eig(x)
        s = np.linalg.svd(v, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        if cond > COND_CAP:
            raise DefectiveMatrixError(cond)
        xnorm = max(op_norm(x), 1e-300)
        # No singular-pivot test is needed for v^{-1}.  LU with partial
        # pivoting takes each pivot as the largest entry in the first column
        # of a Schur complement S, and S^{-1} is a block of v^{-1}, so
        # |pivot| >= sigma_min(S)/sqrt(n) >= sigma_min(v)/n.  After the check
        # above sigma_min(v) >= 1e-8 sigma_max(v), which for n <= 16 is over
        # 6000 times solve()'s PIVOT_RTOL sigma_max(v) limit, so one plain
        # inversion replaces solve()'s SVD and LU.
        self.v = v
        self.vinv = np.linalg.inv(v)
        self.lam = lam.astype(complex)
        self.cut = np.abs(lam) <= EIG_RTOL * xnorm
        recon = op_norm(v @ (lam[:, None] * self.vinv) - x)
        self.rel_error = recon / xnorm + np.finfo(float).eps * cond

    def power(self, alpha: float) -> PowerResult:
        powered = np.where(self.cut, 0.0, np.power(self.lam, alpha))
        value = self.v @ (powered[:, None] * self.vinv)
        est = self.rel_error * max(1.0, op_norm(value))
        return PowerResult(value, "spectral", float(est), self.v.shape[0])


def power_spectral(x, alpha: float, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """Principal power via eigendecomposition (see :class:`_SpectralFactor`).

    Raises :class:`DefectiveMatrixError` when the eigenvector matrix has
    condition number above 1e8.
    """
    x = as_matrix(x)
    _require_positive(alpha, "alpha")
    _require_accretive(x, tol)
    return _SpectralFactor(x).power(alpha)


def _require_count(value, name: str, low: int, high: int, what: str) -> None:
    """Refuse a count that is not an integer (bools included) or lies
    outside [low, high], naming the parameter; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"need between {low} and {high} {what}, got {value}")


def _require_nodes(nodes: int) -> None:
    _require_count(nodes, "nodes", 16, MAX_NODES, "quadrature nodes")


@lru_cache(maxsize=256)
def _jacobi_rule(nodes: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_jacobi  # scipy loads on the quadrature route only

    with np.errstate(invalid="ignore"):  # benign internal scipy divide
        return roots_jacobi(nodes, -r, r - 1.0)


def _schur_resolvents(x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z and s with s[:, :, k] = (u_k + (1 - u_k) T)^{-1} T, where x = Z T Z*
    is the complex Schur form (LAPACK zgees; Z unitary, T upper triangular).

    Every node's system shares the off-diagonal coefficients of T, so back
    substitution takes row i of all of them at once: one matrix-vector
    product with the rows below it.  Each S_k is upper triangular, like T
    (zgees leaves its strictly lower triangle exactly 0), so only that
    triangle is computed, in place; the lower one stays 0.  The caller
    guarantees nonzero diagonals u_k + (1 - u_k) t_ii.
    """
    import scipy.linalg  # kept off the import path, like solve()'s

    # as_matrix has already refused non-finite input
    t, z = scipy.linalg.schur(x, output="complex", check_finite=False)
    n, k = x.shape[0], len(u)
    v = 1.0 - u
    s = np.zeros((n, n, k), dtype=complex)
    d = np.empty(k, dtype=complex)
    buf = np.empty(n * k, dtype=complex)
    for i in range(n - 1, -1, -1):
        m = n - i - 1
        np.multiply(v, t[i, i], out=d)
        np.add(u, d, out=d)
        np.divide(t[i, i], d, out=s[i, i])
        if m:
            # s[i+1:, i+1:] merges to an (m, m k) view with row stride n k
            below = np.matmul(t[i, i + 1:], s[i + 1:, i + 1:].reshape(m, m * k),
                              out=buf[:m * k]).reshape(m, k)
            np.multiply(v, below, out=below)
            np.subtract(t[i, i + 1:, None], below, out=below)
            np.divide(below, d, out=s[i, i + 1:])
    return z, s


def _balakrishnan_sums(
    x: np.ndarray, r: float, nodes: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point rule and the ``nodes // 2``-point rule, whose
    1.5 ``nodes`` resolvents come from one Schur form of x in the usual
    case (see :func:`_schur_resolvents`) and from solve() node by node
    otherwise."""
    # After t = u/(1-u) and u = (1+xi)/2 the integral becomes a Gauss-Jacobi
    # quadrature with weight (1-xi)^{-r} (1+xi)^{r-1}; the smooth factor is
    # F(u) = (u + (1-u) x)^{-1} x.
    (xi, w), (xi_c, w_c) = _jacobi_rule(nodes, r), _jacobi_rule(nodes // 2, r)
    u = (1.0 + np.concatenate([xi, xi_c])) / 2.0
    n = x.shape[0]
    # solve() rejects M_k = u_k + (1-u_k) x when an LU pivot is at most
    # PIVOT_RTOL ||M_k||.  The Schur route shows no such pivots, so it is
    # taken only when a bound proves that no node can fail that test:
    # * each pivot of LU with partial pivoting is the largest entry in the
    #   first column of a Schur complement S, and S^{-1} is a block of
    #   M_k^{-1}, so |pivot| >= sigma_min(S)/sqrt(n) >= sigma_min(M_k)/n;
    # * sigma_min(M_k) >= lambda_min(Re M_k) = u_k + (1-u_k) margin, since
    #   ||M v|| >= Re<M v, v> for unit v;
    # * ||M_k|| <= u_k + (1-u_k) ||x||_F.
    # The factor 100 covers rounding in the bounds and in the factorization.
    # The same bound keeps the triangular diagonals u_k + (1-u_k) lambda_i
    # away from 0: Re lambda_i >= margin, as eigenvalues lie in the
    # numerical range.  When any node misses the bound, every node goes
    # through solve(), fine rule first, so the node that fails raises
    # SingularMatrixError with its own pivot index.
    low = (u + (1.0 - u) * margin) / n
    high = u + (1.0 - u) * frob_norm(x)
    if np.all(low > 100.0 * PIVOT_RTOL * high):
        z, s = _schur_resolvents(x, u)
    else:
        eye = np.eye(n)
        z, s = None, np.stack([solve((1.0 - uk) * x + uk * eye, x) for uk in u], axis=-1)
    # Both rules' sums by one product: column 0 of the weights holds the
    # fine rule's, column 1 the half-node rule's.
    weights = np.zeros((len(u), 2))
    weights[:nodes, 0], weights[nodes:, 1] = w, w_c
    sums = np.moveaxis((s.reshape(n * n, -1) @ weights).reshape(n, n, 2), -1, 0)
    if z is not None:
        sums = z @ sums @ z.conj().T
    # sin(r pi) = sin((1 - r) pi), and for r > 1/2 the difference 1 - r is
    # exact while r * pi would round next to pi and lose eps / (1 - r).
    angle = (1.0 - r) * np.pi if r > 0.5 else r * np.pi
    scale = float(np.sin(angle) / np.pi)
    return scale * sums[0], scale * sums[1]


def power_balakrishnan(
    x, r: float, nodes: int = 64, tol: Tolerances = DEFAULT_TOL
) -> PowerResult:
    """Principal power by the resolvent-integral quadrature.

    Works for defective matrices: the resolvents at the nodes are triangular
    solves in one unitary Schur form of x (backward stable, no eigenvectors
    formed), or LU solves when the pivot bound of :func:`_balakrishnan_sums`
    misses a node, so this route checks the spectral one independently.  The
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
    value, coarse = _balakrishnan_sums(x, r, nodes, margin)
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
    ||1 - x|| <= 1.  The partial sum, a polynomial of degree ``terms`` in
    1 - x, is evaluated by Paterson-Stockmeyer (:func:`_matrix_polyval`):
    about 2 sqrt(terms) matrix products, 630 at ``MAX_TERMS``.
    """
    x = as_matrix(x)
    if m < 2 or int(m) != m:
        raise ValueError("m must be an integer >= 2")
    _require_count(terms, "terms", 1, MAX_TERMS, "series terms")
    y = np.eye(x.shape[0], dtype=complex) - x
    if op_norm(y) > 1.0 + tol.eq_tol:
        raise ValueError("series route needs ||1 - x|| <= 1")
    alpha = 1.0 / m
    coeff = 1.0  # binom(alpha, k) (-1)^k at k = 0
    coeffs = [coeff]
    signed_sum = coeff
    for k in range(terms):
        coeff = coeff * (k - alpha) / (k + 1.0)
        coeffs.append(coeff)
        signed_sum += coeff
    # signed_sum is exactly the remaining absolute mass of the coefficients.
    est = abs(signed_sum)
    return PowerResult(_matrix_polyval(coeffs, y), "series", float(est), terms)


def _split(alpha: float) -> tuple[int, float]:
    """Integer part m and fractional part alpha - m of alpha."""
    m = int(np.floor(alpha))
    return m, alpha - m


def power_all(
    x, alphas, nodes: int = 96, tol: Tolerances = DEFAULT_TOL
) -> list[PowerResult]:
    """General positive powers of one x: one :class:`PowerResult` per exponent.

    Each exponent splits into an integer part and a fractional part.  An
    exponent within 1e-14 above an integer is that integer power.  Every
    fractional part powers one eigendecomposition of x, made once per call;
    when x is defective, every fractional part takes the quadrature route
    instead.  ``nodes`` is checked up front, so a bad count fails whichever
    route the matrix takes.
    """
    x = as_matrix(x)
    alphas = tuple(alphas)
    for alpha in alphas:
        _require_positive(alpha, "alpha")
    _require_nodes(nodes)
    _require_accretive(x, tol)
    parts = [_split(alpha) for alpha in alphas]
    factor = None  # stays None when no part is fractional or x is defective
    if any(r >= 1e-14 for _, r in parts):
        try:
            factor = _SpectralFactor(x)
        except DefectiveMatrixError:
            pass
    results = []
    for m, r in parts:
        if r < 1e-14:
            results.append(PowerResult(np.linalg.matrix_power(x, m), "spectral", 0.0, 0))
            continue
        frac = factor.power(r) if factor is not None else power_balakrishnan(x, r, nodes, tol)
        if m == 0:
            results.append(frac)
            continue
        xm = np.linalg.matrix_power(x, m)
        results.append(PowerResult(
            xm @ frac.value,
            frac.method,
            frac.est_error * max(1.0, op_norm(xm)),
            frac.nodes_or_terms,
            frac.certified,
        ))
    return results


def power(x, alpha: float, nodes: int = 96, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """General positive power: :func:`power_all` at one exponent."""
    return power_all(x, (alpha,), nodes, tol)[0]


def _increment_margins(roots) -> np.ndarray:
    """lambda_min(Re(roots[k+1] - roots[k])) for each k, by one batched eigvalsh."""
    roots = np.asarray(roots)
    if len(roots) < 2:
        return np.array([])
    return np.linalg.eigvalsh(re_part(roots[1:] - roots[:-1]))[:, 0]


def root_monotonicity_report(x, n_max: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Margins lambda_min(Re(x^{1/(n+1)}) - Re(x^{1/n})), n = 1..n_max-1.

    All margins are >= 0 for x in half-F; for merely accretive x some margin
    can be genuinely negative.
    """
    x = as_matrix(x)
    if n_max > 12:
        raise ValueError("n_max capped at 12")
    roots = power_all(x, [1.0 / n for n in range(1, n_max + 1)], tol=tol)
    return _increment_margins([root.value for root in roots])


def rescaled_root_check(x, tol: Tolerances = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Normalizing constant c = (2 ||Re(x^{1/2})||)^2 and root margins.

    After dividing by c the square root lands in half-F, so the real parts
    of the roots (x/c)^{1/m} increase with m; the returned margins (for
    m = 2..8) certify that numerically.
    """
    x = as_matrix(x)
    # power() checks accretivity; a margin below -psd_slack makes ||x|| exceed
    # psd_slack >= eq_tol, so the nonzero check cannot pre-empt that error.
    if op_norm(x) <= tol.eq_tol:
        raise ValueError("x must be nonzero")
    half = power(x, 0.5, tol=tol).value
    c = (2.0 * op_norm(re_part(half))) ** 2
    roots = [r.value for r in power_all(x / c, [1.0 / m for m in range(2, 9)], tol=tol)]
    if not f_membership(roots[0], tol).in_half_f:
        raise ArithmeticError("rescaled square root left the half-F set")
    return float(c), _increment_margins(roots)


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
    """Polynomial in a matrix; coefficients ascending (c0 + c1 z + ...).

    Paterson-Stockmeyer with block size s = isqrt(len(coeffs)): the powers
    m^0..m^s, every block sum_i c_{js+i} m^i by one tensordot over them, and
    Horner in m^s over the blocks, so about 2 sqrt(len(coeffs)) products.
    With s = 1 (at most 3 coefficients) this is plain Horner in m.
    """
    coeffs = np.asarray(coeffs)
    s = isqrt(len(coeffs))
    powers = [np.eye(m.shape[0], dtype=complex), m]
    for _ in range(s - 1):
        powers.append(powers[-1] @ m)
    padded = np.pad(coeffs, (0, -len(coeffs) % s))
    blocks = np.tensordot(padded.reshape(-1, s), np.array(powers[:s]), axes=1)
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc @ powers[s] + block
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
