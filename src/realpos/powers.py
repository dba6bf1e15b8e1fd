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

``power_all(x, alphas)`` gives one result per exponent and makes one
factor of x, spectral or Schur: the fractional parts all power one
eigendecomposition (Higham, *Functions of Matrices*, 2008, ch. 4), or, when
x is defective, one Schur form by the quadrature route; a caller holding a
validated x calls its body, ``_powers``.  ``power(x, alpha)`` is
``power_all(x, (alpha,))[0]``, and ``power_spectral`` and
``power_balakrishnan`` power the same factors: one implementation a route.
Nothing is cached across calls but the quadrature rules and the series
coefficients.  Within one, a result of either route computes its
``est_error`` on the first read and keeps it: no caller on a hot path reads
it, and it is the only SVD work of a power.  The verdicts a power turns on
(the spectral route's eigenvalue cut, the quadrature route's ``certified``,
the series route's ``||1 - x|| <= 1 + eq_tol`` and its ``certified``) are
settled by the Frobenius verdicts of ``matrices``, which run an SVD only
when the Frobenius norm cannot settle them.

Also houses the root-law checks (monotonicity of roots and of rescaled
roots, disk-function-calculus ordering).
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from math import isfinite, isqrt
from numbers import Real

import numpy as np

from .cones import NotAccretiveError, _accretive, _in_f, _on_boundary, _require_accretive
from .matrices import (
    DEFAULT_TOL,
    PIVOT_RTOL,
    SingularMatrixError,
    Tolerances,
    _at_most_rtol_norm,
    _cond_surely_within,
    _require_count,
    _require_positive,
    _schur,
    _within,
    as_matrix,
    frob_norm,
    op_norm,
    re_part,
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


class PowerResult:
    """One power of one matrix.

    value           the power
    method          'spectral' | 'balakrishnan' | 'series'
    est_error       a posteriori estimate, method-specific
    nodes_or_terms  quadrature nodes or series terms (n on the spectral route)
    certified       whether est_error meets the route's own bound

    ``est_error`` may be given as a function of no arguments, which runs on
    the first read of ``est_error``; its value is kept.  Spectral and
    quadrature results take it so: their estimates cost SVDs (three and one)
    that few callers read.
    """

    __slots__ = ("value", "method", "_est", "nodes_or_terms", "certified")

    def __init__(self, value, method, est_error, nodes_or_terms, certified=True):
        self.value, self.method, self._est = value, method, est_error
        self.nodes_or_terms, self.certified = nodes_or_terms, certified

    @property
    def est_error(self) -> float:
        if callable(self._est):
            self._est = self._est()
        return self._est

    def __repr__(self) -> str:
        return (f"PowerResult(value={self.value!r}, method={self.method!r}, "
                f"est_error={self.est_error!r}, nodes_or_terms={self.nodes_or_terms!r}, "
                f"certified={self.certified!r})")


def _require_finite(res: PowerResult, alpha: float) -> PowerResult:
    """res, unless its value overflowed: then ValueError naming alpha."""
    if not np.isfinite(res.value).all():
        raise ValueError(f"x^{float(alpha)!r} overflows: its value has non-finite entries")
    return res


class _SpectralFactor:
    """One eigendecomposition x = v diag(lam) v^{-1} of an accretive x, with
    the checks every power of it shares; :meth:`power` takes one exponent.

    Eigenvalues of magnitude at most ``EIG_RTOL * ||x||`` are mapped to 0
    (they are semisimple for accretive input); the rest are powered on the
    principal branch.  ``_at_most_rtol_norm`` settles that cut from
    ||x||_F, and runs the SVD of x only when ||x||_F cannot.  Raises
    :class:`DefectiveMatrixError` when the eigenvector matrix has condition
    number above ``COND_CAP``.  The estimate's parts, ``cond``, ``xnorm``
    and ``rel_error``, are computed on first use from arrays the factor
    owns, so writing to x afterwards changes nothing.
    """

    def __init__(self, x: np.ndarray):
        lam, v = np.linalg.eig(x)
        self.v, self.x = v, x.copy()
        # v is inverted before its condition number is known, so that the
        # inverse also settles cond(v) <= COND_CAP by the Frobenius bound of
        # _cond_surely_within; the SVD of v runs only when that bound cannot
        # settle it, when inv raises (an exactly zero pivot), or when the
        # estimate is read.  No singular-pivot test is needed for the
        # inverse kept: LU with partial pivoting takes each pivot as the
        # largest entry in the first column of a Schur complement S, and
        # S^{-1} is a block of v^{-1}, so |pivot| >= sigma_min(S)/sqrt(n) >=
        # sigma_min(v)/n.  With cond(v) <= COND_CAP, sigma_min(v) >= 1e-8
        # sigma_max(v), which for n <= 16 is over 6000 times solve()'s
        # PIVOT_RTOL sigma_max(v) limit, so one plain inversion replaces
        # solve()'s SVD and LU.  A v that makes inv raise yet passes the SVD
        # check raises LinAlgError, as the inversion after the check did.
        try:
            self.vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            if self.cond <= COND_CAP:
                raise
            raise DefectiveMatrixError(self.cond) from None
        if not _cond_surely_within(v, self.vinv, COND_CAP) and self.cond > COND_CAP:
            raise DefectiveMatrixError(self.cond)
        self.lam = lam.astype(complex)
        self.cut = _at_most_rtol_norm(np.abs(lam), EIG_RTOL, x, 1e-300)

    @cached_property
    def cond(self) -> float:
        """cond(v) = sigma_max / sigma_min, by the SVD of v."""
        s = np.linalg.svd(self.v, compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] > 0 else np.inf

    @cached_property
    def xnorm(self) -> float:
        return max(op_norm(self.x), 1e-300)

    @cached_property
    def rel_error(self) -> float:
        """||v diag(lam) v^{-1} - x|| / ||x|| + eps cond(v)."""
        recon = op_norm(self.v @ (self.lam[:, None] * self.vinv) - self.x)
        return recon / self.xnorm + np.finfo(float).eps * self.cond

    def power(self, alpha: float) -> PowerResult:
        with np.errstate(over="ignore", invalid="ignore"):  # callers refuse an overflow
            powered = np.where(self.cut, 0.0, np.power(self.lam, alpha))
            value = self.v @ (powered[:, None] * self.vinv)
        held = value.copy()  # the caller may write to value before reading est_error
        return PowerResult(value, "spectral",
                           lambda: float(self.rel_error * max(1.0, op_norm(held))),
                           self.v.shape[0])


def power_spectral(x, alpha: float, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """Principal power via eigendecomposition (see :class:`_SpectralFactor`).

    Raises :class:`DefectiveMatrixError` when the eigenvector matrix has
    condition number above 1e8.
    """
    x = as_matrix(x)
    _require_positive(alpha, "alpha")
    _require_accretive(x, tol)
    return _require_finite(_SpectralFactor(x).power(alpha), alpha)


def _jacobi_rule(nodes: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_jacobi  # scipy loads on the quadrature route only

    with np.errstate(invalid="ignore"):  # benign internal scipy divide
        return roots_jacobi(nodes, -r, r - 1.0)


@lru_cache(maxsize=256)
def _both_rules(nodes: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes u of the ``nodes``-point rule and of the ``nodes // 2``-point
    rule, fine rule first, and their (len(u), 2) weights: column 0 holds
    the fine rule's, column 1 the half-node rule's.  Both are read-only."""
    # After t = u/(1-u) and u = (1+xi)/2 the integral becomes a Gauss-Jacobi
    # quadrature with weight (1-xi)^{-r} (1+xi)^{r-1}.
    (xi, w), (xi_c, w_c) = _jacobi_rule(nodes, r), _jacobi_rule(nodes // 2, r)
    u = (1.0 + np.concatenate([xi, xi_c])) / 2.0
    weights = np.zeros((len(u), 2))
    weights[:nodes, 0], weights[nodes:, 1] = w, w_c
    u.flags.writeable = weights.flags.writeable = False
    return u, weights


def _schur_resolvents(t: np.ndarray, xfrob: float, u: np.ndarray) -> np.ndarray:
    """s with s[:, :, k] = (u_k + (1 - u_k) T)^{-1} T, where x = Z T Z* is the
    complex Schur form (``matrices._schur``, LAPACK zgees; Z unitary, T upper
    triangular) and xfrob = ||x||_F.

    The pivots u_k + (1 - u_k) t_ii of the triangular systems M_k = u_k +
    (1 - u_k) T are formed once, and solve()'s rule refuses them: the first
    node with a pivot at or below PIVOT_RTOL (u_k + (1 - u_k) ||x||_F), a
    bound on ||M_k|| = ||u_k + (1 - u_k) x||, raises
    :class:`SingularMatrixError` naming the node (its index in u), its u_k
    and its row of T.  zgees and back substitution are backward stable
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 8), so a
    node that passes is served as well as by an LU solve.

    Every node's system shares the off-diagonal coefficients of T, so back
    substitution takes row i of all of them at once: one matrix-vector
    product with the rows below it.  Each S_k is upper triangular, like T
    (zgees leaves its strictly lower triangle exactly 0), so only that
    triangle is computed, in place; the lower one stays 0.
    """
    n, k = t.shape[0], len(u)
    v = 1.0 - u
    d = np.multiply(v, np.diag(t)[:, None])
    np.add(u, d, out=d)
    scale = u + v * xfrob
    bad = np.abs(d) <= PIVOT_RTOL * scale
    if bad.any():
        node = int(bad.any(axis=0).argmax())
        row = int(bad[:, node].argmax())
        raise SingularMatrixError(row, float(abs(d[row, node])), float(scale[node]),
                                  f"the quadrature route refused node {node} (u_k = {u[node]:.3e}) "
                                  "as numerically singular")
    s = np.zeros((n, n, k), dtype=complex)
    buf = np.empty(n * k, dtype=complex)
    for i in range(n - 1, -1, -1):
        m = n - i - 1
        np.divide(t[i, i], d[i], out=s[i, i])
        if m:
            # s[i+1:, i+1:] merges to an (m, m k) view with row stride n k
            below = np.matmul(t[i, i + 1:], s[i + 1:, i + 1:].reshape(m, m * k),
                              out=buf[:m * k]).reshape(m, k)
            np.multiply(v, below, out=below)
            np.subtract(t[i, i + 1:, None], below, out=below)
            np.divide(below, d[i], out=s[i, i + 1:])
    return s


class _SchurFactor:
    """One Schur form x = Z T Z* of an accretive x (margin lambda_min(Re x))
    and the rule size its powers share; :meth:`power` takes one r in (0, 1)
    from the ``nodes``- and ``nodes // 2``-point rules, whose 1.5 ``nodes``
    resolvents, fine rule first, all come from T (:func:`_schur_resolvents`)."""

    def __init__(self, x: np.ndarray, margin: float, nodes: int, tol: Tolerances):
        self.t, self.z = _schur(x)
        self.xfrob, self.boundary, self.nodes = frob_norm(x), _on_boundary(margin, tol), nodes

    def power(self, r: float) -> PowerResult:
        # The smooth factor of the integrand is F(u) = (u + (1-u) x)^{-1} x; both
        # rules' sums come from one product with the weights of _both_rules.
        u, weights = _both_rules(self.nodes, r)
        s = _schur_resolvents(self.t, self.xfrob, u)
        sums = self.z @ (s.reshape(-1, len(u)) @ weights).T.reshape(2, *self.t.shape) @ self.z.conj().T
        # sin(r pi) = sin((1 - r) pi), and for r > 1/2 the difference 1 - r is
        # exact while r * pi would round next to pi and lose eps / (1 - r).
        angle = (1.0 - r) * np.pi if r > 0.5 else r * np.pi
        scale = float(np.sin(angle) / np.pi)
        value, coarse = scale * sums[0], scale * sums[1]
        diff = value - coarse
        # The rule integrates against the weight exponent fl(r - 1) = (r - d) - 1,
        # so the value is off by a relative d / r that the half-node estimate,
        # built on the same weight, cannot see.  d is the exact rounding error of
        # r - 1 (Fast2Sum, exact since |r| < 1); it is 0 for r >= 0.5.
        d = r - ((r - 1.0) + 1.0)
        certified = (
            not (self.boundary and not _within(diff, 1e-6))
            and _within(diff, 1e-6 * max(1.0, frob_norm(value)))
            and abs(d) <= 1e-6 * r
        )
        return PowerResult(value, "balakrishnan", lambda: op_norm(diff), self.nodes, certified)


def power_balakrishnan(
    x, r: float, nodes: int = 64, tol: Tolerances = DEFAULT_TOL
) -> PowerResult:
    """Principal power by the resolvent-integral quadrature.

    Works for defective matrices: the resolvents at the nodes are triangular
    solves in one unitary Schur form of x (backward stable, no eigenvectors
    formed), so this route checks the spectral one independently.  A node
    whose triangular pivot is negligible raises :class:`SingularMatrixError`
    naming the node, its u_k and its row of the Schur form (see
    :func:`_schur_resolvents`).  The error estimate is the distance to the
    half-node rule's value; the result is flagged uncertified when that
    estimate is above ``1e-6 max(1, ||value||_F)``, or above 1e-6 when the
    input sits on the accretivity boundary, or when the rounding of the
    weight exponent r - 1 moves r by more than 1e-6 r.  Those verdicts are
    settled by ``_within``; the estimate itself, one SVD, is computed on the
    first read of ``est_error``.
    """
    x = as_matrix(x)
    if not 0.0 < r < 1.0:
        raise ValueError("the quadrature route needs r in (0, 1)")
    if r - 1.0 <= -1.0:  # the Jacobi weight (1 - t)^(r - 1) needs an exponent above -1
        raise ValueError(
            f"r = {r!r} is too small for the quadrature route: r - 1 rounds to -1"
        )
    _require_count(nodes, "nodes", 16, MAX_NODES)
    return _SchurFactor(x, _require_accretive(x, tol), nodes, tol).power(r)


def root_series(x, m: int, terms: int = 200, tol: Tolerances = DEFAULT_TOL) -> PowerResult:
    """m-th root of x in F by the binomial series in (1 - x).

    The coefficients past k = 0 all share one sign, so the tail of their
    absolute sum is available exactly; it bounds the truncation error when
    ||1 - x|| <= 1.  The route takes ||1 - x|| up to 1 + eq_tol, a rounding
    allowance, and ``certified`` is ``||1 - x|| <= 1``: past it the tail
    bound does not hold.  The partial sum, a polynomial of degree ``terms``
    in 1 - x, is evaluated by Paterson-Stockmeyer (:func:`_matrix_polyval`):
    about 2 sqrt(terms) matrix products, 630 at ``MAX_TERMS``.
    """
    x = as_matrix(x)
    if not (isinstance(m, Real) and isfinite(m) and m >= 2 and int(m) == m):
        raise ValueError("m must be an integer >= 2")
    _require_count(terms, "terms", 1, MAX_TERMS)
    y = np.eye(x.shape[0], dtype=complex) - x
    certified = _within(y, 1.0)
    if not certified and not _within(y, 1.0 + tol.eq_tol):
        raise ValueError("series route needs ||1 - x|| <= 1")
    coeffs, est = _series_coefficients(int(m), int(terms))
    return PowerResult(_matrix_polyval(coeffs, y), "series", est, terms, certified)


@lru_cache(maxsize=8)
def _series_coefficients(m: int, terms: int) -> tuple[np.ndarray, float]:
    """The coefficients binom(1/m, k) (-1)^k of the series, k = 0..terms, as
    a read-only array, and the absolute mass of the rest, exactly.  An entry
    at ``MAX_TERMS`` holds 800 KB."""
    alpha = 1.0 / m
    coeff = 1.0  # at k = 0
    coeffs = [coeff]
    signed_sum = coeff
    for k in range(terms):
        coeff = coeff * (k - alpha) / (k + 1.0)
        coeffs.append(coeff)
        signed_sum += coeff
    # The coefficients past k = 0 share one sign, so signed_sum is exactly
    # the remaining absolute mass.
    coeffs = np.array(coeffs)
    coeffs.flags.writeable = False
    return coeffs, float(abs(signed_sum))


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
    when x is defective, every fractional part powers one Schur form of x
    instead, by the quadrature route.  ``nodes`` is checked up front, so a
    bad count fails whichever route the matrix takes.
    """
    x = as_matrix(x)
    alphas = tuple(alphas)
    for alpha in alphas:
        _require_positive(alpha, "alpha")
    _require_count(nodes, "nodes", 16, MAX_NODES)
    return _powers(x, alphas, _require_accretive(x, tol), nodes, tol)


def _powers(x, alphas, margin: float, nodes: int, tol: Tolerances) -> list[PowerResult]:
    """:func:`power_all` on arguments the caller has validated, margin = lambda_min(Re x)."""
    parts = [_split(alpha) for alpha in alphas]
    factor = None  # stays None when no part is fractional
    if any(r >= 1e-14 for _, r in parts):
        try:
            factor = _SpectralFactor(x)
        except DefectiveMatrixError:
            factor = _SchurFactor(x, margin, nodes, tol)
    results = []
    for alpha, (m, r) in zip(alphas, parts):
        if r >= 1e-14:
            frac = factor.power(r)
            if m == 0:
                results.append(_require_finite(frac, alpha))
                continue
        with np.errstate(over="ignore", invalid="ignore"):  # refused by _require_finite
            xm = np.linalg.matrix_power(x, m)
            if r < 1e-14:
                res = PowerResult(xm, "spectral", 0.0, 0)
            else:
                res = PowerResult(xm @ frac.value, frac.method, _scaled_estimate(frac, xm.copy()),
                                  frac.nodes_or_terms, frac.certified)
        results.append(_require_finite(res, alpha))
    return results


def _scaled_estimate(frac: PowerResult, xm: np.ndarray):
    """The est_error of x^m x^r, run on its first read: frac's times
    max(1, ||x^m||).  xm is the result's own copy of x^m."""
    return lambda: frac.est_error * max(1.0, op_norm(xm))


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
    _require_count(n_max, "n_max", 0, 12)
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
    if _within(x, tol.eq_tol):
        raise ValueError("x must be nonzero")
    half = power(x, 0.5, tol=tol).value
    c = (2.0 * op_norm(re_part(half))) ** 2
    roots = [r.value for r in power_all(x / c, [1.0 / m for m in range(2, 9)], tol=tol)]
    if not _in_f(2.0 * roots[0], tol):
        raise ArithmeticError("rescaled square root left the half-F set")
    return float(c), _increment_margins(roots)


def _matrix_polyval(coeffs, m: np.ndarray) -> np.ndarray:
    """Polynomial in a matrix; coefficients ascending (c0 + c1 z + ...).

    Paterson-Stockmeyer with block size s = isqrt(len(coeffs)): the powers
    m^0..m^s in one ``(s + 1, n, n)`` stack, every block sum_i c_{js+i} m^i
    by one GEMM of the zero-padded coefficients, shaped ``(-1, s)``, with
    the first s powers, shaped ``(s, n n)`` (the product ``np.tensordot``
    would form), and Horner in m^s over the blocks, so about
    2 sqrt(len(coeffs)) products.  With s = 1 (at most 3 coefficients)
    this is plain Horner in m.
    """
    coeffs = np.asarray(coeffs)
    s, n = isqrt(len(coeffs)), m.shape[0]
    powers = np.empty((s + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    powers[1] = m
    for i in range(2, s + 1):
        np.matmul(powers[i - 1], m, out=powers[i])
    padded = np.zeros(len(coeffs) + -len(coeffs) % s, dtype=coeffs.dtype)
    padded[:len(coeffs)] = coeffs
    blocks = np.dot(padded.reshape(-1, s), powers[:s].reshape(s, n * n)).reshape(-1, n, n)
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc @ powers[s] + block
    return acc


def _coefficients(coeffs, name: str) -> np.ndarray:
    """coeffs as a complex vector; ValueError naming it unless it is a
    non-empty 1-d list of finite numbers."""
    try:
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim == 1 and c.size and np.isfinite(c).all():
            return c
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a non-empty 1-d list of finite numbers")


def disk_order_check(f_coeffs, g_coeffs, x, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Disk-algebra functional calculus preserves the accretive order.

    For polynomials with ``Re(g - f) >= 0`` on the closed unit disk and x in
    F, the matrix ``g(1-x) - f(1-x)`` is accretive.  Returns
    ``(premise_margin, conclusion_margin)``: the minimum of ``Re((g-f)(z))``
    at 4096 points of the boundary circle (harmonicity puts the minimum
    there) and ``lambda_min(Re(g(1-x) - f(1-x)))``.  A nonnegative premise
    with a conclusion below -psd_slack raises, since the implication is
    exact.
    """
    x = as_matrix(x)
    f_coeffs, g_coeffs = _coefficients(f_coeffs, "f_coeffs"), _coefficients(g_coeffs, "g_coeffs")
    eye = np.eye(x.shape[0], dtype=complex)
    if not _within(eye - x, 1.0 + tol.eq_tol):
        raise ValueError("disk order check needs x in F (||1 - x|| <= 1)")
    diff = np.zeros(max(len(f_coeffs), len(g_coeffs)), dtype=complex)
    diff[: len(g_coeffs)] += g_coeffs
    diff[: len(f_coeffs)] -= f_coeffs
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    premise = float(np.polynomial.polynomial.polyval(z, diff).real.min())
    accretive, conclusion = _accretive(_matrix_polyval(diff, eye - x), tol)
    if premise >= 0.0 and not accretive:
        raise ArithmeticError(
            f"disk ordering violated numerically (premise {premise:.2e}, "
            f"conclusion {conclusion:.2e})"
        )
    return premise, conclusion
