"""Membership tests with numeric certificates for the positivity cones.

The cones, ordered by inclusion ``half_F subset F subset c subset r``:

* ``r`` (accretive): x + x* positive semidefinite;
* ``c``: x*x <= C (x + x*) for some finite C, with the minimal C reported;
* ``F``: ||1 - x|| <= 1, ``half_F``: ||1 - 2x|| <= 1 (the ambient identity
  realizes the unitization), decided by ``_in_f`` and measured by
  ``_f_gap``;
* sectorial of angle rho: numerical range inside the sector |arg z| <= rho.

Every predicate returns its raw margin alongside the verdict.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from math import frexp, isfinite, ldexp
from typing import NamedTuple, Optional

import numpy as np

from .algebra import MatrixAlgebra, _require_in, cstar, identity_of
from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    _require_count,
    _within,
    as_matrix,
    dagger,
    im_part,
    min_real_eig,
    op_norm,
    range_basis,
    re_part,
)

__all__ = [
    "ConeReport",
    "NumericalRange",
    "FMembership",
    "is_accretive",
    "f_membership",
    "c_certificate",
    "sector_angle",
    "numerical_range",
    "support_function",
    "is_strictly_real_positive",
    "cone_report",
]

# Largest numerical-range grid: the sweep holds one n x n matrix and its
# eigenvectors per angle.
MAX_GRID = 10_000


@dataclass(frozen=True)
class ConeReport:
    """Cone memberships of one matrix, with raw margins."""

    accretive_margin: float
    norm: float
    f_gap: float
    half_f_gap: float
    c_constant: Optional[float]
    sector_angle: Optional[float]
    im_norm: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NumericalRange:
    """Support-function description of the numerical range W(x)."""

    thetas: np.ndarray  # angle grid
    support: np.ndarray  # h(theta) = lambda_max(Re(e^{-i theta} x))
    boundary: np.ndarray  # <x v, v> at the top eigenvector, per angle


class FMembership(NamedTuple):
    in_f: bool
    in_half_f: bool
    f_gap: float
    half_f_gap: float


class NotAccretiveError(ValueError):
    """Input is outside the accretive cone (beyond psd_slack)."""


def _accretive(m: np.ndarray, tol: Tolerances) -> tuple[bool, float]:
    """The accretive order's one rule, ``(margin >= -psd_slack, margin)`` with
    margin = lambda_min(Re m), on a validated m: x <= y iff y - x passes.  A
    Hermitian part that overflows makes a NaN margin, which raises ValueError.

    Not this rule: ``c_certificate``'s PSD test, scaled by max(1, ||x||^2);
    ``sector_angle``'s rotated tests at machine precision;
    ``interp._psd_check`` at ``SOLVER_TOL``; F and half-F (``_in_f``).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        margin = float(np.linalg.eigvalsh(re_part(m))[0])
    if not isfinite(margin):
        raise ValueError("the Hermitian part of the matrix overflows")
    return margin >= -tol.psd_slack, margin


def _require_accretive(x: np.ndarray, tol: Tolerances) -> float:
    """The margin lambda_min(Re x), or NotAccretiveError below -psd_slack."""
    accretive, margin = _accretive(x, tol)
    if not accretive:
        raise NotAccretiveError(f"matrix is not accretive (margin {margin:.3e})")
    return margin


def _on_boundary(margin: float, tol: Tolerances) -> bool:
    """Whether an accretivity margin lies within psd_slack of the boundary."""
    return margin <= tol.psd_slack


def is_accretive(x, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Accretivity verdict and the raw margin lambda_min((x + x*)/2), by
    _accretive: ValueError when the Hermitian part overflows."""
    return _accretive(as_matrix(x), tol)


def _f_gap(x: np.ndarray) -> float:
    """F's gap ``1 - ||1 - x||`` on a validated x, by one SVD; half-F's gap
    is ``_f_gap(2 x)``."""
    return 1.0 - op_norm(np.eye(x.shape[0], dtype=complex) - x)


def _in_f(x: np.ndarray, tol: Tolerances) -> bool:
    """F's one rule, exactly ``_f_gap(x) >= -psd_slack``, on a validated x;
    half-F is asked as ``_in_f(2 x)``.

    ``_within`` settles it against the largest float not above
    1 + psd_slack, mostly without the SVD, and that is the gap's verdict:
    1 - a is exact for a = ||1 - x|| in [1/2, 2^53), and below 1/2 both
    verdicts hold, above both fail (for psd_slack < 2^52).

    Not this rule: ``root_series``' and ``disk_order_check``'s
    ``||1 - x|| <= 1 + eq_tol`` (the series' domain with a rounding
    allowance) and the series route's ``certified``, ``||1 - x|| <= 1``;
    ``interp._peak``'s ``||(1 - 2b) q|| <= 1 + eq_tol``; interp's half-F
    checks, which read ``_f_gap`` against ``SOLVER_TOL``.
    """
    bound = 1.0 + tol.psd_slack
    if bound - 1.0 > tol.psd_slack:  # exact: 1 + psd_slack rounded up
        bound = float(np.nextafter(bound, 0.0))
    return _within(np.eye(x.shape[0], dtype=complex) - x, bound)


def f_membership(x, tol: Tolerances = DEFAULT_TOL) -> FMembership:
    """Membership in F (||1 - x|| <= 1) and half-F (||1 - 2x|| <= 1), each
    ``_f_gap >= -psd_slack`` on the gap it reports (the rule of
    :func:`_in_f`)."""
    x = as_matrix(x)
    f_gap, half_gap = _f_gap(x), _f_gap(2.0 * x)
    return FMembership(
        f_gap >= -tol.psd_slack, half_gap >= -tol.psd_slack, f_gap, half_gap
    )


def c_certificate(x, tol: Tolerances = DEFAULT_TOL) -> Optional[float]:
    """Minimal C >= 0 with x*x <= C (x + x*), or None.

    None is returned exactly when x + x* has a kernel vector that x does not
    kill (tested with a fixed 1e-6 relative threshold on ||x v||).  The
    returned constant is verified by a direct PSD check.
    """
    x = as_matrix(x)
    norm = op_norm(x)
    if norm <= 1e-13:
        return 0.0
    h = x + dagger(x)
    w, v = np.linalg.eigh(h)
    kernel = w <= tol.psd_slack
    if kernel.any():
        imgs = x @ v[:, kernel]
        if np.linalg.norm(imgs, axis=0).max() > 1e-6 * norm:
            return None
    keep = w > 1e-10 * max(w[-1], 0.0)
    if not keep.any():
        return 0.0
    whiten = v[:, keep] / np.sqrt(w[keep])
    try:
        c = op_norm(x @ whiten) ** 2
    except OverflowError:  # an ArithmeticError, which would read as a failed verdict
        raise ValueError("the constant C with x*x <= C (x + x*) overflows") from None
    # Direct PSD check; nudge across the pseudo-inverse cliff if needed.  It
    # runs on t x with t = 2^-k, which scales both sides by t^2 exactly, so
    # that C h - x*x and ||x||^2 stay finite up to the largest float; k = 0,
    # and nothing moves, below ||x|| = 2^400.
    t = ldexp(1.0, -max(0, frexp(norm)[1] - 400))
    xs, hs = t * x, t * h
    bound = tol.psd_slack * (t * max(1.0, norm)) ** 2
    for cand in (c, c * (1.0 + 1e-10) + tol.psd_slack):
        if min_real_eig(cand * t * hs - dagger(xs) @ xs) >= -bound:
            return float(cand)
    return None


def sector_angle(x, tol: Tolerances = DEFAULT_TOL) -> Optional[float]:
    """Smallest rho in [0, pi/2] with W(x) inside the sector of angle rho.

    None when x is not accretive.  The rotated-accretivity predicate is
    tested at machine precision (not psd_slack) so that boundary examples
    resolve the angle sharply; if x is accretive only up to psd_slack the
    angle is capped at pi/2.
    """
    x = as_matrix(x)
    if not _accretive(x, tol)[0]:
        return None
    norm = op_norm(x)
    if norm <= tol.eq_tol:
        return 0.0
    strict = 1e-13 * max(1.0, norm)

    def inside(rho: float) -> bool:
        phi = np.pi / 2.0 - rho
        for sign in (1.0, -1.0):
            if min_real_eig(np.exp(sign * 1j * phi) * x) < -strict:
                return False
        return True

    if not inside(np.pi / 2.0):
        return np.pi / 2.0
    lo, hi = 0.0, np.pi / 2.0
    if inside(0.0):
        return 0.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def _rotations(x: np.ndarray, thetas) -> np.ndarray:
    """The ``(len(thetas), n, n)`` stack Re(e^{-i theta} x).  Each matrix is
    formed on its own: numpy's broadcast complex product can differ from
    the scalar one in the last bit."""
    n = x.shape[0]
    return np.array([re_part(np.exp(-1j * t) * x) for t in thetas]).reshape(-1, n, n)


def support_function(x, thetas) -> np.ndarray:
    """h(theta) = lambda_max(Re(e^{-i theta} x)) for every angle, from one
    batched eigenvalue call; W(x) lies in the half-plane
    Re(e^{-i theta} z) <= h(theta)."""
    return np.linalg.eigvalsh(_rotations(as_matrix(x), thetas))[:, -1]


def numerical_range(x, grid_size: int = 720) -> NumericalRange:
    """Support function and boundary points of W(x) on an angle grid."""
    _require_count(grid_size, "grid_size", 8, MAX_GRID)
    x = as_matrix(x)
    thetas = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    w, v = np.linalg.eigh(_rotations(x, thetas))
    support = w[:, -1].copy()
    top = v[:, :, -1]
    boundary = np.einsum("si,ij,sj->s", np.conj(top), x, top)
    return NumericalRange(thetas, support, boundary)


def is_strictly_real_positive(
    a: MatrixAlgebra, x, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Is Re(x) strictly positive in the C*-algebra generated by A?

    Requires x in A and A unital (the finite-dimensional surrogate of
    approximately unital).  True iff Re(x) is PSD and its compression to the
    range of the unit of C*(A) is strictly positive definite.
    """
    x = as_matrix(x)
    _require_in(a, x, "x", tol)
    if identity_of(a, tol) is None:
        raise ValueError("the algebra has no identity; strict real positivity "
                         "for nonunital algebras is out of scope")
    e = identity_of(cstar(a, tol), tol)
    if e is None:
        raise ArithmeticError("generated C*-algebra has no computable unit")
    if not _accretive(x, tol)[0]:
        return False
    rng_vecs = range_basis(e)
    if rng_vecs.shape[1] == 0:
        return False
    compressed = dagger(rng_vecs) @ re_part(x) @ rng_vecs
    return float(np.linalg.eigvalsh(compressed)[0]) > tol.psd_slack


def cone_report(x, tol: Tolerances = DEFAULT_TOL) -> ConeReport:
    """Full cone membership report for one matrix."""
    x = as_matrix(x)
    _, margin = is_accretive(x, tol)
    fm = f_membership(x, tol)
    return ConeReport(
        accretive_margin=margin,
        norm=op_norm(x),
        f_gap=fm.f_gap,
        half_f_gap=fm.half_f_gap,
        c_constant=c_certificate(x, tol),
        sector_angle=sector_angle(x, tol),
        im_norm=op_norm(im_part(x)),
    )
