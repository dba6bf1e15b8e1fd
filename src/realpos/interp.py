"""The interpolation theorems of the source paper, each in closed form.

Every solver returns the point the paper's constructive proof gives, taken
through ``a.project`` and re-verified before it is returned: domination
``((1 + ||b||)/2) e``, half-F decomposition ``(e + b)/2``, near-positive
interpolation ``((1 + ||c||)/2) e``, the Urysohn solvers (in-algebra and
ambient flavours) ``q``, strict Urysohn ``(p + q)/2``, peak interpolation
``b q`` and the numerical-range constrained Tietze lift
``q b q + c (1 - q)`` (``b q`` when A does not contain the identity).  The
first three need A's unit e to be Hermitian.  No solver searches.

Each output is checked with independent cone/projection/norm checks.
``THEOREMS`` is the one table of these theorems: the CLI and the
interpolation suite read their inputs and solver calls from it.  Each table
solve returns its outputs together with the checks it verified, and the
residual table and the suite's gate read those checks, so each solve's
checks are computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import MatrixAlgebra, _in, _require_in, contains, cstar, identity_of, unitize
from .cones import _accretive, _f_gap, support_function
from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    _norm_floor_one,
    _require_positive,
    _within,
    as_matrix,
    dagger,
    im_part,
    min_real_eig,
    op_norm,
    range_basis,
)
from .projections import _require_projection, peak_projection, support_projection

__all__ = [
    "SOLVER_TOL",
    "ConvexRegion",
    "VerificationFailedError",
    "dominate",
    "decompose",
    "interp_np",
    "urysohn_interpolate",
    "strict_urysohn",
    "peak_interpolate",
    "tietze_lift",
    "TheoremSpec",
    "THEOREMS",
]

SOLVER_TOL = 1e-6


class VerificationFailedError(RuntimeError):
    """A solver output failed its independent post-verification."""


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


# -- preconditions -----------------------------------------------------------


def _require_unital(a: MatrixAlgebra, tol: Tolerances) -> np.ndarray:
    """The unit e of A.  The closed forms of domination, decomposition and
    near-positive interpolation need it Hermitian, a projection: an identity
    of norm 1 (a non-Hermitian idempotent has norm > 1)."""
    e = identity_of(a, tol)
    if e is None:
        raise ValueError("this solver needs a unital algebra")
    if not _within(e - dagger(e), tol.eq_tol):
        raise ValueError("this solver needs a Hermitian unit (an identity of norm 1)")
    return e


def _require_projection_in(a: MatrixAlgebra, p: np.ndarray, name: str, tol: Tolerances) -> None:
    _require_projection(p, name)
    _require_in(a, p, name, tol)


def _require_small_psd_in_cstar(a: MatrixAlgebra, m: np.ndarray, name: str, tol: Tolerances) -> float:
    """m Hermitian PSD in C*(A) with ||m|| < 1 (domination, near-positive
    interpolation); returns ||m||."""
    norm = op_norm(m)
    if not _within(m - dagger(m), tol.eq_tol * max(1.0, norm)):
        raise ValueError(f"{name} must be Hermitian")
    if not _accretive(m, tol)[0]:
        raise ValueError(f"{name} must be positive semidefinite")
    if norm >= 1.0 - tol.eq_tol:
        raise ValueError(f"||{name}|| < 1 is required strictly")
    _require_in(cstar(a, tol), m, name, tol, "C*(A)")
    return norm


def _require_commuting(a: MatrixAlgebra, q: np.ndarray, b: np.ndarray, tol: Tolerances) -> None:
    """q a projection of the unitization, b in A commuting with q, ||b q|| <= 1
    (peak interpolation, Tietze lifts)."""
    _require_projection_in(unitize(a, tol), q, "q", tol)
    _require_in(a, b, "b", tol)
    if not _within(b @ q - q @ b, tol.eq_tol * _norm_floor_one(b)):
        raise ValueError("b must commute with q")
    if not _within(b @ q, 1.0 + tol.eq_tol):
        raise ValueError("||b q|| <= 1 is required")


# -- post-verification -------------------------------------------------------
#
# A check is a (label, value, ok) triple; value measures the violation.  Each
# table solve returns the checks its output passed, and the CLI's residual
# table and the suite's gate read their values (see TheoremSpec).

_X_CORNER = ("x q = q", "q x = q")
_G_CORNER = ("g q = b q", "q g = b q")


def _verify(checks: list, what: str) -> list:
    """The checks, once every one of them has passed."""
    bad = [f"{label}: {value:.3e}" for label, value, ok in checks if not ok]
    if bad:
        raise VerificationFailedError(f"{what} failed post-verification: " + "; ".join(bad))
    return checks


def _below(label: str, value: float, bound: float) -> tuple:
    return (label, value, value < bound)


def _eq_check(label: str, lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    d = op_norm(lhs - rhs)
    return (label, d, d <= SOLVER_TOL)


def _psd_check(label: str, m: np.ndarray) -> tuple:
    low = min_real_eig(m)
    return (label, -low, low >= -SOLVER_TOL)


def _half_f_check(x: np.ndarray, label: str = "half-F") -> tuple:
    gap = _f_gap(2.0 * x)
    return (label, -gap, gap >= -SOLVER_TOL)


def _sided_checks(x: np.ndarray, m: np.ndarray, target: np.ndarray, labels: tuple) -> list:
    """x m = target and m x = target: corners (target q) and absorption (target x)."""
    return [_eq_check(labels[0], x @ m, target), _eq_check(labels[1], m @ x, target)]


def _check_dominate(x: np.ndarray, b: np.ndarray, eps: float) -> list:
    return [
        _half_f_check(x),
        _psd_check("Re(a)-b PSD", x - b),
        _below("Im small", op_norm(im_part(x)), eps),
    ]


def _check_decompose(x: np.ndarray, y: np.ndarray, b: np.ndarray) -> list:
    return [
        _half_f_check(x, "x in half-F"),
        _half_f_check(y, "y in half-F"),
        _eq_check("b = x - y", b, x - y),
    ]


def _check_np(x: np.ndarray, c: np.ndarray, near_eps: float) -> list:
    eye = _eye(x.shape[0])
    return [
        _half_f_check(x),
        _psd_check("Schur block PSD", np.block([[eye - c, dagger(eye - x)], [eye - x, eye]])),
        _below("Im small", op_norm(im_part(x)), near_eps),
    ]


def _check_urysohn(x: np.ndarray, q: np.ndarray, u: np.ndarray, u_in_a: bool, eps: float,
                   near_eps: float) -> list:
    checks = [
        _half_f_check(x),
        *_sided_checks(x, q, q, _X_CORNER),
        _below("Im small", op_norm(im_part(x)), near_eps),
    ]
    if u_in_a:
        return checks + _sided_checks(x, u, x, ("x u = x", "u x = x"))
    comp = _eye(x.shape[0]) - u
    return checks + [
        _below("x(1-u) < eps", op_norm(x @ comp), eps),
        _below("(1-u)x < eps", op_norm(comp @ x), eps),
    ]


def _check_strict_urysohn(a: MatrixAlgebra, x: np.ndarray, q: np.ndarray, p: np.ndarray,
                          tol: Tolerances) -> list:
    peak = peak_projection(x, method="iterative", tol=tol)
    supp = support_projection(x, method="iterative", tol=tol)
    prod = support_projection(x @ (_eye(x.shape[0]) - x), method="oracle", tol=tol)
    inside, res = contains(a, x, tol)
    d_peak, d_supp, d_prod = (op_norm(peak.proj - q), op_norm(supp.proj - p),
                              op_norm(prod.proj - (p - q)))
    return [
        ("in algebra", res, inside),
        _half_f_check(x),
        *_sided_checks(x, q, q, _X_CORNER),
        *_sided_checks(x, p, x, ("x p = x", "p x = x")),
        ("u(x) = q", d_peak, peak.status != "diverged" and d_peak <= 1e-5),
        ("s(x) = p", d_supp, supp.status != "diverged" and d_supp <= 1e-5),
        ("s(x(1-x)) = p-q", d_prod, d_prod <= 1e-5),
    ]


def _check_peak(g: np.ndarray, q: np.ndarray, b: np.ndarray) -> list:
    return [_half_f_check(g), *_sided_checks(g, q, b @ q, _G_CORNER)]


def _check_tietze(g: np.ndarray, q: np.ndarray, b: np.ndarray, region: ConvexRegion) -> list:
    norm = op_norm(g)
    checks = [
        ("contraction", norm - 1.0, norm <= 1.0 + SOLVER_TOL),
        *_sided_checks(g, q, b @ q, _G_CORNER),
    ]
    planes = region.half_planes()
    tops = support_function(g, [theta for theta, _ in planes])
    for k, ((_, h), top) in enumerate(zip(planes, tops.tolist())):
        checks.append((f"W(g) halfplane {k}", top - h, top <= h + SOLVER_TOL))
    return checks


# -- theorem solvers ---------------------------------------------------------
#
# Each theorem's solve(a, problem, tol) -> (outputs, checks) runs its
# preconditions, computes its output and runs one post-verification; its
# public solver is a one-line call of it, which accepts and ignores ``seed``.
# Every output is its theorem's closed form, taken through ``a.project``.


def _dominate(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    b, eps = as_matrix(prob["b"]), prob["eps"]
    _require_positive(eps, "eps")
    e = _require_unital(a, tol)
    norm = _require_small_psd_in_cstar(a, b, "b", tol)
    x = a.project(0.5 * (1.0 + norm) * e)
    return (x,), _verify(_check_dominate(x, b, eps), "dominate")


def dominate(
    a: MatrixAlgebra,
    b,
    eps: float = 1e-2,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Find a nearly positive element of half-F dominating b.

    ``b`` must be Hermitian PSD in the C*-algebra generated by A with
    ||b|| < 1; the output x satisfies ||1 - 2x|| <= 1, Re(x) >= b (both
    within solver_tol) and ||Im x|| < eps.  It is x = ((1 + ||b||)/2) e, e
    the Hermitian unit of A: b = e b e <= ||b|| e, and 1 - 2x = (1 - e) -
    ||b|| e.  ``seed`` is accepted and ignored: no search is made.
    """
    return _dominate(a, {"b": b, "eps": eps}, tol)[0][0]


def _decompose(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    b = as_matrix(prob["b"])
    e = _require_unital(a, tol)
    _require_in(a, b, "b", tol)
    if not _within(b, np.nextafter(1.0 - tol.eq_tol, -np.inf)):  # ||b|| < 1 - eq_tol
        raise ValueError("decomposition needs ||b|| < 1 strictly")
    x = a.project((e + b) / 2.0)
    y = x - b
    return (x, y), _verify(_check_decompose(x, y, b), "decompose")


def decompose(
    a: MatrixAlgebra, b, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Write b = x - y with both x and y in half-F of A (||b|| < 1).

    x = (e + b)/2 and y = x - b, e the Hermitian unit of A: 1 - 2x = (1 - e)
    - b and 1 - 2y = (1 - e) + b, where (1 - e) and b act on orthogonal
    ranges.  ``seed`` is accepted and ignored: no search is made.
    """
    return _decompose(a, {"b": b}, tol)[0]


def _interp_np(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    c, near_eps = as_matrix(prob["c"]), prob["near_eps"]
    _require_positive(near_eps, "near_eps")
    e = _require_unital(a, tol)
    norm = _require_small_psd_in_cstar(a, c, "c", tol)
    x = a.project(0.5 * (1.0 + norm) * e)
    return (x,), _verify(_check_np(x, c, near_eps), "interp_np")


def interp_np(
    a: MatrixAlgebra,
    c,
    near_eps: float = 1e-2,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Nearly positive x in half-F with |1 - x|^2 <= 1 - c (Schur encoded).

    x = t e with t = (1 + ||c||)/2, e the Hermitian unit of A: on ran e,
    (1 - t)^2 + ||c|| = t^2 <= 1, and off it both sides are 1.  ``seed`` is
    accepted and ignored: no search is made.
    """
    return _interp_np(a, {"c": c, "near_eps": near_eps}, tol)[0][0]


def _urysohn(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, u = as_matrix(prob["q"]), as_matrix(prob["u"])
    eps, near_eps = prob["eps"], prob["near_eps"]
    _require_positive(eps, "eps")
    _require_positive(near_eps, "near_eps")
    _require_projection_in(a, q, "q", tol)
    if u.shape[0] != a.ambient_dim:
        raise ValueError("dimension mismatch between algebra and matrix")
    _require_projection(u, "u")
    if not _accretive(u - q, tol)[0]:
        raise ValueError("u must dominate q")
    x = a.project(q)
    u_in_a = _in(a, u, tol)
    return (x,), _verify(_check_urysohn(x, q, u, u_in_a, eps, near_eps), "urysohn_interpolate")


def urysohn_interpolate(
    a: MatrixAlgebra,
    q,
    u,
    eps: float = 1e-2,
    near_eps: float = 1e-2,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Nearly positive x in half-F with x q = q x = q, tied to u.

    When u lies in A the output satisfies x u = u x = x exactly (within
    solver_tol); when u is only an ambient projection dominating q, the
    products x(1-u) and (1-u)x are made smaller than eps.  It is x = q: q <= u
    gives q u = u q = q.  ``seed`` is accepted and ignored: no search is made.
    """
    return _urysohn(a, {"q": q, "u": u, "eps": eps, "near_eps": near_eps}, tol)[0][0]


def _strict_urysohn(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, p = as_matrix(prob["q"]), as_matrix(prob["p"])
    _require_projection_in(a, q, "q", tol)
    _require_projection_in(a, p, "p", tol)
    if not _accretive(p - q, tol)[0]:
        raise ValueError("p must dominate q")
    x = (p + q) / 2.0
    return (x,), _verify(_check_strict_urysohn(a, x, q, p, tol), "strict_urysohn")


def strict_urysohn(
    a: MatrixAlgebra,
    q,
    p,
    retries: int = 3,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Element x of half-F peaking exactly at q with support exactly p.

    q <= p are projections in A, and x = (p + q)/2 in closed form: 1 - 2x =
    1 - p - q has eigenvalues -1, 0 and 1, x is 1 on ran q and 1/2 on
    ran(p - q), so x(1 - x) = (p - q)/4, and x lies in A whether or not A is
    unital.  x is returned once its peak, support and membership checks
    pass.  ``retries`` and ``seed`` are accepted and ignored: no search is
    made.
    """
    return _strict_urysohn(a, {"q": q, "p": p}, tol)[0][0]


def _peak(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, b = as_matrix(prob["q"]), as_matrix(prob["b"])
    _require_commuting(a, q, b, tol)
    if not _within((_eye(a.ambient_dim) - 2.0 * b) @ q, 1.0 + tol.eq_tol):
        raise ValueError("||(1 - 2b) q|| <= 1 is required")
    g = a.project(b @ q)
    return (g,), _verify(_check_peak(g, q, b), "peak_interpolate")


def peak_interpolate(
    a: MatrixAlgebra, q, b, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Element g of half-F of A with g q = q g = b q.

    q is a projection in the unitization commuting with b, subject to
    ||b q|| <= 1 and ||(1 - 2b) q|| <= 1.  It is g = b q, in A since b is:
    1 - 2bq = (1 - q) + (1 - 2b) q, an orthogonal sum of contractions.
    ``seed`` is accepted and ignored: no search is made.
    """
    return _peak(a, {"q": q, "b": b}, tol)[0][0]


# Largest vertex magnitude: products of two vertex coordinates, the area and
# the edge cross products below stay finite up to it.
_VERTEX_CAP = 1e100


@dataclass(frozen=True)
class ConvexRegion:
    """A compact convex polygon in the plane, counterclockwise vertices.

    Its half-planes are computed once, when the region is built."""

    vertices: np.ndarray
    _planes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("region vertices must be finite")
        if v.size < 3:
            raise ValueError("a region needs at least 3 vertices")
        radius = float(np.abs(v).max())
        if radius > _VERTEX_CAP:
            raise ValueError(f"region vertices must have magnitude at most {_VERTEX_CAP:g}")
        area = 0.5 * float(
            np.sum((v.real * np.roll(v, -1).imag - np.roll(v, -1).real * v.imag))
        )
        scale = max(1.0, radius**2)
        if abs(area) <= 1e-12 * scale:
            raise ValueError("region is degenerate (a line segment or a point)")
        if area < 0:
            v = v[::-1]
        edges = np.roll(v, -1) - v
        cross = (edges.real * np.roll(edges, -1).imag - np.roll(edges, -1).real * edges.imag)
        if np.any(cross < -1e-10 * scale):
            raise ValueError("vertices do not describe a convex polygon")
        planes = []
        for k in range(v.size):
            edge = v[(k + 1) % v.size] - v[k]
            if abs(edge) <= 1e-14:
                continue
            theta = float(np.angle(edge)) - np.pi / 2.0
            h = float(np.max((np.exp(-1j * theta) * v).real))
            planes.append((theta, h))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_planes", tuple(planes))

    def half_planes(self) -> tuple:
        """(theta_k, h_k) pairs: the region is the set Re(e^{-i theta} z) <= h."""
        return self._planes

    def contains_point(self, z: complex, slack: float = 0.0) -> bool:
        return all((np.exp(-1j * t) * z).real <= h + slack for t, h in self._planes)

    def centroid(self) -> complex:
        return complex(np.mean(self.vertices))

    def nearest_to_origin(self) -> complex:
        """The point of the region nearest 0: 0 itself when inside, otherwise
        the nearest of each edge's points nearest 0."""
        if self.contains_point(0.0):
            return 0j
        v = self.vertices
        edges = np.roll(v, -1) - v
        length2 = np.abs(edges) ** 2
        t = np.divide((-v * np.conj(edges)).real, length2, out=np.zeros(v.size), where=length2 > 0)
        points = v + np.clip(t, 0.0, 1.0) * edges
        return complex(points[np.argmin(np.abs(points))])


def _tietze(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, b, region = as_matrix(prob["q"]), as_matrix(prob["b"]), prob["region"]
    _require_commuting(a, q, b, tol)
    planes = region.half_planes()
    if not a.contains_identity and not region.contains_point(0.0, tol.psd_slack):
        raise ValueError("A does not contain the identity I, so the region must contain 0")

    # Numerical range of the compression q b q restricted to range(q).
    rng_vecs = range_basis(q)
    if rng_vecs.shape[1] > 0:
        comp = dagger(rng_vecs) @ b @ rng_vecs
        tops = support_function(comp, [theta for theta, _ in planes])
        for (theta, h), top in zip(planes, tops.tolist()):
            if top > h + tol.psd_slack:
                raise ValueError(
                    "numerical range of the compression leaves the region "
                    f"(direction {theta:.3f}: {top:.6f} > {h:.6f})"
                )

    if not a.contains_identity:
        g = a.project(b @ q)
    else:
        c = region.centroid()
        if abs(c) > 1.0:
            c = region.nearest_to_origin()
        if abs(c) > 1.0 + tol.eq_tol:
            raise ValueError(f"the region misses the unit disc (nearest point {c:.6f}), "
                             "so no contraction has its numerical range inside it")
        g = a.project(q @ b @ q + c * (_eye(a.ambient_dim) - q))
    return (g,), _verify(_check_tietze(g, q, b, region), "tietze_lift")


def tietze_lift(
    a: MatrixAlgebra,
    q,
    b,
    region: ConvexRegion,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Contractive g in A with g q = q g = b q and W(g) inside the region.

    The numerical range of the compression comp = q b q|ran q must sit inside
    the region, which must not be a line segment.  When A contains the
    identity I, g = q b q + c (I - q), with c the region's centroid when
    |c| <= 1 and otherwise its point nearest 0: g is the direct sum of comp
    on ran q and c on ran(I - q), so W(g) = conv(W(comp), c) lies in the
    region and ||g|| = max(||b q||, |c|) <= 1.  A contraction has W(g) inside the unit
    disc, so a region that misses the disc admits no lift (ValueError).
    When A does not contain I (even if A has another unit), the region must
    contain 0 and g = b q, with W(b q) = conv(W(comp), 0).  ``seed`` is
    accepted and ignored: no search is made.
    """
    return _tietze(a, {"q": q, "b": b, "region": region}, tol)[0][0]


# -- the theorem table -------------------------------------------------------


@dataclass(frozen=True)
class TheoremSpec:
    """One interpolation theorem as the CLI and the suites drive it.

    ``keys`` are the problem entries it reads besides ``algebra``, ``eps`` and
    ``near_eps``.  ``solve(a, problem, tol)`` runs the preconditions, the
    theorem's closed form and the post-verification once and returns ``(outputs, checks)``: the public
    solver's outputs as a tuple and the (label, value, ok) checks they
    passed.  Each residual is the largest value of its check labels, floored
    at 0; ``gate`` names the check labels the interpolation suite holds below
    1e-5 in the same way.  Both read the returned checks, so no check runs
    twice.
    """

    keys: tuple
    solve: Callable
    residuals: dict
    gate: tuple

    def residual_table(self, checks: list) -> dict:
        return {name: _worst(checks, labels) for name, labels in self.residuals.items()}

    def gate_residual(self, checks: list) -> float:
        return _worst(checks, self.gate)


def _worst(checks: list, labels: tuple) -> float:
    values = {label: value for label, value, _ in checks}
    return float(max(0.0, *(values[label] for label in labels)))


_HALF_F = {"half_f_excess": ("half-F",)}

THEOREMS = {
    "dominate": TheoremSpec(
        ("b",), _dominate,
        {**_HALF_F, "domination_deficit": ("Re(a)-b PSD",), "im_norm": ("Im small",)}, ("Re(a)-b PSD",)),
    "decompose": TheoremSpec(
        ("b",), _decompose,
        {"half_f_excess": ("x in half-F",), "half_f_excess_complement": ("y in half-F",),
         "difference": ("b = x - y",)}, ("b = x - y",)),
    "np": TheoremSpec(
        ("c",), _interp_np,
        {**_HALF_F, "schur_deficit": ("Schur block PSD",), "im_norm": ("Im small",)}, ("Schur block PSD",)),
    "urysohn": TheoremSpec(("q", "u"), _urysohn, {**_HALF_F, "corner": _X_CORNER}, _X_CORNER),
    "strict-urysohn": TheoremSpec(
        ("q", "p"), _strict_urysohn, {**_HALF_F, "corner": _X_CORNER},
        ("u(x) = q", "s(x) = p", "s(x(1-x)) = p-q")),
    "peak": TheoremSpec(("q", "b"), _peak, {**_HALF_F, "corner": _G_CORNER}, _G_CORNER),
    "tietze": TheoremSpec(
        ("q", "b", "region"), _tietze, {"corner": _G_CORNER, "norm_excess": ("contraction",)}, _G_CORNER),
}
