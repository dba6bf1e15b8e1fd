"""Convex spectral feasibility over an algebra, and the interpolation solvers.

The engine: the unknown ranges over the real coordinates u of a
:class:`~realpos.algebra.MatrixAlgebra`; constraints are affine equalities
``sum_i P_i a Q_i = R`` plus spectral sets (Hermitian-valued affine maps
required PSD, and norm caps on affine maps).  Each constraint is compiled
once, with its problem, to a real affine map ``u -> J u + c``; projections
and residuals read only that map.  A feasible point is searched by ADMM
between two sets whose projections are exact: the graph ``{(u, J u + c)}``
of the floors' and caps' maps over the equality flat (a least-squares
solve, from one SVD of the equalities), and the product of the floors' and
caps' sets (one ``eigh`` or SVD and a clip per constraint).  The theorems
ask only for some feasible point, not the nearest one.  A warm start that
is feasible once projected onto the equality flat stops the search at round
1, before any clip.  Residuals take one batched LAPACK call per kind (floor,
or equality and cap) and shape of constraint.  Verdicts are one-sided:
``feasible`` (all residuals within tolerance) or ``unconverged`` -- the
method cannot certify infeasibility.

On top of the engine sit the interpolation solvers (domination,
half-F decomposition, near-positive interpolation, Urysohn solvers in both
the in-algebra and ambient flavours, the strict Urysohn solver with
peak/support verification, peak interpolation, and the numerical-range
constrained Tietze lift).  Every solver re-verifies its output with
independent cone/projection/norm checks before returning it.  ``THEOREMS``
is the one table of these theorems: the CLI and the interpolation suite
read their inputs and solver calls from it.  Each table solve returns its
outputs together with the checks it verified, and the residual table and
the suite's gate read those checks, so each solve's checks are computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (MatrixAlgebra, _from_real, _to_real, contains, cstar,
                      identity_of, real_matrix, unitize)
from .cones import f_membership, support_function
from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    _require_positive,
    as_matrix,
    dagger,
    im_part,
    min_real_eig,
    op_norm,
    op_norms,
    range_basis,
    re_part,
)
from .projections import _require_projection, peak_projection, support_projection

__all__ = [
    "SOLVER_TOL",
    "AffineTerm",
    "MatrixAffine",
    "AffineEquality",
    "HermFloor",
    "NormCap",
    "FeasibilityProblem",
    "FeasibilitySolution",
    "ConvexRegion",
    "UnconvergedError",
    "VerificationFailedError",
    "solve_feasibility",
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


class UnconvergedError(RuntimeError):
    """The feasibility search did not reach a feasible point."""

    def __init__(self, message: str, solution: Optional["FeasibilitySolution"] = None):
        super().__init__(message)
        self.solution = solution


class VerificationFailedError(RuntimeError):
    """A solver output failed its independent post-verification."""


# -- constraint encoding -----------------------------------------------------


@dataclass(frozen=True)
class AffineTerm:
    """One sandwich term P a Q (or P a* Q when conj is set)."""

    left: np.ndarray
    right: np.ndarray
    conj: bool = False


@dataclass
class MatrixAffine:
    """Matrix-valued real-affine map a -> const + sum of sandwich terms; a
    description, which :class:`FeasibilityProblem` compiles to a real map."""

    terms: list
    const: np.ndarray


@dataclass
class AffineEquality:
    map: MatrixAffine
    target: np.ndarray
    label: str


@dataclass
class HermFloor:
    """Constraint map(a) >= 0; the map must be Hermitian-valued."""

    map: MatrixAffine
    label: str


@dataclass
class NormCap:
    """Constraint ||map(a)|| <= cap in operator norm."""

    map: MatrixAffine
    cap: float
    label: str


@dataclass(frozen=True)
class _Compiled:
    """A constraint compiled to A's real coordinates u: ``value(u)`` is its map
    at u, less the target for an equality, read from ``jac @ u + const``."""

    con: object
    jac: np.ndarray
    const: np.ndarray
    shape: tuple

    def value(self, u: np.ndarray) -> np.ndarray:
        return _from_real(self.jac @ u + self.const, self.shape)


def _compile(con, algebra: MatrixAlgebra) -> _Compiled:
    """One batched sandwich product per term over the whole basis; conj terms
    act on the conjugate-transposed basis."""
    const = np.asarray(con.map.const, complex)
    target = con.target if isinstance(con, AffineEquality) else np.zeros_like(const)
    shapes = {np.shape(target), *((t.left.shape[0], t.right.shape[1]) for t in con.map.terms)}
    if shapes != {const.shape}:
        raise ValueError(f"constraint {con.label!r} has inconsistent shapes")
    if isinstance(con, NormCap) and not (np.isfinite(con.cap) and con.cap >= 0):
        raise ValueError(f"constraint {con.label!r} needs a finite cap >= 0, got {con.cap}")
    basis = {False: algebra.basis, True: dagger(algebra.basis)}
    images = {conj: np.zeros((algebra.dim, *const.shape), complex) for conj in basis}
    for t in con.map.terms:
        images[t.conj] = images[t.conj] + t.left @ basis[t.conj] @ t.right
    jac, flat = real_matrix(images[False], images[True]), _to_real(const - target)
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(flat))):
        raise ValueError(f"constraint {con.label!r} has a map that is not finite")
    return _Compiled(con, jac, flat, const.shape)


@dataclass
class FeasibilityProblem:
    """Constraints over A, each compiled once, here (``compiled`` holds them
    in the order equalities, floors, caps).  Residuals are keyed by label, so
    labels must be distinct; every compiled map must be finite, and every cap
    finite and at least 0.  ``batches`` groups the compiled indices by kind
    (floor, or equality and cap) and shape, one batched LAPACK call each."""

    algebra: MatrixAlgebra
    equalities: list = field(default_factory=list)
    floors: list = field(default_factory=list)
    caps: list = field(default_factory=list)
    compiled: list = field(init=False, repr=False)
    batches: list = field(init=False, repr=False)

    def __post_init__(self):
        constraints = [*self.equalities, *self.floors, *self.caps]
        if not constraints:
            raise ValueError("a feasibility problem needs at least one constraint")
        labels = set()
        for con in constraints:
            if con.label in labels:
                raise ValueError(f"constraint label {con.label!r} is repeated")
            labels.add(con.label)
        self.compiled = [_compile(c, self.algebra) for c in constraints]
        batches: dict = {}
        for i, c in enumerate(self.compiled):
            batches.setdefault((isinstance(c.con, HermFloor), c.shape), []).append(i)
        self.batches = [(floor, idx) for (floor, _), idx in batches.items()]


@dataclass
class FeasibilitySolution:
    value: np.ndarray
    residuals: dict
    verdict: str  # 'feasible' | 'unconverged'
    iterations: int


# -- the engine --------------------------------------------------------------


def _flat(problem: FeasibilityProblem) -> tuple:
    """The equality flat {u : T u + t = 0}, T and t the stacked equality maps,
    from one SVD of T: ``(T, t, T+, N)`` with T+ its pseudo-inverse (singular
    values below 1e-12 of the largest dropped) and N an orthonormal basis of
    the flat's directions.  Without equalities the flat is all of u-space."""
    n_eq, size = len(problem.equalities), 2 * problem.algebra.dim
    if not n_eq:
        return np.zeros((0, size)), np.zeros(0), np.zeros((size, 0)), np.eye(size)
    t = np.vstack([c.jac for c in problem.compiled[:n_eq]])
    const = np.concatenate([c.const for c in problem.compiled[:n_eq]])
    # the reduced SVD already gives all of V* when T has no fewer rows than columns
    left, s, vt = np.linalg.svd(t, full_matrices=t.shape[0] < t.shape[1])
    rank = int(np.count_nonzero(s > 1e-12 * (s[0] if s.size else 1.0)))
    return t, const, (vt[:rank].T / s[:rank]) @ left[:, :rank].T, vt[rank:].T


def _clip(con, m: np.ndarray) -> np.ndarray:
    """The nearest point to m of a floor's set {Re m >= 0} (m less the
    negative part of Re m) or of a cap's set {||m|| <= cap} (m with its
    singular values clipped at the cap)."""
    if isinstance(con, HermFloor):
        w, v = np.linalg.eigh(re_part(m))
        return m - (v * np.minimum(w, 0.0)) @ dagger(v)
    left, s, right = np.linalg.svd(m)
    return (left * np.minimum(s, con.cap)) @ right


def _residuals(problem: FeasibilityProblem, u: np.ndarray) -> dict:
    """Each constraint's violation at u, by label: ``||m||`` for an equality
    (m its map less the target), ``max(0, -lambda_min(Re m))`` for a floor and
    ``max(0, ||m|| - cap)`` for a cap.  Each of ``problem.batches`` takes one
    batched LAPACK call, which gives each matrix the bits of its own call."""
    res = [0.0] * len(problem.compiled)
    for floor, idx in problem.batches:
        stack = np.stack([problem.compiled[i].value(u) for i in idx])
        if floor:
            for i, low in zip(idx, np.linalg.eigvalsh(re_part(stack))[:, 0].tolist()):
                res[i] = max(0.0, -low)
            continue
        for i, norm in zip(idx, op_norms(stack).tolist()):
            con = problem.compiled[i].con
            res[i] = max(0.0, norm - con.cap) if isinstance(con, NormCap) else norm
    return {c.con.label: r for c, r in zip(problem.compiled, res)}


def solve_feasibility(
    problem: FeasibilityProblem,
    max_rounds: int = 2000,
    warm_start=None,
) -> FeasibilitySolution:
    """Search a point that meets every constraint, by ADMM between two sets
    whose projections are exact.

    Round 1 projects the warm start (zero when None) onto the equality flat.
    Each later round is one step of scaled ADMM on ``(u, Z)``, Z the stacked
    real values of the floors and caps, J and c their stacked maps:

    - ``Z <- Pi(J u + c + W)``, constraint by constraint: one ``eigh`` and a
      clip at 0 per floor, one SVD and a clip at the cap per cap;
    - ``W <- W + J u + c - Z``;
    - ``u <- S (u + J^T (Z - W - c)) + o``, the least-squares projection of
      ``(u, Z - W)`` onto the graph ``{(u, J u + c)}`` over the equality flat,
      with ``S = N (N^T (I + J^T J) N)^-1 N^T`` (N from the flat's SVD) and o
      fixed by the flat.

    Both sets are indicators, so no step size enters.  Rounds 1-5, every
    fifth round and the last one score every residual, and the search stops
    once the worst is within ``SOLVER_TOL / 2``; ``max_rounds=0`` scores the
    projected warm start alone.  Deterministic given ``(problem,
    warm_start)``.  The verdict is ``feasible`` only when every residual of
    the best point scored is within ``SOLVER_TOL``; otherwise
    ``unconverged`` with that point's residuals.
    """
    alg = problem.algebra
    t, t_const, t_pinv, null = _flat(problem)
    u = np.zeros(2 * alg.dim) if warm_start is None else _to_real(alg.coords(as_matrix(warm_start)))
    u = u - t_pinv @ (t @ u + t_const)
    res = _residuals(problem, u)
    best = (max(res.values()), u, res)
    rounds_used = int(max_rounds >= 1)

    spectral = problem.compiled[len(problem.equalities):]
    if best[0] > 0.5 * SOLVER_TOL and spectral and max_rounds > 1:
        jac = np.vstack([c.jac for c in spectral])
        const = np.concatenate([c.const for c in spectral])
        cuts = np.cumsum([c.const.size for c in spectral])[:-1]
        jn = jac @ null
        proj = null @ np.linalg.solve(np.eye(null.shape[1]) + jn.T @ jn, null.T)  # S
        base = -t_pinv @ t_const  # the flat's point nearest 0
        offset = base - proj @ (jac.T @ (jac @ base))  # o
        dual = np.zeros_like(const)  # W
        for rounds_used in range(2, max_rounds + 1):
            ju = jac @ u + const
            z = np.concatenate([_to_real(_clip(c.con, _from_real(v, c.shape)))
                                for c, v in zip(spectral, np.split(ju + dual, cuts))])
            dual = dual + ju - z
            u = proj @ (u + jac.T @ (z - dual - const)) + offset
            if rounds_used <= 5 or rounds_used % 5 == 0 or rounds_used == max_rounds:
                res = _residuals(problem, u)
                if max(res.values()) < best[0]:
                    best = (max(res.values()), u, res)
                if best[0] <= 0.5 * SOLVER_TOL:
                    break

    worst, u, res = best
    value = alg.reconstruct(_from_real(u, (alg.dim,)))
    return FeasibilitySolution(value, res, "feasible" if worst <= SOLVER_TOL else "unconverged", rounds_used)


# -- constraint builders -----------------------------------------------------


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def _zero(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=complex)


def _corner_equalities(q: np.ndarray, target: np.ndarray, labels: tuple) -> list:
    """a q = target and q a = target."""
    eye, zero = _eye(q.shape[0]), _zero(q.shape[0])
    return [
        AffineEquality(MatrixAffine([AffineTerm(eye, q)], zero), target, labels[0]),
        AffineEquality(MatrixAffine([AffineTerm(q, eye)], zero), target, labels[1]),
    ]


def _absorb_equalities(u: np.ndarray, labels: tuple) -> list:
    """a u = a and u a = a."""
    eye, zero = _eye(u.shape[0]), _zero(u.shape[0])
    return [
        AffineEquality(MatrixAffine([AffineTerm(eye, u), AffineTerm(-eye, eye)], zero), zero, labels[0]),
        AffineEquality(MatrixAffine([AffineTerm(u, eye), AffineTerm(-eye, eye)], zero), zero, labels[1]),
    ]


def _half_f_cap(n: int, label: str = "1-2a in ball") -> NormCap:
    amap = MatrixAffine([AffineTerm(-2.0 * _eye(n), _eye(n))], _eye(n))
    return NormCap(amap, 1.0, label)


def _re_floor(z: np.ndarray, s: np.ndarray, label: str) -> HermFloor:
    n = z.shape[1]
    amap = MatrixAffine(
        [AffineTerm(z / 2.0, _eye(n)), AffineTerm(_eye(z.shape[0]) / 2.0, dagger(z), conj=True)],
        np.asarray(s, complex),
    )
    return HermFloor(amap, label)


def _sector_floors(n: int, eps: float, cap: float = 1.0) -> list:
    """Rotated-accretivity pair forcing ||Im a|| below eps for ||a|| <= cap."""
    rho = float(np.arcsin(min(1.0, 0.9 * eps / max(cap, 1e-12))))
    phi = np.pi / 2.0 - rho
    return [
        _re_floor(np.exp(1j * phi) * _eye(n), _zero(n), "sector+"),
        _re_floor(np.exp(-1j * phi) * _eye(n), _zero(n), "sector-"),
    ]


def _schur_floor(s1: np.ndarray, s2: np.ndarray, z: np.ndarray, w: np.ndarray, label: str) -> HermFloor:
    """Block floor [[s1, (z a + w)*], [z a + w, s2]] >= 0."""
    n = z.shape[1]
    top = np.vstack([_eye(n), _zero(n)])  # embeds rows 0..n
    bot = np.vstack([_zero(n), _eye(n)])
    left = np.hstack([_eye(n), _zero(n)])  # embeds cols 0..n
    right = np.hstack([_zero(n), _eye(n)])
    const = np.block([[s1, dagger(w)], [w, s2]]).astype(complex)
    terms = [
        AffineTerm(bot @ z, left),  # z a in the lower-left block
        AffineTerm(top, dagger(z) @ right, conj=True),  # a* z* upper-right
    ]
    return HermFloor(MatrixAffine(terms, const), label)


def _solve(problem: FeasibilityProblem, warm, message: str) -> np.ndarray:
    """The engine's feasible point, or UnconvergedError carrying its residuals."""
    sol = solve_feasibility(problem, warm_start=warm)
    if sol.verdict != "feasible":
        raise UnconvergedError(message, sol)
    return sol.value


# -- preconditions -----------------------------------------------------------


def _require_unital(a: MatrixAlgebra, tol: Tolerances) -> np.ndarray:
    e = identity_of(a, tol)
    if e is None:
        raise ValueError("this solver needs a unital algebra")
    return e


def _require_in(a: MatrixAlgebra, m: np.ndarray, name: str, tol: Tolerances, where: str = "the algebra") -> None:
    ok, res = contains(a, m, tol)
    if not ok:
        raise ValueError(f"{name} is not in {where} (residual {res:.2e})")


def _require_projection_in(a: MatrixAlgebra, p: np.ndarray, name: str, tol: Tolerances) -> None:
    _require_projection(p, name)
    _require_in(a, p, name, tol)


def _require_small_psd_in_cstar(a: MatrixAlgebra, m: np.ndarray, name: str, tol: Tolerances) -> float:
    """m Hermitian PSD in C*(A) with ||m|| < 1 (domination, near-positive
    interpolation); returns ||m||."""
    norm = op_norm(m)
    if op_norm(m - dagger(m)) > tol.eq_tol * max(1.0, norm):
        raise ValueError(f"{name} must be Hermitian")
    if min_real_eig(m) < -tol.psd_slack:
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
    if op_norm(b @ q - q @ b) > tol.eq_tol * max(1.0, op_norm(b)):
        raise ValueError("b must commute with q")
    if op_norm(b @ q) > 1.0 + tol.eq_tol:
        raise ValueError("||b q|| <= 1 is required")


# -- post-verification -------------------------------------------------------
#
# A check is a (label, value, ok) triple; value measures the violation.  Each
# table solve returns the checks its output passed, and the CLI's residual
# table and the suite's gate read their values (see TheoremSpec).  The corner
# and absorption labels are shared with the constraints that impose them, so
# an unconverged solve reports its residuals under the same names.

_X_CORNER = ("x q = q", "q x = q")
_G_CORNER = ("g q = b q", "q g = b q")
_P_ABSORB = ("x p = x", "p x = x")


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


def _half_f_check(x: np.ndarray, tol: Tolerances, label: str = "half-F") -> tuple:
    gap = f_membership(x, tol).half_f_gap
    return (label, -gap, gap >= -SOLVER_TOL)


def _sided_checks(x: np.ndarray, m: np.ndarray, target: np.ndarray, labels: tuple) -> list:
    """x m = target and m x = target: corners (target q) and absorption (target x)."""
    return [_eq_check(labels[0], x @ m, target), _eq_check(labels[1], m @ x, target)]


def _check_dominate(x: np.ndarray, b: np.ndarray, eps: float, tol: Tolerances) -> list:
    return [
        _half_f_check(x, tol),
        _psd_check("Re(a)-b PSD", x - b),
        _below("Im small", op_norm(im_part(x)), eps),
    ]


def _check_decompose(x: np.ndarray, y: np.ndarray, b: np.ndarray, tol: Tolerances) -> list:
    return [
        _half_f_check(x, tol, "x in half-F"),
        _half_f_check(y, tol, "y in half-F"),
        _eq_check("b = x - y", b, x - y),
    ]


def _check_np(x: np.ndarray, c: np.ndarray, near_eps: float, tol: Tolerances) -> list:
    eye = _eye(x.shape[0])
    return [
        _half_f_check(x, tol),
        _psd_check("Schur block PSD", np.block([[eye - c, dagger(eye - x)], [eye - x, eye]])),
        _below("Im small", op_norm(im_part(x)), near_eps),
    ]


def _check_urysohn(x: np.ndarray, q: np.ndarray, u: np.ndarray, u_in_a: bool, eps: float,
                   near_eps: float, tol: Tolerances) -> list:
    checks = [
        _half_f_check(x, tol),
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
        _half_f_check(x, tol),
        *_sided_checks(x, q, q, _X_CORNER),
        *_sided_checks(x, p, x, _P_ABSORB),
        ("u(x) = q", d_peak, peak.status != "diverged" and d_peak <= 1e-5),
        ("s(x) = p", d_supp, supp.status != "diverged" and d_supp <= 1e-5),
        ("s(x(1-x)) = p-q", d_prod, d_prod <= 1e-5),
    ]


def _check_peak(g: np.ndarray, q: np.ndarray, b: np.ndarray, tol: Tolerances) -> list:
    return [_half_f_check(g, tol), *_sided_checks(g, q, b @ q, _G_CORNER)]


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
# preconditions, the engine (through the module global solve_feasibility,
# which tests and tracers replace) and one post-verification; its public
# solver is a one-line call of it, which accepts and ignores ``seed``.


def _dominate(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    b, eps = as_matrix(prob["b"]), prob["eps"]
    _require_positive(eps, "eps")
    e = _require_unital(a, tol)
    n = a.ambient_dim
    norm = _require_small_psd_in_cstar(a, b, "b", tol)
    problem = FeasibilityProblem(
        algebra=a,
        floors=[_re_floor(_eye(n), -b, "Re(a) >= b"), *_sector_floors(n, eps)],
        caps=[_half_f_cap(n)],
    )
    x = _solve(problem, 0.5 * (1.0 + norm) * e, "domination solve unconverged")
    return (x,), _verify(_check_dominate(x, b, eps, tol), "dominate")


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
    within solver_tol) and ||Im x|| < eps.  ``seed`` is accepted and ignored:
    the engine is deterministic.
    """
    return _dominate(a, {"b": b, "eps": eps}, tol)[0][0]


def _decompose(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    b = as_matrix(prob["b"])
    e = _require_unital(a, tol)
    n = a.ambient_dim
    _require_in(a, b, "b", tol)
    if op_norm(b) >= 1.0 - tol.eq_tol:
        raise ValueError("decomposition needs ||b|| < 1 strictly")

    # One unknown x; y = x - b inherits membership in A.
    shifted = MatrixAffine([AffineTerm(-2.0 * _eye(n), _eye(n))], _eye(n) + 2.0 * b)
    problem = FeasibilityProblem(
        algebra=a,
        caps=[_half_f_cap(n), NormCap(shifted, 1.0, "1-2(x-b) in ball")],
    )
    x = _solve(problem, (e + b) / 2.0, "decomposition solve unconverged")
    y = x - b
    return (x, y), _verify(_check_decompose(x, y, b, tol), "decompose")


def decompose(
    a: MatrixAlgebra, b, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Write b = x - y with both x and y in half-F of A (||b|| < 1).

    ``seed`` is accepted and ignored: the engine is deterministic.
    """
    return _decompose(a, {"b": b}, tol)[0]


def _interp_np(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    c, near_eps = as_matrix(prob["c"]), prob["near_eps"]
    _require_positive(near_eps, "near_eps")
    e = _require_unital(a, tol)
    n = a.ambient_dim
    norm = _require_small_psd_in_cstar(a, c, "c", tol)
    block = _schur_floor(_eye(n) - c, _eye(n), -_eye(n), _eye(n), "|1-a|^2 <= 1-c")
    problem = FeasibilityProblem(
        algebra=a,
        floors=[block, _re_floor(_eye(n), -c, "Re(a) >= c"), *_sector_floors(n, near_eps)],
        caps=[_half_f_cap(n)],
    )
    x = _solve(problem, 0.5 * (1.0 + norm) * e, "near-positive interpolation unconverged")
    return (x,), _verify(_check_np(x, c, near_eps, tol), "interp_np")


def interp_np(
    a: MatrixAlgebra,
    c,
    near_eps: float = 1e-2,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Nearly positive x in half-F with |1 - x|^2 <= 1 - c (Schur encoded).

    ``seed`` is accepted and ignored: the engine is deterministic.
    """
    return _interp_np(a, {"c": c, "near_eps": near_eps}, tol)[0][0]


def _urysohn(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, u = as_matrix(prob["q"]), as_matrix(prob["u"])
    eps, near_eps = prob["eps"], prob["near_eps"]
    _require_positive(eps, "eps")
    _require_positive(near_eps, "near_eps")
    n = a.ambient_dim
    _require_projection_in(a, q, "q", tol)
    if u.shape[0] != n:
        raise ValueError("dimension mismatch between algebra and matrix")
    _require_projection(u, "u")
    if min_real_eig(u - q) < -tol.psd_slack:
        raise ValueError("u must dominate q")

    equalities = _corner_equalities(q, q, ("a q = q", "q a = q"))
    caps = [_half_f_cap(n)]
    u_in_a = contains(a, u, tol)[0]
    if u_in_a:
        equalities += _absorb_equalities(u, ("a u = a", "u a = a"))
    else:
        eye, comp = _eye(n), _eye(n) - u
        caps += [
            NormCap(MatrixAffine([AffineTerm(eye, comp)], _zero(n)), 0.9 * eps, "a(1-u) small"),
            NormCap(MatrixAffine([AffineTerm(comp, eye)], _zero(n)), 0.9 * eps, "(1-u)a small"),
        ]
    problem = FeasibilityProblem(
        algebra=a, equalities=equalities, floors=_sector_floors(n, near_eps), caps=caps
    )
    x = _solve(problem, q, "Urysohn solve unconverged")
    return (x,), _verify(_check_urysohn(x, q, u, u_in_a, eps, near_eps, tol), "urysohn_interpolate")


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
    products x(1-u) and (1-u)x are made smaller than eps.  ``seed`` is
    accepted and ignored: the engine is deterministic.
    """
    return _urysohn(a, {"q": q, "u": u, "eps": eps, "near_eps": near_eps}, tol)[0][0]


def _strict_urysohn(a: MatrixAlgebra, prob: dict, tol: Tolerances,
                    retries: int = 3, fast_path: bool = True) -> tuple:
    q, p = as_matrix(prob["q"]), as_matrix(prob["p"])
    _require_projection_in(a, q, "q", tol)
    _require_projection_in(a, p, "p", tol)
    if min_real_eig(p - q) < -tol.psd_slack:
        raise ValueError("p must dominate q")
    n = a.ambient_dim
    eye = _eye(n)

    # Commuting shortcut.
    b = (p - q) / 2.0
    r = q
    if fast_path and op_norm(b @ r - r @ b) <= 1e-10:
        x = (eye - r) @ b + (eye - b) @ r
        checks = _check_strict_urysohn(a, x, q, p, tol)
        if all(ok for _, _, ok in checks):
            return (x,), checks

    # The engine is deterministic, so a retry differs only in its margin.
    comp = eye - q
    offq = MatrixAffine([AffineTerm(comp, comp)], _zero(n))
    margin = 0.25
    last_checks = None
    for _ in range(max(1, retries)):
        problem = FeasibilityProblem(
            algebra=a,
            equalities=[*_corner_equalities(q, q, _X_CORNER), *_absorb_equalities(p, _P_ABSORB)],
            caps=[_half_f_cap(n), NormCap(offq, 1.0 - margin, "strict off q")],
        )
        sol = solve_feasibility(problem, warm_start=(p + q) / 2.0)
        if sol.verdict == "feasible":
            checks = _check_strict_urysohn(a, sol.value, q, p, tol)
            if all(ok for _, _, ok in checks):
                return (sol.value,), checks
            last_checks = checks
        margin *= 0.4
    detail = "; ".join(f"{c[0]}: {c[1]:.2e}" for c in last_checks or () if not c[2])
    raise VerificationFailedError(
        f"strict Urysohn verification failed after {retries} retries ({detail})"
    )


def strict_urysohn(
    a: MatrixAlgebra,
    q,
    p,
    retries: int = 3,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    fast_path: bool = True,
) -> np.ndarray:
    """Element of half-F peaking exactly at q with support exactly p.

    Tries the commuting shortcut x = (1-r) b + (1-b) r first (with
    b = (p - q)/2 and r = q, which always commute); if its verification
    fails, falls back to solve-then-verify, retrying with a shrinking norm
    margin on the q-complement (0.25, 0.1, 0.04, ...).  ``fast_path=False``
    forces the solver route.  ``seed`` is accepted and ignored: the engine is
    deterministic, so the retries differ only in their margin.
    """
    return _strict_urysohn(a, {"q": q, "p": p}, tol, retries, fast_path)[0][0]


def _peak(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, b = as_matrix(prob["q"]), as_matrix(prob["b"])
    n = a.ambient_dim
    _require_commuting(a, q, b, tol)
    if op_norm((_eye(n) - 2.0 * b) @ q) > 1.0 + tol.eq_tol:
        raise ValueError("||(1 - 2b) q|| <= 1 is required")

    problem = FeasibilityProblem(
        algebra=a,
        equalities=_corner_equalities(q, b @ q, _G_CORNER),
        caps=[_half_f_cap(n)],
    )
    g = _solve(problem, b, "peak interpolation unconverged")
    return (g,), _verify(_check_peak(g, q, b, tol), "peak_interpolate")


def peak_interpolate(
    a: MatrixAlgebra, q, b, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Element g of half-F of A with g q = q g = b q.

    q is a projection in the unitization commuting with b, subject to
    ||b q|| <= 1 and ||(1 - 2b) q|| <= 1.  ``seed`` is accepted and ignored:
    the engine is deterministic.
    """
    return _peak(a, {"q": q, "b": b}, tol)[0][0]


# Largest vertex magnitude: products of two vertex coordinates, the area and
# the edge cross products below stay finite up to it.
_VERTEX_CAP = 1e100


@dataclass(frozen=True)
class ConvexRegion:
    """A compact convex polygon in the plane, counterclockwise vertices."""

    vertices: np.ndarray

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
        object.__setattr__(self, "vertices", v)

    def half_planes(self) -> list:
        """(theta_k, h_k) pairs: the region is the set Re(e^{-i theta} z) <= h."""
        v = self.vertices
        out = []
        for k in range(v.size):
            edge = v[(k + 1) % v.size] - v[k]
            if abs(edge) <= 1e-14:
                continue
            theta = float(np.angle(edge)) - np.pi / 2.0
            h = float(np.max((np.exp(-1j * theta) * v).real))
            out.append((theta, h))
        return out

    def contains_point(self, z: complex, slack: float = 0.0) -> bool:
        return all((np.exp(-1j * t) * z).real <= h + slack for t, h in self.half_planes())

    def centroid(self) -> complex:
        return complex(np.mean(self.vertices))


def _tietze(a: MatrixAlgebra, prob: dict, tol: Tolerances) -> tuple:
    q, b, region = as_matrix(prob["q"]), as_matrix(prob["b"]), prob["region"]
    n = a.ambient_dim
    _require_commuting(a, q, b, tol)
    planes = region.half_planes()
    if identity_of(a, tol) is None and not region.contains_point(0.0, tol.psd_slack):
        raise ValueError("a nonunital algebra requires 0 inside the region")

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

    eye = _eye(n)
    floors = [
        _re_floor(-np.exp(-1j * theta) * eye, h * eye, f"W(g) halfplane {k}")
        for k, (theta, h) in enumerate(planes)
    ]
    ball = NormCap(MatrixAffine([AffineTerm(eye, eye)], _zero(n)), 1.0, "a in ball")
    problem = FeasibilityProblem(
        algebra=a,
        equalities=_corner_equalities(q, b @ q, _G_CORNER),
        floors=floors,
        caps=[ball],
    )
    warm = q @ b @ q + region.centroid() * (eye - q)
    g = _solve(problem, warm, "Tietze lift unconverged")
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

    The numerical range of the compression of b to the range of q must sit
    inside the region, which must not be a line segment; when A has no
    identity the region must contain 0.  ``seed`` is accepted and ignored:
    the engine is deterministic.
    """
    return _tietze(a, {"q": q, "b": b, "region": region}, tol)[0][0]


# -- the theorem table -------------------------------------------------------


@dataclass(frozen=True)
class TheoremSpec:
    """One interpolation theorem as the CLI and the suites drive it.

    ``keys`` are the problem entries it reads besides ``algebra``, ``eps`` and
    ``near_eps``.  ``solve(a, problem, tol)`` runs the preconditions,
    the engine and the post-verification once and returns ``(outputs,
    checks)``: the public solver's outputs as a tuple and the (label, value,
    ok) checks they passed.  Each residual is the largest value of its check
    labels, floored at 0; ``gate`` names the check labels the interpolation
    suite holds below 1e-5 in the same way.  Both read the returned checks,
    so no check runs twice.
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
