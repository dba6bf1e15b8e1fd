"""Dense complex matrix kernels shared by every other module.

Everything operates on plain square complex ``numpy`` arrays.  This module
is the bottom layer and the one home of the subspace kernels the others
share: ``range_basis`` (eigenvectors of Re p above 1/2),
``_kernel_complement_projection`` (ker(m)^perp by singular values),
``_unit_defects`` (the stack of e b - b and b e - b, which vanishes when e
is a two-sided identity on a stack of b) and ``_unit_defect`` (its largest
norm), the norm verdicts ``_within`` (``op_norm(m) <= bound``, and on a
stack ``max_op_norm(m) <= bound``; through it ``_norm_floor_one``,
``max(1, op_norm(m))``) and ``_at_most_rtol_norm`` (``a <= rtol *
op_norm(m)`` for each entry of a vector a), which settle most calls by the
Frobenius bounds of ``_op_norm_bounds`` and run the SVD only when those
cannot, and the one-sided conditioning verdict ``_cond_surely_within``
(``cond(m) <= bound`` from m and its computed inverse, by Frobenius norms,
without an SVD).  It also owns every dense kernel, in one table,
``_linalg``: numpy.linalg's ``svd`` (values only or thin), ``eigvalsh``,
``eigh``, ``eig`` and ``inv``, each bound once to the gufunc it wraps, and
scipy's LAPACK routines ``zgees`` (for ``_schur``), ``zgetrf`` and
``zgetrs`` (for ``solve``), each bound on its first use so that scipy stays
off the import path.  Other modules call them through ``_linalg``, which
they look up at call time, never ``np.linalg``'s or scipy's.

The JSON wire format for a matrix is ``{"n": n, "entries": [[re, im],
...]}`` with ``n`` a JSON integer and the entries row-major (length
``n**2``).

All functions here are pure; arrays are never mutated in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from numbers import Integral
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SingularMatrixError",
    "PIVOT_RTOL",
    "as_matrix",
    "dagger",
    "re_part",
    "im_part",
    "frob_norm",
    "herm_eig",
    "range_basis",
    "op_norm",
    "op_norms",
    "max_op_norm",
    "solve",
    "min_real_eig",
    "MAX_DIM",
    "check_dim",
    "matrix_to_json",
    "matrix_from_json",
]


def _require_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used by every approximate predicate.

    eq_tol     equality of matrices in operator norm
    psd_slack  the accretive order's slack: its one rule, ``cones._accretive``,
               accepts lambda_min(Re m) >= -psd_slack; F's one rule,
               ``cones._in_f``, accepts 1 - ||1 - x|| >= -psd_slack (half-F
               is F of 2x), and the unit-scale norm tests take the same
               slack; the ||1 - x|| <= 1 + eq_tol guards of the series
               route and the disk calculus take eq_tol instead
    iter_tol   stopping threshold for fixed-point iterations
    """

    eq_tol: float = 1e-9
    psd_slack: float = 1e-7
    iter_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            _require_positive(getattr(self, f.name), f.name)
        if self.psd_slack < self.eq_tol:
            raise ValueError("psd_slack must be at least eq_tol")


DEFAULT_TOL = Tolerances()


# solve() rejects an LU pivot at or below PIVOT_RTOL * op_norm(m).
PIVOT_RTOL = 1e-13


class SingularMatrixError(ValueError):
    """Raised by :func:`solve` when elimination hits a negligible pivot, and
    by the quadrature route of ``powers`` when a node's triangular system
    does; ``what`` heads the message."""

    def __init__(self, pivot_index: int, pivot: float, scale: float,
                 what: str = "matrix numerically singular"):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"{what}: pivot {pivot_index} has magnitude {pivot:.3e} against scale {scale:.3e}"
        )


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, non-empty, finite, complex 2-d array."""
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(m).all():  # complex isfinite checks both parts
        raise ValueError(f"{name} has non-finite entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; on a stack of matrices, of each one."""
    return np.conj(m).swapaxes(-1, -2)


def re_part(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*)/2."""
    return (m + dagger(m)) / 2.0


def im_part(m: np.ndarray) -> np.ndarray:
    """Hermitian matrix (m - m*)/2i, so that m = re_part + i*im_part."""
    return (m - dagger(m)) / 2.0j


def frob_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _lapack_routine(name: str) -> cached_property:
    """scipy.linalg.lapack's routine ``name``, imported on its first read."""
    def routine(table):
        from scipy.linalg import lapack
        return getattr(lapack, name)

    return cached_property(routine)


class _Kernels(SimpleNamespace):
    """The kernel table: numpy's kernels as :func:`_bind_linalg` binds them,
    and scipy's LAPACK ``zgees``, ``zgetrf`` and ``zgetrs``, each imported on
    its first read (scipy stays off the import path) and kept as a plain
    attribute, which skips scipy.linalg's wrappers: at n <= 16 they cost more
    than the factorizations.  Other names raise AttributeError."""

    zgees, zgetrf, zgetrs = map(_lapack_routine, ("zgees", "zgetrf", "zgetrs"))


def _bind_linalg() -> _Kernels:
    """The kernel table, with numpy.linalg's ``svd``, ``eigvalsh``, ``eigh``,
    ``eig`` and ``inv`` each bound once to the gufunc of
    ``numpy.linalg._umath_linalg`` that the public function wraps.

    At n <= 16 the public wrappers cost more than LAPACK: each checks and
    casts its input and builds a fresh ``np.errstate``.  A kernel here takes
    a non-empty ``complex128`` ndarray (square, but for ``svd``) straight to
    the gufunc with the wrapper's signature, under the wrapper's error state,
    built once: a LAPACK failure raises numpy's own LinAlgError, as the
    wrapper does, and no RuntimeWarning.  ``eig`` keeps the wrapper's test
    for non-finite entries.  Any other input (real input runs another LAPACK
    routine) goes to the public function, and so does every call when
    numpy's private modules are not where numpy 2 keeps them.  No caller
    takes the full SVD, so ``svd(a)`` is the public function's.
    """
    public = _Kernels(svd=np.linalg.svd, eigvalsh=np.linalg.eigvalsh,
                      eigh=np.linalg.eigh, eig=np.linalg.eig, inv=np.linalg.inv)
    try:
        from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
        from numpy.linalg import _linalg as wrappers
        from numpy.linalg import _umath_linalg as gufuncs

        svd_failed = wrappers._raise_linalgerror_svd_nonconvergence
        eig_failed = wrappers._raise_linalgerror_eigenvalues_nonconvergence
        singular = wrappers._raise_linalgerror_singular
        svd_values, svd_thin = gufuncs.svd, gufuncs.svd_s
        eigvalsh, eigh, eig, inv = gufuncs.eigvalsh_lo, gufuncs.eigh_lo, gufuncs.eig, gufuncs.inv
    except (ImportError, AttributeError):
        return public
    complex128 = np.dtype(complex)

    def bind(gufunc, signature, on_error, fallback, square=True, finite=False):
        extobj = _make_extobj(call=on_error, invalid="call", over="ignore", divide="ignore", under="ignore")

        def kernel(a):
            if not (type(a) is np.ndarray and a.dtype is complex128 and a.size and a.ndim >= 2
                    and (not square or a.shape[-1] == a.shape[-2])
                    and (not finite or np.isfinite(a).all())):
                return fallback(a)
            token = _extobj_contextvar.set(extobj)
            try:
                return gufunc(a, signature=signature)
            finally:
                _extobj_contextvar.reset(token)

        return kernel

    svd_values = bind(svd_values, "D->d", svd_failed, lambda a: public.svd(a, compute_uv=False), square=False)
    svd_thin = bind(svd_thin, "D->DdD", svd_failed, lambda a: public.svd(a, full_matrices=False), square=False)

    def svd(a, full_matrices=True, compute_uv=True):
        if not compute_uv:
            return svd_values(a)
        return public.svd(a) if full_matrices else svd_thin(a)

    return _Kernels(
        svd=svd,
        eigvalsh=bind(eigvalsh, "D->d", eig_failed, public.eigvalsh),
        eigh=bind(eigh, "D->dD", eig_failed, public.eigh),
        eig=bind(eig, "D->DD", eig_failed, public.eig, finite=True),
        inv=bind(inv, "D->D", singular, public.inv))


# Looked up at call time, so one patch reaches every caller.
_linalg = _bind_linalg()


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized internally, so callers may pass matrices that
    are Hermitian only up to rounding.  Returns ``(w, v)`` with ``w``
    ascending and ``v`` unitary, ``h @ v == v @ diag(w)``.
    """
    h = as_matrix(h, "herm_eig input")
    w, v = _linalg.eigh(re_part(h))
    return w, v


def op_norm(m) -> float:
    """Operator (spectral) norm of a 2-d array, its largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"op_norm needs a 2-d array, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(_linalg.svd(m, compute_uv=False)[0])


def op_norms(stack) -> np.ndarray:
    """:func:`op_norm` of each matrix in a ``(k, n, n)`` stack, by one batched
    SVD; the batched LAPACK call gives each the same bits as :func:`op_norm`."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3:
        raise ValueError(f"op_norms needs a 3-d stack, got shape {stack.shape}")
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return _linalg.svd(stack, compute_uv=False)[:, 0]


def max_op_norm(stack) -> float:
    """Largest :func:`op_norm` in a ``(k, n, n)`` stack; 0 for an empty one."""
    norms = op_norms(stack)
    return float(norms.max()) if norms.size else 0.0


def range_basis(p) -> np.ndarray:
    """Orthonormal columns spanning the range of a near-projection p: the
    eigenvectors of Re p with eigenvalue above 1/2, an ``(n, 0)`` array
    when there are none."""
    w, v = herm_eig(p)
    return v[:, w > 0.5]


# _kernel_complement_projection calls m zero when ||m|| <= ZERO_FLOOR and
# drops singular values at most SINGULAR_RTOL ||m||; the support and
# eigenspace oracles read these cuts.
ZERO_FLOOR = 1e-14
SINGULAR_RTOL = 1e-10
# A support projection p of x is checked by projections._verify_support:
# it warns when p x = x p = x fails by more than SUPPORT_DEFECT_RTOL
# max(1, ||x||), and when x vanishes on ran(p), its least singular value
# there being at most SUPPORT_VANISH_RTOL ||x||.
SUPPORT_DEFECT_RTOL = 1e-7
SUPPORT_VANISH_RTOL = 1e-14


def _kernel_complement_projection(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Projection onto ker(m)^perp via singular values, and ||m||, the
    largest of them (0 for an empty m).  The SVD is thin: a tall m needs no
    square U."""
    _, s, vh = _linalg.svd(m, full_matrices=False)
    norm = float(s[0]) if s.size else 0.0
    if norm <= ZERO_FLOOR:
        return np.zeros_like(m), norm
    vt = vh[s > SINGULAR_RTOL * s[0]]
    return dagger(vt) @ vt, norm


def _unit_defects(e: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The ``(2k, n, n)`` stack of ``e b - b`` and ``b e - b`` over the b of a
    ``(k, n, n)`` stack; e is a two-sided identity on it when they vanish."""
    return np.concatenate([e @ stack - stack, stack @ e - stack])


def _unit_defect(e: np.ndarray, stack: np.ndarray) -> float:
    """How far e is from a two-sided identity on a ``(k, n, n)`` stack:
    the largest of ``||e b - b||`` and ``||b e - b||``."""
    return max_op_norm(_unit_defects(e, stack))


# _op_norm_bounds trusts the Frobenius norm f outside a relative band of
# FROB_MARGIN, and takes f^2 to within FROB_UNDERFLOW absolutely (the squares
# of entries below about 1e-162 underflow).
FROB_MARGIN = 1e-8
FROB_UNDERFLOW = 1e-300


def _op_norm_bounds(m: np.ndarray):
    """Bounds ``lo <= op_norm(m) <= hi`` from the Frobenius norm of m alone;
    on a ``(k, r, c)`` stack, two arrays of k bounds, one pair per matrix.

    With f = ||m||_F and r = min(m.shape), ||m||_2 <= f <= sqrt(r) ||m||_2
    (Golub & Van Loan, *Matrix Computations*, 2.3), so lo = f (1 - 1e-8) /
    sqrt(r) and hi = f (1 + 1e-8).  The margin 1e-8 is about 1e5 times the
    rounding of either norm at n <= 16: f^2 is a sum of n^2 nonnegative
    squares, and the SVD is backward stable, so each is within O(n^2 eps),
    about 3e-14, of the exact value.  A non-finite f^2 (NaN, or overflow)
    gives NaN bounds, which every comparison leaves undecided.  A single
    matrix takes f^2 from one ``vdot`` and the bounds by ``math``; a stack
    takes them from one vectorised sum (``einsum``, which overflows to inf
    without a warning, as the sum of its two halves may here).
    """
    if m.ndim == 2:
        s = float(np.vdot(m, m).real)  # ||m||_F^2
        s, sqrt, floor = (s if s < math.inf else math.nan), math.sqrt, max
    else:
        with np.errstate(over="ignore"):
            s = np.einsum("kij,kij->k", m.real, m.real) + np.einsum("kij,kij->k", m.imag, m.imag)
        s, sqrt, floor = np.where(s < math.inf, s, math.nan), np.sqrt, np.maximum
    return (sqrt(floor(s - FROB_UNDERFLOW, 0.0)) * (1.0 - FROB_MARGIN) / math.sqrt(min(m.shape[-2:])),
            sqrt(s + FROB_UNDERFLOW) * (1.0 + FROB_MARGIN))


def _within(m: np.ndarray, bound: float) -> bool:
    """Exactly ``op_norm(m) <= bound``, or on a ``(k, n, n)`` stack
    ``max_op_norm(m) <= bound``, mostly without the SVD: it runs only on the
    matrices whose :func:`_op_norm_bounds` straddle ``bound`` or are NaN (on a
    stack no lower bound decides while one is NaN, so that a NaN raises)."""
    lo, hi = _op_norm_bounds(m)
    if m.ndim == 2:
        if hi <= bound:
            return True
        if lo > bound:
            return False
        return op_norm(m) <= bound
    if (lo > bound).any() and not np.isnan(lo).any():
        return False
    return max_op_norm(m[~(hi <= bound)]) <= bound


def _at_most_rtol_norm(a: np.ndarray, rtol: float, m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Exactly ``a <= rtol * max(op_norm(m), floor)``, entry by entry, mostly
    without the SVD.  The product rounds monotonically, so an entry at or
    below the threshold of the lower bound of :func:`_op_norm_bounds` is
    below the SVD's too, and one above the upper bound's threshold is above
    it; the SVD runs only when an entry falls between the two."""
    lo, hi = _op_norm_bounds(m)
    # max(nan, floor) is nan, so NaN bounds decide no entry
    surely = a <= rtol * max(lo, floor)
    if (surely | (a > rtol * max(hi, floor))).all():
        return surely
    return a <= rtol * max(op_norm(m), floor)


def _norm_floor_one(m: np.ndarray) -> float:
    """``max(1, op_norm(m))``; 1 without the SVD when ``_within(m, 1)``
    settles it."""
    return 1.0 if _within(m, 1.0) else op_norm(m)


# _cond_surely_within answers True only below bound / (1 + COND_MARGIN).
COND_MARGIN = 1e-6


def _cond_surely_within(m: np.ndarray, minv: np.ndarray, bound: float) -> bool:
    """True when ||m||_F ||minv||_F proves that cond(m), as the SVD gives it,
    is at most bound; False decides nothing, and the caller runs the SVD.

    cond(m) = ||m||_2 ||m^{-1}||_2 <= ||m||_F ||m^{-1}||_F (Golub & Van Loan,
    *Matrix Computations*, 2.3), and the two sides meet when m is near rank
    one, as the eigenvectors of a near-defective matrix are.  So the margin
    must cover the rounding on both sides at cond(m) near bound.  The
    computed inverse of m is off by a relative O(n eps cond(m)) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 14), and the SVD's
    sigma_min by O(n eps sigma_max), so its cond(m) is off by a relative
    O(n eps cond(m)) too.  At cond(m) <= 1e8 and n <= 16 each is about
    16 * 1.1e-16 * 1e8 = 1.8e-7, so COND_MARGIN = 1e-6 covers both (on
    rotated 2 x 2 near-cap inputs the SVD's cond(m) was up to 5e-9 above the
    computed bound).  The squares take FROB_UNDERFLOW as _within's do.
    Overflow and NaN give False.
    """
    s = (float(np.vdot(m, m).real) + FROB_UNDERFLOW) * (float(np.vdot(minv, minv).real) + FROB_UNDERFLOW)
    return math.sqrt(s) * (1.0 + COND_MARGIN) <= bound


def _unsorted(w):
    """zgees' eigenvalue selector, which it never calls unsorted."""
    return None


@lru_cache(maxsize=64)
def _gees_lwork(n: int) -> int:
    """zgees' optimal workspace for an n x n input, by its workspace query,
    which reads n alone (zgehrd's block size and zhseqr's query on rows
    1..n)."""
    return int(_linalg.zgees(_unsorted, np.zeros((n, n), dtype=complex), lwork=-1)[-2][0].real)


def _schur(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(t, z)`` with x = z t z*, the complex Schur form of a validated x:
    t upper triangular, z unitary.  This is zgees with the workspace
    ``scipy.linalg.schur(x, output="complex")`` queries for, so the bits are
    the same."""
    t, _, _, z, _, info = _linalg.zgees(_unsorted, x, lwork=_gees_lwork(x.shape[0]))
    if info:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, z


def solve(m, b):
    """Solve ``m @ x = b`` by LU with partial pivoting (LAPACK zgetrf and
    zgetrs, as ``scipy.linalg.lu_factor`` and ``lu_solve`` call them).

    ``b`` may be a ``(k, n, p)`` stack of right-hand sides: m is factored
    once, and each of them is solved with the bits of its own call.
    Raises ValueError on a non-finite b, and :class:`SingularMatrixError`
    carrying the index of the first pivot whose magnitude is at or below
    ``PIVOT_RTOL * op_norm(m)``; an exactly zero pivot, which zgetrf
    reports through ``info``, is one of those.
    """
    m = as_matrix(m, "solve lhs")
    b = np.asarray(b, dtype=complex)
    if not np.isfinite(b).all():
        raise ValueError("solve rhs has non-finite entries")
    lu, piv, _ = _linalg.zgetrf(m)
    diag = np.abs(np.diag(lu))
    bad = np.nonzero(_at_most_rtol_norm(diag, PIVOT_RTOL, m))[0]
    if bad.size:
        k = int(bad[0])
        raise SingularMatrixError(k, float(diag[k]), op_norm(m))
    if b.ndim == 3:
        return np.array([_linalg.zgetrs(lu, piv, rhs)[0] for rhs in b])
    return _linalg.zgetrs(lu, piv, b)[0]


def min_real_eig(m) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m*)/2, for a report.

    The accretive order's verdict on it has one owner, ``cones._accretive``.
    """
    m = as_matrix(m, "min_real_eig input")
    return float(_linalg.eigvalsh(re_part(m))[0])


# The largest ambient dimension.  powers.MAX_NODES and the cap-size CI steps
# are sized for it.
MAX_DIM = 16


def _require_count(value, name: str, low: int, high: int) -> None:
    """Refuse a size or count unless it is an integer in [low, high], naming
    the parameter; a bool is refused and a numpy integer passes."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer, at least {low} and at most {high}; got {value!r}")


def check_dim(n: int, what: str) -> None:
    """Refuse an ambient dimension outside 1..MAX_DIM before building."""
    _require_count(n, f"the dimension of {what}", 1, MAX_DIM)


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    flat = m.reshape(-1)
    return {
        "n": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def json_number(value, integer: bool = False) -> bool:
    """Is value a JSON number (a JSON integer when ``integer``)?  Booleans,
    which Python counts as integers, are not."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def complex_entries(items, what: str = "matrix entries") -> np.ndarray:
    """Parse a JSON list of ``[re, im]`` number pairs into a complex vector.

    Anything else (a bare number, a pair of strings, booleans, a number too
    large for a float) raises ``ValueError``.
    """
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{what} must be a list of [re, im] pairs")
    out = np.empty(len(items), dtype=complex)
    for k, z in enumerate(items):
        if not (
            isinstance(z, (list, tuple))
            and len(z) == 2
            and all(json_number(t) for t in z)
        ):
            raise ValueError(
                f"{what} must be [re, im] pairs of numbers, item {k} is {z!r:.40}"
            )
        try:
            out[k] = complex(z[0], z[1])
        except OverflowError as exc:
            raise ValueError(f"{what}: item {k} is too large for a float") from exc
    return out


def matrix_from_json(data: dict) -> np.ndarray:
    if not (isinstance(data, dict) and json_number(data.get("n"), integer=True)
            and "entries" in data):
        raise ValueError("matrix JSON needs an integer 'n' and 'entries'")
    n, entries = data["n"], data["entries"]
    if n <= 0:
        raise ValueError("matrix dimension must be positive")
    flat = complex_entries(entries)
    if flat.size != n * n:
        raise ValueError(f"expected {n * n} entries, got {flat.size}")
    return as_matrix(flat.reshape(n, n))
