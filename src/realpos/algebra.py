"""Finite-dimensional operator algebras A inside M_n.

An algebra is a frozen :class:`MatrixAlgebra`: an orthonormal basis under the
trace inner product ``<X, Y> = tr(Y* X)``, held as one ``(dim, n, n)`` stack.
Construction is by span closure of words in a set of generators; membership,
unitization, matrix amplification, the C*-algebra ``cstar(A)`` it generates
and the largest unital corner ``q A q`` are all computed against that basis.

Every builder decides ``contains_identity`` by one rule, ``contains(A, I,
tol)``, before it constructs the algebra.  ``MatrixAlgebra.residual`` measures
a whole stack's distance from the span at once, for gates.

Algebra JSON is either ``{"ambient": n, "basis": [matrix, ...]}`` or
``{"generators": [matrix, ...], "mode": "algebra"|"cstar",
"with_identity": bool}`` with matrices in the matrix JSON format.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    _kernel_complement_projection,
    _unit_within,
    as_matrix,
    check_dim,
    dagger,
    frob_norm,
    matrix_from_json,
    matrix_to_json,
    max_op_norm,
    op_norm,
)

__all__ = [
    "MatrixAlgebra",
    "orthonormalize",
    "generate_algebra",
    "cstar",
    "contains",
    "identity_of",
    "unitize",
    "a_h",
    "amplify",
    "hermitian_elements",
    "full_algebra",
    "diagonal_algebra",
    "upper_triangular_algebra",
    "block_upper_algebra",
    "span_algebra",
    "algebra_from_name",
    "algebra_to_json",
    "algebra_from_json",
]

RANK_TOL = 1e-10
CLOSURE_TOL = 1e-8


def _extend(rows: np.ndarray, dim: int, cands: np.ndarray) -> int:
    """Extend the orthonormal ``rows[:dim]`` in place by span(cands); returns
    the new dim.  Two block passes (CGS2) project the candidates against
    ``rows[:dim]``, then two-pass Gram-Schmidt projects each survivor against
    the rows accepted since.  A residual <= ``RANK_TOL`` max(1, norm) is
    dropped, and so is all once ``rows`` is full (two passes against a basis
    of M_n leave O(eps ||v||)).  Accepted rows never change."""
    scale = np.linalg.norm(cands, axis=1)
    b = rows[:dim]
    for _ in range(2):  # a no-op on the empty basis
        cands = cands - (cands @ np.conj(b).T) @ b
    alive = np.linalg.norm(cands, axis=1) > RANK_TOL * np.maximum(1.0, scale)
    start = dim
    for v, s in zip(cands[alive], scale[alive]):
        if dim == len(rows):
            break
        b = rows[start:dim]
        for _ in range(2):  # a no-op before the first row is accepted
            v = v - b.T @ np.conj(b @ np.conj(v))
        r = float(np.linalg.norm(v))
        if r > RANK_TOL * max(1.0, s):
            rows[dim] = v / r
            dim += 1
    return dim


def orthonormalize(mats) -> np.ndarray:
    """Orthonormal ``(dim, n, n)`` basis of span(mats), a ``(k, n, n)`` stack or
    list, by ``_extend`` from the empty basis; an empty stack keeps its n."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1] if mats.ndim == 3 else 0  # an empty list carries no n
    rows = np.empty((min(len(mats), n * n), n * n), dtype=complex)  # flattened, orthonormal
    dim = _extend(rows, 0, mats.reshape(len(mats), n * n))
    return rows[:dim].reshape(dim, n, n)


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products ``l r`` of a (p, n, n) and a (q, n, n) stack, l-major, by one GEMM."""
    p, q, n = len(left), len(right), right.shape[-1]
    cols = right.transpose(1, 0, 2).reshape(n, q * n)  # [r_1 ... r_q]
    return (left.reshape(p * n, n) @ cols).reshape(p, n, q, n).transpose(0, 2, 1, 3).reshape(p * q, n, n)


@dataclass(frozen=True)
class MatrixAlgebra:
    """A span-closed subalgebra of M_n given by an orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray  # (dim, n, n), orthonormal in the trace inner product
    contains_identity: bool
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=complex))
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.ambient_dim,) * 2:
            raise ValueError(
                f"basis shape {self.basis.shape} inconsistent with ambient "
                f"dimension {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Coefficients of the orthogonal projection of m onto span(basis)."""
        flat = np.conj(self.basis).reshape(self.dim, self.ambient_dim ** 2)  # the operands np.tensordot builds
        return np.dot(flat, np.asarray(m, complex).reshape(-1, 1)).reshape(self.dim)

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        flat = self.basis.reshape(self.dim, self.ambient_dim ** 2)
        return np.dot(np.asarray(c, complex).reshape(1, self.dim), flat).reshape(self.basis.shape[1:])

    def project(self, m: np.ndarray) -> np.ndarray:
        return self.reconstruct(self.coords(m))

    def gram_defect(self) -> float:
        """How far the basis is from orthonormal."""
        flat = self.basis.reshape(self.dim, self.ambient_dim ** 2)
        g = np.conj(flat) @ flat.T
        return float(np.abs(g - np.eye(self.dim)).max(initial=0.0))

    def residual(self, stack) -> float:
        """Largest op-norm distance of a ``(k, n, n)`` stack from the span; one
        GEMM projects it, so it may differ from ``contains`` in the last bits."""
        stack = np.asarray(stack, dtype=complex)
        size = self.ambient_dim ** 2
        flat = stack.reshape(len(stack), size)
        b = self.basis.reshape(self.dim, size)
        return max_op_norm((flat - (flat @ np.conj(b).T) @ b).reshape(stack.shape))

    def closure_defect(self) -> float:
        """Largest residual of a basis product outside the span, by left factor."""
        return max((self.residual(_products(b[None], self.basis)) for b in self.basis), default=0.0)


def contains(
    a: MatrixAlgebra, m, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Membership of m in span(a.basis); returns (verdict, residual)."""
    m = as_matrix(m)
    if m.shape[0] != a.ambient_dim:
        raise ValueError("dimension mismatch between algebra and matrix")
    residual = op_norm(m - a.project(m))
    return residual <= tol.eq_tol * max(1.0, op_norm(m)), residual


def _algebra(basis: np.ndarray, label: str, tol: Tolerances) -> MatrixAlgebra:
    """The algebra spanned by an orthonormal ``(dim, n, n)`` basis; the one
    place ``contains_identity`` is decided, by ``contains(A, I, tol)``."""
    n = basis.shape[-1]
    probe = MatrixAlgebra(n, basis, False, label)
    return replace(probe, contains_identity=contains(probe, np.eye(n), tol)[0])


def generate_algebra(
    generators,
    mode: str = "algebra",
    with_identity: bool = False,
    tol: Tolerances = DEFAULT_TOL,
    label: str = "",
) -> MatrixAlgebra:
    """Span closure of words in the generators.

    ``mode='cstar'`` also includes the adjoints of the generators, so the
    result is the C*-algebra they generate.  ``with_identity`` adjoins the
    ambient identity.  Each sweep takes the basis b_1..b_d it starts from and,
    for a = 1..d in turn, ``_extend``s it by b_a b_1, ..., b_a b_d (one GEMM).
    It stops after a sweep that adds nothing, or at once at a basis of M_n.
    """
    if mode not in ("algebra", "cstar"):
        raise ValueError(f"unknown mode {mode!r}")
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise ValueError("generators must share one ambient dimension")

    seed = np.array(gens)
    if mode == "cstar":
        seed = np.concatenate([seed, dagger(seed)])
    if with_identity:
        seed = np.concatenate([seed, np.eye(n, dtype=complex)[None]])

    rows = np.empty((n * n, n * n), dtype=complex)  # flattened, orthonormal
    dim, top = _extend(rows, 0, seed.reshape(len(seed), n * n)), 0
    while top < dim < n * n:  # zero generators generate the zero algebra
        top = dim
        basis = rows[:top].reshape(top, n, n)
        for b in basis:
            dim = _extend(rows, dim, _products(b[None], basis).reshape(top, n * n))
            if dim == n * n:
                break
    return _algebra(rows[:dim].reshape(dim, n, n), label, tol)


def cstar(a: MatrixAlgebra, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """C*(A), the C*-algebra generated by A: the span closure of A and A*."""
    return generate_algebra(a.basis, mode="cstar", tol=tol)


def identity_of(a: MatrixAlgebra, tol: Tolerances = DEFAULT_TOL):
    """The two-sided identity of A, or None.

    The left equations ``e b_k = b_k`` suffice: if A has an identity u, a left
    identity l in A is u, as l = l u = u.  As sum_k <x b_k, y b_k> = tr(y* x W),
    W = sum_k b_k b_k*, their normal equations in e = sum_i c_i b_i are P_A(e W)
    = P_A(W): G c = h, G[j, i] = <b_i W, b_j>, h[j] = <W, b_j> (three GEMMs and
    a d x d ``lstsq``).  For unital A, ||x||_F = ||x u||_F <= ||u||_F ||(x b_k)_k||
    and ||W|| <= tr W = d give cond(G) <= d ||u||_F^2 (<= d n if u is a projection).
    ``_unit_defect <= eq_tol`` decides (``_unit_within``), rejecting the left identity E11
    of span{E11, E12}.
    """
    d, n = a.dim, a.ambient_dim
    if d == 0:
        return None
    flat = a.basis.reshape(d, n * n)
    cols = a.basis.transpose(1, 0, 2).reshape(n, d * n)  # [b_1 ... b_d]
    w = cols @ dagger(cols)
    gram = np.conj(flat) @ (a.basis.reshape(d * n, n) @ w).reshape(d, n * n).T
    c, *_ = np.linalg.lstsq(gram, np.conj(flat) @ w.reshape(n * n), rcond=None)
    e = a.reconstruct(c)
    return e if _unit_within(e, a.basis, tol.eq_tol) else None


def unitize(a: MatrixAlgebra, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """Adjoin the ambient identity; A itself when I is already in A."""
    if a.contains_identity:
        return a
    n, d = a.ambient_dim, a.dim
    rows = np.concatenate([a.basis.reshape(d, n * n), np.empty((int(d < n * n), n * n))])  # room for I
    dim = _extend(rows, d, np.eye(n, dtype=complex).reshape(1, n * n))
    label = a.label + "^1" if a.label else ""
    return _algebra(rows[:dim].reshape(dim, n, n), label, tol)


def amplify(a: MatrixAlgebra, k: int, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra of k x k block matrices with blocks in A."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    n = a.ambient_dim
    check_dim(k * n, f"the {k}-fold amplification")
    units = np.eye(k * k, dtype=complex).reshape(k, k, k, k)  # units[i, j] = E_ij
    # basis[(i, j, b)] = kron(E_ij, b), the same products np.kron forms
    basis = units[:, :, None, :, None, :, None] * a.basis[None, None, :, None, :, None, :]
    label = f"M_{k}({a.label})" if a.label else ""
    return _algebra(basis.reshape(k * k * a.dim, k * n, k * n), label, tol)


def hermitian_elements(a: MatrixAlgebra) -> list[np.ndarray]:
    """A real basis of {x in A : x = x*}: the null vectors of the real
    ``(2 n^2, 2 d)`` matrix of x -> x - x* on u = (Re c, Im c), x = sum_j c_j b_j."""
    d = a.dim
    if d == 0:
        return []
    # columns b_j - b_j*, then i b_j - (i b_j)* = i (b_j + b_j*); real rows
    # above imaginary rows
    bh = dagger(a.basis)
    cols = np.concatenate([a.basis - bh, 1j * (a.basis + bh)]).reshape(2 * d, -1)
    _, s, vt = np.linalg.svd(np.concatenate([cols.real, cols.imag], axis=1).T, full_matrices=False)
    out = []
    for u in vt[s <= RANK_TOL * max(1.0, s[0])]:
        x = a.reconstruct(u[:d] + 1j * u[d:])
        x = (x + dagger(x)) / 2.0
        norm = frob_norm(x)
        if norm > 1e-8:
            out.append(x / norm)
    return out


def a_h(
    a: MatrixAlgebra, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> tuple[MatrixAlgebra, np.ndarray]:
    """Largest unital corner of A: returns (A_H, q) with A_H = q A q.

    q is the join of the supports s(x) of the accretive elements x of A, and
    it is exact.  The support s(x) = lim x^{1/n} lies in A, because the roots
    of x stay in the algebra that x generates.  So every support is a
    projection in the finite-dimensional C*-algebra A ∩ A*.  The unit of
    A ∩ A* is one of them (a projection is accretive and is its own support),
    and it dominates every projection in A ∩ A*.  Hence q = 1_{A ∩ A*}, the
    range projection of the Hermitian elements of A, and q = 0 when A has
    none.  q is checked to lie in A; ``ArithmeticError`` is raised if it
    does not.

    ``seed`` is accepted and ignored: nothing here is random.
    """
    n = a.ambient_dim
    q = np.zeros((n, n), dtype=complex)
    herm = hermitian_elements(a)
    if herm:
        # range [h_1 ... h_k] = ker([h_1 ... h_k]*)^perp
        q, _ = _kernel_complement_projection(dagger(np.hstack(herm)))
        ok, residual = contains(a, q, tol)
        if not ok:
            raise ArithmeticError(
                "the range projection of the Hermitian elements of A is not in A "
                f"(residual {residual:.2e})"
            )
    corner = orthonormalize(q @ a.basis @ q)
    return _algebra(corner, (a.label + "_H") if a.label else "", tol), q


# -- canned algebras ---------------------------------------------------------


def _units(n: int, pairs, label: str) -> MatrixAlgebra:
    """The algebra spanned by the matrix units E_ij, (i, j) in pairs."""
    basis = np.zeros((len(pairs), n, n), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        basis[k, i, j] = 1.0
    return _algebra(basis, label, DEFAULT_TOL)


def full_algebra(n: int) -> MatrixAlgebra:
    return _units(n, [(i, j) for i in range(n) for j in range(n)], f"full:{n}")


def diagonal_algebra(n: int) -> MatrixAlgebra:
    return _units(n, [(i, i) for i in range(n)], f"diag:{n}")


def upper_triangular_algebra(n: int) -> MatrixAlgebra:
    return _units(n, [(i, j) for i in range(n) for j in range(i, n)], f"upper:{n}")


def block_upper_algebra(n1: int, n2: int) -> MatrixAlgebra:
    n = n1 + n2
    pairs = [(i, j) for i in range(n) for j in range(n) if i < n1 or j >= n1]
    return _units(n, pairs, f"blockupper:{n1},{n2}")


# kind -> builder of the canned algebra; blockupper takes (n1, n2), the rest n
CANNED = {
    "full": full_algebra,
    "upper": upper_triangular_algebra,
    "diag": diagonal_algebra,
    "blockupper": block_upper_algebra,
}


def span_algebra(mats, tol: Tolerances = DEFAULT_TOL, label: str = "span") -> MatrixAlgebra:
    """Algebra from an explicit spanning set; the span must be product-closed."""
    mats = [as_matrix(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise ValueError("span matrices must share one ambient dimension")
    basis = orthonormalize(mats)
    if basis.shape[0] == 0:
        raise ValueError("span is empty")
    alg = _algebra(basis, label, tol)
    if alg.dim == alg.ambient_dim ** 2:  # all of M_n, closed by definition
        return alg
    defect = alg.closure_defect()
    if defect > CLOSURE_TOL:
        raise ValueError(
            f"span is not closed under multiplication (residual {defect:.2e}); "
            "use generate_algebra instead"
        )
    return alg


def algebra_from_name(name: str) -> MatrixAlgebra:
    """Resolve canned names: full:n, upper:n, diag:n, blockupper:n1,n2.

    The ambient dimension is checked against ``REALPOS_MAX_DIM`` before the
    basis (n**2 matrices of size n for ``full:n``) is built.
    """
    kind, _, arg = name.partition(":")
    if kind not in CANNED:
        raise ValueError(f"unknown algebra name {name!r}")
    malformed = f"malformed algebra name {name!r}"
    try:
        dims = [int(s) for s in arg.split(",")]
    except ValueError as exc:
        raise ValueError(malformed) from exc
    if len(dims) != (2 if kind == "blockupper" else 1):
        raise ValueError(malformed)
    check_dim(sum(dims), f"algebra {name!r}")
    try:
        return CANNED[kind](*dims)
    except (TypeError, ValueError) as exc:
        raise ValueError(malformed) from exc


def algebra_to_json(a: MatrixAlgebra) -> dict:
    return {
        "ambient": a.ambient_dim,
        "basis": [matrix_to_json(b) for b in a.basis],
        "contains_identity": a.contains_identity,
        "label": a.label,
    }


def algebra_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """Algebra from its JSON; every matrix is held to ``REALPOS_MAX_DIM``
    before the span or the generated algebra is built."""
    if not isinstance(data, dict):
        raise ValueError(f"algebra JSON must be an object, got {type(data).__name__}")
    for key in ("basis", "generators"):
        if key in data and not isinstance(data[key], list):
            raise ValueError(f"algebra JSON field {key!r} must be a list of matrices")
    label = data.get("label", "span" if "basis" in data else "")
    if not isinstance(label, str):
        raise ValueError("algebra JSON field 'label' must be a string")
    mats = [matrix_from_json(m) for m in data.get("basis", data.get("generators", []))]
    for m in mats:
        check_dim(m.shape[0], "an algebra matrix")
    if "basis" in data:
        return span_algebra(mats, tol, label=label)
    if "generators" in data:
        with_identity = data.get("with_identity", False)
        if not isinstance(with_identity, bool):
            raise ValueError("algebra JSON field 'with_identity' must be true or false")
        return generate_algebra(
            mats,
            mode=data.get("mode", "algebra"),
            with_identity=with_identity,
            tol=tol,
            label=label,
        )
    raise ValueError("algebra JSON needs either 'basis' or 'generators'")
