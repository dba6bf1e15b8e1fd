"""Finite-dimensional operator algebras A inside M_n.

An algebra is stored as an orthonormal basis under the trace inner product
``<X, Y> = tr(Y* X)``.  Construction is by span closure of words in a set of
generators; membership, unitization, matrix amplification and the largest
unital corner ``q A q`` are all computed against that basis.

The real coordinates of ``x = sum_j c_j b_j`` are ``u = (Re c, Im c)``;
``real_matrix`` is the one writer of that layout for real-linear maps on A.

Algebra JSON is either ``{"ambient": n, "basis": [matrix, ...]}`` or
``{"generators": [matrix, ...], "mode": "algebra"|"cstar",
"with_identity": bool}`` with matrices in the matrix JSON format.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    check_dim,
    dagger,
    frob_norm,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .projections import _kernel_complement_projection

__all__ = [
    "MatrixAlgebra",
    "orthonormalize",
    "generate_algebra",
    "contains",
    "identity_of",
    "unitize",
    "a_h",
    "amplify",
    "hermitian_elements",
    "real_matrix",
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


def orthonormalize(mats, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of span(mats) by modified Gram-Schmidt.

    One re-orthogonalization pass; directions whose residual falls below
    ``rank_tol`` (relative to max(1, original norm)) are dropped.  Returns a
    ``(dim, n, n)`` array.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    n = mats[0].shape[0]
    rows: list[np.ndarray] = []  # flattened orthonormal vectors
    for m in mats:
        v = m.reshape(-1).copy()
        scale = float(np.linalg.norm(v))
        if scale <= rank_tol:
            continue
        for _ in range(2):
            if rows:
                b = np.array(rows)
                v = v - b.T @ (np.conj(b) @ v)
        r = float(np.linalg.norm(v))
        if r > rank_tol * max(1.0, scale):
            rows.append(v / r)
    if not rows:
        return np.zeros((0, n, n), dtype=complex)
    return np.array(rows).reshape(len(rows), n, n)


@dataclass
class MatrixAlgebra:
    """A span-closed subalgebra of M_n given by an orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray  # (dim, n, n), orthonormal in the trace inner product
    contains_identity: bool
    label: str = ""

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
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
        return np.tensordot(np.conj(self.basis), np.asarray(m, complex), axes=2)

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim,) * 2, dtype=complex)
        return np.tensordot(np.asarray(c, complex), self.basis, axes=1)

    def project(self, m: np.ndarray) -> np.ndarray:
        return self.reconstruct(self.coords(m))

    def gram_defect(self) -> float:
        """How far the basis is from orthonormal."""
        if self.dim == 0:
            return 0.0
        flat = self.basis.reshape(self.dim, -1)
        g = np.conj(flat) @ flat.T
        return float(np.abs(g - np.eye(self.dim)).max())

    def closure_defect(self) -> float:
        """Largest residual of a basis product outside the span."""
        worst = 0.0
        for bi in self.basis:
            for bj in self.basis:
                p = bi @ bj
                worst = max(worst, op_norm(p - self.project(p)))
        return worst


def contains(
    a: MatrixAlgebra, m, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Membership of m in span(a.basis); returns (verdict, residual)."""
    m = as_matrix(m)
    if m.shape[0] != a.ambient_dim:
        raise ValueError("dimension mismatch between algebra and matrix")
    residual = op_norm(m - a.project(m))
    return residual <= tol.eq_tol * max(1.0, op_norm(m)), residual


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
    ambient identity.  Stabilization is detected when one full product sweep
    adds no new span dimension.
    """
    if mode not in ("algebra", "cstar"):
        raise ValueError(f"unknown mode {mode!r}")
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise ValueError("generators must share one ambient dimension")

    seed = list(gens)
    if mode == "cstar":
        seed += [dagger(g) for g in gens]
    if with_identity:
        seed.append(np.eye(n, dtype=complex))

    basis = orthonormalize(seed)
    while 0 < basis.shape[0] < n * n:  # zero generators generate the zero algebra
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, n, n)
        new = orthonormalize(list(basis) + list(products))
        if new.shape[0] == basis.shape[0]:
            basis = new
            break
        basis = new

    alg = MatrixAlgebra(n, basis, contains_identity=False, label=label)
    alg.contains_identity = contains(alg, np.eye(n), tol)[0]
    return alg


def identity_of(a: MatrixAlgebra, tol: Tolerances = DEFAULT_TOL):
    """The two-sided identity of A, or None.

    Solves the linear system ``e b = b e = b`` over the coordinates of A by
    least squares, then verifies the residuals against ``eq_tol``.
    """
    d = a.dim
    if d == 0:
        return None
    basis = a.basis
    # products[k, :, i] = (b_i b_k, b_k b_i): b_i acting on b_k from the left and the right
    products = np.stack([basis[None] @ basis[:, None], basis[:, None] @ basis[None]], axis=1)
    system = np.moveaxis(products, 2, -1).reshape(-1, d)
    target = np.stack([basis, basis], axis=1).reshape(-1)
    c, *_ = np.linalg.lstsq(system, target, rcond=None)
    e = a.reconstruct(c)
    worst = max(
        max(op_norm(e @ b - b), op_norm(b @ e - b)) for b in a.basis
    )
    return e if worst <= tol.eq_tol else None


def unitize(a: MatrixAlgebra, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """Adjoin the ambient identity; idempotent when I is already in A."""
    n = a.ambient_dim
    basis = orthonormalize(list(a.basis) + [np.eye(n, dtype=complex)])
    label = a.label + "^1" if a.label and not a.contains_identity else a.label
    return MatrixAlgebra(n, basis, contains_identity=True, label=label)


def amplify(a: MatrixAlgebra, k: int, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """The algebra of k x k block matrices with blocks in A."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    n = a.ambient_dim
    check_dim(k * n, f"the {k}-fold amplification")
    units = np.zeros((k, k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            units[i, j, i, j] = 1.0
    basis = [np.kron(units[i, j], b) for i in range(k) for j in range(k) for b in a.basis]
    if not basis:
        return MatrixAlgebra(k * n, np.zeros((0, k * n, k * n), complex), False, a.label)
    return MatrixAlgebra(
        k * n,
        np.array(basis),
        contains_identity=a.contains_identity,
        label=f"M_{k}({a.label})" if a.label else "",
    )


def _to_real(z: np.ndarray) -> np.ndarray:
    """The real vector (Re, Im) of a complex array, flattened."""
    flat = np.asarray(z, complex).reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _from_real(v: np.ndarray, shape) -> np.ndarray:
    """The complex array of the given shape whose real vector is v."""
    half = v.size // 2
    return (v[:half] + 1j * v[half:]).reshape(shape)


def real_matrix(linear: np.ndarray, antilinear: np.ndarray) -> np.ndarray:
    """Real matrix of ``sum_j c_j b_j -> sum_j c_j L_j + conj(c_j) K_j``.

    ``linear[j] = L_j`` and ``antilinear[j] = K_j`` are stacks of one shape.
    The result, ``(2 * size, 2 * dim)``, takes u = (Re c, Im c) to the real
    vector of the value: columns of b_j (L_j + K_j), then of i b_j (i (L_j - K_j)).
    """
    cols = np.concatenate([linear + antilinear, 1j * (linear - antilinear)])
    cols = cols.reshape(len(cols), int(np.prod(cols.shape[1:])))
    return np.concatenate([cols.real, cols.imag], axis=1).T


def hermitian_elements(a: MatrixAlgebra) -> list[np.ndarray]:
    """A real basis of {x in A : x = x*}."""
    d = a.dim
    if d == 0:
        return []
    # the kernel of x -> x - x* in real coordinates
    _, s, vt = np.linalg.svd(real_matrix(a.basis, -dagger(a.basis)))
    null = vt[s <= RANK_TOL * max(1.0, s[0])]
    out = []
    for u in null:
        x = a.reconstruct(_from_real(u, (d,)))
        x = (x + dagger(x)) / 2.0
        if frob_norm(x) > 1e-8:
            out.append(x / frob_norm(x))
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
    label = (a.label + "_H") if a.label else ""
    if a.dim == 0:
        return MatrixAlgebra(n, np.zeros((0, n, n), complex), False, label), q
    herm = hermitian_elements(a)
    if herm:
        # range [h_1 ... h_k] = ker([h_1 ... h_k]*)^perp
        q = _kernel_complement_projection(dagger(np.hstack(herm)))
        ok, residual = contains(a, q, tol)
        if not ok:
            raise ArithmeticError(
                "the range projection of the Hermitian elements of A is not in A "
                f"(residual {residual:.2e})"
            )
    corner = orthonormalize([q @ b @ q for b in a.basis])
    ah = MatrixAlgebra(
        n,
        corner,
        contains_identity=bool(op_norm(q - np.eye(n)) <= tol.eq_tol),
        label=label,
    )
    return ah, q


# -- canned algebras ---------------------------------------------------------


def _units(n: int, pairs) -> np.ndarray:
    basis = []
    for i, j in pairs:
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        basis.append(e)
    return np.array(basis)


def full_algebra(n: int) -> MatrixAlgebra:
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return MatrixAlgebra(n, _units(n, pairs), True, f"full:{n}")


def diagonal_algebra(n: int) -> MatrixAlgebra:
    return MatrixAlgebra(n, _units(n, [(i, i) for i in range(n)]), True, f"diag:{n}")


def upper_triangular_algebra(n: int) -> MatrixAlgebra:
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return MatrixAlgebra(n, _units(n, pairs), True, f"upper:{n}")


def block_upper_algebra(n1: int, n2: int) -> MatrixAlgebra:
    n = n1 + n2
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if not (i >= n1 and j < n1)
    ]
    return MatrixAlgebra(n, _units(n, pairs), True, f"blockupper:{n1},{n2}")


def span_algebra(mats, tol: Tolerances = DEFAULT_TOL, label: str = "span") -> MatrixAlgebra:
    """Algebra from an explicit spanning set; the span must be product-closed."""
    basis = orthonormalize([as_matrix(m) for m in mats])
    if basis.shape[0] == 0:
        raise ValueError("span is empty")
    alg = MatrixAlgebra(basis.shape[1], basis, False, label)
    defect = alg.closure_defect()
    if defect > CLOSURE_TOL:
        raise ValueError(
            f"span is not closed under multiplication (residual {defect:.2e}); "
            "use generate_algebra instead"
        )
    alg.contains_identity = contains(alg, np.eye(alg.ambient_dim), tol)[0]
    return alg


def algebra_from_name(name: str) -> MatrixAlgebra:
    """Resolve canned names: full:n, upper:n, diag:n, blockupper:n1,n2.

    The ambient dimension is checked against ``REALPOS_MAX_DIM`` before the
    basis (n**2 matrices of size n for ``full:n``) is built.
    """
    builders = {
        "full": full_algebra,
        "upper": upper_triangular_algebra,
        "diag": diagonal_algebra,
        "blockupper": block_upper_algebra,
    }
    kind, _, arg = name.partition(":")
    if kind not in builders:
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
        return builders[kind](*dims)
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
        return generate_algebra(
            mats,
            mode=data.get("mode", "algebra"),
            with_identity=bool(data.get("with_identity", False)),
            tol=tol,
            label=label,
        )
    raise ValueError("algebra JSON needs either 'basis' or 'generators'")
