"""Seeded random instance generators for tests, suites and the CLI.

All randomness flows through ``numpy.random.default_rng(seed)``; identical
seeds give identical instances.  The ambient dimension is an integer from 1
to ``MAX_DIM`` (16).
"""
from __future__ import annotations

import numpy as np

from .algebra import CANNED, MatrixAlgebra, generate_algebra
from .matrices import DEFAULT_TOL, MAX_DIM, Tolerances, _linalg, check_dim, dagger, op_norm
from .transforms import f_transform

__all__ = [
    "MAX_DIM",
    "gen_accretive",
    "gen_half_f",
    "gen_peaked_half_f",
    "gen_sectorial",
    "gen_unitary",
    "gen_algebra",
    "ALGEBRA_KINDS",
]

ALGEBRA_KINDS = ("full", "diag", "upper", "blockupper", "oa")


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def gen_accretive(
    n: int,
    seed: int,
    min_margin: float = 0.0,
    rank: int | None = None,
) -> np.ndarray:
    """Random accretive matrix H + iK, rescaled to norm <= 2.

    H is Wishart-style PSD (of the requested rank), K random Hermitian.
    ``min_margin`` shifts the Hermitian part so lambda_min(Re) >= min_margin
    (incompatible with a rank constraint).
    """
    check_dim(n, "a generated matrix")
    if rank is not None and min_margin > 0.0:
        raise ValueError("min_margin and rank cannot be combined")
    rng = np.random.default_rng(seed)
    k = n if rank is None else max(1, min(rank, n))
    g = _ginibre(rng, n, k)
    h = g @ dagger(g) / k
    s = _ginibre(rng, n, n)
    herm = (s + dagger(s)) / 2.0
    if rank is not None and rank < n:
        # keep the kernel of H inside the kernel of the whole matrix
        w, v = _linalg.eigh(h)
        keep = w > 1e-12 * max(w[-1], 1e-300)
        p = v[:, keep] @ dagger(v[:, keep])
        herm = p @ herm @ p
    x = h + 1j * herm
    norm = op_norm(x)
    if norm > 2.0:
        x = 2.0 * x / norm
    if min_margin > 0.0:
        x = (1.0 - min_margin / 2.0) * x + min_margin * np.eye(n)
        norm = op_norm(x)
        if norm > 2.0:
            x = 2.0 * x / norm  # margin scales with the matrix, stays >= min_margin/2
    return x


def gen_half_f(n: int, seed: int) -> np.ndarray:
    """Random strict contraction in half-F, as the transform of an accretive
    matrix (exact coverage of that set)."""
    return f_transform(gen_accretive(n, seed))


def gen_peaked_half_f(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random norm-1 element x of half-F together with its peak projection.

    Built as U (I_k + T) U* with T a strict half-F contraction on the
    complement; the peak projection is the U-rotated rank-k corner.
    """
    check_dim(n, "a generated matrix")
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial peak")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    t = gen_half_f(n - k, seed + 1)
    u = gen_unitary(n, seed + 2)
    block = np.zeros((n, n), dtype=complex)
    block[:k, :k] = np.eye(k)
    block[k:, k:] = t
    q = np.zeros((n, n), dtype=complex)
    q[:k, :k] = np.eye(k)
    return u @ block @ dagger(u), u @ q @ dagger(u)


def gen_sectorial(
    n: int, seed: int, rho: float, rank: int | None = None
) -> np.ndarray:
    """Random matrix with numerical range in the sector of angle rho.

    Built as h^{1/2} (1 + ic) h^{1/2} with h PSD (optionally rank-deficient)
    and ||c|| <= tan(rho).
    """
    check_dim(n, "a generated matrix")
    if not 0.0 <= rho < np.pi / 2.0:
        raise ValueError("rho must be in [0, pi/2)")
    rng = np.random.default_rng(seed)
    k = n if rank is None else max(1, min(rank, n))
    g = _ginibre(rng, n, k)
    h = g @ dagger(g) / k
    w, v = _linalg.eigh(h)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ dagger(v)
    s = _ginibre(rng, n, n)
    c = (s + dagger(s)) / 2.0
    cn = op_norm(c)
    if cn > 0:
        c = c * (0.99 * np.tan(rho) / cn)
    x = root @ (np.eye(n) + 1j * c) @ root
    norm = op_norm(x)
    if norm > 2.0:
        x = 2.0 * x / norm
    return x


def gen_unitary(n: int, seed: int) -> np.ndarray:
    check_dim(n, "a generated matrix")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gen_algebra(kind: str, n: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> MatrixAlgebra:
    """Canned unital test algebras plus the singly generated oa(x)."""
    check_dim(n, "a generated algebra")
    if kind == "oa":
        x = gen_accretive(n, seed)
        return generate_algebra([x], mode="algebra", with_identity=False, tol=tol, label=f"oa:{n}")
    if kind not in CANNED:
        raise ValueError(f"unknown algebra kind {kind!r}; choose from {ALGEBRA_KINDS}")
    n1 = max(1, n // 2)
    return CANNED[kind](*((n1, n - n1) if kind == "blockupper" else (n,)))
