"""Cayley and fractional-linear transforms between accretive matrices and
strict contractions.

``f_transform`` maps the accretive matrices bijectively onto the strict
contractions satisfying ||1 - 2T|| <= 1; ``f_inverse`` is its inverse
T -> T (1 - T)^{-1}.
"""
from __future__ import annotations

import warnings

import numpy as np

from .cones import _in_f
from .matrices import DEFAULT_TOL, Tolerances, _norm_floor_one, _within, as_matrix, op_norm, solve

__all__ = ["cayley", "f_transform", "f_inverse"]


def cayley(x) -> np.ndarray:
    """Cayley transform (x - 1)(x + 1)^{-1}; a contraction for accretive x."""
    x = as_matrix(x)
    eye = np.eye(x.shape[0], dtype=complex)
    # x - 1 and (x + 1)^{-1} commute, so left division is the same matrix.
    return solve(x + eye, x - eye)


def f_transform(x) -> np.ndarray:
    """x (x + 1)^{-1}, equal to (1 + cayley(x)) / 2.

    Both forms come from one factorization of x + 1, and each has the bits
    of its own solve.
    """
    x = as_matrix(x)
    eye = np.eye(x.shape[0], dtype=complex)
    value, cay = solve(x + eye, np.stack([x, x - eye]))
    alt = (eye + cay) / 2.0
    if not _within(value - alt, 1e-10 * _norm_floor_one(value)):
        raise ArithmeticError(
            "resolvent and Cayley forms of the transform disagree; "
            "input is badly conditioned"
        )
    return value


def f_inverse(t, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse transform T (1 - T)^{-1}.

    Requires ||T|| < 1; warns (rather than failing) when T is not in the
    half-F set, in which case the output need not be accretive.
    """
    t = as_matrix(t)
    eye = np.eye(t.shape[0], dtype=complex)
    # ||T|| < 1 - eq_tol, as a verdict; the norm is computed for the message
    if not _within(t, np.nextafter(1.0 - tol.eq_tol, -np.inf)):
        raise ValueError(f"inverse transform needs ||T|| < 1, got {op_norm(t):.6f}")
    if not _in_f(2.0 * t, tol):
        warnings.warn(
            "input is outside the half-F set; the inverse transform is "
            "defined but its output may not be accretive",
            RuntimeWarning,
        )
    return solve(eye - t, t)
