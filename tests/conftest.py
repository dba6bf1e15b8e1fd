from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest

from realpos.matrices import DEFAULT_TOL


@pytest.fixture
def tol():
    return DEFAULT_TOL


@contextlib.contextmanager
def returns_of(fn):
    """Collect what each run of fn's code returns, however it is reached
    (module global, table entry or stored reference)."""
    code, returned = fn.__code__, []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code:
            returned.append(arg)

    sys.setprofile(profile)
    try:
        yield returned
    finally:
        sys.setprofile(None)


def unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


@pytest.fixture
def e11():
    return unit(2, 0, 0)


@pytest.fixture
def e12():
    return unit(2, 0, 1)


@pytest.fixture
def lemerdy():
    """The 2x2 accretive contraction whose roots leave the unit ball."""
    return np.array([[1.0, 1.0j], [1.0j, 0.0]], dtype=complex)
