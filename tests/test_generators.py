from __future__ import annotations

import numpy as np
import pytest

from realpos.algebra import identity_of
from realpos.cones import f_membership, is_accretive, sector_angle
from realpos.generators import (
    gen_accretive,
    gen_algebra,
    gen_half_f,
    gen_peaked_half_f,
    gen_sectorial,
    gen_unitary,
    MAX_DIM,
)
from realpos.matrices import dagger, min_real_eig, op_norm


def test_gen_accretive_many_seeds():
    for seed in range(1000):
        x = gen_accretive(2, seed)
        assert is_accretive(x)[0]
        assert op_norm(x) <= 2.0 + 1e-12


def test_gen_accretive_options():
    x = gen_accretive(5, 3, min_margin=0.1)
    assert min_real_eig(x) >= 0.05
    x = gen_accretive(5, 4, rank=3)
    w = np.linalg.eigvalsh(x + dagger(x))
    assert (w <= 1e-10).sum() >= 2
    with pytest.raises(ValueError):
        gen_accretive(5, 0, min_margin=0.1, rank=2)
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}"):
        gen_accretive(MAX_DIM + 1, 0)
    with pytest.raises(ValueError, match="at least 1"):
        gen_accretive(0, 0)


def test_gen_accretive_deterministic():
    assert np.array_equal(gen_accretive(4, 42), gen_accretive(4, 42))


def test_gen_half_f():
    for seed in range(200):
        t = gen_half_f(3, seed)
        assert f_membership(t).in_half_f
        assert op_norm(t) < 1.0


def test_gen_peaked_half_f():
    for seed in range(50):
        x, q = gen_peaked_half_f(4, seed)
        assert op_norm(x) == pytest.approx(1.0, abs=1e-10)
        assert f_membership(x).in_half_f
        assert op_norm(q @ q - q) <= 1e-12
        assert op_norm(x @ q - q) <= 1e-10


def test_gen_sectorial():
    for seed in range(50):
        rho = 0.2 + 0.1 * (seed % 5)
        x = gen_sectorial(3, seed, rho)
        angle = sector_angle(x)
        assert angle is not None and angle <= rho + 1e-8


def test_gen_unitary():
    u = gen_unitary(4, 8)
    assert op_norm(u @ dagger(u) - np.eye(4)) <= 1e-12


def test_gen_algebra():
    alg = gen_algebra("diag", 3, 0)
    assert alg.dim == 3 and alg.contains_identity
    basis = alg.basis
    assert all(op_norm(a @ b - b @ a) <= 1e-12 for a in basis for b in basis)
    oa = gen_algebra("oa", 3, 1)
    assert identity_of(oa) is not None
    with pytest.raises(ValueError):
        gen_algebra("bogus", 3, 0)


def test_max_dim_is_a_constant(monkeypatch):
    # the environment neither lifts the cap nor lowers it
    monkeypatch.setenv("REALPOS_MAX_DIM", "64")
    with pytest.raises(ValueError, match="at most 16; got 17"):
        gen_accretive(17, 0)
    monkeypatch.setenv("REALPOS_MAX_DIM", "4")
    assert gen_accretive(5, 0).shape == (5, 5)


GENERATORS = {
    "gen_accretive": lambda n: gen_accretive(n, 0),
    "gen_half_f": lambda n: gen_half_f(n, 0),
    "gen_peaked_half_f": lambda n: np.stack(gen_peaked_half_f(n, 0)),
    "gen_sectorial": lambda n: gen_sectorial(n, 0, 0.5),
    "gen_unitary": lambda n: gen_unitary(n, 0),
    "gen_algebra": lambda n: gen_algebra("upper", n, 0).basis,
}


@pytest.mark.parametrize("name", GENERATORS)
def test_a_dimension_must_be_an_integer(name):
    # each raised a TypeError from numpy, but True in gen_peaked_half_f,
    # which was read as n = 1
    gen = GENERATORS[name]
    for n in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=r"^the dimension of a generated (matrix|algebra) must be an integer"):
            gen(n)
    want = gen(3).tobytes()
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert gen(n).tobytes() == want
