from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos.algebra import (
    RANK_TOL,
    MatrixAlgebra,
    _extend,
    a_h,
    algebra_from_json,
    algebra_from_name,
    algebra_to_json,
    amplify,
    contains,
    cstar,
    diagonal_algebra,
    full_algebra,
    generate_algebra,
    hermitian_elements,
    identity_of,
    orthonormalize,
    span_algebra,
    unitize,
    upper_triangular_algebra,
)
from realpos.generators import gen_accretive, gen_algebra, gen_unitary
from realpos.matrices import (
    SINGULAR_RTOL,
    ZERO_FLOOR,
    _kernel_complement_projection,
    _unit_defect,
    dagger,
    op_norm,
)
from realpos.projections import hsa_and_ideal

from conftest import unit


def test_generate_nilpotent(e12):
    alg = generate_algebra([e12], mode="algebra")
    assert alg.dim == 1


def test_generate_cstar_is_full(e12):
    alg = generate_algebra([e12], mode="cstar")
    assert alg.dim == 4
    assert alg.contains_identity


def test_generate_scalar():
    alg = generate_algebra([np.eye(2)], mode="algebra")
    assert alg.dim == 1


def test_generate_idempotent():
    rng = np.random.default_rng(3)
    x = gen_accretive(3, 5)
    alg = generate_algebra([x], mode="algebra")
    again = generate_algebra(list(alg.basis), mode="algebra")
    assert again.dim == alg.dim
    worst = max(op_norm(b - again.project(b)) for b in alg.basis)
    assert worst <= 1e-8


def test_contains(e11, e12):
    nil = span_algebra([e12])
    ok, res = contains(nil, e12)
    assert ok and res <= 1e-12
    ok, res = contains(nil, e11)
    assert not ok and res == pytest.approx(1.0)
    full = full_algebra(2)
    ok, res = contains(full, np.array([[1.0, 2j], [3.0, 4.0]]))
    assert ok and res <= 1e-12


def test_identity_of(e11, e12):
    assert np.allclose(identity_of(upper_triangular_algebra(2)), np.eye(2))
    assert identity_of(span_algebra([e12])) is None
    assert np.allclose(identity_of(span_algebra([e11])), e11)


def test_identity_of_needs_a_right_identity_too(e11, e12):
    assert identity_of(span_algebra([e11, e12])) is None  # E11 is only a left identity
    assert identity_of(span_algebra([e12])) is None
    skew = np.array([[1.0, 10.0], [0.0, 0.0]], dtype=complex)  # an idempotent, not a projection
    assert np.abs(identity_of(span_algebra([skew])) - skew).max() <= 1e-12


def _peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_cap_size_algebras_build_no_product_stacks():
    # the whole product stacks (2 d^2 and d^2 products) would take 512 MB and 16 MB
    full16, full10 = full_algebra(16), full_algebra(10)
    assert _peak_traced_mb(lambda: identity_of(full16)) < 32
    assert _peak_traced_mb(full10.closure_defect) < 8


def test_unitize(e11, e12):
    alg = unitize(span_algebra([e12]))
    assert alg.dim == 2 and alg.contains_identity
    assert unitize(full_algebra(2)).dim == 4
    grown = unitize(span_algebra([e11]))
    assert grown.dim == 2
    assert contains(grown, unit(2, 1, 1))[0]


@pytest.mark.parametrize("name", ["full:3", "upper:4", "blockupper:2,3"])
def test_unitize_returns_a_unital_algebra_itself(name):
    # Adjoining I to an algebra that holds it would rebuild the same basis
    # bits (_extend adds nothing and keeps the accepted rows), so A itself
    # comes back, and every contains residual against it is unchanged.
    a = algebra_from_name(name)
    assert a.contains_identity and unitize(a) is a
    n, d = a.ambient_dim, a.dim
    rows = np.concatenate([a.basis.reshape(d, n * n), np.empty((1, n * n))])
    assert _extend(rows, d, np.eye(n, dtype=complex).reshape(1, n * n)) == d


def test_gram_and_closure_invariants():
    for alg in (upper_triangular_algebra(3), diagonal_algebra(4), full_algebra(2)):
        assert alg.gram_defect() <= 1e-10
        assert alg.closure_defect() <= 1e-8


def test_a_h_worked_examples(e11, e12):
    ah, q = a_h(upper_triangular_algebra(2), seed=0)
    assert op_norm(q - np.eye(2)) <= 1e-8
    assert ah.dim == 3

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ah, q = a_h(span_algebra([e12]), seed=0)
    assert op_norm(q) <= 1e-10 and ah.dim == 0

    ah, q = a_h(span_algebra([e11, e12]), seed=0)
    assert op_norm(q - e11) <= 1e-8
    assert ah.dim == 1
    assert contains(ah, e11)[0]


@pytest.mark.parametrize("n", [4, 5])
def test_a_h_finds_projection_beside_nilpotent(n):
    # A = alg{N, E11} with N strictly upper all-ones: q = E11, A_H = span{E11}
    nil = np.triu(np.ones((n, n), complex), 1)
    e11 = unit(n, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ah, q = a_h(generate_algebra([nil, e11]))
    assert op_norm(q - e11) <= 1e-10
    assert ah.dim == 1 and contains(ah, e11)[0]


def test_a_h_of_accretive_generator_is_unit():
    # A10: the algebra generated by an accretive x has an identity, and q is it
    for k in range(10):
        n = 2 + k % 5
        alg = generate_algebra([gen_accretive(n, 211 + k)], mode="algebra")
        ah, q = a_h(alg)
        assert op_norm(q - identity_of(alg)) <= 1e-8
        assert ah.dim == alg.dim


def test_a_h_svds_return_nothing_larger_than_their_matrix(monkeypatch):
    # a_h factors tall matrices: the real (2 n^2, 2 d) matrix of x -> x - x*
    # and the (n k, n) stack of the k Hermitian elements' adjoints.  A full
    # SVD of the (64, 4) stack of full:4 alone would return a 64 x 64 U.
    svd, seen = np.linalg.svd, []

    def checked(m, *args, **kwargs):
        out = svd(m, *args, **kwargs)
        seen.append((np.shape(m), [np.shape(o) for o in (out if isinstance(out, tuple) else (out,))]))
        return out

    monkeypatch.setattr(np.linalg, "svd", checked)
    for name in ("full:4", "upper:4", "blockupper:2,2", "full:8"):
        alg = algebra_from_name(name)
        seen.clear()
        a_h(alg)
        assert any(shape[0] > shape[-1] for shape, _ in seen), name  # a tall input was factored
        for shape, outs in seen:
            assert all(np.prod(o) <= np.prod(shape) for o in outs), (name, shape, outs)


def _full_svd_kernel_complement(m):
    """_kernel_complement_projection from the full SVD, whose U it never reads."""
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    norm = float(s[0]) if s.size else 0.0
    if norm <= ZERO_FLOOR:
        return np.zeros_like(m), norm
    vt = vh[s > SINGULAR_RTOL * s[0]]
    return dagger(vt) @ vt, norm


def test_kernel_complement_projection_keeps_the_full_svd_bits(e11, e12):
    inputs = []
    for alg in (*(algebra_from_name(name) for name in ("full:4", "upper:4", "blockupper:2,2", "diag:4", "full:8")),
                span_algebra([e11, e12]), generate_algebra([np.triu(np.ones((5, 5), complex), 1), unit(5, 0, 0)]),
                *(generate_algebra([gen_accretive(n, 300 + n)]) for n in range(2, 7))):
        inputs.append(dagger(np.hstack(hermitian_elements(alg))))  # the stack a_h factors
    for n in range(2, 9):
        for seed in range(3):
            inputs += [gen_accretive(n, seed), gen_accretive(n, seed, rank=max(1, n // 2))]
    inputs += [np.zeros((4, 4), complex), np.zeros((16, 4), complex)]
    for m in inputs:
        p, norm = _kernel_complement_projection(m)
        want_p, want_norm = _full_svd_kernel_complement(m)
        assert np.array_equal(p, want_p) and norm == want_norm, m.shape


def test_hermitian_elements(e12):
    cases = [(algebra_from_name("diag:3"), 3), (algebra_from_name("upper:2"), 2),
             (algebra_from_name("full:2"), 4), (algebra_from_name("blockupper:1,2"), 5),
             (span_algebra([e12]), 0)]
    for alg, count in cases:
        herm = hermitian_elements(alg)
        assert len(herm) == count, alg.label
        for h in herm:
            assert op_norm(h - h.conj().T) <= 1e-12
            assert contains(alg, h)[0], alg.label


def _reference_algebras():
    u = gen_unitary(3, 2)
    conjugated = generate_algebra([u @ b @ dagger(u) for b in algebra_from_name("upper:3").basis])
    return [algebra_from_name(name) for name in ("diag:4", "upper:3", "full:2", "blockupper:2,2")] + [
        conjugated, generate_algebra([gen_accretive(3, 5)], with_identity=True),
        generate_algebra([gen_accretive(4, 6), gen_accretive(4, 7)])]


def test_identity_of_and_hermitian_elements_match_their_loop_references():
    for alg in _reference_algebras():
        d = alg.dim
        # identity_of's d x d normal equations of e b_k = b_k, from their
        # definitions: W = sum_k b_k b_k*, G[j, i] = <b_i W, b_j>, h[j] = <W, b_j>.
        # BLAS sums W and G in its own order, so they agree to rounding.
        w = sum(b @ b.conj().T for b in alg.basis)
        gram = np.array([[np.vdot(bj, bi @ w) for bi in alg.basis] for bj in alg.basis])
        c, *_ = np.linalg.lstsq(gram, np.array([np.vdot(bj, w) for bj in alg.basis]), rcond=None)
        e = identity_of(alg)
        assert e is not None and np.abs(e - alg.reconstruct(c)).max() <= 1e-13, alg.label
        # the two-sided least squares e b = b e = b over all 2 d^2 products
        rows, rhs = [], []
        for b in alg.basis:
            rows += [np.array([bi @ b for bi in alg.basis]).reshape(d, -1).T,
                     np.array([b @ bi for bi in alg.basis]).reshape(d, -1).T]
            rhs += [b.reshape(-1), b.reshape(-1)]
        c, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
        assert np.abs(e - alg.reconstruct(c)).max() <= 1e-12, alg.label

        cols = []
        for direction in (*alg.basis, *(1j * alg.basis)):
            v = (direction - direction.conj().T).reshape(-1)
            cols.append(np.concatenate([v.real, v.imag]))
        _, s, vt = np.linalg.svd(np.array(cols).T)
        expected = []
        for v in vt[s <= 1e-10 * max(1.0, s[0])]:
            x = alg.reconstruct(v[:d] + 1j * v[d:])
            x = (x + x.conj().T) / 2.0
            if np.linalg.norm(x) > 1e-8:
                expected.append(x / np.linalg.norm(x))
        herm = hermitian_elements(alg)
        assert len(herm) == len(expected) and all(map(np.array_equal, herm, expected)), alg.label


_E11, _E12, _ZERO = unit(2, 0, 0), unit(2, 0, 1), np.zeros((2, 2), complex)
# every library constructor, with unital and non-unital results
_CONSTRUCTED = {
    **{name: (lambda name=name: algebra_from_name(name))
       for name in ("full:3", "upper:3", "diag:4", "blockupper:2,2", "blockupper:1,2")},
    "gen_algebra blockupper:1,0": lambda: gen_algebra("blockupper", 1, 0),
    "gen_algebra oa:3": lambda: gen_algebra("oa", 3, 5),
    "generate accretive": lambda: generate_algebra([gen_accretive(3, 5)]),
    "generate nilpotent": lambda: generate_algebra([_E12]),
    "generate cstar": lambda: generate_algebra([_E12], mode="cstar"),
    "generate with identity": lambda: generate_algebra([_E12], with_identity=True),
    "generate zero": lambda: generate_algebra([_ZERO]),
    "generate zero cstar": lambda: generate_algebra([_ZERO], mode="cstar"),
    "span{E12}": lambda: span_algebra([_E12]),
    "span{E11,E12}": lambda: span_algebra([_E11, _E12]),
    "span{I}": lambda: span_algebra([np.eye(2)]),
    "unitize span{E12}": lambda: unitize(span_algebra([_E12])),
    "unitize full:2": lambda: unitize(full_algebra(2)),
    "amplify span{E12}": lambda: amplify(span_algebra([_E12]), 2),
    "amplify upper:2": lambda: amplify(upper_triangular_algebra(2), 3),
    "amplify zero": lambda: amplify(generate_algebra([_ZERO]), 2),
    "a_h upper:2": lambda: a_h(upper_triangular_algebra(2))[0],
    "a_h span{E11,E12}": lambda: a_h(span_algebra([_E11, _E12]))[0],
    "a_h span{E12}": lambda: a_h(span_algebra([_E12]))[0],
    "hsa full:2": lambda: hsa_and_ideal(full_algebra(2), _E11)[0],
    "ideal full:2": lambda: hsa_and_ideal(full_algebra(2), _E11)[1],
    "hsa upper:2": lambda: hsa_and_ideal(upper_triangular_algebra(2), np.eye(2))[0],
    "ideal upper:2": lambda: hsa_and_ideal(upper_triangular_algebra(2), np.eye(2))[1],
    "cstar upper:2": lambda: cstar(upper_triangular_algebra(2)),
}


@pytest.mark.parametrize("build", _CONSTRUCTED.values(), ids=_CONSTRUCTED.keys())
def test_every_constructor_decides_the_identity_by_one_rule(build):
    alg = build()
    assert alg.contains_identity == contains(alg, np.eye(alg.ambient_dim))[0]
    for f in dataclasses.fields(alg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(alg, f.name, getattr(alg, f.name))


def test_the_rule_sees_both_verdicts():
    verdicts = {name: build().contains_identity for name, build in _CONSTRUCTED.items()}
    assert verdicts["full:3"] and verdicts["unitize span{E12}"] and verdicts["hsa upper:2"]
    assert not verdicts["span{E12}"] and not verdicts["a_h span{E11,E12}"]
    assert not verdicts["amplify zero"] and not verdicts["hsa full:2"]


def test_cstar_spans_the_generated_c_star_algebra():
    full = cstar(upper_triangular_algebra(2))
    assert full.dim == 4 and full.residual(full_algebra(2).basis) <= 1e-12
    diag = cstar(diagonal_algebra(3))
    assert diag.dim == 3 and diag.residual(diagonal_algebra(3).basis) <= 1e-12
    assert diagonal_algebra(3).residual(diag.basis) <= 1e-12


def test_batched_residuals_match_their_loop_references():
    rng = np.random.default_rng(0)
    for alg in _reference_algebras() + [span_algebra([_E11, _E12]), generate_algebra([_E12])]:
        products = [bi @ bj for bi in alg.basis for bj in alg.basis]
        loop = max(op_norm(p - alg.project(p)) for p in products)
        assert abs(alg.closure_defect() - loop) <= 1e-14, alg.label

        n = alg.ambient_dim
        stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        loop = max(contains(alg, m)[1] for m in stack)
        assert abs(alg.residual(stack) - loop) <= 1e-14 * max(1.0, loop), alg.label

        e = identity_of(alg)
        if e is None:
            e = np.eye(n)
        loop = max(max(op_norm(e @ b - b), op_norm(b @ e - b)) for b in alg.basis)
        assert abs(_unit_defect(e, alg.basis) - loop) <= 1e-14, alg.label


def _list_orthonormalize(mats, rank_tol=1e-10):
    """Reference: the same modified Gram-Schmidt with the accepted vectors in a
    list rebuilt into an array for every candidate, and no early stop."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1] if mats.ndim == 3 else 0
    rows = []
    for v in mats.reshape(len(mats), n * n):
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
    return np.array(rows, dtype=complex).reshape(len(rows), n, n)


def test_orthonormalize_is_bit_identical_to_the_list_reference():
    rng = np.random.default_rng(5)
    stacks = [[], np.zeros((3, 2, 2))]
    for n in (1, 2, 3, 4):
        k = 2 * n * n + 3  # more spanning candidates than n^2
        full = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        low = np.einsum("ij,jab->iab", rng.standard_normal((k, n)), full[:n])  # rank n
        holes = full.copy()
        holes[::3] = 0.0
        holes[4] = holes[1] - 1e-12 * holes[2]  # dependent up to rounding
        stacks += [full, low, holes]
        assert orthonormalize(full).shape[0] == n * n < k  # the early stop is taken
    alg = generate_algebra([gen_accretive(4, 3), gen_accretive(4, 4)])
    products = (alg.basis[:, None] @ alg.basis[None]).reshape(-1, 4, 4)
    stacks.append(np.concatenate([alg.basis, products]))  # a closure sweep of M_4
    for stack in stacks:
        got, want = orthonormalize(stack), _list_orthonormalize(stack)
        assert got.shape == want.shape and np.array_equal(got, want)


def _sweeps_reference(seed):
    """The closure by whole sweeps: Gram-Schmidt of the basis followed by all
    its d^2 products until a sweep adds nothing or M_n is spanned.  Also
    returns every rank decision's residual r / max(1, ||v||)."""
    n, ratios = seed.shape[-1], []

    def gram_schmidt(mats):
        rows = []
        for v in mats.reshape(len(mats), n * n):
            if len(rows) == n * n:
                break
            scale = float(np.linalg.norm(v))
            if scale <= RANK_TOL:
                continue
            for _ in range(2):
                if rows:
                    b = np.array(rows)
                    v = v - b.T @ (np.conj(b) @ v)
            r = float(np.linalg.norm(v))
            ratios.append(r / max(1.0, scale))
            if r > RANK_TOL * max(1.0, scale):
                rows.append(v / r)
        return np.array(rows, dtype=complex).reshape(len(rows), n, n)

    basis = gram_schmidt(seed)
    while 0 < len(basis) < n * n:
        new = gram_schmidt(np.concatenate([basis, (basis[:, None] @ basis[None]).reshape(-1, n, n)]))
        if len(new) == len(basis):
            break
        basis = new
    return basis, np.array(ratios)


def _svd_closure(seed):
    """An independent closure: the SVD rank of span + span . span, iterated
    until it is stable; returns (dim, whether I is in the span)."""
    n = seed.shape[-1]
    flat, dim = seed.reshape(len(seed), n * n), -1
    while True:
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        rank = int((s > 1e-8 * s[0]).sum())
        basis = vh[:rank]
        if rank == dim or rank == n * n:
            break
        dim = rank
        b = basis.reshape(rank, n, n)
        flat = np.concatenate([basis, (b[:, None] @ b[None]).reshape(-1, n * n)])
    eye = np.eye(n).reshape(-1)
    return rank, bool(np.linalg.norm(eye - basis.T @ (np.conj(basis) @ eye)) <= 1e-8)


def _generator(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    if kind == "accretive":
        return gen_accretive(n, seed)
    if kind == "nilpotent":
        return np.triu(z[0], 1)
    return np.outer(z[0, 0], z[1, 0].conj())  # rank one


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5),
       gens=st.lists(st.tuples(st.sampled_from(["accretive", "nilpotent", "rank-one"]),
                               st.integers(0, 2 ** 31)), min_size=1, max_size=2),
       mode=st.sampled_from(["algebra", "cstar"]), with_identity=st.booleans())
def test_generate_algebra_matches_independent_closures(n, gens, mode, with_identity):
    seed = np.array([_generator(kind, n, s) for kind, s in gens])
    alg = generate_algebra(seed, mode=mode, with_identity=with_identity)
    if mode == "cstar":
        seed = np.concatenate([seed, dagger(seed)])
    if with_identity:
        seed = np.concatenate([seed, np.eye(n, dtype=complex)[None]])
    assert (alg.dim, alg.contains_identity) == _svd_closure(seed)
    ref, ratios = _sweeps_reference(seed)
    assert len(ref) == alg.dim and alg.residual(ref) <= 1e-9  # one span
    # The basis follows the rank decisions, and a row accepted with residual
    # ratio rho carries rounding amplified by 1/rho.  So it is compared where
    # no decision lies within rounding of RANK_TOL and every rho >= 1e-4.
    near = (ratios > 1e-2 * RANK_TOL) & (ratios < 1e2 * RANK_TOL)
    if not near.any() and ratios[ratios > RANK_TOL].min(initial=1.0) >= 1e-4:
        assert ref.shape == alg.basis.shape and np.abs(ref - alg.basis).max() <= 1e-10


def test_coords_and_reconstruct_are_bit_identical_to_tensordot():
    rng = np.random.default_rng(6)
    for alg in _reference_algebras() + [generate_algebra([_ZERO])]:
        n, d = alg.ambient_dim, alg.dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.array_equal(alg.coords(m), np.tensordot(np.conj(alg.basis), m, axes=2))
        assert np.array_equal(alg.reconstruct(c), np.tensordot(c, alg.basis, axes=1))


def test_a_h_fixed_point(e11, e12):
    ah, q = a_h(span_algebra([e11, e12]), seed=1)
    ah2, q2 = a_h(ah, seed=2)
    assert op_norm(q2 - q) <= 1e-8
    assert ah2.dim == ah.dim


def test_amplify(e12):
    scalars = span_algebra([np.eye(1)])
    m2 = amplify(scalars, 2)
    assert m2.dim == 4 and m2.ambient_dim == 2
    nil = amplify(span_algebra([e12]), 2)
    assert nil.dim == 4 and nil.ambient_dim == 4
    up = amplify(upper_triangular_algebra(2), 2)
    assert up.dim == 12
    with pytest.raises(ValueError):
        amplify(full_algebra(8), 9)


def test_amplify_labels_every_algebra_alike():
    zero = generate_algebra([np.zeros((2, 2))], label="Z")
    assert amplify(zero, 2).label == "M_2(Z)" and amplify(zero, 2).basis.shape == (0, 4, 4)
    assert amplify(upper_triangular_algebra(2), 2).label == "M_2(upper:2)"
    assert amplify(generate_algebra([np.zeros((2, 2))]), 2).label == ""


def test_oa_of_accretive_sets_has_identity():
    # operator algebras generated by accretive elements are unital here
    for k in range(20):
        n = 2 + k % 5
        gens = [gen_accretive(n, 101 + 7 * k + j) for j in range(1 + k % 3)]
        alg = generate_algebra(gens, mode="algebra")
        assert identity_of(alg) is not None


@pytest.mark.parametrize("mode", ["algebra", "cstar"])
def test_generate_zero_algebra(mode):
    zero = np.zeros((2, 2), complex)
    alg = generate_algebra([zero, zero], mode=mode)
    assert alg.ambient_dim == 2 and alg.dim == 0 and alg.basis.shape == (0, 2, 2)
    assert identity_of(alg) is None
    ah, q = a_h(alg)
    assert ah.dim == 0 and op_norm(q) == 0.0
    assert generate_algebra([zero], with_identity=True).dim == 1


def test_span_algebra_rejects_non_closed(e12):
    with pytest.raises(ValueError):
        span_algebra([e12 + e12.T.conj()])  # span{E12+E21} is not an algebra


def test_span_of_all_of_m_n_skips_the_closure_check(monkeypatch, e12):
    # n^2 independent matrices span M_n, which is closed: no product is formed
    w = gen_unitary(4, 3)
    rotated = [w @ b @ dagger(w) for b in full_algebra(4).basis]

    def never(self):
        raise AssertionError("closure checked on all of M_n")

    with monkeypatch.context() as patched:
        patched.setattr(MatrixAlgebra, "closure_defect", never)
        alg = span_algebra(rotated)
    assert alg.dim == 16 and alg.contains_identity
    with pytest.raises(ValueError, match="not closed"):
        span_algebra([e12, e12.T.conj()])  # E12 E21 = E11 is outside the span


def test_algebra_names_and_json():
    alg = algebra_from_name("blockupper:1,2")
    assert alg.ambient_dim == 3 and alg.dim == 7
    with pytest.raises(ValueError):
        algebra_from_name("bogus:2")
    data = algebra_to_json(alg)
    back = algebra_from_json(data)
    assert back.dim == alg.dim
    gens = algebra_from_json(
        {"generators": [{"n": 1, "entries": [[2.0, 0.0]]}], "mode": "algebra"}
    )
    assert gens.dim == 1
    assert gens.label == ""
    # a label is kept for generators as it is for a basis
    named = algebra_from_json({"generators": [{"n": 1, "entries": [[2.0, 0.0]]}], "label": "N"})
    assert named.label == "N" and a_h(named)[0].label == "N_H"
    assert algebra_from_json({"basis": [{"n": 1, "entries": [[1.0, 0.0]]}]}).label == "span"
