from __future__ import annotations

import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos import algebra as algebra_module
from realpos import interp, suites
from realpos.algebra import (
    NORM_CAP,
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
from realpos.cli import main
from realpos.generators import ALGEBRA_KINDS, gen_accretive, gen_algebra, gen_unitary
from realpos.matrices import (
    DEFAULT_TOL,
    SINGULAR_RTOL,
    ZERO_FLOOR,
    Tolerances,
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


def test_unitize_refuses_an_identity_below_the_rank_tolerance():
    # at eq_tol 1e-11, I is not in span{I + 1e-10 E12}, yet _extend drops it
    # as already in the span at RANK_TOL, so no unital algebra comes out
    tight = Tolerances(eq_tol=1e-11)
    a = span_algebra([np.array([[1.0, 1e-10], [0.0, 1.0]])], tight)
    assert a.dim == 1 and not a.contains_identity
    with pytest.raises(ValueError, match="misses I at eq_tol 1e-11, and I is within the rank tolerance 1e-10"):
        unitize(a, tight)


def test_unitize_names_only_the_tolerance_it_checked():
    # at eq_tol 1e-300 I is adjoined, but rounding alone keeps it outside
    # the result, so the rank tolerance is not the cause
    tiny = Tolerances(eq_tol=1e-300)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = generate_algebra([np.triu(g, 1) + np.diag([1.0, 0.0, 0.0])], tol=tiny)
    assert not a.contains_identity
    with pytest.raises(ValueError, match="misses I at eq_tol 1e-300") as err:
        unitize(a, tiny)
    assert "rank tolerance" not in str(err.value)


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


def test_cstar_closes_the_basis_without_generate_algebra(monkeypatch):
    # A's basis is trusted: C*(A) keeps the bits of the public route, which it
    # no longer takes
    algebras = [upper_triangular_algebra(3), gen_algebra("oa", 4, 5), span_algebra([_E12])]
    want = [_bits(generate_algebra(a.basis, mode="cstar")) for a in algebras]

    def refused(*args, **kwargs):
        raise AssertionError("C*(A) validated A's basis as generators")

    monkeypatch.setattr(algebra_module, "generate_algebra", refused)
    assert [_bits(cstar(a)) for a in algebras] == want


def test_cstar_of_the_zero_algebra_is_the_zero_algebra():
    c = cstar(generate_algebra([np.zeros((3, 3))], label="Z"))
    assert c.ambient_dim == 3 and c.basis.shape == (0, 3, 3)
    assert not c.contains_identity and c.label == ""


def test_each_closure_sweep_forms_one_column_block(monkeypatch):
    calls, widths = [], set()
    e12, upper = span_algebra([_E12]), upper_triangular_algebra(4)
    columns, extend = algebra_module._columns, algebra_module._extend

    def extend_recorded(rows, dim, cands):
        if dim:  # a sweep's candidates, as many as its basis, which grows from sweep to sweep
            widths.add(len(cands))
        return extend(rows, dim, cands)

    monkeypatch.setattr(algebra_module, "_columns", lambda stack: calls.append(len(stack)) or columns(stack))
    monkeypatch.setattr(algebra_module, "_extend", extend_recorded)
    cases = [(lambda: generate_algebra([_E12]), 1),  # E12^2 = 0
             (lambda: generate_algebra([unit(3, 0, 1), unit(3, 1, 2)]), 2),  # E12 E23 = E13, then nothing
             (lambda: generate_algebra([gen_accretive(4, 1)]), None),
             (lambda: generate_algebra([_generator("nilpotent", 5, 3), _generator("rank-one", 5, 4)],
                                       with_identity=True), None),
             (lambda: cstar(e12), 1)]  # E12 E21 = E11, then all of M_2
    for build, sweeps in cases:
        calls.clear()
        widths.clear()
        build()
        assert len(calls) == len(widths) >= 1
        assert sweeps is None or len(calls) == sweeps
    calls.clear()
    upper.closure_defect()
    identity_of(upper)
    assert calls == [10, 10]


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="rounding compounds through accepted rows: the basis "
                   "is 1.59e-10 from the sweep reference with every ratio >= 1e-4 (ROADMAP item 4)")
def test_generate_algebra_matches_independent_closures_on_a_drawn_example():
    test_generate_algebra_matches_independent_closures.hypothesis.inner_test(
        n=5, gens=[("nilpotent", 2570), ("rank-one", 5)], mode="algebra", with_identity=True)


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


# -- the algebra layer keeps its bits ----------------------------------------


def _extend_by_linalg_norm(rows, dim, cands):
    # _extend as it stood with np.linalg.norm for every norm and its
    # projection passes run against no rows too; every basis, value,
    # residual and verdict of the algebra layer must keep its bits
    scale = np.linalg.norm(cands, axis=1)
    b = rows[:dim]
    for _ in range(2):
        cands = cands - (cands @ np.conj(b).T) @ b
    alive = np.linalg.norm(cands, axis=1) > RANK_TOL * np.maximum(1.0, scale)
    start = dim
    for v, s in zip(cands[alive], scale[alive]):
        if dim == len(rows):
            break
        b = rows[start:dim]
        for _ in range(2):
            v = v - b.T @ np.conj(b @ np.conj(v))
        r = float(np.linalg.norm(v))
        if r > RANK_TOL * max(1.0, s):
            rows[dim] = v / r
            dim += 1
    return dim


def _rotated_sets(n, seed):
    # ROADMAP item 4's sets: two D g_k D^-1, g_k random complex upper
    # triangular and D = diag(logspace(0, s, n)), plain and rotated
    rng = np.random.default_rng(seed)
    u = gen_unitary(n, seed + 5)
    for s in (0.0, -3.0, -6.0):
        d = np.diag(np.logspace(0, s, n))
        gens = [d @ np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) @ np.linalg.inv(d)
                for _ in range(2)]
        yield gens
        yield [u @ g @ dagger(u) for g in gens]


def _generator_sets():
    for n in range(1, 7):
        for kinds in (["accretive"], ["nilpotent"], ["rank-one"], ["accretive", "nilpotent"],
                      ["rank-one", "nilpotent"]):
            yield [_generator(kind, n, 700 + 10 * n + j) for j, kind in enumerate(kinds)]
        yield from _rotated_sets(n, 770 + n)


def _bits(x):
    # an algebra, a matrix, a check value or a tuple of them, bit for bit
    if isinstance(x, MatrixAlgebra):
        return (x.ambient_dim, x.basis.shape, x.basis.tobytes(), x.contains_identity, x.label)
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    return x


def _outcome(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


def _derived(alg):
    return [_outcome(fn, alg) for fn in (cstar, unitize, lambda a: amplify(a, 2), a_h, identity_of)]


def _algebra_layer_outputs():
    out = []
    for gens in _generator_sets():
        for mode in ("algebra", "cstar"):
            for with_identity in (False, True):
                out.append(_outcome(generate_algebra, gens, mode=mode, with_identity=with_identity))
        out.append(_outcome(orthonormalize, gens))
        out += _derived(generate_algebra(gens))
    for kind in ALGEBRA_KINDS:  # the four canned kinds and oa
        for n in range(1, 7):
            alg = gen_algebra(kind, n, 790 + n)
            out += [_bits(alg)] + _derived(alg)
    for theorem, spec in interp.THEOREMS.items():  # the seven solvers on A11's instances
        for k in range(12):
            inst = suites._case_seed(0, sum(map(ord, theorem)) % 997 + 31 * k)
            alg, problem = suites._interp_instance(theorem, k, inst, DEFAULT_TOL)
            out.append(_outcome(spec.solve, alg, problem, DEFAULT_TOL))
    return out


def test_the_algebra_layer_keeps_the_bits_of_linalg_norm(monkeypatch):
    got = _algebra_layer_outputs()
    with monkeypatch.context() as m:
        m.setattr(algebra_module, "_extend", _extend_by_linalg_norm)
        want = _algebra_layer_outputs()
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, k


# -- generator validation ----------------------------------------------------

_NAN, _INF = np.diag([1.0, np.nan]), np.full((2, 2), np.inf)
# generator lists whose first generator at fault decides the message
_GENERATOR_FAULTS = {
    "non-square": ([np.ones((2, 3))], "generator must be square, got shape (2, 3)"),
    "non-square pair": ([np.ones((3, 2)), np.ones((3, 2))], "generator must be square, got shape (3, 2)"),
    "non-finite": ([np.eye(2), _NAN], "generator has non-finite entries"),
    "mixed dimensions": ([np.eye(2), np.eye(3)], "generators must share one ambient dimension"),
    "empty": ([], "need at least one generator"),
    "non-square, then non-finite": ([np.ones((2, 3)), _INF], "generator must be square, got shape (2, 3)"),
    "non-finite, then non-square": ([_NAN, np.ones((2, 3))], "generator has non-finite entries"),
    "non-finite, then non-finite": ([_INF, _NAN], "generator has non-finite entries"),
    "mixed dimensions, then non-finite": ([np.eye(3), np.eye(2), _INF], "generator has non-finite entries"),
    "mixed dimensions, then non-square": ([np.eye(2), np.eye(3), np.ones((3, 2))],
                                          "generator must be square, got shape (3, 2)"),
}


def _as_ndarray(mats):
    # one stack when the shapes agree, an object array of them when not
    if not mats:
        return np.empty((0, 2, 2))
    if len({m.shape for m in mats}) == 1:
        return np.array(mats)
    stack = np.empty(len(mats), dtype=object)
    for k, m in enumerate(mats):
        stack[k] = m
    return stack


@pytest.mark.parametrize("mats, message", _GENERATOR_FAULTS.values(), ids=_GENERATOR_FAULTS.keys())
@pytest.mark.parametrize("given_as", [list, _as_ndarray])
def test_generator_faults_keep_their_messages(mats, message, given_as):
    with pytest.raises(ValueError) as exc:
        generate_algebra(given_as(mats))
    assert str(exc.value) == message


def test_every_generator_container_gives_one_algebra():
    gens = [gen_accretive(3, 11), _generator("nilpotent", 3, 12)]
    want = _bits(generate_algebra(gens))
    square_objects = np.empty(2, dtype=object)  # square matrices that np.asarray does not stack
    square_objects[0], square_objects[1] = gens
    for given in (tuple(gens), iter(gens), np.array(gens), square_objects, [g.tolist() for g in gens]):
        assert _bits(generate_algebra(given)) == want


@pytest.mark.parametrize("generators, message", [
    ([np.eye(2), np.eye(3)], "generators must share one ambient dimension"),
    ([], "need at least one generator"),
    ([np.diag([1.0, np.nan])], "matrix has non-finite entries"),  # refused as matrix JSON
    ([np.diag([np.nan, 1.0]), np.eye(3)], "matrix has non-finite entries"),
])
def test_generator_faults_exit_2_from_the_cli(tmp_path, capsys, generators, message):
    path = tmp_path / "gens.json"
    entries = [{"n": len(g), "entries": [[z.real, z.imag] for z in np.ravel(g).astype(complex)]} for g in generators]
    path.write_text(json.dumps({"generators": entries}))  # NaN is written as a bare NaN
    for op in ("generate", "identity"):
        assert main(["algebra", op, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# -- seeds whose norm overflows ----------------------------------------------

_OVERFLOWS = {
    "generate": lambda m: generate_algebra([m]),
    "generate with identity": lambda m: generate_algebra([m], with_identity=True),
    "generate cstar": lambda m: generate_algebra([np.eye(m.shape[0]), m], mode="cstar"),
    "orthonormalize": lambda m: orthonormalize([m]),
    "span": lambda m: span_algebra([m]),
}


@pytest.mark.parametrize("build", _OVERFLOWS.values(), ids=_OVERFLOWS.keys())
@pytest.mark.parametrize("m", [1e200 * unit(2, 0, 0), np.full((16, 16), 1e153), np.array([[1.4e154]])],
                         ids=["1e200 E11", "1e153 at n = 16", "1.4e154 at n = 1"])
def test_a_seed_whose_norm_overflows_is_refused(build, m):
    # its norm would read inf, and the rank test would drop it: a silent zero algebra
    with pytest.raises(ValueError, match=re.escape(f"Frobenius norm above {NORM_CAP:.3g}, where its square overflows")):
        build(m)


@pytest.mark.parametrize("mats, k", [
    ([[[np.nan, 0], [0, 1]], np.eye(2)], 0),
    ([np.eye(2), np.full((2, 2), np.inf)], 1),
    ([np.eye(2), np.diag([1.0, 1j * np.inf])], 1),
    (np.array([np.eye(2), _NAN, _INF]), 1),
    ([_INF, 1e200 * unit(2, 0, 0)], 0),
], ids=["NaN", "inf", "imaginary inf", "stack", "inf, then an overflow"])
def test_a_seed_with_non_finite_entries_is_refused(mats, k):
    # its norm would read NaN or inf: a NaN norm drops it from the span silently
    with pytest.raises(ValueError) as exc:
        orthonormalize(mats)
    assert str(exc.value) == f"matrix {k} has non-finite entries"


def test_an_overflow_before_a_non_finite_seed_names_the_overflow():
    with pytest.raises(ValueError, match=re.escape(f"matrix 0 has a Frobenius norm above {NORM_CAP:.3g}")):
        orthonormalize([1e200 * unit(2, 0, 0), _NAN])


def test_a_large_seed_below_the_cap_still_spans():
    for m in (np.full((2, 2), 1e153), np.array([[1e154]]), 1e150 * unit(3, 0, 1)):
        assert generate_algebra([m]).dim == 1 and orthonormalize([m]).shape[0] == 1
    assert NORM_CAP == np.sqrt(np.finfo(float).max)


def test_an_overflowing_generator_exits_2_from_the_cli(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"generators": [{"n": 2, "entries": [[1e308, 0], [1e308, 0], [0, 0], [0, 0]]}]}))
    assert main(["algebra", "generate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix 0 has a Frobenius norm above {NORM_CAP:.3g}, where its square overflows\n"


# -- entry points ------------------------------------------------------------


@pytest.mark.parametrize("name", ["blockupper:3,-1", "blockupper:-1,3", "blockupper:0,2", "blockupper:2,0",
                                  "blockupper:0,0"])
def test_block_sizes_below_one_make_a_malformed_name(name):
    with pytest.raises(ValueError) as exc:
        algebra_from_name(name)
    assert str(exc.value) == f"malformed algebra name {name!r}"


def test_a_block_size_below_one_exits_2_from_the_cli(capsys):
    assert main(["algebra", "identity", "blockupper:3,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: malformed algebra name 'blockupper:3,-1'\n"


def test_amplify_takes_a_positive_integer_only():
    a = upper_triangular_algebra(2)
    for k in (2.5, 2.0, np.float64(2.0), True, False, "2", 0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="^k must be an integer, at least 1 and at most 16"):
            amplify(a, k)
    want = _bits(amplify(a, 2))
    for k in (np.int64(2), np.int32(2), np.uint8(2)):
        assert _bits(amplify(a, k)) == want
