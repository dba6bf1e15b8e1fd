"""Seeded verification suites, one per acceptance criterion.

``run_suite(name, seed, sizes)`` executes one suite and returns a
:class:`SuiteReport`; reports are reproducible from (suite, seed, sizes)
byte-for-byte apart from the wall-time field.  Each seeded case takes its
seed and size from ``_cases``.  A case passes iff its margin is >= 0.  The
margin is the least of its terms: ``bound - value`` for each gate, and -1.0
for each yes/no condition that fails (one that holds is np.inf beside gates,
0.0 in a case with none), so a failure's margin is finite and below 0 and a
pass keeps its gates' headroom.  The inputs of each failing case are written
as JSON when a dump directory is given, and only then serialized.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import interp
from .algebra import (
    MatrixAlgebra,
    a_h,
    amplify,
    contains,
    cstar,
    generate_algebra,
    identity_of,
    span_algebra,
    upper_triangular_algebra,
)
from .cones import (
    _f_gap,
    c_certificate,
    support_function,
    is_accretive,
    is_strictly_real_positive,
    sector_angle,
)
from .generators import gen_accretive, gen_algebra, gen_half_f, gen_peaked_half_f, gen_sectorial, gen_unitary
from .matrices import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    matrix_to_json,
    min_real_eig,
    op_norm,
    re_part,
)
from .powers import (
    power,
    power_all,
    power_balakrishnan,
    power_spectral,
    root_monotonicity_report,
    root_series,
    rescaled_root_check,
)
from .projections import is_peak_for, peak_projection, support_projection, vav_identity_check
from .transforms import f_inverse, f_transform

__all__ = ["SuiteReport", "run_suite", "suite_names"]

DEFAULT_SIZES = (2, 3, 4, 5, 6, 7, 8)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    sizes: list
    cases: int
    failures: list  # dicts: {case, seed, margin, dump_path}
    wall_time: float
    tolerances: dict
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


class _Recorder:
    def __init__(self, suite: str, dump_dir):
        self.suite = suite
        self.dump_dir = dump_dir
        self.cases = 0
        self.failures: list = []

    def _dump(self, idx: int, payload) -> str | None:
        if self.dump_dir is None or payload is None:
            return None
        os.makedirs(self.dump_dir, exist_ok=True)
        dump_path = os.path.join(self.dump_dir, f"{self.suite}-{idx:04d}.json")
        with open(dump_path, "w") as fh:
            json.dump({key: _to_json(value) for key, value in payload.items()}, fh, sort_keys=True)
        return dump_path

    def case(self, margin: float, seed: int, payload=None) -> None:
        idx = self.cases
        self.cases += 1
        if margin >= 0.0:
            return
        self.failures.append(
            {"case": idx, "seed": seed, "margin": float(margin),
             "dump_path": self._dump(idx, payload)}
        )


def _to_json(value):
    """A dumped input: matrices, alone or in a list, in the matrix JSON format."""
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return [_to_json(v) for v in value] if isinstance(value, list) else value


def _case_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % 2**31


def _cases(seed: int, sizes, count: int, offset: int = 0):
    """The seeded cases k = 0..count-1 of one loop: (k, case seed, size)."""
    for k in range(count):
        yield k, _case_seed(seed, offset + k), sizes[k % len(sizes)]


def _mutual_residual(x: MatrixAlgebra, y: MatrixAlgebra) -> float:
    if x.dim != y.dim:
        return 1.0 + abs(x.dim - y.dim)
    return max(y.residual(x.basis), x.residual(y.basis))


# -- A1 ----------------------------------------------------------------------


def _suite_f_bijection(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for _, s, n in _cases(seed, sizes, 300):
        x = gen_accretive(n, s)
        t = f_transform(x)
        norm_t = op_norm(t)
        roundtrip = op_norm(f_inverse(t, tol) - x)
        allowed = 1e-8 * (1.0 + op_norm(x))
        t2 = gen_half_f(n, s + 7)
        back_margin = min_real_eig(f_inverse(t2, tol))
        # ||T|| < 1 is strict: the largest float below 1 is the bound
        margin = min(_f_gap(2.0 * t) + tol.psd_slack, np.nextafter(1.0, 0.0) - norm_t,
                     allowed - roundtrip, back_margin + 1e-7)
        rec.case(margin, s, {"x": x})


# -- A2 ----------------------------------------------------------------------


def _suite_root_laws(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    near_half = [0.5 + 10.0**-j for j in (1, 2, 3, 4)]
    alphas = [0.3, 0.7, 0.5, 1.0 / 3.0, 1.5, *near_half]
    for _, s, n in _cases(seed, sizes, 200):
        x = gen_accretive(n, s)
        slack = []
        p = {a: r.value for a, r in zip(alphas, power_all(x, alphas, tol=tol))}

        semi = op_norm(p[0.3] @ p[0.7] - x)
        slack.append(1e-6 - semi)

        for c in (0.5, 2.0, 10.0):
            for alpha, pc in zip((0.5, 0.7), power_all(c * x, (0.5, 0.7), tol=tol)):
                scaled = op_norm(pc.value - c**alpha * p[alpha])
                slack.append(1e-8 - scaled)

        oa = generate_algebra([x], mode="algebra", with_identity=False, tol=tol)
        for alpha in (0.5, 1.0 / 3.0, 1.5):
            _, residual = contains(oa, p[alpha], tol)
            slack.append(1e-6 - residual)

        diffs = [op_norm(p[alpha] - p[0.5]) for alpha in near_half]
        slack.append(min(diffs[j] - diffs[j + 1] for j in range(3)))

        rec.case(min(slack), s, {"x": x})


# -- A3 ----------------------------------------------------------------------


def _suite_method_agreement(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for _, s, n in _cases(seed, sizes, 200):
        x = gen_accretive(n, s, min_margin=0.1)
        slack = []
        for r in (0.25, 0.5, 0.75):
            spectral = power_spectral(x, r, tol)
            quad = power_balakrishnan(x, r, nodes=128, tol=tol)
            gap = op_norm(spectral.value - quad.value)
            slack.append(1e-6 * max(1.0, op_norm(x) ** r) - gap)
        rec.case(min(slack), s, {"x": x})
    for _, s, n in _cases(seed, sizes, 100, 1000):
        x = 2.0 * gen_half_f(n, s)  # lands in F
        series = root_series(x, 2, terms=200, tol=tol)
        spectral = power_spectral(x, 0.5, tol)
        gap = op_norm(series.value - spectral.value)
        rec.case(series.est_error + 1e-9 - gap, s, {"x": x})


# -- A4 ----------------------------------------------------------------------


def _suite_sector_bound(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    angles = (np.pi / 8.0, np.pi / 4.0, np.pi / 3.0)
    for k, s, n in _cases(seed, sizes, 201):
        rho = angles[k % 3]
        x = gen_sectorial(n, s, rho)
        h = x + dagger(x)
        bound = op_norm(re_part(x)) / np.cos(rho) ** 2
        lhs = bound * h - dagger(x) @ x
        rec.case(min_real_eig(lhs) + 1e-6 * max(op_norm(x) ** 2, 1e-12), s, {"x": x, "rho": rho})


# -- A5 ----------------------------------------------------------------------


def _suite_support(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for k, s, n in _cases(seed, sizes, 200):
        rank = None if k % 2 == 0 else max(1, n - 1 - (k % 3))
        x = gen_accretive(n, s, rank=rank)
        res = support_projection(x, method="both", tol=tol)
        fix = max(op_norm(res.proj @ x - x), op_norm(x @ res.proj - x))
        margin = min(np.inf if res.status != "diverged" else -1.0,
                     1e-6 - res.oracle_residual if res.oracle_residual is not None else -1.0,
                     1e-7 * max(1.0, op_norm(x)) - fix)
        rec.case(margin, s, {"x": x, "rank": rank})


# -- A6 ----------------------------------------------------------------------


def _suite_peak(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for _, s, n in _cases(seed, sizes, 200):
        x, _ = gen_peaked_half_f(n, s)
        res = peak_projection(x, method="both", tol=tol)
        margin = -1.0
        if res.status == "converged" and res.oracle_residual is not None:
            peaks = is_peak_for(x, res.proj, tol)
            root = power(x, 0.5, tol=tol).value
            root = root / max(1.0, op_norm(root))  # guard rounding above 1
            res_root = peak_projection(root, method="iterative", tol=tol)
            margin = min(1e-6 - res.oracle_residual, np.inf if peaks else -1.0,
                         1e-6 - op_norm(res_root.proj - res.proj))
        rec.case(margin, s, {"x": x})


# -- A7 ----------------------------------------------------------------------


def _suite_half_f_monotonicity(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for _, s, n in _cases(seed, sizes, 200):
        x = gen_half_f(n, s)
        margins = root_monotonicity_report(x, 8, tol)
        rec.case(float(margins.min()) + 1e-7, s, {"x": x})
    for _, s, n in _cases(seed, sizes, 100, 5000):
        x = gen_accretive(n, s)
        _, margins = rescaled_root_check(x, tol)
        rec.case(float(margins.min()) + tol.psd_slack, s, {"x": x})


# -- A8 ----------------------------------------------------------------------


def _suite_lemerdy(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> dict:
    x = np.array([[1.0, 1.0j], [1.0j, 0.0]], dtype=complex)
    golden = (1.0 + np.sqrt(5.0)) / 2.0

    acc, margin = is_accretive(x, tol)
    rec.case(min(np.inf if acc else -1.0, 1e-9 - abs(margin)), seed)
    rec.case(1e-9 - abs(op_norm(x) - golden), seed)

    spectral = power_spectral(x, 0.5, tol)
    quad = power_balakrishnan(x, 0.5, nodes=128, tol=tol)
    agree = op_norm(spectral.value - quad.value)
    root_norm = op_norm(spectral.value)
    rec.case(1e-8 - agree, seed)
    # ||x^{1/2}|| > 1 + 1e-3 is strict: the next float above is the bound
    rec.case(root_norm - np.nextafter(1.0 + 1e-3, 2.0), seed)

    rec.case(0.0 if c_certificate(x, tol) is None else -1.0, seed)
    rec.case(0.0 if c_certificate(1j * np.eye(2), tol) is None else -1.0, seed)

    angle = sector_angle(x, tol)
    rec.case(1e-6 - abs(angle - np.pi / 2.0) if angle is not None else -1.0, seed)

    margins = root_monotonicity_report(x, 8, tol)
    rec.case(-1e-3 - float(margins.min()), seed)
    return {"monotonicity_margins": [float(m) for m in margins]}


# -- A9 ----------------------------------------------------------------------


def _worked_algebras():
    e11 = np.zeros((2, 2), complex)
    e11[0, 0] = 1.0
    e12 = np.zeros((2, 2), complex)
    e12[0, 1] = 1.0
    upper = upper_triangular_algebra(2)
    nil = span_algebra([e12], label="span{E12}")
    corner = span_algebra([e11, e12], label="span{E11,E12}")
    return upper, nil, corner, e11, e12


def _suite_ah_amplification(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    upper, nil, corner, e11, e12 = _worked_algebras()
    eye2 = np.eye(2, dtype=complex)

    ah, q = a_h(upper, tol=tol)
    gap = max(op_norm(q - eye2), _mutual_residual(ah, upper))
    rec.case(1e-6 - gap, seed, {"algebra": "upper:2"})

    ah, q = a_h(nil, tol=tol)
    gap = op_norm(q) + ah.dim
    rec.case(1e-6 - gap, seed, {"algebra": "span{E12}"})

    expected = span_algebra([e11], label="span{E11}")
    ah, q = a_h(corner, tol=tol)
    gap = max(op_norm(q - e11), _mutual_residual(ah, expected))
    rec.case(1e-6 - gap, seed, {"algebra": "span{E11,E12}"})

    for base in (upper, nil, corner):
        ah_base, _ = a_h(base, tol=tol)
        for k in (2, 3):
            big, _ = a_h(amplify(base, k, tol), tol=tol)
            expected_big = amplify(ah_base, k, tol)
            gap = _mutual_residual(big, expected_big)
            rec.case(1e-6 - gap, seed, {"algebra": base.label, "k": k})


# -- A10 ---------------------------------------------------------------------


def _suite_oa_unitality(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    usable = [n for n in sizes if n <= 6] or [2, 3]
    for k, s, n in _cases(seed, usable, 100):
        count = 1 + k % 2
        gens = [gen_accretive(n, s + 13 * j) for j in range(count)]
        oa = generate_algebra(gens, mode="algebra", with_identity=False, tol=tol)
        e = identity_of(oa, tol)
        rec.case(0.0 if e is not None else -1.0, s, {"generators": gens})


# -- A11 ---------------------------------------------------------------------

_INTERP_KINDS = ("diag", "upper", "blockupper", "full")


def _interp_algebra(k: int, seed: int) -> MatrixAlgebra:
    kind = _INTERP_KINDS[k % len(_INTERP_KINDS)]
    n = 2 + (k % 4)  # 2..5, within the n <= 6 budget
    return gen_algebra(kind, n, seed)


def _random_cstar_psd(alg: MatrixAlgebra, rng: np.random.Generator, target: float, tol: Tolerances) -> np.ndarray:
    c = cstar(alg, tol)
    raw = c.reconstruct(rng.standard_normal(c.dim) + 1j * rng.standard_normal(c.dim))
    b = raw @ dagger(raw)
    b = c.project(b)
    b = re_part(b)
    shift = min(0.0, min_real_eig(b))
    b = b - shift * np.eye(alg.ambient_dim)  # stay PSD after the projection noise
    b = c.project(b)
    norm = op_norm(b)
    return b * (target / norm) if norm > 0 else b


def _diag_mask_projection(n: int, rng: np.random.Generator, lo: int = 1, hi=None) -> np.ndarray:
    hi = n if hi is None else hi
    count = int(rng.integers(lo, hi + 1))
    pos = rng.permutation(n)[:count]
    q = np.zeros((n, n), dtype=complex)
    q[pos, pos] = 1.0
    return q


def _random_algebra_element(alg: MatrixAlgebra, rng: np.random.Generator, target: float) -> np.ndarray:
    raw = alg.reconstruct(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    norm = op_norm(raw)
    return raw * (target / norm) if norm > 0 else raw


def _corner_half_f(alg: MatrixAlgebra, q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Element of q A q that is half-F as an operator on ran(q)."""
    n = alg.ambient_dim
    idx = [i for i in range(n) if q[i, i].real > 0.5]
    raw = _random_algebra_element(alg, rng, 1.0)
    inner = q @ raw @ q
    comp = inner[np.ix_(idx, idx)]
    y = (op_norm(comp) + 0.2) * np.eye(len(idx)) + comp  # accretive on the corner
    t = f_transform(y)
    out = np.zeros((n, n), dtype=complex)
    out[np.ix_(idx, idx)] = t
    return out


def _interp_instance(theorem: str, k: int, inst: int, tol: Tolerances) -> tuple:
    """One instance of a theorem: its algebra and its problem dict."""
    rng = np.random.default_rng(inst)
    alg = _interp_algebra(k, inst)
    n = alg.ambient_dim
    eye = np.eye(n, dtype=complex)
    problem = {"eps": 0.05, "near_eps": 0.05}
    if theorem == "dominate":
        problem["b"] = _random_cstar_psd(alg, rng, 0.2 + 0.7 * rng.random(), tol)
    elif theorem == "decompose":
        problem["b"] = _random_algebra_element(alg, rng, 0.2 + 0.6 * rng.random())
    elif theorem == "np":
        problem["c"] = _random_cstar_psd(alg, rng, 0.2 + 0.6 * rng.random(), tol)
    elif theorem == "urysohn":
        q = _diag_mask_projection(n, rng, 1, n - 1)
        if k % 2 == 0:
            u = q.copy()
            for i in range(n):
                if u[i, i].real < 0.5 and rng.random() < 0.5:
                    u[i, i] = 1.0
        else:
            w_eig, v = np.linalg.eigh(re_part(q))
            comp_vecs = v[:, w_eig < 0.5]
            m = comp_vecs.shape[1]
            u = q.copy()
            if m > 0:
                j = int(rng.integers(0, m))
                if j:
                    rot = comp_vecs @ gen_unitary(m, inst + 3)[:, :j]
                    u = q + rot @ dagger(rot)
        problem.update(q=q, u=u)
    elif theorem == "strict-urysohn":
        q = _diag_mask_projection(n, rng, 0, n - 1)
        p = q.copy()
        for i in range(n):
            if p[i, i].real < 0.5 and rng.random() < 0.6:
                p[i, i] = 1.0
        problem.update(q=q, p=p)
    else:  # peak, tietze
        q = _diag_mask_projection(n, rng, 1, n - 1)
        b1 = _corner_half_f(alg, q, rng)
        b2 = (eye - q) @ _random_algebra_element(alg, rng, 0.4) @ (eye - q)
        b = b1 + alg.project(b2)
        problem.update(q=q, b=b)
        if theorem == "tietze":
            idx = [i for i in range(n) if q[i, i].real > 0.5]
            problem["region"] = _outer_polygon(b[np.ix_(idx, idx)])
    return alg, problem


def _outer_polygon(m: np.ndarray) -> interp.ConvexRegion:
    """Circumscribing octagon of the numerical range of m, padded 0.1 outward."""
    thetas = 2.0 * np.pi * np.arange(8) / 8
    h = support_function(m, thetas) + 0.1
    verts = []
    for j in range(8):
        t1, t2 = thetas[j], thetas[(j + 1) % 8]
        a = np.array([[np.cos(t1), np.sin(t1)], [np.cos(t2), np.sin(t2)]])
        xy = np.linalg.solve(a, [h[j], h[(j + 1) % 8]])
        verts.append(complex(xy[0], xy[1]))
    return interp.ConvexRegion(np.array(verts))


def _suite_interpolation(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for theorem, spec in interp.THEOREMS.items():
        for k in range(50):
            payload = {"theorem": theorem, "case": k}
            try:
                inst = _case_seed(seed, sum(map(ord, theorem)) % 997 + 31 * k)
                alg, problem = _interp_instance(theorem, k, inst, tol)
                residual = spec.gate_residual(spec.solve(alg, problem, tol)[1])
                rec.case(1e-5 - residual, seed, payload)
            except (interp.VerificationFailedError, ValueError, ArithmeticError) as exc:
                payload["error"] = str(exc)
                rec.case(-1.0, seed, payload)

    # Domination genuinely needs ||b|| < 1: hitting the precondition wall is
    # the expected outcome, and reproducing it counts as a pass.
    alg = gen_algebra("diag", 3, seed)
    b = np.eye(3, dtype=complex)
    try:
        interp.dominate(alg, b, eps=0.05, tol=tol)
        rec.case(-1.0, seed, {"theorem": "dominate-norm-one"})
    except ValueError:
        rec.case(0.0, seed)


# -- A12 ---------------------------------------------------------------------


def _suite_vav(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    rs = (0.25, 0.5, 0.75, 2.0)
    for k, s, n in _cases(seed, sizes, 100):
        r = rs[k % 4]
        if k % 2 == 0:
            a = gen_accretive(n, s, min_margin=0.1)
            v = gen_unitary(n, s + 1)
        else:
            a = gen_accretive(n, s, rank=max(1, n - 1))
            v = support_projection(a, method="oracle", tol=tol).proj
        residual = vav_identity_check(a, v, r, tol)
        rec.case(1e-7 - residual, s, {"a": a, "r": r})


# -- A13 ---------------------------------------------------------------------


def _suite_kernel_invariants(rec: _Recorder, seed: int, sizes, tol: Tolerances) -> None:
    for k, s, n in _cases(seed, sizes, 200):
        rho = (0.1 + 0.8 * (k % 7) / 7.0) * (np.pi / 2.0 - 0.02)
        rank = max(1, n - 1 - (k % 2)) if k % 3 else None
        x = gen_sectorial(n, s, rho, rank=rank)
        h = x + dagger(x)
        w, v = np.linalg.eigh(h)
        supp = support_projection(x, method="oracle", tol=tol).proj
        slack = [1.0]
        # vectors with <(x+x*)v, v> <= 1e-12
        for i in range(len(w)):
            if w[i] <= 1e-12:
                vec = v[:, i]
                slack.append(1e-5 - float(np.linalg.norm(x @ vec)))
                slack.append(1e-5 - float(np.linalg.norm(supp @ vec)))
        for root in power_all(x, [1.0 / m for m in (2, 3, 4)], tol=tol):
            wy, vy = np.linalg.eigh(re_part(root.value))
            for i in range(len(wy)):
                if wy[i] <= 1e-12:
                    vec = vy[:, i]
                    slack.append(1e-5 - float(np.linalg.norm(supp @ vec)))
        rec.case(min(slack), s, {"x": x})

    kinds = ("diag", "upper", "full", "blockupper")
    for k, s, n in _cases(seed, (2, 3, 4, 5), 50, 9000):
        alg = gen_algebra(kinds[k % 4], n, s)
        rng = np.random.default_rng(s)
        raw = _random_algebra_element(alg, rng, 1.0)
        shift = 0.2 + max(0.0, -min_real_eig(raw))
        x = raw + shift * np.eye(n)
        margin = -1.0
        if is_strictly_real_positive(alg, x, tol):
            margin = np.inf
            for root in power_all(x, [1.0 / m for m in (2, 3, 4)], tol=tol):
                y = root.value
                _, res = contains(alg, y, tol)
                positive = is_strictly_real_positive(alg, alg.project(y), tol)
                margin = min(margin, 1e-6 - res, np.inf if positive else -1.0)
        rec.case(margin, s, {"algebra": alg.label})


_SUITES = {
    "f-bijection": _suite_f_bijection,
    "root-laws": _suite_root_laws,
    "method-agreement": _suite_method_agreement,
    "sector-bound": _suite_sector_bound,
    "support": _suite_support,
    "peak": _suite_peak,
    "half-f-monotonicity": _suite_half_f_monotonicity,
    "lemerdy": _suite_lemerdy,
    "ah-amplification": _suite_ah_amplification,
    "oa-unitality": _suite_oa_unitality,
    "interpolation": _suite_interpolation,
    "vav": _suite_vav,
    "kernel-invariants": _suite_kernel_invariants,
}


def suite_names() -> list:
    return list(_SUITES)


def run_suite(
    name: str,
    seed: int = 0,
    sizes=None,
    tol: Tolerances = DEFAULT_TOL,
    dump_dir=None,
) -> SuiteReport:
    """Run one named suite; deterministic given (name, seed, sizes)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    sizes = list(sizes) if sizes else list(DEFAULT_SIZES)
    rec = _Recorder(name, dump_dir)
    start = time.perf_counter()
    extra = _SUITES[name](rec, seed, sizes, tol)
    elapsed = time.perf_counter() - start
    return SuiteReport(
        suite=name,
        seed=seed,
        sizes=sizes,
        cases=rec.cases,
        failures=rec.failures,
        wall_time=elapsed,
        tolerances={**asdict(tol), "solver_tol": interp.SOLVER_TOL},
        extra=extra or {},
    )
