"""The benchmark's workloads: seeded inputs, the queries on them and their checks.

A query is one top-level library call plus the independent check its source
acceptance suite applies, with that suite's threshold.  ``Query.run`` returns
``"ok"`` or the reason the query failed (``"check"`` for a failed check,
``"unconverged"`` when a solver did not converge within the suite's retry
budget, ``"exit-<code>"`` for a CLI call).  Inputs are built when the
workload is built, before any timing; the queries only call the library.

Every query kind cycles through its sizes in the order the suites do
(``n = sizes[j % len(sizes)]`` for the kind's j-th instance), and the kinds
are interleaved, so one cycle of a workload holds each kind at each size.

No two queries of a workload share an input: each instance has its own seed
and its own objects.  The first cycle warms the process up untimed; the
rest is the pool a measured run goes through.  The pool holds ``RATE[name]
* seconds`` queries, so a run sees no instance twice unless it completes
more than ``RATE`` queries per second (its info line records ``repeats``).
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library functions are looked up on their module at each call, never bound
# here, so that a traced run sees the checks' calls too.
import realpos as rp
from realpos import interp, matrices
from realpos.algebra import algebra_from_name, span_algebra, upper_triangular_algebra

TOL = rp.Tolerances()
OK = "ok"

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")


@dataclass(frozen=True)
class Query:
    kind: str
    n: int
    run: Callable[[], str]


# Queries per second up to which a measured run sees no instance twice:
# about twice the fastest rate seen on the 2-vCPU machine the benchmark was
# written on (66, 193, 52 and 2.6 per second of unscaled wall time).
RATE = {"powers-mix": 120, "projections-mix": 320, "interp-algebra-mix": 100,
        "cli-oneshot": 5}


@dataclass
class Workload:
    name: str
    queries: list  # the warm-up cycle, then the pool a measured run goes through
    cycle: int  # queries in one cycle of the mix
    trace_cycles: int  # cycles in the fixed pass of a traced run

    @property
    def warmup(self) -> int:
        """Queries run before timing: one cycle warms every kind and size."""
        return self.cycle

    @property
    def pool(self) -> list:
        return self.queries[self.warmup:]

    @property
    def sizes(self) -> list:
        return sorted({q.n for q in self.queries})

    def trace_pass(self) -> list:
        """The fixed queries of a traced run."""
        return self.queries[: self.cycle * self.trace_cycles]

    def close(self) -> None:
        pass


def case_seed(seed: int, k: int) -> int:
    """Instance seed of case k, as the acceptance suites derive it."""
    return (seed * 1_000_003 + k) % 2**31


STREAM = 100_000  # instances per seed stream; streams 0..9 never overlap


def stream_seed(seed: int, stream: int, j: int) -> int:
    """Seed of the j-th instance of a query kind that draws from ``stream``."""
    return case_seed(seed, stream * STREAM + j)


def cycles_for(name: str, seconds: float, cycle: int, trace_cycles: int) -> int:
    """Cycles to build: the warm-up cycle plus a pool of RATE * seconds queries."""
    return 1 + max(trace_cycles, -(-int(RATE[name] * seconds) // cycle))


def _verdict(passed: bool) -> str:
    return OK if passed else "check"


def _interleave(kinds, count: int) -> list:
    """count instances of each kind, kinds alternating; kinds[i](j) -> Query."""
    return [make(j) for j in range(count) for make in kinds]


# -- powers-mix ---------------------------------------------------------------

POWERS_SIZES = (2, 3, 4, 5, 6, 7, 8, 16)


def _method_agreement(n: int, s: int) -> Query:
    """A3: spectral and 128-node quadrature powers agree."""
    x = rp.gen_accretive(n, s, min_margin=0.1)

    def run() -> str:
        slack = []
        for r in (0.25, 0.5, 0.75):
            spectral = rp.power_spectral(x, r, TOL)
            quad = rp.power_balakrishnan(x, r, nodes=128, tol=TOL)
            gap = rp.op_norm(spectral.value - quad.value)
            slack.append(1e-6 * max(1.0, rp.op_norm(x) ** r) - gap)
        return _verdict(min(slack) >= 0.0)

    return Query("method-agreement", n, run)


def _series_agreement(n: int, s: int) -> Query:
    """A3: the binomial-series square root agrees with the spectral one."""
    x = 2.0 * rp.gen_half_f(n, s)  # lands in F

    def run() -> str:
        series = rp.root_series(x, 2, terms=200, tol=TOL)
        spectral = rp.power_spectral(x, 0.5, TOL)
        gap = rp.op_norm(series.value - spectral.value)
        return _verdict(series.est_error + 1e-9 - gap >= 0.0)

    return Query("series-agreement", n, run)


def _root_law(n: int, s: int) -> Query:
    """A2: x^0.3 x^0.7 = x."""
    x = rp.gen_accretive(n, s)

    def run() -> str:
        semi = rp.op_norm(rp.power(x, 0.3, tol=TOL).value @ rp.power(x, 0.7, tol=TOL).value - x)
        return _verdict(1e-6 - semi >= 0.0)

    return Query("root-law", n, run)


def powers_mix(seed: int, seconds: float) -> Workload:
    sizes = POWERS_SIZES
    kinds = [
        lambda j: _method_agreement(sizes[j % len(sizes)], stream_seed(seed, 0, j)),
        lambda j: _series_agreement(sizes[j % len(sizes)], stream_seed(seed, 1, j)),
        lambda j: _root_law(sizes[j % len(sizes)], stream_seed(seed, 2, j)),
    ]
    cycle, trace_cycles = len(kinds) * len(sizes), 2
    cycles = cycles_for("powers-mix", seconds, cycle, trace_cycles)
    queries = _interleave(kinds, cycles * len(sizes))
    return Workload("powers-mix", queries, cycle, trace_cycles)


# -- projections-mix ----------------------------------------------------------

SUITE_SIZES = (2, 3, 4, 5, 6, 7, 8)


def _support(n: int, s: int, j: int) -> Query:
    """A5: iterative support projection matches the oracle and fixes x."""
    rank = None if j % 2 == 0 else max(1, n - 1 - (j % 3))
    x = rp.gen_accretive(n, s, rank=rank)

    def run() -> str:
        res = rp.support_projection(x, method="both", tol=TOL)
        fix = max(rp.op_norm(res.proj @ x - x), rp.op_norm(x @ res.proj - x))
        return _verdict(
            res.status != "diverged"
            and res.oracle_residual is not None
            and res.oracle_residual <= 1e-6
            and fix <= 1e-7 * max(1.0, rp.op_norm(x))
        )

    return Query("support" if rank is None else "support-rank-deficient", n, run)


def _peak(n: int, s: int) -> Query:
    """A6: peak projection matches the oracle, peaks, and is that of the root."""
    x, _ = rp.gen_peaked_half_f(n, s)

    def run() -> str:
        res = rp.peak_projection(x, method="both", tol=TOL)
        if not (res.status == "converged" and res.oracle_residual is not None
                and res.oracle_residual <= 1e-6):
            return "check"
        if not rp.is_peak_for(x, res.proj, TOL):
            return "check"
        root = rp.power(x, 0.5, tol=TOL).value
        root = root / max(1.0, rp.op_norm(root))  # guard rounding above 1
        res_root = rp.peak_projection(root, method="iterative", tol=TOL)
        return _verdict(rp.op_norm(res_root.proj - res.proj) <= 1e-6)

    return Query("peak", n, run)


def _monotonicity(n: int, s: int) -> Query:
    """A7: real parts of the roots of a half-F element increase."""
    x = rp.gen_half_f(n, s)

    def run() -> str:
        margins = rp.root_monotonicity_report(x, 8, TOL)
        return _verdict(float(margins.min()) + 1e-7 >= 0.0)

    return Query("root-monotonicity", n, run)


def projections_mix(seed: int, seconds: float) -> Workload:
    sizes = SUITE_SIZES
    kinds = [
        lambda j: _support(sizes[j % len(sizes)], stream_seed(seed, 0, j), j),
        lambda j: _peak(sizes[j % len(sizes)], stream_seed(seed, 1, j)),
        lambda j: _monotonicity(sizes[j % len(sizes)], stream_seed(seed, 2, j)),
    ]
    cycle, trace_cycles = len(kinds) * len(sizes), 4
    cycles = cycles_for("projections-mix", seconds, cycle, trace_cycles)
    queries = _interleave(kinds, cycles * len(sizes))
    return Workload("projections-mix", queries, cycle, trace_cycles)


# -- interp-algebra-mix: instances built as the interpolation suite (A11) -----

THEOREMS = ("dominate", "decompose", "np", "urysohn", "strict-urysohn", "peak", "tietze")
_ALGEBRA_KINDS = ("diag", "upper", "blockupper", "full")
_SOLVER_ATTEMPTS = 3  # A11's retry budget: same instance, new solver seed


def _random_cstar_psd(alg, rng, target: float) -> np.ndarray:
    cstar = rp.generate_algebra(list(alg.basis), mode="cstar", tol=TOL)
    raw = cstar.reconstruct(rng.standard_normal(cstar.dim) + 1j * rng.standard_normal(cstar.dim))
    b = cstar.project(raw @ matrices.dagger(raw))
    b = matrices.re_part(b)
    shift = min(0.0, rp.min_real_eig(b))
    b = cstar.project(b - shift * np.eye(alg.ambient_dim))  # stay PSD after projecting
    norm = rp.op_norm(b)
    return b * (target / norm) if norm > 0 else b


def _diag_mask_projection(n: int, rng, lo: int, hi: int) -> np.ndarray:
    count = int(rng.integers(lo, hi + 1))
    pos = rng.permutation(n)[:count]
    q = np.zeros((n, n), dtype=complex)
    q[pos, pos] = 1.0
    return q


def _random_algebra_element(alg, rng, target: float) -> np.ndarray:
    raw = alg.reconstruct(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    norm = rp.op_norm(raw)
    return raw * (target / norm) if norm > 0 else raw


def _corner_half_f(alg, q, rng) -> np.ndarray:
    """Element of q A q that is half-F as an operator on ran(q)."""
    n = alg.ambient_dim
    idx = [i for i in range(n) if q[i, i].real > 0.5]
    inner = q @ _random_algebra_element(alg, rng, 1.0) @ q
    comp = inner[np.ix_(idx, idx)]
    y = (rp.op_norm(comp) + 0.2) * np.eye(len(idx)) + comp  # accretive on the corner
    out = np.zeros((n, n), dtype=complex)
    out[np.ix_(idx, idx)] = rp.f_transform(y)
    return out


def _outer_polygon(m: np.ndarray, directions: int = 8, pad: float = 0.1):
    """Circumscribing polygon of the numerical range of m, padded outward."""
    thetas = 2.0 * np.pi * np.arange(directions) / directions
    h = np.array([np.linalg.eigvalsh(matrices.re_part(np.exp(-1j * t) * m))[-1] + pad
                  for t in thetas])
    verts = []
    for j in range(directions):
        t1, t2 = thetas[j], thetas[(j + 1) % directions]
        a = np.array([[np.cos(t1), np.sin(t1)], [np.cos(t2), np.sin(t2)]])
        xy = np.linalg.solve(a, [h[j], h[(j + 1) % directions]])
        verts.append(complex(xy[0], xy[1]))
    return rp.ConvexRegion(np.array(verts))


def _corner_residual(q, b):
    return lambda g: max(rp.op_norm(g @ q - b @ q), rp.op_norm(q @ g - b @ q))


def _theorem_instance(theorem: str, alg, rng, k: int, inst: int):
    """(solve(seed) -> output, residual(output) -> float), as A11 builds them."""
    n = alg.ambient_dim
    eye = np.eye(n, dtype=complex)
    if theorem == "dominate":
        b = _random_cstar_psd(alg, rng, 0.2 + 0.7 * rng.random())
        return (lambda s: interp.dominate(alg, b, eps=0.05, seed=s, tol=TOL),
                lambda x: max(0.0, -rp.min_real_eig(x - b)))
    if theorem == "decompose":
        b = _random_algebra_element(alg, rng, 0.2 + 0.6 * rng.random())
        return (lambda s: interp.decompose(alg, b, seed=s, tol=TOL),
                lambda xy: rp.op_norm(b - (xy[0] - xy[1])))
    if theorem == "np":
        c = _random_cstar_psd(alg, rng, 0.2 + 0.6 * rng.random())

        def np_residual(x):
            block = np.block([[eye - c, matrices.dagger(eye - x)], [eye - x, eye]])
            return max(0.0, -rp.min_real_eig(block))

        return (lambda s: interp.interp_np(alg, c, near_eps=0.05, seed=s, tol=TOL), np_residual)
    if theorem == "urysohn":
        q = _diag_mask_projection(n, rng, 1, n - 1)
        u = q.copy()
        if k % 2 == 0:
            for i in range(n):
                if u[i, i].real < 0.5 and rng.random() < 0.5:
                    u[i, i] = 1.0
        else:
            w_eig, v = np.linalg.eigh(matrices.re_part(q))
            comp_vecs = v[:, w_eig < 0.5]
            m = comp_vecs.shape[1]
            if m > 0:
                j = int(rng.integers(0, m))
                if j:
                    rot = comp_vecs @ rp.gen_unitary(m, inst + 3)[:, :j]
                    u = q + rot @ matrices.dagger(rot)
        return (lambda s: interp.urysohn_interpolate(alg, q, u, eps=0.05, near_eps=0.05,
                                                     seed=s, tol=TOL),
                lambda x: max(rp.op_norm(x @ q - q), rp.op_norm(q @ x - q)))
    if theorem == "strict-urysohn":
        q = _diag_mask_projection(n, rng, 0, n - 1)
        p = q.copy()
        for i in range(n):
            if p[i, i].real < 0.5 and rng.random() < 0.6:
                p[i, i] = 1.0

        def strict_residual(x):
            peak = rp.peak_projection(x, method="iterative", tol=TOL).proj
            supp = rp.support_projection(x, method="iterative", tol=TOL).proj
            prod = rp.support_projection(x @ (eye - x), method="oracle", tol=TOL).proj
            return max(rp.op_norm(peak - q), rp.op_norm(supp - p), rp.op_norm(prod - (p - q)))

        return (lambda s: interp.strict_urysohn(alg, q, p, retries=3, seed=s, tol=TOL),
                strict_residual)
    if theorem in ("peak", "tietze"):
        q = _diag_mask_projection(n, rng, 1, n - 1)
        b1 = _corner_half_f(alg, q, rng)
        b2 = (eye - q) @ _random_algebra_element(alg, rng, 0.4) @ (eye - q)
        b = b1 + alg.project(b2)
        if theorem == "peak":
            return (lambda s: interp.peak_interpolate(alg, q, b, seed=s, tol=TOL),
                    _corner_residual(q, b))
        idx = [i for i in range(n) if q[i, i].real > 0.5]
        region = _outer_polygon(b[np.ix_(idx, idx)])
        return (lambda s: interp.tietze_lift(alg, q, b, region, seed=s, tol=TOL),
                _corner_residual(q, b))
    raise ValueError(f"unknown theorem {theorem!r}")


def _interp_algebra_spec(k: int) -> tuple[str, int]:
    return _ALGEBRA_KINDS[k % len(_ALGEBRA_KINDS)], 2 + k % 4  # n = 2..5, as A11


def _theorem(theorem: str, k: int, seed: int) -> Query:
    """A11: solver output within 1e-5 of the theorem's conclusion."""
    inst = case_seed(seed, sum(map(ord, theorem)) % 997 + 31 * k)
    kind, n = _interp_algebra_spec(k)
    try:
        alg = rp.gen_algebra(kind, n, inst)
        solve, residual = _theorem_instance(theorem, alg, np.random.default_rng(inst), k, inst)
    except (ValueError, ArithmeticError) as exc:  # A11 counts these as failed cases
        reason = f"build-{type(exc).__name__}"
        return Query(theorem, n, lambda: reason)

    def run() -> str:
        for attempt in range(_SOLVER_ATTEMPTS):
            try:
                out = solve(inst + 104729 * attempt)
            except interp.UnconvergedError:
                continue
            return _verdict(residual(out) <= 1e-5)
        return "unconverged"

    return Query(theorem, n, run)


def _generated_identity(j: int, seed: int) -> Query:
    """A10: the algebra generated by accretive elements is unital."""
    usable = (2, 3, 4, 5, 6)
    n = usable[j % len(usable)]
    gens = [rp.gen_accretive(n, stream_seed(seed, 5, 2 * j + i)) for i in range(1 + j % 2)]

    def run() -> str:
        oa = rp.generate_algebra(gens, mode="algebra", with_identity=False, tol=TOL)
        return _verdict(rp.identity_of(oa, TOL) is not None)

    return Query("generate-identity", n, run)


def _mutual_residual(x, y) -> float:
    if x.dim != y.dim:
        return 1.0 + abs(x.dim - y.dim)
    worst = 0.0
    for b in x.basis:
        worst = max(worst, rp.op_norm(b - y.project(b)))
    for b in y.basis:
        worst = max(worst, rp.op_norm(b - x.project(b)))
    return worst


def _worked_algebras() -> list:
    """A9's worked algebras: (algebra, expected A_H, expected q)."""
    e11 = np.zeros((2, 2), complex)
    e11[0, 0] = 1.0
    e12 = np.zeros((2, 2), complex)
    e12[0, 1] = 1.0
    upper = upper_triangular_algebra(2)
    zero = rp.MatrixAlgebra(2, np.zeros((0, 2, 2), complex), False)
    return [
        (upper, upper, np.eye(2, dtype=complex)),
        (span_algebra([e12], label="span{E12}"), zero, np.zeros((2, 2), complex)),
        (span_algebra([e11, e12], label="span{E11,E12}"),
         span_algebra([e11], label="span{E11}"), e11),
    ]


A_H_CASES = 9  # A9's cases: each of three worked algebras at k = 1, 2 and 3


def _conjugate(alg, u: np.ndarray):
    """u A u*: unitarily equivalent, so (u A u*)_H = u A_H u* with q -> u q u*."""
    return rp.MatrixAlgebra(alg.ambient_dim, u @ alg.basis @ matrices.dagger(u),
                            alg.contains_identity, alg.label)


def _a_h_case(c: int, s: int):
    """Case c % 9 of A9, built afresh and in a random orthonormal basis.

    (algebra, expected A_H, expected q or None): the worked algebra
    ``c // 3 % 3`` amplified k = ``c % 3 + 1`` times, conjugated by a unitary
    drawn from seed s, so that no two queries share an algebra or a matrix.
    """
    alg, expected, q = _worked_algebras()[c // 3 % 3]
    k = c % 3 + 1
    if k > 1:  # A9 checks q on the unamplified algebras only
        alg, expected, q = rp.amplify(alg, k, TOL), rp.amplify(expected, k, TOL), None
    u = rp.gen_unitary(alg.ambient_dim, s)
    q = None if q is None else u @ q @ matrices.dagger(u)
    return _conjugate(alg, u), _conjugate(expected, u), q


def _a_h(c: int, s: int) -> Query:
    """A9: A_H of the worked algebras and their amplifications."""
    alg, expected, q_expected = _a_h_case(c, s)

    def run() -> str:
        with warnings.catch_warnings():  # as A9: a_h warns on undershooting samples
            warnings.simplefilter("ignore", RuntimeWarning)
            ah, q = rp.a_h(alg, seed=s, tol=TOL)
        gap = _mutual_residual(ah, expected)
        if q_expected is not None:
            gap = max(gap, rp.op_norm(q - q_expected))
        return _verdict(gap <= 1e-6)

    return Query("a_h", alg.ambient_dim, run)


def interp_algebra_mix(seed: int, seconds: float) -> Workload:
    """One cycle: every theorem once, two generated algebras, one A_H."""
    cycle = len(THEOREMS) + 3
    queries = []
    for c in range(cycles_for("interp-algebra-mix", seconds, cycle, A_H_CASES)):
        queries += [_theorem(t, c, seed) for t in THEOREMS]
        queries += [_generated_identity(2 * c + i, seed) for i in range(2)]
        queries.append(_a_h(c, stream_seed(seed, 6, c)))
    return Workload("interp-algebra-mix", queries, cycle, A_H_CASES)


# -- cli-oneshot --------------------------------------------------------------


def _same_json(a, b) -> bool:
    """Equal JSON values, numbers compared to 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    return a == b


def _as_json(data: dict):
    return json.loads(json.dumps(data))


class CliOneshot(Workload):
    """Fresh-process CLI calls, each checked against the in-process result.

    With ``trace_dir`` set, each call runs through ``cli_child.py``, which
    traces the same ``realpos.cli.main`` and leaves its spans in that directory.
    """

    def __init__(self, seed: int, seconds: float, work_root: str, env: dict):
        self.env = env
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=work_root)
        self.trace_dir = None
        self._calls = itertools.count()
        makers = [
            lambda j: self._check(j, stream_seed(seed, 0, j)),
            lambda j: self._power(j, stream_seed(seed, 1, j)),
            lambda j: self._project(j, stream_seed(seed, 2, j)),
            lambda j: self._identity(),
            lambda j: self._interp(j, seed),
        ]
        cycle, trace_cycles = len(makers), 2
        cycles = cycles_for("cli-oneshot", seconds, cycle, trace_cycles)
        super().__init__("cli-oneshot", _interleave(makers, cycles), cycle, trace_cycles)

    @property
    def warmup(self) -> int:
        """Each call starts cold anyway; one call fills the bytecode cache."""
        return 1

    def close(self) -> None:
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)

    def _write(self, name: str, data: dict) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _matrix_file(self, kind: str, j: int, x) -> str:
        return self._write(f"{kind}-{j}.json", rp.matrix_to_json(x))

    def call(self, argv: list) -> tuple[int, str]:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "realpos.cli", *argv]
        else:
            out = os.path.join(self.trace_dir, f"call-{next(self._calls)}.json")
            cmd = [sys.executable, CLI_CHILD, out, *argv]
        proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    def _expect(self, kind: str, n: int, argv: list, expected: dict, code: int = 0) -> Query:
        expected = _as_json(expected)

        def run() -> str:
            rc, out = self.call(argv)
            if rc != code:
                return f"exit-{rc}"
            return _verdict(_same_json(json.loads(out), expected))

        return Query(kind, n, run)

    def _check(self, j: int, s: int) -> Query:
        n = SUITE_SIZES[j % len(SUITE_SIZES)]
        x = rp.gen_accretive(n, s)
        path = self._matrix_file("check", j, x)
        return self._expect("check", n, ["check", path], rp.cone_report(x, TOL).to_json())

    def _power(self, j: int, s: int) -> Query:
        n = SUITE_SIZES[j % len(SUITE_SIZES)]
        x = rp.gen_accretive(n, s)
        path = self._matrix_file("power", j, x)
        res = rp.power(x, 0.5, nodes=96, tol=TOL)
        expected = {
            "value": rp.matrix_to_json(res.value),
            "method": res.method,
            "est_error": res.est_error,
            "nodes_or_terms": res.nodes_or_terms,
            "certified": res.certified,
        }
        return self._expect("power", n, ["power", path, "--alpha", "0.5", "--method", "auto"],
                            expected)

    def _project(self, j: int, s: int) -> Query:
        n = SUITE_SIZES[j % len(SUITE_SIZES)]
        x = rp.gen_accretive(n, s)
        path = self._matrix_file("project", j, x)
        res = rp.support_projection(x, method="both", tol=TOL)
        expected = {
            "proj": rp.matrix_to_json(res.proj),
            "method": res.method,
            "iterations": res.iterations,
            "oracle_residual": res.oracle_residual,
            "status": res.status,
            "trace": [float(t) for t in res.trace],
        }
        return self._expect("project", n, ["project", path, "--kind", "support"], expected,
                            code=1 if res.status == "diverged" else 0)

    def _identity(self) -> Query:
        """The same name each time; every call is a fresh process, so nothing
        computed for one call can serve the next."""
        e = rp.identity_of(algebra_from_name("upper:3"), TOL)
        expected = {"identity": None if e is None else rp.matrix_to_json(e)}
        return self._expect("algebra-identity", 3, ["algebra", "identity", "upper:3"], expected)

    def _interp(self, j: int, seed: int) -> Query:
        """A dominate instance of A11 on diag:2 or upper:3, A11's retries."""
        k = 4 * (j // 2) + j % 2  # A11's k % 4 picks the algebra: 0 diag:2, 1 upper:3
        inst = case_seed(seed, sum(map(ord, "dominate")) % 997 + 31 * k)
        kind, n = _interp_algebra_spec(k)
        alg = rp.gen_algebra(kind, n, inst)
        rng = np.random.default_rng(inst)
        b = _random_cstar_psd(alg, rng, 0.2 + 0.7 * rng.random())
        path = self._write(f"interp-{j}.json", {
            "algebra": f"{kind}:{n}", "b": rp.matrix_to_json(b), "eps": 0.05,
        })
        expected = None  # (attempt, solution JSON) of the in-process run
        for attempt in range(_SOLVER_ATTEMPTS):
            try:
                x = interp.dominate(alg, b, eps=0.05, seed=inst + 104729 * attempt, tol=TOL)
            except interp.UnconvergedError:
                continue
            expected = (attempt, _as_json(rp.matrix_to_json(x)))
            break

        def run() -> str:
            for attempt in range(_SOLVER_ATTEMPTS):
                rc, out = self.call(["interp", path, "--theorem", "dominate",
                                     "--seed", str(inst + 104729 * attempt)])
                payload = json.loads(out) if rc in (0, 1) and out else {}
                if rc == 1 and payload.get("verdict") == "unconverged":
                    continue
                if rc != 0:
                    return f"exit-{rc}"
                g = rp.matrix_from_json(payload["solution"])
                return _verdict(
                    expected is not None
                    and expected[0] == attempt
                    and _same_json(payload["solution"], expected[1])
                    and max(0.0, -rp.min_real_eig(g - b)) <= 1e-5
                )
            return "unconverged"

        return Query("interp", n, run)


def build(name: str, seed: int, seconds: float, work_root: str, env: dict) -> Workload:
    if name == "powers-mix":
        return powers_mix(seed, seconds)
    if name == "projections-mix":
        return projections_mix(seed, seconds)
    if name == "interp-algebra-mix":
        return interp_algebra_mix(seed, seconds)
    if name == "cli-oneshot":
        return CliOneshot(seed, seconds, work_root, env)
    raise ValueError(f"unknown workload {name!r}")
