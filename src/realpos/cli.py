"""Command-line interface.

Subcommands wrap each module: ``check`` (cone report), ``transform``,
``power``, ``project``, ``range``, ``algebra``, ``interp`` and ``verify``
(the acceptance harness).  Matrices and algebras travel as JSON; see the
README for the schemas.

Exit codes: 0 success; 1 suite failures, a false required predicate, a
diverged projection or a failed post-verification; 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import interp, suites
from .algebra import (
    a_h,
    algebra_from_json,
    algebra_from_name,
    algebra_to_json,
    amplify,
    identity_of,
    unitize,
)
from .cones import cone_report, numerical_range
from .matrices import (Tolerances, check_dim, complex_entries, json_number, matrix_from_json,
                       matrix_to_json)
from .powers import power, power_balakrishnan, power_spectral, root_series
from .projections import peak_projection, support_projection
from .transforms import cayley, f_inverse, f_transform

PREDICATES = ("accretive", "f", "half-f", "c", "sector")

# Each subcommand adds only the shared options it reads: an unread one exits 2.
SHARED_OPTIONS = {
    "--tol": dict(type=float, default=None, help="override eq_tol (scales the others)"),
    "--seed": dict(type=int, default=0),
    "--json-out": dict(default=None, help="write JSON output to a file"),
    "--csv-out": dict(default=None, help="write CSV output to a file"),
}


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_matrix(path: str) -> np.ndarray:
    m = matrix_from_json(_load_json(path))
    check_dim(m.shape[0], "matrix")
    return m


def _named_algebra(spec: str):
    """A canned algebra name, or span:FILE with FILE holding a list of
    matrices spanning the algebra; the algebra command and interp problems
    both read their string algebras here."""
    if spec.startswith("span:"):
        data = _load_json(spec[len("span:"):])
        mats = data.get("basis") if isinstance(data, dict) else data
        if not isinstance(mats, list):
            raise ValueError("span file must hold a list of matrices or a 'basis' list")
        return algebra_from_json({"basis": mats})
    return algebra_from_name(spec)


def _load_algebra(spec: str):
    if spec.startswith("span:") or (":" in spec and not spec.endswith(".json") and spec != "-"):
        return _named_algebra(spec)
    return algebra_from_json(_load_json(spec))


def _emit(data: dict, args) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerances(args) -> Tolerances:
    if args.tol is None:
        return Tolerances()
    t = float(args.tol)
    return Tolerances(eq_tol=t, psd_slack=max(100.0 * t, 1e-12), iter_tol=t / 10.0)


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    x = _load_matrix(args.matrix)
    report = cone_report(x, tol)
    _emit(report.to_json(), args)
    if not args.require:
        return 0
    verdicts = {
        "accretive": report.accretive_margin >= -tol.psd_slack,
        "f": report.f_gap >= -tol.psd_slack,
        "half-f": report.half_f_gap >= -tol.psd_slack,
        "c": report.c_constant is not None,
        "sector": report.sector_angle is not None
        and report.sector_angle < np.pi / 2.0 - 1e-9,
    }
    failed = [p for p in args.require if not verdicts[p]]
    if failed:
        print(f"required predicates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_transform(args) -> int:
    tol = _tolerances(args)
    x = _load_matrix(args.matrix)
    ops = {"cayley": cayley, "f": f_transform, "finv": lambda t: f_inverse(t, tol)}
    out = ops[args.op](x)
    _emit(matrix_to_json(out), args)
    return 0


def _cmd_power(args) -> int:
    tol = _tolerances(args)
    x = _load_matrix(args.matrix)
    if args.method == "spectral":
        res = power_spectral(x, args.alpha, tol)
    elif args.method == "balakrishnan":
        res = power_balakrishnan(x, args.alpha, nodes=args.nodes, tol=tol)
    elif args.method == "series":
        inverse = 1.0 / args.alpha if args.alpha > 0.0 else math.inf
        root = round(inverse) if math.isfinite(inverse) else 0
        if root < 2 or abs(inverse - root) > 1e-12:
            raise ValueError("series method needs alpha = 1/m for integer m >= 2")
        res = root_series(x, root, terms=args.terms, tol=tol)
    else:
        res = power(x, args.alpha, nodes=args.nodes, tol=tol)
    _emit(
        {
            "value": matrix_to_json(res.value),
            "method": res.method,
            "est_error": res.est_error,
            "nodes_or_terms": res.nodes_or_terms,
            "certified": res.certified,
        },
        args,
    )
    return 0


def _cmd_project(args) -> int:
    tol = _tolerances(args)
    x = _load_matrix(args.matrix)
    fn = support_projection if args.kind == "support" else peak_projection
    res = fn(x, method=args.method, tol=tol)
    _emit(
        {
            "proj": matrix_to_json(res.proj),
            "method": res.method,
            "iterations": res.iterations,
            "oracle_residual": res.oracle_residual,
            "status": res.status,
            "trace": [float(t) for t in res.trace],
        },
        args,
    )
    return 0 if res.status != "diverged" else 1


def _cmd_range(args) -> int:
    x = _load_matrix(args.matrix)
    nr = numerical_range(x, args.grid)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theta", "support", "boundary_re", "boundary_im"])
    for t, h, z in zip(nr.thetas, nr.support, nr.boundary):
        writer.writerow([f"{t:.12g}", f"{h:.12g}", f"{z.real:.12g}", f"{z.imag:.12g}"])
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_algebra(args) -> int:
    tol = _tolerances(args)
    if args.op == "generate":
        data = _load_json(args.spec)
        alg = algebra_from_json(data, tol)
        _emit(algebra_to_json(alg), args)
        return 0
    alg = _load_algebra(args.spec)
    if args.op == "a-h":
        corner, q = a_h(alg, tol=tol)
        _emit({"a_h": algebra_to_json(corner), "q": matrix_to_json(q)}, args)
        return 0
    if args.op == "amplify":
        _emit(algebra_to_json(amplify(alg, args.k, tol)), args)
        return 0
    if args.op == "unitize":
        _emit(algebra_to_json(unitize(alg, tol)), args)
        return 0
    if args.op == "identity":
        e = identity_of(alg, tol)
        _emit({"identity": None if e is None else matrix_to_json(e)}, args)
        return 0
    raise ValueError(f"unknown algebra op {args.op!r}")


def _interp_input(key: str, value):
    if key == "region":
        return interp.ConvexRegion(complex_entries(value, "region vertices"))
    return matrix_from_json(value)


def _cmd_interp(args) -> int:
    tol = _tolerances(args)
    data = _load_json(args.problem)
    if not isinstance(data, dict):
        raise ValueError("interp problem JSON must be an object")
    spec = interp.THEOREMS[args.theorem]
    needed = ("algebra", *spec.keys)
    missing = [key for key in needed if key not in data]
    if missing:
        raise ValueError(f"--theorem {args.theorem} reads problem keys {', '.join(needed)}; "
                         f"missing {', '.join(missing)}")
    alg_spec = data["algebra"]
    alg = _named_algebra(alg_spec) if isinstance(alg_spec, str) else algebra_from_json(alg_spec)
    problem = {key: _interp_input(key, data[key]) for key in spec.keys}
    seed = data.get("seed", args.seed)  # validated, then ignored: the solvers are deterministic
    eps, near_eps = data.get("eps", 1e-2), data.get("near_eps", 1e-2)
    if not (json_number(seed, integer=True) and json_number(eps) and json_number(near_eps)):
        raise ValueError("interp 'seed' must be an integer, 'eps' and 'near_eps' must be numbers")
    try:
        problem["eps"], problem["near_eps"] = float(eps), float(near_eps)
    except OverflowError as exc:
        raise ValueError("interp 'eps' and 'near_eps' must fit in a float") from exc
    outputs, checks = spec.solve(alg, problem, tol)
    payload = {"verdict": "feasible", "residuals": spec.residual_table(checks)}
    for key, value in zip(("solution", "complement"), outputs):
        payload[key] = matrix_to_json(value)
    _emit(payload, args)
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    names = [args.suite] if args.suite else suites.suite_names()
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
    reports = []
    failed = False
    for name in names:
        report = suites.run_suite(name, seed=args.seed, sizes=sizes, tol=tol, dump_dir=args.dump_dir)
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        failed = failed or not report.passed
        print(
            f"{status} {name:22s} cases={report.cases:4d} "
            f"failures={len(report.failures):3d} time={report.wall_time:7.2f}s"
        )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "cases", "failures", "passed", "wall_time"])
            for r in reports:
                writer.writerow([r.suite, r.cases, len(r.failures), r.passed, f"{r.wall_time:.3f}"])
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realpos",
        description="Order theory for matrix operator algebras: cones, powers, "
        "projections and interpolation solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, *shared, **kw):
        p = sub.add_parser(name, **kw)
        for flag in shared:
            p.add_argument(flag, **SHARED_OPTIONS[flag])
        return p

    p = add_parser("check", "--tol", "--json-out", help="cone membership report for a matrix")
    p.add_argument("matrix", help="matrix JSON path or - for stdin")
    p.add_argument("--require", nargs="*", choices=PREDICATES, default=None)
    p.set_defaults(fn=_cmd_check)

    p = add_parser("transform", "--tol", "--json-out", help="Cayley / F-transform / inverse")
    p.add_argument("matrix")
    p.add_argument("--op", choices=("cayley", "f", "finv"), required=True)
    p.set_defaults(fn=_cmd_transform)

    p = add_parser("power", "--tol", "--json-out", help="principal fractional power")
    p.add_argument("matrix")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("auto", "spectral", "balakrishnan", "series"), default="auto")
    p.add_argument("--nodes", type=int, default=96)
    p.add_argument("--terms", type=int, default=200)
    p.set_defaults(fn=_cmd_power)

    p = add_parser("project", "--tol", "--json-out", help="support or peak projection")
    p.add_argument("matrix")
    p.add_argument("--kind", choices=("support", "peak"), required=True)
    p.add_argument("--method", choices=("iterative", "oracle", "both"), default="both")
    p.set_defaults(fn=_cmd_project)

    p = add_parser("range", "--csv-out", help="numerical range sweep as CSV")
    p.add_argument("matrix")
    p.add_argument("--grid", type=int, default=720)
    p.set_defaults(fn=_cmd_range)

    p = add_parser("algebra", "--tol", "--json-out", help="generate / a-h / amplify / unitize / identity")
    p.add_argument("op", choices=("generate", "a-h", "amplify", "unitize", "identity"))
    p.add_argument("spec", help="algebra JSON path, canned name (full:3, upper:2, "
                                "diag:4, blockupper:2,2), or - for stdin")
    p.add_argument("--k", type=int, default=2, help="amplification factor")
    p.set_defaults(fn=_cmd_algebra)

    p = add_parser("interp", "--tol", "--json-out", "--seed", help="interpolation theorem solvers")
    p.add_argument("problem", help="problem JSON path or - for stdin")
    p.add_argument("--theorem", choices=tuple(interp.THEOREMS), required=True)
    p.set_defaults(fn=_cmd_interp)

    p = add_parser("verify", *SHARED_OPTIONS, help="run the acceptance suites")
    p.add_argument("--suite", choices=suites.suite_names(), default=None)
    p.add_argument("--sizes", default=None, help="comma-separated ambient dimensions")
    p.add_argument("--dump-dir", default=None, help="directory for failing-instance dumps")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (interp.VerificationFailedError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
