"""Command-line interface: compute, validate, check-group, oracle.

Job files are JSON.  Exact rationals travel as "p/q" strings so results
survive round-trips and diffs; pi is never evaluated — volumes are given
as a rational coefficient together with a pi power, and traced invariants
are reported the same way.

Exit codes: 0 success, 2 unreadable/invalid input, 3 validation or check
failure, 4 truncation overflow.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bundles import BundleError, rep_from_descriptor, validate_rep
from .engine import (
    HeatRequest,
    TruncationOverflowError,
    coefficient_report,
    heat_coefficients,
    heat_trace,
    render_report_text,
)
from .exact import rational
from .groupcheck import (
    GroupCheckError,
    heat_equation_residual,
    laplace_identity_residual,
    sample_points,
)
from .oracles import IllConditionedFitError, SpectralModel, extract_coefficients
from .spaces import ModelBuildError, json_int, space_from_descriptor, validate_model

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TRUNCATION = 4

LAPLACE_TOLERANCE = 1e-5
HEAT_EQ_TOLERANCE = 1e-4


class JobError(ValueError):
    pass


def _load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise JobError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(job, dict):
        raise JobError(f"{path} must hold a JSON object, not {type(job).__name__}")
    return job


def _parse_volume(obj):
    """Volume as rational coefficient times pi^power; returns (coeff, power)."""
    if obj is None:
        return None, 0
    if isinstance(obj, dict):
        coeff = rational(obj.get("coeff", 1))
        power = json_int(obj.get("pi_power", 0), "pi_power")
    else:
        coeff, power = rational(obj), 0
    if coeff <= 0:
        raise ValueError("volume must be positive")
    return coeff, power


def _build_pair(job: dict):
    model = space_from_descriptor(job.get("space", {}))
    rep = rep_from_descriptor(model, job.get("bundle"), job.get("twist"))
    return model, rep


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_compute(args) -> int:
    try:
        job = _load_job(args.job)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        model, rep = _build_pair(job)
    except (ModelBuildError, BundleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad job file: {exc}", file=sys.stderr)
        return EXIT_PARSE

    k_max = args.kmax if args.kmax is not None else job.get("k_max", 2)
    if isinstance(k_max, bool) or not isinstance(k_max, int):
        print(f"error: k_max must be an integer, got {k_max!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        req = HeatRequest(model, rep, k_max)
    except TruncationOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION

    vol, pi_power = None, 0
    if args.trace:
        try:
            vol, pi_power = _parse_volume(job.get("volume"))
        except (TypeError, ValueError) as exc:
            print(f"error: bad volume: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if vol is None:
            print("error: --trace needs a 'volume' entry in the job file",
                  file=sys.stderr)
            return EXIT_PARSE
    coeffs = heat_coefficients(req)
    trace = heat_trace(coeffs, vol) if args.trace else None
    report = coefficient_report(coeffs, trace=trace, mode=args.output,
                                pi_power=pi_power)
    if args.format == "text":
        _emit(render_report_text(report) + "\n", args.out)
    else:
        _emit(_json_dumps(report), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        job = _load_job(args.job)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        model = space_from_descriptor(job.get("space", {}))
    except ModelBuildError as exc:
        print(f"model build failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad job file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate_model(model)
    checks = list(report.checks)
    try:
        rep = rep_from_descriptor(model, job.get("bundle"), job.get("twist"))
        checks.extend(validate_rep(model, rep).checks)
    except BundleError as exc:
        print(f"bundle build failed: {exc}", file=sys.stderr)
        for c in checks:
            print(f"{c.name}: {'pass' if c.passed else 'FAIL'}")
        return EXIT_VALIDATION
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad job file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ok = True
    for c in checks:
        line = f"{c.name}: {'pass' if c.passed else 'FAIL'}"
        if c.detail:
            line += f" ({c.detail})"
        print(line)
        ok = ok and c.passed
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_check_group(args) -> int:
    try:
        job = _load_job(args.job)
        model, rep = _build_pair(job)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelBuildError, BundleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad job file: {exc}", file=sys.stderr)
        return EXIT_PARSE

    results = []
    try:
        samples = sample_points(model, args.samples, radius=args.radius,
                                seed=args.seed)
        lap_tol = args.tolerance if args.tolerance else LAPLACE_TOLERANCE
        lap = float(laplace_identity_residual(model, samples, h=args.step))
        results.append({
            "check": "laplace-identity",
            "samples": args.samples,
            "max_residual": lap,
            "tolerance": lap_tol,
            "pass": bool(lap < lap_tol),
        })
        heq_tol = args.tolerance if args.tolerance else HEAT_EQ_TOLERANCE
        heq = float(heat_equation_residual(model, rep, samples, [args.time]))
        results.append({
            "check": "heat-equation",
            "samples": args.samples,
            "max_residual": heq,
            "tolerance": heq_tol,
            "pass": bool(heq < heq_tol),
        })
    except GroupCheckError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(_json_dumps({"checks": results}), args.out)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_VALIDATION


def cmd_oracle(args) -> int:
    if args.target != "sphere":
        print(f"error: unknown oracle target {args.target!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        sm = SpectralModel(args.n, rational(args.radius))
        values, errors = extract_coefficients(sm, args.kmax)
    except (ValueError, IllConditionedFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(_json_dumps({
        "n": args.n,
        "kmax": args.kmax,
        "approx_a": values,
        "error_estimates": errors,
    }), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symheat",
        description="Exact heat kernel coefficients on homogeneous bundles "
                    "over symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute heat coefficients from a job file")
    pc.add_argument("job", help="JSON job file")
    pc.add_argument("-k", "--kmax", type=int, default=None,
                    help="override the job file's k_max")
    pc.add_argument("--trace", action="store_true",
                    help="also report A_k = volume * tr a_k")
    pc.add_argument("--output", choices=["exact", "decimal", "both"],
                    default="exact")
    pc.add_argument("--format", choices=["json", "text"], default="json")
    pc.add_argument("-o", "--out", default=None, help="write output to a file")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("validate", help="run all structural checks on a job file")
    pv.add_argument("job")
    pv.set_defaults(func=cmd_validate)

    pg = sub.add_parser("check-group", help="numeric group-identity checks")
    pg.add_argument("job")
    pg.add_argument("--samples", type=int, default=10)
    pg.add_argument("--radius", type=float, default=0.5)
    pg.add_argument("--step", type=float, default=2e-3)
    pg.add_argument("--time", type=float, default=-0.2)
    pg.add_argument("--seed", type=int, default=12345)
    pg.add_argument("--tolerance", type=float, default=None,
                    help="override both check tolerances")
    pg.add_argument("-o", "--out", default=None)
    pg.set_defaults(func=cmd_check_group)

    po = sub.add_parser("oracle", help="independent spectral-sum coefficients")
    po.add_argument("target", choices=["sphere"])
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--kmax", type=int, default=3)
    po.add_argument("--radius", default="1")
    po.add_argument("-o", "--out", default=None)
    po.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
