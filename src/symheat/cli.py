"""Command-line interface: compute, validate, check-group, oracle.

Job files are JSON.  Exact rationals travel as "p/q" strings so results
survive round-trips and diffs; pi is never evaluated — volumes are given
as a rational coefficient together with a pi power, and traced invariants
are reported the same way.

Exit codes: 0 success, 2 unreadable/invalid input, 3 validation or check
failure (a weight not invariant under the holonomy algebra included),
4 truncation overflow.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .bundles import BundleError, rep_from_descriptor
from .engine import (
    HeatRequest,
    HolonomyAverageError,
    TruncationOverflowError,
    coefficient_report,
    heat_coefficients,
    heat_trace,
    render_report_text,
)
from .exact import json_kind, rational
from .oracles import IllConditionedFitError, SpectralModel, extract_coefficients
from .spaces import ModelBuildError, space_from_descriptor, validate_model

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TRUNCATION = 4

LAPLACE_TOLERANCE = 1e-5
HEAT_EQ_TOLERANCE = 1e-4


class JobError(Exception):
    """A job that cannot run: main() prints the message and returns the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _exits(code: int, prefix: str, *errors):
    """Re-raise any of the given exceptions as a JobError with this exit code."""
    try:
        yield
    except errors as exc:
        raise JobError(code, f"{prefix}{exc}") from exc


def _parsed(build, *args, failed: str = "validation error"):
    """build(*args): structural faults exit 3, malformed or missing job fields exit 2."""
    with _exits(EXIT_PARSE, "error: bad job file: missing field ", KeyError), \
            _exits(EXIT_PARSE, "error: bad job file: ", TypeError, ValueError), \
            _exits(EXIT_VALIDATION, f"{failed}: ", ModelBuildError, BundleError):
        return build(*args)


def _load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except json.JSONDecodeError as exc:
        raise JobError(EXIT_PARSE, f"error: malformed JSON in {path} at line {exc.lineno} "
                                   f"column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:
        raise JobError(EXIT_PARSE, f"error: cannot read {path}: {exc}") from exc
    if not isinstance(job, dict):
        raise JobError(EXIT_PARSE,
                       f"error: {path} must hold a JSON object, not {type(job).__name__}")
    return job


def _parse_volume(obj):
    """Volume as rational coefficient times pi^power; returns (coeff, power)."""
    if obj is None:
        return None, 0
    if isinstance(obj, dict):
        coeff = rational(obj.get("coeff", 1))
        power = json_kind(obj.get("pi_power", 0), int, "pi_power")
    else:
        coeff, power = rational(obj), 0
    if coeff <= 0:
        raise ValueError("volume must be positive")
    return coeff, power


def _build_pair(job: dict):
    model = space_from_descriptor(job.get("space", {}))
    return model, rep_from_descriptor(model, job.get("bundle"), job.get("twist"))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_compute(args) -> int:
    job = _load_job(args.job)
    model, rep = _parsed(_build_pair, job)
    k_max = args.kmax if args.kmax is not None else job.get("k_max", 2)
    with _exits(EXIT_PARSE, "error: ", TypeError):
        json_kind(k_max, int, "k_max")
    with _exits(EXIT_TRUNCATION, "error: ", TruncationOverflowError), \
            _exits(EXIT_VALIDATION, "error: ", HolonomyAverageError):
        req = HeatRequest(model, rep, k_max)

    vol, pi_power = None, 0
    if args.trace:
        with _exits(EXIT_PARSE, "error: bad volume: ", TypeError, ValueError):
            vol, pi_power = _parse_volume(job.get("volume"))
        if vol is None:
            raise JobError(EXIT_PARSE, "error: --trace needs a 'volume' entry in the job file")
    with _exits(EXIT_VALIDATION, "error: ", HolonomyAverageError):
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
    job = _load_job(args.job)
    model = _parsed(space_from_descriptor, job.get("space", {}), failed="model build failed")
    checks = list(validate_model(model).checks)
    try:
        rep = _parsed(rep_from_descriptor, model, job.get("bundle"), job.get("twist"),
                      failed="bundle build failed")
    except JobError as exc:
        if exc.code == EXIT_VALIDATION:  # the model checks ran: list their verdicts
            for c in checks:
                print(f"{c.name}: {'pass' if c.passed else 'FAIL'}")
        raise
    checks.extend(rep.report.checks)
    for c in checks:
        detail = f" ({c.detail})" if c.detail else ""
        print(f"{c.name}: {'pass' if c.passed else 'FAIL'}{detail}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VALIDATION


def cmd_check_group(args) -> int:
    # numpy, which groupcheck needs, loads only for this command
    from .groupcheck import (
        GroupCheckError, heat_equation_residual, laplace_identity_residual, sample_points,
    )

    model, rep = _parsed(_build_pair, _load_job(args.job))
    with _exits(EXIT_PARSE, "refused: ", GroupCheckError):
        samples = sample_points(model, args.samples, radius=args.radius, seed=args.seed)
        lap = float(laplace_identity_residual(model, samples, h=args.step))
        heq = float(heat_equation_residual(model, rep, samples, [args.time]))
    results = [
        {"check": name, "samples": args.samples, "max_residual": residual,
         "tolerance": tol, "pass": bool(residual < tol)}
        for name, residual, tol in (
            ("laplace-identity", lap, args.tolerance or LAPLACE_TOLERANCE),
            ("heat-equation", heq, args.tolerance or HEAT_EQ_TOLERANCE),
        )
    ]
    _emit(_json_dumps({"checks": results}), args.out)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_VALIDATION


def cmd_oracle(args) -> int:
    with _exits(EXIT_PARSE, "error: ", ValueError, IllConditionedFitError):
        sm = SpectralModel(args.n, rational(args.radius))
        values, errors = extract_coefficients(sm, args.kmax)
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
    try:
        return args.func(args)
    except JobError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
