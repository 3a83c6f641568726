"""Heat kernel diagonal generating function and coefficient extraction.

Relative to the (4 pi t)^(-n/2) prefactor, the diagonal expands as
sum_k t^k a_k with exact fiber-endomorphism coefficients

    P(t) = det(sinh(tB)/(tB))^(-1/2)
           * exp[((R/8 + R_H/6) I - R^2) t]
           * < cosh(sqrt(t) R(w))
               * det(sinhc(sqrt(t) F(w)/2))^(1/2)
               * det(sinhc(sqrt(t) D(w)/2))^(-1/2) >

where <.> is the Gaussian holonomy average.  The exponential prefactor
and the averaged bracket commute because [R^2, R_i] = 0 (checked at rep
build time), so the factor order above is the one used verbatim.

The bracket is an omega-polynomial with one exact value per monomial
(series.SeriesPoly): the cosh pencil times the exp of the summed
exponents of the two determinant factors; cosh and the determinant
factors take their pencil powers from the same sparse routine.  The
average turns the bracket into a list of t-coefficients, the prefactor
is the list [M^k / k!], the twist factor is the list of its
t-coefficients, and a_k is the t^k coefficient of the three lists'
product.

pi never appears: coefficients and traced invariants are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bundles import FiberRep
from .exact import GaussianRational, Matrix, rational, rational_to_str
from .series import cosh_pencil, det_sinhc_numeric, det_sinhc_pencil, matrix_exp_series
from .spaces import SymmetricSpaceModel
from .wick import GaussianWeight, average_poly

K_MAX_LIMIT = 6

_HALF = rational(1, 2)


class TruncationOverflowError(ValueError):
    """k_max outside the supported truncation window."""


class RepModelMismatchError(ValueError):
    """The fiber representation was built against a different model."""


@dataclass(frozen=True)
class HeatRequest:
    model: SymmetricSpaceModel
    rep: FiberRep
    k_max: int

    def __post_init__(self):
        if self.k_max < 0 or self.k_max > K_MAX_LIMIT:
            raise TruncationOverflowError(
                f"k_max must be in [0, {K_MAX_LIMIT}], got {self.k_max}"
            )
        rep_model = self.rep.model
        if rep_model is not self.model and rep_model.data != self.model.data:
            raise RepModelMismatchError("rep was built for a different model")


@dataclass(frozen=True)
class HeatCoefficients:
    """a_0 .. a_kmax relative to the (4 pi t)^(-n/2) prefactor."""

    n: int
    dimV: int
    a: tuple

    @property
    def k_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class HeatTraceResult:
    """Globally integrated invariants A_k = volume * tr_V a_k.

    volume is the rational coefficient of the volume (any symbolic
    pi-power bookkeeping stays with the caller).
    """

    volume: object
    A: tuple


def heat_coefficients(req: HeatRequest) -> HeatCoefficients:
    """Expand the generating function and read off a_0 .. a_kmax exactly."""
    model, rep, k_max = req.model, req.rep, req.k_max
    degree = 2 * k_max
    dimV = rep.dimV

    f_cosh = cosh_pencil(rep.R, dimV, degree)
    # the two det(sinhc) factors as exponents, added and exponentiated once
    f_hol = det_sinhc_pencil(model.F, _HALF, _HALF, degree)
    f_tan = det_sinhc_pencil(model.D, _HALF, -_HALF, degree)
    bracket = f_cosh * (f_hol + f_tan).exp()
    averaged = average_poly(bracket, GaussianWeight.from_beta(model.beta))

    exponent_matrix = Matrix.identity(dimV).scale(
        model.scalar_R * rational(1, 8) + model.R_H * rational(1, 6)
    ) - rep.casimir
    prefactor = matrix_exp_series(exponent_matrix, degree)
    twist = det_sinhc_numeric(rep.B, rational(-1, 2), degree)

    # a_k = sum over i + j + l = k of prefactor[i] averaged[j] twist[l]
    coeffs = [Matrix.zeros(dimV)] * (k_max + 1)
    for i, pre in enumerate(prefactor):
        for j, avg in enumerate(averaged[: k_max + 1 - i]):
            prod = pre * avg
            for k in range(i + j, k_max + 1):
                tw = twist[k - i - j]
                if tw:
                    coeffs[k] = coeffs[k] + prod.scale(tw)
    if coeffs[0] != Matrix.identity(dimV):
        raise AssertionError("a_0 is not the identity")
    return HeatCoefficients(n=model.n, dimV=dimV, a=tuple(coeffs))


def heat_trace(coeffs: HeatCoefficients, volume) -> HeatTraceResult:
    """A_k = volume * tr_V a_k; the volume must be a positive rational."""
    vol = rational(volume)
    if vol <= 0:
        raise ValueError("volume must be positive")
    out = []
    for a in coeffs.a:
        tr = a.trace()
        if tr.im != 0:
            raise AssertionError("fiber trace is not real")
        out.append(vol * tr.re)
    return HeatTraceResult(volume=vol, A=tuple(out))


# ---------------------------------------------------------------------------
# reporting


def _matrix_decimal_json(m: Matrix):
    out = []
    for i in range(m.rows):
        row = []
        for x in m.row(i):
            if x.im == 0:
                row.append(float(x.re))
            else:
                row.append({"re": float(x.re), "im": float(x.im)})
        out.append(row)
    return out


def coefficient_report(coeffs: HeatCoefficients, trace: HeatTraceResult | None = None,
                       mode: str = "both", pi_power: int = 0) -> dict:
    """JSON-ready rendering with deterministic key order."""
    if mode not in ("exact", "decimal", "both"):
        raise ValueError(f"unknown output mode {mode!r}")
    entries = []
    for k, a in enumerate(coeffs.a):
        entry = {"k": k}
        if mode in ("exact", "both"):
            entry["matrix"] = a.to_json()
        if mode in ("decimal", "both"):
            entry["matrix_decimal"] = _matrix_decimal_json(a)
        entries.append(entry)
    report = {"n": coeffs.n, "dimV": coeffs.dimV, "a": entries}
    if trace is not None:
        tr_entries = []
        for k, val in enumerate(trace.A):
            item = {"k": k}
            if mode in ("exact", "both"):
                item["coeff"] = rational_to_str(val)
                item["pi_power"] = pi_power
            if mode in ("decimal", "both"):
                item["coeff_decimal"] = float(val)
            tr_entries.append(item)
        report["trace"] = tr_entries
    return report


def render_report_text(report: dict) -> str:
    """Human-readable table: 'a_1 = 1/3 (~0.333333)' style lines."""
    lines = [f"n = {report['n']}, fiber dimension = {report['dimV']}"]
    for entry in report["a"]:
        k = entry["k"]
        mat = entry.get("matrix")
        if mat is not None and len(mat) == 1 and len(mat[0]) == 1:
            val = GaussianRational.from_json(mat[0][0])
            approx = complex(val)
            shown = f"{approx.real:.6g}" if approx.imag == 0 else f"{approx:.6g}"
            lines.append(f"a_{k} = {val!r} (~{shown})")
        elif mat is not None:
            lines.append(f"a_{k} =")
            for row in mat:
                rendered = ", ".join(
                    x if isinstance(x, str) else f"{x['re']}+{x['im']}i" for x in row
                )
                lines.append(f"    [{rendered}]")
        else:
            dec = entry["matrix_decimal"]
            lines.append(f"a_{k} ~ {dec}")
    for entry in report.get("trace", []):
        k = entry["k"]
        if "coeff" in entry:
            pi = entry.get("pi_power", 0)
            unit = "" if pi == 0 else (" pi" if pi == 1 else f" pi^{pi}")
            lines.append(f"A_{k} = {entry['coeff']}{unit}")
        else:
            lines.append(f"A_{k} ~ {entry['coeff_decimal']:.6g}")
    return "\n".join(lines)
