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

The bracket is Ad-equivariant in w and the weight exp(-<w, beta w>/4) is
Ad-invariant (beta F_j antisymmetric, checked by HeatRequest), so the
Weyl integration formula for the compact algebra h turns the average
over its p variables into one over the r = rank h variables y of a
Cartan subalgebra t:  <phi>_h = <phi W>_t / <W>_t  for invariant phi,
with the Weyl density W(y) = prod_{alpha>0} alpha(y)^2 = e_(p-r)(F(y)).
t is the greedy commuting generators grown by centralizer vectors, with
its basis made beta-orthogonal, so the weight on t is diagonal and every
moment factors into one-variable moments.  For a matrix fiber and r < p,
the t-average is projected onto the commutant of the R_i, where the
h-average lies; the trace pairing with a commutant basis is invariant, so
it fixes that projection.  An abelian h takes the same route with t = h
(the p unit vectors), W = 1 and no projection, and a fiber whose R_i are
all zero needs none either: its commutant is every matrix.

A radius and a sign only scale beta = c beta0 (c is the model's scale), and
with the twist set aside b_m(c) = c^m b0_m: F, D and R are c F0, c D0 and
c R0, so the bracket at c is B0(c y); under the weight of the norms
d_a = c d0_a its t^j coefficient is c^j times that of B0 under d0; W's
factor cancels in the ratio; and the prefactor's exponent is M = c M0.  So
the bracket, its average and the prefactor run at the frame's unit scale,
and each b_m takes c^m once, in its combination's coefficients.  The engine
runs on the rep's model, whose frame is its unit fiber's, so the frame, c
and the fiber always match.  The weight check, the torus basis, its
density and the weight of the d0_a and W are read from that frame, the
unit-scale model (SymmetricSpaceModel.unit).  The cosh pencil and the
prefactor of each degree and the commutant's basis and duals (solved on
the R0_i themselves: the commutant of c R0 is that of R0) are derived once
on the rep's unit fiber (bundles.UnitFiber) and kept there.  The two
det(sinhc) pencils run per job on the model's own F and D, at the scale
1/(2c), so they expand F0 and D0; perfbench/spans.py tells them apart by
identity with model.F.

The bracket is a polynomial in y with one exact value per monomial
(series.SeriesPoly): the cosh pencil times the exp of the summed
exponents of the two determinant factors; cosh and the determinant
factors take their pencil powers, restricted to t, from the same sparse
routine.  The average turns the bracket into a list of t-coefficients,
the prefactor is the list [M0^k / k!], their product scaled by c^m at t^m
is the list of the b_m, the twist factor is the list of its
t-coefficients (the same det(sinhc) expansion on the pencil t*B), and a_k
is the t^k coefficient of the b_m and twist lists' product; without a
twist that list is [1, 0, ...] and a_k = b_k.

pi never appears: coefficients and traced invariants are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bundles import FiberRep
from .exact import (
    GaussianRational, Matrix, ONE, ZERO, combination, invert, kernel, rational, rational_to_str,
)
from .series import _powers, cosh_pencil, det_sinhc_numeric, det_sinhc_pencil, matrix_exp_series
from .spaces import HolonomyAverageError, SymmetricSpaceModel, _beta_form
from .wick import GaussianWeight, average_poly

K_MAX_LIMIT = 6

_HALF = ONE / 2


class TruncationOverflowError(ValueError):
    """k_max outside the supported truncation window."""


class RepModelMismatchError(ValueError):
    """The fiber representation was built against a different model."""


class NonRealTraceError(ValueError):
    """The fiber trace of some a_k is not real, so it has no traced invariant."""


@dataclass(frozen=True)
class HeatRequest:
    """A truncated expansion of the rep's bundle over model.  The rep's model
    must have model's data; the engine runs on the rep's model, and the
    weight's invariance is checked there."""

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
        check = rep_model.unit.weight
        if not check.passed:
            raise HolonomyAverageError(
                f"{check.name} fails ({check.detail}): the weight exp(-<w, beta w>/4) "
                "is not invariant under the holonomy algebra"
            )


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
    """Expand the generating function and read off a_0 .. a_kmax exactly.

    Everything up to b_m runs at the unit scale of the rep's model frame,
    whose fiber is rep.unit, and b_m(c) = c^m b0_m for the model's scale c.
    """
    rep, k_max = req.rep, req.k_max
    model, fiber, dimV = rep.model, rep.unit, rep.dimV
    frame, c = model.unit, model.scale
    degree = 2 * k_max

    # the bracket at beta0 on a Cartan subalgebra t, averaged with the Weyl
    # density; the cosh pencil of R0 is kept on the fiber per degree
    basis = frame.torus[0]
    f_cosh = fiber.cosh.get(degree)
    if f_cosh is None:
        f_cosh = fiber.cosh[degree] = cosh_pencil(fiber.R, dimV, degree, basis)
    # the two det(sinhc) factors as exponents, added and exponentiated once;
    # F = c F0 and D = c D0, so the pencils at 1/(2c) are those of F0 and D0
    f_hol = det_sinhc_pencil(model.F, _HALF / c, _HALF, degree, basis)
    f_tan = det_sinhc_pencil(model.D, _HALF / c, -_HALF, degree, basis)
    bracket = f_cosh * (f_hol + f_tan).exp()
    averaged = average_poly(bracket, _weight(frame))
    if len(basis) < model.p and any(fiber.R):
        project = _commutant_projection(fiber)
        averaged = [project(a) for a in averaged]

    # [M0^i / i!], M0 = (R/8 + R_H/6) I - Casimir on the frame, kept per degree
    prefactor = fiber.prefactor.get(degree)
    if prefactor is None:
        prefactor = fiber.prefactor[degree] = matrix_exp_series(Matrix.identity(dimV).scale(
            frame.scalar_R / 8 + frame.R_H / 6) - fiber.casimir, degree)
    twist = det_sinhc_numeric(rep.B, -_HALF, degree)

    # a_k = sum_m twist[k - m] b_m with b_m = c^m sum_(i + j = m) prefactor[i]
    # averaged[j]: one combination per b_m, with the coefficient c^m and its
    # products passed as factors, and one per a_k unless the twist series is 1
    cm = _powers(c, k_max)
    b = [combination(((cm[m], prefactor[i], averaged[m - i]) for i in range(m + 1)), dimV)
         for m in range(k_max + 1)]
    coeffs = b if not any(twist[1:]) else [
        combination(((twist[k - m], b[m]) for m in range(k + 1)), dimV) for k in range(k_max + 1)]
    if coeffs[0] != Matrix.identity(dimV):
        raise AssertionError("a_0 is not the identity")
    return HeatCoefficients(n=model.n, dimV=dimV, a=tuple(coeffs))


def _weight(frame) -> GaussianWeight:
    """The frame's diagonal weight at beta0 on its torus basis, with the Weyl
    density: formed on the frame's first job and kept on it (gaussian)."""
    if frame.gaussian is None:
        basis, density = frame.torus
        frame.gaussian = GaussianWeight.diagonal(
            [_beta_form(frame.beta, v, v) for v in basis], density)
    return frame.gaussian


# ---------------------------------------------------------------------------
# commutant


def _commutant_projection(fiber):
    """The projection onto the commutant of the R_i, as a function of a matrix A.

    Called only when t is smaller than h and some R_i is nonzero: for an
    abelian h the t-average is the h-average already, and with every R_i
    zero the commutant is every matrix.  The commutant basis Gamma_b solves
    [R_i, X] = 0 for every R_i (_commutant_duals).  The projection P(A) is
    the commutant element with tr(Gamma_b P(A)) = tr(Gamma_b A) for every
    b.  This pairing vanishes on every [R_i, Y], so P is the average over
    the holonomy group for any fiber generators, anti-Hermitian or not.

    The commutant of c R is that of R, so the basis and its duals are solved
    once on the unit fiber's R (bundles.UnitFiber) and kept there; only
    P(A) runs per job.
    """
    if fiber.commutant is None:
        fiber.commutant = _commutant_duals(fiber.R)
    duals, dim = fiber.commutant, fiber.dimV

    def pair(vec, a):  # tr(Gamma A) = sum_u Gamma[u] A[u % dim, u // dim]
        return sum((x * y for u, x in vec if (y := a.nonzeros[u % dim].get(u // dim))), ZERO)

    return lambda a: combination(((pair(v, a), d) for v, d in duals), dim)


def _commutant_duals(R):
    """((Gamma_b, dual_b), ...) for the commutant of the R_i, not all zero:
    the rows of [g, X] = 0 for each g = R_i in index order, each Gamma_b as
    its sparse (unknown, value) items, where the unknown u = k*dim + c is
    X[k, c], and dual_b the matrix with tr(Gamma_a dual_b) = delta_ab.
    exact.kernel returns the reduced basis of the null space, which depends
    on the null space alone.

    [g, X]_(r,c) = sum_k g[r,k] X[k,c] - X[r,k] g[k,c]; the two sums meet only
    at X[r,c], through g[r,r] and g[c,c].  In the Gram matrix
    tr(Gamma_a Gamma_b), each nonzero Gamma_a[u] meets only the Gamma_b that
    are nonzero at the transposed unknown (u % dim)*dim + u // dim.
    """
    dim = R[0].rows
    eqs = []
    for g in R:
        cols = g.transpose().nonzeros
        for r, grow in enumerate(g.nonzeros):
            for c, gcol in enumerate(cols):
                if grow or gcol:
                    row = {k * dim + c: x for k, x in grow.items()}
                    for k, x in gcol.items():
                        u = r * dim + k
                        row[u] = row[u] - x if u in row else -x
                    eqs.append(row)
    vecs = kernel(eqs, dim * dim)
    gammas, at = [], {}  # at[u] lists (b, Gamma_b[u]) over the b with Gamma_b[u] != 0
    for b, vec in enumerate(vecs):
        rows = [{} for _ in range(dim)]
        for u, x in vec.items():
            rows[u // dim][u % dim] = x
            at.setdefault(u, []).append((b, x))
        gammas.append(Matrix.from_nonzeros(dim, rows))
    gram = []
    for vec in vecs:
        row = {}
        for u, x in vec.items():
            for b, y in at.get((u % dim) * dim + u // dim, ()):
                row[b] = row[b] + x * y if b in row else x * y
        gram.append(row)
    # the dual basis under the trace pairing: tr(Gamma_b dual_c) = delta_bc
    gram_inv = invert(Matrix.from_nonzeros(len(vecs), gram))
    return tuple((tuple(vec.items()), combination(((x, gammas[c]) for c, x in r.items()), dim))
                 for vec, r in zip(vecs, gram_inv.nonzeros))


def heat_trace(coeffs: HeatCoefficients, volume) -> HeatTraceResult:
    """A_k = volume * tr_V a_k; the volume must be a positive rational."""
    vol = rational(volume)
    if vol <= 0:
        raise ValueError("volume must be positive")
    out = []
    for a in coeffs.a:
        tr = a.trace()
        if tr.im != 0:
            raise NonRealTraceError("fiber trace is not real")
        out.append(vol * tr.re)
    return HeatTraceResult(volume=vol, A=tuple(out))


# ---------------------------------------------------------------------------
# reporting


def _matrix_decimal_json(m: Matrix):
    # int true division rounds correctly, so x.p / x.d == float(x.re)
    return [[x.p / x.d if not x.q else {"re": x.p / x.d, "im": x.q / x.d} for x in m.row(i)]
            for i in range(m.rows)]


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
