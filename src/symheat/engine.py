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
(the p unit vectors), W = 1 and no projection.

The weight check, the torus basis, its density and the Lie-generating set
depend on the frame alone, up to a factor of W that cancels in the ratio:
each is read from the model's spaces.UnitStructure, and a job forms only
the norms d_a = <v_a, beta v_a> of its own beta.

The bracket is a polynomial in y with one exact value per monomial
(series.SeriesPoly): the cosh pencil times the exp of the summed
exponents of the two determinant factors; cosh and the determinant
factors take their pencil powers, restricted to t, from the same sparse
routine.  The average turns the bracket into a list of t-coefficients,
the prefactor is the list [M^k / k!], the twist factor is the list of
its t-coefficients (the same det(sinhc) expansion on the pencil t*B),
and a_k is the t^k coefficient of the three lists' product.

pi never appears: coefficients and traced invariants are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundles import FiberRep
from .exact import (
    GaussianRational, Matrix, ONE, ZERO, combination, invert, kernel, rational, rational_to_str,
)
from .series import cosh_pencil, det_sinhc_numeric, det_sinhc_pencil, matrix_exp_series
from .spaces import HolonomyAverageError, SymmetricSpaceModel, _beta_form
from .wick import GaussianWeight, average_poly

K_MAX_LIMIT = 6

_HALF = ONE / 2


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
        check = self.model.unit.weight
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
    """Expand the generating function and read off a_0 .. a_kmax exactly."""
    model, rep, k_max = req.model, req.rep, req.k_max
    degree = 2 * k_max
    dimV = rep.dimV

    # the bracket on a Cartan subalgebra t, averaged with the Weyl density
    basis, density = model.unit.torus
    d = [_beta_form(model.beta, v, v) for v in basis]
    f_cosh = cosh_pencil(rep.R, dimV, degree, basis)
    # the two det(sinhc) factors as exponents, added and exponentiated once
    f_hol = det_sinhc_pencil(model.F, _HALF, _HALF, degree, basis)
    f_tan = det_sinhc_pencil(model.D, _HALF, -_HALF, degree, basis)
    bracket = f_cosh * (f_hol + f_tan).exp()
    weight = GaussianWeight(Matrix.diag(d), Matrix.diag([ONE / x for x in d]), density)
    averaged = average_poly(bracket, weight)
    if len(basis) < model.p and dimV > 1:
        project = _commutant_projection(rep.R, model.unit.lie_generators)
        averaged = [project(a) for a in averaged]

    exponent_matrix = Matrix.identity(dimV).scale(
        model.scalar_R / 8 + model.R_H / 6
    ) - rep.casimir
    prefactor = matrix_exp_series(exponent_matrix, degree)
    twist = det_sinhc_numeric(rep.B, -_HALF, degree)

    # a_k = sum_m twist[k - m] b_m with b_m = sum_(i + j = m) prefactor[i]
    # averaged[j]: one combination per b_m, its products passed as factors,
    # and one per a_k
    b = [combination(((1, prefactor[i], averaged[m - i]) for i in range(m + 1)), dimV)
         for m in range(k_max + 1)]
    coeffs = [combination(((twist[k - m], b[m]) for m in range(k + 1)), dimV)
              for k in range(k_max + 1)]
    if coeffs[0] != Matrix.identity(dimV):
        raise AssertionError("a_0 is not the identity")
    return HeatCoefficients(n=model.n, dimV=dimV, a=tuple(coeffs))


# ---------------------------------------------------------------------------
# commutant


def _commutant_projection(R, basis):
    """The projection onto the commutant of the R_i, as a function of a matrix A.

    Called only when t is smaller than h: for an abelian h the t-average
    is the h-average already.  The commutant basis Gamma_b solves
    [g, X] = 0 for g = sum_i v[i] R_i, v in basis, a Lie-generating set of
    h (_lie_generators, Cartan generators first: they settle most unknowns).
    An X that commutes with two matrices commutes with their bracket, and R
    is a Lie homomorphism, [R_i, R_k] = F^j_ik R_j (fiber-holonomy-bracket,
    enforced by build_rep), so this commutant is that of every R_i.  The
    projection P(A) is the commutant element with tr(Gamma_b P(A)) =
    tr(Gamma_b A) for every b.  This pairing vanishes on every [R_i, Y], so
    P is the average over the holonomy group for any fiber generators,
    anti-Hermitian or not.

    The commutant of g is that of g/x for any x != 0, and exact.kernel
    returns the reduced basis of the null space, which depends on the null
    space alone.  So each g is divided by its first nonzero entry, and the
    basis and its duals are memoized on those lines (_commutant_duals):
    R_i = -(1/2) beta_ik S_k with S_k free of beta, and on a catalog space
    beta is the sign over r^2 times the identity, so every radius and sign
    of one fiber shares one entry, and only P(A) runs per job.
    """
    dim = R[0].rows
    lines = []
    for g in (combination(zip(v, R), dim) for v in basis):
        if g:
            row = next(r for r in g.nonzeros if r)
            lines.append(g.scale(ONE / row[min(row)]))
    if not lines:  # every R_i is zero: the commutant is every matrix
        return lambda a: a
    duals = _commutant_duals(tuple(lines))

    def pair(vec, a):  # tr(Gamma A) = sum_u Gamma[u] A[u % dim, u // dim]
        return sum((x * y for u, x in vec if (y := a.nonzeros[u % dim].get(u // dim))), ZERO)

    return lambda a: combination(((pair(v, a), d) for v, d in duals), dim)


@lru_cache(maxsize=16)
def _commutant_duals(gens: tuple) -> tuple:
    """((Gamma_b, dual_b), ...) for the commutant of the matrices gens: each
    Gamma_b as its sparse (unknown, value) items, where the unknown
    u = k*dim + c is X[k, c], and dual_b the matrix with tr(Gamma_a dual_b) =
    delta_ab.  The memo holds at most 16 commutants, so distinct fibers
    cannot grow it without bound.

    [g, X]_(r,c) = sum_k g[r,k] X[k,c] - X[r,k] g[k,c]; the two sums meet only
    at X[r,c], through g[r,r] and g[c,c].  In the Gram matrix
    tr(Gamma_a Gamma_b), each nonzero Gamma_a[u] meets only the Gamma_b that
    are nonzero at the transposed unknown (u % dim)*dim + u // dim.
    """
    dim = gens[0].rows
    eqs = []
    for g in gens:
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
            raise AssertionError("fiber trace is not real")
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
