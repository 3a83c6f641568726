"""Symmetric-space algebraic model built from curvature data.

The primary datum is the factorized curvature (E, beta): a list of p
antisymmetric n x n matrices E^i and a symmetric invertible p x p matrix
beta with R_abcd = beta_ik E^i_ab E^k_cd.  Everything else — holonomy
generators D_i, structure constants F^j_ik, curvature contractions — is
derived exactly, at the cost of the nonzero entries and with no matrix
formed.  Each bracket [D_i, D_k] is summed from its entry chains
D_i[a, b] D_k[b, c] - D_k[a, b] D_i[b, c] into one accumulator keyed by
(a, c), in one unreduced pass (exact._add_product):
the projections onto the D_j, whose nonzeros are indexed once by position,
F^j = g^jl proj_l and the closure residual [D_i, D_k] - F^j_ik D_j follow
in the same pass, and each is settled once (exact._settle).  R_H and R_G
pair the entries of tr(M_a M_b) and the Riemann entries sum the products
of beta and E entries the same way; the weight check sums (beta F_j) +
(beta F_j)^T entry by entry.  validate_model keeps the checks that form
matrices, so it verifies this derivation independently.  The Riemann
tensor is held as its nonzero entries, a {(a, b, c, d): value} dict, and
Ricci and every check walk those entries.  The combined (n+p)-dimensional
algebra and its invariant metric are derived on first read: only
validation and the group checks read them.  Frame indices of the flat
factor come first by convention.

A radius and a sign only scale beta, and D and F are linear in that scale,
so build_model derives each frame once at unit scale and rescales D and F
per call; the curvature contractions (the Riemann entries, Ricci, scalar_R
and R_H) are derived from a model's own data on first read, and no job
reads them from a scaled model.  Every model has a frame, the unit-scale
model (SymmetricSpaceModel.unit), which holds what the engine's average
shares across scales, and a scale against it (SymmetricSpaceModel.scale),
the one place where that scale is computed; a model that build_model did
not make is its own frame.

Sign convention: the unit n-sphere has scalar curvature n(n-1) > 0.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

from .exact import (
    GaussianRational,
    Matrix,
    ONE,
    ZERO,
    _add_product,
    _add_scaled,
    _settle,
    at_most,
    combination,
    commutator,
    invert,
    json_kind,
    kernel,
    rational,
)
from .series import weyl_density

# Largest model dimension n a job may ask for, catalog, explicit or a product's
# total.  The model build no longer limits it: on a 2-core x86 VM (Python
# 3.11) S10 and S12 are derived in 0.009 and 0.014 s, and another radius of
# either is scaled from that in 0.003 and 0.004 s.  The density-weighted Wick
# average does: the Weyl density of S10 and S11 (rank 5) has 2961 terms and
# that of S12 (rank 6) 56183, and scalar k = 2 takes 0.15-0.25 s on S10 and
# S11 but 4.4-5.6 s on S12, with per-variable moment tables.
MAX_N = 10


class ModelBuildError(ValueError):
    """Raised when curvature data cannot produce a consistent model."""


class HolonomyAverageError(ValueError):
    """The holonomy average cannot be taken over a Cartan subalgebra: the
    weight is not invariant under h (beta-f-invariance fails), no maximal
    abelian span has a nonzero Weyl density, or beta is singular on it."""


@dataclass(frozen=True)
class CurvatureData:
    """Input data (n, p, E^i, beta) plus the flat-factor dimension."""

    n: int
    p: int
    E: tuple
    beta: Matrix
    flat_dim: int = 0

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(self.E))
        if self.n < 1:
            raise ModelBuildError(f"spaces need n >= 1, got {self.n}")
        if len(self.E) != self.p:
            raise ModelBuildError(f"expected {self.p} E matrices, got {len(self.E)}")
        if self.p > self.n * (self.n - 1) // 2:
            raise ModelBuildError("p exceeds n(n-1)/2")
        if not (0 <= self.flat_dim <= self.n):
            raise ModelBuildError("flat_dim out of range")
        for i, e in enumerate(self.E):
            if e.rows != self.n or e.cols != self.n:
                raise ModelBuildError(f"E^{i} is not {self.n}x{self.n}")
        if self.beta.rows != self.p or self.beta.cols != self.p:
            raise ModelBuildError("beta has the wrong shape")


@dataclass(eq=False)
class SymmetricSpaceModel:
    """Curvature data with the derived exact structure the engine reads.

    F is stored as p matrices F_i with (F_i)[j, k] = F^j_ik.  Everything
    else is derived from the model's own data on first read: riemann, the
    dict {(a, b, c, d): R_abcd} of the nonzero entries only (an absent key
    is a zero entry), ricci, scalar_R and R_H; the combined algebra C (N
    adjoint matrices with (C_A)[B, C] = C^B_AC, N = n + p), its metric
    gamma, gamma's inverse and R_G.  A model equals only itself, so a frame
    can key a weak memo (bundles.GeneratorTable.fibers).

    unit is the model's frame, a unit-scale model: build_model sets the one
    its frame shares, and any other model (dataclasses.replace, a direct
    call) is its own frame.  scale is c with beta = c beta0, beta0 the
    frame's: 1 for a model that is its own frame.  A scale c of beta
    multiplies each F_j and <u, beta v> by c, so what is read on a frame
    holds at every scale of it:
    - weight, the beta-f-invariance check: (beta F_j) + (beta F_j)^T scales
      by c^2, so it passes, or fails at the same index;
    - torus, (basis, W): cartan_subalgebra made beta-orthogonal, which sees
      only spans, zero patterns and ratios of <u, beta v>, and the Weyl
      density on it, up to c^(p-r), which cancels in <phi W>_t / <W>_t.
    An error is not kept: a failing derivation raises again on every read.
    The engine runs the average at unit scale and keeps its weight on the
    frame (gaussian, None until the first job): the wick.GaussianWeight of
    the norms <v_a, beta0 v_a> on the torus basis and of W, so its moment
    memo serves every scale of the frame.
    """

    data: CurvatureData
    D: tuple
    F: tuple

    gaussian = None

    @cached_property
    def unit(self) -> SymmetricSpaceModel:
        return self

    @cached_property
    def scale(self) -> GaussianRational:
        return _beta_scale(self.beta) / _beta_scale(self.unit.beta)

    @cached_property
    def weight(self) -> CheckResult:
        return weight_invariance(self)

    @cached_property
    def torus(self) -> tuple:
        basis, density = cartan_subalgebra(self.F)
        torus = _beta_orthogonal(basis, self.beta)
        return torus, density if torus == basis else weyl_density(self.F, torus)

    @cached_property
    def riemann(self) -> dict:
        return _riemann_entries(self.data.E, self.beta)

    @cached_property
    def ricci(self) -> Matrix:
        rows = [{} for _ in range(self.n)]  # Ric_bd = R_abad
        for (a, b, c, d), x in self.riemann.items():
            if a == c:
                rows[b][d] = rows[b].get(d, ZERO) + x
        return Matrix.from_nonzeros(self.n, rows)

    @cached_property
    def scalar_R(self) -> GaussianRational:
        return self.ricci.trace()

    @cached_property
    def R_H(self) -> GaussianRational:
        """-(1/4) beta^{ik} tr(F_i F_k), as R_G over the combined algebra."""
        return _quarter_contraction(invert(self.beta) if self.p else self.beta, self.F)

    @cached_property
    def C(self) -> tuple:
        parts, N = (self.n, self.data.E, self.D, self.F), self.N
        return tuple(
            Matrix.from_rows([[_structure_constant(parts, b, a, c) for c in range(N)]
                              for b in range(N)])
            for a in range(N)
        )

    @cached_property
    def gamma(self) -> Matrix:
        return _block_diag([Matrix.identity(self.n), self.beta])

    @cached_property
    def gamma_inv(self) -> Matrix:
        return _block_diag([Matrix.identity(self.n), invert(self.beta) if self.p else self.beta])

    @cached_property
    def R_G(self) -> GaussianRational:
        """-(1/4) gamma^{AB} tr(C_A C_B)."""
        return _quarter_contraction(self.gamma_inv, self.C)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def p(self) -> int:
        return self.data.p

    @property
    def N(self) -> int:
        return self.data.n + self.data.p

    @property
    def beta(self) -> Matrix:
        return self.data.beta

    @property
    def flat_dim(self) -> int:
        return self.data.flat_dim


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self):
        return [
            {"check": c.name, "pass": c.passed, **({"detail": c.detail} if c.detail else {})}
            for c in self.checks
        ]


def _structure_constant(model_parts, upper: int, lo1: int, lo2: int) -> GaussianRational:
    """C^upper_{lo1 lo2}: indices 0..n-1 tangent, n..N-1 holonomy."""
    n, E, D, F = model_parts
    ut, l1t, l2t = upper < n, lo1 < n, lo2 < n
    if not ut and l1t and l2t:
        return E[upper - n][lo1, lo2]
    if ut and not l1t and l2t:
        return D[lo1 - n][upper, lo2]
    if ut and l1t and not l2t:
        return -D[lo2 - n][upper, lo1]
    if not ut and not l1t and not l2t:
        return F[lo1 - n][upper - n, lo2 - n]
    return ZERO


def build_model(data: CurvatureData) -> SymmetricSpaceModel:
    """The model of (E, beta), exact throughout, with D and F set and the
    rest derived on first read.

    D and F are linear in the scale of beta: with c its first nonzero entry
    and beta0 = beta / c, D = c D0 and F = c F0.  So the model at beta0 is
    derived once per frame (E, beta0, flat_dim, n) and kept (at most 16
    frames) as the model's unit, and each call only scales D and F by c.
    Every radius and sign of one catalog space share one frame.  Each
    ModelBuildError of the derivation (_derive) is raised at beta exactly
    when at beta0, with the same message; an error is not kept, so every
    call raises it again.
    """
    c = _beta_scale(data.beta)
    frame = _frame(data.n, data.flat_dim, data.E, data.beta.scale(ONE / c))
    model = SymmetricSpaceModel(data=data, D=tuple(d.scale(c) for d in frame.D),
                                F=tuple(f.scale(c) for f in frame.F))
    model.unit = frame
    return model


def _beta_scale(beta: Matrix) -> GaussianRational:
    """The first nonzero entry of beta, 1 when there is none: build_model's
    scale c, which takes a frame's beta0 to beta = c beta0."""
    row = next((r for r in beta.nonzeros if r), None)
    return row[min(row)] if row else ONE


@lru_cache(maxsize=16)
def _frame(n: int, flat_dim: int, E: tuple, beta0: Matrix) -> SymmetricSpaceModel:
    """The unit-scale model of one frame, derived at most once while it is kept."""
    return _derive(CurvatureData(n=n, p=len(E), E=E, beta=beta0, flat_dim=flat_dim))


def _derive(data: CurvatureData) -> SymmetricSpaceModel:
    """The model of data derived from scratch; it is its own frame.

    The structure constants F^j_ik of [D_i, D_k] = F^j_ik D_j are the
    projections of each bracket onto the D_j through the inverse of their
    Gram matrix, summed from the brackets' entry chains with no matrix
    formed (_solve_structure_constants).  A singular beta, dependent D_j (a
    singular Gram matrix) and a bracket that does not close on the D_j
    raise ModelBuildError, in that order: a singular beta would make the D_j
    dependent too.  Nothing that cannot raise is derived here.
    """
    n, p, E, beta = data.n, data.p, data.E, data.beta
    _check_data(data)
    try:
        invert(beta) if p else None
    except ValueError as exc:
        raise ModelBuildError(f"beta is singular: {exc}") from exc

    # D_i = -sum_k beta_ik E^k (the delta metric raises the first index)
    D = tuple(combination(((-x, E[k]) for k, x in row.items()), n) for row in beta.nonzeros)
    return SymmetricSpaceModel(data=data, D=D, F=_solve_structure_constants(p, D))


def _block_diag(blocks) -> Matrix:
    """The block-diagonal matrix of the given square blocks, in order."""
    off, rows = 0, []
    for b in blocks:
        rows += [{off + j: x for j, x in r.items()} for r in b.nonzeros]
        off += b.rows
    return Matrix.from_nonzeros(off, rows)


def _quarter_contraction(metric: Matrix, mats) -> GaussianRational:
    """-(1/4) metric^{ab} tr(M_a M_b), summed over the nonzero metric entries;
    tr(M_a M_b) pairs each entry (M_a)_il with (M_b)_li, forming no product,
    and the whole sum is accumulated unreduced and settled once."""
    acc = {}
    for a, row in enumerate(metric.nonzeros):
        ma = mats[a].nonzeros
        for b, g in row.items():
            mb = mats[b].nonzeros
            gp, gq, gd = -g.p, -g.q, 4 * g.d
            for i, r in enumerate(ma):
                for l, x in r.items():
                    if (y := mb[l].get(i)) is not None:
                        _add_product(acc, 0, gp * x.p - gq * x.q, gp * x.q + gq * x.p,
                                     gd * x.d, y)
    return _settle(acc, {}).get(0, ZERO)


def _check_data(data: CurvatureData):
    for i, e in enumerate(data.E):
        rows = e.nonzeros  # antisymmetric: each entry x has the partner -x
        if any((y := rows[b].get(a)) is None or y.p != -x.p or y.q != -x.q or y.d != x.d
               for a, row in enumerate(rows) for b, x in row.items()):
            raise ModelBuildError(f"E^{i} is not antisymmetric")
        for a in range(data.flat_dim):
            if rows[a]:
                raise ModelBuildError(f"E^{i} touches flat direction ({a},{min(rows[a])})")
    if data.beta.transpose() != data.beta:
        raise ModelBuildError("beta is not symmetric")


def index_pairs(n: int) -> list:
    """The index pairs (a, b) with a < b < n, in lexicographic order."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def unit_bivectors(n: int) -> dict:
    """{(a, b): e_a e_b^T - e_b e_a^T} over index_pairs(n), in that order: the
    frame of a constant-curvature space and the vector fiber's generators."""
    return {(a, b): Matrix.from_nonzeros(n, [{b: 1} if r == a else {a: -1} if r == b else {}
                                             for r in range(n)])
            for a, b in index_pairs(n)}


def entries_at(mats) -> dict:
    """{(a, b): [(j, M_j[a, b])]} over the nonzero entries of the matrices M_j."""
    out = {}
    for j, m in enumerate(mats):
        for a, row in enumerate(m.nonzeros):
            for b, x in row.items():
                out.setdefault((a, b), []).append((j, x))
    return out


def _solve_structure_constants(p: int, D) -> tuple:
    """F^j_ik = g^jl tr(D_l^+ [D_i, D_k]) with the Gram matrix g_jl = tr(D_j^+ D_l).

    Each bracket is summed from its entry chains D_i[a, b] D_k[b, c] -
    D_k[a, b] D_i[b, c] into one accumulator keyed by (a, c); a pair with no
    chain has a zero bracket and is skipped.  The projections onto the D_j,
    F^j = g^jl proj_l and the closure residual [D_i, D_k] - F^j_ik D_j are
    accumulated unreduced in the same pass and each settled once; no matrix
    is formed.  g is singular exactly when the D_j are dependent; a bracket
    outside their span leaves a nonzero residual.
    """
    if p == 0:
        return tuple()
    rows = [d.nonzeros for d in D]
    ent = [[(a, b, x) for a, row in enumerate(r) for b, x in row.items()] for r in rows]
    at = {}  # (a, b): [(j, conj D_j[a, b])] over the D_j nonzero there
    for j, entries in enumerate(ent):
        for a, b, x in entries:
            at.setdefault((a, b), []).append((j, x.conjugate()))

    gram = [{} for _ in range(p)]
    for l, entries in enumerate(ent):
        for a, b, y in entries:
            for j, c in at[a, b]:
                _add_product(gram[j], l, c.p, c.q, c.d, y)
    try:
        gram_inv = invert(Matrix._of(p, [_settle(g, {}) for g in gram]))
    except ValueError as exc:
        raise ModelBuildError("holonomy generators D_i are linearly dependent") from exc
    columns = gram_inv.transpose().nonzeros
    F = [[{} for _ in range(p)] for _ in range(p)]  # F[i][j][k] = F^j_ik
    for i, k in index_pairs(p):
        acc = {}  # [D_i, D_k], then the closure residual
        for s, chains, ends in ((1, ent[i], rows[k]), (-1, ent[k], rows[i])):
            for a, b, x in chains:
                if end := ends[b]:
                    xp, xq, xd = s * x.p, s * x.q, x.d
                    for c, y in end.items():
                        _add_product(acc, (a, c), xp, xq, xd, y)
        if not acc:
            continue
        proj = {}
        for (a, c), (xp, xq, xd) in acc.items():
            for l, y in at.get((a, c), ()):
                _add_product(proj, l, xp, xq, xd, y)
        fs = {}
        for l, (xp, xq, xd) in proj.items():
            if xp or xq:
                _add_scaled(fs, xp, xq, xd, columns[l])
        for j, f in _settle(fs, {}).items():
            F[i][j][k], F[k][j][i] = f, -f
            fp, fq, fd = -f.p, -f.q, f.d
            for a, b, x in ent[j]:
                _add_product(acc, (a, b), fp, fq, fd, x)
        if not _vanishes(acc):
            raise ModelBuildError(
                f"bracket [D_{i + 1}, D_{k + 1}] does not close on the D_j"
            )
    return tuple(Matrix._of(p, F[i]) for i in range(p))


def _vanishes(acc: dict) -> bool:
    """Whether every entry of an unreduced accumulator (p, q, d) is zero."""
    return not any(p or q for p, q, _ in acc.values())


# ---------------------------------------------------------------------------
# Cartan subalgebra


def cartan_subalgebra(F) -> tuple:
    """A Cartan subalgebra t of h and its Weyl density, as (basis, W).

    basis holds r coefficient vectors over the D_i, and W = e_(p-r)(F(y))
    on t (series.weyl_density) is nonzero exactly when an abelian span is
    a Cartan subalgebra.  The torus starts from the pairwise-commuting
    generators picked greedily (D_i and D_k commute iff column k of F_i
    vanishes) and, while W = 0, grows by one vector of the centralizer of
    its span (the kernel of the stacked ad(v) rows) outside that span.  h
    is compact (the D_i are antisymmetric), so a maximal abelian span is a
    Cartan subalgebra; a centralizer equal to the span with W = 0 (a
    nilpotent h) is refused.  An abelian h is its own torus: the p unit
    vectors with W = e_0 = 1 (for flat space, p = 0, ([], {(): 1})).
    """
    p = len(F)
    picked = []
    for i in range(p):
        if not any(k in row for row in F[i].nonzeros for k in picked):
            picked.append(i)
    basis = [tuple(int(i == j) for j in range(p)) for i in picked]
    while not (density := weyl_density(F, basis)):
        rows = [row for v in basis for row in combination(zip(v, F), p).nonzeros if row]
        grown = (basis + [tuple(vec.get(i, ZERO) for i in range(p))] for vec in kernel(rows, p))
        # the first centralizer vector outside the span leaves the columns independent
        basis = next((g for g in grown if not kernel(
            [{a: v[i] for a, v in enumerate(g) if v[i]} for i in range(p)], len(g))), None)
        if basis is None:
            raise HolonomyAverageError("no Cartan subalgebra with a nonzero Weyl density found")
    return basis, density


def _beta_form(beta, u, v):
    """<u, beta v>, summed over the nonzero entries of u, beta and v."""
    return sum((x * b * v[j] for i, x in enumerate(u) if x
                for j, b in beta.nonzeros[i].items() if v[j]), ZERO)


def _beta_orthogonal(basis, beta) -> list:
    """The torus basis made beta-orthogonal by congruence.

    Gram-Schmidt under beta; a v_a with d_a = <v_a, beta v_a> = 0 first
    becomes v_a +- v_b for a later v_b, one of whose norms
    d_b +- 2 <v_a, beta v_b> is nonzero unless beta is singular on the
    torus.  A basis that is already orthogonal, as every catalog torus is,
    comes back unchanged.
    """
    form, vecs = partial(_beta_form, beta), list(basis)
    for a, v in enumerate(vecs):
        if not form(v, v):
            v = vecs[a] = next((u for w in vecs[a + 1:] for c in (1, -1)
                                if form(u := tuple(x + c * y for x, y in zip(v, w)), u)), None)
            if v is None:
                raise HolonomyAverageError("beta is singular on the Cartan subalgebra")
        for b in range(a + 1, len(vecs)):
            if c := form(vecs[b], v):
                c = c / form(v, v)
                vecs[b] = tuple(x - c * y for x, y in zip(vecs[b], v))
    return vecs


# ---------------------------------------------------------------------------
# validation


def first_failure(name: str, items, holds, label: str = "indices") -> CheckResult:
    """Check `name` over items in order; the detail names the first item where holds fails."""
    bad = next((t for t in items if not holds(t)), None)
    return CheckResult(name, bad is None, "" if bad is None else f"{label} {bad}")


def weight_invariance(m: SymmetricSpaceModel) -> CheckResult:
    """beta F_j is antisymmetric for every j: the weight exp(-<w, beta w>/4)
    is invariant under the holonomy algebra.  (beta F_j) + (beta F_j)^T is
    summed entry by entry, unreduced, and must vanish."""
    beta = [(a, b, x) for a, row in enumerate(m.beta.nonzeros) for b, x in row.items()]

    def holds(j):
        f, acc = m.F[j].nonzeros, {}
        for a, b, x in beta:
            for c, y in f[b].items():
                _add_product(acc, (a, c), x.p, x.q, x.d, y)
                _add_product(acc, (c, a), x.p, x.q, x.d, y)
        return _vanishes(acc)

    return first_failure("beta-f-invariance", range(m.p), holds, "index")


def validate_model(m: SymmetricSpaceModel) -> ValidationReport:
    """Run every exact structural check; failures are report entries."""
    checks = []
    n, p, N = m.n, m.p, m.N
    E, D, F, C, R, beta = m.data.E, m.D, m.F, m.C, m.riemann, m.beta

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, passed, detail if not passed else ""))

    bad = [i for i, e in enumerate(E) if e.transpose() != -e]
    add("e-antisymmetry", not bad, f"E indices {bad}")

    add("beta-symmetric", beta.transpose() == beta)
    try:
        invert(beta) if p else None
        add("beta-invertible", True)
    except ValueError:
        add("beta-invertible", False, "beta is singular")

    bad = [i for i, d in enumerate(D)
           if d != -combination(((beta[i, k], E[k]) for k in range(p)), n)]
    add("d-from-e-beta", not bad, f"D indices {bad}")
    bad = [i for i, d in enumerate(D) if not d.trace().is_zero()]
    add("d-traceless", not bad, f"D indices {bad}")

    want = _riemann_entries(E, beta)
    checks += [
        first_failure("riemann-from-e-beta", sorted(R.keys() | want.keys()),
                      lambda t: R.get(t, ZERO) == want.get(t, ZERO), "entry"),
        _riemann_integrability(R),
    ]

    def bracket_holds(ik):  # [D_i, D_k] = F^j_ik D_j
        i, k = ik
        return commutator(D[i], D[k]) == combination(((F[i][j, k], D[j]) for j in range(p)), n)

    def e_d_f_holds(ik):
        i, k = ik
        lhs = E[i] * D[k]
        return lhs - lhs.transpose() == combination(((F[k][i, j], E[j]) for j in range(p)), n)

    def adjoint_holds(ab):  # C^c_ab = (C_a)[c, b]
        a, b = ab
        return commutator(C[a], C[b]) == combination(((C[a][c, b], C[c]) for c in range(N)), N)

    checks += [
        first_failure("holonomy-bracket", index_pairs(p), bracket_holds, "pair"),
        first_failure("e-d-f-compatibility", itertools.product(range(p), repeat=2),
                      e_d_f_holds, "pair"),
        weight_invariance(m),
        first_failure("adjoint-closure", index_pairs(N), adjoint_holds, "pair"),
        first_failure("gamma-invariance", range(N),
                      lambda c: (gc := m.gamma * C[c]).transpose() == -gc, "index"),
    ]

    def flat_failures():  # each failing item, in order
        for e in range(m.flat_dim):
            yield from (f"E^{i} row {e}" for i, Ei in enumerate(E) if Ei.nonzeros[e])
            yield from (f"D_{i} direction {e}" for i, Di in enumerate(D)
                        if Di.nonzeros[e] or any(e in row for row in Di.nonzeros))
            if any(x for key, x in R.items() if key[0] == e):
                yield f"R row {e}"

    detail = next(flat_failures(), "")
    add("flat-projector-annihilation", not detail, detail)

    return ValidationReport(tuple(checks))


def _riemann_entries(E, beta) -> dict:
    """R_abcd = beta_ik E^i_ab E^k_cd summed over nonzero beta and E entries
    only; each entry is accumulated unreduced and settled once."""
    support = [[(a, b, x) for a, row in enumerate(e.nonzeros) for b, x in row.items()]
               for e in E]
    acc = {}
    for i, row in enumerate(beta.nonzeros):
        for k, g in row.items():
            for a, b, x in support[i]:
                gp, gq, gd = g.p * x.p - g.q * x.q, g.p * x.q + g.q * x.p, g.d * x.d
                for c, d, y in support[k]:
                    _add_product(acc, (a, b, c, d), gp, gq, gd, y)
    return _settle(acc, {})


def _riemann_integrability(R: dict) -> CheckResult:
    """R^{fg}_{ea} R^e_{bcd} antisymmetrized combination must vanish.

    With T_xyuv = R_fgex R_eyuv, the residual at (a, b, c, d) is
    T_abcd - T_bacd + T_cdab - T_dcab.  For each (f, g), T is summed over
    the stored entries only and the residual's keys are visited in order,
    so the first failure is the lexicographically first (f, g, a, b, c, d).
    """
    by_fg, by_e = {}, {}  # R_fgex as (e, x, r) under (f, g); R_eyuv as (y, u, v, s) under e
    for (a, b, c, d), x in sorted(R.items()):
        by_fg.setdefault((a, b), []).append((c, d, x))
        by_e.setdefault(a, []).append((b, c, d, x))
    residual = {}  # the current (f, g)'s residual; candidates() refills it before yielding

    def candidates():
        for fg, row in by_fg.items():
            t = {}
            for e, x, r in row:
                for y, u, v, s in by_e.get(e, ()):
                    key = (x, y, u, v)
                    t[key] = t.get(key, ZERO) + r * s
            residual.clear()
            for (x, y, u, v), val in t.items():
                for key, term in (((x, y, u, v), val), ((y, x, u, v), -val),
                                  ((u, v, x, y), val), ((u, v, y, x), -val)):
                    residual[key] = residual.get(key, ZERO) + term
            for key in sorted(residual):
                yield fg + key

    return first_failure("riemann-integrability", candidates(),
                         lambda t: not residual[t[2:]])


# ---------------------------------------------------------------------------
# catalog


def sphere(n: int, radius=1) -> SymmetricSpaceModel:
    """Round n-sphere of the given rational radius."""
    return build_model(_constant_curvature_data(n, radius, +1))


def hyperbolic(n: int, radius=1) -> SymmetricSpaceModel:
    """Hyperbolic n-space, the negative-curvature dual of the sphere."""
    return build_model(_constant_curvature_data(n, radius, -1))


def flat(n0: int) -> SymmetricSpaceModel:
    """Flat factor R^{n0}: no curvature, empty holonomy."""
    data = CurvatureData(n=n0, p=0, E=(), beta=Matrix.zeros(0, 0), flat_dim=n0)
    return build_model(data)


@cache
def _unit_frame(n: int) -> tuple:
    """The unit bivectors of unit_bivectors(n), in order, as one tuple built
    once per n: the constant-curvature frame E, free of the radius."""
    return tuple(unit_bivectors(n).values())


def _constant_curvature_data(n: int, radius, sign: int) -> CurvatureData:
    a = rational(radius)
    if a <= 0:
        raise ModelBuildError("radius must be a positive rational")
    E = _unit_frame(n)
    beta = Matrix.identity(len(E)).scale(rational(sign) / (a * a))
    return CurvatureData(n=n, p=len(E), E=E, beta=beta, flat_dim=0)


def product(models) -> SymmetricSpaceModel:
    """Product space; flat directions of all factors are moved to the front."""
    models = list(models)
    if not models:
        raise ModelBuildError("product of zero factors")
    n_total = sum(m.n for m in models)
    flat_total = sum(m.flat_dim for m in models)
    # global index of each factor coordinate, flat coordinates first
    flat_ids, curved_ids = iter(range(flat_total)), iter(range(flat_total, n_total))
    index_map = [[next(flat_ids if a < m.flat_dim else curved_ids) for a in range(m.n)]
                 for m in models]

    def embed(e, local):
        rows = [{} for _ in range(n_total)]
        for a, row in enumerate(e.nonzeros):
            rows[local[a]] = {local[b]: x for b, x in row.items()}
        return Matrix.from_nonzeros(n_total, rows)

    return build_model(CurvatureData(
        n=n_total, p=sum(m.p for m in models),
        E=tuple(embed(e, local) for m, local in zip(models, index_map) for e in m.data.E),
        beta=_block_diag([m.beta for m in models]), flat_dim=flat_total))


def _catalog_dim(params: dict) -> int:
    n = at_most(json_kind(params["n"], int, "n"), MAX_N, "n")
    if n < 1:
        raise ModelBuildError(f"catalog spaces need n >= 1, got {n}")
    return n


def catalog_space(name: str, params: dict) -> SymmetricSpaceModel:
    """Build a catalog model from a descriptor name and parameter dict."""
    if name == "sphere":
        return sphere(_catalog_dim(params), rational(params.get("radius", 1)))
    if name == "hyperbolic":
        return hyperbolic(_catalog_dim(params), rational(params.get("radius", 1)))
    if name == "flat":
        return flat(_catalog_dim(params))
    if name == "product":
        factors = json_kind(params.get("factors", []), list, "factors")
        if not factors:
            raise ModelBuildError("product needs a 'factors' list")
        models, n_total = [], 0
        for f in factors:  # refuse as soon as the running total passes MAX_N
            models.append(space_from_descriptor(f))
            n_total = at_most(n_total + models[-1].n, MAX_N, "product n")
        return product(models)
    raise ModelBuildError(f"unknown catalog space {name!r}")


def space_from_descriptor(obj: dict) -> SymmetricSpaceModel:
    """Parse the JSON space descriptor (catalog or explicit form)."""
    if "catalog" in json_kind(obj, dict, "space"):
        return catalog_space(obj["catalog"], json_kind(obj.get("params", {}), dict, "params"))
    if "explicit" in obj:
        body = json_kind(obj["explicit"], dict, "explicit space")
        p = json_kind(body["p"], int, "p")
        data = CurvatureData(
            n=at_most(json_kind(body["n"], int, "n"), MAX_N, "n"),
            p=p,
            E=tuple(Matrix.from_json(e) for e in json_kind(body["E"], list, "E")),
            beta=Matrix.from_json(body["beta"]) if p else Matrix.zeros(0, 0),
            flat_dim=json_kind(body.get("flat_dim", 0), int, "flat_dim"),
        )
        return build_model(data)
    raise ModelBuildError("space descriptor needs 'catalog' or 'explicit'")
