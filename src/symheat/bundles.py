"""Homogeneous twisted bundle data: fiber generators, holonomy action, twist.

A fiber representation consists of so(n) generators G_ab acting on the
fiber, an optional abelian twist B_ab (fiber-scalar, purely imaginary,
supported on the flat directions only), and the derived objects: holonomy
generators R_i = -(1/2) beta_ik S_k and the Casimir R^2 = -(1/2) S_i R_i,
both from S_k = E^k_ab G_ab; the total curvature Omega_ab = -E^i_ab R_i + B_ab
is derived on first read.

The purely imaginary convention for B encodes a real magnetic-type field
strength: the twist matrix then has real eigenvalues, so its sinh-type
determinant factor has real rational series coefficients.

Spinor generators are assembled from Kronecker products of the three
standard 2x2 Hermitian matrices, keeping every entry inside the Gaussian
rationals; the explicit catalog covers n <= 6.  A catalog tensor product
is assembled as one generator table and built once.  A catalog table
depends on (name, n, factors) alone, so it is built once per process and
shared across radii; the catalog's argument checks run on every call.

beta is invertible, so span{R_i} = span{S_k} whatever beta is; on a
catalog space beta carries only the radius and the sign.  G's antisymmetry
and the so(n) relations read G alone, so they run once per table and are
kept on it (GeneratorTable.checks).  A scale c of beta multiplies R and the
Casimir by c, and every item of the holonomy bracket, Casimir centrality
and integrability checks by c^2, so those three run once per frame (the
unit-scale model, SymmetricSpaceModel.unit) and table, on the frame, and
are kept with R0 and the Casimir there (UnitFiber, held by
GeneratorTable.fibers); a rep scales R0 and the Casimir by the model's
scale c.  Only the twist's support, which reads B, runs on every call.

validate_rep walks nonzero couplings only: a check item whose operands are
all zero holds without forming a matrix, and a check whose items all hold
for zero generators visits none when they are zero, so a scalar fiber (every
G_ab, R_i and the Casimir zero) forms no matrix and visits no so(n) or
integrability item.  G's antisymmetry is compared entry by entry.  Each
so(n) item, each holonomy residual res_ik = [R_i, R_k] - F^j_ik R_j and
the Casimir is one exact.combination whose products are passed as factor
terms (c, A, B), so no product or commutator is formed only to be
combined.  Each residual is formed once and kept when nonzero, and the
curvature integrability check combines those residuals with the nonzero
R_j through scalars that the model alone determines.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cache, cached_property

from .exact import (
    GaussianRational, I_UNIT, Matrix, ONE, ZERO, at_most, combination, commutator, json_kind,
    rational,
)
from .spaces import (
    CheckResult, SymmetricSpaceModel, ValidationReport, entries_at, first_failure, index_pairs,
    unit_bivectors,
)

PAULI_X = Matrix.from_rows([[0, 1], [1, 0]])
PAULI_Y = Matrix.from_rows([[ZERO, -I_UNIT], [I_UNIT, ZERO]])
PAULI_Z = Matrix.from_rows([[1, 0], [0, -1]])

SPINOR_MAX_DIM = 6
# Largest explicit fiber or catalog tensor product a job may ask for.  The
# fiber build does not limit it: an explicit fiber with zero generators
# builds in about 1 ms on S3 and S6 at dimV = 32 or 64 (2-core x86 VM,
# Python 3.11), and its commutant projection is the identity, so k = 3 on
# S3 takes about 4 ms at either size.  The engine's commutant solve over
# dimV^2 unknowns does, on a fiber with nonzero generators: k = 2 takes
# 0.15 s on the S3 vector x vector x vector product (dimV = 27).
MAX_EXPLICIT_DIMV = 32


class BundleError(ValueError):
    """Raised when fiber data violates a structural constraint."""


@dataclass
class FiberRep:
    """Fiber representation tied to a symmetric-space model.

    G is the full antisymmetric table G[a][b] (dimV x dimV matrices with
    G[b][a] = -G[a][b]); B is the n x n fiber-scalar twist; R holds the
    p holonomy generators; Omega, the total curvature table, is computed on
    first read.  report is the validate_rep verdict build_rep reached on it.
    unit is the UnitFiber on the model's frame, with R = c unit.R and the
    Casimir c unit.casimir for the model's scale c: build_rep sets the one
    its frame and table share, and any other rep (dataclasses.replace, a
    direct call) derives its own from R / c and the Casimir / c on first read.
    """

    model: SymmetricSpaceModel
    dimV: int
    G: tuple
    B: Matrix
    R: tuple
    casimir: Matrix
    report: ValidationReport | None = None

    @cached_property
    def unit(self) -> UnitFiber:
        inv = ONE / self.model.scale
        return UnitFiber(self.model.unit, self.dimV, tuple(r.scale(inv) for r in self.R),
                         self.casimir.scale(inv))

    @cached_property
    def Omega(self) -> tuple:
        """Omega_ab = -E^i_ab R_i + B_ab."""
        E, n, eye = self.model.data.E, self.model.n, Matrix.identity(self.dimV)
        return tuple(
            tuple(combination([(-E[i][a, b], r) for i, r in enumerate(self.R)]
                              + [(self.B[a, b], eye)], self.dimV) for b in range(n))
            for a in range(n)
        )


class UnitFiber:
    """A fiber on a frame's unit-scale model: R0 and the Casimir there, and
    the fiber-holonomy-bracket, casimir-centrality and
    fiber-curvature-integrability results on them (checks), which hold
    unchanged at every scale of beta; shift is the model's R/8 + R_H/6, so
    that M0 = shift I - Casimir is the prefactor's exponent at this scale.
    The engine keeps here what it derives from these and the frame alone,
    none of it scaled: the cosh pencil on the frame's torus basis (cosh) and
    the prefactor [M0^i / i!] (prefactor), each per degree, and the
    commutant's basis and duals (commutant, None until solved).

    It holds neither its model nor its table, so the table's memo
    (GeneratorTable.fibers) keeps no frame alive.
    """

    def __init__(self, model: SymmetricSpaceModel, dimV: int, R: tuple, casimir: Matrix):
        self.dimV, self.R, self.casimir = dimV, R, casimir
        self.shift = model.scalar_R / 8 + model.R_H / 6
        self.checks = _fiber_checks(model, R, casimir)
        self.cosh = {}
        self.prefactor = {}
        self.commutant = None


def _normalize_generators(n: int, dimV: int, G) -> "GeneratorTable":
    """Accept {(a, b): M} with a < b or a full table; return the full table.

    A GeneratorTable of this shape is returned as it is, with the checks it
    carries."""
    if isinstance(G, GeneratorTable) and len(G) == n and (not n or G[0][0].rows == dimV):
        return G
    zero = Matrix.zeros(dimV)  # one shared value for every empty cell
    table = [[zero] * n for _ in range(n)]
    if isinstance(G, dict):
        for (a, b), m in G.items():
            if not (0 <= a < b < n):
                raise BundleError(f"generator key {(a, b)} out of range")
            table[a][b] = m
            table[b][a] = -m if m else m
    else:
        rows = list(G)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise BundleError("generator table must be n x n")
        for a in range(n):
            for b in range(n):
                table[a][b] = rows[a][b]
    for a in range(n):
        for b in range(n):
            m = table[a][b]
            if m.rows != dimV or m.cols != dimV:
                raise BundleError(f"generator ({a},{b}) has the wrong shape")
    return GeneratorTable(tuple(row) for row in table)


class GeneratorTable(tuple):
    """A full generator table G[a][b]: n rows of n dimV x dimV matrices.

    The table, its rows and its matrices are immutable, so the two checks
    that read G alone, its antisymmetry and the so(n) relations, are run on
    first read and kept on the table (checks).  A catalog table is built
    once per process and shared across radii, so those checks run once per
    table; any other table carries its own results and drops them with
    itself.  fibers maps each frame (a unit-scale model) the table was
    built on to its UnitFiber there; the frame is held weakly, so the memo
    holds no more entries than there are live frames.
    """

    @cached_property
    def checks(self) -> tuple:
        return _table_checks(self)

    @cached_property
    def fibers(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()


def _table_checks(G) -> tuple:
    """The fiber-g-antisymmetry and fiber-so-n-relations results of a full
    table, each naming its first failing item."""
    n = len(G)

    def g_antisymmetry():  # the first failing item, or ""
        # pair (a, b) fails exactly when (b, a) does, and (a, b) comes first
        for a in range(n):
            if G[a][a]:
                return f"diagonal ({a},{a})"
            for b in range(a + 1, n):  # G_ab = -G_ba, row by row on canonical entries
                if (G[a][b] or G[b][a]) and any(
                        x.keys() != y.keys() or any(v.p != -(w := y[j]).p or v.q != -w.q
                                                    or v.d != w.d for j, v in x.items())
                        for x, y in zip(G[a][b].nonzeros, G[b][a].nonzeros)):
                    return f"pair ({a},{b})"
        return ""

    detail = g_antisymmetry()

    # Both fiber relations flip sign under a <-> b and under c <-> d, and
    # the so(n) one also under (ab) <-> (cd); with G antisymmetric, the
    # lexicographically first failure is therefore among the pairs below.
    # Every item below reads its nonzero operands only: an item whose
    # operands are all zero holds without a sum.
    pairs = index_pairs(n)

    def so_n_holds(abcd):  # [G_ab, G_cd] = d_bc G_ad - d_ac G_bd - d_bd G_ac + d_ad G_bc
        a, b, c, d = abcd
        # one combination of the products of [G_ab, G_cd] and -s G per delta term s G
        terms = [(-s, m) for s, m in (
            (int(b == c), G[a][d]), (-int(a == c), G[b][d]),
            (-int(b == d), G[a][c]), (int(a == d), G[b][c])) if s and m]
        if (a, b) != (c, d) and G[a][b] and G[c][d]:  # [X, X] = 0
            terms += [(1, G[a][b], G[c][d]), (-1, G[c][d], G[a][b])]
        return not terms or not combination(terms, G[0][0].rows)

    return (CheckResult("fiber-g-antisymmetry", not detail, detail),
            first_failure(  # every item holds when every G_ab is zero
                "fiber-so-n-relations",
                ((a, b, c, d) for x, (a, b) in enumerate(pairs) for c, d in pairs[x:])
                if any(g for row in G for g in row) else (),
                so_n_holds))


def validate_rep(rep: FiberRep) -> ValidationReport:
    """Exact checks on an assembled fiber representation, each naming its
    first failing item: G antisymmetry, the so(n) relations, the twist's
    flat support, the holonomy bracket, Casimir centrality and curvature
    integrability.

    The first two read G alone (GeneratorTable.checks); a table that is not
    a GeneratorTable, say one put in by dataclasses.replace, is checked
    afresh.  The last three are read off the rep's UnitFiber (rep.unit),
    whose results hold at every scale.  Only the twist's support runs on
    every call.
    """
    B, flat_dim = rep.B, rep.model.flat_dim
    checks = list(rep.G.checks if isinstance(rep.G, GeneratorTable) else _table_checks(rep.G))

    def twist_flat_support():  # the first failing item, or ""
        if B.transpose() != -B:
            return "B not antisymmetric"
        for a, row in enumerate(B.nonzeros):
            for b in sorted(row):
                if row[b].re != 0:
                    return f"B({a},{b}) not purely imaginary"
                if a >= flat_dim or b >= flat_dim:
                    return f"B({a},{b}) on a curved direction"
        return ""

    detail = twist_flat_support()
    checks.append(CheckResult("twist-flat-support", not detail, detail))
    checks += rep.unit.checks
    return ValidationReport(tuple(checks))


def _fiber_checks(model: SymmetricSpaceModel, R: tuple, casimir: Matrix) -> tuple:
    """The fiber-holonomy-bracket, casimir-centrality and
    fiber-curvature-integrability results of R and the Casimir on model."""
    n, p = model.n, model.p
    dimV = casimir.rows
    pairs = index_pairs(n)

    # the holonomy bracket's residual res_ik = [R_i, R_k] - F^j_ik R_j, i < k,
    # is one combination per pair, kept only when it is nonzero.  With every
    # R_j zero there is no residual and every integrability item holds, so
    # the indices below are built only when some R_j is nonzero.
    live = any(R)
    res = {}
    f_at = {}  # (i, k): [(j, F^j_ik)] over the nonzero F^j_ik
    e_at = {}  # (a, b): [(i, E^i_ab)] over the nonzero E^i_ab
    r_at = {}  # (b, c, d): [(f, R_fbcd)] over the nonzero entries
    if live:
        for i, f in enumerate(model.F):
            for j, row in enumerate(f.nonzeros):
                for k, x in row.items():
                    f_at.setdefault((i, k), []).append((j, x))
        for i, k in index_pairs(p):
            terms = [(1, R[i], R[k]), (-1, R[k], R[i])] if R[i] and R[k] else []
            terms += [(-x, R[j]) for j, x in f_at.get((i, k), ()) if R[j]]
            if terms and (m := combination(terms, dimV)):
                res[i, k] = m
        e_at = entries_at(model.data.E)
        for (f, b, c, d), x in model.riemann.items():
            r_at.setdefault((b, c, d), []).append((f, x))

    checks = [
        first_failure("fiber-holonomy-bracket", index_pairs(p), lambda ik: ik not in res, "pair"),
        first_failure("casimir-centrality", range(p),
                      lambda i: not (casimir and R[i])
                      or commutator(casimir, R[i]).is_zero(), "index"),
    ]

    # parallel-curvature integrability of the holonomy part of Omega:
    # with curlyE_ab = -E^i_ab R_i,
    # [curlyE_cd, curlyE_ab] = R^f_acd curlyE_fb + R^f_bcd curlyE_af.
    # The left side is sum_{i != k} E^i_cd E^k_ab [R_i, R_k]; writing each
    # bracket as res_ik + F^j_ik R_j, left minus right is
    # sum_{i != k} E^i_cd E^k_ab res_ik + sum_j c^j_abcd R_j with the model's
    # scalars c^j_abcd = E^i_cd E^k_ab F^j_ik + R_facd E^j_fb + R_fbcd E^j_af
    # (i != k), needed at the nonzero R_j only.
    def integrable(abcd):
        a, b, c, d = abcd
        terms, cj = [], {}
        for i, x in e_at.get((c, d), ()):
            for k, y in e_at.get((a, b), ()):
                if i == k:
                    continue
                # [R_i, R_k] = -[R_k, R_i] for i > k
                lo, hi, xy = (i, k, x * y) if i < k else (k, i, -(x * y))
                if m := res.get((lo, hi)):
                    terms.append((xy, m))
                for j, f in f_at.get((lo, hi), ()):
                    cj[j] = cj.get(j, ZERO) + xy * f
        for f, x in r_at.get((a, c, d), ()):
            for j, y in e_at.get((f, b), ()):
                cj[j] = cj.get(j, ZERO) + x * y
        for f, x in r_at.get((b, c, d), ()):
            for j, y in e_at.get((a, f), ()):
                cj[j] = cj.get(j, ZERO) + x * y
        terms += [(x, R[j]) for j, x in cj.items() if x and R[j]]
        return not terms or combination(terms, dimV).is_zero()

    checks.append(first_failure(
        "fiber-curvature-integrability",
        ((a, b, c, d) for a, b in pairs for c, d in pairs) if live else (), integrable))
    return tuple(checks)


def _holonomy(model: SymmetricSpaceModel, table, dimV: int) -> tuple:
    """(R, Casimir) of a full generator table on model."""
    # With S_k = E^k_ab G_ab, R_i = -(1/2) D^a_ib G^b_a = -(1/2) beta_ik S_k and
    # R^2 = (1/4) R^abcd G_ab G_cd = (1/4) beta_ik S_i S_k = -(1/2) S_i R_i.  Both
    # hold exactly for any generator table: D_i = -beta_ik E^k, and build_model
    # enforces that each E^k is antisymmetric, so E^k_ab G_ba = -S_k.  (beta is
    # symmetric as well, so which index of beta is summed does not matter.)
    # Zero operands are skipped, so a scalar fiber forms no product.
    minus_half = GaussianRational(rational(-1, 2))
    S = [combination(((x, table[a][b]) for a, row in enumerate(e.nonzeros) for b, x in row.items()
                      if table[a][b]), dimV) for e in model.data.E]
    R = tuple(combination(((minus_half * x, S[k]) for k, x in row.items() if S[k]), dimV)
              for row in model.beta.nonzeros)
    casimir = combination(((minus_half, s, r) for s, r in zip(S, R) if s and r), dimV)
    return R, casimir


def build_rep(model: SymmetricSpaceModel, G, B: Matrix | None = None, *,
              dimV: int) -> FiberRep:
    """Assemble and check a fiber representation.

    G may be a dict {(a, b): matrix} for a < b or a full n x n table; B
    defaults to zero.  Raises BundleError when any of the six validate_rep
    checks fails (G antisymmetry, the so(n) relations, the twist's flat
    support, the holonomy bracket, Casimir centrality, curvature
    integrability), naming the failed checks; the passing report is kept as
    rep.report.

    R and the Casimir are linear in beta, so the table's UnitFiber on the
    model's frame, derived at the frame's beta0 on first use and kept in
    table.fibers, serves every radius and sign: the rep scales its R and
    Casimir by the model's scale c, with beta = c beta0.  A failing fiber is
    kept too, and raises the same BundleError on every call.
    """
    n = model.n
    if dimV < 1:
        raise BundleError(f"fibers need dimV >= 1, got {dimV}")
    table = _normalize_generators(n, dimV, G)
    if B is None:
        B = Matrix.zeros(n)
    if B.rows != n or B.cols != n:
        raise BundleError("twist matrix must be n x n")

    frame = model.unit
    fiber = table.fibers.get(frame)
    if fiber is None:
        fiber = table.fibers[frame] = UnitFiber(frame, dimV, *_holonomy(frame, table, dimV))
    c = model.scale
    rep = FiberRep(model=model, dimV=dimV, G=table, B=B,
                   R=tuple(r.scale(c) for r in fiber.R), casimir=fiber.casimir.scale(c))
    rep.unit = fiber
    rep.report = validate_rep(rep)
    if not rep.report.ok:
        raise BundleError(f"fiber checks failed: {', '.join(rep.report.failed())}")
    return rep


# ---------------------------------------------------------------------------
# catalog representations


def gamma_matrices(n: int) -> list[Matrix]:
    """Dirac matrices for n <= 6 with entries in {0, +-1, +-i}.

    Built recursively by Kronecker doubling; all gamma_a are Hermitian and
    satisfy {gamma_a, gamma_b} = 2 delta_ab.
    """
    if not 1 <= n <= SPINOR_MAX_DIM:
        raise BundleError(f"spinor catalog covers 1 <= n <= {SPINOR_MAX_DIM}")
    gammas = [PAULI_X, PAULI_Y]
    while len(gammas) + 2 <= n:
        dim = gammas[0].rows
        eye = Matrix.identity(dim)
        nxt = [PAULI_X.kron(g) for g in gammas]
        nxt.append(PAULI_X.kron(_chirality(gammas)))
        nxt.append(PAULI_Y.kron(eye))
        gammas = nxt
    if len(gammas) < n:
        gammas.append(_chirality(gammas))
    return gammas[:n] if n > 1 else [Matrix.identity(1)]


def _chirality(gammas: list[Matrix]) -> Matrix:
    """Product (-i)^m gamma_1 ... gamma_2m, Hermitian with square one."""
    m = len(gammas) // 2
    acc = Matrix.identity(gammas[0].rows)
    for g in gammas:
        acc = acc * g
    phase = GaussianRational(1)
    for _ in range(m):
        phase = phase * GaussianRational(0, -1)
    return acc.scale(phase)


def spin_generator_table(n: int) -> dict:
    """G_ab = (1/4)[gamma_a, gamma_b] for a < b."""
    gammas = gamma_matrices(n)
    return {
        (a, b): commutator(gammas[a], gammas[b]).scale(rational(1, 4))
        for a, b in index_pairs(n)
    }


def twist_matrix(model: SymmetricSpaceModel, blocks) -> Matrix:
    """Abelian twist from 2x2 block strengths on the leading flat directions.

    Block j with strength b occupies flat coordinates (2j, 2j+1) and
    contributes B[2j, 2j+1] = i*b.
    """
    blocks = [rational(b) for b in blocks]
    if 2 * len(blocks) > model.flat_dim:
        raise BundleError(
            f"twist needs {2 * len(blocks)} flat directions, "
            f"model has {model.flat_dim}"
        )
    rows = [{} for _ in range(model.n)]
    for j, b in enumerate(blocks):
        rows[2 * j] = {2 * j + 1: GaussianRational(0, b)}
        rows[2 * j + 1] = {2 * j: GaussianRational(0, -b)}
    return Matrix.from_nonzeros(model.n, rows)


def _kron_sum(G1: dict, dim1: int, G2: dict, dim2: int) -> dict:
    """Tensor product generators G1_ab (x) I + I (x) G2_ab on each index pair."""
    e1, e2 = Matrix.identity(dim1), Matrix.identity(dim2)
    return {ab: g.kron(e2) + e1.kron(G2[ab]) for ab, g in G1.items()}


def _pair_generators(table) -> dict:
    """{(a, b): G_ab} over the index pairs a < b of a full table."""
    return {(a, b): table[a][b] for a, b in index_pairs(len(table))}


def _catalog_generators(model: SymmetricSpaceModel, name: str, twist, factors):
    """The full generator table (a GeneratorTable) and dimV of a catalog bundle.

    The argument checks run on every call, and a tensor product's dimV, the product
    of its factors', is held to MAX_EXPLICIT_DIMV before any Kronecker
    product is formed; the table is built once per process (_catalog_table).
    """
    if name == "u1_twist":
        if not twist:
            raise BundleError("u1_twist needs at least one block strength")
        if model.flat_dim < 2:
            raise BundleError("u1_twist needs flat_dim >= 2")
    if name == "spinor" and model.n > SPINOR_MAX_DIM:
        raise BundleError(f"spinor catalog covers n <= {SPINOR_MAX_DIM}")
    if name == "tensor_product":
        if not factors or len(factors) < 2:
            raise BundleError("tensor_product needs at least two factor names")
        at_most(math.prod(_catalog_generators(model, f, None, None)[1] for f in factors),
                MAX_EXPLICIT_DIMV, "dimV")
    elif name not in ("scalar", "u1_twist", "vector", "spinor"):
        raise BundleError(f"unknown catalog bundle {name!r}")
    return _catalog_table(name, model.n, tuple(factors) if name == "tensor_product" else ())


@cache
def _catalog_table(name: str, n: int, factors: tuple) -> tuple:
    """(table, dimV) of a catalog bundle that passed its checks.  One table
    object serves every radius and sign, so the checks it carries run once."""
    if name in ("scalar", "u1_twist"):
        G, dimV = dict.fromkeys(index_pairs(n), Matrix.zeros(1)), 1
    elif name == "vector":
        G, dimV = unit_bivectors(n), n
    elif name == "spinor":
        G, dimV = spin_generator_table(n), 2 ** (n // 2)
    else:
        table, dimV = _catalog_table(factors[0], n, ())
        G = _pair_generators(table)
        for f in factors[1:]:
            table, dim2 = _catalog_table(f, n, ())
            G, dimV = _kron_sum(G, dimV, _pair_generators(table), dim2), dimV * dim2
    return _normalize_generators(n, dimV, G), dimV


def catalog_rep(model: SymmetricSpaceModel, name: str, *, twist=None,
                factors=None) -> FiberRep:
    """Catalog dispatch: scalar, vector, spinor, tensor_product, u1_twist."""
    G, dimV = _catalog_generators(model, name, twist, factors)
    B = twist_matrix(model, twist) if twist else None
    return build_rep(model, G, B, dimV=dimV)


def tensor_product_rep(rep1: FiberRep, rep2: FiberRep,
                       B: Matrix | None = None) -> FiberRep:
    """Fiber tensor product: G_ab = G1_ab (x) I + I (x) G2_ab, twists add.

    A further twist matrix B, if given, is added to the factors' twists.
    """
    if rep1.model is not rep2.model and rep1.model.data != rep2.model.data:
        raise BundleError("tensor factors live over different models")
    table = _kron_sum(_pair_generators(rep1.G), rep1.dimV, _pair_generators(rep2.G), rep2.dimV)
    twist = rep1.B + rep2.B
    if B is not None:
        twist = twist + B
    return build_rep(rep1.model, table, twist, dimV=rep1.dimV * rep2.dimV)


def _optional(value, kind: type, name: str):
    """An optional JSON field: None (absent or null) or a value of one kind."""
    return value if value is None else json_kind(value, kind, name)


def rep_from_descriptor(model: SymmetricSpaceModel, bundle: dict | None,
                        twist: dict | None = None) -> FiberRep:
    """Parse the JSON bundle + twist descriptors."""
    twist = _optional(twist, dict, "twist") or {}
    blocks = _optional(twist.get("blocks"), list, "twist blocks")
    bundle = _optional(bundle, dict, "bundle") or {"catalog": "scalar"}
    if "catalog" in bundle:
        factors = _optional(bundle.get("factors"), list, "bundle factors")
        return catalog_rep(model, bundle["catalog"], twist=blocks, factors=factors)
    if "explicit" in bundle:
        body = json_kind(bundle["explicit"], dict, "explicit bundle")
        dimV = at_most(json_kind(body["dimV"], int, "dimV"), MAX_EXPLICIT_DIMV, "dimV")
        table = {}
        for key, mat in json_kind(body.get("G", {}), dict, "bundle G").items():
            a, b = (int(x) for x in key.split(","))
            table[(a - 1, b - 1)] = Matrix.from_json(mat)
        B = twist_matrix(model, blocks) if blocks else None
        return build_rep(model, table, B, dimV=dimV)
    raise BundleError("bundle descriptor needs 'catalog' or 'explicit'")
