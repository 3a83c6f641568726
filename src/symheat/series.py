"""Omega-polynomials in s (s^2 = t) for the generating function.

Everything the generating function needs is expanded to a requested order
with exact coefficients: the determinant factors as exponents tr(log(.))
from power sums of pencil powers, the cosh of a matrix pencil, matrix
exponentials, and the twist factor.  Determinants of series-valued
matrices are never computed by cofactor expansion; only traces of matrix
powers enter.  There is one routine for pencil powers (_pencil_step,
sparse, shared by cosh, the det factors and the Weyl density), one
det(sinhc) expansion (det_sinhc_pencil, which also gives the twist
factor as a one-variable pencil in t) and one exp recurrence
(SeriesPoly.exp).  A pencil may be restricted to the span of a few
coefficient vectors (a Cartan subalgebra), one omega per vector.  The
Weyl density expands only the blocks of coordinates that the restricted
pencil couples, never the whole pencil.

Every sum of products here (each row of a pencil power, each monomial's
trace in a power sum, each coefficient of the exp recurrence and of
Newton's identities) accumulates as unreduced ints through exact's
_add_scaled and _add_product, with its int weights and its division by n
folded in, and is reduced once by exact._settle.

In every polynomial built here each omega variable carries exactly one
factor of s, so a term's s-power is its omega-degree until the Gaussian
average collapses the omegas.  A SeriesPoly therefore stores one exact
value per omega-monomial and leaves s^|mu| implicit.  Producing the
coefficients a_0..a_k needs truncation degree 2k; it is fixed once per
computation and every operation truncates against it.
"""
from __future__ import annotations

import functools
import math
from .exact import (
    GaussianRational, Matrix, ONE, ZERO, _add_product, _add_scaled, _settle, combination,
)


class SeriesPoly:
    """Polynomial in omega^1..omega^p with one exact value per monomial.

    A value is a dim x dim Matrix or, for the det(sinhc) factors, a
    GaussianRational (dim 1); the term at monomial mu carries s^|mu|
    implicitly.  Values multiply with `*` whatever their kinds, and zero
    values are dropped.
    """

    __slots__ = ("p", "dim", "degree", "terms")

    def __init__(self, p: int, dim: int, degree: int, terms=None):
        if degree < 0:
            raise ValueError("truncation degree must be non-negative")
        clean = {mono: v for mono, v in (terms or {}).items() if v and sum(mono) <= degree}
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesPoly is immutable")

    @classmethod
    def one(cls, p: int, dim: int, degree: int) -> "SeriesPoly":
        return cls(p, dim, degree, {(0,) * p: Matrix.identity(dim)})

    def __eq__(self, other):
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        return (
            self.p == other.p
            and self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other: "SeriesPoly") -> "SeriesPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, v in other.terms.items():
            out[mono] = out[mono] + v if mono in out else v
        return SeriesPoly(self.p, self.dim, self.degree, out)

    def scale(self, c) -> "SeriesPoly":
        return SeriesPoly(self.p, self.dim, self.degree, {
            mono: v * c for mono, v in self.terms.items()
        })

    def _check_compatible(self, other: "SeriesPoly"):
        if self.p != other.p:
            raise ValueError("omega variable counts differ")
        if self.degree != other.degree:
            raise ValueError("truncation degrees differ")

    def __mul__(self, other: "SeriesPoly") -> "SeriesPoly":
        """The truncated product; the value products landing on one monomial
        are summed in one go (_product_sum)."""
        self._check_compatible(other)
        right = [(m2, sum(m2), v2) for m2, v2 in other.terms.items()]
        groups = {}
        for m1, v1 in self.terms.items():
            room = self.degree - sum(m1)
            for m2, d2, v2 in right:
                if d2 <= room:
                    groups.setdefault(tuple(a + b for a, b in zip(m1, m2)), []).append((v1, v2))
        dim = self.dim if self.dim != 1 else other.dim
        return SeriesPoly(self.p, dim, self.degree,
                          {mono: _product_sum(pairs) for mono, pairs in groups.items()})

    def exp(self) -> "SeriesPoly":
        """exp of a scalar-valued polynomial with a zero constant term.

        Runs n g_n = sum_k k f_k g_(n-k), g_0 = 1, over the parts f_k of
        omega-degree k, on plain dicts; each coefficient of g_n accumulates
        its products, weights k and the division by n unreduced and is
        reduced once (_add_products).
        """
        zero_mono = (0,) * self.p
        if self.dim != 1:
            raise ValueError("polynomial exp needs scalar values")
        if zero_mono in self.terms:
            raise ValueError("polynomial exp needs a zero constant term")
        f = {}
        for mono, v in self.terms.items():
            f.setdefault(sum(mono), {})[mono] = GaussianRational.of(v)
        g = {0: {zero_mono: ONE}}
        for n in range(1, self.degree + 1):
            acc = {}
            for k, fk in f.items():
                if k <= n and n - k in g:
                    _add_products(acc, fk, g[n - k], k, n)
            if gn := _settle(acc, {}):
                g[n] = gn
        return SeriesPoly(self.p, 1, self.degree,
                          {mono: v for gn in g.values() for mono, v in gn.items()})


def log_sinhc_coeffs(order: int) -> list:
    """[c_0 .. c_order] of log(sinh(x)/x) = x^2/6 - x^4/180 + x^6/2835 - ...,
    as GaussianRational.

    Only even powers appear: c_2m = 2^(2m) B_2m / (2m (2m)!), with the
    Bernoulli numbers from sum_{j<=n} C(n+1, j) B_j = 0, B_0 = 1.  Each
    order is computed once; every call returns a fresh list.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    return list(_log_sinhc_coeffs(order))


@functools.cache
def _log_sinhc_coeffs(order: int) -> tuple:
    bern = [ONE]
    for n in range(1, order + 1):
        bern.append(-sum((math.comb(n + 1, j) * bern[j] for j in range(n)), ZERO) / (n + 1))
    coeffs = [ZERO] * (order + 1)
    for k in range(2, order + 1, 2):
        coeffs[k] = 2**k * bern[k] / (k * math.factorial(k))
    return tuple(coeffs)


def _sparse_generators(mats, scale, exponent=1, basis=None):
    """The generators scale*A_i as {row: {col: value}}, and the exponent.

    Each generator is read off the nonzero rows of its Matrix.  With a
    basis (coefficient vectors T_a over the A_i) the generators are
    scale*B_a with B_a = sum_i T_a[i] A_i (one exact.combination each), the
    pencil restricted to the span of the T_a.  Values and the exponent are
    GaussianRational, real or not.
    """
    dim = mats[0].rows if mats else 0
    for a in mats:
        if a.rows != a.cols or a.rows != dim:
            raise ValueError("pencil matrices must be square of a common size")
    if basis is not None:
        mats = [combination(zip(t, mats), dim) for t in basis]
    scale, exponent = GaussianRational.of(scale), GaussianRational.of(exponent)
    gens = []
    for a in mats:
        gens.append({r: {c: x * scale for c, x in row.items()}
                     for r, row in enumerate(a.nonzeros) if row})
    return gens, exponent


def _product_sum(pairs):
    """sum x*y over the (x, y) pairs of one monomial; one exact.combination
    when either side is a Matrix, its products passed as factors when both
    are, and one accumulated sum when both are scalars."""
    x, y = pairs[0]
    if isinstance(x, Matrix) and isinstance(y, Matrix):
        return combination(((1, x, y) for x, y in pairs), x.rows)
    if isinstance(y, Matrix):
        return combination(pairs, y.rows)
    if isinstance(x, Matrix):
        return combination(((y, x) for x, y in pairs), x.rows)
    acc = {}
    for x, y in pairs:
        x = GaussianRational.of(x)
        _add_product(acc, 0, x.p, x.q, x.d, GaussianRational.of(y))
    return _settle(acc, {}).get(0, ZERO)


def _pencil_step(power, gens):
    """A(omega)^(m+1) from A(omega)^m, both as {monomial: sparse matrix}.

    Each output row accumulates its products unreduced (exact._add_scaled)
    and is reduced once; rows and monomials that sum to zero are dropped.
    """
    acc = {}
    for mono, x in power.items():
        for i, a in enumerate(gens):
            dst = acc.setdefault(mono[:i] + (mono[i] + 1,) + mono[i + 1:], {})
            for r, xrow in x.items():
                drow = dst.setdefault(r, {})
                for c, xv in xrow.items():
                    arow = a.get(c)
                    if arow:
                        _add_scaled(drow, xv.p, xv.q, xv.d, arow)
    out = {}
    for mono, rows in acc.items():
        settled = {r: row for r, racc in rows.items() if racc and (row := _settle(racc, {}))}
        if settled:
            out[mono] = settled
    return out


def _trace_product(acc: dict, key, k: int, x, y):
    """acc[key] += k tr(X Y) for sparse {row: {col: value}} matrices, unreduced."""
    for r, xrow in x.items():
        for c, xv in xrow.items():
            yrow = y.get(c)
            if yrow is not None and (yv := yrow.get(r)) is not None:
                _add_product(acc, key, k * xv.p, k * xv.q, xv.d, yv)


def _add_products(acc: dict, x: dict, y: dict, c: int, n: int = 1):
    """acc += (c/n) x y for {monomial: scalar} polynomials, untruncated; each
    product is added unreduced (exact._add_product)."""
    for m1, v1 in x.items():
        a, b, d = c * v1.p, c * v1.q, n * v1.d
        for m2, v2 in y.items():
            _add_product(acc, tuple(map(int.__add__, m1, m2)), a, b, d, v2)


def _power_sum(pa, pb):
    """tr(P_a P_b) as {monomial: value}: tr(P_a[mu] P_b[nu]) summed at mu + nu.

    When P_a is P_b, each unordered pair of monomials is traced once with
    the weight 2, since tr(XY) = tr(YX).  Each monomial's trace is reduced
    once.
    """
    acc = {}
    items = list(pa.items())
    same = pa is pb
    for i, (mu, x) in enumerate(items):
        for nu, y in (items[i:] if same else pb.items()):
            _trace_product(acc, tuple(map(int.__add__, mu, nu)), 2 if same and nu != mu else 1,
                           x, y)
    return _settle(acc, {})


def _elementary_symmetric(psums: dict, top: int, zero_mono) -> list:
    """[e_0 .. e_top] from the power sums p_1 .. p_top by Newton's identities,
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i; each coefficient of e_k
    accumulates its products, signs and the division by k unreduced and is
    reduced once."""
    e = [{zero_mono: ONE}]
    for k in range(1, top + 1):
        acc = {}
        for i in range(1, k + 1):
            _add_products(acc, e[k - i], psums[i], (-1) ** (i - 1), k)
        e.append(_settle(acc, {}))
    return e


def _direct_power_sums(gens, coords, top: int, zero_mono, odd: bool = True) -> dict:
    """p_j = tr[A(omega)^j] for 1 <= j <= top (even j only unless odd) as
    {j: {monomial: value}}: the sum over monomial pairs (mu, nu) of
    tr(P_a[mu] P_b[nu]) at mu + nu, with P_m = A(omega)^m, a = floor(j/2)
    and b = ceil(j/2).  The powers start from the identity on coords, so
    on a block of coordinates that no generator couples to the rest they
    are the powers of that block's sub-pencil."""
    powers = [{zero_mono: {r: {r: ONE} for r in coords}}]
    for _ in range((top + 1) // 2):
        powers.append(_pencil_step(powers[-1], gens))
    return {j: _power_sum(powers[j // 2], powers[(j + 1) // 2])
            for j in range(1, top + 1) if odd or j % 2 == 0}


def det_sinhc_pencil(mats, scale, exponent, degree: int, basis=None) -> SeriesPoly:
    """The exponent f with det(sinhc(s*scale*A(omega)))^exponent = f.exp().

    With A(omega) = sum_i omega^i A_i and M = degree, f is the scalar-valued
    polynomial exponent * sum_m c_2m p_2m truncated at degree M, where
    p_j = tr[(scale*A(omega))^j] and c_2m are the log-sinhc coefficients;
    cofactor expansion never appears.  With a basis the pencil is
    restricted to its span (see _sparse_generators), one omega per basis
    vector.  Exponents of several factors add, so their product costs one
    exp.  The work is done on plain {monomial: value} dicts:

    - each scale*A_i is stored sparsely as {row: {col: value}} with
      GaussianRational values;
    - p_2m for 2m <= M comes from the pencil powers (_direct_power_sums);
      odd p_j never enter.
    """
    gens, exponent = _sparse_generators(mats, scale, exponent, basis)
    p = len(gens)
    if p == 0:
        return SeriesPoly(0, 1, degree)
    top = degree - degree % 2
    psums = _direct_power_sums(gens, range(mats[0].rows), top, (0,) * p, odd=False)

    logc = _log_sinhc_coeffs(degree)
    f = {}
    for m in range(1, top // 2 + 1):
        cm = logc[2 * m] * exponent
        for mono, v in psums[2 * m].items():
            f[mono] = cm * v
    return SeriesPoly(p, 1, degree, f)


def weyl_density(mats, basis) -> dict:
    """W(y) = e_(p-r)(A(y)) on the span of r basis vectors, as {monomial: value}.

    For the adjoint pencil A_i = F_i of h and a Cartan subalgebra t, A(y)
    has r zero eigenvalues and the pairs +-i alpha(y), one per positive
    root, so e_(p-r) = prod_{alpha>0} alpha(y)^2, the Weyl density; it is
    the zero polynomial when the span is not a Cartan subalgebra.

    The p coordinates split into blocks, the connected components of the
    restricted generators' nonzero couplings, and A(y) is block diagonal,
    so det(lambda + A(y)) is the product of the blocks' characteristic
    polynomials.  Each block's coefficients e_0 .. e_top, up to its top
    nonzero one, come from that block's pencil power sums by Newton's
    identities; a coordinate no generator touches is a block with e_0 = 1
    alone and is skipped.
    e_(p-r) sums the products over one e_j per block with the j adding up
    to p - r: a single product of the top coefficients when the tops add
    up to p - r, as on every Cartan span, and the zero polynomial {} when
    they add up to less.
    """
    p, r = len(mats), len(basis)
    zero_mono = (0,) * r
    gens, _ = _sparse_generators(mats, 1, 1, basis)
    chars = []
    for block in _coupling_blocks(gens, p):
        if len(block) == 1 and not any(block[0] in g for g in gens):
            continue
        e = _elementary_symmetric(_direct_power_sums(gens, block, len(block), zero_mono),
                                  len(block), zero_mono)
        while not e[-1]:
            e.pop()
        chars.append(e)
    # the e_j of the blocks taken so far, kept only where the tops still to
    # come can lift j to p - r
    need, room = p - r, sum(len(e) - 1 for e in chars)
    partial = {0: {zero_mono: ONE}}
    for e in chars:
        room -= len(e) - 1
        acc = {}
        for j, x in partial.items():
            for i in range(max(0, need - room - j), min(len(e), need - j + 1)):
                _add_products(acc.setdefault(i + j, {}), x, e[i], 1)
        partial = {j: poly for j, a in acc.items() if (poly := _settle(a, {}))}
    return partial.get(need, {})


def _coupling_blocks(gens, p: int) -> list:
    """The connected components of the coordinates 0 .. p-1, two of them
    joined when some generator has a nonzero entry at (row, col) or
    (col, row); each component is a list of coordinates."""
    linked = [set() for _ in range(p)]
    for g in gens:
        for r, row in g.items():
            for c in row:
                linked[r].add(c)
                linked[c].add(r)
    seen, blocks = set(), []
    for start in range(p):
        if start not in seen:
            seen.add(start)
            block = [start]
            for u in block:  # grows as the component is found
                for v in linked[u] - seen:
                    seen.add(v)
                    block.append(v)
            blocks.append(block)
    return blocks


def cosh_pencil(mats, dim: int, degree: int, basis=None) -> SeriesPoly:
    """cosh(s*R(omega)) = sum_m s^(2m) R(omega)^(2m) / (2m)!, matrix-valued.

    The powers R(omega)^j come from the sparse _pencil_step, as for the
    det(sinhc) factors; the even ones, scaled by 1/j!, become Matrix values
    built from their rows of nonzeros.
    With a basis the pencil is restricted to its span, as there.
    """
    if mats and mats[0].rows != dim:
        raise ValueError("pencil matrices must match the fiber dimension")
    gens, _ = _sparse_generators(mats, 1, 1, basis)
    p = len(gens)
    terms = {(0,) * p: Matrix.identity(dim)}
    if p == 0:
        return SeriesPoly(p, dim, degree, terms)
    power = {(0,) * p: {r: {r: ONE} for r in range(dim)}}
    for j in range(1, degree + 1):
        power = _pencil_step(power, gens)
        if not power:
            break
        if j % 2 == 0:
            inv = ONE / math.factorial(j)
            for mono, x in power.items():
                terms[mono] = Matrix.from_nonzeros(dim, [
                    {c: v * inv for c, v in x.get(r, {}).items()} for r in range(dim)])
    return SeriesPoly(p, dim, degree, terms)


def matrix_exp_series(m: Matrix, degree: int) -> list:
    """The t-coefficients [M^k / k! for k <= degree/2] of exp(t*M), t = s^2."""
    if not m.is_square:
        raise ValueError("matrix exponential needs a square matrix")
    out = [Matrix.identity(m.rows)]
    for k in range(1, degree // 2 + 1):
        out.append(combination(((ONE / k, out[-1], m),), m.rows))
    return out


def det_sinhc_numeric(b: Matrix, exponent, degree: int) -> list:
    """The t-coefficients [g_0 .. g_(degree/2)] of det(sinh(t*B)/(t*B))^exponent.

    B is the antisymmetric purely-imaginary twist matrix.  The factor is
    det_sinhc_pencil on the one-matrix pencil t*B, with the truncation
    degree counted in t, so the twist shares the det(sinhc) expansion.
    """
    order = degree // 2
    g = det_sinhc_pencil([b], 1, exponent, order).exp().terms
    return [g.get((n,), ZERO) for n in range(order + 1)]
