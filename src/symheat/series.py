"""Truncated power series in s (s^2 = t) and omega-polynomial engine.

Everything the generating function needs — determinant factors as
exponents tr(log(.)) from power sums of pencil powers, cosh of a matrix
pencil, matrix exponentials — expanded to a requested order with exact
coefficients.  Determinants of series-valued matrices are never computed
by cofactor expansion; only traces of matrix powers enter.

In every polynomial built here each omega variable carries exactly one
factor of s, so a term's s-power is its omega-degree until the Gaussian
average collapses the omegas.  A SeriesPoly therefore stores one exact
value per omega-monomial and leaves s^|mu| implicit.  Producing the
coefficients a_0..a_k needs truncation degree 2k; it is fixed once per
computation and every operation truncates against it.
"""
from __future__ import annotations

import math
from .exact import GaussianRational, Matrix, ONE, ZERO, rational

_GR = GaussianRational.of


class TruncSeries:
    """Truncated series sum_k c[k] s^k; coefficients beyond `order` dropped."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, coeffs=()):
        c = [ZERO] * (order + 1)
        for k, x in enumerate(coeffs):
            if k > order:
                break
            c[k] = _GR(x)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "c", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, [ONE])

    @classmethod
    def monomial(cls, order: int, k: int, coeff=1) -> "TruncSeries":
        c = [ZERO] * (order + 1)
        if k <= order:
            c[k] = _GR(coeff)
        return cls(order, c)

    def coeff(self, k: int) -> GaussianRational:
        return self.c[k] if k <= self.order else ZERO

    def truncate(self, order: int) -> "TruncSeries":
        return TruncSeries(order, self.c[: order + 1])

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.c)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __hash__(self):
        return hash((self.order, self.c))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(n, [self.c[k] + other.c[k] for k in range(n + 1)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(n, [self.c[k] - other.c[k] for k in range(n + 1)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-x for x in self.c])

    def scale(self, v) -> "TruncSeries":
        v = _GR(v)
        return TruncSeries(self.order, [v * x for x in self.c])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.c):
            if i > n or a.is_zero():
                continue
            for j in range(0, n - i + 1):
                b = other.c[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if not self.c[0].is_zero():
            raise ValueError("series exp needs a zero constant term")
        out = TruncSeries.one(self.order)
        power = TruncSeries.one(self.order)
        fact = 1
        for j in range(1, self.order + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= j
            out = out + power.scale(GaussianRational(1) / GaussianRational(fact))
        return out

    def log(self) -> "TruncSeries":
        """log of a series with unit constant term."""
        if self.c[0] != ONE:
            raise ValueError("series log needs a unit constant term")
        u = self - TruncSeries.one(self.order)
        out = TruncSeries.zero(self.order)
        power = TruncSeries.one(self.order)
        for j in range(1, self.order + 1):
            power = power * u
            if power.is_zero():
                break
            sign = 1 if j % 2 == 1 else -1
            out = out + power.scale(GaussianRational(sign) / GaussianRational(j))
        return out

    def __repr__(self):
        parts = [f"{x!r}*s^{k}" for k, x in enumerate(self.c) if not x.is_zero()]
        return " + ".join(parts) if parts else "0"


class SeriesPoly:
    """Polynomial in omega^1..omega^p with one exact value per monomial.

    A value is a dim x dim Matrix or, for the det(sinhc) factors, a plain
    scalar (dim 1); the term at monomial mu carries s^|mu| implicitly.
    Values multiply with `*` whatever their kinds, and zero values are
    dropped.
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

    def is_zero(self) -> bool:
        return not self.terms

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
            _add_into(out, mono, v)
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
        self._check_compatible(other)
        right = [(m2, sum(m2), v2) for m2, v2 in other.terms.items()]
        out = {}
        for m1, v1 in self.terms.items():
            room = self.degree - sum(m1)
            for m2, d2, v2 in right:
                if d2 <= room:
                    _add_into(out, tuple(a + b for a, b in zip(m1, m2)), v1 * v2)
        dim = self.dim if self.dim != 1 else other.dim
        return SeriesPoly(self.p, dim, self.degree, out)

    def truncated(self, degree: int) -> "SeriesPoly":
        return SeriesPoly(self.p, self.dim, degree, self.terms)

    def exp(self) -> "SeriesPoly":
        """exp of a scalar-valued polynomial with a zero constant term.

        Runs n g_n = sum_k k f_k g_(n-k), g_0 = 1, over the parts f_k of
        omega-degree k, on plain dicts.
        """
        zero_mono = (0,) * self.p
        if self.dim != 1:
            raise ValueError("polynomial exp needs scalar values")
        if zero_mono in self.terms:
            raise ValueError("polynomial exp needs a zero constant term")
        f = {}
        for mono, v in self.terms.items():
            f.setdefault(sum(mono), {})[mono] = v
        # an exact 1, so that int-valued terms still divide exactly
        g = {0: {zero_mono: rational(1)}}
        for n in range(1, self.degree + 1):
            gn = {}
            for k, fk in f.items():
                if k <= n and n - k in g:
                    _add_products(gn, fk, g[n - k], k)
            gn = {mono: v / n for mono, v in gn.items() if v}
            if gn:
                g[n] = gn
        return SeriesPoly(self.p, 1, self.degree,
                          {mono: v for gn in g.values() for mono, v in gn.items()})


def omega_pencil(mats, degree: int) -> SeriesPoly:
    """Degree-one polynomial sum_i omega^i * (s * A_i)."""
    p = len(mats)
    dim = mats[0].rows if p else 1
    terms = {}
    for i, a in enumerate(mats):
        if a.rows != a.cols or a.rows != dim:
            raise ValueError("pencil matrices must be square of a common size")
        terms[tuple(1 if j == i else 0 for j in range(p))] = a
    return SeriesPoly(p, dim, degree, terms)


def log_sinhc_coeffs(order: int) -> TruncSeries:
    """Series of log(sinh(x)/x): x^2/6 - x^4/180 + x^6/2835 - ...

    Only even powers appear; computed by exact series log of sinh(x)/x.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = []
    for k in range(order + 1):
        coeffs.append(GaussianRational(1) / GaussianRational(math.factorial(k + 1))
                      if k % 2 == 0 else ZERO)
    return TruncSeries(order, coeffs).log()


def _sparse_generators(mats, scale, exponent):
    """The generators scale*A_i as {row: {col: value}}, and the exponent.

    Values are plain rationals when every one of them and the exponent is
    real, and GaussianRational otherwise.  Later steps only add, multiply
    and test for zero, so both kinds share one code path.
    """
    dim = mats[0].rows
    for a in mats:
        if a.rows != a.cols or a.rows != dim:
            raise ValueError("pencil matrices must be square of a common size")
    scale, exponent = _GR(scale), _GR(exponent)
    gens = []
    for a in mats:
        rows = {r: {c: x * scale for c, x in enumerate(a.row(r)) if x} for r in range(dim)}
        gens.append({r: row for r, row in rows.items() if row})
    if exponent.is_real() and all(
        v.is_real() for g in gens for row in g.values() for v in row.values()
    ):
        gens = [{r: {c: v.re for c, v in row.items()} for r, row in g.items()} for g in gens]
        exponent = exponent.re
    return gens, exponent


def _add_into(dst: dict, key, v):
    dst[key] = dst[key] + v if key in dst else v


def _pencil_step(power, gens):
    """A(omega)^(m+1) from A(omega)^m, both as {monomial: sparse matrix}."""
    out = {}
    for mono, x in power.items():
        for i, a in enumerate(gens):
            dst = out.setdefault(mono[:i] + (mono[i] + 1,) + mono[i + 1:], {})
            for r, xrow in x.items():
                drow = dst.setdefault(r, {})
                for c, xv in xrow.items():
                    for k, av in a.get(c, {}).items():
                        _add_into(drow, k, xv * av)
    cleaned = {}
    for mono, mat in out.items():
        rows = {r: {k: v for k, v in row.items() if v} for r, row in mat.items()}
        rows = {r: row for r, row in rows.items() if row}
        if rows:
            cleaned[mono] = rows
    return cleaned


def _trace_product(x, y):
    """tr(X Y) for sparse {row: {col: value}} matrices."""
    acc = 0
    for r, xrow in x.items():
        for c, xv in xrow.items():
            yv = y.get(c, {}).get(r)
            if yv is not None:
                acc = acc + xv * yv
    return acc


def _add_products(dst: dict, x: dict, y: dict, c):
    """dst += c * x * y for {monomial: scalar} polynomials, untruncated."""
    for m1, v1 in x.items():
        cv1 = c * v1
        for m2, v2 in y.items():
            _add_into(dst, tuple(u + v for u, v in zip(m1, m2)), cv1 * v2)


def _power_sum(pa, pb):
    """tr(P_a P_b) as {monomial: value}: tr(P_a[mu] P_b[nu]) summed at mu + nu.

    When P_a is P_b, each unordered pair of monomials is traced once and
    doubled, since tr(XY) = tr(YX).
    """
    out = {}
    items = list(pa.items())
    for i, (mu, x) in enumerate(items):
        for nu, y in (items[i:] if pa is pb else pb.items()):
            tr = _trace_product(x, y)
            if not tr:
                continue
            if pa is pb and nu != mu:
                tr = tr + tr
            _add_into(out, tuple(u + v for u, v in zip(mu, nu)), tr)
    return {mono: v for mono, v in out.items() if v}


def _cayley_hamilton_power_sums(psums: dict, dim: int, top: int, zero_mono):
    """Add p_k for dim < k <= top to psums, which holds p_1 .. p_dim.

    Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i give the
    characteristic coefficients e_1 .. e_dim of the dim x dim pencil, and
    Cayley-Hamilton gives p_k = sum_{j=1..dim} (-1)^(j-1) e_j p_(k-j).
    """
    e = [{zero_mono: 1}]
    for k in range(1, dim + 1):
        acc = {}
        for i in range(1, k + 1):
            _add_products(acc, e[k - i], psums[i], (-1) ** (i - 1))
        e.append({mono: v / k for mono, v in acc.items() if v})
    for k in range(dim + 1, top + 1):
        acc = {}
        for j in range(1, dim + 1):
            _add_products(acc, e[j], psums[k - j], (-1) ** (j - 1))
        psums[k] = {mono: v for mono, v in acc.items() if v}


def det_sinhc_pencil(mats, scale, exponent, degree: int) -> SeriesPoly:
    """The exponent f with det(sinhc(s*scale*A(omega)))^exponent = f.exp().

    With A(omega) = sum_i omega^i A_i and M = degree, f is the scalar-valued
    polynomial exponent * sum_m c_2m p_2m truncated at degree M, where
    p_j = tr[(scale*A(omega))^j] and c_2m are the log-sinhc coefficients;
    cofactor expansion never appears.  Exponents of several factors add,
    so their product costs one exp.  The work is done on plain
    {monomial: value} dicts:

    - each scale*A_i is stored sparsely as {row: {col: value}}, over plain
      rationals when every scaled entry and the exponent are real (every
      catalog space) and over GaussianRational otherwise, with one code
      path for both;
    - with P_m = A(omega)^m and dim the matrix size, p_j for
      j <= min(dim, M) is the sum over monomial pairs (mu, nu) of
      tr(P_a[mu] P_b[nu]) at mu + nu, a = floor(j/2), b = ceil(j/2);
    - when dim < M, the power sums past dim come from p_1 .. p_dim by
      Newton's identities and Cayley-Hamilton, so their cost stops growing
      with M.  Odd p_j are needed only there; they vanish for
      antisymmetric generators.
    """
    p = len(mats)
    if p == 0:
        return SeriesPoly(0, 1, degree)
    gens, exponent = _sparse_generators(mats, scale, exponent)
    dim, zero_mono = mats[0].rows, (0,) * p
    top = degree - degree % 2
    recur = dim < top
    direct = min(dim, top)

    powers = [{zero_mono: {r: {r: 1} for r in range(dim)}}]
    for _ in range((direct + 1) // 2):
        powers.append(_pencil_step(powers[-1], gens))
    psums = {
        j: _power_sum(powers[j // 2], powers[(j + 1) // 2])
        for j in range(1, direct + 1) if recur or j % 2 == 0
    }
    if recur:
        _cayley_hamilton_power_sums(psums, dim, top, zero_mono)

    logc = log_sinhc_coeffs(degree)
    f = {}
    for m in range(1, top // 2 + 1):
        cm = logc.coeff(2 * m).re * exponent
        for mono, v in psums[2 * m].items():
            f[mono] = cm * v
    return SeriesPoly(p, 1, degree, f)


def cosh_pencil(mats, dim: int, degree: int) -> SeriesPoly:
    """cosh(s*R(omega)) = sum_m s^(2m) R(omega)^(2m) / (2m)!, matrix-valued."""
    p = len(mats)
    out = SeriesPoly.one(p, dim, degree)
    if p == 0:
        return out
    pen = omega_pencil(mats, degree)
    power = out
    fact = 1
    for j in range(1, degree + 1):
        power = power * pen
        if power.is_zero():
            break
        fact *= j
        if j % 2 == 0:
            out = out + power.scale(GaussianRational(1) / GaussianRational(fact))
    return out


def matrix_exp_series(m: Matrix, degree: int) -> list:
    """The t-coefficients [M^k / k! for k <= degree/2] of exp(t*M), t = s^2."""
    if not m.is_square:
        raise ValueError("matrix exponential needs a square matrix")
    out = [Matrix.identity(m.rows)]
    for k in range(1, degree // 2 + 1):
        out.append((out[-1] * m).scale(GaussianRational(1) / GaussianRational(k)))
    return out


def det_sinhc_numeric(b: Matrix, exponent, degree: int) -> TruncSeries:
    """det(sinh(t*B)/(t*B))^exponent as a series in s (t = s^2), via tr-log.

    B is the antisymmetric purely-imaginary twist matrix; only whole even
    powers of t appear and all coefficients are real rationals.
    """
    if not b.is_square:
        raise ValueError("twist matrix must be square")
    mmax = degree // 4
    logc = log_sinhc_coeffs(2 * mmax) if mmax else None
    acc = TruncSeries.zero(degree)
    power = Matrix.identity(b.rows)
    for m in range(1, mmax + 1):
        power = power * b * b
        if power.is_zero():
            break
        cm = logc.coeff(2 * m)
        acc = acc + TruncSeries.monomial(degree, 4 * m, cm * power.trace())
    return acc.scale(exponent).exp()
