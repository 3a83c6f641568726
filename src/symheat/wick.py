"""Gaussian averages over the holonomy variables as formal Wick moments.

The average <.> carries weight exp(-<w, beta w>/4) normalized to <1> = 1,
for ANY invertible symmetric rational beta — indefinite and negative
definite included — optionally times a polynomial density (the Weyl
density when the average runs over a Cartan subalgebra).  Realizing the
average through the Wick pairing rules (each pair contributes
2 beta^{ij}) makes the contour bookkeeping of the compact/noncompact
cases unnecessary: the resulting coefficients are the same polynomials
either way.

Two independent evaluation routes take any beta: average_monomial
sums over perfect matchings by the recursion that pairs the first index
with each partner value in turn, memoized per weight on every sorted
sub-multiset it reaches; symmetrized_moment evaluates the closed form
(2k)!/k! beta^((i1 i2 ... i2k-1 i2k)) through coefficient extraction
from powers of the quadratic form (never touching the matching
recursion).  Their exact agreement is an acceptance criterion.
average_poly, the engine's route, takes a diagonal beta, on which every
moment is a product of one-variable moments read from per-variable tables,
whose even entries past <y_a^2> follow from it in closed form.
"""
from __future__ import annotations

import math

from .exact import (
    GaussianRational, Matrix, ONE, ZERO, _add_product, _settle, combination, invert,
)
from .series import SeriesPoly

_GR = GaussianRational.of


class GaussianWeight:
    """Inverse covariance data beta^{ik} for the holonomy average, and an
    optional polynomial density {monomial: value} that multiplies the
    Gaussian weight (None stands for 1)."""

    __slots__ = ("p", "beta", "beta_inv", "density", "_pairing_cache", "_q_powers")

    def __init__(self, beta: Matrix, beta_inv: Matrix, density: dict | None = None):
        if beta.rows != beta.cols or beta_inv.rows != beta.rows:
            raise ValueError("beta and its inverse must be square of equal size")
        if beta.transpose() != beta:
            raise ValueError("beta must be symmetric")
        if beta * beta_inv != Matrix.identity(beta.rows):
            raise ValueError("beta_inv is not the exact inverse of beta")
        self._fill(beta, beta_inv, density)

    def _fill(self, beta: Matrix, beta_inv: Matrix, density) -> "GaussianWeight":
        if density is not None and any(len(mono) != beta.rows for mono in density):
            raise ValueError("density monomials must have one exponent per variable")
        self.p = beta.rows
        self.beta = beta
        self.beta_inv = beta_inv
        self.density = density
        self._pairing_cache = {(): GaussianRational(1)}
        self._q_powers = {}
        return self

    @classmethod
    def from_beta(cls, beta: Matrix, density: dict | None = None) -> "GaussianWeight":
        return cls(beta, invert(beta), density)

    @classmethod
    def diagonal(cls, d, density: dict | None = None) -> "GaussianWeight":
        """The weight of beta = diag(d), d nonzero.  beta and its inverse
        diag(1/d_a) are formed here, symmetric and exact by construction, so
        neither check of a supplied pair runs."""
        return cls.__new__(cls)._fill(Matrix.diag(d), Matrix.diag([ONE / x for x in d]), density)


def average_monomial(indices, w: GaussianWeight) -> GaussianRational:
    """<w^{i1} ... w^{im}> as the sum of products of 2 beta^{ij} over
    perfect matchings.

    Odd-length monomials average to zero.  The sum is computed by
    _pairing_sum, whose per-weight cache also serves later monomials that
    share sub-multisets with this one.
    """
    if len(indices) % 2 == 1:
        return ZERO
    return _pairing_sum(tuple(sorted(indices)), w)


def _pairing_sum(idx: tuple, w: GaussianWeight) -> GaussianRational:
    """Matching sum of the sorted, even-length multiset idx.

    Pairing the first index with any of the c_v copies of a value v leaves
    the same sorted sub-multiset, so the sum runs over distinct partner
    values: sum_v c_v * 2 beta^{first v} * S(rest - v).  Every sub-multiset
    is looked up and stored in w._pairing_cache, which starts as {(): 1}.
    """
    out = w._pairing_cache.get(idx)
    if out is not None:
        return out
    first, rest = idx[0], idx[1:]
    out = ZERO
    for v in dict.fromkeys(rest):
        pair = w.beta_inv[first, v]
        if pair.is_zero():
            continue
        j = rest.index(v)
        sub = _pairing_sum(rest[:j] + rest[j + 1 :], w)
        out = out + _GR(2 * rest.count(v)) * pair * sub
    w._pairing_cache[idx] = out
    return out


def symmetrized_moment(indices, w: GaussianWeight) -> GaussianRational:
    """(2k)!/k! beta^((i1 i2 ... i2k-1 i2k)) evaluated through the
    moment-generating quadratic form.

    With Q(J) = beta^{ij} J_i J_j the closed form equals
    m! * [J^m] Q(J)^k / k!  where m! is the product of the multiplicities
    of the requested index multiset — a direct evaluation of the
    symmetrized product that never enumerates pairings.
    """
    m = len(indices)
    if m % 2 == 1:
        raise ValueError("symmetrized moment needs an even index count")
    if m == 0:
        return GaussianRational(1)
    k = m // 2
    counts = [0] * w.p
    for i in indices:
        counts[i] += 1
    target = tuple(counts)
    qk = _q_power(w, k)
    coeff = qk.get(target, ZERO)
    mult_fact = 1
    for c in counts:
        mult_fact *= math.factorial(c)
    return coeff * _GR(mult_fact) / _GR(math.factorial(k))


def _q_power(w: GaussianWeight, k: int) -> dict:
    """Q(J)^k as {exponent tuple: coefficient}, cached per weight."""
    if k in w._q_powers:
        return w._q_powers[k]
    p = w.p
    if 1 not in w._q_powers:
        q1 = {}
        for i in range(p):
            for j in range(i, p):
                x = w.beta_inv[i, j]
                if x.is_zero():
                    continue
                mono = tuple((2 if l == i else 0) if i == j else
                             (1 if l in (i, j) else 0) for l in range(p))
                q1[mono] = x if i == j else _GR(2) * x
        w._q_powers[1] = q1
    out = w._q_powers[1]
    for _ in range(k - 1):
        nxt = {}
        for m1 in sorted(out):
            c1 = out[m1]
            for m2 in sorted(w._q_powers[1]):
                c2 = w._q_powers[1][m2]
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                nxt[mono] = nxt[mono] + prod if mono in nxt else prod
        out = nxt
    w._q_powers[k] = out
    return out


def mono_to_indices(mono) -> tuple:
    """Exponent tuple to explicit index list: (2, 0, 1) -> (0, 0, 2)."""
    out = []
    for i, e in enumerate(mono):
        out.extend([i] * e)
    return tuple(out)


def average_poly(poly: SeriesPoly, w: GaussianWeight) -> list:
    """The t-coefficients of the average of a Matrix-valued polynomial under
    a diagonal weight (any other raises ValueError).

    A degree-d monomial carries s^d, so its average lands at t^(d/2);
    odd-degree monomials must average to zero.  With a density W the
    average is <. W> / <W>: W multiplies every moment but adds no s-power.
    On a diagonal beta, <y^mu W> = sum_nu c_nu prod_a <y_a^(mu_a + nu_a)>,
    from tables of the <y_a^k>: k < 4 and odd k are read through
    average_monomial, and each even k >= 4 takes the closed form
    (k - 1) <y_a^2> <y_a^(k-2)>.  Each moment is summed as unreduced ints and
    reduced once, and each t-coefficient is one exact.combination of the
    values.
    """
    if poly.p != w.p:
        raise ValueError("polynomial and weight have different variable counts")
    if any(j != i for i, row in enumerate(w.beta_inv.nonzeros) for j in row):
        raise ValueError("average_poly needs a diagonal weight")
    density = [(nu, _GR(c)) for nu, c in ({(0,) * w.p: 1} if w.density is None
                                          else w.density).items()]
    tables = []
    for a in range(w.p):
        table = []
        for k in range(max((mono[a] for mono in poly.terms), default=0)
                       + max((nu[a] for nu, _ in density), default=0) + 1):
            # <y_a^k> = (k - 1) <y_a^2> <y_a^(k-2)>: pair one y_a with each other one
            table.append(average_monomial((a,) * k, w) if k < 4 or k % 2
                         else _GR(k - 1) * table[2] * table[k - 2])
        tables.append(table)

    def moment(mono):
        acc = {}
        for nu, c in density:
            a, b, d = c.p, c.q, c.d
            for table, m, n in zip(tables, mono, nu):
                x = table[m + n]
                if not x:
                    break
                a, b, d = a * x.p - b * x.q, a * x.q + b * x.p, d * x.d
            else:
                _add_product(acc, 0, a, b, d, ONE)
        return _settle(acc, {}).get(0, ZERO)

    norm = moment((0,) * w.p)
    if norm.is_zero():
        raise ValueError("the density averages to zero")
    terms = [[] for _ in range(poly.degree // 2 + 1)]
    for mono, v in poly.terms.items():
        mom = moment(mono)
        if mom.is_zero():
            continue
        d = sum(mono)
        if d % 2 == 1:
            raise AssertionError("odd power of sqrt(t) survived the average")
        terms[d // 2].append((mom / norm, v))
    return [combination(t, poly.dim) for t in terms]
