"""Exact scalar and sparse matrix arithmetic over the Gaussian rationals.

Scalars are a + b*i with rational a, b, so every operation in the
pipeline (spinor generators need +-i, all coefficients stay rational)
closes inside one field.  No floating point lives here.  A scalar is held
as three Python ints, (p + q*i)/d in lowest terms, and its arithmetic runs
on ints and math.gcd alone: no fractions.Fraction is built on the compute
path.  Fractions appear only where rationals are read in (`rational`, the
constructor) or reported (`re`, `im`).
A Matrix is held as its nonzero entries, one {column: value} dict per
row, and every matrix operation costs O(nonzeros), not O(rows * cols).
Every matrix sum of products is one call of one routine whose terms are
(c, A), meaning c*A, and (c, A, B), meaning c*A*B, so callers pass the
factors of a product instead of forming it: `combination` is that routine
over n x n terms, and `Matrix.matmul`, `commutator` and `+`/`-` are each
one call of it.  It, the row reductions of `kernel` and the pencil sums of
`series` accumulate each entry as unreduced ints (p, q, d) and reduce it
once, by one gcd, when the sum is complete.
There is one elimination, `kernel`, a sparse Gauss-Jordan null space
(Cartan subalgebras and commutants); it indexes which kept rows hold each
column, so a new pivot is eliminated only from the rows that hold it.
`invert` reads an inverse (beta and Gram matrices) off the null space of
[A | -I].
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd


def rational(a=0, b=None) -> Fraction:
    """Exact rational from ints, a 'p/q' string, or another rational.

    Floats and bools raise TypeError: a float carries its binary expansion,
    not the decimal it was written as, and JSON true is not a number.
    Exponent strings ("1e5") and zero denominators raise ValueError;
    Fraction would expand "1e999999999" digit by digit.
    """
    for x in (a, b):
        if isinstance(x, (float, bool)):
            raise TypeError(f"cannot read {x!r} as an exact rational; use a 'p/q' string")
        if isinstance(x, str) and ("e" in x or "E" in x):
            raise ValueError(f"cannot read {x!r} as an exact rational; no exponents")
    try:
        return Fraction(a) if b is None else Fraction(a, b)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot read {a!r} as an exact rational: zero denominator") from exc


_JSON_KINDS = {int: "an integer", dict: "a JSON object", list: "a JSON array"}


def json_kind(value, kind: type, name: str):
    """A JSON field of one kind (int, dict or list); anything else raises
    TypeError, so a string is never iterated by character and true is not 1."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def at_most(value: int, bound: int, name: str) -> int:
    """An integer job field within its documented upper bound; above it raises
    ValueError before anything of that size is built."""
    if value > bound:
        raise ValueError(f"{name} = {value} exceeds the bound {bound}")
    return value


def rational_to_str(x) -> str:
    """Render a rational as 'p/q' with the denominator always explicit."""
    return f"{x.numerator}/{x.denominator}"


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


class GaussianRational:
    """Exact complex number (p + q*i)/d held as three Python ints.

    The form is canonical: d > 0 and gcd(p, q, d) = 1, and zero is
    (0, 0, 1).  Equal values therefore have equal fields, and == and hash
    read the three ints.  The constructor reads each part from an int, a
    rational or a 'p/q' string.  Arithmetic works on the ints and reduces
    each result by one gcd, none when the denominator is 1.  Values are
    immutable by convention, as Fraction's are: nothing here writes to an
    existing value, and callers must not either.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:  # unit vectors, combination coefficients
            self.p, self.q, self.d = re, im, 1
            return
        for x in (re, im):
            if not isinstance(x, (numbers.Rational, str)):
                raise TypeError(f"cannot interpret {x!r} as an exact rational")
        a, b = Fraction(re), Fraction(im)
        da, db = a.denominator, b.denominator
        # lcm of two lowest-terms denominators: gcd(p, q, d) is already 1
        d = da // gcd(da, db) * db
        self.p, self.q, self.d = int(a.numerator) * (d // da), int(b.numerator) * (d // db), d

    # -- conversions ----------------------------------------------------

    @classmethod
    def of(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return cls(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    # int true division rounds correctly, so these match float(Fraction)
    def __complex__(self) -> complex:
        return complex(self.p / self.d, self.q / self.d)

    def __float__(self) -> float:
        if self.q:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return self.p / self.d

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def is_real(self) -> bool:
        return not self.q

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- arithmetic -----------------------------------------------------
    # A product with a zero part is a product with the int 0, which costs
    # next to nothing; sums over one denominator add the numerators.

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d, c, e, f = self.p, self.q, self.d, o.p, o.q, o.d
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d, c, e, f = self.p, self.q, self.d, o.p, o.q, o.d
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _gr(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d, c, e, f = self.p, self.q, self.d, o.p, o.q, o.d
        if not b and not e:  # real x real: one gcd of two ints
            p, d = a * c, d * f
            if d != 1 and (g := gcd(p, d)) != 1:
                return _gr(p // g, 0, d // g)
            return _gr(p, 0, d)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d, c, e, f = self.p, self.q, self.d, o.p, o.q, o.d
        if not e:  # (a + b i)/d / (c/f) = (a + b i) f / (d c)
            if not c:
                raise ZeroDivisionError("division by zero GaussianRational")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f, d * c)
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return _gr(self.p, -self.q, self.d)

    def abs2(self) -> Fraction:
        """|z|^2 = re^2 + im^2 as an exact rational."""
        return Fraction(self.p * self.p + self.q * self.q, self.d * self.d)

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def to_json(self):
        """'p/q' for real values, {"re": .., "im": ..} otherwise."""
        if not self.q:
            return _ratio_str(self.p, self.d)
        return {"re": _ratio_str(self.p, self.d), "im": _ratio_str(self.q, self.d)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if isinstance(obj, dict):
            return cls(rational(obj.get("re", 0)), rational(obj.get("im", 0)))
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return cls(rational(obj))
        raise ValueError(f"cannot parse scalar from {obj!r}")


_new_gr = object.__new__


def _gr(p: int, q: int, d: int) -> GaussianRational:
    """(p + q*i)/d from ints already in canonical form, with no checks."""
    z = _new_gr(GaussianRational)
    z.p = p
    z.q = q
    z.d = d
    return z


def _reduced(p: int, q: int, d: int) -> GaussianRational:
    """(p + q*i)/d for ints with d > 0, divided by gcd(p, q, d)."""
    if d != 1 and (g := gcd(p, q, d)) != 1:
        return _gr(p // g, q // g, d // g)
    return _gr(p, q, d)


def _as_gr(x):
    if type(x) is int:
        return _gr(x, 0, 1)
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, numbers.Rational):
        return GaussianRational(x)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class Matrix:
    """Immutable matrix of GaussianRational entries, stored as its nonzeros.

    nonzeros holds one {column: value} dict per row with the nonzero
    entries only.  That form is canonical, so equal matrices compare and
    hash equal however they were built, and every operation walks the
    nonzeros alone.  Row dicts may be shared between matrices and are
    never mutated; callers read them and must not write to them.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, entries):
        e = [GaussianRational.of(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self._fill(cols, [{j: x for j, x in enumerate(e[i * cols:(i + 1) * cols]) if x}
                          for i in range(rows)])

    def _fill(self, cols: int, nonzeros) -> "Matrix":
        object.__setattr__(self, "rows", len(nonzeros))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", tuple(nonzeros))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, cols: int, nonzeros) -> "Matrix":
        # rows already canonical: nonzero GaussianRational values only
        return cls.__new__(cls)._fill(cols, nonzeros)

    @classmethod
    def from_nonzeros(cls, cols: int, rows) -> "Matrix":
        """The matrix whose rows are the given {column: value} dicts; zero
        values are dropped and the rest read as GaussianRational."""
        return cls._of(cols, [{j: v for j, x in r.items() if (v := GaussianRational.of(x))}
                              for r in rows])

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        return cls._of(rows if cols is None else cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, [{i: ONE} for i in range(n)])

    @classmethod
    def diag(cls, values) -> "Matrix":
        values = list(values)
        return cls.from_nonzeros(len(values), [{i: v} for i, v in enumerate(values)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for a {self.rows}x{self.cols} matrix")
        return self.nonzeros[i].get(j, ZERO)

    def row(self, i):
        r = self.nonzeros[i]
        return tuple(r.get(j, ZERO) for j in range(self.cols))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def __bool__(self) -> bool:
        return any(self.nonzeros)

    # -- algebra -----------------------------------------------------------

    def _require_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return _sum_of_products(((1, self), (1, other)), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return _sum_of_products(((1, self), (-1, other)), self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.cols, [{j: -x for j, x in r.items()} for r in self.nonzeros])

    def scale(self, c) -> "Matrix":
        c = GaussianRational.of(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._of(self.cols, [{j: c * x for j, x in r.items()} for r in self.nonzeros])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "Matrix") -> "Matrix":
        """self * other; each entry accumulates its products as unreduced
        ints and is reduced once."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return _sum_of_products(((1, self, other),), self.rows, other.cols)

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i, r in enumerate(self.nonzeros):
            if i in r:
                acc = acc + r[i]
        return acc

    def _transposed(self, f) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, x in r.items():
                out[j][i] = f(x)
        return Matrix._of(self.rows, out)

    def transpose(self) -> "Matrix":
        return self._transposed(lambda x: x)

    def conj_transpose(self) -> "Matrix":
        return self._transposed(GaussianRational.conjugate)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product self (x) other."""
        c2 = other.cols
        return Matrix._of(self.cols * c2, [
            {j1 * c2 + j2: x * y for j1, x in r1.items() for j2, y in r2.items()}
            for r1 in self.nonzeros for r2 in other.nonzeros
        ])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.nonzeros == other.nonzeros)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.nonzeros)))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix[{body}]"

    def to_json(self):
        return [[x.to_json() if (x := r.get(j)) is not None else "0/1" for j in range(self.cols)]
                for r in self.nonzeros]

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        rows = [json_kind(r, list, "matrix row") for r in json_kind(obj, list, "matrix")]
        return cls.from_rows([[GaussianRational.from_json(x) for x in r] for r in rows])

    def to_float_array(self):
        """Nested list of complex floats (for the numeric check modules)."""
        return [[complex(x) for x in self.row(i)] for i in range(self.rows)]


# -- sums of products -------------------------------------------------------
# A sum of products accumulates in a {column: (p, q, d)} dict of unreduced
# ints meaning (p + q*i)/d with d > 0, and each entry is reduced once, by
# one gcd, when the sum is complete.


def _add_scaled(acc: dict, a: int, b: int, d: int, row: dict) -> None:
    """acc[j] += (a + b*i)/d * row[j] over the nonzeros of row, unreduced."""
    get = acc.get
    for j, y in row.items():
        c, e, f = y.p, y.q, y.d
        p, q, f = a * c - b * e, a * e + b * c, d * f
        t = get(j)
        if t is None:
            acc[j] = (p, q, f)
        else:
            s, r, g = t
            if g == f:
                acc[j] = (s + p, r + q, g)
            elif g % f:
                acc[j] = (s * f + p * g, r * f + q * g, g * f)
            else:  # f divides g: stay over g
                k = g // f
                acc[j] = (s + p * k, r + q * k, g)


def _add_product(acc: dict, key, a: int, b: int, d: int, y) -> None:
    """acc[key] += (a + b*i)/d * y for one value y, unreduced (one entry of
    _add_scaled, for sums whose products land on keys no row spells out)."""
    c, e, f = y.p, y.q, y.d
    p, q, f = a * c - b * e, a * e + b * c, d * f
    t = acc.get(key)
    if t is None:
        acc[key] = (p, q, f)
    else:
        s, r, g = t
        if g == f:
            acc[key] = (s + p, r + q, g)
        elif g % f:
            acc[key] = (s * f + p * g, r * f + q * g, g * f)
        else:  # f divides g: stay over g
            k = g // f
            acc[key] = (s + p * k, r + q * k, g)


def _settle(acc: dict, out: dict) -> dict:
    """out with each accumulated entry written in lowest terms; zero sums are
    removed from it."""
    for j, (p, q, d) in acc.items():
        if not p and not q:
            out.pop(j, None)
        elif d != 1 and (g := gcd(p, q, d)) != 1:
            out[j] = _gr(p // g, q // g, d // g)
        else:
            out[j] = _gr(p, q, d)
    return out


def _sum_of_products(terms, rows: int, cols: int) -> Matrix:
    """The rows x cols sum of the terms (c, A), meaning c*A, and (c, A, B),
    meaning c*A*B.  c is read as GaussianRational.of reads it, and a term
    with c == 0 is skipped; any other term of the wrong shape raises
    ValueError.  Each entry accumulates its products unreduced and is
    reduced once."""
    acc = [{} for _ in range(rows)]
    for t in terms:
        c = t[0]
        if not c:
            continue
        c = GaussianRational.of(c)
        a, b, d = c.p, c.q, c.d
        if len(t) == 2:
            m = t[1]
            if m.rows != rows or m.cols != cols:
                raise ValueError(f"{m.rows}x{m.cols} term in a {rows}x{cols} combination")
            for dst, src in zip(acc, m.nonzeros):
                if src:
                    _add_scaled(dst, a, b, d, src)
            continue
        _, x, y = t
        if x.rows != rows or x.cols != y.rows or y.cols != cols:
            raise ValueError(f"{x.rows}x{x.cols} by {y.rows}x{y.cols} term "
                             f"in a {rows}x{cols} combination")
        y = y.nonzeros
        for dst, src in zip(acc, x.nonzeros):
            for l, v in src.items():
                e, f = v.p, v.q
                _add_scaled(dst, a * e - b * f, a * f + b * e, d * v.d, y[l])
    return Matrix._of(cols, [_settle(r, {}) if r else r for r in acc])


def combination(terms, n: int) -> Matrix:
    """The n x n sum of the terms (c, M), meaning c*M, and (c, A, B), meaning
    c*A*B (_sum_of_products), so one combination replaces a chain of
    products, scale and +."""
    return _sum_of_products(terms, n, n)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """a*b - b*a as one sum of products; both arguments must be square of
    the same size."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("commutator needs square matrices of equal size")
    return _sum_of_products(((1, a, b), (-1, b, a)), a.rows, a.rows)


def invert(a: Matrix) -> Matrix:
    """Exact inverse read off the null space of [A | -I]; raises ValueError
    when singular.

    The null space of the sparse rows [A | -I] in the unknowns x, then y,
    is y = A x (kernel).  When A is invertible its free columns are exactly
    n .. 2n-1, and the basis vector of free column n + j holds column j of
    the inverse in x.  Otherwise the first basis vector's free column, its
    largest key, is below n: the first column of A without a pivot.
    """
    if not a.is_square:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    basis = kernel([r | {n + i: -ONE} for i, r in enumerate(a.nonzeros)], 2 * n)
    if basis and max(basis[0]) < n:
        raise ValueError(f"matrix is singular (no pivot in column {max(basis[0])})")
    out = [{} for _ in range(n)]
    for j, vec in enumerate(basis):
        for i, x in vec.items():
            if i < n:
                out[i][j] = x
    return Matrix._of(n, out)


def kernel(rows, ncols: int) -> list:
    """A basis of the null space of the sparse rows {column: value} in ncols unknowns.

    Gauss-Jordan on dicts: each row is reduced by the pivot rows kept so
    far, and its new pivot is eliminated from those that hold its column,
    so every kept row has a 1 at its pivot, stored implicitly, and no other
    pivot column; only nonzeros are touched.  So a new row is reduced by
    all the pivot rows it hits in one pass, and each of its entries, like
    each entry an elimination changes, is accumulated unreduced and reduced
    once.
    Rows that settle many unknowns should come first.  The basis holds one
    {column: value} vector per free column f, with 1 at f, in order of f.
    """
    pivots = {}  # pivot column: the row's other entries, its 1 at the pivot implicit
    holders = {}  # column: the set of pivot columns whose rows hold it
    for row in rows:
        row = {c: GaussianRational.of(v) for c, v in row.items() if v}
        hits = [c for c in row if c in pivots]
        if hits:
            # pivot rows are 0 at the other pivot columns: one pass takes all hits
            acc = {k: (v.p, v.q, v.d) for k, v in row.items() if k not in pivots}
            for c in hits:
                f = row[c]
                _add_scaled(acc, -f.p, -f.q, f.d, pivots[c])
            row = _settle(acc, {})
        if not row:
            continue
        pc = min(row)
        inv = ONE / row.pop(pc)
        row = {k: v * inv for k, v in row.items()}
        for q in holders.pop(pc, ()):  # only the rows that hold pc change
            prow = pivots[q]
            g = prow.pop(pc)
            if row:
                acc = {k: (x.p, x.q, x.d) for k in row if (x := prow.get(k)) is not None}
                _add_scaled(acc, -g.p, -g.q, g.d, row)
                _settle(acc, prow)
                for k in row:
                    if k in prow:
                        holders.setdefault(k, set()).add(q)
                    elif k in holders:
                        holders[k].discard(q)
        pivots[pc] = row
        for k in row:
            holders.setdefault(k, set()).add(pc)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = {f: ONE}
            vec.update((q, -pivots[q][f]) for q in holders.get(f, ()))
            basis.append(vec)
    return basis
