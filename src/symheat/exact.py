"""Exact scalar and dense matrix arithmetic over the Gaussian rationals.

Scalars are a + b*i with arbitrary-precision rational a, b, so every
operation in the pipeline (spinor generators need +-i, all coefficients
stay rational) closes inside one field.  No floating point lives here.

Uses gmpy2.mpq for the rational backend when available, falling back to
fractions.Fraction; both print as "p/q" and sit in the numbers.Rational
tower, so the choice is invisible above this module.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

try:
    from gmpy2 import mpq as _rational_backend
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rational_backend


def rational(a=0, b=None):
    """Exact rational from ints, a 'p/q' string, or another rational."""
    if b is None:
        return _rational_backend(a)
    return _rational_backend(a, b)


_R_ZERO = rational(0)
_R_ONE = rational(1)


def _coerce_rational(x):
    # the backend type is immutable, so an instance can be shared as is
    if type(x) is _rational_backend:
        return x
    if isinstance(x, numbers.Rational):
        return _rational_backend(x)
    if isinstance(x, str):
        return _rational_backend(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_to_str(x) -> str:
    """Render a rational as 'p/q' with the denominator always explicit."""
    return f"{int(x.numerator)}/{int(x.denominator)}"


def _bit_size(x) -> int:
    return int(x.numerator).bit_length() + int(x.denominator).bit_length()


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _coerce_rational(re))
        object.__setattr__(self, "im", _coerce_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- conversions ----------------------------------------------------

    @classmethod
    def of(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return cls(x)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return float(self.re)

    # -- predicates -----------------------------------------------------

    # truthiness is cheaper than == 0, which calls the backend's __eq__ with an int
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        # real-by-real fast path: the bulk of the pipeline never leaves Q
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        if self.im == 0 and o.im == 0:
            return GaussianRational(self.re / o.re)
        n = o.abs2()
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """|z|^2 = re^2 + im^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        o = _as_gr(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def to_json(self):
        """'p/q' for real values, {"re": .., "im": ..} otherwise."""
        if self.im == 0:
            return rational_to_str(self.re)
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if isinstance(obj, dict):
            return cls(rational(obj.get("re", 0)), rational(obj.get("im", 0)))
        if isinstance(obj, (str, int)):
            return cls(rational(obj))
        raise ValueError(f"cannot parse scalar from {obj!r}")

    def bit_size(self) -> int:
        return _bit_size(self.re) + _bit_size(self.im)


def _as_gr(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, numbers.Rational)):
        return GaussianRational(x)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class Matrix:
    """Immutable dense matrix of GaussianRational entries, row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        e = tuple(GaussianRational.of(x) for x in entries)
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", e)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

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
        if cols is None:
            cols = rows
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def diag(cls, values) -> "Matrix":
        vals = [GaussianRational.of(v) for v in values]
        n = len(vals)
        return cls(n, n, [vals[i] if i == j else ZERO for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return self._e[i * self.cols + j]

    def row(self, i):
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self._e)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- algebra -----------------------------------------------------------

    def _require_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "Matrix":
        c = GaussianRational.of(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._e, other._e
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = ZERO
                for l in range(k):
                    x = arow[l]
                    if x.is_zero():
                        continue
                    y = b[l * m + j]
                    if y.is_zero():
                        continue
                    acc = acc + x * y
                out.append(acc)
        return Matrix(n, m, out)

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self._e[i * self.cols + i]
        return acc

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def conj_transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [
                self._e[i * self.cols + j].conjugate()
                for j in range(self.cols)
                for i in range(self.rows)
            ],
        )

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product self (x) other."""
        r1, c1, r2, c2 = self.rows, self.cols, other.rows, other.cols
        out = []
        for i1 in range(r1):
            for i2 in range(r2):
                for j1 in range(c1):
                    x = self._e[i1 * c1 + j1]
                    for j2 in range(c2):
                        out.append(x * other._e[i2 * c2 + j2])
        return Matrix(r1 * r2, c1 * c2, out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix[{body}]"

    def to_json(self):
        return [[x.to_json() for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        rows = [[GaussianRational.from_json(x) for x in row] for row in obj]
        return cls.from_rows(rows)

    def to_float_array(self):
        """Nested list of complex floats (for the numeric check modules)."""
        return [[complex(x) for x in self.row(i)] for i in range(self.rows)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """a*b - b*a; both arguments must be square of the same size."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("commutator needs square matrices of equal size")
    return a.matmul(b) - b.matmul(a)


@dataclass(frozen=True)
class LinearSolve:
    """Outcome of an exact linear solve.

    status is one of "unique", "inconsistent", "nonunique"; inconsistency
    and non-uniqueness are results, not exceptions.
    """

    status: str
    solution: tuple | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "unique"


def _clear_denominators(row):
    """Scale a row by the lcm of all denominators; entries become Gaussian integers."""
    dens = []
    for x in row:
        dens.append(int(x.re.denominator))
        dens.append(int(x.im.denominator))
    m = math.lcm(*dens) if dens else 1
    if m == 1:
        return list(row)
    c = GaussianRational(m)
    return [c * x for x in row]


def _eliminate(aug_rows, ncols_a):
    """Fraction-free (Bareiss) forward elimination on an augmented system.

    aug_rows: list of rows of GaussianRational covering [A | B].  Rows are
    first scaled to Gaussian-integer entries so the Bareiss division stays
    exact; pivots are chosen by minimal bit-size to control growth.
    Returns (rows, pivot_cols) with pivot columns restricted to A's columns.
    """
    rows = [_clear_denominators(r) for r in aug_rows]
    nrows = len(rows)
    width = len(rows[0]) if nrows else 0
    pivot_cols = []
    prev = ONE
    r = 0
    for c in range(ncols_a):
        best = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                sz = rows[i][c].bit_size()
                if best is None or sz < best[1]:
                    best = (i, sz)
        if best is None:
            continue
        i = best[0]
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        # One-step Bareiss update below the pivot row; division by the
        # previous pivot is exact over the Gaussian integers.
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            rows[i] = [
                (piv * rows[i][j] - fi * rows[r][j]) / prev for j in range(width)
            ]
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols


def solve_exact(a: Matrix, b) -> LinearSolve:
    """Solve a*x = b exactly; b is a column (sequence or rows x 1 Matrix).

    Reports inconsistency (no solution) or non-uniqueness (rank-deficient
    in the unknowns) as structured results with the offending rows/columns.
    """
    if isinstance(b, Matrix):
        if b.cols != 1:
            raise ValueError("right-hand side must be a single column")
        bvec = [b[i, 0] for i in range(b.rows)]
    else:
        bvec = [GaussianRational.of(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError(f"rhs length {len(bvec)} does not match {a.rows} rows")
    res = solve_columns(a, [bvec])[0]
    return res


def solve_columns(a: Matrix, columns) -> list[LinearSolve]:
    """Solve a*x = b for several right-hand sides with one elimination."""
    ncols = a.cols
    nrhs = len(columns)
    aug = []
    for i in range(a.rows):
        row = list(a.row(i))
        for col in columns:
            row.append(GaussianRational.of(col[i]))
        aug.append(row)
    if not aug:
        # 0-row system: any x works only if there are no unknowns
        if ncols == 0:
            return [LinearSolve("unique", tuple()) for _ in range(nrhs)]
        return [
            LinearSolve("nonunique", None, "no equations for nonzero unknown count")
            for _ in range(nrhs)
        ]
    rows, pivot_cols = _eliminate(aug, ncols)
    rank = len(pivot_cols)
    results = []
    for k in range(nrhs):
        bcol = ncols + k
        bad_row = None
        for i in range(rank, len(rows)):
            if not rows[i][bcol].is_zero():
                bad_row = i
                break
        if bad_row is not None:
            results.append(
                LinearSolve("inconsistent", None, f"residual in eliminated row {bad_row}")
            )
            continue
        if rank < ncols:
            free = [c for c in range(ncols) if c not in pivot_cols]
            results.append(
                LinearSolve("nonunique", None, f"free columns {free}")
            )
            continue
        x = [ZERO] * ncols
        for r in range(rank - 1, -1, -1):
            c = pivot_cols[r]
            acc = rows[r][bcol]
            for j in range(c + 1, ncols):
                if not rows[r][j].is_zero():
                    acc = acc - rows[r][j] * x[j]
            x[c] = acc / rows[r][c]
        results.append(LinearSolve("unique", tuple(x)))
    return results


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if not a.is_square:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    cols = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    sols = solve_columns(a, cols)
    out = Matrix.zeros(n, n).to_rows()
    for j, s in enumerate(sols):
        if not s.ok:
            raise ValueError(f"matrix is singular ({s.status}: {s.detail})")
        for i in range(n):
            out[i][j] = s.solution[i]
    return Matrix.from_rows(out)
