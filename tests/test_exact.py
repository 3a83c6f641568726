import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symheat.exact import (
    GaussianRational,
    I_UNIT,
    Matrix,
    ZERO,
    combination,
    commutator,
    invert,
    kernel,
    rational,
)


def rand_scalar(rng, span=6, complex_ok=True):
    re = rational(rng.randint(-span, span), rng.randint(1, span))
    im = rational(rng.randint(-span, span), rng.randint(1, span)) if complex_ok and rng.random() < 0.4 else 0
    return GaussianRational(re, im)


def rand_matrix(rng, n, m=None, complex_ok=True):
    m = n if m is None else m
    return Matrix(n, m, [rand_scalar(rng, complex_ok=complex_ok) for _ in range(n * m)])


def sparse_matrix(rng, n, m=None, zero_share=0.7):
    m = n if m is None else m
    return Matrix(n, m, [GaussianRational(0) if rng.random() < zero_share
                         else rand_scalar(rng) for _ in range(n * m)])


def naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    # independent triple-loop reference
    out = [[GaussianRational(0) for _ in range(b.cols)] for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = GaussianRational(0)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out[i][j] = acc
    return Matrix.from_rows(out)


class TestScalar:
    def test_field_ops(self):
        a = GaussianRational(rational(1, 2), rational(3, 4))
        b = GaussianRational(rational(-2, 3), rational(1, 5))
        assert a + b - b == a
        assert (a * b) / b == a
        assert a * (GaussianRational(1) / a) == GaussianRational(1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_conjugation_involution_and_norm(self):
        rng = random.Random(7)
        for _ in range(50):
            z = rand_scalar(rng)
            assert z.conjugate().conjugate() == z
            n = z.abs2()
            assert n >= 0
            assert (n == 0) == z.is_zero()

    def test_i_squares_to_minus_one(self):
        assert I_UNIT * I_UNIT == GaussianRational(-1)

    def test_json_round_trip(self):
        z = GaussianRational(rational(3, 7), rational(-1, 2))
        assert GaussianRational.from_json(z.to_json()) == z
        r = GaussianRational(rational(5, 3))
        assert r.to_json() == "5/3"
        assert GaussianRational.from_json("5/3") == r

    @pytest.mark.parametrize("args", [(0.1,), (True,), (1, 2.0), (3, False)])
    def test_float_and_bool_are_not_rationals(self, args):
        # 0.1 would carry its binary expansion, and True would read as 1
        with pytest.raises(TypeError):
            rational(*args)

    @pytest.mark.parametrize("obj", [True, 0.5, {"re": False}, {"im": 0.5}])
    def test_json_scalar_rejects_float_and_bool(self, obj):
        with pytest.raises((TypeError, ValueError)):
            GaussianRational.from_json(obj)


# every pattern of zero and nonzero parts: zero, real, imaginary, both
PART_PATTERNS = [(False, False), (True, False), (False, True), (True, True)]
RIGHT_OPERANDS = [f"gaussian {p}" for p in PART_PATTERNS] + ["int 0", "int nonzero"]
BACKEND = type(rational(0))


def rand_part(rng, nonzero):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) if nonzero \
        else Fraction(0)


def oracle_ops(x, y):
    # plain (re, im) pairs of Fractions; None marks a division by zero
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return {
        "+": (a + c, b + d),
        "-": (a - c, b - d),
        "*": (a * c - b * d, a * d + b * c),
        "/": None if not n else ((a * c + b * d) / n, (b * c - a * d) / n),
    }


class TestScalarAgainstPairOracle:
    @pytest.mark.parametrize("right", RIGHT_OPERANDS)
    @pytest.mark.parametrize("left", PART_PATTERNS, ids=str)
    def test_arithmetic_matches_fraction_pairs(self, left, right):
        rng = random.Random(f"{left} {right}")
        ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

        def check(z, pair):
            assert type(z) is GaussianRational
            assert type(z.re) is BACKEND and type(z.im) is BACKEND
            assert (z.re, z.im) == pair
            public = GaussianRational(*pair)
            assert z == public and hash(z) == hash(public)

        for _ in range(25):
            x = (rand_part(rng, left[0]), rand_part(rng, left[1]))
            if right.startswith("int"):
                w = rng.choice([-1, 1]) * rng.randint(1, 9) if right == "int nonzero" else 0
                y, other = (Fraction(w), Fraction(0)), w
            else:
                pattern = PART_PATTERNS[RIGHT_OPERANDS.index(right)]
                y = (rand_part(rng, pattern[0]), rand_part(rng, pattern[1]))
                other = GaussianRational(*y)
            z = GaussianRational(*x)
            for name, want in oracle_ops(x, y).items():
                if want is None:
                    with pytest.raises(ZeroDivisionError):
                        ops[name](z, other)
                else:
                    check(ops[name](z, other), want)
                # the same operation with the operands swapped
                flipped = oracle_ops(y, x)[name]
                if flipped is None:
                    with pytest.raises(ZeroDivisionError):
                        ops[name](other, z)
                else:
                    check(ops[name](other, z), flipped)
            check(-z, (-x[0], -x[1]))
            check(z.conjugate(), (x[0], -x[1]))
            n = z.abs2()
            assert type(n) is BACKEND and n == x[0] ** 2 + x[1] ** 2


    # each part given as an int, a Fraction or a 'p/q' string
    @pytest.mark.parametrize("kinds", [(int, Fraction), (Fraction, str), (str, int), (str, str)],
                             ids=lambda k: "/".join(t.__name__ for t in k))
    def test_mixed_part_kinds_and_plain_operands(self, kinds):
        rng = random.Random(str(kinds))
        ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

        def spelled(x, kind):
            if kind is int:
                return x.numerator
            return Fraction(x) if kind is Fraction else f"{x.numerator}/{x.denominator}"

        for _ in range(40):
            x = tuple(Fraction(rng.randint(-9, 9), 1 if kind is int else rng.randint(1, 9))
                      for kind in kinds)
            z = GaussianRational(*(spelled(v, k) for v, k in zip(x, kinds)))
            assert z == GaussianRational(*x) and (z.re, z.im) == x
            w = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            for plain in (w, w.numerator):  # a Fraction and an int, on either side
                y = (Fraction(plain), Fraction(0))
                for name, op in ops.items():
                    want = oracle_ops(x, y)[name]
                    assert op(z, plain) == GaussianRational(*want)
                    flipped = oracle_ops(y, x)[name]
                    if flipped is None:
                        with pytest.raises(ZeroDivisionError):
                            op(plain, z)
                    else:
                        assert op(plain, z) == GaussianRational(*flipped)
            with pytest.raises(TypeError):
                z + "1/2"

    def test_division_by_both_parts_nonzero(self):
        rng = random.Random(11)
        for _ in range(200):
            x = (Fraction(rng.randint(-30, 30), rng.randint(1, 30)),
                 Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
            y = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30)),
                 Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30)))
            got = GaussianRational(*x) / GaussianRational(*y)
            assert (got.re, got.im) == oracle_ops(x, y)["/"]
            assert got * GaussianRational(*y) == GaussianRational(*x)

    def test_parts_above_two_to_the_64(self):
        rng = random.Random(12)
        for _ in range(50):
            x, y = [(Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 2**70)),
                     Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 2**70)))
                    for _ in range(2)]
            z, w = GaussianRational(*x), GaussianRational(*y)
            for name, op in [("+", operator.add), ("-", operator.sub),
                             ("*", operator.mul), ("/", operator.truediv)]:
                got = op(z, w)
                assert (got.re, got.im) == oracle_ops(x, y)[name]
                assert got == GaussianRational(*oracle_ops(x, y)[name])
            big = GaussianRational(2**80 + 1)
            assert (big * big).p == (2**80 + 1) ** 2 and (z * big).re == x[0] * (2**80 + 1)


def canonical_scalar(z):
    # gcd(0, 0, d) = d, so this also makes zero (0, 0, 1)
    return z.d > 0 and math.gcd(z.p, z.q, z.d) == 1


class TestCanonicalForm:
    def test_fields_are_ints_in_lowest_terms(self):
        rng = random.Random(13)
        values = [rand_scalar(rng) for _ in range(60)]
        results = [op(a, b) for a in values[:12] for b in values[:12]
                   for op in (operator.add, operator.sub, operator.mul)]
        results += [a / b for a in values[:12] for b in values[12:24] if b]
        for z in values + results + [-values[0], values[1].conjugate()]:
            assert all(type(f) is int for f in (z.p, z.q, z.d))
            assert canonical_scalar(z)

    def test_zero_is_zero_zero_one(self):
        a = GaussianRational(rational(3, 7), rational(-2, 9))
        for z in (ZERO, GaussianRational(), GaussianRational("0/5", rational(0)),
                  a - a, a * 0, 0 * a, a + (-a), GaussianRational.from_json({"re": "0/3"})):
            assert (z.p, z.q, z.d) == (0, 0, 1)
            assert z == 0 and not z and z.is_zero()

    def test_one_value_by_every_route(self):
        # (3 - 5i)/6 by the constructor, by arithmetic and from JSON
        routes = [
            GaussianRational(rational(1, 2), rational(-5, 6)),
            GaussianRational("3/6", "-10/12"),
            GaussianRational(rational(1, 2)) - GaussianRational(0, 5) / 6,
            (GaussianRational(3, -5) * GaussianRational(rational(1, 12))) * 2,
            GaussianRational(9, -15) / GaussianRational(18),
            GaussianRational(rational(5, 6), rational(1, 2)) * GaussianRational(0, -1),
            GaussianRational.from_json({"re": "1/2", "im": "-5/6"}),
            GaussianRational.from_json(GaussianRational(3, -5).to_json()) / 6,
        ]
        for z in routes:
            assert (z.p, z.q, z.d) == (3, -5, 6)
            assert z == routes[0] and hash(z) == hash(routes[0])
        assert len(set(routes)) == 1
        # values that differ in one field only are different values
        for p, q, d in [(3, -5, 12), (3, 5, 6), (-3, -5, 6)]:
            assert GaussianRational(rational(p, d), rational(q, d)) != routes[0]

    def test_re_and_im_are_fractions(self):
        for z in (ZERO, GaussianRational(3), GaussianRational(rational(3, 4), rational(-5, 6)),
                  GaussianRational(0, 2) / 4):
            assert type(z.re) is Fraction and type(z.im) is Fraction
            assert z == GaussianRational(z.re, z.im)
        z = GaussianRational(rational(3, 4), rational(-5, 6))
        assert (z.re, z.im) == (Fraction(3, 4), Fraction(-5, 6)) and z.d == 12
        assert z.to_json() == {"re": "3/4", "im": "-5/6"}


class TestMatMul:
    def test_identity(self):
        rng = random.Random(1)
        m = rand_matrix(rng, 2)
        assert Matrix.identity(2) * m == m

    def test_antisymmetric_square(self):
        eps = Matrix.from_rows([[0, 1], [-1, 0]])
        assert eps * eps == -Matrix.identity(2)

    def test_matches_triple_loop_oracle(self):
        rng = random.Random(2)
        for _ in range(10):
            a = rand_matrix(rng, 3)
            b = rand_matrix(rng, 3)
            assert a * b == naive_matmul(a, b)
        # sparse Gaussian-complex factors: about 70% zeros
        for _ in range(20):
            a = sparse_matrix(rng, 5)
            b = sparse_matrix(rng, 5)
            assert a * b == naive_matmul(a, b)
        for n, k, m in [(1, 4, 1), (3, 5, 2)]:
            a = sparse_matrix(rng, n, k)
            b = sparse_matrix(rng, k, m)
            assert a * b == naive_matmul(a, b)
        # zero-sized factors: the product has the outer shape, and an empty sum is zero
        for n, k, m in [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)]:
            assert sparse_matrix(rng, n, k) * sparse_matrix(rng, k, m) == Matrix.zeros(n, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = random.Random(3)
        m = rand_matrix(rng, 3)
        assert commutator(m, m).is_zero()

    def test_raising_lowering_pair(self):
        up = Matrix.from_rows([[0, 1], [0, 0]])
        dn = Matrix.from_rows([[0, 0], [1, 0]])
        assert commutator(up, dn) == Matrix.diag([1, -1])

    def test_identity_commutes(self):
        rng = random.Random(4)
        m = rand_matrix(rng, 4)
        assert commutator(Matrix.identity(4), m).is_zero()

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            commutator(Matrix.zeros(2), Matrix.zeros(3))


class TestSolve:
    def test_invert_round_trip(self):
        rng = random.Random(6)
        cases = [Matrix.from_rows([[0, 1, 2], [I_UNIT, 3, 0], [rational(1, 2), 0, 1]])]
        for n in range(1, 6):
            while True:
                m = Matrix(n, n, [rand_scalar(rng) + I_UNIT * rand_scalar(rng, complex_ok=False)
                                  for _ in range(n * n)])
                try:
                    invert(m)
                except ValueError:
                    continue  # random matrix happened to be singular; redraw
                cases.append(m)
                break
        assert cases[0][0, 0] == 0  # the first pivot needs a row swap
        for m in cases:
            inv = invert(m)
            assert m * inv == Matrix.identity(m.rows)
            assert inv * m == Matrix.identity(m.rows)

    def test_invert_singular_raises(self):
        with pytest.raises(ValueError):
            invert(Matrix.from_rows([[1, 2], [2, 4]]))

    @pytest.mark.parametrize("rows,column", [
        ([[1, 2], [2, 4]], 1),
        ([[0, 0], [0, 1]], 0),
        ([[1, 1, 0], [0, 0, 1], [1, 1, 1]], 1),
    ])
    def test_singular_message_names_first_column_without_pivot(self, rows, column):
        with pytest.raises(ValueError, match=rf"^matrix is singular \(no pivot in column {column}\)$"):
            invert(Matrix.from_rows(rows))

    def test_invert_large_permutation(self):
        n = 256
        perm = list(range(n))
        random.Random(256).shuffle(perm)
        m = Matrix.from_rows([[int(j == perm[i]) for j in range(n)] for i in range(n)])
        assert invert(m) == m.transpose()


class TestKernel:
    def test_rank_two_rows(self):
        # x + 2y + 3z = 0 twice over and y + z = 0: the line (-1, -1, 1)
        rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
        assert kernel(rows, 3) == [{0: -1, 1: -1, 2: 1}]

    def test_full_rank_and_empty(self):
        assert kernel([{0: 1}, {0: 1, 1: I_UNIT}], 2) == []
        assert kernel([], 2) == [{0: 1}, {1: 1}]

    def test_random_sparse_null_space(self):
        rng = random.Random(12)
        for n in range(2, 7):
            m = sparse_matrix(rng, n - 1, n)
            rows = [{c: x for c, x in enumerate(m.row(r)) if x} for r in range(m.rows)]
            basis = kernel(rows, n)
            for vec in basis:
                col = Matrix(n, 1, [vec.get(c, 0) for c in range(n)])
                assert (m * col).is_zero()
            # rank plus nullity is n: the basis vectors are independent by their free 1s
            rank = n - len(basis)
            assert len(basis) >= 1 and rank <= n - 1


class TestAlgebraProperties:
    def test_associativity(self):
        rng = random.Random(8)
        for _ in range(5):
            a, b, c = (rand_matrix(rng, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_trace_cyclic(self):
        rng = random.Random(9)
        for _ in range(10):
            a = rand_matrix(rng, 4)
            b = rand_matrix(rng, 4)
            assert (a * b).trace() == (b * a).trace()

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 3).trace()

    def test_kron_mixed_product(self):
        rng = random.Random(11)
        a, b, c, d = (rand_matrix(rng, 2) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


# ---------------------------------------------------------------------------
# the nonzero storage against a dense list-of-lists oracle


def dense_rows(rng, n, m, zero_share, complex_ok):
    return [[GaussianRational(0) if rng.random() < zero_share
             else rand_scalar(rng, complex_ok=complex_ok) for _ in range(m)] for _ in range(n)]


def as_matrix(rows, cols):
    return Matrix(len(rows), cols, [x for r in rows for x in r])


def dense_matmul(a, b, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), GaussianRational(0))
             for j in range(cols)] for i in range(len(a))]


def dense_inverse(a):
    """Gauss-Jordan with row swaps on [A | I]; None when singular."""
    n = len(a)
    aug = [list(r) + [GaussianRational(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if not aug[r][c].is_zero()), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = GaussianRational(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def canonical(m: Matrix) -> bool:
    return (len(m.nonzeros) == m.rows
            and all(0 <= j < m.cols and v for r in m.nonzeros for j, v in r.items()))


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 5)]
ZERO_SHARES = [0.0, 0.3, 0.6, 0.9]


class TestNonzeroStorage:
    @pytest.mark.parametrize("complex_ok", [False, True], ids=["real", "gaussian"])
    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
    def test_operations_match_dense_oracle(self, shape, zero_share, complex_ok):
        rng = random.Random(hash((shape, zero_share, complex_ok)) % 2**32)
        n, m = shape
        for _ in range(4):
            a, b = (dense_rows(rng, n, m, zero_share, complex_ok) for _ in range(2))
            c = dense_rows(rng, m, rng.randint(0, 3), zero_share, complex_ok)
            k = len(c[0]) if c else 0
            ma, mb, mc = as_matrix(a, m), as_matrix(b, m), as_matrix(c, k)
            results = {
                "+": (ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                "-": (ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                "neg": (-ma, [[-x for x in r] for r in a]),
                "matmul": (ma * mc, dense_matmul(a, c, k)),
                "transpose": (ma.transpose(), [[a[i][j] for i in range(n)] for j in range(m)]),
                "conj_transpose": (ma.conj_transpose(),
                                   [[a[i][j].conjugate() for i in range(n)] for j in range(m)]),
                "kron": (ma.kron(mc), [[x * y for x in ra for y in rc] for ra in a for rc in c]),
            }
            for z in (GaussianRational(0), rand_scalar(rng, complex_ok=complex_ok)):
                results[f"scale {z}"] = (ma.scale(z), [[z * x for x in r] for r in a])
            for name, (got, want) in results.items():
                assert canonical(got), name
                assert (got.rows, got.cols) == (len(want), len(want[0]) if want else got.cols)
                assert got.to_rows() == want, name
                assert got.to_json() == [[x.to_json() for x in r] for r in want], name
                assert got == as_matrix(want, got.cols) and hash(got) == hash(as_matrix(want, got.cols))
            if n == m:
                assert ma.trace() == sum((a[i][i] for i in range(n)), GaussianRational(0))
                coeffs = [rand_scalar(rng, complex_ok=complex_ok) if rng.random() < 0.7
                          else GaussianRational(0) for _ in range(3)]
                mats = [ma, mb, -ma]
                want = [[sum((cf * x[i][j] for cf, x in zip(coeffs, (a, b, [[-y for y in r] for r in a]))),
                             GaussianRational(0)) for j in range(n)] for i in range(n)]
                got = combination(zip(coeffs, mats), n)
                assert canonical(got) and got.to_rows() == want
                inv = dense_inverse(a)
                if inv is None:
                    with pytest.raises(ValueError):
                        invert(ma)
                else:
                    got = invert(ma)
                    assert canonical(got) and got.to_rows() == inv

    def test_sum_with_negative_is_canonical_zero(self):
        rng = random.Random(21)
        for n in range(5):
            a = sparse_matrix(rng, n, zero_share=0.4)
            for total in (a + (-a), a - a, -a - -a):
                assert total == Matrix.zeros(n) and hash(total) == hash(Matrix.zeros(n))
                assert total.nonzeros == tuple({} for _ in range(n))
                assert total.is_zero() and not total

    def test_combination_and_dense_build_agree(self):
        rng = random.Random(22)
        n = 4
        dense = [rand_scalar(rng) if rng.random() < 0.5 else GaussianRational(0)
                 for _ in range(n * n)]
        built = Matrix(n, n, dense)
        units = [(x, Matrix(n, n, [int(u == v) for v in range(n * n)]))
                 for u, x in enumerate(dense)]
        other = sparse_matrix(rng, n)
        # the same matrix, reached in another order with a cancelling term
        reached = combination(units[::-1] + [(2, other), (-2, other)], n)
        assert reached == built and hash(reached) == hash(built)
        assert Matrix.from_rows(built.to_rows()) == built
        assert Matrix.from_json(built.to_json()) == built

    def test_row_fills_empty_positions_with_zero(self):
        m = Matrix.from_rows([[0, 1, 0], [0, 0, 0]])
        assert m.row(0) == (ZERO, GaussianRational(1), ZERO)
        assert m.row(1) == (ZERO, ZERO, ZERO)
        assert all(isinstance(x, GaussianRational) for x in m.row(1))
        assert m[1, 2] == ZERO
        assert m.nonzeros == ({1: GaussianRational(1)}, {})

    @pytest.mark.parametrize("ij", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_index_out_of_range_raises(self, ij):
        with pytest.raises(IndexError):
            Matrix.identity(3)[ij]


# ---------------------------------------------------------------------------
# fused sums of products against references that chain GaussianRational * and +


def chained_matmul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for r in a.nonzeros:
        acc = {}
        for l, x in r.items():
            for j, y in b.nonzeros[l].items():
                acc[j] = x * y if j not in acc else acc[j] + x * y
        out.append(acc)
    return Matrix.from_nonzeros(b.cols, out)


def chained_combination(terms, n: int) -> Matrix:
    acc = [{} for _ in range(n)]
    for c, m in terms:
        if not c:
            continue
        c = GaussianRational.of(c)
        for dst, src in zip(acc, m.nonzeros):
            for j, x in src.items():
                dst[j] = c * x if j not in dst else dst[j] + c * x
    return Matrix.from_nonzeros(n, acc)


def chained_kernel(rows, ncols: int) -> list:
    # one pivot hit at a time, each update a product and a subtraction
    pivots = {}
    for row in rows:
        row = {c: GaussianRational.of(v) for c, v in row.items() if v}
        for c in [c for c in row if c in pivots]:
            f = row.pop(c)
            for k, v in pivots[c].items():
                if k != c:
                    x = row.get(k, ZERO) - f * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
        if not row:
            continue
        pc = min(row)
        inv = GaussianRational(1) / row[pc]
        row = {k: v * inv for k, v in row.items()}
        for prow in pivots.values():
            g = prow.pop(pc, None)
            if g is None:
                continue
            for k, v in row.items():
                if k != pc:
                    x = prow.get(k, ZERO) - g * v
                    if x:
                        prow[k] = x
                    else:
                        prow.pop(k, None)
        pivots[pc] = row
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = {f: GaussianRational(1)}
            vec.update((pc, -prow[f]) for pc, prow in pivots.items() if f in prow)
            basis.append(vec)
    return basis


def chained_inverse(a: Matrix):
    """The inverse through chained_kernel, or None when singular."""
    n = a.rows
    basis = chained_kernel([r | {n + i: GaussianRational(-1)} for i, r in enumerate(a.nonzeros)],
                           2 * n)
    if basis and max(basis[0]) < n:
        return None
    return Matrix.from_nonzeros(n, [{j: vec[i] for j, vec in enumerate(basis) if i in vec}
                                    for i in range(n)])


def stored_canonically(m: Matrix) -> bool:
    return canonical(m) and all(type(v) is GaussianRational and canonical_scalar(v)
                                for r in m.nonzeros for v in r.values())


# A small pool makes sums cancel to zero often; big parts pass 2**64 and
# denominators are mixed, so the unreduced accumulator meets every branch.
POOL_PARTS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
part = st.one_of(
    st.sampled_from(POOL_PARTS),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9])),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70)),
)
scalar = st.one_of(
    st.builds(GaussianRational, part),  # real
    st.builds(lambda y: GaussianRational(0, y), part),  # purely imaginary
    st.builds(GaussianRational, part, part),  # complex
)


@st.composite
def sparse_mats(draw, rows, cols):
    size = rows * cols
    kept = draw(st.one_of(st.just([False] * size), st.just([True] * size),
                          st.lists(st.booleans(), min_size=size, max_size=size)))
    return Matrix(rows, cols, [draw(scalar) if k else ZERO for k in kept])


@st.composite
def square_mats(draw, count):
    n = draw(st.integers(1, 5))
    return [draw(sparse_mats(n, n)) for _ in range(count)]


FUSED = settings(max_examples=100, derandomize=True, deadline=None)


class TestFusedSumsOfProducts:
    @FUSED
    @given(st.data())
    def test_matmul(self, data):
        n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_mats(n, k)), data.draw(sparse_mats(k, m))
        got = a.matmul(b)
        assert got == chained_matmul(a, b) and stored_canonically(got)
        # rectangular + and - against entrywise sums, a - a and a + -a included
        for other in (data.draw(sparse_mats(n, k)), a, -a):
            for op in (operator.add, operator.sub):
                got = op(a, other)
                want = [{j: v for j in range(k) if (v := op(a[i, j], other[i, j]))}
                        for i in range(n)]
                assert got.nonzeros == tuple(want) and stored_canonically(got)

    @FUSED
    @given(square_mats(2))
    def test_commutator(self, mats):
        a, b = mats
        got = commutator(a, b)
        assert got == chained_matmul(a, b) - chained_matmul(b, a) and stored_canonically(got)
        assert commutator(a, a) == Matrix.zeros(a.rows) and stored_canonically(commutator(a, a))
        assert commutator(a, Matrix.zeros(a.rows)).nonzeros == tuple({} for _ in range(a.rows))

    @FUSED
    @given(st.data())
    def test_combination(self, data):
        mats = data.draw(square_mats(4))
        n = mats[0].rows
        coeff = st.one_of(scalar, st.sampled_from([0, 1, -1, ZERO, GaussianRational(1)]),
                          st.integers(-2**70, 2**70))
        terms = [(data.draw(coeff), m) for m in mats + [Matrix.zeros(n)]]
        # the negated terms cancel the first two to zero
        terms += [(-GaussianRational.of(c), m) for c, m in terms[:2]]
        first_two = terms[:2]
        # triples (c, A, B), meaning c*A*B, mixed in among the pairs
        for _ in range(data.draw(st.integers(0, 4))):
            a, b = data.draw(st.sampled_from(mats)), data.draw(st.sampled_from(mats))
            terms.insert(data.draw(st.integers(0, len(terms))), (data.draw(coeff), a, b))
        got = combination(terms, n)
        want = chained_combination([t if len(t) == 2 else (t[0], chained_matmul(t[1], t[2]))
                                    for t in terms], n)
        assert got == want and stored_canonically(got)
        a, b = mats[:2]
        c = data.draw(coeff)
        zero = combination(first_two + [(-GaussianRational.of(c), m) for c, m in first_two]
                           + [(c, a, b), (-GaussianRational.of(c), a, b)], n)
        assert zero.nonzeros == tuple({} for _ in range(n))
        # a wrongly shaped term raises unless its c is zero, and then it is skipped
        wide, tall = Matrix.zeros(n, n + 1), Matrix.zeros(n + 1, n)
        for bad in [(wide,), (a, wide), (wide, a), (tall, wide), (wide, Matrix.zeros(n + 1))]:
            with pytest.raises(ValueError, match=rf"term in a {n}x{n} combination$"):
                combination(terms + [(data.draw(coeff.filter(bool)), *bad)], n)
            for zero_c in (0, ZERO, Fraction(0)):
                assert combination(terms + [(zero_c, *bad)], n) == got

    @FUSED
    @given(st.data())
    def test_kernel(self, data):
        ncols = data.draw(st.integers(1, 6))
        m = data.draw(sparse_mats(data.draw(st.integers(0, 6)), ncols))
        rows = [dict(r) for r in m.nonzeros]
        if rows:  # a repeated row and a sum of two rows reduce to zero
            first, last = rows[0], rows[-1]
            rows += [dict(first), {c: v for c in first.keys() | last.keys()
                                   if (v := first.get(c, ZERO) + last.get(c, ZERO))}]
        got = kernel(rows, ncols)
        assert got == chained_kernel(rows, ncols)
        for vec in got:
            assert all(type(v) is GaussianRational and v and canonical_scalar(v)
                       for v in vec.values())

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_on_wider_sparse_systems(self, seed):
        # many pivot rows, few of them holding each new pivot column, entries
        # from a small pool so that eliminations cancel to zero often
        rng = random.Random(seed)
        pool = [GaussianRational(x) for x in (1, -1, 2, rational(1, 2))] + [I_UNIT]
        ncols = rng.randint(12, 20)
        rows = [{c: rng.choice(pool) for c in rng.sample(range(ncols), rng.randint(1, 4))}
                for _ in range(rng.randint(8, ncols))]
        assert kernel(rows, ncols) == chained_kernel(rows, ncols)
        a = Matrix.from_nonzeros(10, [{i: rng.choice(pool), **{j: rng.choice(pool) for j in
                                       rng.sample(range(10), rng.randint(0, 2))}}
                                      for i in range(10)])
        want = chained_inverse(a)
        if want is None:
            with pytest.raises(ValueError):
                invert(a)
        else:
            assert invert(a) == want

    @FUSED
    @given(square_mats(1))
    def test_invert(self, mats):
        (a,) = mats
        want = chained_inverse(a)
        if want is None:
            with pytest.raises(ValueError, match=r"^matrix is singular \(no pivot in column \d+\)$"):
                invert(a)
        else:
            got = invert(a)
            assert got == want and stored_canonically(got)
            assert a * got == Matrix.identity(a.rows)

    def test_singular_message_unchanged(self):
        rows = [[GaussianRational(0, rational(1, 2)), GaussianRational(0, 1)],
                [GaussianRational(rational(1, 3)), GaussianRational(rational(2, 3))]]
        assert chained_inverse(Matrix.from_rows(rows)) is None
        with pytest.raises(ValueError) as exc:
            invert(Matrix.from_rows(rows))
        assert str(exc.value) == "matrix is singular (no pivot in column 1)"

    def test_cancelling_sums_store_no_zero(self):
        x = GaussianRational(2**70 + 1, rational(-1, 3))
        y = GaussianRational(rational(1, 2**65), 7)
        a = Matrix.from_rows([[x, x], [y, 0]])
        b = Matrix.from_rows([[y, 0], [-y, 1]])
        got = a * b
        assert got.nonzeros[0] == {1: x} and got == chained_matmul(a, b)
        assert stored_canonically(got)
        # entries over denominators 2, 3 and 6 that sum to an integer
        c = combination([(rational(1, 2), Matrix.identity(2)), (rational(1, 3), Matrix.identity(2)),
                         (rational(1, 6), Matrix.identity(2))], 2)
        assert c == Matrix.identity(2) and all(v.d == 1 for r in c.nonzeros for v in r.values())
