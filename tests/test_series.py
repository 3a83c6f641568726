import functools
import itertools
import math
import random

import pytest
import sympy

from symheat.bundles import catalog_rep
from symheat.exact import GaussianRational, Matrix, combination, rational
from symheat.series import (
    SeriesPoly,
    _direct_power_sums,
    _elementary_symmetric,
    _sparse_generators,
    cosh_pencil,
    det_sinhc_numeric,
    det_sinhc_pencil,
    log_sinhc_coeffs,
    matrix_exp_series,
    weyl_density,
)
from symheat.spaces import sphere

EPS = Matrix.from_rows([[0, 1], [-1, 0]])
HALF = rational(1, 2)
Z = sympy.symbols("z")


def sympy_series_coeffs(expr, x, order):
    ser = sympy.series(expr, x, 0, order + 1).removeO()
    out = []
    for k in range(order + 1):
        c = ser.coeff(x, k)
        out.append(GaussianRational(rational(str(sympy.nsimplify(c)))))
    return out


class TestLogSinhc:
    def test_first_orders(self):
        assert log_sinhc_coeffs(2) == [0, 0, rational(1, 6)]

    def test_order_four(self):
        assert log_sinhc_coeffs(4)[4] == rational(-1, 180)

    def test_order_zero(self):
        assert log_sinhc_coeffs(0) == [0]

    def test_each_call_returns_a_fresh_list(self):
        # one computation per order is kept; a caller's edit must not reach it
        got = log_sinhc_coeffs(6)
        assert type(got) is list and got is not log_sinhc_coeffs(6)
        got[2] = 0
        assert log_sinhc_coeffs(6)[2] == rational(1, 6)

    def test_against_sympy(self):
        x = sympy.symbols("x")
        for order in (10, 16):
            expected = sympy_series_coeffs(sympy.log(sympy.sinh(x) / x), x, order)
            assert log_sinhc_coeffs(order) == expected


def omega_pencil(mats, degree: int) -> SeriesPoly:
    """Degree-one polynomial sum_i omega^i * (s * A_i), with dense Matrix values.

    The dense reference for the sparse pencil powers: its powers come from
    SeriesPoly products, that is from Matrix.matmul.
    """
    p = len(mats)
    terms = {tuple(1 if j == i else 0 for j in range(p)): a for i, a in enumerate(mats)}
    return SeriesPoly(p, mats[0].rows, degree, terms)


class TestDetSinhcPencil:
    def test_s2_tangent_factor(self):
        # det(sinhc(s*omega*(-eps)/2))^(-1/2) = z/sin(z) at z = s*omega/2
        poly = det_sinhc_pencil([-EPS], HALF, rational(-1, 2), 4).exp()
        assert poly.terms[(2,)] == rational(1, 24)
        assert poly.terms[(4,)] == rational(7, 5760)
        assert poly.terms[(0,)] == 1

    @pytest.mark.parametrize("mats, exponent, expr, top", [
        # eigenvalues of -eps are +-i, so the determinant is (sin z / z)^2
        ([-EPS], rational(-1, 2), Z / sympy.sin(Z), 8),
        ([Matrix.diag([GaussianRational(0, 1), GaussianRational(0, 2)])], rational(1),
         sympy.sin(Z) / Z * sympy.sin(2 * Z) / (2 * Z), 8),
        ([-EPS], rational(-1, 2), Z / sympy.sin(Z), 7),
        ([-EPS], rational(-1, 2), Z / sympy.sin(Z), 6),
        ([-EPS, Matrix.zeros(2)], rational(-1, 2), Z / sympy.sin(Z), 8),
        ([-EPS, -EPS], rational(-1, 2), Z / sympy.sin(Z), 6),
    ], ids=["eps", "imaginary_diag", "odd_omega_degree", "degree_6", "zero_generator",
            "equal_generators"])
    def test_s2_tangent_factor_against_sympy(self, mats, exponent, expr, top):
        # The nonzero generators are all one matrix G, so A(omega) is
        # (sum of their omegas) * G and the factor is expr(z) at
        # z = s * (sum of their omegas) / 2, expanded multinomially.
        expected = sympy_series_coeffs(expr, Z, top)
        ranges = [[0] if m.is_zero() else range(top + 1) for m in mats]
        want = {}
        for mono in itertools.product(*ranges):
            deg = sum(mono)
            if deg > top or expected[deg].is_zero():
                continue
            count = math.factorial(deg) // math.prod(math.factorial(e) for e in mono)
            want[mono] = expected[deg] * GaussianRational(rational(count, 2**deg))
        assert det_sinhc_pencil(mats, HALF, exponent, top).exp().terms == want

    def test_zero_pencil(self):
        poly = det_sinhc_pencil([Matrix.zeros(3)], HALF, rational(-1, 2), 4).exp()
        assert poly == SeriesPoly(1, 1, 4, {(0,): 1})

    def test_empty_pencil(self):
        assert det_sinhc_pencil([], HALF, rational(-1, 2), 4).exp() == SeriesPoly(0, 1, 4, {(): 1})

    def test_inverse_exponents_multiply_to_one(self):
        rng = random.Random(21)
        mats = []
        for _ in range(2):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            c = rng.randint(-3, 3)
            mats.append(Matrix.from_rows([[0, a, b], [-a, 0, c], [-b, -c, 0]]))
        plus = det_sinhc_pencil(mats, HALF, rational(1, 2), 6).exp()
        minus = det_sinhc_pencil(mats, HALF, rational(-1, 2), 6).exp()
        assert plus * minus == SeriesPoly(2, 1, 6, {(0, 0): 1})


def _random_pencil(rng, kind, p, dim):
    def entry():
        return rational(rng.randint(-3, 3), rng.randint(1, 3))

    mats = []
    for _ in range(p):
        rows = [[entry() for _ in range(dim)] for _ in range(dim)]
        if kind == "antisymmetric":
            rows = [[rows[i][j] - rows[j][i] for j in range(dim)] for i in range(dim)]
        elif kind == "complex":
            rows = [[GaussianRational(x, entry()) for x in row] for row in rows]
        mats.append(Matrix.from_rows(rows))
    return mats


@functools.cache
def _sympy_log_sinhc(degree):
    return sympy_series_coeffs(sympy.log(sympy.sinh(Z) / Z), Z, degree)


def _reference_det_sinhc(mats, exponent, degree):
    """det(sinhc(s*A(omega)/2))^exponent from matrix pencil powers, traced.

    The log is sum_m c_2m tr A^(2m) with c_2m from sympy, and its exp is
    the power series sum_j f^j / j!, both through SeriesPoly products.
    """
    p = len(mats)
    logc = _sympy_log_sinhc(degree)
    pen = omega_pencil([a.scale(HALF) for a in mats], degree)
    power = SeriesPoly.one(p, mats[0].rows, degree)
    f = SeriesPoly(p, 1, degree)
    for j in range(1, degree + 1):
        power = power * pen
        traces = {mono: v.trace() * logc[j] * exponent for mono, v in power.terms.items()}
        f = f + SeriesPoly(p, 1, degree, traces)
    out = term = SeriesPoly(p, 1, degree, {(0,) * p: 1})
    for j in range(1, degree + 1):
        term = (term * f).scale(rational(1, j))
        out = out + term
    return out


class TestDetSinhcExponent:
    @pytest.mark.parametrize("degree", [6, 7, 8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["antisymmetric", "real", "complex"])
    def test_exp_matches_traced_pencil_powers(self, kind, p, dim, degree):
        # dim < degree here: every even power sum up to the degree comes
        # straight from the pencil powers, for non-antisymmetric and complex
        # pencils too, whose odd power sums never enter
        rng = random.Random(f"{kind}-{p}-{dim}-{degree}")
        mats = _random_pencil(rng, kind, p, dim)
        exponent = rational(1, 2) if (p + dim + degree) % 2 else rational(-1, 2)
        want = _reference_det_sinhc(mats, exponent, degree)
        assert det_sinhc_pencil(mats, HALF, exponent, degree).exp() == want

    def test_zero_generator_matches_traced_pencil_powers(self):
        mats = _random_pencil(random.Random(22), "real", 1, 3) + [Matrix.zeros(3)]
        want = _reference_det_sinhc(mats, rational(-1, 2), 8)
        got = det_sinhc_pencil(mats, HALF, rational(-1, 2), 8).exp()
        assert got == want
        assert all(mono[1] == 0 for mono in got.terms)

    def test_exponents_of_two_factors_add(self):
        model = sphere(3, 1)
        f_hol = det_sinhc_pencil(model.F, HALF, HALF, 6)
        f_tan = det_sinhc_pencil(model.D, HALF, -HALF, 6)
        assert (f_hol + f_tan).exp() == f_hol.exp() * f_tan.exp()

    def test_exp_of_int_values_stays_exact(self):
        got = SeriesPoly(1, 1, 4, {(2,): 1}).exp().terms
        assert got == {(0,): 1, (2,): 1, (4,): rational(1, 2)}
        assert not any(isinstance(v, float) for v in got.values())

    def test_exp_needs_zero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            SeriesPoly(1, 1, 4, {(0,): 1, (2,): rational(1, 6)}).exp()

    def test_exp_needs_scalar_values(self):
        with pytest.raises(ValueError, match="scalar"):
            SeriesPoly(1, 2, 4, {(2,): Matrix.identity(2)}).exp()


def _mixed_entry(rng):
    # parts over 2, 3 and 6: an accumulated sum meets equal denominators,
    # coprime ones and one that divides the other
    def part():
        return rational(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
    return GaussianRational(part(), part())


def _chained_mul(x: dict, y: dict) -> dict:
    """x * y for {monomial: GaussianRational} polynomials, one + per product."""
    out = {}
    for m1, v1 in x.items():
        for m2, v2 in y.items():
            mono = tuple(u + v for u, v in zip(m1, m2))
            out[mono] = out.get(mono, GaussianRational(0)) + v1 * v2
    return {mono: v for mono, v in out.items() if v}


def _chained_power_sums(mats, top):
    """{j: tr A(omega)^j} from dense pencil powers, every entry a chain of + and *."""
    p, dim = len(mats), mats[0].rows
    zero = GaussianRational(0)
    power = {(0,) * p: [[GaussianRational(int(r == c)) for c in range(dim)] for r in range(dim)]}
    out = {}
    for j in range(1, top + 1):
        step = {}
        for mono, x in power.items():
            for i, a in enumerate(mats):
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                y = step.setdefault(key, [[zero] * dim for _ in range(dim)])
                for r in range(dim):
                    for c in range(dim):
                        for k in range(dim):
                            y[r][c] = y[r][c] + x[r][k] * a[k, c]
        power = step
        traces = {mono: sum((x[r][r] for r in range(dim)), zero) for mono, x in power.items()}
        out[j] = {mono: v for mono, v in traces.items() if v}
    return out


def _chained_elementary(psums, top, zero_mono):
    """Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i, one + per product."""
    e = [{zero_mono: GaussianRational(1)}]
    for k in range(1, top + 1):
        acc = {}
        for i in range(1, k + 1):
            for mono, v in _chained_mul(e[k - i], psums[i]).items():
                acc[mono] = acc.get(mono, GaussianRational(0)) + v * (-1) ** (i - 1)
        e.append({mono: v / k for mono, v in acc.items() if v})
    return e


def _chained_exp(f: SeriesPoly) -> dict:
    """sum_j f^j / j! truncated at f's degree, one + per product."""
    out = {(0,) * f.p: GaussianRational(1)}
    term = dict(out)
    for j in range(1, f.degree + 1):
        term = {mono: v / j for mono, v in _chained_mul(term, f.terms).items()
                if sum(mono) <= f.degree}
        for mono, v in term.items():
            out[mono] = out.get(mono, GaussianRational(0)) + v
    return {mono: v for mono, v in out.items() if v}


class TestAccumulatedSums:
    """The pencil sums accumulated unreduced, against chained GaussianRational sums."""

    @pytest.mark.parametrize("p, dim, top", [(1, 3, 6), (2, 2, 5), (2, 3, 4), (3, 2, 4)])
    def test_power_sums_and_newton(self, p, dim, top):
        rng = random.Random(f"acc-{p}-{dim}-{top}")
        mats = [Matrix.from_rows([[_mixed_entry(rng) for _ in range(dim)] for _ in range(dim)])
                for _ in range(p)]
        gens, _ = _sparse_generators(mats, 1)
        zero_mono = (0,) * p
        want = _chained_power_sums(mats, top)
        assert _direct_power_sums(gens, range(dim), top, zero_mono) == want
        assert (_direct_power_sums(gens, range(dim), top, zero_mono, odd=False)
                == {j: v for j, v in want.items() if j % 2 == 0})
        e = _elementary_symmetric(want, top, zero_mono)
        assert e == _chained_elementary(want, top, zero_mono)
        # e_dim is the determinant, and e_j vanishes above the size
        assert all(not e[j] for j in range(dim + 1, top + 1)) and e[dim]

    @pytest.mark.parametrize("p, degree", [(1, 8), (2, 6), (3, 5)])
    def test_exp(self, p, degree):
        rng = random.Random(f"exp-{p}-{degree}")
        terms = {}
        for mono in itertools.product(range(degree + 1), repeat=p):
            if 0 < sum(mono) <= degree and rng.random() < 0.6:
                terms[mono] = _mixed_entry(rng)
        f = SeriesPoly(p, 1, degree, terms)
        assert f.exp().terms == _chained_exp(f)

    def test_sums_make_no_gaussian_rational_add(self, monkeypatch):
        rng = random.Random(23)
        mats = [Matrix.from_rows([[_mixed_entry(rng) for _ in range(3)] for _ in range(3)])
                for _ in range(2)]
        gens, _ = _sparse_generators(mats, 1)
        f = det_sinhc_pencil(mats, HALF, HALF, 6)
        calls = []
        original = GaussianRational.__add__

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(GaussianRational, "__add__", counting)
        monkeypatch.setattr(GaussianRational, "__radd__", counting)
        psums = _direct_power_sums(gens, range(3), 6, (0, 0))
        e = _elementary_symmetric(psums, 6, (0, 0))
        g = f.exp()
        assert calls == []
        assert psums[6] and e[3] and len(g.terms) > 1


class TestCoshPencil:
    def test_scalar_rep_is_identity(self):
        poly = cosh_pencil([Matrix.zeros(1)], 1, 4)
        assert poly == SeriesPoly.one(1, 1, 4)

    def test_spinor_s2(self):
        # R_1^2 = -(1/4) I: cosh gives I + s^2 w^2 (-1/8) I + ...
        r1 = Matrix.from_rows([
            [GaussianRational(0, rational(-1, 2)), 0],
            [0, GaussianRational(0, rational(1, 2))],
        ])
        poly = cosh_pencil([r1], 2, 4)
        assert poly.terms[(2,)] == Matrix.identity(2).scale(rational(-1, 8))

    def test_vector_s2(self):
        poly = cosh_pencil([-EPS], 2, 4)
        assert poly.terms[(2,)] == Matrix.identity(2).scale(rational(-1, 2))
        # only even omega-degrees appear
        assert all(sum(m) % 2 == 0 for m in poly.terms)


class TestRestrictedPencils:
    """A basis restricts a pencil to the span of its vectors, one omega each."""

    BASIS = [(1, 0, rational(1, 2)), (0, -2, 1)]

    @pytest.mark.parametrize("kind", ["antisymmetric", "complex"])
    def test_pencils_on_a_span(self, kind):
        mats = _random_pencil(random.Random(31), kind, 3, 3)
        spanned = [combination(zip(v, mats), 3) for v in self.BASIS]
        assert (det_sinhc_pencil(mats, HALF, -HALF, 6, self.BASIS)
                == det_sinhc_pencil(spanned, HALF, -HALF, 6))
        assert cosh_pencil(mats, 3, 6, self.BASIS) == cosh_pencil(spanned, 3, 6)

    def test_empty_basis_has_no_variables(self):
        mats = _random_pencil(random.Random(32), "antisymmetric", 2, 3)
        assert det_sinhc_pencil(mats, HALF, HALF, 4, []) == SeriesPoly(0, 1, 4)
        assert cosh_pencil(mats, 3, 4, []) == SeriesPoly.one(0, 3, 4)

    def test_weyl_density_of_so4(self):
        # roots y1 +- y2 of so(4) on the torus E_01, E_23: W = (y1^2 - y2^2)^2
        m = sphere(4, 1)
        basis = [tuple(int(i == j) for j in range(6)) for i in (0, 5)]
        assert weyl_density(m.F, basis) == {(4, 0): 1, (2, 2): -2, (0, 4): 1}
        # a span that is not a Cartan subalgebra has W = 0
        assert weyl_density(m.F, basis[:1]) == {}


def _reference_cosh(mats, degree):
    """cosh(s*R(omega)) from dense omega_pencil powers through SeriesPoly products."""
    p, dim = len(mats), mats[0].rows
    pen = omega_pencil(mats, degree)
    out = power = SeriesPoly.one(p, dim, degree)
    for j in range(1, degree + 1):
        power = power * pen
        if j % 2 == 0:
            out = out + power.scale(rational(1, math.factorial(j)))
    return out


# the largest pencils (three generators of size 4, and of size 3 at
# degree 8) take most of the time of the full grid and are left out
_COSH_GRID = [
    (kind, p, dim, degree)
    for kind in ("antisymmetric", "real", "complex")
    for p in (1, 2, 3)
    for dim in (1, 2, 3, 4)
    for degree in (6, 8)
    if p * dim <= (9 if degree == 6 else 8)
]


class TestOneValueKind:
    """Every pencil value is a GaussianRational, for real pencils too."""

    def test_pencil_values_are_gaussian_rationals(self):
        m = sphere(4, 1)
        rep = catalog_rep(m, "spinor")
        torus = [tuple(int(i == j) for j in range(6)) for i in (0, 5)]
        dets = [det_sinhc_pencil(m.F, HALF, HALF, 6, torus),
                det_sinhc_pencil(m.D, HALF, -HALF, 6, torus),
                det_sinhc_pencil(m.D, HALF, -HALF, 4)]
        for f in dets + [(dets[0] + dets[1]).exp()]:
            assert f.terms and all(type(v) is GaussianRational for v in f.terms.values())
        # the real pencil's generators too, not only what their products become
        gens, exponent = _sparse_generators(m.D, HALF, -HALF, torus)
        assert type(exponent) is GaussianRational
        assert all(type(v) is GaussianRational
                   for g in gens for row in g.values() for v in row.values())
        for basis in (torus, None):
            cosh = cosh_pencil(rep.R, rep.dimV, 6, basis)
            assert len(cosh.terms) > 1
            assert all(type(x) is GaussianRational
                       for v in cosh.terms.values() for row in v.nonzeros for x in row.values())
        twist = det_sinhc_numeric(Matrix.from_rows([[0, GaussianRational(0, 1)],
                                                    [GaussianRational(0, -1), 0]]), -HALF, 6)
        assert all(type(v) is GaussianRational for v in twist + log_sinhc_coeffs(6))


class TestCoshAgainstDensePowers:
    @pytest.mark.parametrize("kind, p, dim, degree", _COSH_GRID)
    def test_cosh_matches_dense_powers(self, kind, p, dim, degree):
        rng = random.Random(f"cosh-{kind}-{p}-{dim}-{degree}")
        mats = _random_pencil(rng, kind, p, dim)
        assert cosh_pencil(mats, dim, degree) == _reference_cosh(mats, degree)

    def test_fiber_dimension_must_match(self):
        with pytest.raises(ValueError, match="fiber dimension"):
            cosh_pencil([EPS], 3, 4)


class TestMixedProduct:
    def test_matrix_times_scalar_pencil(self):
        # an S2 spinor cosh pencil (Matrix values) times the scalar tangent
        # det(sinhc) pencil, in both orders, against the termwise product
        model = sphere(2, 1)
        rep = catalog_rep(model, "spinor")
        f_cosh = cosh_pencil(rep.R, rep.dimV, 6)
        f_tan = det_sinhc_pencil(model.D, HALF, rational(-1, 2), 6).exp()
        want = {}
        for m1, a in f_cosh.terms.items():
            for m2, x in f_tan.terms.items():
                mono = tuple(u + v for u, v in zip(m1, m2))
                if sum(mono) <= 6:
                    want[mono] = want[mono] + a.scale(x) if mono in want else a.scale(x)
        assert len(want) == 4
        assert f_cosh * f_tan == f_tan * f_cosh == SeriesPoly(1, 2, 6, want)


class TestMatrixExpSeries:
    def test_zero_matrix(self):
        ms = matrix_exp_series(Matrix.zeros(2), 4)
        assert ms == [Matrix.identity(2), Matrix.zeros(2), Matrix.zeros(2)]

    def test_scalar_multiple_of_identity(self):
        c = rational(3, 2)
        ms = matrix_exp_series(Matrix.identity(2).scale(c), 4)
        assert ms[2] == Matrix.identity(2).scale(c * c / 2)

    def test_s2_scalar_prefactor(self):
        ms = matrix_exp_series(Matrix.identity(1).scale(rational(1, 4)), 6)
        assert ms[1][0, 0] == GaussianRational(rational(1, 4))
        assert ms[2][0, 0] == GaussianRational(rational(1, 32))


def _twist_block(b):
    return [[GaussianRational(0), GaussianRational(0, b)],
            [GaussianRational(0, -b), GaussianRational(0)]]


class TestDetSinhcNumeric:
    def test_zero_twist(self):
        assert det_sinhc_numeric(Matrix.zeros(2), rational(-1, 2), 8) == [1, 0, 0, 0, 0]

    def test_imaginary_block(self):
        # B = [[0, i b], [-i b, 0]] has real eigenvalues +-b, so the factor is
        # t b / sinh(t b) = 1 - (tb)^2/6 + 7 (tb)^4/360 - ...
        b = rational(2, 3)
        ts = det_sinhc_numeric(Matrix.from_rows(_twist_block(b)), rational(-1, 2), 8)
        assert ts == [1, 0, -b * b / 6, 0, b * b * b * b * 7 / 360]

    def test_imaginary_block_against_sympy(self):
        x = sympy.symbols("x")
        expected = sympy_series_coeffs(x / sympy.sinh(x), x, 8)
        # x = t*b with b = 1: the t-coefficients are those of x/sinh(x)
        ts = det_sinhc_numeric(Matrix.from_rows(_twist_block(1)), rational(-1, 2), 16)
        assert ts == expected

    def test_block_diagonal_multiplies(self):
        rows = [[GaussianRational(0)] * 4 for _ in range(4)]
        blk1, blk2 = _twist_block(rational(1, 2)), _twist_block(rational(1, 3))
        for i in range(2):
            for j in range(2):
                rows[i][j] = blk1[i][j]
                rows[2 + i][2 + j] = blk2[i][j]
        lim = 12
        combined = det_sinhc_numeric(Matrix.from_rows(rows), rational(-1, 2), lim)
        part1 = det_sinhc_numeric(Matrix.from_rows(blk1), rational(-1, 2), lim)
        part2 = det_sinhc_numeric(Matrix.from_rows(blk2), rational(-1, 2), lim)
        # the product of two t-series, as a list convolution
        product = [sum((part1[i] * part2[n - i] for i in range(n + 1)), GaussianRational(0))
                   for n in range(lim // 2 + 1)]
        assert len(combined) == lim // 2 + 1
        assert combined == product
        assert combined[4] != 0


class TestPolyInvariants:
    def test_truncation_stability(self):
        f_small = det_sinhc_pencil([-EPS], HALF, rational(-1, 2), 4).exp()
        f_large = det_sinhc_pencil([-EPS], HALF, rational(-1, 2), 8).exp()
        # the terms of degree <= 4 are the degree-4 expansion's
        assert {m: v for m, v in f_large.terms.items() if sum(m) <= 4} == f_small.terms

    def test_mismatched_limits_rejected(self):
        a = SeriesPoly.one(1, 1, 2)
        b = SeriesPoly.one(1, 1, 4)
        with pytest.raises(ValueError):
            a * b


def _termwise_product(a: SeriesPoly, b: SeriesPoly) -> dict:
    # one value product at a time, added into the running sum of its monomial
    out = {}
    for m1, v1 in a.terms.items():
        for m2, v2 in b.terms.items():
            mono = tuple(u + v for u, v in zip(m1, m2))
            if sum(mono) <= a.degree:
                out[mono] = out[mono] + v1 * v2 if mono in out else v1 * v2
    return out


def _random_values_poly(rng, kind, p=2, dim=3, degree=4):
    def value():
        re = rational(rng.randint(-4, 4), rng.choice([1, 2, 3, 2**70]))
        im = rational(rng.randint(-4, 4), rng.choice([1, 5])) if rng.random() < 0.5 else 0
        return GaussianRational(re, im)

    terms = {}
    for mono in itertools.product(range(degree + 1), repeat=p):
        if sum(mono) <= degree and rng.random() < 0.6:
            terms[mono] = value() if kind == "scalar" else Matrix(
                dim, dim, [value() if rng.random() < 0.4 else 0 for _ in range(dim * dim)])
    return SeriesPoly(p, 1 if kind == "scalar" else dim, degree, terms)


class TestGroupedProduct:
    """SeriesPoly.__mul__ sums the value products of each monomial in one go."""

    @pytest.mark.parametrize("kinds", [("matrix", "scalar"), ("scalar", "matrix"),
                                       ("matrix", "matrix"), ("scalar", "scalar")],
                             ids=lambda k: "x".join(k))
    def test_matches_termwise_product(self, kinds):
        rng = random.Random("x".join(kinds))
        for _ in range(6):
            a, b = (_random_values_poly(rng, kind) for kind in kinds)
            got = a * b
            want = {mono: v for mono, v in _termwise_product(a, b).items() if v}
            assert got.terms == want
            assert got.dim == (1 if kinds == ("scalar", "scalar") else 3)
            for v in got.terms.values():
                assert type(v) is (GaussianRational if kinds == ("scalar", "scalar") else Matrix)

    def test_cancelling_products_leave_no_term(self):
        m = Matrix.from_rows([[1, rational(1, 2)], [0, GaussianRational(0, 3)]])
        x = GaussianRational(rational(2, 3), -1)
        a = SeriesPoly(2, 2, 2, {(1, 0): m, (0, 1): m})
        b = SeriesPoly(2, 1, 2, {(0, 1): x, (1, 0): -x, (0, 0): x})
        for got in (a * b, b * a):
            assert (1, 1) not in got.terms
            assert got.terms == {(1, 0): m.scale(x), (0, 1): m.scale(x),
                                 (2, 0): m.scale(-x), (0, 2): m.scale(x)}
