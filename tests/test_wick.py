import itertools
import math
import random

import pytest

from symheat import wick
from symheat.exact import GaussianRational, Matrix, combination, rational
from symheat.series import SeriesPoly, det_sinhc_pencil
from symheat.wick import (
    GaussianWeight,
    average_monomial,
    average_poly,
    mono_to_indices,
    symmetrized_moment,
)

EPS = Matrix.from_rows([[0, 1], [-1, 0]])


def random_spd_ish_beta(rng, p):
    # random symmetric invertible rational matrix (indefinite allowed)
    while True:
        rows = [[rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)]
                for _ in range(p)]
        for i in range(p):
            for j in range(i):
                rows[i][j] = rows[j][i]
        beta = Matrix.from_rows(rows)
        try:
            return GaussianWeight.from_beta(beta)
        except ValueError:
            continue


def brute_force_pairings(indices, w):
    # literal matching enumeration, written independently of the module
    idx = list(indices)
    if len(idx) % 2:
        return GaussianRational(0)
    if not idx:
        return GaussianRational(1)
    total = GaussianRational(0)
    first = idx[0]
    for j in range(1, len(idx)):
        rest = idx[1:j] + idx[j + 1 :]
        total = total + GaussianRational(2) * w.beta_inv[first, idx[j]] * brute_force_pairings(rest, w)
    return total


def all_monomials(p, degrees):
    for deg in degrees:
        yield from itertools.combinations_with_replacement(range(p), deg)


class TestMoments:
    def test_odd_vanishes(self):
        w = GaussianWeight.from_beta(Matrix.identity(1))
        assert average_monomial((0,), w).is_zero()
        assert average_monomial((0, 0, 0), w).is_zero()

    def test_second_moment(self):
        w = GaussianWeight.from_beta(Matrix.from_rows([
            [1, rational(1, 2)], [rational(1, 2), 2],
        ]))
        for i in range(2):
            for j in range(2):
                assert average_monomial((i, j), w) == GaussianRational(2) * w.beta_inv[i, j]

    def test_fourth_moment_scalar(self):
        w = GaussianWeight.from_beta(Matrix.identity(1))
        assert average_monomial((0, 0, 0, 0), w) == GaussianRational(12)

    def test_symmetrized_k1(self):
        w = GaussianWeight.from_beta(Matrix.from_rows([[2, 1], [1, 1]]))
        for i in range(2):
            for j in range(2):
                assert symmetrized_moment((i, j), w) == average_monomial((i, j), w)

    def test_symmetrized_k2_scalar(self):
        w = GaussianWeight.from_beta(Matrix.identity(1))
        assert symmetrized_moment((0, 0, 0, 0), w) == GaussianRational(12)

    def test_symmetrized_random_degree6(self):
        rng = random.Random(33)
        w = random_spd_ish_beta(rng, 3)
        idx = tuple(rng.randrange(3) for _ in range(6))
        assert symmetrized_moment(idx, w) == average_monomial(idx, w)
        assert symmetrized_moment(idx, w) == brute_force_pairings(idx, w)

    def test_agreement_all_even_monomials(self):
        rng = random.Random(34)
        for p in (1, 2, 3):
            w = random_spd_ish_beta(rng, p)
            for deg in (2, 4, 6):
                for combo in itertools.combinations_with_replacement(range(p), deg):
                    assert average_monomial(combo, w) == symmetrized_moment(combo, w)


class TestMemoizedPairingSum:
    # the pairing sum caches every sub-multiset it meets, so a wrong count
    # or key would show up on a monomial other than the one computed first
    @pytest.mark.parametrize("rows", [
        pytest.param(None, id="random"),
        # diagonal and block-diagonal beta: beta^-1 has zero off-diagonal entries
        pytest.param([[2, 0, 0], [0, -1, 0], [0, 0, rational(1, 3)]], id="diagonal"),
        pytest.param([[2, 1, 0], [1, 1, 0], [0, 0, -3]], id="block"),
    ])
    def test_degree8_against_brute_force(self, rows):
        if rows is None:
            rng = random.Random(36)
            weights = [random_spd_ish_beta(rng, p) for p in (1, 2, 3)]
        else:
            weights = [GaussianWeight.from_beta(Matrix.from_rows(rows))]
        for w in weights:
            for combo in all_monomials(w.p, (8,)):
                assert average_monomial(combo, w) == brute_force_pairings(combo, w)

    @pytest.mark.parametrize("b", [rational(3, 2), rational(-2, 5)])
    def test_single_variable_closed_form(self, b):
        # <w^(2k)> = (2k-1)!! (2 beta^-1)^k
        w = GaussianWeight.from_beta(Matrix.from_rows([[b]]))
        for k in range(7):
            double_factorial = math.prod(range(1, 2 * k, 2))
            expected = GaussianRational(double_factorial * (2 / b) ** k)
            assert average_monomial((0,) * (2 * k), w) == expected

    def test_warm_cache_matches_fresh_weight(self):
        beta = random_spd_ish_beta(random.Random(37), 3).beta
        warm = GaussianWeight.from_beta(beta)
        # warm the cache from the top down, so lower monomials are hits
        for combo in all_monomials(3, (8,)):
            average_monomial(combo, warm)
        combos = list(all_monomials(3, range(7)))
        random.Random(38).shuffle(combos)
        for combo in combos:
            fresh = GaussianWeight.from_beta(beta)
            # unsorted indices must find the sorted cache entries
            assert average_monomial(combo[::-1], warm) == average_monomial(combo, fresh)


class TestProperties:
    def test_linearity(self):
        # the scalar pencils get 1x1 Matrix values from SeriesPoly.one
        one = SeriesPoly.one(1, 1, 4)
        w = GaussianWeight.from_beta(Matrix.identity(1))
        f = one * det_sinhc_pencil([-EPS], rational(1, 2), rational(-1, 2), 4).exp()
        g = one * det_sinhc_pencil([-EPS], rational(1, 2), rational(1, 2), 4).exp()
        left = average_poly(f + g, w)
        right = [a + b for a, b in zip(average_poly(f, w), average_poly(g, w))]
        assert left == right

    def test_sign_covariance(self):
        rng = random.Random(35)
        w = random_spd_ish_beta(rng, 2)
        w_neg = GaussianWeight.from_beta(-w.beta)
        for deg in (2, 4, 6):
            for combo in itertools.combinations_with_replacement(range(2), deg):
                sign = (-1) ** (deg // 2)
                assert average_monomial(combo, w_neg) == GaussianRational(sign) * average_monomial(combo, w)

    def test_mono_to_indices(self):
        assert mono_to_indices((2, 0, 1)) == (0, 0, 2)


class TestAveragePoly:
    def test_constant_unchanged(self):
        w = GaussianWeight.from_beta(Matrix.identity(2))
        poly = SeriesPoly.one(2, 3, 4)
        assert average_poly(poly, w) == [Matrix.identity(3), Matrix.zeros(3), Matrix.zeros(3)]

    def test_s2_tangent_factor_average(self):
        # <z/sin z> with z = s w / 2 gives 1 + t/12 + 7 t^2/480
        w = GaussianWeight.from_beta(Matrix.identity(1))
        poly = det_sinhc_pencil([-EPS], rational(1, 2), rational(-1, 2), 4).exp()
        avg = average_poly(SeriesPoly.one(1, 1, 4) * poly, w)
        assert [a[0, 0] for a in avg] == [
            GaussianRational(1), GaussianRational(rational(1, 12)),
            GaussianRational(rational(7, 480)),
        ]

    def test_odd_poly_averages_to_zero(self):
        w = GaussianWeight.from_beta(Matrix.identity(1))
        poly = SeriesPoly(1, 1, 3, {(1,): Matrix.identity(1), (3,): Matrix.identity(1)})
        assert average_poly(poly, w) == [Matrix.zeros(1), Matrix.zeros(1)]

    def test_odd_moment_is_an_error(self, monkeypatch):
        # a nonzero odd moment would leave an odd power of sqrt(t) behind
        monkeypatch.setattr(wick, "average_monomial", lambda indices, w: GaussianRational(1))
        w = GaussianWeight.from_beta(Matrix.identity(1))
        poly = SeriesPoly(1, 1, 2, {(1,): Matrix.identity(1)})
        with pytest.raises(AssertionError, match="odd power"):
            average_poly(poly, w)

    def test_variable_count_mismatch(self):
        w = GaussianWeight.from_beta(Matrix.identity(2))
        poly = SeriesPoly.one(1, 1, 2)
        with pytest.raises(ValueError):
            average_poly(poly, w)


    def test_density_weights_every_moment(self):
        # <(1 + y^2) y^2> / <y^2> with <y^2> = 2, <y^4> = 12: 1 + 6 t
        w = GaussianWeight.from_beta(Matrix.identity(1), {(2,): 1})
        poly = SeriesPoly(1, 1, 2, {(0,): Matrix.identity(1), (2,): Matrix.identity(1)})
        assert [a[0, 0] for a in average_poly(poly, w)] == [GaussianRational(1),
                                                           GaussianRational(6)]

    def test_unit_density_changes_nothing(self):
        beta = Matrix.from_rows([[2, 1], [1, 3]])
        poly = SeriesPoly.one(2, 1, 4) * det_sinhc_pencil(
            [EPS, EPS.scale(2)], rational(1, 2), rational(-1, 2), 4).exp()
        plain = average_poly(*diagonalized(poly, GaussianWeight.from_beta(beta)))
        assert average_poly(*diagonalized(
            poly, GaussianWeight.from_beta(beta, {(0, 0): 1}))) == plain

    def test_zero_mean_density_rejected(self):
        # <y1^2 - y2^2> = 0 under the identity weight
        w = GaussianWeight.from_beta(Matrix.identity(2), {(2, 0): 1, (0, 2): -1})
        with pytest.raises(ValueError, match="averages to zero"):
            average_poly(SeriesPoly.one(2, 1, 2), w)


class TestWeightValidation:
    def test_bad_inverse_rejected(self):
        with pytest.raises(ValueError):
            GaussianWeight(Matrix.identity(2), Matrix.identity(2).scale(2))

    def test_asymmetric_rejected(self):
        bad = Matrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            GaussianWeight.from_beta(bad)

    def test_density_variable_count_checked(self):
        with pytest.raises(ValueError, match="one exponent per variable"):
            GaussianWeight.from_beta(Matrix.identity(2), {(2,): 1})

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            GaussianWeight.from_beta(Matrix.from_rows([[1, 1], [1, 1]]))

    def test_diagonal_weight_forms_what_it_does_not_check(self, monkeypatch):
        d = [rational(4, 9), rational(-2, 3), GaussianRational(1, 1)]
        density = {(2, 0, 0): 1, (0, 2, 2): rational(-1, 3)}
        checked = GaussianWeight(Matrix.diag(d), Matrix.diag([1 / x for x in d]), density)
        calls = []
        for name in ("matmul", "transpose"):
            original = getattr(Matrix, name)
            monkeypatch.setattr(Matrix, name, lambda *a, original=original:
                                calls.append(a) or original(*a))
        w = GaussianWeight.diagonal(d, density)
        assert calls == []
        assert (w.p, w.beta, w.beta_inv, w.density) == (
            checked.p, checked.beta, checked.beta_inv, checked.density)
        poly = SeriesPoly(3, 1, 4, {mono: Matrix.from_rows([[x]]) for mono, x in (
            ((2, 0, 0), 1), ((1, 1, 0), 2), ((0, 2, 2), rational(1, 5)))})
        assert average_poly(poly, w) == average_poly(poly, checked)
        with pytest.raises(ValueError, match="one exponent per variable"):
            GaussianWeight.diagonal(d, {(2,): 1})


def _form(beta, u, v):
    return sum((u[i] * beta[i, j] * v[j] for i in range(beta.rows) for j in range(beta.rows)),
               GaussianRational(0))


def congruence(beta):
    """Columns v_a with <v_a, beta v_b> = 0 for a != b, by symmetric
    elimination: a v_a with zero norm first takes v_a +- v_b for a later b."""
    p = beta.rows
    cols = [[GaussianRational(int(i == j)) for i in range(p)] for j in range(p)]
    for a in range(p):
        if _form(beta, cols[a], cols[a]).is_zero():
            cols[a] = next(u for b in range(a + 1, p) for c in (1, -1)
                           if not _form(beta, u := [x + c * y for x, y in zip(cols[a], cols[b])],
                                        u).is_zero())
        norm = _form(beta, cols[a], cols[a])
        for b in range(a + 1, p):
            c = _form(beta, cols[b], cols[a]) / norm
            cols[b] = [x - c * y for x, y in zip(cols[b], cols[a])]
    return cols


def substituted(terms, cols, scale):
    """{mu: value} in y, rewritten in z with y_a = sum_b cols[b][a] z_b;
    scale(value, c) multiplies a value by a scalar."""
    p, out = len(cols), {}
    for mu, value in terms.items():
        expansion = {(0,) * p: GaussianRational(1)}
        for a, e in enumerate(mu):
            for _ in range(e):
                nxt = {}
                for m, c in expansion.items():
                    for b in range(p):
                        if not cols[b][a].is_zero():
                            key = m[:b] + (m[b] + 1,) + m[b + 1:]
                            nxt[key] = nxt.get(key, GaussianRational(0)) + c * cols[b][a]
                expansion = nxt
        for m, c in expansion.items():
            out[m] = out[m] + scale(value, c) if m in out else scale(value, c)
    return out


def diagonalized(poly, w):
    """The same average on a diagonal weight: y = P z with P^T beta P diagonal,
    the polynomial and the density rewritten in z (the Wick moments of P z
    under P^T beta P are those of y under beta)."""
    cols = congruence(w.beta)
    d = [_form(w.beta, v, v) for v in cols]
    density = None if w.density is None else substituted(
        w.density, cols, lambda x, c: GaussianRational.of(x) * c)
    weight = GaussianWeight(Matrix.diag(d), Matrix.diag([1 / x for x in d]), density)
    return SeriesPoly(poly.p, poly.dim, poly.degree,
                      substituted(poly.terms, cols, lambda x, c: x.scale(c))), weight


def termwise_average(poly, w):
    # each averaged value scaled and added into its t-coefficient one at a time
    density = {(0,) * w.p: 1} if w.density is None else w.density

    def moment(mono):
        total = GaussianRational(0)
        for nu, c in density.items():
            idx = mono_to_indices([a + b for a, b in zip(mono, nu)])
            total = total + GaussianRational.of(c) * average_monomial(idx, w)
        return total

    norm = moment((0,) * w.p)
    out = [Matrix.zeros(poly.dim)] * (poly.degree // 2 + 1)
    for mono, v in poly.terms.items():
        out[sum(mono) // 2] = out[sum(mono) // 2] + v.scale(moment(mono) / norm)
    return out


class TestAverageAgainstTermwiseSum:
    @pytest.mark.parametrize("density", [None, {(0, 0): 2, (2, 0): 1, (1, 1): rational(-1, 3)}],
                             ids=["plain", "density"])
    def test_random_matrix_polys(self, density):
        rng = random.Random(f"average {density is None}")
        for _ in range(5):
            w = random_spd_ish_beta(rng, 2)
            if density is not None:
                w = GaussianWeight(w.beta, w.beta_inv, density)
                if termwise_average(SeriesPoly.one(2, 1, 0), w)[0].is_zero():
                    continue
            terms = {}
            for mono in all_monomials(2, range(5)):
                exps = tuple(mono.count(i) for i in range(2))
                if rng.random() < 0.7:
                    terms[exps] = Matrix(3, 3, [
                        GaussianRational(rational(rng.randint(-5, 5), rng.randint(1, 4)),
                                         rng.choice([0, 0, 1, -2])) for _ in range(9)])
            poly = SeriesPoly(2, 3, 4, terms)
            got = average_poly(*diagonalized(poly, w))
            assert got == termwise_average(poly, w)
            assert all(v for m in got for r in m.nonzeros for v in r.values())


def per_monomial_average(poly, w):
    # the general route: every moment of every monomial times every density
    # term through average_monomial, summed value by value
    density = {(0,) * w.p: 1} if w.density is None else w.density

    def moment(mono):
        return sum((GaussianRational.of(c) * average_monomial(
            mono_to_indices([a + b for a, b in zip(mono, nu)]), w)
            for nu, c in density.items()), GaussianRational(0))

    norm = moment((0,) * w.p)
    if norm.is_zero():
        raise ValueError("the density averages to zero")
    terms = [[] for _ in range(poly.degree // 2 + 1)]
    for mono, v in poly.terms.items():
        mom = moment(mono)
        if not mom.is_zero():
            terms[sum(mono) // 2].append((mom / norm, v))
    return [combination(t, poly.dim) for t in terms]


def _random_value(rng, complex_part=True):
    im = rng.choice([0, 0, 1, -2]) if complex_part else 0
    return GaussianRational(rational(rng.randint(-5, 5), rng.randint(1, 4)), im)


class TestMomentTables:
    """average_poly's per-variable tables against the per-monomial route."""

    SIGNS = {
        "positive": lambda rng: rational(rng.randint(1, 5), rng.randint(1, 3)),
        "negative": lambda rng: -rational(rng.randint(1, 5), rng.randint(1, 3)),
        "indefinite": lambda rng: rng.choice([1, -1]) * rational(rng.randint(1, 5), 2),
        "complex": lambda rng: GaussianRational(rational(rng.randint(-3, 3), 2),
                                                rng.choice([-2, -1, 1, 2])),
    }

    @staticmethod
    def _diagonal_weight(rng, p, entry, density):
        d = [GaussianRational.of(entry(rng)) for _ in range(p)]
        return GaussianWeight(Matrix.diag(d), Matrix.diag([1 / x for x in d]), density)

    @pytest.mark.parametrize("kind", list(SIGNS))
    @pytest.mark.parametrize("with_density", [False, True], ids=["plain", "density"])
    def test_random_diagonal_weights(self, kind, with_density):
        rng = random.Random(f"tables {kind} {with_density}")
        checked = 0
        for p in (1, 2, 3):
            for _ in range(4):
                density = None
                if with_density:  # of even degree, as a Weyl density is
                    density = {}
                    for _ in range(rng.randint(1, 4)):
                        nu = [rng.randint(0, 3) for _ in range(p)]
                        nu[rng.randrange(p)] += sum(nu) % 2
                        density[tuple(nu)] = _random_value(rng)
                w = self._diagonal_weight(rng, p, self.SIGNS[kind], density)
                terms = {}
                for mono in all_monomials(p, range(5)):
                    if rng.random() < 0.6:
                        terms[tuple(mono.count(i) for i in range(p))] = Matrix(2, 2, [
                            _random_value(rng) for _ in range(4)])
                poly = SeriesPoly(p, 2, 4, terms)
                try:
                    want = per_monomial_average(poly, w)
                except ValueError:
                    with pytest.raises(ValueError, match="averages to zero"):
                        average_poly(poly, w)
                    continue
                assert average_poly(poly, w) == want
                checked += 1
        assert checked >= 6

    def test_no_variables(self):
        w = GaussianWeight(Matrix.zeros(0, 0), Matrix.zeros(0, 0), {(): rational(-3, 2)})
        value = Matrix.from_rows([[1, GaussianRational(0, 2)], [rational(1, 3), 0]])
        poly = SeriesPoly(0, 2, 4, {(): value})
        assert average_poly(poly, w) == per_monomial_average(poly, w) == [
            value, Matrix.zeros(2), Matrix.zeros(2)]

    def test_tables_read_each_one_variable_moment_once(self, monkeypatch):
        seen = []
        original = wick.average_monomial
        monkeypatch.setattr(wick, "average_monomial",
                            lambda indices, w: seen.append(indices) or original(indices, w))
        w = GaussianWeight(Matrix.diag([2, -1]), Matrix.diag([rational(1, 2), -1]),
                           {(2, 0): 1, (0, 4): 3})
        poly = SeriesPoly(2, 1, 4, {(4, 0): Matrix.identity(1), (1, 2): Matrix.identity(1)})
        average_poly(poly, w)
        # y_0 up to 4 + 2, y_1 up to 2 + 4, each exponent below 4 or odd once;
        # the even ones from 4 on follow from <y_a^2> in closed form
        assert sorted(seen) == sorted((a,) * k for a in (0, 1) for k in range(7) if k < 4 or k % 2)

    def test_closed_form_tables_equal_the_matching_sum(self):
        # <y_a^k> = (k - 1) <y_a^2> <y_a^(k-2)> against the pairing recursion
        w = GaussianWeight(Matrix.diag([rational(2, 3), -5]),
                           Matrix.diag([rational(3, 2), rational(-1, 5)]))
        for a in (0, 1):
            for k in range(0, 13, 2):
                mono = tuple(k if b == a else 0 for b in (0, 1))
                got = average_poly(SeriesPoly(2, 1, 12, {mono: Matrix.identity(1)}), w)
                assert got[k // 2][0, 0] == average_monomial((a,) * k, w)

    def test_non_diagonal_weight_rejected(self):
        w = GaussianWeight.from_beta(Matrix.from_rows([[2, 1], [1, 3]]))
        with pytest.raises(ValueError, match="diagonal weight"):
            average_poly(SeriesPoly.one(2, 1, 2), w)
