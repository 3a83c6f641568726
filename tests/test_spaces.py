import itertools
import random
import time
from dataclasses import replace
from functools import partial

import pytest

from symheat import spaces
from symheat.exact import GaussianRational, Matrix, ZERO, combination, commutator, invert, rational
from symheat.spaces import (
    CheckResult,
    CurvatureData,
    ModelBuildError,
    build_model,
    catalog_space,
    flat,
    hyperbolic,
    first_failure,
    index_pairs,
    product,
    space_from_descriptor,
    sphere,
    unit_bivectors,
    validate_model,
)

EPS = Matrix.from_rows([[0, 1], [-1, 0]])


def scalar_curvature_by_contraction(model):
    # independent oracle: rebuild R_abcd from (E, beta) and contract
    n, p = model.n, model.p
    E, beta = model.data.E, model.beta
    acc = GaussianRational(0)
    for a in range(n):
        for b in range(n):
            for i in range(p):
                for k in range(p):
                    acc = acc + beta[i, k] * E[i][a, b] * E[k][a, b]
    return acc


def riemann_by_contraction(model):
    # independent oracle: every R_abcd = beta_ik E^i_ab E^k_cd, nonzero ones kept
    n, E, beta = model.n, model.data.E, model.beta
    terms = [(i, k, beta[i, k]) for i, k in itertools.product(range(model.p), repeat=2)
             if beta[i, k]]
    entries = {t: sum((x * E[i][t[0], t[1]] * E[k][t[2], t[3]] for i, k, x in terms),
                      GaussianRational(0))
               for t in itertools.product(range(n), repeat=4)}
    return {t: x for t, x in entries.items() if not x.is_zero()}


class TestBuildModel:
    def test_unit_two_sphere(self):
        m = sphere(2, 1)
        assert m.D[0] == -EPS
        assert m.F[0].is_zero()
        assert m.scalar_R == GaussianRational(2)
        assert m.R_H == GaussianRational(0)
        assert m.R_G == GaussianRational(rational(3, 2))

    def test_flat_three_space(self):
        m = flat(3)
        assert m.scalar_R == GaussianRational(0)
        assert m.R_G == GaussianRational(0)
        assert m.N == 3
        assert all(c.is_zero() for c in m.C)

    def test_unit_three_sphere(self):
        m = sphere(3, 1)
        assert m.scalar_R == GaussianRational(6)
        assert m.scalar_R == scalar_curvature_by_contraction(m)
        # holonomy closes on so(3): every bracket lands back in span{D_i}
        assert m.R_H == GaussianRational(rational(3, 2))

    def test_sphere_radius_scaling(self):
        m = sphere(2, 2)
        assert m.scalar_R == GaussianRational(rational(1, 2))

    def test_dependent_generators_rejected(self):
        e = Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        data = CurvatureData(n=3, p=2, E=(e, e), beta=Matrix.identity(2))
        with pytest.raises(ModelBuildError, match="dependent"):
            build_model(data)

    def test_open_bracket_rejected(self):
        # [e12, e13] = -e23 lies outside span{e12, e13}
        e12 = Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        e13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
        data = CurvatureData(n=3, p=2, E=(e12, e13), beta=Matrix.identity(2))
        with pytest.raises(ModelBuildError, match="does not close"):
            build_model(data)

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],  # (1, 0) has no partner entry
        [[0, 1, 0], [-2, 0, 0], [0, 0, 0]],  # unequal partner
        [[0, rational(1, 2), 0], [rational(-1, 3), 0, 0], [0, 0, 0]],  # same numerator
        [[0, GaussianRational(1, 1), 0], [GaussianRational(-1, 1), 0, 0], [0, 0, 0]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 1]],  # nonzero diagonal entry
    ], ids=["missing_partner", "unequal_partner", "unequal_denominator", "unequal_imaginary",
            "diagonal"])
    def test_e_antisymmetry_checked_entry_by_entry(self, rows):
        e = Matrix.from_rows(rows)
        assert e.transpose() != -e  # the matrix route sees the same fault
        data = CurvatureData(n=3, p=2, E=(bivector(3, 0, 2), e), beta=Matrix.identity(2))
        with pytest.raises(ModelBuildError) as exc:
            build_model(data)
        assert str(exc.value) == "E^1 is not antisymmetric"

    def test_e_on_a_flat_direction_rejected(self):
        data = CurvatureData(n=3, p=1, E=(bivector(3, 1, 2),), beta=Matrix.identity(1),
                             flat_dim=2)
        with pytest.raises(ModelBuildError) as exc:
            build_model(data)
        assert str(exc.value) == "E^0 touches flat direction (1,2)"

    def test_single_zero_generator_rejected(self):
        data = CurvatureData(n=2, p=1, E=(Matrix.zeros(2),), beta=Matrix.identity(1))
        with pytest.raises(ModelBuildError, match="dependent"):
            build_model(data)

    def test_gaussian_complex_frame(self):
        # E -> M.E with a complex M, beta -> M^-T beta M^-1: same curvature,
        # complex D_j
        base, model = sphere(3, 1), complex_s3_frame()
        assert not all(x.is_real() for d in model.D for row in d.to_rows() for x in row)
        assert validate_model(model).ok
        assert model.riemann == base.riemann
        assert (model.R_G, model.R_H) == (base.R_G, base.R_H)

    @pytest.mark.parametrize("maker", [
        *(partial(sphere, n, 1) for n in range(2, 7)),
        partial(hyperbolic, 3, 1),
        lambda: product([flat(2), sphere(2, 1)]),
        lambda: product([sphere(2, 1), sphere(2, 1)]),
    ], ids=["S2", "S3", "S4", "S5", "S6", "H3", "flat2xS2", "S2xS2"])
    def test_riemann_holds_its_nonzero_entries(self, maker):
        m = maker()
        assert all(x for x in m.riemann.values())
        assert m.riemann == riemann_by_contraction(m)
        n = m.n
        assert m.ricci == Matrix.from_rows(
            [[sum((m.riemann.get((a, b, a, d), ZERO) for a in range(n)), ZERO) for d in range(n)]
             for b in range(n)])

    def test_ricci_of_unit_sphere(self):
        m = sphere(3, 1)
        assert m.ricci == Matrix.identity(3).scale(2)


def naive_structure_constants(n, p, D):
    # reference: project each bracket onto every D_j over D_j's own support,
    # then apply the full inverse Gram matrix
    if p == 0:
        return ()
    support = [[(a, b, x.conjugate()) for a, row in enumerate(d.nonzeros)
                for b, x in row.items()] for d in D]

    def project(sup, m):
        return sum((c * m[a, b] for a, b, c in sup), ZERO)

    try:
        gram_inv = invert(Matrix.from_rows([[project(sup, d) for d in D] for sup in support]))
    except ValueError as exc:
        raise ModelBuildError("holonomy generators D_i are linearly dependent") from exc
    F = [[[ZERO] * p for _ in range(p)] for _ in range(p)]
    for i, k in index_pairs(p):
        com = commutator(D[i], D[k])
        proj = [project(sup, com) for sup in support]
        fs = [sum((gram_inv[j, l] * proj[l] for l in range(p)), ZERO) for j in range(p)]
        for j, f in enumerate(fs):
            F[i][j][k], F[k][j][i] = f, -f
        if com != combination(zip(fs, D), n):
            raise ModelBuildError(f"bracket [D_{i + 1}, D_{k + 1}] does not close on the D_j")
    return tuple(Matrix.from_rows(F[i]) for i in range(p))


def naive_quarter_contraction(metric, mats):
    # reference: -(1/4) metric^{ab} tr(M_a M_b) over every metric entry
    N = metric.rows
    return GaussianRational(rational(-1, 4)) * sum(
        (metric[a, b] * (mats[a] * mats[b]).trace() for a in range(N) for b in range(N)), ZERO)


def naive_riemann_entries(E, beta):
    # reference: R_abcd summed over every beta and E entry, zeros included
    n, p = E[0].rows, len(E)
    entries = {t: sum((beta[i, k] * E[i][t[0], t[1]] * E[k][t[2], t[3]]
                       for i in range(p) for k in range(p)), ZERO)
               for t in itertools.product(range(n), repeat=4)}
    return {t: x for t, x in entries.items() if x}


def matmul_weight_invariance(m):
    # reference: each beta F_j formed as a product and compared with its transpose
    return first_failure("beta-f-invariance", range(m.p),
                         lambda j: (bf := m.beta * m.F[j]).transpose() == -bf, "index")


def s3_with_beta(diagonal):
    # the so(3) frame of S3 under a diagonal beta: F_j is rescaled, and beta F_j
    # is antisymmetric only when beta is equal on the two indices other than j
    return build_model(CurvatureData(n=3, p=3, E=sphere(3, 1).data.E,
                                     beta=Matrix.diag(diagonal)))


def reframed(base, m):
    # E -> M.E, beta -> M^-T beta M^-1: the same curvature in another frame
    p = base.p
    E = tuple(combination(((m[k, j], base.data.E[j]) for j in range(p)), base.n)
              for k in range(p))
    m_inv = invert(m)
    return build_model(CurvatureData(n=base.n, p=p, E=E, beta=m_inv.transpose() * base.beta * m_inv,
                                     flat_dim=base.flat_dim))


def complex_s3_frame():
    i = GaussianRational(0, 1)
    return reframed(sphere(3, 1), Matrix.from_rows([[1, i, 0], [0, 1, rational(1, 2)], [i, 0, 1]]))


def rotated_s4_frame():
    # a real frame change whose D_j are not orthogonal: the Gram matrix is
    # not diagonal
    rows = [[int(j == k) + int(j == k + 1) - int(j + 2 == k) for k in range(6)]
            for j in range(6)]
    rows[5][0] = rational(1, 3)
    return reframed(sphere(4, 1), Matrix.from_rows(rows))


def bivector(n, a, b):
    return unit_bivectors(n)[a, b]


def isotropic_frame():
    # E^1 = e12 + i e13 has tr(E^T E) = 0: only the Hermitian Gram form,
    # tr(D^+ D), sees that D_1 is nonzero
    e = bivector(3, 0, 1) + bivector(3, 0, 2).scale(GaussianRational(0, 1))
    return build_model(CurvatureData(n=3, p=1, E=(e,), beta=Matrix.identity(1)))


class TestStructureConstantParity:
    MODELS = {
        **{f"S{n}": partial(sphere, n, 1) for n in range(2, 9)},
        **{f"H{n}": partial(hyperbolic, n, rational(2, 3)) for n in range(2, 8)},
        "flat2xS2": lambda: product([flat(2), sphere(2, 1)]),
        "S2xS2xS2": lambda: product([sphere(2, 1)] * 3),
        "complex_S3": complex_s3_frame,
        "rotated_S4": rotated_s4_frame,
        "isotropic": isotropic_frame,
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_against_naive_projection(self, name):
        m = self.MODELS[name]()
        F = spaces._solve_structure_constants(m.p, m.D)
        assert F == m.F == naive_structure_constants(m.n, m.p, m.D)
        beta_inv = invert(m.beta) if m.p else m.beta
        assert m.R_H == naive_quarter_contraction(beta_inv, m.F)
        assert m.R_G == naive_quarter_contraction(m.gamma_inv, m.C)

    @pytest.mark.parametrize("name", ["S2", "S3", "S4", "S5", "H4", "flat2xS2", "S2xS2xS2",
                                      "complex_S3", "rotated_S4", "isotropic"])
    def test_riemann_entries_against_naive_sum(self, name):
        m = self.MODELS[name]()
        E, beta = m.data.E, m.beta
        assert spaces._riemann_entries(E, beta) == naive_riemann_entries(E, beta)

    @pytest.mark.parametrize("name", [*MODELS, "beta_123", "beta_211", "beta_1i1"])
    def test_weight_invariance_against_matmul_route(self, name):
        # beta_1i1 leaves beta F_0 + (beta F_0)^T purely imaginary
        frames = {"beta_123": lambda: s3_with_beta([1, 2, 3]),
                  "beta_211": lambda: s3_with_beta([2, 1, 1]),
                  "beta_1i1": lambda: s3_with_beta([1, GaussianRational(1, 1), 1])}
        m = (frames.get(name) or self.MODELS[name])()
        got = spaces.weight_invariance(m)
        assert got == matmul_weight_invariance(m)
        want = {"beta_123": (False, "index 0"), "beta_211": (False, "index 1"),
                "beta_1i1": (False, "index 0")}
        assert (got.passed, got.detail) == want.get(name, (True, ""))

    def test_rotated_frame_has_a_full_gram_matrix(self):
        m = rotated_s4_frame()
        gram = Matrix.from_rows([[sum((x.conjugate() * y for x, y in zip(
            itertools.chain(*dj.to_rows()), itertools.chain(*dl.to_rows()))), ZERO)
            for dl in m.D] for dj in m.D])
        assert any(gram[j, l] for j in range(m.p) for l in range(m.p) if j != l)
        assert validate_model(m).ok

    @pytest.mark.parametrize("D", [
        # dependent and not closing: the dependence is reported first
        lambda: (bivector(3, 0, 1), bivector(3, 0, 2), bivector(3, 0, 1)),
        lambda: (bivector(3, 0, 1), bivector(3, 0, 1).scale(2)),
        lambda: (Matrix.zeros(3),),
        # [D_1, D_2] closes (it is zero), [D_1, D_3] is the first open bracket
        lambda: (bivector(4, 0, 1), bivector(4, 2, 3), bivector(4, 0, 2)),
        lambda: (bivector(3, 0, 1), bivector(3, 0, 2)),
        # the residual [i e12, e13] = -i e23 is purely imaginary
        lambda: (bivector(3, 0, 1).scale(GaussianRational(0, 1)), bivector(3, 0, 2)),
    ], ids=["dependent_and_open", "dependent_pair", "zero", "open_13", "open_12",
            "open_imaginary"])
    def test_errors_keep_message_and_order(self, D):
        D = D()
        n, p = D[0].rows, len(D)
        with pytest.raises(ModelBuildError) as want:
            naive_structure_constants(n, p, D)
        with pytest.raises(ModelBuildError) as got:
            spaces._solve_structure_constants(p, D)
        assert str(got.value) == str(want.value)


class TestCatalog:
    def test_sphere_scalar_curvature(self):
        assert sphere(2, 1).scalar_R == GaussianRational(2)

    def test_hyperbolic_scalar_curvature(self):
        assert hyperbolic(2, 1).scalar_R == GaussianRational(-2)

    def test_product_flat_sphere(self):
        m = product([flat(1), sphere(2, 1)])
        assert m.n == 3
        assert m.flat_dim == 1
        assert m.scalar_R == GaussianRational(2)

    def test_product_of_spheres(self):
        m = product([sphere(2, 1), sphere(2, 1)])
        assert m.n == 4 and m.p == 2
        assert m.scalar_R == GaussianRational(4)

    def test_flat_factor_hoisted_to_front(self):
        m = product([sphere(2, 1), flat(2)])
        assert m.flat_dim == 2
        assert validate_model(m).ok

    def test_invalid_radius(self):
        with pytest.raises(ModelBuildError):
            sphere(2, -1)

    def test_unknown_name(self):
        with pytest.raises(ModelBuildError):
            catalog_space("torus", {})

    def test_sphere_scalar_curvature_formula(self):
        for n in (2, 3, 4):
            assert sphere(n, 1).scalar_R == GaussianRational(n * (n - 1))


def with_entry(mat, i, j, value):
    rows = mat.to_rows()
    rows[i][j] = GaussianRational.of(value)
    return Matrix.from_rows(rows)


def with_adjoint_entry(m, c, i, j, value):
    # C is derived from (E, D, F) on first read; a corrupted C is set on a copy
    bad = replace(m)
    bad.C = m.C[:c] + (with_entry(m.C[c], i, j, value),) + m.C[c + 1:]
    return bad


def with_riemann_entry(m, idx, value):
    return replace(m, riemann={**m.riemann, idx: GaussianRational.of(value)})


S2, S3, FLAT2_S2 = sphere(2, 1), sphere(3, 1), product([flat(2), sphere(2, 1)])

CORRUPTED = {
    "e_symmetric": lambda: replace(
        S2, data=replace(S2.data, E=(Matrix.from_rows([[0, 1], [1, 0]]),))),
    "beta_asymmetric": lambda: replace(
        S3, data=replace(S3.data, beta=with_entry(S3.beta, 0, 1, rational(1, 2)))),
    "f_entry": lambda: replace(
        S3, F=(with_entry(S3.F[0], 0, 1, S3.F[0][0, 1] + 1),) + S3.F[1:]),
    "riemann_entry": lambda: with_riemann_entry(
        S3, (0, 1, 0, 1), S3.riemann[(0, 1, 0, 1)] + 1),
    "adjoint_entry": lambda: with_adjoint_entry(S3, 4, 0, 2, S3.C[4][0, 2] + 1),
    "d_on_flat": lambda: replace(
        FLAT2_S2, D=(with_entry(with_entry(FLAT2_S2.D[0], 0, 2, 1), 1, 3, 2),)
        + FLAT2_S2.D[1:]),
}


class TestValidateModel:
    @pytest.mark.parametrize("maker", [
        lambda: sphere(2, 1),
        lambda: sphere(3, 1),
        lambda: sphere(4, 1),
        lambda: hyperbolic(2, 1),
        lambda: hyperbolic(3, 1),
        lambda: flat(3),
        lambda: product([flat(2), sphere(2, 1)]),
        lambda: product([sphere(2, 1), sphere(2, 1)]),
        lambda: sphere(5, 1),
        lambda: product([flat(2), sphere(2, 1), hyperbolic(3, 1)]),
    ])
    def test_catalog_models_pass(self, maker):
        report = validate_model(maker())
        assert report.ok, report.failed()

    def test_seven_sphere_validates_in_time(self):
        # 378 adjoint-closure brackets of 28x28 C_a, each summed over nonzeros only
        model = sphere(7, 1)
        start = time.perf_counter()
        report = validate_model(model)
        assert time.perf_counter() - start < 2
        assert report.ok, report.failed()

    def test_sign_flip_still_passes(self):
        # H^2 is S^2 with beta -> -beta; all structural checks are sign-blind
        assert validate_model(hyperbolic(2, 1)).ok

    def test_corrupted_e_detected(self):
        m = sphere(2, 1)
        sym = Matrix.from_rows([[0, 1], [1, 0]])
        corrupted = replace(m, data=replace(m.data, E=(sym,)))
        report = validate_model(corrupted)
        assert not report.ok
        assert "e-antisymmetry" in report.failed()

    def test_corrupted_beta_detected(self):
        m = sphere(3, 1)
        bad_beta = Matrix.from_rows([
            [1, rational(1, 2), 0],
            [0, 1, 0],
            [0, 0, 1],
        ])
        corrupted = replace(m, data=replace(m.data, beta=bad_beta))
        report = validate_model(corrupted)
        assert not report.ok
        assert "beta-symmetric" in report.failed()

    def test_corrupted_f_detected(self):
        m = sphere(3, 1)
        rows = m.F[0].to_rows()
        rows[0][1] = rows[0][1] + GaussianRational(1)
        corrupted = replace(m, F=(Matrix.from_rows(rows),) + m.F[1:])
        report = validate_model(corrupted)
        assert not report.ok
        assert "holonomy-bracket" in report.failed()

    def test_corrupted_riemann_detected(self):
        m = sphere(2, 1)
        corrupted = with_riemann_entry(m, (0, 0, 0, 0), 1)
        report = validate_model(corrupted)
        assert not report.ok
        assert "riemann-from-e-beta" in report.failed()

    @pytest.mark.parametrize("name,want", [
        # C and gamma are derived from the corrupted data, so the combined
        # algebra's checks fail along with the checks on the data itself
        ("e_symmetric", [("e-antisymmetry", "E indices [0]"),
                         ("d-from-e-beta", "D indices [0]"),
                         ("riemann-from-e-beta", "entry (0, 1, 1, 0)"),
                         ("adjoint-closure", "pair (0, 1)"),
                         ("gamma-invariance", "index 1")]),
        ("beta_asymmetric", [("beta-symmetric", ""),
                             ("d-from-e-beta", "D indices [0]"),
                             ("riemann-from-e-beta", "entry (0, 1, 0, 2)"),
                             ("beta-f-invariance", "index 0"),
                             ("gamma-invariance", "index 0")]),
        ("f_entry", [("holonomy-bracket", "pair (0, 1)"),
                     ("e-d-f-compatibility", "pair (0, 0)"),
                     ("beta-f-invariance", "index 0"),
                     ("adjoint-closure", "pair (0, 1)"),
                     ("gamma-invariance", "index 3")]),
        ("riemann_entry", [("riemann-from-e-beta", "entry (0, 1, 0, 1)"),
                           ("riemann-integrability", "indices (0, 1, 0, 2, 1, 2)")]),
        ("adjoint_entry", [("adjoint-closure", "pair (0, 2)"),
                           ("gamma-invariance", "index 4")]),
        ("d_on_flat", [("d-from-e-beta", "D indices [0]"),
                       ("gamma-invariance", "index 2"),
                       ("flat-projector-annihilation", "D_0 direction 1")]),
    ])
    def test_failure_details(self, name, want):
        report = validate_model(CORRUPTED[name]())
        assert [(c.name, c.detail) for c in report.checks if not c.passed] == want


class TestInvariants:
    def test_scalar_curvature_matches_contraction(self):
        for maker in (lambda: sphere(2, 1), lambda: sphere(3, 1),
                      lambda: hyperbolic(3, 1), lambda: product([flat(1), sphere(2, 1)])):
            m = maker()
            assert m.scalar_R == scalar_curvature_by_contraction(m)

    def test_killing_form_antisymmetry(self):
        for m in (sphere(3, 1), hyperbolic(2, 1)):
            N = m.N
            for c in range(N):
                gc = m.gamma * m.C[c]
                assert gc.transpose() == -gc

    def test_basis_covariance(self):
        # E -> S.E, beta -> (S^-1)^T beta S^-1 leaves all curvatures fixed
        rng = random.Random(42)
        base = sphere(3, 1)
        p = base.p
        while True:
            s = Matrix.from_rows([
                [rational(rng.randint(-2, 2)) for _ in range(p)] for _ in range(p)
            ])
            try:
                s_inv = invert(s)
                break
            except ValueError:
                continue
        new_E = []
        for i in range(p):
            acc = Matrix.zeros(base.n)
            for j in range(p):
                if not s[i, j].is_zero():
                    acc = acc + base.data.E[j].scale(s[i, j])
            new_E.append(acc)
        new_beta = s_inv.transpose() * base.beta * s_inv
        m2 = build_model(CurvatureData(n=base.n, p=p, E=tuple(new_E), beta=new_beta))
        assert m2.scalar_R == base.scalar_R
        assert m2.R_G == base.R_G
        assert m2.R_H == base.R_H
        assert validate_model(m2).ok

    def test_d_annihilates_flat_directions(self):
        m = product([flat(2), sphere(2, 1)])
        q = Matrix.diag([1, 1, 0, 0])
        for d in m.D:
            assert (d * q).is_zero()
            assert (q * d).is_zero()


class TestDescriptors:
    def test_catalog_descriptor(self):
        m = space_from_descriptor({"catalog": "sphere", "params": {"n": 2, "radius": "1"}})
        assert m.scalar_R == GaussianRational(2)

    def test_explicit_descriptor_round_trip(self):
        obj = {
            "explicit": {
                "n": 2,
                "p": 1,
                "flat_dim": 0,
                "E": [[["0/1", "1/1"], ["-1/1", "0/1"]]],
                "beta": [["1/1"]],
            }
        }
        m = space_from_descriptor(obj)
        assert m.scalar_R == GaussianRational(2)

    def test_product_descriptor(self):
        obj = {
            "catalog": "product",
            "params": {"factors": [
                {"catalog": "flat", "params": {"n": 1}},
                {"catalog": "sphere", "params": {"n": 2, "radius": "1"}},
            ]},
        }
        m = space_from_descriptor(obj)
        assert m.n == 3 and m.flat_dim == 1

    def test_bad_descriptor(self):
        with pytest.raises(ModelBuildError):
            space_from_descriptor({"nope": 1})


FIELDS = ("data", "D", "F", "riemann", "ricci", "scalar_R", "R_H", "C", "gamma", "gamma_inv",
          "R_G")


def explicit_s3():
    # S3 of radius 5/2 in a sheared frame, read from an explicit descriptor:
    # beta is not diagonal
    m = reframed(sphere(3, rational(5, 2)), Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    return space_from_descriptor({"explicit": {
        "n": 3, "p": 3, "E": [e.to_json() for e in m.data.E], "beta": m.beta.to_json()}})


RADII = (1, rational(2, 3), rational(5, 2))


def frame_data(n, E, beta, flat_dim=0):
    return CurvatureData(n=n, p=len(E), E=tuple(E), beta=beta, flat_dim=flat_dim)


class TestUnitStructure:
    """build_model derives each frame once at beta0 = beta / c and scales by c."""

    MODELS = {
        **{f"S{n}_r{r}".replace("/", "_"): partial(sphere, n, r)
           for n in range(2, 11) for r in RADII},
        **{f"H{n}_r{r}".replace("/", "_"): partial(hyperbolic, n, r)
           for n in range(2, 7) for r in RADII},
        "flat2xS2": lambda: product([flat(2), sphere(2, rational(2, 3))]),
        "S2xH3": lambda: product([sphere(2, rational(5, 2)), hyperbolic(3, rational(2, 3))]),
        "explicit_S3": explicit_s3,
        "rotated_S4": rotated_s4_frame,
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_scaled_model_equals_a_fresh_derivation(self, name):
        m = self.MODELS[name]()
        fresh = spaces._derive(m.data)
        assert m.unit is not None
        for f in FIELDS:
            assert getattr(m, f) == getattr(fresh, f), f
        # the Riemann entries come in the order of a fresh derivation too
        assert list(m.riemann) == list(fresh.riemann)
        assert validate_model(m).to_json() == validate_model(fresh).to_json()

    ERRORS = {
        "singular_beta": lambda s: frame_data(
            3, sphere(3, 1).data.E, Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).scale(s)),
        "dependent_d": lambda s: frame_data(
            3, (bivector(3, 0, 1), bivector(3, 0, 1)), Matrix.identity(2).scale(s)),
        "open_bracket": lambda s: frame_data(
            3, (bivector(3, 0, 1), bivector(3, 0, 2)), Matrix.diag([1, 2]).scale(s)),
        # the S3 frame with a flat direction, after the curved S3 filled the memo
        "flat_direction": lambda s: frame_data(
            3, sphere(3, 1).data.E, Matrix.identity(3).scale(s), flat_dim=1),
    }

    @pytest.mark.parametrize("name", list(ERRORS))
    def test_errors_raise_alike_on_every_call(self, name):
        sphere(3, 1)
        for scale in (1, rational(-5, 2)):
            data = self.ERRORS[name](scale)
            with pytest.raises(ModelBuildError) as want:
                spaces._derive(data)
            for _ in range(2):
                with pytest.raises(ModelBuildError) as got:
                    build_model(data)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
        assert build_model(sphere(3, 1).data).unit.model.flat_dim == 0

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_sphere_and_hyperbolic_share_one_entry(self, n):
        models = [space(n, r) for space in (sphere, hyperbolic) for r in RADII]
        assert all(m.unit is models[0].unit for m in models)
        assert models[0].unit.model.beta == Matrix.identity(models[0].p)

    def test_memo_is_bounded(self):
        # S3's frame under beta = diag(1, 1, c): one frame per c
        memo, E = spaces._unit_structure, sphere(3, 1).data.E
        for c in range(2, 2 * memo.cache_info().maxsize + 3):
            m = build_model(frame_data(3, E, Matrix.diag([1, 1, c])))
            assert m.R_H == spaces._derive(m.data).R_H
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_model_not_made_by_build_model_has_its_own_frame(self):
        m = hyperbolic(4, rational(2, 3))
        fields = {f: getattr(m, f) for f in ("data", "D", "F", "riemann", "ricci", "scalar_R",
                                             "R_H")}
        for other in (replace(m), replace(m, F=m.F), spaces.SymmetricSpaceModel(**fields)):
            assert other == m and other.unit is not m.unit
            # derived from the copy's own F, kept on the copy, and the same
            # scale-free torus basis and Lie generators as the shared frame's
            assert other.unit.model is other and other.unit is other.unit
            assert other.unit.weight == m.unit.weight
            assert other.unit.torus[0] == m.unit.torus[0]
            assert other.unit.lie_generators == m.unit.lie_generators
        with pytest.raises(TypeError):
            replace(m, unit=m.unit)

    def test_weight_check_is_kept_per_frame(self):
        m = s3_with_beta([2, 2, 4])
        assert m.unit.weight == spaces.weight_invariance(m) == CheckResult(
            "beta-f-invariance", False, "index 0")
        assert s3_with_beta([-1, -1, -2]).unit is m.unit
