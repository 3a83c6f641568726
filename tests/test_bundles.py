import dataclasses
import gc

import pytest

from symheat import bundles
from symheat.bundles import (
    BundleError,
    build_rep,
    catalog_rep,
    gamma_matrices,
    scalar_rep,
    spinor_rep,
    tensor_product_rep,
    twist_matrix,
    validate_rep,
    vector_rep,
)
from symheat import spaces
from symheat.exact import (
    GaussianRational, Matrix, ZERO, combination, commutator, invert, rational,
)
from symheat.spaces import CheckResult, CurvatureData, ValidationReport, build_model, flat, \
    hyperbolic, index_pairs, product, sphere, unit_bivectors

EPS = Matrix.from_rows([[0, 1], [-1, 0]])


def casimir_by_contraction(model, rep):
    # independent oracle: (1/4) R^abcd G_ab G_cd with explicit loops
    n = model.n
    acc = Matrix.zeros(rep.dimV)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    x = model.riemann.get((a, b, c, d), ZERO)
                    if not x.is_zero():
                        acc = acc + (rep.G[a][b] * rep.G[c][d]).scale(x)
    return acc.scale(rational(1, 4))


class TestGammaMatrices:
    @pytest.mark.parametrize("n,dim", [(1, 1), (2, 2), (3, 2), (4, 4), (5, 4), (6, 8)])
    def test_dimensions(self, n, dim):
        gs = gamma_matrices(n)
        assert len(gs) == n
        assert all(g.rows == dim for g in gs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clifford_relations(self, n):
        gs = gamma_matrices(n)
        dim = gs[0].rows
        for a in range(n):
            for b in range(n):
                anti = gs[a] * gs[b] + gs[b] * gs[a]
                want = Matrix.identity(dim).scale(2) if a == b else Matrix.zeros(dim)
                assert anti == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_hermitian(self, n):
        for g in gamma_matrices(n):
            assert g.conj_transpose() == g

    def test_unsupported_dimension(self):
        with pytest.raises(BundleError):
            gamma_matrices(7)


class TestBuildRep:
    def test_scalar_on_s2(self):
        rep = scalar_rep(sphere(2, 1))
        assert rep.dimV == 1
        assert rep.R[0].is_zero()
        assert rep.casimir.is_zero()
        assert all(rep.Omega[a][b].is_zero() for a in range(2) for b in range(2))

    def test_spinor_on_s2(self):
        m = sphere(2, 1)
        rep = spinor_rep(m)
        assert rep.dimV == 2
        assert rep.R[0] == -rep.G[0][1]
        assert rep.casimir == Matrix.identity(2).scale(rational(-1, 4))

    def test_vector_on_s2(self):
        rep = vector_rep(sphere(2, 1))
        assert rep.R[0] == -EPS
        assert rep.casimir == -Matrix.identity(2)

    def test_vector_on_s3(self):
        rep = vector_rep(sphere(3, 1))
        assert rep.dimV == 3
        assert rep.casimir == Matrix.identity(3).scale(-2)

    def test_casimir_matches_contraction_oracle(self):
        for maker, repf in [
            (lambda: sphere(3, 1), vector_rep),
            (lambda: sphere(2, 1), spinor_rep),
            (lambda: sphere(4, 1), spinor_rep),
            (lambda: hyperbolic(3, 1), vector_rep),
            (lambda: sphere(4, 1), vector_rep),
            # radii 1 and 2: beta is not a multiple of the identity
            (lambda: product([sphere(2, 1), sphere(2, 2)]), spinor_rep),
            (lambda: product([flat(2), sphere(2, 1)]),
             lambda m: catalog_rep(m, "tensor_product", factors=["vector", "spinor"],
                                   twist=[rational(1, 3)])),
        ]:
            m = maker()
            rep = repf(m)
            assert rep.casimir == casimir_by_contraction(m, rep)

    def test_casimir_equals_beta_contraction_of_r(self):
        # R^2 = beta^{ij} R_i R_j must agree with the curvature contraction
        for m, rep in [
            (sphere(3, 1), vector_rep(sphere(3, 1))),
            (sphere(2, 1), spinor_rep(sphere(2, 1))),
        ]:
            beta_inv = invert(m.beta)
            acc = Matrix.zeros(rep.dimV)
            for i in range(m.p):
                for k in range(m.p):
                    x = beta_inv[i, k]
                    if not x.is_zero():
                        acc = acc + (rep.R[i] * rep.R[k]).scale(x)
            assert acc == rep.casimir

    def test_broken_antisymmetry_rejected(self):
        m = sphere(2, 1)
        table = [[Matrix.zeros(2), Matrix.identity(2)],
                 [Matrix.identity(2), Matrix.zeros(2)]]
        with pytest.raises(BundleError):
            build_rep(m, table, dimV=2)

    def test_so_n_violation_rejected(self):
        m = sphere(3, 1)
        table = {
            (0, 1): Matrix.from_rows([[0, 1], [-1, 0]]),
            (0, 2): Matrix.from_rows([[0, GaussianRational(0, 1)], [GaussianRational(0, 1), 0]]),
            (1, 2): Matrix.zeros(2),
        }
        with pytest.raises(BundleError, match="so-n"):
            build_rep(m, table, dimV=2)


class TestTwist:
    def test_u1_twist_block(self):
        m = product([flat(2), sphere(2, 1)])
        rep = catalog_rep(m, "u1_twist", twist=[1])
        want = Matrix.zeros(4).to_rows()
        want[0][1] = GaussianRational(0, 1)
        want[1][0] = GaussianRational(0, -1)
        assert rep.B == Matrix.from_rows(want)
        assert rep.dimV == 1

    def test_twist_needs_flat_room(self):
        with pytest.raises(BundleError, match="flat"):
            catalog_rep(sphere(2, 1), "u1_twist", twist=[1])

    def test_two_blocks(self):
        m = flat(4)
        B = twist_matrix(m, [rational(1, 2), rational(1, 3)])
        assert B[0, 1] == GaussianRational(0, rational(1, 2))
        assert B[2, 3] == GaussianRational(0, rational(1, 3))

    def test_odd_flat_block_rejected(self):
        m = flat(3)
        with pytest.raises(BundleError):
            twist_matrix(m, [1, 1])

    def test_twist_with_spinor(self):
        m = product([flat(2), sphere(2, 1)])
        rep = spinor_rep(m, twist=[rational(1, 2)])
        assert rep.B[0, 1] == GaussianRational(0, rational(1, 2))
        assert validate_rep(m, rep).ok


class TestTensorProduct:
    def test_dimension_and_generators(self):
        m = sphere(2, 1)
        rep = tensor_product_rep(spinor_rep(m), vector_rep(m))
        assert rep.dimV == 4

    def test_casimir_sum_rule(self):
        # R^2_(1x2) = R^2_1 x I + I x R^2_2 + 2 beta^{ik} R1_i x R2_k
        m = sphere(2, 1)
        r1, r2 = spinor_rep(m), vector_rep(m)
        rep = tensor_product_rep(r1, r2)
        beta_inv = invert(m.beta)
        e1 = Matrix.identity(r1.dimV)
        e2 = Matrix.identity(r2.dimV)
        want = r1.casimir.kron(e2) + e1.kron(r2.casimir)
        for i in range(m.p):
            for k in range(m.p):
                x = beta_inv[i, k]
                if not x.is_zero():
                    want = want + r1.R[i].kron(r2.R[k]).scale(2 * x)
        assert rep.casimir == want

    def test_catalog_tensor_product(self):
        m = sphere(2, 1)
        rep = catalog_rep(m, "tensor_product", factors=["spinor", "spinor"])
        assert rep.dimV == 4

    def test_twisted_catalog_tensor_product_built_once(self, monkeypatch):
        m = product([flat(2), sphere(2, 1)])
        twist = [rational(1, 3)]
        plain = catalog_rep(m, "tensor_product", factors=["scalar", "spinor"])
        # reference: the untwisted product's generators rebuilt with the twist
        want = build_rep(m, plain.G, twist_matrix(m, twist), dimV=plain.dimV)
        calls = []
        monkeypatch.setattr(bundles, "build_rep",
                            lambda *a, **k: calls.append(a) or build_rep(*a, **k))
        rep = catalog_rep(m, "tensor_product", factors=["scalar", "spinor"], twist=twist)
        assert len(calls) == 1  # the product fiber alone
        assert rep == want

    @pytest.mark.parametrize("maker,factors,twist", [
        (lambda: sphere(3, 1), ["spinor", "vector"], None),
        (lambda: sphere(3, 1), ["spinor", "spinor", "vector"], None),
        (lambda: product([flat(2), sphere(2, 1)]), ["vector", "spinor"], [rational(1, 3)]),
    ])
    def test_catalog_product_matches_product_of_factor_reps(self, maker, factors, twist):
        m = maker()
        reps = [catalog_rep(m, f) for f in factors]
        want = reps[0]
        for r in reps[1:-1]:
            want = tensor_product_rep(want, r)
        want = tensor_product_rep(want, reps[-1], twist_matrix(m, twist) if twist else None)
        rep = catalog_rep(m, "tensor_product", factors=factors, twist=twist)
        assert (rep.dimV, rep.G, rep.B, rep.R, rep.casimir, rep.Omega) == \
            (want.dimV, want.G, want.B, want.R, want.casimir, want.Omega)

    @pytest.mark.parametrize("name,factors,twist", [
        ("scalar", None, None),
        ("vector", None, None),
        ("spinor", None, [1]),
        ("u1_twist", None, [1]),
        ("tensor_product", ["vector", "spinor", "scalar"], [1]),
    ])
    def test_catalog_bundle_built_and_checked_once(self, monkeypatch, name, factors, twist):
        m = product([flat(2), sphere(2, 1)])
        calls = []
        for fn in ("build_rep", "validate_rep"):
            original = getattr(bundles, fn)
            monkeypatch.setattr(bundles, fn, lambda *a, fn=fn, original=original, **k:
                                calls.append(fn) or original(*a, **k))
        catalog_rep(m, name, factors=factors, twist=twist)
        assert calls == ["build_rep", "validate_rep"]

    def test_twisted_catalog_tensor_product_needs_flat_room(self):
        m = product([flat(2), sphere(2, 1)])
        with pytest.raises(BundleError, match="twist needs 4 flat directions"):
            catalog_rep(m, "tensor_product", factors=["scalar", "spinor"], twist=[1, 1])


class TestRepInvariants:
    @pytest.mark.parametrize("maker,repname", [
        (lambda: sphere(2, 1), "scalar"),
        (lambda: sphere(2, 1), "spinor"),
        (lambda: sphere(2, 1), "vector"),
        (lambda: sphere(3, 1), "vector"),
        (lambda: sphere(3, 1), "spinor"),
        (lambda: sphere(4, 1), "spinor"),
        (lambda: hyperbolic(3, 1), "vector"),
        (lambda: product([flat(2), sphere(2, 1)]), "spinor"),
    ])
    def test_validation_passes(self, maker, repname):
        m = maker()
        rep = catalog_rep(m, repname)
        report = validate_rep(m, rep)
        assert report.ok, report.failed()

    def test_casimir_commutes_with_holonomy(self):
        m = sphere(4, 1)
        rep = vector_rep(m)
        for r in rep.R:
            assert commutator(rep.casimir, r).is_zero()

    def test_scalar_rep_everything_vanishes(self):
        m = sphere(4, 1)
        rep = scalar_rep(m)
        assert all(r.is_zero() for r in rep.R)
        assert rep.casimir.is_zero()


def first_failure(n, holds):
    # reference: the lexicographically first failing tuple over all n^4
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if not holds(a, b, c, d):
                        return f"indices {(a, b, c, d)}"
    return ""


def failed_detail(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    return check.detail


class TestFirstFailure:
    def test_so_n_violation_named(self):
        m = sphere(4, 1)
        rep = vector_rep(m)
        G = [list(row) for row in rep.G]
        G[2][3], G[3][2] = G[2][3].scale(2), G[3][2].scale(2)
        bad = dataclasses.replace(rep, G=tuple(tuple(row) for row in G))

        def holds(a, b, c, d):
            want = (G[a][d].scale(int(b == c)) - G[b][d].scale(int(a == c))
                    - G[a][c].scale(int(b == d)) + G[b][c].scale(int(a == d)))
            return commutator(G[a][b], G[c][d]) == want

        want = first_failure(4, holds)
        assert want == "indices (0, 2, 0, 3)"
        assert failed_detail(validate_rep(m, bad), "fiber-so-n-relations") == want

    def test_integrability_violation_named(self):
        m = sphere(4, 1)
        rep = vector_rep(m)
        R = (rep.R[0].scale(2),) + rep.R[1:]
        bad = dataclasses.replace(rep, R=R)
        E, riem = m.data.E, m.riemann
        curly = [[sum((R[i].scale(-E[i][a, b]) for i in range(m.p)), Matrix.zeros(4))
                  for b in range(4)] for a in range(4)]

        def holds(a, b, c, d):
            want = sum((curly[f][b].scale(riem.get((f, a, c, d), ZERO))
                        + curly[a][f].scale(riem.get((f, b, c, d), ZERO)) for f in range(4)),
                       Matrix.zeros(4))
            return commutator(curly[c][d], curly[a][b]) == want

        want = first_failure(4, holds)
        assert want == "indices (0, 1, 0, 2)"
        assert failed_detail(validate_rep(m, bad), "fiber-curvature-integrability") == want


def one_commutator_per_quadruple(model, rep):
    # reference validate_rep: a fresh commutator for every index quadruple and
    # every holonomy pair, each check in the order validate_rep reports it
    n, p, dimV = model.n, model.p, rep.dimV
    G, B, R = rep.G, rep.B, rep.R
    checks = []
    # every failing item in loop order; the check reports the first
    fails = []
    for a in range(n):
        if not G[a][a].is_zero():
            fails.append(f"diagonal ({a},{a})")
        for b in range(n):
            if G[a][b] != -G[b][a]:
                fails.append(f"pair ({a},{b})")
    checks.append(CheckResult("fiber-g-antisymmetry", not fails, fails[0] if fails else ""))

    pairs = index_pairs(n)

    def so_n_holds(abcd):
        a, b, c, d = abcd
        want = combination(((int(b == c), G[a][d]), (-int(a == c), G[b][d]),
                            (-int(b == d), G[a][c]), (int(a == d), G[b][c])), dimV)
        return commutator(G[a][b], G[c][d]) == want

    checks.append(spaces.first_failure(
        "fiber-so-n-relations",
        ((a, b, c, d) for x, (a, b) in enumerate(pairs) for c, d in pairs[x:]), so_n_holds))

    fails = ["B not antisymmetric"] if B.transpose() != -B else []
    for a in range(n):
        for b in range(n):
            x = B[a, b]
            if not x.is_zero():
                if x.re != 0:
                    fails.append(f"B({a},{b}) not purely imaginary")
                if a >= model.flat_dim or b >= model.flat_dim:
                    fails.append(f"B({a},{b}) on a curved direction")
    checks.append(CheckResult("twist-flat-support", not fails, fails[0] if fails else ""))

    def bracket_holds(ik):
        i, k = ik
        want = combination(((model.F[i][j, k], R[j]) for j in range(p)), dimV)
        return commutator(R[i], R[k]) == want

    checks += [
        spaces.first_failure("fiber-holonomy-bracket", index_pairs(p), bracket_holds, "pair"),
        spaces.first_failure("casimir-centrality", range(p),
                             lambda i: commutator(rep.casimir, R[i]).is_zero(), "index"),
    ]

    E, riem = model.data.E, model.riemann
    curly = [[combination(((-E[i][a, b], R[i]) for i in range(p)), dimV)
              for b in range(n)] for a in range(n)]

    def integrable(abcd):
        a, b, c, d = abcd
        want = combination(
            [(riem.get((f, a, c, d), ZERO), curly[f][b]) for f in range(n)]
            + [(riem.get((f, b, c, d), ZERO), curly[a][f]) for f in range(n)], dimV)
        return commutator(curly[c][d], curly[a][b]) == want

    checks.append(spaces.first_failure(
        "fiber-curvature-integrability",
        ((a, b, c, d) for a, b in pairs for c, d in pairs), integrable))
    return ValidationReport(tuple(checks))


def flat2_x(curved):
    return product([flat(2), curved])


# the nine benchmark job types' reps: (space, bundle, twist b at radius 1)
BENCHMARK_REPS = {
    "s4_scalar_k4": (lambda s, r: s(4, r), "scalar", None),
    "s5_scalar_k2": (lambda s, r: s(5, r), "scalar", None),
    "s4_scalar_k3": (lambda s, r: s(4, r), "scalar", None),
    "s2_scalar_k6": (lambda s, r: s(2, r), "scalar", None),
    "s2_spinor_k6": (lambda s, r: s(2, r), "spinor", None),
    "s3_spinor_k6": (lambda s, r: s(3, r), "spinor", None),
    "flat2xs2_vecspin_twist_k4": (lambda s, r: flat2_x(s(2, r)), "vector spinor", rational(1, 3)),
    "s4_spinor_k3": (lambda s, r: s(4, r), "spinor", None),
    "s3_vecspin_k3": (lambda s, r: s(3, r), "vector spinor", None),
}


def benchmark_rep(name, space, radius):
    maker, bundle, b = BENCHMARK_REPS[name]
    m = maker(space, radius)
    factors = bundle.split()
    twist = None if b is None else [b / radius ** 2]
    if len(factors) == 1:
        return m, catalog_rep(m, factors[0], twist=twist)
    return m, catalog_rep(m, "tensor_product", factors=factors, twist=twist)


def report_fields(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


def unchecked(monkeypatch, make):
    # the rep `make` assembles, with validate_rep stubbed so build_rep keeps it
    with monkeypatch.context() as patch:
        patch.setattr(bundles, "validate_rep", lambda model, rep: ValidationReport(()))
        return make()


class TestValidateRepParity:
    @pytest.mark.parametrize("space", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
    @pytest.mark.parametrize("name", list(BENCHMARK_REPS))
    def test_benchmark_reps(self, name, space):
        m, rep = benchmark_rep(name, space, rational(2, 3))
        got = validate_rep(m, rep)
        assert got.ok
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, rep))

    def test_full_table_with_nonzero_diagonal(self):
        m = sphere(3, 1)
        rep = vector_rep(m)
        table = [list(row) for row in rep.G]
        table[0][0] = Matrix.identity(3)
        bad = dataclasses.replace(rep, G=tuple(tuple(row) for row in table))
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "fiber-g-antisymmetry") == "diagonal (0,0)"
        # want = -G_00 - G_11 is nonzero on the diagonal quadruple, where [X, X] = 0
        assert failed_detail(got, "fiber-so-n-relations") == "indices (0, 1, 0, 1)"

    def test_full_table_with_one_sided_generator(self):
        # G_01 = 0 but G_10 != 0: the first failing pair is (0,1), not (1,0)
        m = sphere(3, 1)
        rep = vector_rep(m)
        table = [list(row) for row in rep.G]
        table[0][1] = Matrix.zeros(3)
        bad = dataclasses.replace(rep, G=tuple(tuple(row) for row in table))
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "fiber-g-antisymmetry") == "pair (0,1)"

    def test_zero_holonomy_generator_and_off_center_casimir(self):
        # R_1 = 0 while the Casimir no longer commutes with R_2, R_3, ...
        m = sphere(4, 1)
        rep = spinor_rep(m)
        shift = Matrix.diag([1, 0, 0, 0])
        bad = dataclasses.replace(rep, R=(Matrix.zeros(4),) + rep.R[1:],
                                  casimir=rep.casimir + shift)
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "casimir-centrality") != "index 0"

    def test_twist_reports_first_failure(self):
        # a real B on S2 fails both item tests at (0,1) and again at (1,0)
        m = sphere(2, 1)
        bad = dataclasses.replace(catalog_rep(m, "scalar"), B=Matrix.from_rows([[0, 1], [-1, 0]]))
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "twist-flat-support") == "B(0,1) not purely imaginary"

    def test_twist_reports_first_entry_in_row_major_order(self):
        # on flat2 x S2, B(0,3) = i sits on a curved direction and B(0,1) = 1
        # is real; row 0 holds column 3 before column 1, and B(0,1) is reported
        m = flat2_x(sphere(2, 1))
        i = GaussianRational(0, 1)
        B = Matrix.from_nonzeros(4, [{3: i, 1: 1}, {0: -1}, {}, {0: -i}])
        bad = dataclasses.replace(catalog_rep(m, "scalar"), B=B)
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "twist-flat-support") == "B(0,1) not purely imaginary"
        # times i, B(0,1) holds and B(0,3) = -1 fails first as real
        bad = dataclasses.replace(bad, B=B.scale(i))
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert failed_detail(got, "twist-flat-support") == "B(0,3) not purely imaginary"

    @pytest.mark.parametrize("maker,name", [
        (lambda: sphere(4, 1), "vector"),
        (lambda: sphere(4, 1), "spinor"),
        (lambda: hyperbolic(3, rational(1, 2)), "spinor"),
    ])
    def test_one_corrupted_holonomy_generator(self, maker, name):
        m = maker()
        rep = catalog_rep(m, name)
        R = list(rep.R)
        R[1] = R[1] + R[0].scale(rational(1, 2))
        bad = dataclasses.replace(rep, R=tuple(R))
        got = validate_rep(m, bad)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, bad))
        assert {"fiber-holonomy-bracket", "fiber-curvature-integrability"} <= set(got.failed())

    @pytest.mark.parametrize("name,factors", [
        ("spinor", None), ("u1_twist", None), ("tensor_product", ["vector", "spinor"]),
    ])
    def test_twisted_flat2_x_s2(self, name, factors):
        m = flat2_x(sphere(2, rational(3, 2)))
        rep = catalog_rep(m, name, factors=factors, twist=[rational(2, 5)])
        got = validate_rep(m, rep)
        assert got.ok
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, rep))

    @pytest.mark.parametrize("beta", [(1, 1, 2), (1, 1, -1)], ids=["112", "11m1"])
    @pytest.mark.parametrize("name", ["scalar", "vector", "spinor"])
    def test_s3_frame_with_unequal_beta(self, monkeypatch, name, beta):
        # the brackets of the D_j still close, but R_abcd is not parallel, so
        # the model's scalars c^j_abcd are nonzero and integrability fails on
        # every fiber with nonzero R_j
        E = tuple(unit_bivectors(3).values())
        m = build_model(CurvatureData(n=3, p=3, E=E, beta=Matrix.diag(beta)))
        rep = unchecked(monkeypatch, lambda: catalog_rep(m, name))
        got = validate_rep(m, rep)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, rep))
        if name == "scalar":
            assert got.ok
        else:
            assert failed_detail(got, "fiber-curvature-integrability") == "indices (0, 1, 0, 2)"

    def test_one_nonzero_generator_in_a_line_fiber(self, monkeypatch):
        # G_01 = 1 alone on S3: [G_02, G_12] = 0 while the relation asks for
        # -G_01, an item with zero commutator operands that must still fail
        m = sphere(3, 1)
        rep = unchecked(monkeypatch,
                        lambda: build_rep(m, {(0, 1): Matrix.from_rows([[1]])}, dimV=1))
        got = validate_rep(m, rep)
        assert report_fields(got) == report_fields(one_commutator_per_quadruple(m, rep))
        assert failed_detail(got, "fiber-so-n-relations") == "indices (0, 2, 1, 2)"

    @pytest.mark.parametrize("name,calls", [
        ("s4_spinor_k3", 6), ("flat2xs2_vecspin_twist_k4", 1),
        ("s5_scalar_k2", 0), ("s4_scalar_k4", 0),
    ])
    def test_commutator_count(self, monkeypatch, name, calls):
        # Casimir centrality: one per nonzero R_i when the Casimir is nonzero
        # (six on S4, one on flat2 x S2).  The holonomy residuals and the
        # so(n) items are each one combination that takes their products as
        # factor terms and form none; integrability reads the residuals.  A
        # scalar fiber forms none.
        m, rep = benchmark_rep(name, sphere, 1)
        seen = []
        original = bundles.commutator
        monkeypatch.setattr(bundles, "commutator", lambda a, b: seen.append(1) or original(a, b))
        assert validate_rep(m, rep).ok
        assert len(seen) == calls


def _with_generator(rep, a, b, m):
    table = [list(row) for row in rep.G]
    table[a][b] = m
    return dataclasses.replace(rep, G=tuple(tuple(row) for row in table))


# corrupted generator tables: (model, catalog bundle, factors, corruption of the rep)
CORRUPTED_TABLES = {
    "one_entry_of_g12": (lambda: sphere(4, 1), "spinor", None, lambda rep: _with_generator(
        rep, 1, 2, rep.G[1][2] + Matrix.from_nonzeros(4, [{3: 1}, {}, {}, {}]))),
    "g02_doubled": (lambda: sphere(3, 1), "vector", None,
                    lambda rep: _with_generator(rep, 0, 2, rep.G[0][2].scale(2))),
    "symmetric_pair_30": (lambda: sphere(4, 1), "vector", None,
                          lambda rep: _with_generator(rep, 3, 0, rep.G[0][3])),
    "g12_halved_on_vecspin": (
        lambda: sphere(3, 1), "tensor_product", ["vector", "spinor"],
        lambda rep: _with_generator(rep, 1, 2, rep.G[1][2].scale(rational(1, 2)))),
    "complex_phase": (lambda: hyperbolic(4, 1), "spinor", None, lambda rep: _with_generator(
        rep, 2, 3, rep.G[2][3].scale(GaussianRational(0, 1)))),
    "zero_upper_cell": (lambda: sphere(5, 1), "vector", None,
                        lambda rep: _with_generator(rep, 1, 4, Matrix.zeros(5))),
    "swapped_generators": (lambda: sphere(4, 1), "spinor", None,
                           lambda rep: _with_generator(_with_generator(rep, 0, 1, rep.G[2][3]),
                                                       1, 0, -rep.G[2][3])),
}


class TestEntryWiseChecks:
    """G antisymmetry and the so(n) relations, summed entry by entry, name the
    same first failure as the reference that forms every commutator."""

    @pytest.mark.parametrize("name", list(CORRUPTED_TABLES))
    def test_first_failure_parity(self, name):
        space, bundle, factors, corrupt = CORRUPTED_TABLES[name]
        m = space()
        bad = corrupt(catalog_rep(m, bundle, factors=factors))
        got, want = validate_rep(m, bad), one_commutator_per_quadruple(m, bad)
        assert report_fields(got) == report_fields(want)
        assert not got.ok

    def test_both_checks_fail_where_expected(self):
        space, bundle, factors, corrupt = CORRUPTED_TABLES["symmetric_pair_30"]
        m = space()
        got = validate_rep(m, corrupt(catalog_rep(m, bundle, factors=factors)))
        # (0, 3) fails exactly when (3, 0) does, and comes first; the so(n)
        # items read the upper generators, which are intact
        assert failed_detail(got, "fiber-g-antisymmetry") == "pair (0,3)"
        assert got.failed() == ["fiber-g-antisymmetry"]


class TestTableCheckMemo:
    """The checks that read G alone run once per table and are kept on it."""

    def test_catalog_table_checked_once_across_radii(self, monkeypatch):
        calls, original = [], bundles._table_checks
        monkeypatch.setattr(bundles, "_table_checks", lambda G: calls.append(G) or original(G))
        reps = [catalog_rep(space(4, r), "spinor") for space in (sphere, hyperbolic)
                for r in (1, rational(2, 3), rational(5, 2))]
        assert len(calls) <= 1 and all(rep.G is reps[0].G for rep in reps)
        assert all(report_fields(rep.report) == report_fields(reps[0].report) for rep in reps)

    @pytest.mark.parametrize("name", list(CORRUPTED_TABLES))
    @pytest.mark.parametrize("as_table", [False, True], ids=["tuple", "generator_table"])
    def test_corrupted_table_after_its_good_twin(self, name, as_table):
        space, bundle, factors, corrupt = CORRUPTED_TABLES[name]
        m = space()
        good = catalog_rep(m, bundle, factors=factors)
        assert validate_rep(m, good).ok
        bad = corrupt(good)
        if as_table:  # a GeneratorTable of its own, as build_rep would make
            bad = dataclasses.replace(bad, G=bundles._normalize_generators(m.n, bad.dimV, bad.G))
        got, want = validate_rep(m, bad), one_commutator_per_quadruple(m, bad)
        assert report_fields(got) == report_fields(want)
        assert not got.ok

    def test_explicit_table_is_held_by_its_rep_alone(self):
        # no process-wide memo keeps a table: distinct explicit tables are
        # freed with their reps
        m = sphere(2, 1)
        for q in (1, 2, 3):  # S2 monopoles of charge q/2
            rep = build_rep(m, {(0, 1): Matrix.from_rows([[GaussianRational(0, rational(q, 2))]])})
            assert validate_rep(m, rep).ok and "checks" in vars(rep.G)
            (holder,) = gc.get_referrers(rep.G)
            assert holder is rep or holder is vars(rep)


class TestCatalogTables:
    """Catalog generator tables are built once per process and shared."""

    @pytest.mark.parametrize("name,factors", [
        ("scalar", None), ("vector", None), ("spinor", None),
        ("tensor_product", ["vector", "spinor"]),
        ("tensor_product", ["spinor", "scalar", "vector"]),
    ])
    def test_cached_table_equals_a_fresh_build(self, name, factors):
        fresh = {"scalar": lambda n: (dict.fromkeys(index_pairs(n), Matrix.zeros(1)), 1),
                 "vector": lambda n: (unit_bivectors(n), n),
                 "spinor": lambda n: (bundles.spin_generator_table(n), 2 ** (n // 2))}
        for n in (2, 3, 4):
            small, big = sphere(n, 1), hyperbolic(n, rational(7, 3))
            G, dimV = bundles._catalog_generators(small, name, None, factors)
            if factors is None:
                want = fresh[name](n)
            else:
                want = fresh[factors[0]](n)
                for f in factors[1:]:
                    G2, dim2 = fresh[f](n)
                    want = bundles._kron_sum(want[0], want[1], G2, dim2), want[1] * dim2
            assert (G, dimV) == (bundles._normalize_generators(n, want[1], want[0]), want[1])
            # one immutable table shared across radii and signs, which keeps
            # the results of the checks that read G alone
            G2, _ = bundles._catalog_generators(big, name, None, factors)
            assert G2 is G and isinstance(G, bundles.GeneratorTable)

    def test_checks_run_before_every_lookup(self):
        m4, m7, flat_s2 = sphere(4, 1), sphere(7, 1), product([flat(2), sphere(2, 1)])
        catalog_rep(flat_s2, "u1_twist", twist=[1])
        catalog_rep(m4, "tensor_product", factors=["vector", "spinor"])
        cases = [
            (m4, "u1_twist", [1], None, BundleError, "u1_twist needs flat_dim >= 2"),
            (flat_s2, "u1_twist", None, None, BundleError,
             "u1_twist needs at least one block strength"),
            (m7, "spinor", None, None, BundleError, "spinor catalog covers n <= 6"),
            (m4, "tensor_product", None, ["spinor", "spinor", "spinor"], ValueError,
             "dimV = 64 exceeds the bound 32"),
            (m4, "tensor_product", None, ["spinor"], BundleError,
             "tensor_product needs at least two factor names"),
            (m4, "tensor_product", None, [{"a": 1}, "spinor"], BundleError,
             "unknown catalog bundle {'a': 1}"),
            (m4, "tensor_product", None, ["vector", ["x"]], BundleError,
             "unknown catalog bundle ['x']"),
            (m4, "tensor_product", None, ["vector", "u1_twist"], BundleError,
             "u1_twist needs at least one block strength"),
            (m7, "tensor_product", None, ["vector", "spinor"], BundleError,
             "spinor catalog covers n <= 6"),
            (m4, ["spinor"], None, None, BundleError, "unknown catalog bundle ['spinor']"),
        ]
        for m, name, twist, factors, error, message in cases:
            with pytest.raises(error) as info:
                catalog_rep(m, name, twist=twist, factors=factors)
            assert str(info.value) == message

    def test_factors_ignored_outside_tensor_products(self):
        m = sphere(4, 1)
        assert catalog_rep(m, "spinor", factors=[{"a": 1}]) == catalog_rep(m, "spinor")


class TestZeroGeneratorFibers:
    @pytest.mark.parametrize("name,twist", [("scalar", None), ("u1_twist", [rational(1, 3)])])
    def test_no_product_and_one_shared_zero(self, monkeypatch, name, twist):
        m = product([flat(2), sphere(3, 1)])
        calls = []
        original = Matrix.matmul
        monkeypatch.setattr(Matrix, "matmul", lambda a, b: calls.append(1) or original(a, b))
        rep = catalog_rep(m, name, twist=twist)
        assert calls == []
        # the empty diagonal cells share one zero, and a zero is not negated
        assert len({id(rep.G[a][a]) for a in range(m.n)}) == 1
        assert all(rep.G[b][a] is rep.G[a][b] for a, b in index_pairs(m.n))
        assert not any(rep.R) and not rep.casimir

    def test_dict_generators_keep_their_negatives(self):
        g, zero = unit_bivectors(3), Matrix.zeros(3)
        G = {(0, 1): g[0, 1], (1, 2): g[1, 2], (0, 2): zero}
        table = bundles._normalize_generators(3, 3, G)
        assert table[1][0] == -g[0, 1] and table[2][1] == -g[1, 2]
        assert table[2][0] is zero and table[0][0] is table[1][1] is table[2][2]
        assert table[0][0].is_zero()
