import gc
import json
import random
import time
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from symheat import bundles, engine, spaces
from symheat.bundles import (
    FiberRep,
    build_rep,
    catalog_rep,
    rep_from_descriptor,
    spin_generator_table,
    twist_matrix,
    validate_rep,
)
from symheat.engine import (
    HeatCoefficients,
    HeatRequest,
    K_MAX_LIMIT,
    NonRealTraceError,
    RepModelMismatchError,
    TruncationOverflowError,
    _commutant_projection,
    coefficient_report,
    heat_coefficients,
    heat_trace,
    render_report_text,
)
from symheat.exact import ZERO, GaussianRational, Matrix, combination, invert, kernel, rational
from symheat.series import (
    SeriesPoly,
    _direct_power_sums,
    _elementary_symmetric,
    _sparse_generators,
    cosh_pencil,
    det_sinhc_numeric,
    det_sinhc_pencil,
    matrix_exp_series,
    weyl_density,
)
from symheat.spaces import (
    CurvatureData,
    HolonomyAverageError,
    _beta_form,
    _beta_orthogonal,
    build_model,
    cartan_subalgebra,
    flat,
    hyperbolic,
    product,
    space_from_descriptor,
    sphere,
    validate_model,
)
from symheat.oracles import gilkey_a2
from symheat.wick import GaussianWeight, average_poly

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
JOBS = Path(__file__).resolve().parent.parent / "jobs"
HALF = rational(1, 2)


def q(a, b=1):
    return GaussianRational(rational(a, b))


def scalar_coeffs(model, k_max):
    hc = heat_coefficients(HeatRequest(model, catalog_rep(model, "scalar"), k_max))
    return [a[0, 0] for a in hc.a]


class TestScalarSpheres:
    def test_s2_first_four(self):
        assert scalar_coeffs(sphere(2, 1), 3) == [q(1), q(1, 3), q(1, 15), q(4, 315)]

    def test_s3_inverse_factorials(self):
        assert scalar_coeffs(sphere(3, 1), 3) == [q(1), q(1), q(1, 2), q(1, 6)]

    def test_flat_all_zero(self):
        coeffs = scalar_coeffs(flat(3), 5)
        assert coeffs[0] == q(1)
        assert all(c.is_zero() for c in coeffs[1:])

    def test_radius_scaling(self):
        # a_k scales like radius^(-2k)
        unit = scalar_coeffs(sphere(2, 1), 2)
        two = scalar_coeffs(sphere(2, 2), 2)
        assert two[1] == unit[1] / q(4)
        assert two[2] == unit[2] / q(16)


class TestMatrixReps:
    def test_s2_spinor(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "spinor"), 2))
        assert hc.a[1] == Matrix.identity(2).scale(rational(1, 3))
        assert hc.a[2] == Matrix.identity(2).scale(rational(1, 40))

    def test_s2_vector(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "vector"), 2))
        assert hc.a[1] == Matrix.identity(2).scale(rational(1, 3))
        assert hc.a[2] == Matrix.identity(2).scale(rational(-1, 10))

    def test_a0_is_identity_everywhere(self):
        for model, repname in [
            (sphere(2, 1), "spinor"),
            (sphere(3, 1), "vector"),
            (product([flat(2), sphere(2, 1)]), "spinor"),
        ]:
            rep = catalog_rep(model, repname)
            hc = heat_coefficients(HeatRequest(model, rep, 1))
            assert hc.a[0] == Matrix.identity(rep.dimV)

    def test_a1_is_scalar_curvature_over_six(self):
        for model in (sphere(2, 1), sphere(3, 1), hyperbolic(2, 1),
                      product([flat(2), sphere(2, 1)])):
            for repname in ("scalar", "vector", "spinor"):
                rep = catalog_rep(model, repname)
                hc = heat_coefficients(HeatRequest(model, rep, 1))
                want = Matrix.identity(rep.dimV).scale(model.scalar_R / q(6))
                assert hc.a[1] == want, (repname, model.n)


class TestStructuralProperties:
    def test_duality_spheres_vs_hyperbolic(self):
        for n in (2, 3):
            s = scalar_coeffs(sphere(n, 1), 4)
            h = scalar_coeffs(hyperbolic(n, 1), 4)
            for k in range(5):
                assert h[k] == q((-1) ** k) * s[k]

    def test_product_multiplicativity(self):
        s2 = scalar_coeffs(sphere(2, 1), 3)
        both = scalar_coeffs(product([sphere(2, 1), sphere(2, 1)]), 3)
        for k in range(4):
            want = sum((s2[i] * s2[k - i] for i in range(k + 1)), q(0))
            assert both[k] == want

    def test_mixed_signature_product(self):
        # compact and noncompact factors share one formal average
        s2 = scalar_coeffs(sphere(2, 1), 3)
        h2 = scalar_coeffs(hyperbolic(2, 1), 3)
        mixed = scalar_coeffs(product([hyperbolic(2, 1), sphere(2, 1)]), 3)
        for k in range(4):
            want = sum((h2[i] * s2[k - i] for i in range(k + 1)), q(0))
            assert mixed[k] == want
        assert mixed[1].is_zero()  # curvatures cancel in R = 0

    def test_deep_orders_at_kmax_limit(self):
        import math

        assert scalar_coeffs(sphere(3, 1), 6) == [q(1, math.factorial(k)) for k in range(7)]
        # classical closed values for the round two-sphere
        assert scalar_coeffs(sphere(2, 1), 6) == [
            q(1), q(1, 3), q(1, 15), q(4, 315), q(1, 315), q(4, 3465), q(382, 675675),
        ]

    def test_truncation_stability(self):
        m = sphere(3, 1)
        small = scalar_coeffs(m, 2)
        large = scalar_coeffs(m, 3)
        assert small == large[:3]

    def test_pure_twist_matches_numeric_determinant(self):
        m = flat(2)
        rep = catalog_rep(m, "u1_twist", twist=[rational(3, 2)])
        hc = heat_coefficients(HeatRequest(m, rep, 4))
        series = det_sinhc_numeric(rep.B, rational(-1, 2), 8)
        assert len(series) == 5
        for k in range(5):
            assert hc.a[k][0, 0] == series[k]


    @pytest.mark.parametrize("space,bundle,factors", [
        (lambda: sphere(4, 1), "spinor", None),
        (lambda: sphere(3, 1), "tensor_product", ["vector", "spinor"]),
    ])
    def test_compute_path_derives_no_combined_algebra(self, space, bundle, factors):
        # the combined algebra and Omega are derived only where they are read
        model = space()
        rep = catalog_rep(model, bundle, factors=factors)
        heat_coefficients(HeatRequest(model, rep, 3))
        combined = {"C", "gamma", "gamma_inv", "R_G"}
        assert not combined & set(vars(model))
        assert "Omega" not in vars(rep)
        assert validate_model(model).ok
        assert {"C", "gamma"} <= set(vars(model))
        gilkey_a2(model, rep)
        assert "Omega" in vars(rep)
        assert model.R_G.is_real() and combined <= set(vars(model))


class TestHeatTrace:
    def test_s2_scalar_normalized_trace(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 1))
        res = heat_trace(hc, 4)  # volume 4*pi with the pi tracked outside
        assert res.A[1] / res.volume == rational(1, 3)

    def test_a0_trace_is_volume_times_dim(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "spinor"), 0))
        res = heat_trace(hc, rational(7, 2))
        assert res.A[0] == rational(7, 2) * 2

    def test_spinor_trace(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "spinor"), 1))
        res = heat_trace(hc, 1)
        assert res.A[1] == rational(2, 3)

    def test_nonpositive_volume_rejected(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 0))
        with pytest.raises(ValueError):
            heat_trace(hc, 0)

    def test_non_real_trace_raises_a_value_error(self):
        # G_12 = [[1 + i]] on S2 builds, with the Casimir 2i, and tr a_2 is not real
        m = sphere(2, 1)
        rep = build_rep(m, {(0, 1): Matrix.from_rows([[GaussianRational(1, 1)]])}, dimV=1)
        hc = heat_coefficients(HeatRequest(m, rep, 2))
        assert [a.trace().im for a in hc.a] == [0, 0, rational(1, 3)]
        with pytest.raises(NonRealTraceError, match="^fiber trace is not real$") as info:
            heat_trace(hc, 1)
        assert isinstance(info.value, ValueError)


class TestRequestValidation:
    def test_kmax_overflow(self):
        m = sphere(2, 1)
        with pytest.raises(TruncationOverflowError):
            HeatRequest(m, catalog_rep(m, "scalar"), K_MAX_LIMIT + 1)
        with pytest.raises(TruncationOverflowError):
            HeatRequest(m, catalog_rep(m, "scalar"), -1)

    def test_rep_model_mismatch(self):
        m2, m3 = sphere(2, 1), sphere(3, 1)
        with pytest.raises(RepModelMismatchError):
            HeatRequest(m2, catalog_rep(m3, "scalar"), 1)

    def test_equal_data_accepted(self):
        rep = catalog_rep(sphere(2, 1), "scalar")
        HeatRequest(sphere(2, 1), rep, 1)  # same data, different object


    def test_non_invariant_weight_refused(self):
        # beta = diag(1, 2, 3) on the so(3) frame of S3: beta F_j is not antisymmetric
        base = sphere(3, 1)
        data = CurvatureData(n=3, p=3, E=base.data.E, beta=Matrix.diag([1, 2, 3]))
        m = build_model(data)
        with pytest.raises(HolonomyAverageError, match="beta-f-invariance"):
            HeatRequest(m, catalog_rep(m, "scalar"), 1)


def _reference_frame(beta):
    """(None, beta) on a diagonal beta.  Otherwise the unit vectors made
    beta-orthogonal by a dense Gram-Schmidt (beta is definite in every case
    here) and beta on them, diagonal: the full pencils in coordinates where
    the Gaussian weight factors, whose Jacobian cancels in the average."""
    p = beta.rows
    if all(row.keys() <= {i} for i, row in enumerate(beta.nonzeros)):
        return None, beta
    vecs = []
    for i in range(p):
        v = Matrix(p, 1, [int(i == j) for j in range(p)])
        for u in vecs:
            v = v - u.scale((u.transpose() * beta * v)[0, 0] / (u.transpose() * beta * u)[0, 0])
        vecs.append(v)
    return ([tuple(v[j, 0] for j in range(p)) for v in vecs],
            Matrix.diag([(v.transpose() * beta * v)[0, 0] for v in vecs]))


def _reference_heat_coefficients(req):
    """heat_coefficients with the bracket over all of h: the pencils on the
    whole of h (_reference_frame), average_poly on the full beta, no density
    and no projection."""
    model, rep, k_max = req.model, req.rep, req.k_max
    degree, dimV = 2 * k_max, rep.dimV
    basis, beta = _reference_frame(model.beta)
    exponent = (det_sinhc_pencil(model.F, HALF, HALF, degree, basis)
                + det_sinhc_pencil(model.D, HALF, -HALF, degree, basis))
    bracket = cosh_pencil(rep.R, dimV, degree, basis) * exponent.exp()
    averaged = average_poly(bracket, GaussianWeight.from_beta(beta))
    prefactor = matrix_exp_series(Matrix.identity(dimV).scale(
        model.scalar_R * rational(1, 8) + model.R_H * rational(1, 6)) - rep.casimir, degree)
    twist = det_sinhc_numeric(rep.B, -HALF, degree)
    return tuple(
        combination(((twist[k - i - j], prefactor[i] * averaged[j])
                     for i in range(k + 1) for j in range(k + 1 - i)), dimV)
        for k in range(k_max + 1)
    )


def _cartan_candidates(F):
    """The torus bases the engine once tried in turn: the greedy pairwise-commuting
    generators, then ker F(x) for x = (1^m, 2^m, .., p^m), m = 1, 2, 3."""
    p = len(F)
    picked = []
    for i in range(p):
        if all(not F[i][j, k] for k in picked for j in range(p)):
            picked.append(i)
    yield [tuple(int(i == j) for j in range(p)) for i in picked]
    for m in (1, 2, 3):
        fx = combination(((x**m, f) for x, f in enumerate(F, 1)), p)
        yield [tuple(vec.get(i, ZERO) for i in range(p)) for vec in kernel(fx.nonzeros, p)]


def _rotated(base):
    """base in the frame E'^i = M_ij E^j with beta' = M^-T beta M^-1 (same curvature),
    M the upper-triangular matrix of ones."""
    p = base.p
    m = Matrix.from_rows([[int(j >= i) for j in range(p)] for i in range(p)])
    m_inv = invert(m)
    E = tuple(combination(zip(m.row(i), base.data.E), base.n) for i in range(p))
    beta = m_inv.transpose() * base.beta * m_inv
    return build_model(CurvatureData(n=base.n, p=p, E=E, beta=beta))


def _conjugated_spinor(model):
    """The spinor fiber in a non-unitary frame, G'_ab = S G_ab S^-1."""
    dim = 2 ** (model.n // 2)
    s = Matrix.from_rows([[int(j in (i, i + 1)) for j in range(dim)] for i in range(dim)])
    s_inv = invert(s)
    table = {ab: s * g * s_inv for ab, g in spin_generator_table(model.n).items()}
    return build_rep(model, table, dimV=dim)


def _job_request(path, k_max):
    job = json.loads(path.read_text(encoding="utf-8"))
    model = space_from_descriptor(job["space"])
    return HeatRequest(model, rep_from_descriptor(model, job.get("bundle"), job.get("twist")),
                       k_max)


def _catalog_request(space, bundle, k_max, factors=None):
    model = space()
    return HeatRequest(model, catalog_rep(model, bundle, factors=factors), k_max)


_VS = ["vector", "spinor"]


class TestCartanRoute:
    """The Cartan-subalgebra average against the average over all of h."""

    CASES = {
        **{f"{p.stem}_k4": (lambda p=p: _job_request(p, 4)) for p in sorted(JOBS.glob("*.json"))},
        "s4_spinor_k3": lambda: _catalog_request(lambda: sphere(4, 1), "spinor", 3),
        "h4_spinor_k3": lambda: _catalog_request(lambda: hyperbolic(4, 1), "spinor", 3),
        "s3_vecspin_k3": lambda: _catalog_request(
            lambda: sphere(3, 1), "tensor_product", 3, _VS),
        "h3_vecspin_k3": lambda: _catalog_request(
            lambda: hyperbolic(3, 1), "tensor_product", 3, _VS),
        "s3_spinor_k6": lambda: _catalog_request(lambda: sphere(3, 1), "spinor", 6),
        "flat2_s2_h3_scalar_k3": lambda: _catalog_request(
            lambda: product([flat(2), sphere(2, 1), hyperbolic(3, 1)]), "scalar", 3),
        "s4_nonunitary_spinor_k3": lambda: (
            lambda m: HeatRequest(m, _conjugated_spinor(m), 3))(sphere(4, 1)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_dense_reference(self, name):
        req = self.CASES[name]()
        assert heat_coefficients(req).a == _reference_heat_coefficients(req)

    def test_catalog_sphere_takes_the_greedy_torus(self):
        m = sphere(5, 1)
        basis, density = cartan_subalgebra(m.F)
        # E_01 and E_23, the first two generators that commute
        assert [[i for i, x in enumerate(v) if x] for v in basis] == [[0], [7]]
        # so(5): W = y1^2 y2^2 (y1^2 - y2^2)^2
        assert density == {(6, 2): 1, (4, 4): -2, (2, 6): 1}
        assert weyl_density(m.F, basis) == density

    def test_abelian_holonomy_is_its_own_torus(self):
        for m in (flat(2), sphere(2, 1), product([flat(2), sphere(2, 1), sphere(2, 1)])):
            basis, density = cartan_subalgebra(m.F)
            assert basis == [tuple(int(i == j) for j in range(m.p)) for i in range(m.p)]
            assert density == {(0,) * m.p: 1}
        assert cartan_subalgebra(flat(2).F) == ([], {(): 1})

    def test_abelian_holonomy_needs_no_commutant_projection(self, monkeypatch):
        model = product([flat(2), sphere(2, 1)])
        rep = catalog_rep(model, "tensor_product", factors=_VS, twist=[rational(1, 3)])

        def refuse(*args):
            raise AssertionError("an abelian h needs no commutant projection")

        monkeypatch.setattr(engine, "_commutant_projection", refuse)
        req = HeatRequest(model, rep, 4)
        assert heat_coefficients(req).a == _reference_heat_coefficients(req)

    def test_zero_generator_fiber_projects_in_time(self, monkeypatch):
        # R = 0 commutes with every X, so the commutant is every matrix and the
        # projection is the identity, with no kernel solve for its basis
        model = sphere(3, 1)
        scalar = heat_coefficients(HeatRequest(model, catalog_rep(model, "scalar"), 3)).a

        def refuse(*args):
            raise AssertionError("a zero-generator fiber needs no kernel")

        for dimV in (16, 32):
            rep = rep_from_descriptor(model, {"explicit": {"dimV": dimV}})
            monkeypatch.setattr(engine, "kernel", refuse)
            monkeypatch.setattr("symheat.exact.kernel", refuse)
            start = time.perf_counter()
            got = heat_coefficients(HeatRequest(model, rep, 3)).a
            monkeypatch.undo()
            assert time.perf_counter() - start < 3
            assert got == tuple(Matrix.identity(dimV).scale(a[0, 0]) for a in scalar)

    def test_nilpotent_algebra_has_no_cartan_subalgebra(self):
        # Heisenberg [D_0, D_1] = D_2: every ad is nilpotent, so W = 0 on every candidate
        with pytest.raises(HolonomyAverageError, match="no Cartan subalgebra"):
            cartan_subalgebra(_heisenberg_F())

    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    def test_rotated_frame_falls_back_to_a_centralizer(self, space):
        base = space(4, 1)
        m = _rotated(base)
        greedy = next(_cartan_candidates(m.F))
        assert not weyl_density(m.F, greedy)
        basis, density = cartan_subalgebra(m.F)
        assert len(basis) == 2 and density
        ad0 = combination(zip(basis[0], m.F), m.p)
        assert (ad0 * Matrix(m.p, 1, basis[1])).is_zero()
        for bundle in ("scalar", "spinor"):
            got = heat_coefficients(HeatRequest(m, catalog_rep(m, bundle), 4)).a
            assert got == heat_coefficients(HeatRequest(base, catalog_rep(base, bundle), 4)).a


def _restricted_beta(model, basis):
    """beta restricted to the span of basis, <v_a, beta v_b>, by a dense product."""
    embed = Matrix.from_rows([[v[i] for v in basis] for i in range(model.p)])
    return embed.transpose() * model.beta * embed


class TestGrownTorus:
    """The greedy torus grown by centralizer vectors, made beta-orthogonal."""

    def test_rotated_s6_grows_in_time(self):
        base = sphere(6, 1)
        m = _rotated(base)
        start = time.perf_counter()
        basis, density = cartan_subalgebra(m.F)
        # 3.8 s through the dense ker F(x) candidates, about 0.2 s grown (2-core x86 VM)
        assert time.perf_counter() - start < 1
        assert len(basis) == 3 and density
        ads = [combination(zip(v, m.F), m.p) for v in basis]
        assert all((ads[a] * Matrix(m.p, 1, basis[b])).is_zero()
                   for a in range(3) for b in range(3))
        want = heat_coefficients(HeatRequest(base, catalog_rep(base, "scalar"), 2)).a
        assert heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 2)).a == want

    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    def test_rotated_frame_weight_is_diagonal(self, monkeypatch, space):
        m = _rotated(space(4, 1))
        basis, _ = cartan_subalgebra(m.F)
        assert not _restricted_beta(m, basis).nonzeros[0].keys() <= {0}  # not orthogonal yet
        seen = []
        original = engine.average_poly
        monkeypatch.setattr(engine, "average_poly", lambda *a: seen.append(a) or original(*a))
        heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 2))
        frame = m.unit
        torus, weight = frame.torus[0], seen[0][1]
        # the frame's weight, at its beta0, kept on the frame
        assert weight is frame.gaussian
        restricted = _restricted_beta(frame, torus)
        assert restricted == weight.beta == Matrix.diag([restricted[a, a] for a in range(2)])
        # the job's own beta on the torus is c times the frame's
        c = _first_entry(m.beta) / _first_entry(frame.beta)
        assert _restricted_beta(m, torus) == restricted.scale(c)
        # the frame's density, that of F0, and c^(p-r) times it is the job's own F's
        assert weight.density == weyl_density(frame.F, torus)
        scale = _power(c, m.p - len(torus))
        assert weyl_density(m.F, torus) == {mono: scale * x for mono, x in weight.density.items()}
        # the same torus: every new vector lies in the span of the grown basis
        assert all(len(kernel([{a: c[i] for a, c in enumerate(basis + [v]) if c[i]}
                               for i in range(m.p)], 3)) == 1 for v in torus)

    def test_catalog_torus_is_kept(self):
        for m in (sphere(5, 1), hyperbolic(4, 2), product([sphere(2, 1), hyperbolic(3, 1)])):
            basis, _ = cartan_subalgebra(m.F)
            assert _beta_orthogonal(basis, m.beta) == basis
            assert _restricted_beta(m, basis) == Matrix.diag([_beta_form(m.beta, v, v)
                                                              for v in basis])

    def test_isotropic_vectors_are_combined(self):
        # beta = [[0, 1], [1, 0]] on the unit vectors: both have norm 0
        beta = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        torus = _beta_orthogonal(basis, beta)
        d = [_beta_form(beta, v, v) for v in torus]
        embed = Matrix.from_rows([[v[i] for v in torus] for i in range(3)])
        assert embed.transpose() * beta * embed == Matrix.diag(d)
        assert all(d) and len(kernel(embed.nonzeros, 3)) == 0


def _fresh_unit(rep):
    """A unit fiber of its own on rep's frame, with rep's R0 and Casimir and
    nothing solved on it yet."""
    return bundles.UnitFiber(rep.model.unit, rep.dimV, rep.unit.R, rep.unit.casimir)


def _all_generator_commutant(R, basis):
    """A reference commutant basis, built apart from engine._commutant_duals:
    the rows of [g, X] = 0 for the Cartan generators g, then again for every
    R_i."""
    dim = R[0].rows
    eqs = []
    for g in [combination(zip(v, R), dim) for v in basis] + list(R):
        rows = {}
        for a, grow in enumerate(g.nonzeros):
            for b, v in grow.items():
                for c in range(dim):
                    row = rows.setdefault((a, c), {})
                    row[b * dim + c] = row.get(b * dim + c, ZERO) + v
                    row = rows.setdefault((c, b), {})
                    row[c * dim + a] = row.get(c * dim + a, ZERO) - v
        eqs.extend(rows.values())
    return kernel(eqs, dim * dim)


class TestFiberGeneratorCommutant:
    """The commutant solved on the fiber's own R_i, in index order, against
    the solve on the Cartan generators and every R_i."""

    CASES = {
        "s3_vecspin": (lambda: sphere(3, 1), "tensor_product", _VS),
        "h3_vecspin": (lambda: hyperbolic(3, rational(1, 2)), "tensor_product", _VS),
        "s4_vecspin": (lambda: sphere(4, 1), "tensor_product", _VS),
        "s4_spinor": (lambda: sphere(4, 1), "spinor", None),
        "s6_spinor": (lambda: sphere(6, 1), "spinor", None),
        "s5_vector": (lambda: sphere(5, 1), "vector", None),
        "s5_vecvec": (lambda: sphere(5, 1), "tensor_product", ["vector", "vector"]),
        "s5_vecspin": (lambda: sphere(5, 1), "tensor_product", _VS),
        "s2_x_s3_vector": (lambda: product([sphere(2, 1), sphere(3, 1)]), "vector", None),
        # the last R_i, S2's, is the one generator of its factor
        "s3_x_s2_vector": (lambda: product([sphere(3, 1), sphere(2, 1)]), "vector", None),
        "rotated_s4_spinor": (lambda: _rotated(sphere(4, 1)), "spinor", None),
    }

    @staticmethod
    def _solve(monkeypatch, name):
        space, bundle, factors = TestFiberGeneratorCommutant.CASES[name]
        m = space()
        rep = catalog_rep(m, bundle, factors=factors)
        solved = []
        monkeypatch.setattr(engine, "kernel", lambda eqs, n: solved.append(
            (len(eqs), kernel(eqs, n))) or solved[-1][1])
        # solved afresh on a unit fiber of its own: an earlier test may have
        # left this commutant on the shared one
        fiber = _fresh_unit(rep)
        project = _commutant_projection(fiber)
        return m, rep, fiber, project, solved

    @staticmethod
    def _check(m, rep, fiber, project, seed):
        # the kept basis spans the same null space; only the item order in a
        # vector may differ, so the vectors are compared as dicts
        basis, _ = cartan_subalgebra(m.F)
        assert [dict(v) for v, _ in fiber.commutant] == _all_generator_commutant(rep.R, basis)
        rng = random.Random(seed)
        dim = rep.dimV
        for _ in range(3):
            a = Matrix.from_rows([[GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                                   for _ in range(dim)] for _ in range(dim)])
            got = project(a)
            assert all((got * r - r * got).is_zero() for r in rep.R)
            assert project(got) == got

    @pytest.mark.parametrize("name", list(CASES))
    def test_same_commutant_basis_as_all_generators(self, monkeypatch, name):
        m, rep, fiber, project, solved = self._solve(monkeypatch, name)
        assert len(solved) == 1
        self._check(m, rep, fiber, project, name)

    @pytest.mark.parametrize("space", [
        *[lambda n=n: sphere(n, 1) for n in range(2, 11)],
        *[lambda n=n: hyperbolic(n, rational(2, 3)) for n in (3, 4, 6)],
        lambda: product([sphere(2, 1), sphere(2, 1)]),
        lambda: product([sphere(2, 1), hyperbolic(3, 1)]),
        lambda: product([flat(2), sphere(2, 1), sphere(3, 1)]),
        lambda: product([sphere(3, 1), sphere(3, 1)]),
        lambda: product([sphere(2, 1), sphere(2, 1), sphere(2, 1)]),
        lambda: _rotated(sphere(4, 1)),
    ], ids=[*(f"s{n}" for n in range(2, 11)), "h3", "h4", "h6", "s2xs2", "s2xh3", "flat2xs2xs3",
            "s3xs3", "s2xs2xs2", "rotated_s4"])
    def test_vector_commutant_on_every_space(self, space):
        # the vector fiber R_i = F_i on each space, the products' several
        # factors and a rotated frame among them: the solve on every R_i
        # keeps the reference basis, whatever the rank of h
        m = space()
        rep = catalog_rep(m, "vector")
        fiber = _fresh_unit(rep)
        self._check(m, rep, fiber, _commutant_projection(fiber), m.n)

    def test_row_count_on_s4_vector_x_spinor(self, monkeypatch):
        # six generators R_i of 256 rows each
        *_, solved = self._solve(monkeypatch, "s4_vecspin")
        assert solved[0][0] == 1536


class TestCommutantMemo:
    """The commutant of c R0 is that of R0, so its basis, Gram inverse and
    duals are solved once on the unit fiber and every radius and sign of it
    shares them."""

    CASES = {
        "s3_vecspin": (lambda s, r: s(3, r), "tensor_product", _VS),
        "s4_spinor": (lambda s, r: s(4, r), "spinor", None),
        "flat2xs2_vecspin": (lambda s, r: product([flat(2), s(2, r)]), "tensor_product", _VS),
    }
    RADII = (1, rational(2, 3), rational(5, 2))

    def _check(self, monkeypatch, models, bundle, factors):
        solves, original = [], engine._commutant_duals
        monkeypatch.setattr(engine, "_commutant_duals",
                            lambda R: solves.append(R) or original(R))
        rng = random.Random(bundle)
        fibers = []
        for m in models:
            rep = catalog_rep(m, bundle, factors=factors)
            project = _commutant_projection(rep.unit)
            fibers.append(rep.unit)
            # the kept basis and duals, against a solve on the job's own R
            assert rep.unit.commutant == original(rep.R)
            dim = rep.dimV
            for _ in range(2):
                a = Matrix.from_rows([[GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                                       for _ in range(dim)] for _ in range(dim)])
                got = project(a)
                assert all((got * r - r * got).is_zero() for r in rep.R)
                assert project(got) == got
        # at most one solve per unit fiber, on its own R
        assert len(solves) <= len({id(f) for f in fibers})
        assert all(any(R is f.R for f in fibers) for R in solves)
        return fibers

    @pytest.mark.parametrize("name", list(CASES))
    def test_every_radius_and_sign_shares_one_entry(self, monkeypatch, name):
        space, bundle, factors = self.CASES[name]
        models = [space(s, r) for s in (sphere, hyperbolic) for r in self.RADII]
        fibers = self._check(monkeypatch, models, bundle, factors)
        assert all(f is fibers[0] for f in fibers)

    def test_product_with_unequal_factor_radii(self, monkeypatch):
        # S2 x S3 with radii 1 and 2/3: beta is not a multiple of the identity,
        # and each ratio of the radii is a frame of its own
        models = [product([sphere(2, a), sphere(3, b)])
                  for a, b in ((1, 1), (1, rational(2, 3)), (rational(2, 3), 1))]
        fibers = self._check(monkeypatch, models, "vector", None)
        assert len({id(f) for f in fibers}) == 3

    def test_memo_is_bounded(self):
        # forty frames S2 x S2 of radii 1 and 1/j share one vector table, whose
        # memo holds a fiber per live frame: at most the frames build_model keeps
        table = None
        for j in range(1, 41):
            rep = catalog_rep(product([sphere(2, 1), sphere(2, rational(1, j))]), "vector")
            assert table is None or rep.G is table
            table = rep.G
        del rep
        gc.collect()
        assert 0 < len(table.fibers) <= spaces._frame.cache_info().maxsize


def _power(c, k):
    out = GaussianRational(1)
    for _ in range(k):
        out = out * c
    return out


def _first_entry(beta):
    row = next(r for r in beta.nonzeros if r)
    return row[min(row)]


_RADII = (1, rational(2, 3), rational(5, 2))


class TestUnitTorus:
    """The torus and the Weyl density live on the model's frame, the
    unit-scale model, derived once from its F0."""

    MODELS = {
        **{f"{s.__name__}{n}_r{r}".replace("/", "_"): (lambda s=s, n=n, r=r: s(n, r))
           for s in (sphere, hyperbolic) for n in (3, 4, 5) for r in _RADII},
        "s2xh3": lambda: product([sphere(2, rational(5, 2)), hyperbolic(3, rational(2, 3))]),
        "rotated_h4": lambda: _rotated(hyperbolic(4, rational(2, 3))),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_shared_torus_against_a_fresh_one(self, name):
        m = self.MODELS[name]()
        basis = _beta_orthogonal(cartan_subalgebra(m.F)[0], m.beta)
        shared_basis, shared_density = m.unit.torus
        assert shared_basis == basis
        scale = _power(_first_entry(m.beta), m.p - len(basis))
        assert weyl_density(m.F, basis) == {mono: scale * x for mono, x in shared_density.items()}
        # a_k against the same job on a copy that build_model did not make
        for bundle in ("scalar", "spinor"):
            rep = catalog_rep(m, bundle)
            got = heat_coefficients(HeatRequest(m, rep, 3)).a
            assert got == heat_coefficients(HeatRequest(replace(m), rep, 3)).a

    @pytest.mark.parametrize("name", ["sphere4_r2_3", "hyperbolic5_r5_2", "s2xh3", "rotated_h4"])
    def test_commutant_does_not_see_the_scale(self, name):
        # the solve on the job-scale R, c R0, keeps the unit fiber's basis
        # and duals, which the engine solves once on R0
        m = self.MODELS[name]()
        assert m.scale != 1
        for bundle, factors in (("spinor", None), ("tensor_product", _VS)):
            rep = catalog_rep(m, bundle, factors=factors)
            fiber = rep.unit
            assert fiber.R != rep.R
            _commutant_projection(fiber)
            assert engine._commutant_duals(rep.R) == fiber.commutant

    def test_one_derivation_per_frame(self, monkeypatch):
        # six radii and two signs of S4 spinor, in the catalog frame and in the
        # rotated one: after a frame's first job, nothing of it is derived
        # again, and no job derives the curvature contractions of its own
        # model; the first job derives the frame's Riemann entries once
        _fresh_frames(monkeypatch)
        calls = []
        for name in ("_solve_structure_constants", "weight_invariance", "cartan_subalgebra",
                     "_beta_orthogonal", "weyl_density", "_riemann_entries"):
            original = getattr(spaces, name)
            monkeypatch.setattr(spaces, name, lambda *a, name=name, original=original:
                                calls.append(name) or original(*a))
        radii = (1, rational(2, 3), rational(5, 2), rational(3, 7), rational(9, 4), 7)
        for frame in (lambda m: m, _rotated):
            units = []
            for space in (sphere, hyperbolic):
                for r in radii:
                    calls.clear()
                    m = frame(space(4, r))
                    heat_coefficients(HeatRequest(m, catalog_rep(m, "spinor"), 2))
                    assert not (units and calls), calls
                    assert calls.count("_riemann_entries") == (0 if units else 1)
                    units.append(m.unit)
            assert all(unit is units[0] for unit in units)

    def test_model_not_made_by_build_model_has_its_own_frame(self, monkeypatch):
        m = sphere(4, rational(2, 3))
        rep = catalog_rep(m, "spinor")
        want = heat_coefficients(HeatRequest(m, rep, 2)).a
        for copy in (replace(m), spaces.SymmetricSpaceModel(m.data, m.D, m.F)):
            calls = []
            for name in ("cartan_subalgebra", "weight_invariance"):
                original = getattr(spaces, name)
                monkeypatch.setattr(spaces, name, lambda *a, name=name, original=original:
                                    calls.append((name, a[0])) or original(*a))
            # a crossed request runs on the rep's model, whose frame is warm
            assert heat_coefficients(HeatRequest(copy, rep, 2)).a == want
            assert calls == [] and "unit" not in vars(copy)
            # a rep on the copy runs on the copy's own frame
            assert heat_coefficients(HeatRequest(m, catalog_rep(copy, "spinor"), 2)).a == want
            monkeypatch.undo()
            assert copy.unit is not m.unit and copy.unit is copy and copy.scale == 1
            # each part of the copy's frame is derived once, from the copy itself
            assert sorted(name for name, _ in calls) == ["cartan_subalgebra", "weight_invariance"]
            assert all(x is (copy if name == "weight_invariance" else copy.F)
                       for name, x in calls)

    def test_replaced_model_checks_its_own_weight(self):
        m = sphere(4, rational(2, 3))
        HeatRequest(m, catalog_rep(m, "scalar"), 1)
        bad_f = replace(m, F=(m.F[0] + Matrix.from_nonzeros(m.p, [{1: 1}] + [{}] * (m.p - 1)),)
                      + m.F[1:])
        bad_beta = replace(m, data=replace(m.data, beta=Matrix.diag(range(1, m.p + 1))))
        for bad in (bad_f, bad_beta):
            with pytest.raises(HolonomyAverageError, match=r"beta-f-invariance fails \(index 0\)"):
                HeatRequest(bad, catalog_rep(bad, "scalar"), 1)


def _reference_build_rep(model, G, B=None, dimV=None):
    """build_rep as it was before the unit fiber: S_k, R and the Casimir
    formed at the model's own beta, with no scaling.  The reference rep sits
    on an equal-data copy of the model, which is its own frame (scale 1),
    with its unit fiber set to those R and Casimir: the fiber checks run on
    them there, and its R, Casimir and report are those of the job's beta."""
    dimV = dimV or next(iter(G.values())).rows
    table = bundles._normalize_generators(model.n, dimV, G)
    minus_half = GaussianRational(rational(-1, 2))
    S = [combination(((x, table[a][b]) for a, row in enumerate(e.nonzeros) for b, x in row.items()
                      if table[a][b]), dimV) for e in model.data.E]
    R = tuple(combination(((minus_half * x, S[k]) for k, x in row.items() if S[k]), dimV)
              for row in model.beta.nonzeros)
    casimir = combination(((minus_half, s, r) for s, r in zip(S, R) if s and r), dimV)
    own = replace(model)
    rep = FiberRep(own, dimV, table, Matrix.zeros(model.n) if B is None else B)
    rep.unit = bundles.UnitFiber(own, dimV, R, casimir)
    return rep


def _catalog_fiber(name, factors=None):
    """(G, dimV) of a catalog bundle as build_rep receives it."""
    return lambda m: bundles._catalog_generators(m, name, None, factors)


def _monopole(q):
    """The S2 monopole of charge q/2: G_01 = i q/2 on a line."""
    return lambda m: ({(0, 1): Matrix.from_rows([[GaussianRational(0, rational(q, 2))]])}, 1)


_RADII_SIGNED = [(s, r) for s in (sphere, hyperbolic) for r in _RADII]


def _unit_fiber_cases():
    """name: (model, fiber maker, twist blocks or None) over every radius and sign."""
    cases = {}
    for s, r in _RADII_SIGNED:
        tag = f"{s.__name__[0]}_r{r}".replace("/", "_")
        for n in range(2, 7):
            for bundle in ("scalar", "vector", "spinor"):
                cases[f"{bundle}{n}_{tag}"] = (lambda s=s, n=n, r=r: s(n, r),
                                               _catalog_fiber(bundle), None)
        cases[f"flat2x2_vecspin_twist_{tag}"] = (
            lambda s=s, r=r: product([flat(2), s(2, r)]),
            _catalog_fiber("tensor_product", _VS), [rational(1, 3)])
        cases[f"rotated4_spinor_{tag}"] = (lambda s=s, r=r: _rotated(s(4, r)),
                                           _catalog_fiber("spinor"), None)
        for q in (1, 2, 3):
            cases[f"monopole{q}_{tag}"] = (lambda s=s, r=r: s(2, r), _monopole(q), None)
    return cases


class TestUnitFiber:
    """One unit fiber per frame and table: a rep scales R0 and the Casimir,
    reads the frame's check results, and the engine reads the kept cosh
    pencil and commutant unscaled; all against the fiber built at the job's
    own beta, divided by the model's scale."""

    CASES = _unit_fiber_cases()

    @staticmethod
    def _compare(model, rep, ref, k_max=2):
        assert rep.R == ref.R and rep.casimir == ref.casimir
        assert [(c.name, c.passed, c.detail) for c in rep.report.checks] == [
            (c.name, c.passed, c.detail) for c in ref.report.checks]
        fiber, frame = rep.unit, rep.model.unit
        # R0 = R / c and M0 = M / c, from the fiber built at the job's beta
        inv = GaussianRational(1) / (
            _first_entry(rep.model.beta) / _first_entry(frame.beta) if model.p else 1)
        R0 = tuple(r.scale(inv) for r in ref.R)
        assert fiber.R == R0
        heat_coefficients(HeatRequest(model, rep, k_max))
        basis = frame.torus[0]
        assert fiber.cosh[2 * k_max] == cosh_pencil(R0, rep.dimV, 2 * k_max, basis)
        exponent = Matrix.identity(rep.dimV).scale(
            model.scalar_R * rational(1, 8) + model.R_H * rational(1, 6)) - ref.casimir
        assert fiber.prefactor[2 * k_max] == matrix_exp_series(exponent.scale(inv), 2 * k_max)
        if not any(ref.R):  # the commutant is every matrix: nothing is solved
            assert fiber.commutant is None
            return
        engine._commutant_projection(fiber)
        assert fiber.commutant == engine._commutant_duals(ref.R)

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_fiber_built_at_the_job_scale(self, name):
        space, fiber, twist = self.CASES[name]
        m = space()
        G, dimV = fiber(m)
        B = twist_matrix(m, twist) if twist else None
        rep = build_rep(m, G, B, dimV=dimV)
        self._compare(m, rep, _reference_build_rep(m, G, B, dimV))

    @pytest.mark.parametrize("make", [
        lambda m: replace(m),
        lambda m: spaces.SymmetricSpaceModel(m.data, m.D, m.F),
    ], ids=["replace", "constructor"])
    @pytest.mark.parametrize("bundle", ["spinor", "vector"])
    def test_rep_on_an_equal_data_model(self, make, bundle):
        m = sphere(4, rational(2, 3))
        other = make(m)
        G, dimV = _catalog_fiber(bundle)(m)
        ref = _reference_build_rep(m, G, dimV=dimV)
        for rep_model, req_model in ((other, m), (m, other)):
            rep = build_rep(rep_model, G, dimV=dimV)
            self._compare(req_model, rep, ref)
            want = heat_coefficients(HeatRequest(req_model, ref, 3)).a
            assert heat_coefficients(HeatRequest(req_model, rep, 3)).a == want
        assert build_rep(other, G, dimV=dimV).unit is not build_rep(m, G, dimV=dimV).unit

    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    def test_replaced_rep_with_corrupted_r_is_refused(self, space):
        m = space(4, rational(2, 3))
        rep = catalog_rep(m, "spinor")
        R = list(rep.R)
        R[1] = R[1] + R[0].scale(rational(1, 2))
        inv = GaussianRational(1) / _first_entry(m.beta)
        for corrupted in (tuple(R), tuple(r.scale(2) for r in rep.R)):
            # a copy whose unit fiber is built from the corrupted R / c
            bad = replace(rep)
            bad.unit = bundles.UnitFiber(m.unit, rep.dimV, tuple(r.scale(inv) for r in corrupted),
                                         rep.casimir.scale(inv))
            got = validate_rep(bad)
            assert not got.ok and "fiber-holonomy-bracket" in got.failed()
            assert bad.R == corrupted
        assert validate_rep(rep).ok and replace(rep).unit is rep.unit

    def test_failing_fiber_raises_the_same_error_on_every_call(self, monkeypatch):
        # the S3 frame with beta = diag(1, 1, 2): the vector fiber fails
        # integrability at every scale; its unit fiber is derived once
        E = tuple(spaces.unit_bivectors(3).values())
        calls, original = [], bundles._fiber_checks
        monkeypatch.setattr(bundles, "_fiber_checks", lambda *a: calls.append(1) or original(*a))
        for c in (1, rational(2, 3), rational(-5, 2)):
            m = build_model(CurvatureData(n=3, p=3, E=E, beta=Matrix.diag([c, c, 2 * c])))
            with pytest.raises(bundles.BundleError) as info:
                catalog_rep(m, "vector")
            assert str(info.value) == ("fiber checks failed: casimir-centrality, "
                                       "fiber-curvature-integrability")
        assert len(calls) == 1

    def test_rep_moved_to_another_model_derives_r_there(self):
        # a radius-1 rep moved onto the radius-2 model of its frame reads the
        # frame's one unit fiber and takes R and the Casimir at the new scale
        m, other = sphere(4, 1), sphere(4, 2)
        rep = catalog_rep(m, "spinor")
        moved, want = replace(rep, model=other), catalog_rep(other, "spinor")
        assert moved.unit is rep.unit is want.unit
        assert (moved.R, moved.casimir) == (want.R, want.casimir) != (rep.R, rep.casimir)
        assert validate_rep(moved).ok

    def test_one_derivation_per_frame_table_and_degree(self, monkeypatch):
        # six radii and two signs in the catalog and the rotated S4 frame, and
        # on flat2 x S2 with a twist, each job at k = 2 and 3
        calls = []
        for owner, name in ((bundles, "_table_checks"), (bundles, "_fiber_checks"),
                            (engine, "cosh_pencil"), (engine, "_commutant_duals")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, name=name, original=original:
                                calls.append((name, a)) or original(*a))
        for table in (bundles._catalog_table("spinor", 4, ())[0],
                      bundles._catalog_table("tensor_product", 4, tuple(_VS))[0]):
            monkeypatch.setattr(table, "fibers", weakref.WeakKeyDictionary())
        radii = (1, rational(2, 3), rational(5, 2), rational(3, 7), rational(9, 4), 7)
        frames = {
            "s4": (lambda s, r: s(4, r), "spinor", None),
            "rotated_s4": (lambda s, r: _rotated(s(4, r)), "spinor", None),
            "flat2xs2": (lambda s, r: product([flat(2), s(2, r)]), "tensor_product", _VS),
        }
        for frame, (space, bundle, factors) in frames.items():
            calls.clear()
            units = set()
            for s in (sphere, hyperbolic):
                for r in radii:
                    m = space(s, r)
                    twist = [rational(1, 3)] if factors else None
                    rep = catalog_rep(m, bundle, factors=factors, twist=twist)
                    G, dimV = _catalog_fiber(bundle, factors)(m)
                    ref = _reference_build_rep(m, G, rep.B, dimV)
                    assert rep.R == ref.R
                    units.add(rep.unit)
                    for k_max in (2, 3):
                        want = _reference_heat_coefficients(HeatRequest(m, ref, k_max))
                        assert heat_coefficients(HeatRequest(m, rep, k_max)).a == want
            assert len(units) == 1, frame
            unit_R = next(iter(units)).R
            seen = {}
            for name, args in calls:
                # the fiber checks on the shared unit fiber's R, not those of
                # the references' own fibers
                if name != "_fiber_checks" or args[1] is unit_R:
                    seen.setdefault(name, []).append(args[2] if name == "cosh_pencil" else None)
            assert len(seen["_fiber_checks"]) == 1, frame
            assert sorted(seen["cosh_pencil"]) == [4, 6], frame
            projected = frame != "flat2xs2"  # h abelian on flat2 x S2
            assert len(seen.get("_commutant_duals", ())) == projected, frame
            assert len(seen.get("_table_checks", ())) <= 1, frame

    def test_unit_scale_parts_once_per_frame_fiber_and_degree(self, monkeypatch):
        # twelve radii and signs of S4 spinor on a fresh frame, each at k = 2 and 3
        _fresh_frames(monkeypatch)
        calls = []
        for owner, name in ((engine, "matrix_exp_series"), (engine, "cosh_pencil"),
                            (spaces, "weyl_density")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, name=name, original=original:
                                calls.append(name) or original(*a))
        diagonal = GaussianWeight.diagonal
        monkeypatch.setattr(GaussianWeight, "diagonal", classmethod(
            lambda cls, *a: calls.append("diagonal") or diagonal(*a)))
        for s in (sphere, hyperbolic):
            for r in (1, rational(2, 3), rational(5, 2), rational(3, 7), rational(9, 4), 7):
                m = s(4, r)
                rep = catalog_rep(m, "spinor")
                for k_max in (2, 3):
                    heat_coefficients(HeatRequest(m, rep, k_max))
        assert sorted(calls) == ["cosh_pencil"] * 2 + ["diagonal"] + [
            "matrix_exp_series"] * 2 + ["weyl_density"]


def _fresh_frames(monkeypatch):
    """Have build_model derive every frame anew, so each frame, and each unit
    fiber of a table on it, starts with nothing kept."""
    memo = spaces._frame
    monkeypatch.setattr(spaces, "_frame",
                        lru_cache(maxsize=memo.cache_info().maxsize)(memo.__wrapped__))


class TestOneScalingPoint:
    """b_m(c) = c^m b0_m: the engine runs the bracket, its average and the
    prefactor at the frame's unit scale.  A model that dataclasses.replace
    made is its own frame, c = 1, and a rep built on it has its fiber on
    that frame too, so that route runs wholly at the job's scale; the
    crossed requests pair a model with a rep built on the other."""

    CASES = {
        "flat2xs2_vecspin_twist": (lambda s, r: product([flat(2), s(2, r)]),
                                   _catalog_fiber("tensor_product", _VS), [rational(1, 3)]),
        "vecspin3": (lambda s, r: s(3, r), _catalog_fiber("tensor_product", _VS), None),
        "spinor4": (lambda s, r: s(4, r), _catalog_fiber("spinor"), None),
        **{f"monopole{q}": (lambda s, r: s(2, r), _monopole(q), None) for q in (1, 2, 3)},
        "rotated4_spinor": (lambda s, r: _rotated(s(4, r)), _catalog_fiber("spinor"), None),
    }

    @pytest.mark.parametrize("radius", [rational(2, 3), rational(5, 2)])
    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_the_job_scale_route(self, monkeypatch, name, space, radius):
        # fresh frames, so each fiber derives its prefactor at k = 2 before k = 3
        _fresh_frames(monkeypatch)
        make, fiber, twist = self.CASES[name]
        m = make(space, radius)
        own = replace(m)
        G, dimV = fiber(m)
        B = twist_matrix(m, twist) if twist else None
        reps = [build_rep(x, G, B, dimV=dimV) for x in (m, own)]
        assert m.unit.beta == m.beta.scale(1 / _first_entry(m.beta)) != m.beta
        assert m.scale == _first_entry(m.beta) and own.unit is own and own.scale == 1
        assert reps[1].unit.R == reps[1].R
        for k_max in (2, 3):
            want = heat_coefficients(HeatRequest(own, reps[1], k_max)).a
            for model in (m, own):
                for rep in reps:
                    assert heat_coefficients(HeatRequest(model, rep, k_max)).a == want


class TestOneFiberPerRepFrame:
    """One route from a table to a fiber, however the rep was made: by
    build_rep, by dataclasses.replace (onto the same model or a copy) or by a
    direct FiberRep call.  Its unit fiber is its table's on its model's
    frame, built once per frame and table; R and the Casimir are c times the
    unit fiber's, for the model's scale c; its report is validate_rep's.  The
    engine runs on the rep's model, so a request reads one frame, one c and
    one fiber, and every crossed request gives the same a_k."""

    CASES = {
        "spinor4": (lambda s, r: s(4, r), _catalog_fiber("spinor"), None),
        "rotated4_spinor": (lambda s, r: _rotated(s(4, r)), _catalog_fiber("spinor"), None),
        "flat2xs2_vecspin_twist": (lambda s, r: product([flat(2), s(2, r)]),
                                   _catalog_fiber("tensor_product", _VS), [rational(1, 3)]),
        "monopole1": (lambda s, r: s(2, r), _monopole(1), None),
    }

    @pytest.mark.parametrize("radius", [rational(2, 3), rational(5, 2)])
    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    @pytest.mark.parametrize("name", list(CASES))
    def test_every_rep_reads_its_model_frame(self, monkeypatch, name, space, radius):
        _fresh_frames(monkeypatch)  # so no unit fiber of the frame is kept yet
        inits, init = [], bundles.UnitFiber.__init__
        monkeypatch.setattr(bundles.UnitFiber, "__init__",
                            lambda self, *a: inits.append(a[0]) or init(self, *a))
        make, fiber, twist = self.CASES[name]
        m = make(space, radius)
        own = replace(m)
        G, dimV = fiber(m)
        B = twist_matrix(m, twist) if twist else None
        built = build_rep(m, G, B, dimV=dimV)
        assert set(vars(built)) == {"model", "dimV", "G", "B", "unit", "report"}
        reps = [built, replace(built), FiberRep(m, dimV, built.G, built.B),
                build_rep(own, G, B, dimV=dimV), replace(built, model=own)]
        assert m.scale != 1 and own.scale == 1
        for rep in reps:
            c = rep.model.scale
            assert rep.unit is rep.G.fibers[rep.model.unit]
            assert rep.R == tuple(r.scale(c) for r in rep.unit.R)
            assert rep.casimir == rep.unit.casimir.scale(c)
            assert rep.report == validate_rep(rep)
            # each check item scales as c^2 and names indices only
            assert rep.unit.checks == bundles._fiber_checks(rep.model, rep.R, rep.casimir)
        # a dict G makes a table per build_rep call; a GeneratorTable is shared
        pairs = {(id(rep.model.unit), id(rep.G)) for rep in reps}
        assert len(inits) == len(pairs) == (3 if isinstance(G, dict) else 2)
        for k_max in (2, 3):
            want = heat_coefficients(HeatRequest(m, built, k_max)).a
            for model in (m, own):
                for rep in reps:
                    assert heat_coefficients(HeatRequest(model, rep, k_max)).a == want


class TestTracedProjectedJob:
    """The benchmark's tracer on a projected fiber whose second job reads
    the table checks, the fiber checks, the cosh pencil, the prefactor and
    the commutant from its unit fiber."""

    def test_second_radius_hits_the_memo(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REFS.parent))
        import run
        from jobmix import WORKLOADS, Job
        from refcheck import load_refs
        from spans import Tracer
        from symheat import bundles

        api = run.import_symheat()
        jtype = next(t for t in WORKLOADS["fiber_heavy"] if t.name == "s4_spinor_k3")
        refs = load_refs([jtype])
        # a cold start: the S4 spinor table with no unit fiber yet
        table, _ = bundles._catalog_table("spinor", 4, ())
        monkeypatch.setattr(table, "fibers", weakref.WeakKeyDictionary())
        calls = []
        for owner, name in ((bundles, "_table_checks"), (bundles, "_fiber_checks"),
                            (engine, "_commutant_duals")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, name=name, original=original:
                                calls.append(name) or original(*a))
        tracer, times, per_job = Tracer(), [], []
        with tracer.installed():
            for job_id, (sign, radius) in enumerate(((1, rational(3, 2)),
                                                     (-1, rational(2, 5)))):
                calls.clear()
                with tracer.job(job_id):
                    dt, ok = run.run_job(api, Job(jtype, sign, radius), refs[jtype.name, sign],
                                         tracer)
                assert ok
                times.append(dt)
                per_job.append(list(calls))
        # the first job derives the unit fiber, its pencil and its commutant
        # (the table's own checks may be kept from an earlier test); the
        # second derives none of them
        assert {"_fiber_checks", "_commutant_duals"} <= set(per_job[0])
        assert per_job[1] == []
        cold, warm = ({s.name for s in tracer.spans if s.job == j} for j in (0, 1))
        assert {"job", *run.SPAN_TIMES.values()} <= cold
        kept = {"series.cosh", "series.prefactor"}
        assert {"job", *run.SPAN_TIMES.values()} - kept <= warm
        assert not kept & warm
        metrics = run.per_layer_metrics(tracer, 2, times, times)
        assert set(metrics) == set(run.PER_LAYER)
        assert metrics["bundles.build_rep_calls"] > 0 and metrics["wick.monomials"] > 0


class TestTracerContract:
    """What perfbench/spans.py and its tests read off a job, on a cold and a
    warm job of every benchmark job type: one det_F and one det_D span (the
    pencils take model.F and model.D by identity), a bracket product directly
    under engine.solve, and average_monomial calls; and the per-layer metrics
    of a traced run of warm jobs alone."""

    def test_cold_and_warm_jobs_of_every_type(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REFS.parent))
        import run
        from fractions import Fraction
        from jobmix import WORKLOADS, Job
        from refcheck import load_refs
        from spans import Tracer

        api = run.import_symheat()
        _fresh_frames(monkeypatch)
        types = [t for workload in WORKLOADS.values() for t in workload]
        assert len(types) == 9
        refs = load_refs(types)
        jobs = [Job(t, sign, Fraction(r)) for t in types
                for sign, r in ((1, "3/2"), (-1, "2/5"), (1, "7/4"))]
        cold, warm = Tracer(), Tracer()
        times = []
        for tracer, batch in ((cold, jobs[::3] + jobs[1::3]), (warm, jobs[2::3])):
            with tracer.installed():
                for job_id, job in enumerate(batch):
                    with tracer.job(job_id):
                        dt, ok = run.run_job(api, job, refs[job.type.name, job.sign], tracer)
                    assert ok, job.key
                    if tracer is warm:
                        times.append(dt)
            monomials = Counter(j for j, _ in tracer.moment_keys)
            for job_id, job in enumerate(batch):
                spans = [s for s in tracer.spans if s.job == job_id]
                names = Counter(s.name for s in spans)
                assert names["series.det_F"] == names["series.det_D"] == 1, job.key
                solve = next(s.id for s in spans if s.name == "engine.solve")
                assert any(s.name == "series.bracket" and s.parent == solve for s in spans)
                assert monomials[job_id] > 0, job.key
        # the third batch runs on frames and fibers the first two warmed
        assert not {"series.cosh", "series.prefactor"} & {s.name for s in warm.spans}
        metrics = run.per_layer_metrics(warm, len(times), times, times)
        assert set(metrics) == set(run.PER_LAYER)
        assert metrics["wick.monomials"] > 0 and 0 <= metrics["wick.reuse_ratio"] < 1


def _whole_pencil_weyl_density(mats, basis):
    """e_(p-r) of the whole p x p restricted pencil by Newton's identities,
    every coordinate in one expansion: the reference for the block density."""
    p, r = len(mats), len(basis)
    zero_mono = (0,) * r
    gens, _ = _sparse_generators(mats, 1, 1, basis)
    psums = _direct_power_sums(gens, range(p), p - r, zero_mono)
    return _elementary_symmetric(psums, p - r, zero_mono)[p - r]


def _heisenberg_F():
    F = [Matrix.zeros(3) for _ in range(3)]
    F[0] = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    F[1] = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [-1, 0, 0]])
    return F


class TestBlockWeylDensity:
    """weyl_density by coupling blocks against the whole-pencil expansion."""

    MODELS = {
        **{f"s{n}": (lambda n=n: sphere(n, 1)) for n in range(2, 9)},
        **{f"h{n}": (lambda n=n: hyperbolic(n, 1)) for n in range(2, 9)},
        "flat2_s2": lambda: product([flat(2), sphere(2, 1)]),
        "s2_s2_s2": lambda: product([sphere(2, 1)] * 3),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_greedy_torus_matches_whole_pencil(self, name):
        m = self.MODELS[name]()
        basis = next(_cartan_candidates(m.F))
        got = weyl_density(m.F, basis)
        assert got and got == _whole_pencil_weyl_density(m.F, basis)

    @pytest.mark.parametrize("space", [sphere, hyperbolic])
    def test_rotated_frame_on_every_candidate(self, space):
        m = _rotated(space(4, 1))
        densities = []
        for basis in _cartan_candidates(m.F):
            densities.append(weyl_density(m.F, basis))
            assert densities[-1] == _whole_pencil_weyl_density(m.F, basis)
        # the greedy span gives W = 0, a centralizer basis W != 0
        assert not densities[0] and any(densities[1:])

    def test_so4_one_vector_span_is_zero(self):
        m = sphere(4, 1)
        basis = [tuple(int(i == j) for j in range(6)) for i in (0, 5)]
        assert weyl_density(m.F, basis[:1]) == _whole_pencil_weyl_density(m.F, basis[:1]) == {}

    def test_heisenberg_is_zero_on_every_candidate(self):
        F = _heisenberg_F()
        for basis in _cartan_candidates(F):
            assert weyl_density(F, basis) == _whole_pencil_weyl_density(F, basis) == {}

    def test_blocks_whose_tops_exceed_p_minus_r(self):
        # a block-diagonal pencil that is no adjoint pencil, on blocks {0, 1}
        # and {2, 3, 4}: the tops add up to 5 > p - r = 3, so e_3 sums over
        # several choices of one coefficient per block
        rng = random.Random(22)
        blocks = ((0, 1), (2, 3, 4))
        mats = [Matrix.from_nonzeros(5, [
            {c: GaussianRational(rational(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                                 rng.randint(-1, 1))
             for b in blocks if r in b for c in b} for r in range(5)]) for _ in range(5)]
        basis = [(1, 0, 2, 0, -1), (0, 1, 0, rational(1, 3), 1)]
        got = weyl_density(mats, basis)
        assert len(got) > 1 and got == _whole_pencil_weyl_density(mats, basis)


    def test_single_coordinates_touched_or_not(self):
        # coordinate 2 is touched by a diagonal entry alone and coordinate 3 by
        # nothing: both are one-coordinate blocks, and only the first counts
        mats = [Matrix.from_nonzeros(4, rows) for rows in (
            [{0: q(1), 1: q(1)}, {}, {2: q(2)}, {}],
            [{}, {0: q(1)}, {2: q(-3)}, {}],
            [{}] * 4, [{}] * 4)]
        basis = [(1, 0, 0, 0), (0, 1, 0, 0)]
        got = weyl_density(mats, basis)
        assert got and got == _whole_pencil_weyl_density(mats, basis)


class TestReport:
    def test_scalar_formatting(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 1))
        text = render_report_text(coefficient_report(hc))
        assert "a_1 = 1/3 (~0.333333)" in text

    def test_json_structure(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 1))
        rep = coefficient_report(hc, mode="exact")
        assert rep["a"][0]["matrix"] == [["1/1"]]
        assert rep["a"][1]["matrix"] == [["1/3"]]
        json.dumps(rep)  # must be serializable as-is

    def test_kmax_zero_only_a0(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 0))
        rep = coefficient_report(hc)
        assert len(rep["a"]) == 1

    def test_matrix_rendering(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "spinor"), 1))
        rep = coefficient_report(hc, mode="exact")
        assert rep["a"][1]["matrix"][0][0] == "1/3"
        text = render_report_text(rep)
        assert "a_1 =" in text

    def test_bad_mode(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 0))
        with pytest.raises(ValueError):
            coefficient_report(hc, mode="fancy")

    def test_decimal_entries_match_float_of_fraction(self):
        # the float of each part, rounded as float(Fraction) rounds it, on
        # parts far beyond 2**53 and parts whose p and d share a factor
        # (re = p/d is then reduced before it is rounded)
        big = 3 ** 700
        parts = [(0, 1), (1, 3), (-2, 3), (big + 1, big), (-(big - 1), 3 * big),
                 (2 ** 80 + 1, 2 ** 80), (10 ** 400 + 7, 10 ** 403), (1, 7 ** 300),
                 (6 * big + 3, 9 * big)]
        entries = [GaussianRational(rational(a, b), rational(c, d))
                   for a, b in parts for c, d in parts]
        m = Matrix(len(parts), len(parts), entries)

        def reference(x):
            if x.im == 0:
                return float(x.re)
            return {"re": float(x.re), "im": float(x.im)}

        want = [[reference(x) for x in m.row(i)] for i in range(m.rows)]
        got = engine._matrix_decimal_json(m)
        assert json.dumps(got) == json.dumps(want)
        assert got == want


class TestTracedNames:
    """perfbench/spans.py wraps these engine-level names, looked up at call time."""

    NAMES = ("cosh_pencil", "det_sinhc_pencil", "det_sinhc_numeric",
             "matrix_exp_series", "average_poly")

    def test_engine_calls_each_traced_name(self, monkeypatch):
        model = product([flat(2), sphere(2, 1)])
        rep = catalog_rep(model, "spinor", twist=[rational(1, 2)])
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append((name, args[0], out))
                return out
            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        heat_coefficients(HeatRequest(model, rep, 2))
        assert sorted(name for name, _, _ in calls) == sorted(
            self.NAMES + ("det_sinhc_pencil",))
        # the tracer tells the two det pencils apart by identity, F first
        dets = [first for name, first, _ in calls if name == "det_sinhc_pencil"]
        assert dets[0] is model.F and dets[1] is model.D
        # and reads the terms of the cosh and det pencils
        for name, _, out in calls:
            if name in ("cosh_pencil", "det_sinhc_pencil"):
                assert isinstance(out, SeriesPoly)


class TestGoldenReports:
    """Radius-1 reports, byte for byte, against the benchmark's stored refs."""

    VS = {"catalog": "tensor_product", "factors": ["vector", "spinor"]}
    # name: (n, bundle, k_max, twist block on a flat(2) factor or None)
    JOBS = {
        "s4_scalar_k4": (4, {"catalog": "scalar"}, 4, None),
        "s5_scalar_k2": (5, {"catalog": "scalar"}, 2, None),
        "s4_scalar_k3": (4, {"catalog": "scalar"}, 3, None),
        "s2_scalar_k6": (2, {"catalog": "scalar"}, 6, None),
        "s2_spinor_k6": (2, {"catalog": "spinor"}, 6, None),
        "s3_spinor_k6": (3, {"catalog": "spinor"}, 6, None),
        "flat2xs2_vecspin_twist_k4": (2, VS, 4, "1/3"),
        "s4_spinor_k3": (4, {"catalog": "spinor"}, 3, None),
        "s3_vecspin_k3": (3, VS, 3, None),
    }

    @pytest.mark.parametrize("sign", ["sphere", "hyperbolic"])
    @pytest.mark.parametrize("name", list(JOBS))
    def test_report_matches_ref(self, name, sign):
        n, bundle, k_max, block = self.JOBS[name]
        space = {"catalog": sign, "params": {"n": n, "radius": "1"}}
        if block is not None:
            space = {"catalog": "product", "params": {"factors": [
                {"catalog": "flat", "params": {"n": 2}}, space]}}
        model = space_from_descriptor(space)
        rep = rep_from_descriptor(model, bundle, block and {"blocks": [block]})
        hc = heat_coefficients(HeatRequest(model, rep, k_max))
        text = json.dumps(coefficient_report(hc, mode="exact"), indent=2, sort_keys=True)
        assert text + "\n" == (REFS / f"{name}.{sign}.json").read_text(encoding="utf-8")


class TestFusedAssembly:
    """a_k is one combination per k of the unit-scale parts; checked against
    the term-by-term sum with each part's power of its scale."""

    CASES = {
        "flat2xs2_vecspin_twist_k4": lambda: HeatRequest(
            *_flat2_x_s2_vector_spinor(), 4),
        "s4_spinor_k3": lambda: _catalog_request(lambda: sphere(4, rational(2, 3)), "spinor", 3),
        "h3_vecspin_k3": lambda: _catalog_request(lambda: hyperbolic(3, 1), "tensor_product", 3,
                                                  factors=_VS),
        "s2_scalar_k5": lambda: _catalog_request(lambda: sphere(2, 2), "scalar", 5),
        "flat2_twist_k6": lambda: _job_request(JOBS / "flat2_twist.json", 6),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_term_by_term_sum(self, monkeypatch, name):
        seen = {}

        def recording(key, fn):
            def wrapper(*args, **kwargs):
                seen[key] = out = fn(*args, **kwargs)
                return out
            return wrapper

        def recording_projection(fiber):
            project = original_projection(fiber)
            projected = seen.setdefault("projected", [])
            return lambda a: projected.append(project(a)) or projected[-1]

        original_projection = engine._commutant_projection
        for key in ("average_poly", "det_sinhc_numeric"):
            monkeypatch.setattr(engine, key, recording(key, getattr(engine, key)))
        monkeypatch.setattr(engine, "_commutant_projection", recording_projection)
        req = self.CASES[name]()
        got = heat_coefficients(req).a
        k_max, dimV, model = req.k_max, req.rep.dimV, req.model
        # the frame's scale c, and the prefactor kept on the fiber: the
        # series of M0 = M / c, M formed at the job's scale
        c = _first_entry(model.beta) / _first_entry(model.unit.beta) if model.p else q(1)
        assert req.rep.model.scale == c
        prefactor = req.rep.unit.prefactor[2 * k_max]
        exponent = Matrix.identity(dimV).scale(
            model.scalar_R * rational(1, 8) + model.R_H * rational(1, 6)) - req.rep.casimir
        assert prefactor == matrix_exp_series(exponent.scale(q(1) / c), 2 * k_max)
        twist = seen["det_sinhc_numeric"]
        averaged = seen.get("projected", seen["average_poly"])
        want = [Matrix.zeros(dimV)] * (k_max + 1)
        for i, pre in enumerate(prefactor):
            for j, avg in enumerate(averaged[: k_max + 1 - i]):
                prod = (pre * avg).scale(_power(c, i + j))
                for k in range(i + j, k_max + 1):
                    if twist[k - i - j]:
                        want[k] = want[k] + prod.scale(twist[k - i - j])
        assert list(got) == want
        assert ("projected" in seen) == (name in ("s4_spinor_k3", "h3_vecspin_k3"))


def _flat2_x_s2_vector_spinor():
    model = product([flat(2), sphere(2, 1)])
    return model, catalog_rep(model, "tensor_product", factors=_VS, twist=[rational(1, 3)])


class TestMatmulCount:
    """Products that are sums of products do not go through Matrix.matmul."""

    def _counting(self, monkeypatch):
        calls = []
        original = Matrix.matmul
        monkeypatch.setattr(Matrix, "matmul", lambda a, b: calls.append(1) or original(a, b))
        return calls

    def test_commutator_makes_no_matmul_call(self, monkeypatch):
        from symheat.exact import commutator
        a = Matrix.from_rows([[0, 1, 0], [GaussianRational(0, 1), 0, 2], [0, 0, HALF]])
        b = a.transpose()
        want = a * b - b * a
        calls = self._counting(monkeypatch)
        assert commutator(a, b) == want
        assert calls == []

    def test_matmul_calls_per_heat_coefficients(self, monkeypatch):
        # none: the prefactor's steps and the sums of prefactor[i] *
        # averaged[j] pass their products to a combination as factors, the
        # request's beta-f-invariance check sums its entries, and the weight
        # is diagonal on the beta-orthogonal torus, formed with its inverse
        # by GaussianWeight.diagonal, which has no product to check
        model, rep = _flat2_x_s2_vector_spinor()
        calls = self._counting(monkeypatch)
        heat_coefficients(HeatRequest(model, rep, 4))
        assert len(calls) == 0


def test_readme_library_example_runs_as_written():
    # the README's library example, executed from the README itself: on flat
    # R2 x unit S2, R = 2, so a_1 = (R/6) I on the spinor fiber of dimV 4
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    assert scope["coeffs"].a[1] == Matrix.identity(4).scale(rational(1, 3))
