import json
from pathlib import Path

import pytest

from symheat import engine
from symheat.bundles import (
    catalog_rep,
    rep_from_descriptor,
    scalar_rep,
    spinor_rep,
    vector_rep,
)
from symheat.engine import (
    HeatCoefficients,
    HeatRequest,
    RepModelMismatchError,
    TruncationOverflowError,
    coefficient_report,
    heat_coefficients,
    heat_trace,
    render_report_text,
)
from symheat.exact import GaussianRational, Matrix, rational
from symheat.series import SeriesPoly, det_sinhc_numeric
from symheat.spaces import flat, hyperbolic, product, space_from_descriptor, sphere

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


def q(a, b=1):
    return GaussianRational(rational(a, b))


def scalar_coeffs(model, k_max):
    hc = heat_coefficients(HeatRequest(model, scalar_rep(model), k_max))
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
        hc = heat_coefficients(HeatRequest(m, spinor_rep(m), 2))
        assert hc.a[1] == Matrix.identity(2).scale(rational(1, 3))
        assert hc.a[2] == Matrix.identity(2).scale(rational(1, 40))

    def test_s2_vector(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, vector_rep(m), 2))
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


class TestHeatTrace:
    def test_s2_scalar_normalized_trace(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 1))
        res = heat_trace(hc, 4)  # volume 4*pi with the pi tracked outside
        assert res.A[1] / res.volume == rational(1, 3)

    def test_a0_trace_is_volume_times_dim(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, spinor_rep(m), 0))
        res = heat_trace(hc, rational(7, 2))
        assert res.A[0] == rational(7, 2) * 2

    def test_spinor_trace(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, spinor_rep(m), 1))
        res = heat_trace(hc, 1)
        assert res.A[1] == rational(2, 3)

    def test_nonpositive_volume_rejected(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 0))
        with pytest.raises(ValueError):
            heat_trace(hc, 0)


class TestRequestValidation:
    def test_kmax_overflow(self):
        m = sphere(2, 1)
        with pytest.raises(TruncationOverflowError):
            HeatRequest(m, scalar_rep(m), 7)
        with pytest.raises(TruncationOverflowError):
            HeatRequest(m, scalar_rep(m), -1)

    def test_rep_model_mismatch(self):
        m2, m3 = sphere(2, 1), sphere(3, 1)
        with pytest.raises(RepModelMismatchError):
            HeatRequest(m2, scalar_rep(m3), 1)

    def test_equal_data_accepted(self):
        rep = scalar_rep(sphere(2, 1))
        HeatRequest(sphere(2, 1), rep, 1)  # same data, different object


class TestReport:
    def test_scalar_formatting(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 1))
        text = render_report_text(coefficient_report(hc))
        assert "a_1 = 1/3 (~0.333333)" in text

    def test_json_structure(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 1))
        rep = coefficient_report(hc, mode="exact")
        assert rep["a"][0]["matrix"] == [["1/1"]]
        assert rep["a"][1]["matrix"] == [["1/3"]]
        json.dumps(rep)  # must be serializable as-is

    def test_kmax_zero_only_a0(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 0))
        rep = coefficient_report(hc)
        assert len(rep["a"]) == 1

    def test_matrix_rendering(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, spinor_rep(m), 1))
        rep = coefficient_report(hc, mode="exact")
        assert rep["a"][1]["matrix"][0][0] == "1/3"
        text = render_report_text(rep)
        assert "a_1 =" in text

    def test_bad_mode(self):
        m = sphere(2, 1)
        hc = heat_coefficients(HeatRequest(m, scalar_rep(m), 0))
        with pytest.raises(ValueError):
            coefficient_report(hc, mode="fancy")


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

    JOBS = {
        "s4_scalar_k4": (4, {"catalog": "scalar"}, 4),
        "s5_scalar_k2": (5, {"catalog": "scalar"}, 2),
        "s2_spinor_k6": (2, {"catalog": "spinor"}, 6),
        "s3_vecspin_k3": (3, {"catalog": "tensor_product", "factors": ["vector", "spinor"]}, 3),
        "s4_spinor_k3": (4, {"catalog": "spinor"}, 3),
    }

    @pytest.mark.parametrize("sign", ["sphere", "hyperbolic"])
    @pytest.mark.parametrize("name", list(JOBS))
    def test_report_matches_ref(self, name, sign):
        n, bundle, k_max = self.JOBS[name]
        model = space_from_descriptor({"catalog": sign, "params": {"n": n, "radius": "1"}})
        rep = rep_from_descriptor(model, bundle, None)
        hc = heat_coefficients(HeatRequest(model, rep, k_max))
        text = json.dumps(coefficient_report(hc, mode="exact"), indent=2, sort_keys=True)
        assert text + "\n" == (REFS / f"{name}.{sign}.json").read_text(encoding="utf-8")
