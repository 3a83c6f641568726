import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from mpmath import mp

import symheat
from symheat.bundles import catalog_rep, scalar_rep, spinor_rep, vector_rep
from symheat.engine import HeatRequest, heat_coefficients
from symheat.exact import GaussianRational, Matrix, rational
from symheat.oracles import (
    SpectralModel,
    extract_coefficients,
    gilkey_a1,
    gilkey_a2,
    sphere_trace,
)
from symheat.spaces import flat, hyperbolic, product, sphere


def test_import_does_not_load_mpmath():
    # the oracles import mpmath only when they run; numpy and sympy stay out too,
    # also for the CLI, whose check-group command alone loads numpy
    src = str(Path(symheat.__file__).resolve().parents[1])
    for module in ("symheat", "symheat.cli"):
        code = (f"import {module}, sys; "
                "loaded = {'mpmath', 'numpy', 'sympy'} & set(sys.modules); assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


def test_spaces_does_not_load_the_engine():
    # the package __init__ imports every module, so symheat is stood in by a
    # bare package of the same path: what loads then is what spaces imports
    pkg = str(Path(symheat.__file__).resolve().parent)
    code = ("import sys, types; pkg = types.ModuleType('symheat'); "
            f"pkg.__path__ = [{pkg!r}]; sys.modules['symheat'] = pkg; import symheat.spaces; "
            "loaded = {'symheat.engine', 'symheat.bundles', 'symheat.wick'} & set(sys.modules); "
            "assert 'symheat.series' in sys.modules and not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True)


class TestSpectralModel:
    def test_s2_multiplicities(self):
        sm = SpectralModel(2)
        assert [sm.multiplicity(l) for l in range(5)] == [1, 3, 5, 7, 9]

    def test_s3_multiplicities(self):
        sm = SpectralModel(3)
        assert [sm.multiplicity(l) for l in range(5)] == [1, 4, 9, 16, 25]

    def test_s4_multiplicities(self):
        sm = SpectralModel(4)
        # (2l+3)(l+1)(l+2)/6
        assert [sm.multiplicity(l) for l in range(4)] == [1, 5, 14, 30]

    def test_eigenvalues_scale_with_radius(self):
        sm = SpectralModel(2, rational(2))
        assert mp.almosteq(sm.eigenvalue(1), mp.mpf(2) / 4)

    def test_volume_s2(self):
        sm = SpectralModel(2)
        assert mp.almosteq(sm.volume(), 4 * mp.pi)


class TestSphereTrace:
    def test_s2_at_t_one(self):
        # frozen from direct 60-digit summation of sum (2l+1) e^{-l(l+1)}
        with mp.workdps(40):
            got = sphere_trace(SpectralModel(2), 1)
            want = mp.mpf("1.41844263863105511321351408405")
            assert abs(got - want) < mp.mpf("1e-28")

    def test_matches_independent_inline_sum(self):
        with mp.workdps(50):
            total = mp.mpf(0)
            for l in range(120):
                total += (2 * l + 1) * mp.e ** (-mp.mpf("0.3") * l * (l + 1))
            got = sphere_trace(SpectralModel(2), mp.mpf("0.3"))
            assert abs(got - total) < mp.mpf("1e-40")

    def test_large_t_approaches_ground_state(self):
        got = sphere_trace(SpectralModel(2), 40)
        assert abs(got - 1) < 1e-30

    def test_s3_index_shift_identity(self):
        # sum (l+1)^2 e^{-t l(l+2)} = e^t sum_{m>=1} m^2 e^{-t m^2}
        with mp.workdps(50):
            t = mp.mpf("0.5")
            got = sphere_trace(SpectralModel(3), t)
            shifted = mp.mpf(0)
            for m in range(1, 120):
                shifted += m * m * mp.e ** (-t * m * m)
            shifted *= mp.e**t
            assert abs(got - shifted) < mp.mpf("1e-40")
            assert abs(got - mp.mpf("2.06636525163437411909233915363")) < mp.mpf("1e-28")

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError):
            sphere_trace(SpectralModel(2), 0)


class TestExtraction:
    def test_s2_coefficients(self):
        vals, errs = extract_coefficients(SpectralModel(2), 3)
        true = [1, 1 / 3, 1 / 15, 4 / 315]
        for k, (v, t) in enumerate(zip(vals, true)):
            tol = 1e-6 if k <= 2 else 1e-5
            assert abs(v - t) < tol

    def test_s3_coefficients(self):
        vals, _ = extract_coefficients(SpectralModel(3), 3)
        true = [1, 1, 0.5, 1 / 6]
        for v, t in zip(vals, true):
            assert abs(v - t) < 1e-5

    def test_error_estimates_bound_deviation(self):
        vals, errs = extract_coefficients(SpectralModel(2), 3)
        true = [1, 1 / 3, 1 / 15, 4 / 315]
        for v, t, e in zip(vals, true, errs):
            assert abs(v - t) <= 10 * e + 1e-12

    def test_k4_best_effort(self):
        vals, _ = extract_coefficients(SpectralModel(2), 4)
        assert abs(vals[4] - 1 / 315) < 1e-4

    def test_kmax_guard(self):
        with pytest.raises(ValueError):
            extract_coefficients(SpectralModel(2), 5)


class TestGilkey:
    def test_s2_scalar(self):
        m = sphere(2, 1)
        rep = scalar_rep(m)
        assert gilkey_a1(m, rep)[0, 0] == GaussianRational(rational(1, 3))
        # (1/180)(4 - 2) + (1/72)*4 = 1/15
        assert gilkey_a2(m, rep)[0, 0] == GaussianRational(rational(1, 15))

    def test_s2_spinor(self):
        m = sphere(2, 1)
        rep = spinor_rep(m)
        want = Matrix.identity(2).scale(rational(1, 15))
        omega2 = Matrix.zeros(2)
        for a in range(2):
            for b in range(2):
                omega2 = omega2 + rep.Omega[a][b] * rep.Omega[a][b]
        want = want + omega2.scale(rational(1, 12))
        assert gilkey_a2(m, rep) == want
        assert gilkey_a2(m, rep) == Matrix.identity(2).scale(rational(1, 40))

    def test_flat_twist(self):
        m = flat(2)
        b = rational(5, 4)
        rep = catalog_rep(m, "u1_twist", twist=[b])
        assert gilkey_a1(m, rep).is_zero()
        assert gilkey_a2(m, rep)[0, 0] == GaussianRational(-b * b / 6)

    @pytest.mark.parametrize("maker", [
        lambda: sphere(2, 1),
        lambda: sphere(3, 1),
        lambda: hyperbolic(2, 1),
        lambda: product([flat(2), sphere(2, 1)]),
    ])
    @pytest.mark.parametrize("repname", ["scalar", "vector", "spinor"])
    def test_matches_heat_engine(self, maker, repname):
        model = maker()
        rep = catalog_rep(model, repname)
        hc = heat_coefficients(HeatRequest(model, rep, 2))
        assert hc.a[1] == gilkey_a1(model, rep)
        assert hc.a[2] == gilkey_a2(model, rep)

    def test_matches_heat_engine_with_twist(self):
        model = product([flat(2), sphere(2, 1)])
        rep = catalog_rep(model, "spinor", twist=[rational(1, 2)])
        hc = heat_coefficients(HeatRequest(model, rep, 2))
        assert hc.a[1] == gilkey_a1(model, rep)
        assert hc.a[2] == gilkey_a2(model, rep)


def exact_sphere_scalar_coefficients(n, k_max):
    """a_0..a_kmax of the scalar Laplacian on the unit S^n, from its spectrum.

    With nu = l + (n-1)/2 the eigenvalue l(l+n-1) is nu^2 - ((n-1)/2)^2 and
    the multiplicity (2l+n-1)(l+1)...(l+n-2)/(n-1)! is a polynomial P(nu).
    P vanishes at nu = h, h+1, ... below (n-1)/2 (h = 1/2 for even n, 0 for
    odd n), so the sum may run over every nu = h + j, j >= 0, and
    Euler-Maclaurin at shift h gives, to all orders,

        sum_nu nu^d e^(-t nu^2) ~ Gamma((d+1)/2) / (2 t^((d+1)/2))
                                  - sum_i B_(d+1+2i)(h) / (d+1+2i) (-t)^i / i!

    and sum_k a_k t^k = (4 pi t)^(n/2) e^(((n-1)/2)^2 t) sum_nu P(nu)
    e^(-t nu^2) / vol(S^n).
    """
    t, nu = sympy.symbols("t nu", positive=True)
    h0 = sympy.Rational(n - 1, 2)
    l = nu - h0
    mult = sympy.Poly((2 * l + n - 1) * sympy.prod([l + j for j in range(1, n - 1)])
                      / sympy.factorial(n - 1), nu)
    shift = sympy.Rational(1, 2) if n % 2 == 0 else 0
    spectral_sum = 0
    for (d,), p in mult.terms():
        e = sympy.Rational(d + 1, 2)
        spectral_sum += p * sympy.gamma(e) / (2 * t**e)
        for i in range(k_max + 1):
            spectral_sum -= (p * sympy.bernoulli(d + 1 + 2 * i, shift) / (d + 1 + 2 * i)
                             * (-t) ** i / sympy.factorial(i))
    volume = 2 * sympy.pi ** sympy.Rational(n + 1, 2) / sympy.gamma(sympy.Rational(n + 1, 2))
    gen = sympy.expand(sympy.exp(h0**2 * t) * (4 * sympy.pi * t) ** sympy.Rational(n, 2)
                       * spectral_sum / volume)
    gen = sympy.series(gen, t, 0, k_max + 1).removeO()
    return [rational(str(gen.coeff(t, k))) for k in range(k_max + 1)]


class TestExactSphereScalarOracle:
    @pytest.mark.parametrize("n, want", [
        (2, ["1", "1/3", "1/15", "4/315", "1/315"]),
        (3, ["1", "1", "1/2", "1/6", "1/24"]),
        (4, ["1", "2", "29/15", "74/63", "149/315", "358/3465", "-2774/135135"]),
        # closed form e^(4t) (1 - 2t/3)
        (5, ["1", "10/3", "16/3", "16/3"]),
    ])
    def test_known_values(self, n, want):
        assert exact_sphere_scalar_coefficients(n, len(want) - 1) == [rational(x) for x in want]

    @pytest.mark.parametrize("n, k_max", [(4, 5), (5, 3), (4, 6), (5, 6), (6, 6),
                                          (8, 4), (9, 2), (10, 2), (8, 6), (9, 6), (10, 4)])
    def test_frontier_matches_heat_engine(self, n, k_max):
        model = sphere(n, 1)
        start = time.perf_counter()
        hc = heat_coefficients(HeatRequest(model, scalar_rep(model), k_max))
        if n == 10:
            # the Weyl density by coupling blocks and the Wick average from
            # per-variable moment tables: k = 2 takes about 0.2 s and k = 4
            # about 1 s on a 2-core x86 VM, where the whole-pencil density
            # took 19 s at k = 2 and the per-monomial average 3.5 s at k = 4
            assert time.perf_counter() - start < (10 if k_max == 2 else 5)
        want = exact_sphere_scalar_coefficients(n, k_max)
        assert [a[0, 0] for a in hc.a] == [GaussianRational(x) for x in want]
