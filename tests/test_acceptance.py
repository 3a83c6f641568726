"""Acceptance criteria, one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here and nowhere else.
"""
import itertools
import json
import random
import time

import pytest

from symheat.bundles import catalog_rep
from symheat.engine import (
    HeatRequest,
    coefficient_report,
    heat_coefficients,
    heat_trace,
)
from symheat.exact import GaussianRational, Matrix, rational
from symheat.groupcheck import (
    heat_equation_residual,
    laplace_identity_residual,
    sample_points,
)
from symheat.oracles import (
    SpectralModel,
    extract_coefficients,
    gilkey_a1,
    gilkey_a2,
)
from symheat.series import det_sinhc_numeric
from symheat.spaces import flat, hyperbolic, product, sphere, validate_model
from symheat.bundles import validate_rep
from symheat.wick import GaussianWeight, average_monomial, symmetrized_moment

GRID_SPACES = [
    ("S2", lambda: sphere(2, 1)),
    ("S3", lambda: sphere(3, 1)),
    ("S4", lambda: sphere(4, 1)),
    ("H2", lambda: hyperbolic(2, 1)),
    ("H3", lambda: hyperbolic(3, 1)),
    ("flat2xS2", lambda: product([flat(2), sphere(2, 1)])),
]
GRID_REPS = ["scalar", "vector", "spinor"]


def q(a, b=1):
    return GaussianRational(rational(a, b))


@pytest.fixture(scope="module")
def grid():
    """(model, rep, a-coefficients to k=2) for the whole catalog grid."""
    out = {}
    for sname, maker in GRID_SPACES:
        model = maker()
        for rname in GRID_REPS:
            rep = catalog_rep(model, rname)
            hc = heat_coefficients(HeatRequest(model, rep, 2))
            out[(sname, rname)] = (model, rep, hc)
    return out


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_s2_scalar():
    start = time.perf_counter()
    m = sphere(2, 1)
    hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 3))
    got = [a[0, 0] for a in hc.a]
    exact_ok = got == [q(1), q(1, 3), q(1, 15), q(4, 315)]
    approx, _ = extract_coefficients(SpectralModel(2), 3)
    spectral_ok = (
        abs(approx[1] - 1 / 3) < 1e-6
        and abs(approx[2] - 1 / 15) < 1e-6
        and abs(approx[3] - 4 / 315) < 1e-5
    )
    elapsed = time.perf_counter() - start
    report(1, exact_ok and spectral_ok and elapsed < 5.0,
           f"S2 scalar a = [1, 1/3, 1/15, 4/315], spectral match, {elapsed:.2f}s")


def test_criterion_02_s3_scalar():
    m = sphere(3, 1)
    hc = heat_coefficients(HeatRequest(m, catalog_rep(m, "scalar"), 3))
    import math

    exact_ok = all(
        hc.a[k][0, 0] == q(1, math.factorial(k)) for k in range(4)
    )
    approx, _ = extract_coefficients(SpectralModel(3), 3)
    spectral_ok = all(
        abs(approx[k] - 1 / math.factorial(k)) < 1e-5 for k in range(4)
    )
    report(2, exact_ok and spectral_ok, "S3 scalar a_k = 1/k!, spectral match")


def test_criterion_03_a1_universality(grid):
    bad = []
    for (sname, rname), (model, rep, hc) in grid.items():
        if hc.a[1] != gilkey_a1(model, rep):
            bad.append((sname, rname))
    report(3, not bad, f"a_1 = (R/6) I on {len(grid)} catalog pairs")


def test_criterion_04_a2_local_invariant(grid):
    # the one-time sign anchor: the flat-U(1) closed-form series fixes the
    # relative sign between the twist and the (1/12) Omega Omega term
    mflat = flat(2)
    twist_rep = catalog_rep(mflat, "u1_twist", twist=[1])
    hc_twist = heat_coefficients(HeatRequest(mflat, twist_rep, 2))
    series = det_sinhc_numeric(twist_rep.B, rational(-1, 2), 4)
    anchor_ok = (
        hc_twist.a[2][0, 0] == series[2]
        and hc_twist.a[2] == gilkey_a2(mflat, twist_rep)
    )
    bad = []
    for (sname, rname), (model, rep, hc) in grid.items():
        if hc.a[2] != gilkey_a2(model, rep):
            bad.append((sname, rname))
    report(4, anchor_ok and not bad,
           f"a_2 equals the local invariant on {len(grid)} pairs (twist anchor ok)")


def test_criterion_05_duality():
    ok = True
    for n in (2, 3):
        ms, mh = sphere(n, 1), hyperbolic(n, 1)
        hs = heat_coefficients(HeatRequest(ms, catalog_rep(ms, "scalar"), 4))
        hh = heat_coefficients(HeatRequest(mh, catalog_rep(mh, "scalar"), 4))
        for k in range(5):
            if hh.a[k][0, 0] != q((-1) ** k) * hs.a[k][0, 0]:
                ok = False
    report(5, ok, "a_k(H^n) = (-1)^k a_k(S^n) for n in {2,3}, k <= 4")


def test_criterion_06_product_property():
    m1 = sphere(2, 1)
    h1 = heat_coefficients(HeatRequest(m1, catalog_rep(m1, "scalar"), 3))
    s2 = [a[0, 0] for a in h1.a]
    mm = product([sphere(2, 1), sphere(2, 1)])
    hm = heat_coefficients(HeatRequest(mm, catalog_rep(mm, "scalar"), 3))
    ok = all(
        hm.a[k][0, 0] == sum((s2[i] * s2[k - i] for i in range(k + 1)), q(0))
        for k in range(4)
    )
    report(6, ok, "a_k(S2 x S2) = convolution of a(S2) for k <= 3")


def test_criterion_07_wick_consistency():
    rng = random.Random(20240613)

    def random_weight(p):
        while True:
            rows = [[rational(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(p)] for _ in range(p)]
            for i in range(p):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            try:
                return GaussianWeight.from_beta(Matrix.from_rows(rows))
            except ValueError:
                continue

    checked = 0
    for p in (1, 2, 3, 4):
        for _ in range(25):
            w = random_weight(p)
            for deg in (2, 4, 6, 8):
                for combo in itertools.combinations_with_replacement(range(p), deg):
                    assert average_monomial(combo, w) == symmetrized_moment(combo, w)
                    checked += 1
    report(7, True, f"pairing sum = symmetrized closed form on {checked} "
                    "monomials, 100 random beta")


def test_criterion_08_group_identities():
    start = time.perf_counter()
    m2, m3 = sphere(2, 1), sphere(3, 1)
    lap2 = laplace_identity_residual(m2, sample_points(m2, 20, radius=0.5))
    lap3 = laplace_identity_residual(m3, sample_points(m3, 20, radius=0.5))
    heq2 = heat_equation_residual(
        m2, None, sample_points(m2, 10, radius=0.5), [-0.2])
    mf = flat(2)
    twisted = catalog_rep(mf, "u1_twist", twist=[1])
    heqf = heat_equation_residual(
        mf, twisted, sample_points(mf, 10, radius=0.5), [-0.2])
    elapsed = time.perf_counter() - start
    ok = lap2 < 1e-5 and lap3 < 1e-5 and heq2 < 1e-4 and heqf < 1e-4 \
        and elapsed < 30.0
    report(8, ok,
           f"laplace so(3)={lap2:.1e}, N=6={lap3:.1e}; "
           f"heat S2={heq2:.1e}, flat+twist={heqf:.1e}; {elapsed:.1f}s")


def test_criterion_09_validator(grid):
    from dataclasses import replace

    ok = True
    for (sname, rname), (model, rep, _) in grid.items():
        if not validate_model(model).ok or not validate_rep(rep).ok:
            ok = False

    # injected single-entry corruptions must be caught
    detections = []
    m = sphere(2, 1)

    sym = Matrix.from_rows([[0, 1], [1, 0]])
    detections.append(not validate_model(
        replace(m, data=replace(m.data, E=(sym,)))).ok)

    m3 = sphere(3, 1)
    bad_beta = m3.beta.to_rows()
    bad_beta[0][1] = q(1, 2)
    detections.append(not validate_model(
        replace(m3, data=replace(m3.data, beta=Matrix.from_rows(bad_beta)))).ok)

    bad_f = m3.F[0].to_rows()
    bad_f[0][1] = bad_f[0][1] + q(1)
    detections.append(not validate_model(
        replace(m3, F=(Matrix.from_rows(bad_f),) + m3.F[1:])).ok)

    bad_gamma = m3.gamma.to_rows()
    bad_gamma[0][1] = q(1, 3)
    m3_bad = replace(m3)  # gamma is derived on first read; set a corrupted one
    m3_bad.gamma = Matrix.from_rows(bad_gamma)
    detections.append(not validate_model(m3_bad).ok)

    m_bad = replace(m)  # so are the Riemann entries
    m_bad.riemann = {**m.riemann, (0, 0, 0, 0): q(1)}
    detections.append(not validate_model(m_bad).ok)

    rep2 = catalog_rep(m, "spinor")
    bad_g = [[x for x in row] for row in rep2.G]
    bad_g[0][1] = bad_g[0][1].scale(2)
    rep_bad = replace(rep2, G=tuple(tuple(r) for r in bad_g))
    detections.append(not validate_rep(rep_bad).ok)

    report(9, ok and all(detections),
           f"all {len(grid)} catalog pairs validate; "
           f"{len(detections)}/{len(detections)} corruptions detected")


def test_criterion_10_determinism(grid):
    def render(model, rep, k_max):
        hc = heat_coefficients(HeatRequest(model, rep, k_max))
        tr = heat_trace(hc, 1)
        return json.dumps(coefficient_report(hc, trace=tr, mode="both"),
                          sort_keys=True).encode()

    configs = []
    for n in (2, 3):
        configs.append((lambda n=n: sphere(n, 1), "scalar", 3))
        configs.append((lambda n=n: hyperbolic(n, 1), "scalar", 4))
    configs.append((lambda: product([sphere(2, 1), sphere(2, 1)]), "scalar", 3))
    configs.append((lambda: sphere(4, 1), "vector", 2))
    configs.append((lambda: product([flat(2), sphere(2, 1)]), "spinor", 2))

    ok = True
    for make_model, rname, k_max in configs:
        model = make_model()
        rep = catalog_rep(model, rname)
        base = render(model, rep, k_max)
        again = render(model, rep, k_max)
        fresh = make_model()
        third = render(fresh, catalog_rep(fresh, rname), k_max)
        if not (base == again == third):
            ok = False
    report(10, ok, f"byte-identical outputs across repeated runs and rebuilt models on "
                   f"{len(configs)} criterion-1..6 configurations")
