"""Independent ground truth: sphere spectral sums and classical invariants.

Nothing here touches the generating-function pipeline.  Sphere heat
traces are summed directly from the Laplace-Beltrami spectrum in
high-precision floats (the only module allowed to use them), and the
small-t coefficients are recovered by polynomial fitting on a geometric
grid.  gilkey_a1/gilkey_a2 evaluate the standard local curvature
invariants exactly.  Both exist solely to validate heat-engine output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bundles import FiberRep
from .exact import GaussianRational, Matrix, rational
from .spaces import SymmetricSpaceModel

# mpmath is imported where it is used, so `import symheat` does not load it
if TYPE_CHECKING:
    import mpmath

ORACLE_DPS = 60
EXTRACT_K_MAX = 4


class IllConditionedFitError(RuntimeError):
    """The coefficient extraction could not be trusted."""


@dataclass(frozen=True)
class SpectralModel:
    """Round n-sphere spectrum: lambda_l = l(l+n-1)/a^2 with multiplicity
    m_l = (2l+n-1)(l+n-2)! / (l!(n-1)!)."""

    n: int
    radius: object = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("spectral model needs n >= 2")
        if rational(self.radius) <= 0:
            raise ValueError("radius must be positive")

    def eigenvalue(self, l: int) -> mpmath.mpf:
        from mpmath import mp

        a = mp.mpf(str(rational(self.radius)))
        return mp.mpf(l * (l + self.n - 1)) / (a * a)

    def multiplicity(self, l: int) -> int:
        from mpmath import mp

        n = self.n
        num = (2 * l + n - 1) * mp.factorial(l + n - 2)
        den = mp.factorial(l) * mp.factorial(n - 1)
        m = int(mp.nint(num / den))
        return m

    def volume(self) -> mpmath.mpf:
        from mpmath import mp

        n = self.n
        a = mp.mpf(str(rational(self.radius)))
        return 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2) * a**n


def sphere_trace(sm: SpectralModel, t) -> mpmath.mpf:
    """Sum of m_l exp(-t lambda_l) with the tail bounded below 1e-30."""
    from mpmath import mp

    if t <= 0:
        raise ValueError("the spectral sum needs t > 0")
    with mp.workdps(ORACLE_DPS):
        t = mp.mpf(t)
        total = mp.mpf(0)
        prev = None
        l = 0
        while True:
            term = sm.multiplicity(l) * mp.e ** (-t * sm.eigenvalue(l))
            total += term
            # once the term ratio falls below 1/2 the geometric tail is
            # bounded by the last term, far under the 1e-30 requirement
            if prev is not None and term < prev / 2 and term < mp.mpf("1e-45") * (1 + total):
                break
            prev = term
            l += 1
            if l > 100000:
                raise RuntimeError("spectral sum cutoff failure")
        return total


def _fit_grid(sm: SpectralModel, k_max: int, t0, ratio, points):
    """Least-squares polynomial fit of (4 pi t)^(n/2) trace / volume."""
    from mpmath import mp

    n = sm.n
    vol = sm.volume()
    degree = k_max + 2
    ts = [t0 * ratio**j for j in range(points)]
    tmax = ts[-1]
    rows = []
    rhs = []
    for t in ts:
        f = (4 * mp.pi * t) ** (mp.mpf(n) / 2) * sphere_trace(sm, t) / vol
        # fit in u = t/tmax to keep the Vandermonde well conditioned
        u = t / tmax
        rows.append([u**k for k in range(degree + 1)])
        rhs.append(f)
    x, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
    return [x[k] / tmax**k for k in range(degree + 1)]


def extract_coefficients(sm: SpectralModel, k_max: int, t0=None, ratio=None,
                         points=None):
    """Approximate a_0..a_kmax from the spectral sum; k_max <= 4.

    Fits a degree-(k_max+2) polynomial in t on a geometric grid, then
    repeats on the halved grid; the per-coefficient discrepancy is both
    the returned error estimate and the conditioning monitor.
    """
    from mpmath import mp

    if not 0 <= k_max <= EXTRACT_K_MAX:
        raise ValueError(f"extraction supports k_max <= {EXTRACT_K_MAX}")
    with mp.workdps(ORACLE_DPS):
        t0 = mp.mpf("0.004") if t0 is None else mp.mpf(t0)
        ratio = mp.mpf("1.23") if ratio is None else mp.mpf(ratio)
        points = 2 * (k_max + 3) if points is None else points
        full = _fit_grid(sm, k_max, t0, ratio, points)
        half = _fit_grid(sm, k_max, t0 / 2, ratio, points)
        values = []
        errors = []
        for k in range(k_max + 1):
            diff = abs(full[k] - half[k])
            if diff > mp.mpf("1e-3") * (1 + abs(half[k])):
                raise IllConditionedFitError(
                    f"coefficient {k} moved by {mp.nstr(diff, 5)} under grid halving"
                )
            values.append(float(half[k]))
            errors.append(float(diff))
        return values, errors


# ---------------------------------------------------------------------------
# classical local invariants (parallel curvature, so all gradient terms drop)


def gilkey_a1(model: SymmetricSpaceModel, rep: FiberRep) -> Matrix:
    """a_1 = (R/6) I for the connection Laplacian; twist-independent."""
    return Matrix.identity(rep.dimV).scale(model.scalar_R * rational(1, 6))


def gilkey_a2(model: SymmetricSpaceModel, rep: FiberRep) -> Matrix:
    """a_2 = [(|Riem|^2 - |Ric|^2)/180 + R^2/72] I + (1/12) Omega_ab Omega^ab."""
    n = model.n
    riem2 = sum((x * x for x in model.riemann.values()), GaussianRational(0))
    ric2 = GaussianRational(0)
    for a in range(n):
        for b in range(n):
            x = model.ricci[a, b]
            if not x.is_zero():
                ric2 = ric2 + x * x
    scalar_part = (riem2 - ric2) * rational(1, 180) + \
        model.scalar_R * model.scalar_R * rational(1, 72)
    omega2 = Matrix.zeros(rep.dimV)
    for a in range(n):
        for b in range(n):
            m = rep.Omega[a][b]
            if not m.is_zero():
                omega2 = omega2 + m * m
    return Matrix.identity(rep.dimV).scale(scalar_part) + omega2.scale(rational(1, 12))
