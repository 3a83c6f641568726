"""Floating-point verification of the group-theoretic identities.

The exact pipeline rests on a handful of Lie-group facts: the
Maurer-Cartan structure of the canonical-coordinate frame, the
sinhc-determinant volume element, a flat-Laplacian identity relating the
invariant operator to the algebra's scalar curvature, and the heat
equation satisfied by the Gaussian-type kernel on the group.  This module
checks all of them numerically on small groups (N <= 6) with central
finite differences.  It is a consistency oracle only — no production path
runs through here.

Matrix functions are evaluated by scaled Taylor summation with doubling
(never eigendecomposition, since C(k) need not be normal).  Index
convention: the frame matrix Y stores Y[A, M] = Y^A_M; the coefficient
array of the vector field X_A over d/dk^M is the transpose of Y^{-1}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import FiberRep
from .spaces import SymmetricSpaceModel

MAX_GROUP_DIM = 6
DEFAULT_RADIUS = 1.0
T_WINDOW = (0.05, 1.0)
_TAYLOR_TOL = 1e-18


class GroupCheckError(ValueError):
    pass


@dataclass(frozen=True)
class GroupFrame:
    """Frame data at one group point (and one time for the kernel value)."""

    C_of_k: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    volume: float
    theta_hat: np.ndarray
    phi: complex


# ---------------------------------------------------------------------------
# matrix functions (scaled Taylor with doubling)


def _expm(a: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for j in range(1, 60):
        term = term @ b / j
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < _TAYLOR_TOL:
            break
    else:
        raise GroupCheckError("matrix exponential series did not converge")
    for _ in range(squarings):
        out = out @ out
    return out


def _sinhc_cosh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sinh(a)/a, cosh(a)) by Taylor plus the doubling rules
    sinhc(2a) = sinhc(a) cosh(a), cosh(2a) = 2 cosh(a)^2 - 1."""
    n = a.shape[0]
    norm = np.linalg.norm(a, ord=np.inf)
    doublings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2**doublings)
    b2 = b @ b
    eye = np.eye(n, dtype=complex)
    sinhc = eye.copy()
    cosh = eye.copy()
    term_s = eye.copy()
    term_c = eye.copy()
    for m in range(1, 60):
        term_s = term_s @ b2 / ((2 * m) * (2 * m + 1))
        term_c = term_c @ b2 / ((2 * m - 1) * (2 * m))
        sinhc = sinhc + term_s
        cosh = cosh + term_c
        if (np.linalg.norm(term_s, ord=np.inf) < _TAYLOR_TOL
                and np.linalg.norm(term_c, ord=np.inf) < _TAYLOR_TOL):
            break
    else:
        raise GroupCheckError("sinhc series did not converge")
    for _ in range(doublings):
        sinhc = sinhc @ cosh
        cosh = 2 * cosh @ cosh - eye
    return sinhc, cosh


def _phi1(a: np.ndarray) -> np.ndarray:
    """(1 - exp(-a))/a by Taylor with the doubling
    phi(2a) = phi(a) (1 + exp(-a))/2."""
    n = a.shape[0]
    norm = np.linalg.norm(a, ord=np.inf)
    doublings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2**doublings)
    eye = np.eye(n, dtype=complex)
    out = eye.copy()
    term = eye.copy()
    for j in range(1, 60):
        term = term @ (-b) / (j + 1)
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < _TAYLOR_TOL:
            break
    else:
        raise GroupCheckError("phi1 series did not converge")
    emb = _expm(-b)
    for _ in range(doublings):
        out = out @ (np.eye(n) + emb) / 2
        emb = emb @ emb
    return out


def _z_coth_z(a: np.ndarray) -> np.ndarray:
    """a coth(a) = cosh(a) sinhc(a)^{-1}; sinhc is invertible for the
    Hermitian arguments produced by imaginary antisymmetric twists."""
    sinhc, cosh = _sinhc_cosh(a)
    return np.linalg.solve(sinhc.T, cosh.T).T


# ---------------------------------------------------------------------------
# model data as float arrays


class _FloatModel:
    def __init__(self, model: SymmetricSpaceModel, rep: FiberRep | None = None):
        self.N = model.N
        self.C = np.array(
            [c.to_float_array() for c in model.C], dtype=complex
        ) if model.N else np.zeros((0, 0, 0), dtype=complex)
        self.gamma = np.array(model.gamma.to_float_array(), dtype=complex)
        self.gamma_inv = np.array(model.gamma_inv.to_float_array(), dtype=complex)
        self.R_G = float(model.R_G.re)
        blow = np.zeros((self.N, self.N), dtype=complex)
        if rep is not None:
            b = np.array(rep.B.to_float_array(), dtype=complex)
            blow[: model.n, : model.n] = b
        self.B_lower = blow
        self.B_mixed = self.gamma_inv @ blow

    def c_of_k(self, k: np.ndarray) -> np.ndarray:
        return np.tensordot(k, self.C, axes=(0, 0))


def _check_point(k: np.ndarray, radius: float):
    if not np.all(np.isfinite(k)):
        raise GroupCheckError("group point has non-finite coordinates")
    if np.linalg.norm(k) > radius + 1e-12:
        raise GroupCheckError(
            f"|k| = {np.linalg.norm(k):.3f} exceeds the safe radius {radius}"
        )


def _check_t(t: float):
    if not (T_WINDOW[0] <= abs(t) <= T_WINDOW[1]):
        raise GroupCheckError(
            f"|t| must lie in [{T_WINDOW[0]}, {T_WINDOW[1]}], got {t}"
        )


def _check_group_dim(model: SymmetricSpaceModel):
    if model.N > MAX_GROUP_DIM:
        raise GroupCheckError(
            f"group checks cover N <= {MAX_GROUP_DIM}; this model has N = "
            f"{model.N}. Use a smaller catalog space (the identities are "
            "model-independent)."
        )


def _phi_value(fm: _FloatModel, k: np.ndarray, t: float) -> complex:
    c = fm.c_of_k(k)
    amat = _sinhc_cosh(c / 2 + t * fm.B_mixed)[0]
    a_factor = np.linalg.det(amat) ** (-0.5)
    theta_hat = _z_coth_z(t * fm.B_mixed)
    theta = 0.5 * (k @ (fm.gamma @ (theta_hat @ k)))
    pref = np.power(complex(4 * np.pi * t), -fm.N / 2)
    return pref * a_factor * np.exp(-theta / (2 * t) + fm.R_G * t / 6)


def frame_at(model: SymmetricSpaceModel, rep: FiberRep | None, k, t: float,
             radius: float = DEFAULT_RADIUS) -> GroupFrame:
    """Evaluate Y, X, the volume density, theta-hat, and the kernel value.

    The stored volume is det(sinhc(C(k)/2)), i.e. the group volume element
    with the constant |det gamma|^{1/2} factored out.
    """
    _check_group_dim(model)
    k = np.asarray(k, dtype=float)
    _check_point(k, radius)
    _check_t(t)
    fm = _FloatModel(model, rep)
    c = fm.c_of_k(k)
    y = _phi1(c)
    x = np.linalg.inv(y)
    vol = float(np.linalg.det(_sinhc_cosh(c / 2)[0]).real)
    theta_hat = _z_coth_z(t * fm.B_mixed)
    phi = _phi_value(fm, k, t)
    return GroupFrame(C_of_k=c, Y=y, X=x, volume=vol, theta_hat=theta_hat, phi=phi)


# ---------------------------------------------------------------------------
# finite differences


def _grad(f, k: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central gradient of a scalar or array function; out[M] = d_M f."""
    eye = np.eye(len(k))
    return np.array([
        (-f(k + 2 * h * e) + 8 * f(k + h * e) - 8 * f(k - h * e) + f(k - 2 * h * e))
        / (12 * h)
        for e in eye
    ], dtype=complex)


def _x_field(fm: _FloatModel, k: np.ndarray) -> np.ndarray:
    """Coefficients XF[A, M] of the right-invariant fields X_A over d/dk^M."""
    return np.linalg.inv(_phi1(fm.c_of_k(k))).T


def sample_points(model: SymmetricSpaceModel, count: int, radius: float = 0.5,
                  seed: int = 12345) -> list[np.ndarray]:
    """Deterministic sample points in the ball of the given radius."""
    if count < 1:
        raise GroupCheckError(f"need at least one sample point, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=model.N)
        norm = np.linalg.norm(v)
        if norm == 0:
            v[0] = 1.0
            norm = 1.0
        r = radius * rng.uniform() ** (1.0 / model.N)
        out.append(v / norm * r)
    return out


def laplace_identity_residual(model: SymmetricSpaceModel, samples, h: float = 5e-3,
                              radius: float = DEFAULT_RADIUS) -> float:
    """Max deviation of (det X)^(-1/2) X^2 (det X)^(1/2) from its constant
    value R_G/6, evaluated by nested central differences.

    Raises when halving the step moves the answer materially (the step is
    too small and cancellation dominates).
    """
    _check_group_dim(model)
    if not 1e-4 <= h <= 1e-2:
        raise GroupCheckError("step h must lie in [1e-4, 1e-2]")
    fm = _FloatModel(model)
    rhs = fm.R_G / 6.0

    def half_det(k):
        return np.linalg.det(np.linalg.inv(_phi1(fm.c_of_k(k)))) ** 0.5

    def lhs_at(k, step):
        def g_vec(kk):
            # all components (X_B f)(kk) at once
            return _x_field(fm, kk) @ _grad(half_det, kk, step)

        dg = _grad(g_vec, k, step)  # dg[M, B] = d_M g_B
        xf = _x_field(fm, k)
        # gamma^{AB} X_A^M d_M g_B
        return np.einsum("ab,am,mb->", fm.gamma_inv, xf, dg) / half_det(k)

    worst = 0.0
    for k in samples:
        k = np.asarray(k, dtype=float)
        _check_point(k, radius)
        v1 = lhs_at(k, h)
        v2 = lhs_at(k, h / 2)
        if abs(v1 - v2) > 1e-2 * (1 + abs(rhs)):
            raise GroupCheckError(
                f"step-halving disagreement {abs(v1 - v2):.2e}; "
                "the step is too small for stable differences"
            )
        worst = max(worst, abs(v2 - rhs))
    return worst


def heat_equation_residual(model: SymmetricSpaceModel, rep: FiberRep | None,
                           samples, t_values, h: float = 2e-3,
                           radius: float = DEFAULT_RADIUS) -> float:
    """Max scaled residual |d/dt Phi - J^2 Phi| / |Phi| over the samples.

    J_A = X_A - (1/2) B_AB k^B; derivatives in k are nested fourth-order
    central differences, the t-derivative is Richardson-refined central."""
    _check_group_dim(model)
    if not 1e-4 <= h <= 1e-2:
        raise GroupCheckError("step h must lie in [1e-4, 1e-2]")
    fm = _FloatModel(model, rep)

    def phi(k, t):
        return _phi_value(fm, k, t)

    worst = 0.0
    for k in samples:
        k = np.asarray(k, dtype=float)
        _check_point(k, radius)
        for t in t_values:
            _check_t(t)

            def j_vec(kk):
                # all components (J_B Phi)(kk) at once
                grad = _grad(lambda z: phi(z, t), kk, h)
                return _x_field(fm, kk) @ grad \
                    - 0.5 * (fm.B_lower @ kk) * phi(kk, t)

            # J^2 Phi = gamma^{AB} J_A (J_B Phi)
            dg = _grad(j_vec, k, h)  # dg[M, B] = d_M (J_B Phi)
            xf = _x_field(fm, k)
            jk = j_vec(k)
            first = np.einsum("ab,am,mb->", fm.gamma_inv, xf, dg)
            second = np.einsum("ab,a,b->", fm.gamma_inv, 0.5 * (fm.B_lower @ k), jk)
            total = first - second
            ht = min(1e-3, abs(t) / 50)
            d_coarse = (phi(k, t + ht) - phi(k, t - ht)) / (2 * ht)
            d_fine = (phi(k, t + ht / 2) - phi(k, t - ht / 2)) / ht
            dphi = (4 * d_fine - d_coarse) / 3
            worst = max(worst, abs(dphi - total) / abs(phi(k, t)))
    return worst


def maurer_cartan_residual(model: SymmetricSpaceModel, k, h: float = 5e-3) -> float:
    """Max |d_L Y^A_M - d_M Y^A_L + C^A_BC Y^B_L Y^C_M| at one point."""
    _check_group_dim(model)
    fm = _FloatModel(model)
    k = np.asarray(k, dtype=float)
    n = fm.N

    def y_at(kk):
        return _phi1(fm.c_of_k(kk))

    dy = _grad(y_at, k, h)  # dy[L, A, M] = d_L Y^A_M
    y = y_at(k)
    worst = 0.0
    for a_idx in range(n):
        for l_idx in range(n):
            for m_idx in range(n):
                struct = 0.0 + 0.0j
                for b_idx in range(n):
                    # C^A_BC = (C_B)[A, C]
                    struct += fm.C[b_idx, a_idx] @ y[:, m_idx] * y[b_idx, l_idx]
                lhs = dy[l_idx, a_idx, m_idx] - dy[m_idx, a_idx, l_idx]
                worst = max(worst, abs(lhs + struct))
    return worst
