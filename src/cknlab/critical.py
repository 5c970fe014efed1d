"""Critical-point machinery around the optimiser bubbles.

Euler-Lagrange residuals in weak form, dual-norm lower-bound
estimates over explicit test bases, the degenerate Hessian quadratic
form, the radial spectral gap as a Rayleigh-Ritz eigenvalue, the
two-sided near-manifold quantities, and empirical constants for six
elementary pointwise inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadGridSpec,
    BasisTooSmall,
    CaseRangeViolation,
    FarFromManifold,
    GridMismatch,
    InvalidArgument,
    OptimizerStall,
    RegionViolation,
    ScalingGuardFailure,
    ZeroField,
)
from .fields import Bubble, Field, RadialGrid, gaussian_bump_profile, sample_bubble
from .functionals import _energy, _flux_factor, _gradient_stack
from .functionals import grad_norm, weighted_grad_pnorm
from .manifold import (
    _tangent_free,
    canonical_bubble,
    mu_rho_decompose,
    select_Pu,
    tangent_basis,
)
from .params import CknParams

__all__ = [
    "ExpansionQuantities",
    "DualNormEstimate",
    "el_residual_pairing",
    "dual_norm_estimate",
    "hessian_form",
    "spectral_gap",
    "expansion_quantities",
    "elementary_terms",
    "elementary_C_estimate",
]

# ladder spacing for the dual-norm test bumps, in log radius
LADDER_STEP = 1.5
LADDER_WIDTH = 1.0
# unit-norm basis directions with singular value below this fraction of
# the largest are dropped from the dual-norm span
RANK_GUARD_RTOL = 1e-6
# Newton ascent of the dual-norm sup: stop when the Newton decrement
# falls below NEWTON_RTOL of the norm energy
NEWTON_RTOL = 1e-13
NEWTON_MAX_STEPS = 100
# sufficient-increase constant for accepting a (halved) Newton step
ARMIJO_C = 1e-4
# Ritz basis of the spectral gap: bump ladder in s = sigma log r
RITZ_STEP = 0.45
RITZ_WIDTH = 0.3
# pairing-Gram directions below this fraction of the largest are dropped
RITZ_GUARD_RTOL = 1e-12


def __getattr__(name):
    # minimize_scalar is unused here and resolved on first use only for
    # perfbench's tracer, which wraps it by name
    if name == "minimize_scalar":
        from scipy import optimize

        value = globals()[name] = optimize.minimize_scalar
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ExpansionQuantities:
    """Computable pieces of the two-sided near-manifold estimates."""

    residual_pairing_norm: float
    Q: float
    N: float
    mu: float
    distance_gate: float


@dataclass(frozen=True)
class DualNormEstimate:
    """Lower-bound estimate with the half-basis value for refinement display."""

    value: float
    half_value: Optional[float]
    basis_size: int


# ---------------------------------------------------------------------------
# Euler-Lagrange pairing


def el_residual_pairing(u: Field, phi: Field, params: CknParams) -> float:
    """Weak pairing of the equation residual of u against phi.

    -integral |x|^-pa |grad u|^(p-2) grad u . grad phi
    +integral |x|^-qb |u|^(q-2) u phi; no second derivatives of u.
    A radial phi pairs with any u; an angular phi needs u on its grid.
    """
    n, p, q, a, b = params.n, params.p, params.q, params.a, params.b
    if u.wider(phi) is not u:
        raise GridMismatch("radial u cannot be paired against an angular phi")
    dot = u.grad_r * phi.grad_r
    if u.grad_psi is not None and phi.grad_psi is not None:
        dot = dot + u.grad_psi * phi.grad_psi / u.grid.nodes[:, None] ** 2
    flux = _flux_factor(np.sqrt(u.grad_sq()), p - 2.0)
    zero_term = u.integrate(
        n - 1.0 - q * b, np.abs(u.values) ** (q - 2.0) * u.values * phi.values
    )
    return zero_term - u.integrate(n - 1.0 - p * a, flux * dot)


# ---------------------------------------------------------------------------
# dual-norm lower bound


def _ladder(
    grid: RadialGrid, dim: int, count: int, step: float, width: float, unit: float = 1.0
) -> list:
    """count Gaussian bumps at 0, +step, -step, +2 step, ... in units of log r.

    Prefixes nest as count grows.  8 widths out a bump is exp(-32) ~
    1e-14 of its peak; a ladder that reaches past the window there
    would be cut off by it, and raises BadGridSpec.
    """
    centers = [(i + 1) // 2 * (step if i % 2 else -step) * unit for i in range(count)]
    width = width * unit
    lo, hi = min(centers) - 8.0 * width, max(centers) + 8.0 * width
    if lo < grid.t_min or hi > grid.t_max:
        raise BadGridSpec(
            f"a ladder of {count} bumps spans [{lo:.4g}, {hi:.4g}] in log r, "
            f"past the window [{grid.t_min:g}, {grid.t_max:g}]: widen it or use fewer"
        )
    return [gaussian_bump_profile(grid, dim, c, width) for c in centers]


def _test_basis(u: Field, params: CknParams, size: int) -> list:
    core = tangent_basis(Bubble(amplitude=1.0, scale=1.0), params, u.grid)
    return core + _ladder(u.grid, u.dim, size - len(core), LADDER_STEP, LADDER_WIDTH)


def _dual_sup(comps: np.ndarray, w: np.ndarray, ell: np.ndarray, p: float) -> float:
    """sup of ell . y / f(y)^(1/p) with f(y) = sum(w |comps @ y|^p).

    Newton ascent on the concave phi(y) = ell . y - f(y) / p: f is
    p-homogeneous, so at phi's maximiser ell . y = f(y) and the ratio
    there is the sup.  comps is whitened in the rank guard's metric, so
    y = ell is the p = 2 maximiser; the start is the best point on its
    ray.  Each step is halved until phi(y + t s) >= phi + ARMIJO_C t
    grad . s: at p < 2 the weights |g|^(p-2) blow up as g -> 0 and
    full steps overshoot.
    """
    flat = comps.reshape(-1, comps.shape[-1])

    def phi(y: np.ndarray) -> float:
        return float(ell @ y) - _energy(w, comps @ y, p) / p

    y = ell * (float(ell @ ell) / _energy(w, comps @ ell, p)) ** (1.0 / (p - 1.0))
    for _ in range(NEWTON_MAX_STEPS):
        grads = comps @ y
        mag = np.sqrt(np.sum(grads**2, axis=0))
        wa = w * _flux_factor(mag, p - 2.0)
        unit = grads / np.where(mag > 0.0, mag, 1.0)
        jac = np.sum(unit[:, :, None] * comps, axis=0)  # d|g| / dy per node
        ascent = ell - (wa * mag) @ jac
        hess = flat.T @ (wa[:, None] * comps).reshape(flat.shape)
        hess += (p - 2.0) * (jac.T * wa) @ jac
        step = np.linalg.solve(hess, ascent)
        slope = float(ascent @ step)
        f = _energy(w, grads, p)
        if slope <= NEWTON_RTOL * f:
            return float(ell @ y) / f ** (1.0 / p)
        length, base = 1.0, float(ell @ y) - f / p
        while phi(y + length * step) < base + ARMIJO_C * length * slope:
            length /= 2.0
        y = y + length * step
    raise OptimizerStall(
        f"dual-norm Newton ascent not converged after {NEWTON_MAX_STEPS} steps"
    )


def dual_norm_estimate(
    u: Field,
    params: CknParams,
    basis_size: int = 12,
    extra_elements: Sequence[Field] = (),
) -> DualNormEstimate:
    """Lower-bound the dual norm of the equation residual of u.

    The exact sup of |<R(u), phi>| / ||phi|| over the span of a nested
    ladder basis (tangent elements first, then log-radius bumps) plus
    any caller-supplied extras, by Newton ascent on its concave dual
    (see _dual_sup).  Elements are scaled to unit norm and
    directions whose singular value of w^(1/p) D falls below
    RANK_GUARD_RTOL of the largest are dropped: such combinations
    nearly cancel in norm and only amplify quadrature noise.  The
    result is the sup over the remaining span, a lower bound of the
    true dual norm.  Spans nest as the basis grows, so a larger basis
    never reports a smaller value; half_value is the estimate at half
    the basis size (None below 8).
    """
    if basis_size < 4:
        raise BasisTooSmall(f"need at least 4 test elements, got {basis_size}")
    half_value: Optional[float] = None
    if basis_size >= 8:
        half_value = dual_norm_estimate(u, params, basis_size // 2, extra_elements).value
    elements = _test_basis(u, params, basis_size) + list(extra_elements)
    ell = np.array([el_residual_pairing(u, e, params) for e in elements])
    p = params.p
    comps, w = _gradient_stack(elements, params)
    mags = np.sqrt(np.sum(comps**2, axis=0))
    scale = (w @ mags**p) ** (1.0 / p)  # element norms
    scale = np.where(scale > 0.0, scale, 1.0)
    comps = comps / scale
    ell = ell / scale
    weighted = (w[:, None] ** (1.0 / p) * comps).reshape(-1, len(elements))
    _, sing, vt = np.linalg.svd(weighted, full_matrices=False)
    kept = sing >= RANK_GUARD_RTOL * sing[0]
    white = vt[kept].T / sing[kept]  # orthonormal in the guard's metric
    ell = white.T @ ell
    value = _dual_sup(comps @ white, w, ell, p) if np.any(ell) else 0.0
    return DualNormEstimate(value=value, half_value=half_value, basis_size=basis_size)


# ---------------------------------------------------------------------------
# Hessian quadratic form and the spectral gap


def hessian_form(v_bub: Bubble, rho: Field, params: CknParams) -> float:
    """Degenerate second-variation form at the bubble, p >= 2.

    integral |x|^-pa (|grad V|^(p-2) |grad rho|^2
    + (p-2) |grad V|^(p-4) (grad V . grad rho)^2); V is radial, so the
    second term is (p-2) |V'|^(p-2) rho_r^2, zero at p = 2.
    """
    n, p, a = params.n, params.p, params.a
    if p < 2.0:
        raise RegionViolation(f"quadratic form defined for p >= 2, got p={p}")
    dv = sample_bubble(params, v_bub, rho.grid).grad_r
    integrand = rho.grad_sq() + (p - 2.0) * rho.grad_r**2
    integrand *= _flux_factor(np.abs(dv), p - 2.0)
    return rho.integrate(n - 1.0 - p * a, integrand)


def _ritz_matrices(params: CknParams, grid: RadialGrid, basis_size: int) -> tuple:
    """(H, M) of the radial Ritz basis at the canonical bubble.

    The basis is basis_size Gaussian bumps on the nested ladder in
    s = sigma log r, stacked as rows, with the amplitude and dilation
    tangents projected out of all of them in one _tangent_free call.
    H_ij = integral (p-1) |V'|^(p-2) rho_i' rho_j' |x|^-pa (the Hessian
    form on radial rho) and M_ij = integral (q-1) V^(q-2) rho_i rho_j
    |x|^-qb (the pairing the gap is measured against).
    """
    n, p, q = params.n, params.p, params.q
    bub = canonical_bubble(params)
    unit = 1.0 / params.sigma  # log radius per unit of s
    bumps = _ladder(grid, n, basis_size, RITZ_STEP, RITZ_WIDTH, unit)
    vals = np.array([b.values[:, 0] for b in bumps])
    grads = np.array([b.grad_r[:, 0] for b in bumps])
    vals, grads = _tangent_free(vals, grads, bub, params, grid)
    v = sample_bubble(params, bub, grid)
    wh = v.measure(n - 1.0 - p * params.a) * _flux_factor(np.abs(v.grad_r), p - 2.0)
    wm = v.measure(n - 1.0 - q * params.b) * v.values ** (q - 2.0)
    return (p - 1.0) * grads @ (wh.T * grads).T, (q - 1.0) * vals @ (wm.T * vals).T


def _smallest_ritz(h: np.ndarray, m: np.ndarray) -> tuple[float, int]:
    """Smallest eigenvalue of H x = mu M x on M's well-conditioned span, and its rank."""
    lam, vec = np.linalg.eigh(m)
    keep = lam > RITZ_GUARD_RTOL * lam[-1]
    white = vec[:, keep] / np.sqrt(lam[keep])
    return float(np.linalg.eigvalsh(white.T @ h @ white)[0]), int(keep.sum())


def spectral_gap(
    params: CknParams, grid: RadialGrid, basis_size: int
) -> tuple[float, float, int]:
    """Smallest radial Rayleigh-Ritz ratio off the tangent space, p >= 2.

    Returns (value, half_value, kept): the smallest eigenvalue of the
    Hessian form against the (q-1) pairing over the span of
    basis_size tangent-free bumps (see _ritz_matrices), the same solve
    on the first basis_size // 2 bumps (at least 1) as its stated
    error, and the number of directions kept.  Directions along which
    the pairing Gram matrix falls below RITZ_GUARD_RTOL of its largest
    eigenvalue are dropped as numerically dependent.  The spans nest,
    so in exact arithmetic the value never rises with the basis.  Only
    the radial sector (degree 0) is covered.
    """
    if params.p < 2.0:
        raise RegionViolation(f"spectral gap defined for p >= 2, got p={params.p}")
    if basis_size < 1:
        raise BasisTooSmall(f"need at least 1 Ritz bump, got {basis_size}")
    h, m = _ritz_matrices(params, grid, basis_size)
    value, kept = _smallest_ritz(h, m)
    half = max(1, basis_size // 2)
    return value, _smallest_ritz(h[:half, :half], m[:half, :half])[0], kept


# ---------------------------------------------------------------------------
# near-manifold two-sided quantities


def _v_quadratic(v_bub: Bubble, rho: Field, params: CknParams) -> float:
    """integral |x|^-pa |grad V|^(p-2) |grad rho|^2, no (p-2) piece."""
    p = params.p
    mag = np.abs(sample_bubble(params, v_bub, rho.grid).grad_r)
    return rho.integrate(
        params.n - 1.0 - p * params.a, _flux_factor(mag, p - 2.0) * rho.grad_sq()
    )


def expansion_quantities(
    u: Field,
    params: CknParams,
    distance_gate: Optional[float] = None,
    basis_size: int = 12,
) -> ExpansionQuantities:
    """Residual dual norm, Q, N and mu for a near-manifold field, p > 2."""
    if params.p <= 2.0:
        raise RegionViolation(f"two-sided estimates need p > 2, got p={params.p}")
    unorm = grad_norm(u, params)
    if unorm <= 0.0:
        raise ZeroField("near-manifold analysis of the zero field")
    v_bub = select_Pu(u, params)
    dist = grad_norm(u - sample_bubble(params, v_bub, u.grid), params)
    gate = 0.1 * unorm if distance_gate is None else distance_gate
    if dist > gate:
        raise FarFromManifold(f"distance {dist:.3e} exceeds the gate {gate:.3e}")
    dec = mu_rho_decompose(u, v_bub, params)
    rho = dec.rho
    big_q = _v_quadratic(v_bub, rho, params)
    big_n = weighted_grad_pnorm(rho, params)
    est = dual_norm_estimate(u, params, basis_size)
    return ExpansionQuantities(
        residual_pairing_norm=est.value,
        Q=big_q,
        N=big_n,
        mu=dec.mu,
        distance_gate=gate,
    )


# ---------------------------------------------------------------------------
# elementary pointwise inequalities

_CASE_RANGES = {
    1: ("p", 2.0, 3.0),
    2: ("p", 3.0, math.inf),
    3: ("p", 2.0, 3.0),
    4: ("p", 3.0, math.inf),
    5: ("q", 2.0, 3.0),
    6: ("q", 3.0, math.inf),
}


def _check_case(case: int, expo: float) -> None:
    if case not in _CASE_RANGES:
        raise InvalidArgument(f"case must be 1..6, got {case}")
    name, lo, hi = _CASE_RANGES[case]
    if not (lo < expo <= hi) or expo == math.inf:
        bound = f"{lo} < {name} <= {hi}" if hi < math.inf else f"{name} > {lo}"
        raise CaseRangeViolation(f"case {case} needs {bound}, got {name}={expo}")


def _raw_terms(case: int, e: float, x_mag, y_mag, cos_angle) -> tuple:
    """(|LHS|, RHS, term magnitude sum) without range checks.

    The third output bounds the cancellation: |LHS| much below it means
    the float result is noise-dominated.
    """
    x_mag = np.asarray(x_mag, dtype=float)
    y_mag = np.asarray(y_mag, dtype=float)
    cos_angle = np.asarray(cos_angle, dtype=float)
    if case in (1, 2, 3, 4):
        dot = x_mag * y_mag * cos_angle
        plus_sq = x_mag**2 + 2.0 * dot + y_mag**2
        plus_mag = np.sqrt(np.maximum(plus_sq, 0.0))
        plus_dot_y = dot + y_mag**2
        t_main = _flux_factor(plus_mag, e - 2.0) * plus_dot_y
        if case in (1, 2):
            t2 = _flux_factor(x_mag, e - 2.0) * plus_dot_y
            t3 = (e - 2.0) * _flux_factor(x_mag, e - 4.0) * dot**2
            lhs = np.abs(t_main - t2 - t3)
            rhs = y_mag**e if case == 1 else y_mag**e + x_mag ** (e - 3.0) * y_mag**3
        else:
            t2 = y_mag**e
            t3 = _flux_factor(x_mag, e - 2.0) * dot
            lhs = np.abs(t_main - t2 - t3)
            rhs = (
                x_mag ** (e - 2.0) * y_mag**2
                if case == 3
                else x_mag ** (e - 2.0) * y_mag**2 + x_mag * y_mag ** (e - 1.0)
            )
        return lhs, rhs, np.abs(t_main) + np.abs(t2) + np.abs(t3)
    a_val = x_mag
    b_val = y_mag * cos_angle  # sign carrier
    s = a_val + b_val
    t1 = s * np.abs(s) ** (e - 2.0)
    t2 = a_val * np.abs(a_val) ** (e - 2.0)
    t3 = (e - 1.0) * np.abs(a_val) ** (e - 2.0) * b_val
    lhs = np.abs(t1 - t2 - t3)
    rhs = (
        np.abs(b_val) ** (e - 1.0)
        if case == 5
        else np.abs(b_val) ** (e - 1.0) + np.abs(a_val) ** (e - 3.0) * b_val**2
    )
    return lhs, rhs, np.abs(t1) + np.abs(t2) + np.abs(t3)


def elementary_terms(case: int, exponent: float, x_mag, y_mag, cos_angle) -> tuple:
    """(|LHS|, RHS) for one inequality case at given magnitudes and angle.

    Vector cases reduce to the plane: only |x|, |y| and the angle enter.
    Scalar cases read cos_angle as the sign of b.
    """
    _check_case(case, exponent)
    lhs, rhs, _ = _raw_terms(case, exponent, x_mag, y_mag, cos_angle)
    return lhs, rhs


def elementary_C_estimate(case: int, exponent: float, samples: int = 200) -> float:
    """Empirical minimal C: sup |LHS|/RHS over a magnitude-angle grid.

    Joint homogeneity pins |x| = 1; a spot re-evaluation at |x| = 7
    guards the reduction, restricted to points where the left side is
    not cancellation noise.  A grid with no such point cannot be
    guarded and raises ScalingGuardFailure.
    """
    _check_case(case, exponent)
    y = np.logspace(-6.0, 6.0, samples)
    if case in (1, 2, 3, 4):
        ang = np.cos(np.linspace(0.0, math.pi, max(17, samples // 3)))
    else:
        ang = np.array([-1.0, 1.0])
    ym, cm = np.meshgrid(y, ang, indexing="ij")
    lhs, rhs, scale = _raw_terms(case, exponent, 1.0, ym, cm)
    best = float(np.max(lhs / rhs))

    # scaling guard: the ratio must not see the overall magnitude; only
    # well-conditioned points can verify this to 1e-10
    solid = lhs > 1e-4 * scale
    idx = np.flatnonzero(solid.ravel())[::17]
    if idx.size == 0:
        raise ScalingGuardFailure(
            f"case {case}: scaling guard has no well-conditioned point at {samples} samples"
        )
    ref = (lhs / rhs).ravel()[idx]
    lhs7, rhs7, _ = _raw_terms(
        case, exponent, 7.0, 7.0 * ym.ravel()[idx], cm.ravel()[idx]
    )
    drift = float(np.max(np.abs(lhs7 / rhs7 - ref) / ref))
    if drift > 1e-10:
        raise ScalingGuardFailure(
            f"case {case}: ratio moved by {drift:.3e} under joint scaling by 7"
        )
    return best
