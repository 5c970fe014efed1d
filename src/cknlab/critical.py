"""Critical-point machinery around the optimiser bubbles.

Euler-Lagrange residuals in weak form, dual-norm lower-bound
estimates over explicit test bases, the degenerate Hessian quadratic
form with its radial shortcut, the spectral-gap ratio, the two-sided
near-manifold quantities, the alternative dichotomy with its eta
threshold, and empirical constants for six elementary pointwise
inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    BasisTooSmall,
    CaseRangeViolation,
    FarFromManifold,
    GridMismatch,
    NotOrthogonal,
    OptimizerStall,
    RegionViolation,
    ScalingGuardFailure,
    UnsupportedField,
    ZeroField,
)
from .fields import Bubble, Field, gaussian_bump_profile, sample_bubble
from .functionals import _energy, _flux_factor, _gradient_stack, weighted_grad_pnorm
from .manifold import (
    _bubble_on,
    _tangents_like,
    mu_rho_decompose,
    orthogonality_check,
    select_Pu,
    v_inner,
)
from .params import CknParams

__all__ = [
    "ExpansionQuantities",
    "SpectralReport",
    "DualNormEstimate",
    "AlternativeReport",
    "el_residual_pairing",
    "dual_norm_estimate",
    "hessian_form",
    "spectral_gap_ratio",
    "expansion_quantities",
    "alternative_check",
    "elementary_terms",
    "elementary_C_estimate",
]

# ladder spacing for the dual-norm test bumps, in log radius
LADDER_STEP = 1.5
LADDER_WIDTH = 1.0
# unit-norm basis directions with singular value below this fraction of
# the largest are dropped from the dual-norm span
RANK_GUARD_RTOL = 1e-6
# Newton solve of the least-norm problem: stop when the Newton decrement
# falls below NEWTON_RTOL of the objective
NEWTON_RTOL = 1e-13
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class ExpansionQuantities:
    """Computable pieces of the two-sided near-manifold estimates."""

    residual_pairing_norm: float
    Q: float
    N: float
    mu: float
    distance_gate: float


@dataclass(frozen=True)
class SpectralReport:
    lhs: float
    rhs: float
    ratio: float
    tau_estimate: float


@dataclass(frozen=True)
class DualNormEstimate:
    """Lower-bound estimate with the half-basis value for refinement display."""

    value: float
    half_value: Optional[float]
    basis_size: int


@dataclass(frozen=True)
class AlternativeReport:
    branch: str  # "stable" | "interval" | "degenerate"
    A_u: Optional[float]
    eta: float
    kappa: float
    interval: tuple
    t_grid: tuple


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


def _ladder_centers(count: int) -> list:
    # 0, +step, -step, +2 step, -2 step, ...: prefixes nest as count grows
    out = [0.0]
    k = 1
    while len(out) < count:
        out.append(k * LADDER_STEP)
        if len(out) < count:
            out.append(-k * LADDER_STEP)
        k += 1
    return out[:count]


def _test_basis(u: Field, params: CknParams, size: int) -> list:
    core = _tangents_like(u, Bubble(amplitude=1.0, scale=1.0), params)
    for c in _ladder_centers(size - len(core)):
        core.append(gaussian_bump_profile(u.grid, u.dim, c, LADDER_WIDTH))
    return core


def _least_norm_energy(
    comps: np.ndarray, w: np.ndarray, ell: np.ndarray, p: float
) -> float:
    """min sum(w |comps @ y|^p) subject to ell . y = 1, for a unit ell.

    Closed-form least squares at p = 2, which is also the start for
    other p: Newton on the null space of ell with the analytic gradient
    and Hessian, each step length found by a bounded scalar search on
    the exact objective.  The search is what globalises the step for
    p < 2, where the Hessian weights |g|^(p-2) blow up as g -> 0.
    """
    null = np.linalg.svd(ell[None, :])[2][1:].T
    g0 = comps @ ell
    if null.shape[1] == 0:
        return _energy(w, g0, p)
    cols = comps @ null  # (ncomp, nodes, m - 1)
    sw = np.sqrt(w)[:, None]
    z = np.linalg.lstsq(
        (sw * cols).reshape(-1, null.shape[1]), -(sw[:, 0] * g0).ravel(), rcond=None
    )[0]
    grads = g0 + cols @ z
    f = _energy(w, grads, p)
    if p == 2.0:
        return f
    for _ in range(NEWTON_MAX_STEPS):
        mag = np.sqrt(np.sum(grads**2, axis=0))
        wa = w * _flux_factor(mag, p - 2.0)
        unit = grads / np.where(mag > 0.0, mag, 1.0)
        jac = np.einsum("cn,cnk->nk", unit, cols)  # d|g| / dz per node
        grad = p * (wa * mag) @ jac
        hess = p * (
            np.einsum("n,cnj,cnk->jk", wa, cols, cols) + (p - 2.0) * (jac.T * wa) @ jac
        )
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        if -float(grad @ step) <= NEWTON_RTOL * f:
            return f
        dgrads = cols @ step
        res = minimize_scalar(
            lambda t: _energy(w, grads + t * dgrads, p),
            bounds=(0.0, 2.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if not res.fun < f:
            return f  # the objective sits at its rounding floor
        z = z + res.x * step
        grads = g0 + cols @ z
        f = _energy(w, grads, p)
    raise OptimizerStall(
        f"dual-norm Newton solve not converged after {NEWTON_MAX_STEPS} steps"
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
    any caller-supplied extras, computed as 1 / min{ ||phi_c|| :
    <R(u), phi_c> = 1 }.  Elements are scaled to unit norm and
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
        half_value = dual_norm_estimate(
            u, params, basis_size // 2, extra_elements
        ).value
    elements = _test_basis(u, params, basis_size) + list(extra_elements)
    ell = np.array([el_residual_pairing(u, e, params) for e in elements])
    value = 0.0
    if np.any(ell):
        p = params.p
        comps, w = _gradient_stack(elements, params)
        mags = np.sqrt(np.sum(comps**2, axis=0))
        scale = (w @ mags**p) ** (1.0 / p)  # element norms
        scale = np.where(scale > 0.0, scale, 1.0)
        comps = comps / scale
        ell = ell / scale
        weighted = (w[:, None] ** (1.0 / p) * comps).reshape(-1, len(elements))
        _, sing, vt = np.linalg.svd(weighted, full_matrices=False)
        keep = vt[sing >= RANK_GUARD_RTOL * sing[0]].T
        ell = keep.T @ ell
        ell_norm = float(np.linalg.norm(ell))
        if ell_norm > 0.0:
            f_min = _least_norm_energy(comps @ keep, w, ell / ell_norm, p)
            value = ell_norm / f_min ** (1.0 / p)
    return DualNormEstimate(value=value, half_value=half_value, basis_size=basis_size)


# ---------------------------------------------------------------------------
# Hessian quadratic form and the spectral gap


def hessian_form(
    v_bub: Bubble, rho: Field, params: CknParams, reduced: bool = False
) -> float:
    """Degenerate second-variation form at the bubble, p > 2 only.

    General path: integral |x|^-pa (|grad V|^(p-2) |grad rho|^2
    + (p-2) |grad V|^(p-4) (grad V . grad rho)^2).  The reduced path
    collapses both terms to (p-1) |V'|^(p-2) |rho'|^2 for radial rho
    and exists as an independent check.
    """
    n, p, a = params.n, params.p, params.a
    if p <= 2.0:
        raise RegionViolation(f"quadratic form defined for p > 2, got p={p}")
    if reduced and not rho.is_radial:
        raise UnsupportedField("reduced path is radial-only")
    dv = sample_bubble(params, v_bub, rho.grid).grad_r  # centred bubbles only
    mag = np.abs(dv)
    if reduced:
        integrand = (p - 1.0) * _flux_factor(mag, p - 2.0) * rho.grad_r**2
    else:
        integrand = (
            _flux_factor(mag, p - 2.0) * rho.grad_sq()
            + (p - 2.0) * _flux_factor(mag, p - 4.0) * (dv * rho.grad_r) ** 2
        )
    return rho.integrate(n - 1.0 - p * a, integrand)


def spectral_gap_ratio(v_bub: Bubble, rho: Field, params: CknParams) -> SpectralReport:
    """Rayleigh quotient of the Hessian form against the (q-1) pairing.

    For rho orthogonal to the manifold tangent space the ratio must
    exceed 1; tau_estimate = ratio - 1 is the recorded margin.
    """
    residuals = orthogonality_check(rho, v_bub, params)
    if any(abs(r) > 1e-6 for r in residuals):
        raise NotOrthogonal(f"tangent residuals {residuals}")
    v_field = _bubble_on(rho, params, v_bub)
    rhs = (params.q - 1.0) * v_inner(rho, rho, v_field, params)
    if rhs <= 0.0:
        raise ZeroField("vanishing rho in the spectral quotient")
    lhs = hessian_form(v_bub, rho, params)
    return SpectralReport(
        lhs=lhs, rhs=rhs, ratio=lhs / rhs, tau_estimate=lhs / rhs - 1.0
    )


# ---------------------------------------------------------------------------
# near-manifold two-sided quantities


def _v_quadratic(v_bub: Bubble, rho: Field, params: CknParams) -> float:
    """integral |x|^-pa |grad V|^(p-2) |grad rho|^2, no (p-2) piece."""
    p = params.p
    mag = np.abs(sample_bubble(params, v_bub, rho.grid).grad_r)
    return rho.integrate(
        params.n - 1.0 - p * params.a, _flux_factor(mag, p - 2.0) * rho.grad_sq()
    )


def _project_near(u: Field, params: CknParams, distance_gate: Optional[float]):
    unorm = weighted_grad_pnorm(u, params) ** (1.0 / params.p)
    if unorm <= 0.0:
        raise ZeroField("near-manifold analysis of the zero field")
    v_bub = select_Pu(u, params)
    v_field = _bubble_on(u, params, v_bub)
    diff = u - v_field
    dist = weighted_grad_pnorm(diff, params) ** (1.0 / params.p)
    gate = 0.1 * unorm if distance_gate is None else distance_gate
    if dist > gate:
        raise FarFromManifold(f"distance {dist:.3e} exceeds the gate {gate:.3e}")
    return v_bub, v_field, diff, dist, gate


def expansion_quantities(
    u: Field,
    params: CknParams,
    distance_gate: Optional[float] = None,
    basis_size: int = 12,
    extra_elements: Sequence[Field] = (),
) -> ExpansionQuantities:
    """Residual dual norm, Q, N and mu for a near-manifold field, p > 2."""
    if params.p <= 2.0:
        raise RegionViolation(f"two-sided estimates need p > 2, got p={params.p}")
    v_bub, _, _, _, gate = _project_near(u, params, distance_gate)
    dec = mu_rho_decompose(u, v_bub, params)
    rho = dec.rho
    big_q = _v_quadratic(v_bub, rho, params)
    big_n = weighted_grad_pnorm(rho, params)
    est = dual_norm_estimate(u, params, basis_size, extra_elements)
    return ExpansionQuantities(
        residual_pairing_norm=est.value,
        Q=big_q,
        N=big_n,
        mu=dec.mu,
        distance_gate=gate,
    )


def alternative_check(
    u: Field,
    params: CknParams,
    c1: float,
    C1: float,
    distance_gate: Optional[float] = None,
    t_count: int = 5,
    basis_size: int = 12,
    extra_elements: Sequence[Field] = (),
) -> AlternativeReport:
    """Dichotomy on A_u = N/Q with the given two-sided fit constants.

    Outside [c1/(2 C1), 2 C1/c1] the uniform estimate is checked on u
    itself; inside, the scaled fields u_t = t u + (1-t) V are checked
    for t up to eta = (c1/(2 C1))^(2/(p-2)).  kappa is the largest
    admissible constant observed.
    """
    if params.p <= 2.0:
        raise RegionViolation(f"alternative needs p > 2, got p={params.p}")
    if c1 <= 0.0 or C1 <= 0.0:
        raise ValueError("fit constants must be positive")
    eta = (c1 / (2.0 * C1)) ** (2.0 / (params.p - 2.0))
    interval = (c1 / (2.0 * C1), 2.0 * C1 / c1)
    # kappa is measured against the projection gap ||u - V||, not ||u||
    v_bub, v_field, gap, gap_norm, _ = _project_near(u, params, distance_gate)
    dec = mu_rho_decompose(u, v_bub, params)
    rho = dec.rho
    unorm = weighted_grad_pnorm(u, params) ** (1.0 / params.p)
    rho_norm = weighted_grad_pnorm(rho, params) ** (1.0 / params.p)
    if rho_norm <= 1e-7 * unorm:
        # both branches hold trivially when u is a multiple of its bubble;
        # the gate sits just above the bubble-selector resolution
        return AlternativeReport(
            branch="degenerate",
            A_u=None,
            eta=eta,
            kappa=math.inf,
            interval=interval,
            t_grid=(),
        )
    big_q = _v_quadratic(v_bub, rho, params)
    big_n = weighted_grad_pnorm(rho, params)
    a_u = big_n / big_q

    if a_u < interval[0] or a_u > interval[1]:
        est = dual_norm_estimate(u, params, basis_size, extra_elements)
        kappa = est.value / gap_norm ** (params.p - 1.0)
        return AlternativeReport(
            branch="stable",
            A_u=a_u,
            eta=eta,
            kappa=kappa,
            interval=interval,
            t_grid=(),
        )
    ts = tuple(float(eta) * (j + 1) / t_count for j in range(t_count))
    kappa = math.inf
    for t in ts:
        u_t = v_field + t * gap
        est = dual_norm_estimate(u_t, params, basis_size, extra_elements)
        kappa = min(kappa, est.value / (t * gap_norm) ** (params.p - 1.0))
    return AlternativeReport(
        branch="interval",
        A_u=a_u,
        eta=eta,
        kappa=kappa,
        interval=interval,
        t_grid=ts,
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
        raise ValueError(f"case must be 1..6, got {case}")
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
    not cancellation noise.
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
