"""Critical-point machinery around the optimiser bubbles.

Euler-Lagrange residuals in weak form, the exact dual norm of a
radial residual, dual-norm lower-bound estimates over explicit test
bases, the degenerate Hessian quadratic
form, the radial spectral gap as a Rayleigh-Ritz eigenvalue, the
two-sided near-manifold quantities, and empirical constants for six
elementary pointwise inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BadGridSpec,
    BasisTooSmall,
    CaseRangeViolation,
    FarFromManifold,
    GridMismatch,
    InvalidArgument,
    NonFiniteOutput,
    OptimizerStall,
    RegionViolation,
    ScalingGuardFailure,
    UnsupportedField,
    ZeroField,
)
from .fields import _PANEL_W, _PANEL_X, BLOCK_POINTS, PANEL_POINTS
from .fields import Bubble, Field, RadialGrid, gaussian_bump_profile, sample_bubble
from .functionals import _flux_factor
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
    "radial_dual_norm",
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
        n - 1.0 - q * b, _flux_factor(np.abs(u.values), q - 2.0) * u.values * phi.values
    )
    return zero_term - u.integrate(n - 1.0 - p * a, flux * dot)


# ---------------------------------------------------------------------------
# exact dual norm of a radial residual


@lru_cache(maxsize=1)
def _panel_integration_matrix() -> np.ndarray:
    """S_ij = integral from -1 to x_i of l_j, the panel's Lagrange basis.

    The Gauss rule is exact to degree 2 PANEL_POINTS - 1, so
    l_j = w_j sum_k (k + 1/2) P_k(x_j) P_k, and legint integrates each
    P_k from -1.  Built on first use, not at import.
    """
    leg = np.polynomial.legendre
    k = np.arange(PANEL_POINTS)
    coeffs = (k + 0.5)[:, None] * leg.legvander(_PANEL_X, PANEL_POINTS - 1).T * _PANEL_W
    return leg.legval(_PANEL_X, leg.legint(coeffs, lbnd=-1.0)).T


def _running_integral(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """integral from t_min to each node of f, sampled in log radius.

    Panel by panel: the integration matrix scaled by the half-width,
    plus the running sum of the earlier panels' totals.
    """
    panels = f.reshape(-1, PANEL_POINTS)
    half = 0.5 * (grid.t_max - grid.t_min) / len(panels)
    before = np.concatenate(([0.0], np.cumsum(panels[:-1] @ _PANEL_W)))
    return half * (before[:, None] + panels @ _panel_integration_matrix().T).ravel()


def radial_dual_norm(u: Field, params: CknParams) -> float:
    """Exact dual norm of the equation residual of a radial u.

    With h = r^(n-1-qb) |u|^(q-2) u and W = r^(n-1-pa), integrating the
    zero-order term of el_residual_pairing by parts turns the pairing
    into -omega integral phi' G dr, G = W |u'|^(p-2) u' + integral_0^r h.
    Hoelder's inequality then gives the sup over radial phi exactly:
    (omega integral W^(1-p') |G|^p' dr)^(1/p'), p' = p / (p-1).  Radial
    phi suffice: the pairing and the norm are rotation-invariant and the
    norm is convex, so averaging phi over rotations lowers neither.
    The running integral starts at r_min; integral_0^r_min h is dropped.
    G vanishes at a bubble (the first integral of the radial equation),
    so there the value reads the quadrature floor.  Raises
    UnsupportedField for a non-radial u.
    """
    if not u.is_radial:
        raise UnsupportedField("the radial dual norm takes a radial field")
    n, p, q = params.n, params.p, params.q
    r = u.grid.nodes[:, None]
    flux = _flux_factor(np.sqrt(u.grad_sq()), p - 2.0) * u.grad_r
    h_t = r ** (n - q * params.b) * _flux_factor(np.abs(u.values), q - 2.0) * u.values
    big_g = r ** (n - 1.0 - p * params.a) * flux
    big_g += _running_integral(u.grid, h_t[:, 0])[:, None]
    dual = p / (p - 1.0)
    power = (n - 1.0 - p * params.a) * (1.0 - dual)
    return u.integrate(power, np.abs(big_g) ** dual) ** (1.0 / dual)


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


def _dual_basis(grid: RadialGrid, dim: int, params: CknParams, size: int) -> tuple:
    """(V, G, w, scale, white) of the test basis, once per grid (RadialGrid.memo).

    V and G (nodes x size) hold the values and radial gradients of the
    tangent elements and _ladder's bumps, w the weights, scale their
    norms and white the rank guard's whitening of w^(1/p) G / scale.
    BadGridSpec and NonFiniteOutput raise from the build, which stores nothing.
    """

    def build():
        core = tangent_basis(Bubble(amplitude=1.0, scale=1.0), params, grid)
        basis = core + _ladder(grid, dim, size - len(core), LADDER_STEP, LADDER_WIDTH)
        grads = np.hstack([e.grad_r for e in basis])
        bad = np.flatnonzero(~np.isfinite(grads).all(axis=0)).tolist()
        if bad:
            raise NonFiniteOutput(f"dual-norm basis elements {bad} have non-finite gradients")
        p = params.p
        w = basis[0].measure(params.n - 1.0 - p * params.a).ravel()
        scale = (w @ np.abs(grads) ** p) ** (1.0 / p)
        scale[scale == 0.0] = 1.0
        _, sing, vt = np.linalg.svd(w[:, None] ** (1.0 / p) * (grads / scale), full_matrices=False)
        kept = sing >= RANK_GUARD_RTOL * sing[0]
        white = vt[kept].T / sing[kept]
        return np.hstack([e.values for e in basis]), grads, w, scale, white

    return grid.memo(("dual basis", params, dim, size), build)


def _basis_pairings(u: Field, params: CknParams, values, grads) -> np.ndarray:
    """el_residual_pairing against radial elements: Z . V - F . G, Z and F summed over psi."""
    n, p, q, a, b = params.n, params.p, params.q, params.a, params.b
    zero = u.measure(n - 1.0 - q * b) * _flux_factor(np.abs(u.values), q - 2.0) * u.values
    flux = _flux_factor(np.sqrt(u.grad_sq()), p - 2.0) * u.grad_r * u.measure(n - 1.0 - p * a)
    return np.sum(zero, axis=1) @ values - np.sum(flux, axis=1) @ grads


def _dual_sup(comps: np.ndarray, w: np.ndarray, ell: np.ndarray, p: float) -> float:
    """sup of ell . y / f(y)^(1/p) with f(y) = sum(w |comps @ y|^p), comps nodes x k.

    Newton ascent on the concave phi(y) = ell . y - f(y) / p (f is
    p-homogeneous, so at its maximiser ell . y = f(y)).  With g = comps @ y
    and the flux row w |g|^(p-2) g: f = flux . g, ascent ell - comps^T flux,
    Hessian (p-1) comps^T diag(w |g|^(p-2)) comps.  It starts on the ray of
    the p = 2 maximiser ell (comps is whitened) and halves a step until
    phi rises by ARMIJO_C t grad . s: at p < 2 full steps overshoot near g = 0.
    """

    def rows(y):  # w |g|^(p-2), the flux row, f and phi
        g = comps @ y
        wa = w * _flux_factor(np.abs(g), p - 2.0)
        f = float((wa * g) @ g)
        return wa, wa * g, f, float(ell @ y) - f / p

    y = ell * (float(ell @ ell) / rows(ell)[2]) ** (1.0 / (p - 1.0))
    for _ in range(NEWTON_MAX_STEPS):
        wa, flux, f, base = rows(y)
        ascent = ell - flux @ comps
        step = np.linalg.solve((p - 1.0) * (comps.T * wa) @ comps, ascent)
        slope = float(ascent @ step)
        if slope <= NEWTON_RTOL * f:
            return float(ell @ y) / f ** (1.0 / p)
        length = 1.0
        while rows(y + length * step)[3] < base + ARMIJO_C * length * slope:
            length /= 2.0
        y = y + length * step
    raise OptimizerStall(f"not converged after {NEWTON_MAX_STEPS} steps")


def dual_norm_estimate(u: Field, params: CknParams, basis_size: int = 12) -> DualNormEstimate:
    """Lower-bound the dual norm of the equation residual of u.

    The sup of |<R(u), phi>| / ||phi|| over the nested radial span of
    _dual_basis less its rank guard's noise directions: one product of u
    with the basis (_basis_pairings), then _dual_sup.  A larger basis
    never reports less; half_value is the estimate at half the size (None
    below 8).  OptimizerStall names the tuple when _dual_sup fails.
    """
    if basis_size < 4:
        raise BasisTooSmall(f"need at least 4 test elements, got {basis_size}")
    half = dual_norm_estimate(u, params, basis_size // 2).value if basis_size >= 8 else None
    values, grads, w, scale, white = _dual_basis(u.grid, u.dim, params, basis_size)
    ell = white.T @ (_basis_pairings(u, params, values, grads) / scale)
    try:
        value = _dual_sup(grads / scale @ white, w, ell, params.p) if np.any(ell) else 0.0
    except (np.linalg.LinAlgError, OptimizerStall) as exc:
        tup = (params.n, params.p, params.a, params.b)
        raise OptimizerStall(f"dual-norm Newton ascent at {tup}: {exc}") from None
    return DualNormEstimate(value=value, half_value=half, basis_size=basis_size)


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
    """Smallest eigenvalue of H x = mu M x on M's well-conditioned span, and its rank.

    Rows are first scaled to unit M-norm (D = diag(M)^(-1/2), H -> DHD,
    M -> DMD): the span is unchanged, and the guard drops dependent
    directions, not rows whose weights lie decades below the largest.
    """
    d = 1.0 / np.sqrt(np.diag(m))
    h, m = d[:, None] * h * d, d[:, None] * m * d
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
    the pairing Gram matrix of the unit-norm rows falls below
    RITZ_GUARD_RTOL of its largest eigenvalue are dropped as numerically
    dependent.  The spans nest,
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
) -> ExpansionQuantities:
    """Residual dual norm, Q, N and mu for a near-manifold radial field, p > 2.

    The residual is radial_dual_norm's exact value.
    """
    if params.p <= 2.0:
        raise RegionViolation(f"two-sided estimates need p > 2, got p={params.p}")
    residual = radial_dual_norm(u, params)
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
    return ExpansionQuantities(
        residual_pairing_norm=residual,
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
    guarded and raises ScalingGuardFailure.  The grid is evaluated in
    row blocks of at most BLOCK_POINTS points, never whole.
    """
    _check_case(case, exponent)
    y = np.logspace(-6.0, 6.0, samples)
    if case in (1, 2, 3, 4):
        ang = np.cos(np.linspace(0.0, math.pi, max(17, samples // 3)))
    else:
        ang = np.array([-1.0, 1.0])
    step = max(1, BLOCK_POINTS // len(ang))
    best, seen, guard = -np.inf, 0, []
    for start in range(0, samples, step):
        ym = y[start : start + step, None]
        lhs, rhs, scale = _raw_terms(case, exponent, 1.0, ym, ang)
        ratio = lhs / rhs
        best = np.maximum(best, np.max(ratio))
        # scaling guard: the ratio must not see the overall magnitude; only
        # well-conditioned points can verify this to 1e-10 (every 17th, row-major)
        rows, cols = np.nonzero(lhs > 1e-4 * scale)
        pick = slice(-seen % 17, None, 17)
        seen += rows.size
        rows, cols = rows[pick], cols[pick]
        guard.append((7.0 * ym[rows, 0], ang[cols], ratio[rows, cols]))
    y7, c7, ref = (np.concatenate(g) for g in zip(*guard))
    if ref.size == 0:
        raise ScalingGuardFailure(
            f"case {case}: scaling guard has no well-conditioned point at {samples} samples"
        )
    lhs7, rhs7, _ = _raw_terms(case, exponent, 7.0, y7, c7)
    drift = float(np.max(np.abs(lhs7 / rhs7 - ref) / ref))
    if drift > 1e-10:
        raise ScalingGuardFailure(
            f"case {case}: ratio moved by {drift:.3e} under joint scaling by 7"
        )
    return float(best)
