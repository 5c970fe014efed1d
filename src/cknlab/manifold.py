"""The extremal manifold: normalization, projection, decomposition.

The two-parameter family A (1 + B r^sigma)^-m (amplitude, dilation; plus
an axial shift in the unweighted case) carries everything here: the
canonical amplitude that turns a profile into an exact optimiser, metric
projection onto the family, the dilation-picked representative used by
the near-manifold expansion, and the tangent-space bookkeeping.

All inner products against a bubble use the q-weighted pairing
<f, g>_V = integral |x|^-qb V^(q-2) f g, the natural metric of the
linearised problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import digamma

from .errors import (
    OptimizerStall,
    RootFindFailure,
    TranslationForbidden,
    ZeroField,
)
from .fields import (
    Bubble,
    Field,
    RadialGrid,
    bubble_evaluator,
    bubble_second_derivative,
    make_psi_grid,
    make_radial_grid,
    sample_bubble,
    translate_axisym,
)
from .functionals import _energy, _flux_factor, _gradient_stack, weighted_grad_pnorm
from .params import CknParams, sharp_constant

__all__ = [
    "DecompositionRecord",
    "bubble_normalization",
    "canonical_bubble",
    "canonical_profile",
    "manifold_distance",
    "select_Pu",
    "mu_rho_decompose",
    "tangent_basis",
    "orthogonality_check",
    "orthogonalize",
    "v_inner",
]

# wide window: the unit-amplitude energy integrals must be tail-clean
# even when the decay rate (n-p-pa)/(p-1) is small
NORMALIZATION_GRID = (-60.0, 60.0, 3072)


@lru_cache(maxsize=128)
def _norm_grid(params: CknParams) -> RadialGrid:
    """Reference grid, widened when some integrand tail decays slowly.

    The four relevant log-radius rates: gradient tail beta, q tail
    q beta + q b - n, gradient origin beta (p-1) + p sigma, q origin
    n - q b.  The unit profile's integrands peak near 2^(-m q) rather
    than 1, so the half-width (26 + m q ln 2)/min keeps the truncation
    below ~5e-12 relative to the integrals themselves; node density
    matches the baseline window.
    """
    n, p, q, b = params.n, params.p, params.q, params.b
    beta = params.tail_rate
    min_rate = min(
        beta,
        q * beta + q * b - n,
        beta * (p - 1.0) + p * params.sigma,
        n - q * b,
    )
    budget = 26.0 + params.bubble_m * q * math.log(2.0)
    half = max(NORMALIZATION_GRID[1], budget / min_rate)
    density = NORMALIZATION_GRID[2] / (2.0 * NORMALIZATION_GRID[1])
    return make_radial_grid(-half, half, int(math.ceil(2.0 * half * density)))


@dataclass(frozen=True)
class DecompositionRecord:
    """u split as mu V + rho with the tangent pairings of rho."""

    V: Bubble
    mu: float
    rho: Field
    tangent_residuals: tuple
    distance_estimate: float


@lru_cache(maxsize=128)
def _unit_integrals(params: CknParams) -> tuple[float, float]:
    """Gradient and q energies of the unit-amplitude, unit-scale profile.

    Evaluated in log radius: on wide windows r^sigma and r^power
    overflow on their own while the integrands stay finite.
    """
    g = _norm_grid(params)
    n, p, q, a, b = params.n, params.p, params.q, params.a, params.b
    sig, m = params.sigma, params.bubble_m
    t = g.log_nodes
    soft = np.logaddexp(0.0, sig * t)  # log(1 + r^sigma)
    # the carrier field holds log V and log|V'| instead of the samples
    unit = Field.radial(
        g, n, -m * soft, math.log(m * sig) + (sig - 1.0) * t - (m + 1.0) * soft
    )
    grad = unit.integrate(n - 1.0 - p * a, p * unit.grad_r, log=True)
    qint = unit.integrate(n - 1.0 - q * b, q * unit.values, log=True)
    return grad, qint


@lru_cache(maxsize=128)
def bubble_normalization(params: CknParams) -> Bubble:
    """Canonical amplitude: the profile that is an exact optimiser.

    The Euler-Lagrange balance fixes A^(q-p) as the ratio of the two
    unit-amplitude energies; afterwards both A^p G and A^q Q must equal
    S^(pq/(q-p)) (S from the closed form), which is verified here.

    Raises
    ------
    RootFindFailure
        If the normalised energies miss the sharp-constant value by
        more than 1e-6 relative.
    """
    grad_unit, q_unit = _unit_integrals(params)
    amp = (grad_unit / q_unit) ** (1.0 / (params.q - params.p))
    target = sharp_constant(params) ** (
        params.p * params.q / (params.q - params.p)
    )
    grad_norm_p = amp**params.p * grad_unit
    q_norm_q = amp**params.q * q_unit
    for name, val in (("gradient", grad_norm_p), ("q", q_norm_q)):
        rel = abs(val - target) / target
        if rel > 1e-6:
            raise RootFindFailure(
                f"normalised {name} energy off by {rel:.3e} relative "
                f"(value {val!r}, expected {target!r})"
            )
    return Bubble(amplitude=amp, scale=1.0)


def canonical_bubble(
    params: CknParams, lam: float = 1.0, axial_shift: float = 0.0
) -> Bubble:
    """Manifold element at dilation lam: amplitude scales as lam^((n-p-pa)/p)."""
    base = bubble_normalization(params)
    return Bubble(
        amplitude=base.amplitude * lam**params.dilation_weight,
        scale=lam,
        axial_shift=axial_shift,
    )


def canonical_profile(params: CknParams, grid: RadialGrid, lam: float = 1.0) -> Field:
    return sample_bubble(params, canonical_bubble(params, lam), grid)


def _bubble_on(u: Field, params: CknParams, bub: Bubble) -> Field:
    """The bubble on u's grid: a radial sample, translated when shifted.

    Radial samples broadcast against any angular grid; a shifted bubble
    is laid on u's angular grid and cannot pair with a radial u.
    """
    v = sample_bubble(params, replace(bub, axial_shift=0.0), u.grid)
    if bub.axial_shift == 0.0:
        return v
    if u.is_radial:
        raise TranslationForbidden("shifted bubble cannot pair with a radial field")
    return translate_axisym(v, bub.axial_shift, params, len(u.psi_nodes))


# ---------------------------------------------------------------------------
# metric projection


def _qdensity_mean(u: Field, params: CknParams) -> float:
    """Mean log radius of the q-mass; dilation shifts it by -log(lam)."""
    power = params.n - 1.0 - params.q * params.b
    dens = np.abs(u.values) ** params.q
    total = u.integrate(power, dens)
    if total <= 0.0:
        raise ZeroField("q-mass vanishes; no dilation seed")
    return u.integrate(power, dens * u.grid.log_nodes[:, None]) / total


@lru_cache(maxsize=128)
def _reference_mean(params: CknParams) -> float:
    """Mean log radius of the q-mass of the unit-scale bubble, in closed form.

    In s = sigma t the q-density is e^(alpha s) (1 + e^s)^(-m q) with
    alpha = (n - q b)/sigma, a generalised logistic law with mean
    digamma(alpha) - digamma(m q - alpha); no window truncates it.
    """
    alpha = (params.n - params.q * params.b) / params.sigma
    mq = params.bubble_m * params.q
    return float(digamma(alpha) - digamma(mq - alpha)) / params.sigma


def moment_seed(u: Field, params: CknParams) -> float:
    """log(lam) for the dilation whose q-mass centre matches u's."""
    return _reference_mean(params) - _qdensity_mean(u, params)


# the amplitude's relative first-order residual must stay below
# AMPLITUDE_RTOL unless the distance is below ROUNDING_FLOOR of the
# gradient norm: there the residual is rounding noise, and the distance
# exceeds its minimum by no more than itself
AMPLITUDE_RTOL = 1e-6
ROUNDING_FLOOR = 1e-12


def _bracketed_min(f, seed: float) -> tuple[float, float]:
    """(f, log lam) at the minimum of f over log lam, or OptimizerStall.

    A 33-point scan over seed +- 8, then Brent inside the bracket of every
    strict interior scan minimum; ties (1e-12 relative) go to min |log lam|.
    """
    f = lru_cache(maxsize=None)(f)  # Brent re-evaluates the scan's bracket points
    x = np.linspace(seed - 8.0, seed + 8.0, 33)
    v = [f(t) for t in x]
    found = [
        _brent(f, x[i - 1], x[i], x[i + 1])
        for i in range(1, len(x) - 1)
        if v[i] < v[i - 1] and v[i] < v[i + 1]
    ]
    if not found:
        raise OptimizerStall(f"no interior minimum in the scan window {seed:.6g} +- 8")
    best = min(r[0] for r in found)
    ties = [r for r in found if r[0] - best <= 1e-12 * abs(best)]
    return min(ties, key=lambda r: abs(r[1]))


def _brent(f, lo: float, mid: float, hi: float) -> tuple[float, float]:
    res = minimize_scalar(f, bracket=(lo, mid, hi), method="brent")
    if not lo < res.x < hi:
        raise OptimizerStall(f"Brent left its bracket ({lo:.6g}, {hi:.6g})")
    return float(res.fun), float(res.x)


def _family_min(f, seed: float, u: Field, params: CknParams) -> tuple[float, float]:
    """(log lam, shift) minimising f(log lam, shift) over the family.

    The shift moves only for axisymmetric u with a = b = 0: Brent over
    the dilation-profiled minimum, from the checked bracket (-1, 0, 1).
    """
    if u.is_radial or params.a != 0.0 or params.b != 0.0:
        return _bracketed_min(lambda t: f(t, 0.0), seed)[1], 0.0
    profile = lru_cache(maxsize=None)(lambda s: _bracketed_min(lambda t: f(t, s), seed))
    ends = [profile(s)[0] for s in (-1.0, 0.0, 1.0)]
    if not (ends[1] < ends[0] and ends[1] < ends[2]):
        raise OptimizerStall("axial shift minimum not bracketed by (-1, 0, 1)")
    shift = _brent(lambda s: profile(s)[0], -1.0, 0.0, 1.0)[1]
    return profile(shift)[1], shift


def _slope_curv(g, h, w, p, amp) -> tuple[float, float]:
    """First and second derivative of the energy in amp."""
    r = g - amp * h
    mag = np.sqrt(np.sum(r * r, axis=0))
    rh = np.sum(r * h, axis=0)
    flux = _flux_factor(mag, p - 2.0)
    # where the residual vanishes its curvature weights are zero
    cos = np.divide(rh, mag, out=np.zeros_like(rh), where=mag > 0.0)
    curv = flux * (np.sum(h * h, axis=0) + (p - 2.0) * cos**2)
    return -p * float(np.sum(w * flux * rh)), p * float(np.sum(w * curv))


def _profiled_amplitude(g, h, w, p) -> float:
    """argmin over A of the energy sum w |g - A h|^p, convex in A.

    The p = 2 projection, which starts trust-region Newton otherwise.
    Newton minimises half the squared slope with the Gauss-Newton
    Hessian: its steps are Newton steps for the energy, but it compares
    slopes, which a residual the amplitude cannot reach (a far bump)
    does not drown in rounding as it drowns the energy.  The caller
    certifies the result.
    """
    hh = float(np.sum(w * np.sum(h * h, axis=0)))
    amp0 = float(np.sum(w * np.sum(g * h, axis=0))) / hh if hh > 0.0 else 0.0
    derivs = lru_cache(maxsize=1)(lambda amp: _slope_curv(g, h, w, p, amp))
    curv0 = derivs(amp0)[1] if p != 2.0 else 0.0
    if not curv0 > 0.0:
        return amp0  # p = 2, or the residual vanishes wherever h does not
    unit = abs(amp0) or 1.0

    def fun(x):  # x = A / unit; step: relative Newton step at curv0
        slope, curv = derivs(unit * x[0])
        step = slope / (unit * curv0)
        return 0.5 * step**2, np.array([step * curv / curv0])

    def hess(x):
        return np.array([[(derivs(unit * x[0])[1] / curv0) ** 2]])

    x0 = [amp0 / unit]
    opts = {"gtol": 1e-15}
    res = minimize(fun, x0, method="trust-exact", jac=True, hess=hess, options=opts)
    return unit * float(res.x[0])


def manifold_distance(u: Field, params: CknParams) -> tuple[float, Bubble]:
    """Metric projection distance (D_a^p metric) to the family, and the bubble.

    The amplitude is profiled out and the dilation (and the axial shift
    of an axisymmetric field with a = b = 0) searched by _family_min
    from the q-mass moment seed.  ZeroField for a zero input.
    OptimizerStall when the certificate fails: a minimum is not
    bracketed, or, at a distance above ROUNDING_FLOOR of the gradient
    norm, the amplitude's relative first-order residual
    |sum w |r|^(p-2) r.h| / (||r||^(p-1) ||h||) exceeds AMPLITUDE_RTOL.
    By convexity in A, the distance exceeds its minimum over A by at
    most twice that residual, relatively.
    """
    if u.grad_r is None or not np.any(u.values):
        raise ZeroField("projection needs a nonzero field with gradient data")
    p = params.p
    unorm = weighted_grad_pnorm(u, params) ** (1.0 / p)
    if unorm == 0.0:
        raise ZeroField("zero gradient norm")

    def stack(log_lam, shift):
        # gradients of u and of the unit-amplitude bubble, and the weights
        bub = Bubble(amplitude=1.0, scale=math.exp(log_lam), axial_shift=shift)
        comps, w = _gradient_stack([u, _bubble_on(u, params, bub)], params)
        return comps[..., 0], comps[..., 1], w

    def distance_sq(log_lam, shift):
        # squared, the distance is smooth at a zero and Brent's parabolas are exact
        g, h, w = stack(log_lam, shift)
        return _energy(w, g - _profiled_amplitude(g, h, w, p) * h, p) ** (2.0 / p)

    log_lam, shift = _family_min(distance_sq, moment_seed(u, params), u, params)
    g, h, w = stack(log_lam, shift)
    amp = _profiled_amplitude(g, h, w, p)
    dist = _energy(w, g - amp * h, p) ** (1.0 / p)
    # slope / p over the Hoelder bound ||r||^(p-1) ||h||; h = 0 has slope 0
    den = p * dist ** (p - 1.0) * _energy(w, h, p) ** (1.0 / p)
    slope = abs(_slope_curv(g, h, w, p, amp)[0])
    if slope > AMPLITUDE_RTOL * den and dist > ROUNDING_FLOOR * unorm:
        raise OptimizerStall(
            f"amplitude first-order residual {slope / den:.3e} > {AMPLITUDE_RTOL:g}"
        )
    return dist, Bubble(amplitude=amp, scale=math.exp(log_lam), axial_shift=shift)


# ---------------------------------------------------------------------------
# dilation-picked representative


def _q_pairing(u: Field, v: Field, params: CknParams) -> float:
    """integral |x|^-qb V^(q-1) u (V positive)."""
    power = params.n - 1.0 - params.q * params.b
    return u.wider(v).integrate(power, v.values ** (params.q - 1.0) * u.values)


def select_Pu(u: Field, params: CknParams) -> Bubble:
    """Dilation-picked representative: maximise the q-pairing over lam.

    Minus the pairing goes through _family_min from the moment seed
    (OptimizerStall when the maximum is not bracketed).  The caller is
    responsible for the closeness gate; this only needs a nonzero field.
    """
    if not np.any(u.values):
        raise ZeroField("representative undefined for the zero field")

    def neg_pairing(log_lam, shift):
        bub = canonical_bubble(params, math.exp(log_lam), axial_shift=shift)
        return -_q_pairing(u, _bubble_on(u, params, bub), params)

    log_lam, shift = _family_min(neg_pairing, moment_seed(u, params), u, params)
    return canonical_bubble(params, math.exp(log_lam), axial_shift=shift)


# ---------------------------------------------------------------------------
# decomposition and tangent space


def v_inner(f: Field, g: Field, v: Field, params: CknParams) -> float:
    """<f, g>_V = integral |x|^-qb V^(q-2) f g on the common grid."""
    power = params.n - 1.0 - params.q * params.b
    return f.wider(g).wider(v).integrate(
        power, v.values ** (params.q - 2.0) * f.values * g.values
    )


def mu_rho_decompose(u: Field, v_bub: Bubble, params: CknParams) -> DecompositionRecord:
    """Split u = mu V + rho with mu the q-pairing coefficient."""
    v_field = _bubble_on(u, params, v_bub)
    denom = _q_pairing(v_field, v_field, params)
    if denom == 0.0:
        raise ZeroField("bubble q-mass vanished")
    mu = _q_pairing(u, v_field, params) / denom
    rho = u - mu * v_field
    residuals = orthogonality_check(rho, v_bub, params)
    dist = (
        weighted_grad_pnorm(rho, params) ** (1.0 / params.p)
        if rho.grad_r is not None
        else float("nan")
    )
    return DecompositionRecord(
        V=v_bub,
        mu=mu,
        rho=rho,
        tangent_residuals=tuple(residuals),
        distance_estimate=dist,
    )


def tangent_basis(
    v_bub: Bubble,
    params: CknParams,
    grid: RadialGrid,
    axisym: bool = False,
    psi_count: int = 128,
) -> list[Field]:
    """Tangent directions of the family at a (centred) bubble.

    The amplitude direction V and the dilation direction
    (n-p-pa)/p V + r V', both radial.  The axisymmetric kind adds the
    axial translation V'(r) cos(psi) in the unweighted case; the
    remaining translation directions have no axisymmetric
    representative and are omitted.
    """
    if v_bub.axial_shift != 0.0:
        raise ZeroField("tangent basis is built at a centred bubble")
    b_coeff = v_bub.scale**params.sigma
    amp = v_bub.amplitude
    ev = bubble_evaluator(amp, b_coeff, params.sigma, params.bubble_m)
    ev2 = bubble_second_derivative(amp, b_coeff, params.sigma, params.bubble_m)
    r = grid.nodes
    v, dv = ev(r)
    d2v = ev2(r)
    w = params.dilation_weight
    n = params.n
    basis = [
        Field.radial(grid, n, v, dv),
        Field.radial(grid, n, w * v + r * dv, (w + 1.0) * dv + r * d2v),
    ]
    if axisym and params.a == 0.0 and params.b == 0.0:
        psi, wpsi = make_psi_grid(n, psi_count)
        c = np.cos(psi)
        basis.append(
            Field(
                grid=grid,
                dim=n,
                psi_nodes=psi,
                psi_weights=wpsi,
                values=dv[:, None] * c,
                grad_r=d2v[:, None] * c,
                grad_psi=-dv[:, None] * np.sin(psi),
            )
        )
    return basis


def _tangents_like(f: Field, v_bub: Bubble, params: CknParams) -> list[Field]:
    return tangent_basis(
        v_bub, params, f.grid, axisym=not f.is_radial, psi_count=len(f.psi_nodes)
    )


def orthogonality_check(rho: Field, v_bub: Bubble, params: CknParams) -> list[float]:
    """Normalised tangent pairings of rho in the V-weighted metric.

    Each entry is <W_i, rho>_V / (|W_i|_V |rho|_V); identically zero
    rho returns a zero vector.
    """
    basis = _tangents_like(rho, v_bub, params)
    v_field = sample_bubble(params, v_bub, rho.grid)
    rho_norm = math.sqrt(max(v_inner(rho, rho, v_field, params), 0.0))
    out = []
    for w_field in basis:
        if rho_norm == 0.0:
            out.append(0.0)
            continue
        w_norm = math.sqrt(max(v_inner(w_field, w_field, v_field, params), 0.0))
        pairing = v_inner(w_field, rho, v_field, params)
        out.append(pairing / (w_norm * rho_norm))
    return out


def orthogonalize(f: Field, v_bub: Bubble, params: CknParams) -> Field:
    """Project the tangent directions out of f in the V-weighted metric."""
    basis = _tangents_like(f, v_bub, params)
    v_field = sample_bubble(params, v_bub, f.grid)
    # Gram-Schmidt against the (non-orthogonal) tangent set, two sweeps
    for _ in range(2):
        for w_field in basis:
            w_sq = v_inner(w_field, w_field, v_field, params)
            if w_sq <= 0.0:
                continue
            f = f - (v_inner(w_field, f, v_field, params) / w_sq) * w_field
    return f
