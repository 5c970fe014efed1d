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
from scipy.special import betaln, digamma

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


@dataclass(frozen=True)
class DecompositionRecord:
    """u split as mu V + rho with the tangent pairings of rho."""

    mu: float
    rho: Field
    tangent_residuals: tuple


def _unit_integrals(params: CknParams) -> tuple[float, float]:
    """Gradient and q energies of the unit-amplitude, unit-scale profile.

    Beta integrals in s = r^sigma: G = omega (m sigma)^p B(alpha_g,
    (m+1) p - alpha_g)/sigma, alpha_g = (n - p a + p (sigma - 1))/sigma,
    and Q = omega B(alpha_q, m q - alpha_q)/sigma, alpha_q = (n - q b)/sigma.
    """
    n, p, q, a, b = params.n, params.p, params.q, params.a, params.b
    sig, m = params.sigma, params.bubble_m
    alpha_g = (n - p * a + p * (sig - 1.0)) / sig
    alpha_q = (n - q * b) / sig
    scale = params.sphere_area / sig
    grad = scale * (m * sig) ** p * math.exp(betaln(alpha_g, (m + 1.0) * p - alpha_g))
    qint = scale * math.exp(betaln(alpha_q, m * q - alpha_q))
    return grad, qint


@lru_cache(maxsize=128)
def bubble_normalization(params: CknParams) -> Bubble:
    """Canonical amplitude: the profile that is an exact optimiser.

    The Euler-Lagrange balance fixes A^(q-p) as the ratio of the two
    unit-amplitude energies; afterwards both A^p G and A^q Q must equal
    S^(pq/(q-p)), S from its own gamma-function form; verified here.

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

    f maps an array of log lam to the array of its values.  A 33-point
    scan over seed +- 8 in one call, then Brent, one point per call,
    inside the bracket of every strict interior scan minimum; ties
    (1e-12 relative) go to min |log lam|.
    """
    x = np.linspace(seed - 8.0, seed + 8.0, 33)
    v = f(x)
    cache = dict(zip(x.tolist(), v.tolist()))  # Brent re-evaluates the bracket points

    def point(t):
        if t not in cache:
            cache[t] = float(f(np.array([t]))[0])
        return cache[t]

    found = [
        _brent(point, x[i - 1], x[i], x[i + 1])
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
    """(log lam, shift) minimising f(log lams, shift) over the family.

    f maps an array of log lam at one shift to the array of its values.
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


def _slopes_curvs(g, H, hsq, w, p, amps) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative in A of sum w |g - A h|^p, per column h of H.

    Each column at its own amplitude in amps; hsq = sum H^2 per node.
    With one gradient component the cosine of r and h is +-1, so the
    curvature weight hsq + (p-2) cos^2 is (p-1) hsq.
    """
    r = H * -amps
    r += g[..., None]
    if len(H) == 1:
        r, h = r[0], H[0]
        flux = _flux_factor(np.abs(r), p - 2.0)
        r *= h
        r *= flux
        flux *= hsq
        return -p * (w @ r), p * (p - 1.0) * (w @ flux)
    rh = np.einsum("cnk,cnk->nk", r, H)
    mag = np.sqrt(np.einsum("cnk,cnk->nk", r, r))
    del r
    flux = _flux_factor(mag, p - 2.0)
    # mag becomes the cosine rh / mag, zero where the residual vanishes
    cos = np.divide(rh, mag, out=mag, where=mag > 0.0)
    cos *= cos
    cos *= p - 2.0
    cos += hsq
    cos *= flux
    rh *= flux
    return -p * (w @ rh), p * (w @ cos)


def _slope_curv(g, h, w, p, amp) -> tuple[float, float]:
    """_slopes_curvs of the single column h at amp."""
    H = h[..., None]
    hsq = np.einsum("cnk,cnk->nk", H, H)
    slope, curv = _slopes_curvs(g, H, hsq, w, p, np.array([amp]))
    return float(slope[0]), float(curv[0])


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


# columns per kernel call: bounds the (components, nodes, columns) temporaries
AMPLITUDE_BLOCK = 8
# Newton or bisection steps per kernel call; bisection alone needs about 60
AMPLITUDE_MAX_STEPS = 100


def _profiled_amplitudes(g, H, w, p, start=None) -> np.ndarray:
    """_profiled_amplitude of every column of H, in one array solve.

    g (components, nodes) is u's gradient stack and H (components,
    nodes, K) the bubble columns, in the _gradient_stack layout.  p = 2
    is the closed-form projection.  Otherwise Newton on the monotone
    slope, every column at once, from start (one amplitude per column)
    or from the closed form: each column keeps the bracket its slope
    signs give and bisects when a Newton step would pass its midpoint,
    so a bad start still converges.  A column stops at the scalar
    solve's test |slope curv| <= 1e-15 |A0| curv0^2, with A0 and curv0
    taken at its start, or when its step or its bracket is below 4 ulp
    of |A| (a slope on its rounding floor never passes the test), and
    then leaves the active set.  OptimizerStall after
    AMPLITUDE_MAX_STEPS steps, or on a non-finite slope.
    """
    hsq = np.einsum("cnk,cnk->nk", H, H)
    if start is None or p == 2.0:
        hh = w @ hsq
        gh = w @ np.einsum("cn,cnk->nk", g, H)
        amps = np.divide(gh, hh, out=np.zeros(hh.shape), where=hh > 0.0)
        if p == 2.0:
            return amps
    else:
        amps = np.array(start, dtype=float)
    slope, curv = _slopes_curvs(g, H, hsq, w, p, amps)
    # curv0 = 0: the residual vanishes wherever h does not
    act = np.flatnonzero(curv > 0.0)
    if act.size < amps.size:
        H, hsq, slope, curv = H[..., act], hsq[:, act], slope[act], curv[act]
    unit = np.abs(amps[act])
    unit[unit == 0.0] = 1.0
    tol = 1e-15 * unit * curv**2
    lo = np.full(act.size, -np.inf)
    hi = np.full(act.size, np.inf)
    for _ in range(AMPLITUDE_MAX_STEPS):
        if not (np.isfinite(slope).all() and np.isfinite(curv).all()):
            raise OptimizerStall("non-finite amplitude slope")
        a = amps[act]
        live = np.abs(slope * curv) > tol  # so curv > 0 where live
        lo = np.where(slope < 0.0, a, lo)
        hi = np.where(slope > 0.0, a, hi)
        new = a - np.divide(slope, curv, out=np.zeros(a.shape), where=live)
        # the current point is one end of the bracket and the step heads
        # for the other, an earlier point: a step past the midpoint says
        # that point was the better guess (the overshoot that makes p < 2
        # oscillate), so bisect; an infinite end is never passed
        mid = 0.5 * lo + 0.5 * hi
        np.copyto(new, mid, where=live & (np.abs(new - a) > np.abs(mid - a)))
        ulp4 = 4.0 * np.spacing(np.abs(a))
        live &= (np.abs(new - a) > ulp4) & (hi - lo > ulp4)
        amps[act[live]] = new[live]
        if not live.all():
            act, H, hsq, tol, lo, hi = (
                act[live], H[..., live], hsq[:, live], tol[live], lo[live], hi[live]
            )
        if not act.size:
            return amps
        slope, curv = _slopes_curvs(g, H, hsq, w, p, amps[act])
    raise OptimizerStall(
        f"amplitude Newton: {act.size} columns open after {AMPLITUDE_MAX_STEPS} steps"
    )


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

    comps, w = _gradient_stack([u], params)
    g_centred = comps[..., 0]
    sig, m = params.sigma, params.bubble_m
    # the unit bubble's radial derivative is d_fac B (1 + B r^sigma)^(-m-1)
    r = u.grid.nodes[:, None]
    r_sig = r**sig
    d_fac = -m * sig * r ** (sig - 1.0)

    def columns(log_lams, shift):
        # u's gradient stack and the unit-amplitude bubble gradients in its layout
        if shift != 0.0:
            bubs = [Bubble(1.0, math.exp(t), shift) for t in log_lams]
            fields = [_bubble_on(u, params, b) for b in bubs]
            # a translated bubble has an angular gradient even where u has none
            comps = _gradient_stack([u, *fields], params)[0]
            return comps[..., 0], comps[..., 1:]
        b_coeff = np.array([math.exp(t) ** sig for t in log_lams])
        dv = (1.0 + b_coeff * r_sig) ** (-m - 1.0)
        dv *= d_fac * b_coeff
        g = g_centred
        if len(g) == 1 and u.is_radial:
            return g, dv[None]
        H = np.zeros((len(g), u.grid.count, len(u.psi_nodes), len(log_lams)))
        H[0] = dv[:, None, :]
        return g, H.reshape(len(g), -1, len(log_lams))

    # shift -> {log lam: solved amplitude}, the warm starts of one-column calls
    solved: dict = {}

    def distance_sq(log_lams, shift):
        # squared, the distance is smooth at a zero and Brent's parabolas are exact
        known = solved.setdefault(shift, {})
        start = None
        if len(log_lams) == 1 and known:
            t0 = float(log_lams[0])
            near = min(known, key=lambda t: abs(t - t0))
            start = [known[near]]
        out = np.empty(len(log_lams))
        for k in range(0, len(log_lams), AMPLITUDE_BLOCK):
            block = log_lams[k : k + AMPLITUDE_BLOCK]
            g, H = columns(block, shift)
            amps = _profiled_amplitudes(g, H, w, p, start)
            known.update(zip(block.tolist(), amps.tolist()))
            H *= -amps
            H += g[..., None]
            mag_sq = np.einsum("cnk,cnk->nk", H, H)
            out[k : k + AMPLITUDE_BLOCK] = w @ mag_sq ** (p / 2.0)
        return out ** (2.0 / p)

    log_lam, shift = _family_min(distance_sq, moment_seed(u, params), u, params)
    # the certified amplitude: one scalar solve at the chosen dilation
    g, H = columns([log_lam], shift)
    h = H[..., 0]
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

    def neg_pairings(log_lams, shift):
        return np.array([neg_pairing(t, shift) for t in log_lams])

    log_lam, shift = _family_min(neg_pairings, moment_seed(u, params), u, params)
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
    return DecompositionRecord(mu=mu, rho=rho, tangent_residuals=tuple(residuals))


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
