"""The extremal manifold: normalization, projection, decomposition.

The two-parameter family A (1 + B r^sigma)^-m (amplitude, dilation)
carries everything here: the canonical amplitude that turns a profile
into an exact optimiser, metric projection onto the family, the
dilation-picked representative used by the near-manifold expansion, and
the tangent-space bookkeeping.

All inner products against a bubble use the q-weighted pairing
<f, g>_V = integral |x|^-qb V^(q-2) f g, the natural metric of the
linearised problem.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    MissingGradient,
    OptimizerStall,
    RootFindFailure,
    UnsupportedField,
    ZeroField,
)
from .fields import (
    Bubble,
    Field,
    RadialGrid,
    bubble_evaluator,
    bubble_second_derivative,
    sample_bubble,
)
from .functionals import _flux_factor, weighted_grad_pnorm
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


# solver names resolved by __getattr__ on first use; minimize_scalar is
# unused here and only bound for perfbench's tracer, which wraps both
_SOLVERS = ("minimize", "minimize_scalar")
# calls look solvers up through the module, so a rebound name is the one called
_this = sys.modules[__name__]


def __getattr__(name):
    if name in _SOLVERS:
        from scipy import optimize

        value = globals()[name] = getattr(optimize, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DecompositionRecord:
    """u split as mu V + rho."""

    mu: float
    rho: Field


def _betaln(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0: gamma quotient, lgamma where gamma overflows."""
    if a + b < 170.0:
        return math.log(math.gamma(a) * math.gamma(b) / math.gamma(a + b))
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# B_2k / (2k) for k = 1..7, the asymptotic series of digamma
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(x: float) -> float:
    """digamma(x) for x > 0: recurrence up to x >= 10, then the series

    digamma(x) = log x - 1/(2x) - sum_k B_2k / (2k x^2k), 7 terms, whose
    first omitted term is 4.4e-17 at x = 10.
    """
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv_sq = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        tail = (tail + c) * inv_sq
    return math.log(x) - 0.5 / x - tail - shift


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
    grad = scale * (m * sig) ** p * math.exp(_betaln(alpha_g, (m + 1.0) * p - alpha_g))
    qint = scale * math.exp(_betaln(alpha_q, m * q - alpha_q))
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
        If either unit energy is not positive (both underflow to 0 as b
        nears a + 1), or the normalised energies miss the sharp-constant
        value by more than 1e-6 relative.
    """
    grad_unit, q_unit = _unit_integrals(params)
    if not (grad_unit > 0.0 and q_unit > 0.0):
        tup = (params.n, params.p, params.a, params.b)
        raise RootFindFailure(
            f"unit bubble energies {grad_unit!r}, {q_unit!r} not positive at {tup}"
        )
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


def canonical_bubble(params: CknParams, lam: float = 1.0) -> Bubble:
    """Manifold element at dilation lam: amplitude scales as lam^((n-p-pa)/p)."""
    base = bubble_normalization(params)
    return Bubble(amplitude=base.amplitude * lam**params.dilation_weight, scale=lam)


def canonical_profile(params: CknParams, grid: RadialGrid, lam: float = 1.0) -> Field:
    """The canonical bubble at dilation lam on grid, sampled once per grid.

    The samples are the grid's memo (RadialGrid.memo), so they are
    read-only; each call returns a new Field on them.
    """

    def build():
        v = sample_bubble(params, canonical_bubble(params, lam), grid)
        return v.values[:, 0], v.grad_r[:, 0]

    vals, grads = grid.memo(("canonical profile", params, lam), build)
    return Field.radial(grid, params.n, vals, grads)


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
    return (_digamma(alpha) - _digamma(mq - alpha)) / params.sigma


def moment_seed(u: Field, params: CknParams) -> float:
    """log(lam) for the dilation whose q-mass centre matches u's."""
    return _reference_mean(params) - _qdensity_mean(u, params)


# the amplitude's relative first-order residual must stay below
# AMPLITUDE_RTOL unless the distance is below ROUNDING_FLOOR of the
# gradient norm: there the residual is rounding noise, and the distance
# exceeds its minimum by no more than itself
AMPLITUDE_RTOL = 1e-6
ROUNDING_FLOOR = 1e-12


# two values within this relative gap of the least tie: ties go to min |log lam|
TIE_RTOL = 1e-12


def _scan_window(seed: float) -> np.ndarray:
    """The 33 half-integers k/2, k = round(2 seed) - 16 .. + 16: seed +- 8 to within 1/4.

    A lattice, so searches from nearby seeds share their points.
    OptimizerStall for a seed whose 2 seed is not finite.
    """
    if not math.isfinite(2.0 * seed):
        raise OptimizerStall(f"no scan window around the dilation seed {seed!r}")
    return (np.arange(-16.0, 17.0) + float(round(2.0 * seed))) / 2.0


def _best_first_min(lattice, point, seed: float) -> tuple[float, float]:
    """(f, log lam) at the minimum of f over log lam, or OptimizerStall.

    The window of the seed (_scan_window) is searched best-first, with a
    certificate: lattice(k0) is solve(i), the point (k0 + i)/2 of the
    window whose first point is k0/2, and solve(i) is f there with an
    array of lower bounds of f at every window point (f itself, where
    the whole window costs one call).  The seed's point is solved first,
    then always the open point with the lowest bound; a point is open
    until a bound exceeds the least value by more than a tie (TIE_RTOL),
    so every point that may tie is solved, and no point is left that
    could beat the least.  Ties go to min |log lam|; the point so chosen
    is the window's lattice minimum.  OptimizerStall on a non-finite
    value, or when that point is an end of the window, else _newton
    inside its bracket.
    """
    x = _scan_window(seed)
    solve = lattice(int(2.0 * x[0]))
    values, lower = {}, np.full(len(x), -np.inf)
    i = len(x) // 2
    while i is not None:
        values[i], bound = solve(i)
        if not math.isfinite(values[i]):
            raise OptimizerStall(f"non-finite search value at log lam {x[i]:.6g}")
        np.fmax(lower, bound, out=lower)  # a NaN bound is no bound
        best = min(values.values())
        slack = TIE_RTOL * abs(best)
        unsure = [j for j in range(len(x)) if j not in values and not lower[j] - best > slack]
        i = min(unsure, key=lower.__getitem__, default=None)
    i = min((j for j, v in values.items() if v - best <= slack), key=lambda j: abs(x[j]))
    if not 0 < i < len(x) - 1:
        raise OptimizerStall(f"no interior minimum in the scan window [{x[0]:g}, {x[-1]:g}]")
    return _newton(point, float(x[i - 1]), float(x[i]), float(x[i + 1]))


# Newton or bisection steps per dilation search; bisection alone needs about 55
DILATION_MAX_STEPS = 100
# a slope within this many rounding units of its own terms is zero
SLOPE_ROUNDING = 64.0 * np.finfo(float).eps


def _newton(point, lo: float, t: float, hi: float) -> tuple[float, float]:
    """(f, t) at a zero of f' in (lo, hi), from t: safeguarded Newton.

    point(t) is (f, f', f'', tol), with f' taken negative at lo and
    positive at hi (a lattice bracket).  The bracket shrinks to t by the
    sign of f'; a step that leaves it, or f'' <= 0, bisects.  Stops when
    |f'| <= tol, the rounding bound of f' (a certificate), or when the
    step or the bracket is at most 4 ulp of max(|t|, 1).  OptimizerStall
    when the search closes on an end of the bracket, or after
    DILATION_MAX_STEPS steps.
    """
    ends = lo, hi
    for _ in range(DILATION_MAX_STEPS):
        val, d1, d2, tol = point(t)
        if not math.isfinite(d1):
            raise OptimizerStall(f"non-finite dilation slope at log lam {t:.6g}")
        if abs(d1) <= tol:
            return val, t
        if d1 > 0.0:
            hi = t
        else:
            lo = t
        new = t - d1 / d2 if d2 > 0.0 else math.nan
        if not lo < new < hi:  # nan included
            new = 0.5 * lo + 0.5 * hi
        if abs(new - t) <= _ulp4(t) or hi - lo <= _ulp4(t):
            break
        t = new
    else:
        raise OptimizerStall(f"dilation Newton open after {DILATION_MAX_STEPS} steps")
    # uncertified within a final bisection bracket of an end: f' had the
    # other sign there, and the lattice minimum lies elsewhere
    if min(t - ends[0], ends[1] - t) <= 2.0 * _ulp4(t):
        lo, hi = ends
        raise OptimizerStall(f"dilation Newton closed on an end of ({lo:.6g}, {hi:.6g})")
    return val, t


def _ulp4(t: float) -> float:
    return 4.0 * math.ulp(max(abs(t), 1.0))


def _dilation_derivs(g, ang, col, y, w, p, amp, sig, m) -> tuple:
    """(D, D', D'', tol) for the squared distance D = phi^(2/p) in t = log lam.

    phi(t) = min over A of E = sum w |g - A h_t|^p; g, ang and w as in
    _residual_rows, col the _column record of h_t, y = B r^sigma per
    radial node, amp the profiled amplitude A*.  With h' = f1 h and
    h'' = f2 h, f1 = sigma (1 - m y)/(1 + y) and
    f2 = f1^2 - sigma^2 (m+1) y/(1 + y)^2, the envelope theorem gives
    phi' = E_t and phi'' = E_tt - E_tA^2/E_AA at A*.  tol is D'/phi'
    times SLOPE_ROUNDING p |A| sum w |r|^(p-2) (|r| + |grad u|) |h'|, the
    rounding bound of phi'.  D is the search's objective: at a zero
    distance E grows like |t - t*|^p, so Newton on E only converges
    linearly, while one step on D lands on t*.
    """
    h, hw, _ = col
    inv = 1.0 / (1.0 + y)
    f1 = sig * (1.0 - m * y) * inv
    f2 = f1 * f1 - sig * sig * (m + 1.0) * y * inv * inv
    s, c, energy, t = _residual_rows(g, ang, h, w, p, amp, bound=True)
    energy = energy()
    if energy == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    # per radial node: E_A = -p sum a and E_AA = p sum c; h' = f1 h turns the
    # t-derivatives into f1- and f2-weighted sums of a and c
    a, c = s * hw[0], (p - 1.0) * c * hw[1]
    sum_f1a = f1 @ a
    e_t = -p * amp * sum_f1a
    e_tt = p * amp * (amp * ((f1 * f1) @ c) - f2 @ a)
    e_ta = p * (amp * (f1 @ c) - sum_f1a)
    d2 = e_tt - e_ta * e_ta / (p * np.sum(c))
    tol = SLOPE_ROUNDING * p * abs(amp) * (t @ np.abs(f1 * hw[0]))
    e = 2.0 / p
    k = e * energy ** (e - 1.0)
    return (
        energy**e,
        float(k * e_t),
        float(k * (d2 + (e - 1.0) * e_t * e_t / energy)),
        float(k * tol),
    )


def _column(h, ang, w) -> tuple:
    """The record every kernel takes for the column h: (h, pair, (h.h)_w).

    pair is what the rows of _residual_rows are dotted against: (w h,
    w h^2) for a radial u, (h, h^2) with ang, whose rows carry w.
    (h.h)_w = sum w h^2 is the p = 2 projection's denominator; with ang
    it sums the angular nodes first, since they share h.
    """
    if ang is None:
        wh = w * h
        return h, (wh, wh * h), float((h * h) @ w)
    return h, (h, h * h), float(np.sum(w * h[:, None], axis=1) @ h)


def _residual_rows(g, ang, h, w, p, amp, bound=False) -> tuple:
    """Per radial node, the rows of r = g - A h: the one radial/angular split.

    g is u's radial gradient, ang its fixed angular part (grad_psi / r)^2
    or None, w the energy weights: per radial node without ang, per tensor
    node with it; h is the column per radial node.  With |r|^2 = r^2 + ang
    and f = |r|^(p-2), the slope row f r and the curvature row f (1 + (p-2)
    r^2/|r|^2)/(p-1) give E = sum w |r|^p the derivatives -p (f r).pair[0]
    and p (p-1) (curvature row).pair[1] in A, pair from _column(h, ang, w).
    Without ang the rows are f r and f (5 array passes, 4 at p = 3, where
    f is |r|); with it they sum the angular nodes and carry w.  Then E as
    a function, called at a solve's last evaluation only, and with bound
    the row f (|r| + |grad u|), weighted as the slope row (_dilation_derivs).
    """
    if ang is None:
        r = h * -amp
        r += g
        mag = np.abs(r)
        flux = mag if p == 3.0 else _flux_factor(mag, p - 2.0)
        r *= flux
        rows = r, flux, lambda: float((mag * mag * flux) @ w)
        return rows + (flux * (mag + np.abs(g)),) if bound else rows
    r = g - amp * h[:, None]
    mag_sq = r * r + ang
    mag = np.sqrt(mag_sq)
    f = w * _flux_factor(mag, p - 2.0)
    # the squared cosine of r and the radial h; zero where r vanishes
    cos_sq = np.divide(r * r, mag_sq, out=np.zeros(r.shape), where=mag_sq > 0.0)
    curv = f * (1.0 + (p - 2.0) * cos_sq)
    rows = np.sum(f * r, axis=1), np.sum(curv, axis=1) / (p - 1.0)
    rows += (lambda: float(np.sum(f * mag_sq)),)
    if bound:
        rows += (np.sum(f * (mag + np.sqrt(g * g + ang)), axis=1),)
    return rows


def _slope_curv(g, ang, col, w, p, amp) -> tuple:
    """First and second derivative in A of E = sum w |g - A h|^p at amp, E, and the slope row.

    g, ang and w as in _residual_rows, col the _column record of h; E is
    a function and the slope row an array, as _residual_rows gives them.
    """
    h, hw, _ = col
    s, c, energy = _residual_rows(g, ang, h, w, p, amp)
    return float(-p * (hw[0] @ s)), float(p * (p - 1.0) * (hw[1] @ c)), energy, s


def _profiled_amplitude(g, ang, col, w, p, start) -> float:
    """argmin over A of the energy sum w |g - A h|^p, convex in A, for p != 2.

    g, ang, col and w as in _slope_curv.  Trust-region Newton from start, the
    kernel's amplitude, minimising half the squared slope with the Gauss-Newton
    Hessian: its steps are Newton steps for the energy, but it compares slopes,
    which a residual the amplitude cannot reach (a far bump) does not drown in
    rounding as it drowns the energy.  The caller certifies the result.
    """
    amp0 = float(start)
    derivs = lru_cache(maxsize=1)(lambda amp: _slope_curv(g, ang, col, w, p, amp)[:2])
    curv0 = derivs(amp0)[1]
    if not curv0 > 0.0:
        return amp0  # the residual vanishes wherever h does not
    unit = abs(amp0) or 1.0

    def fun(x):  # x = A / unit; step: relative Newton step at curv0
        slope, curv = derivs(unit * x[0])
        step = slope / (unit * curv0)
        return 0.5 * step**2, np.array([step * curv / curv0])

    def hess(x):
        return np.array([[(derivs(unit * x[0])[1] / curv0) ** 2]])

    x0 = [amp0 / unit]
    opts = {"gtol": 1e-15}
    res = _this.minimize(
        fun, x0, method="trust-exact", jac=True, hess=hess, options=opts
    )
    return unit * float(res.x[0])


# Newton or bisection steps per amplitude solve; bisection alone needs about 60
AMPLITUDE_MAX_STEPS = 100


def _amplitude_newton(g, ang, col, w, p, start=None) -> tuple:
    """(A, E, s) at the argmin over A of E = sum w |g - A h|^p: safeguarded Newton.

    g, ang, col and w as in _slope_curv, s the slope row of _residual_rows
    at A.  p = 2 is the closed-form projection (g.h)_w / (h.h)_w; E is
    ((g - A h)^2).w without ang, and s is r = g - A h (the flux is 1
    wherever r is not 0, so these are _residual_rows' sum and row, bit
    for bit), else both from _residual_rows.  Otherwise Newton on the monotone
    slope from start or from the closed form; the bracket the slope signs
    give turns a step past its midpoint into bisection, so a bad start
    still converges.  Stops when |slope| <= 1e-15 |A| curv at the iterate, on
    zero curvature (the residual vanishes wherever h does not), or when
    the step or the bracket is at most 4 ulp of |A| (a slope on its
    rounding floor never passes the test), so E and s are the last evaluation's.
    OptimizerStall after AMPLITUDE_MAX_STEPS steps or on a non-finite slope.
    """
    h, _, hh = col
    if start is None or p == 2.0:
        # with ang, sum over the angular nodes first: they share h
        gh = (g * h) @ w if ang is None else np.sum(w * g, axis=1) @ h
        amp = float(gh) / hh if hh > 0.0 else 0.0
        if p == 2.0 and ang is None:
            r = g - amp * h
            return amp, float((r * r) @ w), r
        if p == 2.0:
            s, _, energy = _residual_rows(g, ang, h, w, p, amp)
            return amp, energy(), s
    else:
        amp = float(start)
    lo, hi = -math.inf, math.inf
    for _ in range(AMPLITUDE_MAX_STEPS):
        slope, curv, energy, s = _slope_curv(g, ang, col, w, p, amp)
        if not (math.isfinite(slope) and math.isfinite(curv)):
            raise OptimizerStall("non-finite amplitude slope")
        # the Newton step is below 1e-15 |A|: tested at the iterate, so the
        # envelope slope of the dilation search sees the true amplitude
        if not (abs(slope) > 1e-15 * abs(amp) * curv and curv > 0.0):
            return amp, energy(), s
        if slope < 0.0:
            lo = amp
        else:
            hi = amp
        new = amp - slope / curv
        # the iterate is one end of the bracket and the step heads for the
        # other, an earlier point: a step past the midpoint says that point
        # was the better guess (the overshoot that makes p < 2 oscillate),
        # so bisect; an infinite end is never passed
        mid = 0.5 * lo + 0.5 * hi
        if abs(new - amp) > abs(mid - amp):
            new = mid
        ulp4 = 4.0 * math.ulp(abs(amp))
        if abs(new - amp) <= ulp4 or hi - lo <= ulp4:
            return amp, energy(), s
        amp = new
    raise OptimizerStall(f"amplitude Newton open after {AMPLITUDE_MAX_STEPS} steps")


def _dual_bounds(dual_u, c, dual_psi) -> np.ndarray:
    """Squared lower bounds on D(t) = d(t)^2 from one functional J, by L^p duality.

    d(t) = min over A of ||grad u - A h_t||_p (the energy weights w), J
    any field with ||J||_p' = 1, dual_u = <grad u, J>, c_t = <h_t, J> /
    ||h_t||_p and dual_psi_t = <grad u, psi_t>, psi_t = |h_t|^(p-2) h_t /
    ||h_t||_p^(p-1), the dual of the unit column (||psi_t||_p' = 1 and
    <h_t, psi_t> = ||h_t||_p).  J - c_t psi_t annihilates h_t and has
    dual norm at most 1 + |c_t|, so weak duality gives d(t) >= |dual_u -
    c_t dual_psi_t| / (1 + |c_t|), for any J: only rounding enters.
    """
    bound = np.abs(dual_u - c * dual_psi) / (1.0 + np.abs(c))
    return bound * bound


def _distance_search(u: Field, params: CknParams) -> tuple:
    """(lattice, point, amplitude, w): the projection's objective over the family.

    The objective is the squared distance D = E^(2/p) at each dilation, E =
    sum w |g - A h|^p at the profiled amplitude A.  lattice(k0) opens the
    window of the 33 half-integers from k0/2 and returns solve(i) for
    _best_first_min: D at (k0 + i)/2, and _dual_bounds on D at every
    window point from J = |R|^(p-2) R / ||R||^(p-1), R = grad u - A h the
    solve's residual.  Its pairings are one product of the window's
    columns with the solve's slope row; <grad u, J> = ||R|| + A <h, J>.
    point(log lam) is D with its first two derivatives in log lam and the
    rounding bound of the first (_dilation_derivs).  amplitude(log lam) is
    u's radial gradient g, its angular part ang (as _residual_rows takes
    them; None for a radial u), the _column record of the unit bubble
    column h, and _amplitude_newton's A, E and slope row: one solve per
    log lam, held for the search and returned unchanged when asked again.
    A solve at t starts from the nearest held solves on either side, at
    t1 < t < t2: a1 (a1/a2)^((t - t1)/(t1 - t2)), geometric interpolation,
    where a1 a2 > 0, else a1; from the one there is on one side only; and
    from the closed form with none held (p = 2 takes no start).  The
    bubbles are radial, so neither A nor lam moves ang.  The window's
    columns are the grid's memo, one block keyed by the tuple, u's angular
    weights and k0: the rows h, ||h||_p and the rows psi (_dual_bounds).
    A window point's record is built on its row of h, any other afresh.
    """
    p = params.p
    grid = u.grid
    g, w = u.grad_r, u.measure(params.n - 1.0 - p * params.a)
    if u.is_radial:
        g, w, ang = g[:, 0], w[:, 0], None
        w_radial, w_g = w, w * g
    else:
        ang = 0.0 if u.grad_psi is None else np.square(u.grad_psi / grid.nodes[:, None])
        w_radial, w_g = np.sum(w, axis=1), np.sum(w * g, axis=1)
    # the block's norms carry the angular weights
    w_key = u.psi_weights.tobytes()
    sig, m = params.sigma, params.bubble_m
    # the unit bubble's radial derivative is d_fac B (1 + B r^sigma)^(-m-1)
    r_sig, d_fac = grid.memo(
        ("bubble column factors", params),
        lambda: (grid.nodes**sig, -m * sig * grid.nodes ** (sig - 1.0)),
    )

    def columns(log_lams):
        # the unit-amplitude bubble gradients, one row per log lam
        b_coeff = np.array([math.exp(t) ** sig for t in log_lams])[:, None]
        h = (1.0 + b_coeff * r_sig) ** (-m - 1.0)
        h *= d_fac * b_coeff
        return h

    def block(k0):
        h = columns([k / 2.0 for k in range(k0, k0 + 33)])
        mag = np.abs(h)
        psi = mag ** (p - 1.0)
        mag *= psi
        norm = (mag @ w_radial) ** (1.0 / p)
        del mag
        norm[norm == 0.0] = np.nan  # a vanishing column has no dual: no bound
        psi /= norm[:, None] ** (p - 1.0)
        return h, norm, np.copysign(psi, h, out=psi)

    rows = {}  # {log lam: its row of h} in the window lattice opened

    def record(log_lam):
        h = rows.get(log_lam)
        return _column(columns([log_lam])[0] if h is None else h, ang, w)

    solved = {}  # {log lam: amplitude(log lam)}

    def start(log_lam):
        below = max((t for t in solved if t < log_lam), default=None)
        above = min((t for t in solved if t > log_lam), default=None)
        ends = [solved[t][3] for t in (below, above) if t is not None]
        if len(ends) == 2 and ends[0] * ends[1] > 0.0:
            a1, a2 = ends
            return a1 * (a1 / a2) ** ((log_lam - below) / (below - above))
        return ends[0] if ends else None

    def amplitude(log_lam):
        if log_lam not in solved:
            col = record(log_lam)
            solved[log_lam] = g, ang, col, *_amplitude_newton(g, ang, col, w, p, start(log_lam))
        return solved[log_lam]

    def lattice(k0):
        h, norm, psi = grid.memo(("lattice block", params, w_key, k0), lambda: block(k0))
        rows.clear()
        rows.update(((k0 + i) / 2.0, row) for i, row in enumerate(h))
        dual_psi = psi @ w_g

        def solve(i):
            _, _, _, amp, energy, s = amplitude((k0 + i) / 2.0)
            if energy == 0.0:
                return 0.0, np.zeros(len(norm))  # R = 0 has no dual
            dist = energy ** (1.0 / p)
            # with ang the slope row carries w already
            c = (h @ (w * s if ang is None else s)) / (norm * dist ** (p - 1.0))
            return dist * dist, _dual_bounds(dist + amp * norm[i] * c[i], c, dual_psi)

        return solve

    def point(log_lam):
        _, _, col, amp, _, _ = amplitude(log_lam)
        y = math.exp(log_lam) ** sig * r_sig
        return _dilation_derivs(g, ang, col, y, w, p, amp, sig, m)

    return lattice, point, amplitude, w


def _refuse_translation(u: Field, params: CknParams) -> None:
    """UnsupportedField where the family would need translations.

    At a = b = 0 a non-radial u is closest to a translated bubble, and
    the searches here move only the amplitude and the dilation.
    """
    if not u.is_radial and params.a == 0.0 and params.b == 0.0:
        raise UnsupportedField(
            "a non-radial field at a = b = 0 needs translated bubbles; "
            "the projection searches amplitude and dilation only"
        )


def manifold_distance(u: Field, params: CknParams) -> tuple[float, Bubble]:
    """Metric projection distance (D_a^p metric) to the family, and the bubble.

    The amplitude is profiled out and the dilation searched by
    _best_first_min from the q-mass moment seed; at the chosen dilation
    the kernel's amplitude is the answer at p = 2, and _profiled_amplitude
    polishes it otherwise.  ZeroField for a zero input or gradient,
    UnsupportedField for a non-radial one at a = b = 0.
    OptimizerStall when the certificate fails: the window's lattice
    minimum is an end of the window, or, at a distance above
    ROUNDING_FLOOR of the gradient norm, the amplitude's relative
    first-order residual |sum w |r|^(p-2) r.h| / (||r||^(p-1) ||h||)
    exceeds AMPLITUDE_RTOL.  By convexity in A, the distance exceeds its
    minimum over A by at most twice that residual, relatively.  The
    gradient norm is computed only when that residual or the distance
    asks for it.
    """
    if u.grad_r is None or not np.any(u.values):
        raise ZeroField("projection needs a nonzero field with gradient data")
    _refuse_translation(u, params)
    if not (np.any(u.grad_r) or (u.grad_psi is not None and np.any(u.grad_psi))):
        raise ZeroField("zero gradient norm")
    p = params.p

    lattice, point, amplitude, w = _distance_search(u, params)
    log_lam = _best_first_min(lattice, point, moment_seed(u, params))[1]
    # a point the search solved: its held solve
    g, ang, col, amp, _, _ = amplitude(log_lam)
    if p != 2.0:
        amp = _profiled_amplitude(g, ang, col, w, p, amp)
    slope, _, energy, _ = _slope_curv(g, ang, col, w, p, amp)
    dist = energy() ** (1.0 / p)
    # slope / p over the Hoelder bound ||r||^(p-1) ||h||; h = 0 has slope 0
    den = p * dist ** (p - 1.0) * float(np.sum(w.T * np.abs(col[0]) ** p)) ** (1.0 / p)
    residual = abs(slope) > AMPLITUDE_RTOL * den
    if residual or dist == 0.0:
        unorm = weighted_grad_pnorm(u, params) ** (1.0 / p)
        if unorm == 0.0:
            raise ZeroField("zero gradient norm")
        if residual and dist > ROUNDING_FLOOR * unorm:
            raise OptimizerStall(
                f"amplitude first-order residual {abs(slope) / den:.3e} > {AMPLITUDE_RTOL:g}"
            )
    return dist, Bubble(amplitude=amp, scale=math.exp(log_lam))


# ---------------------------------------------------------------------------
# dilation-picked representative


def _q_pairing(u: Field, v: Field, params: CknParams) -> float:
    """integral |x|^-qb V^(q-1) u (V positive)."""
    power = params.n - 1.0 - params.q * params.b
    return u.wider(v).integrate(power, v.values ** (params.q - 1.0) * u.values)


def _pairing_search(u: Field, params: CknParams) -> tuple:
    """(lattice, point): minus the q-pairing P(t) = sum W V_t^(q-1) u, t = log lam.

    V_t is the canonical bubble at lam = e^t and W the q-pairing's
    quadrature weights.  lattice(k0) is one array call over the window
    of the 33 half-integers from k0/2, and returns solve(i) for
    _best_first_min: -P at (k0 + i)/2 with the window's 33 values, exact
    bounds.  point(log lam) is (-P, -P', -P'', tol) with the closed forms
    V_t' = k1 V_t, k1 = (n-p-pa)/p - m sigma y/(1 + y), y = B r^sigma,
    and tol the rounding bound SLOPE_ROUNDING (q-1) sum |W V^(q-1) k1 u|.
    """
    q, sig, m, dw = params.q, params.sigma, params.bubble_m, params.dilation_weight
    amp = bubble_normalization(params).amplitude
    wu = u.measure(params.n - 1.0 - q * params.b) * u.values
    # radial bubbles pair with u's weighted sum over the angular nodes
    wu_radial = np.sum(wu, axis=1, keepdims=True)[..., None]
    r_sig = (u.grid.nodes**sig)[:, None, None]

    def terms(log_lams):
        # y and the pairing density W u V^(q-1), per node and log lam
        lam = np.exp(np.asarray(log_lams))
        y = r_sig * lam**sig
        # in place: one (nodes, 1, len) array besides y, not four
        dens = 1.0 + y
        dens **= -m
        dens *= amp * lam**dw
        dens **= q - 1.0
        dens *= wu_radial
        return y, dens

    def lattice(k0):
        values = -np.sum(terms([k / 2.0 for k in range(k0, k0 + 33)])[1], axis=(0, 1))
        return lambda i: (values[i], values)

    def point(log_lam):
        y, dens = terms([log_lam])
        inv = 1.0 / (1.0 + y)
        k1 = dw - m * sig * y * inv
        k1_dt = -m * sig * sig * y * inv * inv
        d1 = -(q - 1.0) * np.sum(dens * k1)
        d2 = -(q - 1.0) * np.sum(dens * ((q - 1.0) * k1 * k1 + k1_dt))
        tol = SLOPE_ROUNDING * (q - 1.0) * np.sum(np.abs(dens * k1))
        return -float(np.sum(dens)), float(d1), float(d2), float(tol)

    return lattice, point


def select_Pu(u: Field, params: CknParams) -> Bubble:
    """Dilation-picked representative: maximise the q-pairing over lam.

    Minus the pairing (_pairing_search) goes through _best_first_min from
    the moment seed, the search manifold_distance makes: its bounds are
    the window's values, so it keeps the window's lattice maximum, and
    Newton runs once, in that point's bracket (OptimizerStall when the
    point is an end of the window).  The caller is responsible for the
    closeness gate; this only needs a nonzero field, radial unless a or
    b is nonzero (UnsupportedField).
    """
    if not np.any(u.values):
        raise ZeroField("representative undefined for the zero field")
    _refuse_translation(u, params)
    lattice, point = _pairing_search(u, params)
    log_lam = _best_first_min(lattice, point, moment_seed(u, params))[1]
    return canonical_bubble(params, math.exp(log_lam))


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
    v_field = sample_bubble(params, v_bub, u.grid)
    denom = _q_pairing(v_field, v_field, params)
    if denom == 0.0:
        raise ZeroField("bubble q-mass vanished")
    mu = _q_pairing(u, v_field, params) / denom
    return DecompositionRecord(mu=mu, rho=u - mu * v_field)


def tangent_basis(v_bub: Bubble, params: CknParams, grid: RadialGrid) -> list[Field]:
    """Tangent directions of the family at a bubble.

    The amplitude direction V and the dilation direction
    (n-p-pa)/p V + r V', both radial.  Translation is not among them: at
    a = b = 0 it belongs to the degree-1 sector of the spectral solve,
    not to this radial basis.
    """
    b_coeff = v_bub.scale**params.sigma
    amp = v_bub.amplitude
    ev = bubble_evaluator(amp, b_coeff, params.sigma, params.bubble_m)
    ev2 = bubble_second_derivative(amp, b_coeff, params.sigma, params.bubble_m)
    r = grid.nodes
    v, dv = ev(r)
    d2v = ev2(r)
    w = params.dilation_weight
    n = params.n
    return [
        Field.radial(grid, n, v, dv),
        Field.radial(grid, n, w * v + r * dv, (w + 1.0) * dv + r * d2v),
    ]


def orthogonality_check(rho: Field, v_bub: Bubble, params: CknParams) -> list[float]:
    """Normalised tangent pairings of rho in the V-weighted metric.

    Each entry is <W_i, rho>_V / (|W_i|_V |rho|_V); identically zero
    rho returns a zero vector.
    """
    basis = tangent_basis(v_bub, params, rho.grid)
    v_field = sample_bubble(params, v_bub, rho.grid)
    rho_norm = math.sqrt(v_inner(rho, rho, v_field, params))
    out = []
    for w_field in basis:
        if rho_norm == 0.0:
            out.append(0.0)
            continue
        w_norm = math.sqrt(v_inner(w_field, w_field, v_field, params))
        pairing = v_inner(w_field, rho, v_field, params)
        out.append(pairing / (w_norm * rho_norm))
    return out


def _tangent_free(vals, grads, v_bub: Bubble, params: CknParams, grid: RadialGrid) -> tuple:
    """Radial rows (K, nodes) with the amplitude and dilation tangents removed.

    vals and grads hold K radial functions and their r-derivatives, one
    row each.  With T the two tangent rows and W the V-weighted measure
    w r^(n-1-qb) V^(q-2), the coefficients C solve the 2 x 2 Gram system
    (T W T^T) C = T W vals^T, and the rows leave as vals - C^T T (grads
    likewise): the orthogonal projection in <., .>_V, up to the sphere
    area, which cancels.  T, its gradients, T W and the Gram matrix are
    the grid's memo per (tuple, bubble), so the samples of a scan share
    them.  ZeroField for a zero-amplitude bubble, whose tangents vanish.
    """
    if v_bub.amplitude == 0.0:
        raise ZeroField("tangents of a zero-amplitude bubble vanish; no projection")

    def build():
        tangents = tangent_basis(v_bub, params, grid)
        t_vals = np.array([t.values[:, 0] for t in tangents])
        t_grads = np.array([t.grad_r[:, 0] for t in tangents])
        v = sample_bubble(params, v_bub, grid).values[:, 0]
        power = params.n - 1.0 - params.q * params.b
        weighted = t_vals * (grid.radial_weights(power) * v ** (params.q - 2.0))
        return t_vals, t_grads, weighted, weighted @ t_vals.T

    t_vals, t_grads, weighted, gram = grid.memo(("tangent projector", params, v_bub), build)
    coef = np.linalg.solve(gram, weighted @ vals.T)
    return vals - coef.T @ t_vals, grads - coef.T @ t_grads


def orthogonalize(f: Field, v_bub: Bubble, params: CknParams) -> Field:
    """f with the tangent directions projected out: _tangent_free of one row.

    UnsupportedField for a non-radial f, MissingGradient without
    gradient data.
    """
    if not f.is_radial:
        raise UnsupportedField("tangent projection takes a radial field")
    if f.grad_r is None:
        raise MissingGradient("tangent projection needs gradient data")
    vals, grads = _tangent_free(f.values.T, f.grad_r.T, v_bub, params, f.grid)
    return Field.radial(f.grid, f.dim, vals[0], grads[0])
