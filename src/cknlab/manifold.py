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


def canonical_bubble(params: CknParams, lam: float = 1.0) -> Bubble:
    """Manifold element at dilation lam: amplitude scales as lam^((n-p-pa)/p)."""
    base = bubble_normalization(params)
    return Bubble(amplitude=base.amplitude * lam**params.dilation_weight, scale=lam)


def canonical_profile(params: CknParams, grid: RadialGrid, lam: float = 1.0) -> Field:
    return sample_bubble(params, canonical_bubble(params, lam), grid)


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


def _bracketed_min(scan, point, seed: float) -> tuple[float, float]:
    """(f, log lam) at the minimum of f over log lam, or OptimizerStall.

    scan maps an array of log lam to the array of f's values, point one
    log lam to (f, f', f'', tol).  A 33-point scan over seed +- 8 in one
    call, then _newton inside the bracket of every strict interior scan
    minimum; ties (1e-12 relative) go to min |log lam|.
    """
    x = np.linspace(seed - 8.0, seed + 8.0, 33)
    v = scan(x)
    found = [
        _newton(point, float(x[i - 1]), float(x[i]), float(x[i + 1]))
        for i in range(1, len(x) - 1)
        if v[i] < v[i - 1] and v[i] < v[i + 1]
    ]
    if not found:
        raise OptimizerStall(f"no interior minimum in the scan window {seed:.6g} +- 8")
    best = min(r[0] for r in found)
    ties = [r for r in found if r[0] - best <= 1e-12 * abs(best)]
    return min(ties, key=lambda r: abs(r[1]))


# Newton or bisection steps per dilation search; bisection alone needs about 55
DILATION_MAX_STEPS = 100
# a slope within this many rounding units of its own terms is zero
SLOPE_ROUNDING = 64.0 * np.finfo(float).eps


def _newton(point, lo: float, t: float, hi: float) -> tuple[float, float]:
    """(f, t) at a zero of f' in (lo, hi), from t: safeguarded Newton.

    point(t) is (f, f', f'', tol), with f' taken negative at lo and
    positive at hi (a scan bracket).  The bracket shrinks to t by the
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
    # other sign there, and the scan minimum lies elsewhere
    if min(t - ends[0], ends[1] - t) <= 2.0 * _ulp4(t):
        lo, hi = ends
        raise OptimizerStall(f"dilation Newton closed on an end of ({lo:.6g}, {hi:.6g})")
    return val, t


def _ulp4(t: float) -> float:
    return 4.0 * math.ulp(max(abs(t), 1.0))


def _dilation_derivs(g, h, y, w, p, amp, sig, m) -> tuple:
    """(D, D', D'', tol) for the squared distance D = phi^(2/p) in t = log lam.

    phi(t) = min over A of E = sum w |g - A h_t|^p; g (components, nodes)
    and the column h at t, y = B r^sigma per node, amp the profiled
    amplitude A*.  With h' = f1 h and h'' = f2 h, f1 = sigma (1 - m y)/(1 + y)
    and f2 = f1^2 - sigma^2 (m+1) y/(1 + y)^2, the envelope theorem gives
    phi' = E_t and phi'' = E_tt - E_tA^2/E_AA at A*.  tol is
    D'/phi' times SLOPE_ROUNDING p |A| sum w |r|^(p-2) (|r| + |g|) |h'|,
    the rounding bound of phi'.  D is the scan's objective: at a zero
    distance E grows like |t - t*|^p, so Newton on E only converges
    linearly, while one step on D lands on t*.
    """
    inv = 1.0 / (1.0 + y)
    f1 = sig * (1.0 - m * y) * inv
    f2 = f1 * f1 - sig * sig * (m + 1.0) * y * inv * inv
    r = g - amp * h
    if len(g) == 1:
        # one component: the cosine of r and h is +-1
        r, h, gmag = r[0], h[0], np.abs(g[0])
        mag = np.abs(r)
        rh, hh = r * h, h * h
        c = (p - 1.0) * hh
    else:
        rh = np.einsum("cn,cn->n", r, h)
        hh = np.einsum("cn,cn->n", h, h)
        gmag = np.sqrt(np.einsum("cn,cn->n", g, g))
        mag = np.sqrt(np.einsum("cn,cn->n", r, r))
        cos = np.divide(rh, mag, out=np.zeros(mag.shape), where=mag > 0.0)
        c = hh + (p - 2.0) * cos * cos
    energy = float(w @ mag**p)
    if energy == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    wf = w * _flux_factor(mag, p - 2.0)
    # E_A = -p sum a and E_AA = p sum c; h' = f1 h turns the t-derivatives
    # into f1- and f2-weighted sums of the same two arrays
    a, c = wf * rh, wf * c
    sum_f1a = f1 @ a
    e_t = -p * amp * sum_f1a
    e_tt = p * amp * (amp * ((f1 * f1) @ c) - f2 @ a)
    e_ta = p * (amp * (f1 @ c) - sum_f1a)
    d2 = e_tt - e_ta * e_ta / (p * np.sum(c))
    tol = SLOPE_ROUNDING * p * abs(amp) * (wf * (mag + gmag) @ np.abs(f1 * np.sqrt(hh)))
    e = 2.0 / p
    k = e * energy ** (e - 1.0)
    return (
        energy**e,
        float(k * e_t),
        float(k * (d2 + (e - 1.0) * e_t * e_t / energy)),
        float(k * tol),
    )


def _slopes_curvs(g, H, hsq, w, p, amps) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative in A of sum w |g - A h|^p, per column h of H.

    H is (components, columns, nodes), each column at its own amplitude
    in amps; hsq = sum H^2 per column and node.
    With one gradient component the cosine of r and h is +-1, so the
    curvature weight hsq + (p-2) cos^2 is (p-1) hsq.
    """
    r = H * -amps[:, None]
    r += g[:, None, :]
    if len(H) == 1:
        r, h = r[0], H[0]
        flux = _flux_factor(np.abs(r), p - 2.0)
        r *= h
        r *= flux
        flux *= hsq
        return -p * (r @ w), p * (p - 1.0) * (flux @ w)
    rh = np.einsum("ckn,ckn->kn", r, H)
    mag = np.sqrt(np.einsum("ckn,ckn->kn", r, r))
    del r
    flux = _flux_factor(mag, p - 2.0)
    # mag becomes the cosine rh / mag, zero where the residual vanishes
    cos = np.divide(rh, mag, out=mag, where=mag > 0.0)
    cos *= cos
    cos *= p - 2.0
    cos += hsq
    cos *= flux
    rh *= flux
    return -p * (rh @ w), p * (cos @ w)


def _slope_curv(g, h, w, p, amp) -> tuple[float, float]:
    """_slopes_curvs of the single column h at amp."""
    H = h[:, None, :]
    hsq = np.einsum("ckn,ckn->kn", H, H)
    slope, curv = _slopes_curvs(g, H, hsq, w, p, np.array([amp]))
    return float(slope[0]), float(curv[0])


def _profiled_amplitude(g, h, w, p, start=None) -> float:
    """argmin over A of the energy sum w |g - A h|^p, convex in A.

    The p = 2 projection; otherwise trust-region Newton from start (the
    kernel's amplitude) or from that projection.  Newton minimises half
    the squared slope with the Gauss-Newton Hessian: its steps are Newton
    steps for the energy, but it compares slopes, which a residual the
    amplitude cannot reach (a far bump) does not drown in rounding as it
    drowns the energy.  The caller certifies the result.
    """
    if start is None or p == 2.0:
        hh = float(np.sum(w * np.sum(h * h, axis=0)))
        amp0 = float(np.sum(w * np.sum(g * h, axis=0))) / hh if hh > 0.0 else 0.0
    else:
        amp0 = float(start)
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
    res = _this.minimize(
        fun, x0, method="trust-exact", jac=True, hess=hess, options=opts
    )
    return unit * float(res.x[0])


# columns per kernel call: bounds the (components, columns, nodes) temporaries
AMPLITUDE_BLOCK = 8
# Newton or bisection steps per kernel call; bisection alone needs about 60
AMPLITUDE_MAX_STEPS = 100


def _profiled_amplitudes(g, H, w, p, start=None) -> np.ndarray:
    """_profiled_amplitude of every column of H, in one array solve.

    g (components, nodes) is u's gradient stack and H (components, K,
    nodes) the bubble columns, each column's nodes contiguous.  p = 2
    is the closed-form projection.  Otherwise Newton on the monotone
    slope, every column at once, from start (one amplitude per column)
    or from the closed form: each column keeps the bracket its slope
    signs give and bisects when a Newton step would pass its midpoint,
    so a bad start still converges.  A column stops when
    |slope| <= 1e-15 |A| curv at its current iterate, or when its step
    or its bracket is below 4 ulp of |A| (a slope on its rounding floor
    never passes the test), and then leaves the active set.
    OptimizerStall after AMPLITUDE_MAX_STEPS steps, or on a non-finite
    slope.
    """
    hsq = np.einsum("ckn,ckn->kn", H, H)
    if start is None or p == 2.0:
        hh = hsq @ w
        gh = np.einsum("cn,ckn->kn", g, H) @ w
        amps = np.divide(gh, hh, out=np.zeros(hh.shape), where=hh > 0.0)
        if p == 2.0:
            return amps
    else:
        amps = np.array(start, dtype=float)
    slope, curv = _slopes_curvs(g, H, hsq, w, p, amps)
    # curv0 = 0: the residual vanishes wherever h does not
    act = np.flatnonzero(curv > 0.0)
    if act.size < amps.size:
        H, hsq, slope, curv = H[:, act], hsq[act], slope[act], curv[act]
    # the bookkeeping of at most AMPLITUDE_BLOCK columns, in Python floats:
    # numpy's call overhead would cost more than the slope evaluation
    amps, act = amps.tolist(), act.tolist()
    lo, hi = [-math.inf] * len(act), [math.inf] * len(act)
    for _ in range(AMPLITUDE_MAX_STEPS):
        slope, curv = slope.tolist(), curv.tolist()
        if not all(map(math.isfinite, slope + curv)):
            raise OptimizerStall("non-finite amplitude slope")
        live = []
        for j, (s, c) in enumerate(zip(slope, curv)):
            a = amps[act[j]]
            # the Newton step is below 1e-15 |A|: tested at the iterate, so the
            # envelope slope of the dilation search sees the true amplitude
            if not (abs(s) > 1e-15 * abs(a) * c and c > 0.0):
                continue
            if s < 0.0:
                lo[j] = a
            else:
                hi[j] = a
            new = a - s / c
            # the current point is one end of the bracket and the step heads
            # for the other, an earlier point: a step past the midpoint says
            # that point was the better guess (the overshoot that makes p < 2
            # oscillate), so bisect; an infinite end is never passed
            mid = 0.5 * lo[j] + 0.5 * hi[j]
            if abs(new - a) > abs(mid - a):
                new = mid
            ulp4 = 4.0 * math.ulp(abs(a))
            if abs(new - a) > ulp4 and hi[j] - lo[j] > ulp4:
                amps[act[j]] = new
                live.append(j)
        if len(live) < len(act):
            act, lo, hi = ([x[j] for j in live] for x in (act, lo, hi))
            H, hsq = H[:, live], hsq[live]
        if not act:
            return np.array(amps)
        slope, curv = _slopes_curvs(g, H, hsq, w, p, np.array([amps[i] for i in act]))
    raise OptimizerStall(
        f"amplitude Newton: {len(act)} columns open after {AMPLITUDE_MAX_STEPS} steps"
    )


def _distance_search(u: Field, params: CknParams) -> tuple:
    """(scan, point, amplitudes, w): the projection's objective over the family.

    scan(log lams) is the squared distance E^(2/p) at each dilation,
    E = sum w |g - A h|^p at the profiled amplitude A; point(log lam)
    adds its first two derivatives in log lam and the rounding bound of
    the first (_dilation_derivs).
    amplitudes(log lams) is u's gradient stack g (components, nodes), the
    unit-amplitude bubble columns H (components, K, nodes) and their
    profiled amplitudes; w holds the energy weights.  A log lam solved
    before returns its amplitude after one slope evaluation.
    """
    p = params.p
    comps, w = _gradient_stack([u], params)
    g = comps[..., 0]
    sig, m = params.sigma, params.bubble_m
    # the unit bubble's radial derivative is d_fac B (1 + B r^sigma)^(-m-1)
    r = u.grid.nodes
    r_sig = r**sig
    d_fac = -m * sig * r ** (sig - 1.0)
    # r^sigma per node in the columns' layout
    r_sig_cols = np.broadcast_to(r_sig[:, None], u.values.shape).ravel()

    def columns(log_lams):
        # the unit-amplitude bubble gradients, one row each
        b_coeff = np.array([math.exp(t) ** sig for t in log_lams])[:, None]
        dv = (1.0 + b_coeff * r_sig) ** (-m - 1.0)
        dv *= d_fac * b_coeff
        if len(g) == 1 and u.is_radial:
            return dv[None]
        H = np.zeros((len(g), len(log_lams), u.grid.count, len(u.psi_nodes)))
        H[0] = dv[..., None]
        return H.reshape(len(g), len(log_lams), -1)

    # {log lam: solved amplitude}, the warm starts of one-column calls
    solved: dict = {}

    def amplitudes(log_lams):
        # the profiled amplitudes of one block, warm-started when it is one column
        start = None
        if len(log_lams) == 1 and solved:
            t0 = float(log_lams[0])
            start = [solved[min(solved, key=lambda t: abs(t - t0))]]
        H = columns(log_lams)
        amps = _profiled_amplitudes(g, H, w, p, start)
        solved.update(zip(np.asarray(log_lams).tolist(), amps.tolist()))
        return g, H, amps

    def scan(log_lams):
        # squared, the distance is smooth at a zero; it ranks the scan points
        out = np.empty(len(log_lams))
        for k in range(0, len(log_lams), AMPLITUDE_BLOCK):
            _, H, amps = amplitudes(log_lams[k : k + AMPLITUDE_BLOCK])
            H *= -amps[:, None]
            H += g[:, None, :]
            mag_sq = np.einsum("ckn,ckn->kn", H, H)
            out[k : k + AMPLITUDE_BLOCK] = mag_sq ** (p / 2.0) @ w
        return out ** (2.0 / p)

    def point(log_lam):
        _, H, amps = amplitudes([log_lam])
        y = math.exp(log_lam) ** sig * r_sig_cols
        return _dilation_derivs(g, H[:, 0], y, w, p, amps[0], sig, m)

    return scan, point, amplitudes, w


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
    _bracketed_min from the q-mass moment seed.  ZeroField for a zero
    input, UnsupportedField for a non-radial one at a = b = 0.
    OptimizerStall when the certificate fails: a minimum is not
    bracketed, or, at a distance above ROUNDING_FLOOR of the gradient
    norm, the amplitude's relative first-order residual
    |sum w |r|^(p-2) r.h| / (||r||^(p-1) ||h||) exceeds AMPLITUDE_RTOL.
    By convexity in A, the distance exceeds its minimum over A by at
    most twice that residual, relatively.
    """
    if u.grad_r is None or not np.any(u.values):
        raise ZeroField("projection needs a nonzero field with gradient data")
    _refuse_translation(u, params)
    p = params.p
    unorm = weighted_grad_pnorm(u, params) ** (1.0 / p)
    if unorm == 0.0:
        raise ZeroField("zero gradient norm")

    scan, point, amplitudes, w = _distance_search(u, params)
    log_lam = _bracketed_min(scan, point, moment_seed(u, params))[1]
    # the certified amplitude: one scalar solve at the chosen dilation, from
    # the kernel's amplitude there (the search's last point, so one slope)
    g, H, amps = amplitudes([log_lam])
    h = H[:, 0]
    amp = _profiled_amplitude(g, h, w, p, start=amps[0])
    dist = _energy(w, g - amp * h, p) ** (1.0 / p)
    # slope / p over the Hoelder bound ||r||^(p-1) ||h||; h = 0 has slope 0
    den = p * dist ** (p - 1.0) * _energy(w, h, p) ** (1.0 / p)
    slope = abs(_slope_curv(g, h, w, p, amp)[0])
    if slope > AMPLITUDE_RTOL * den and dist > ROUNDING_FLOOR * unorm:
        raise OptimizerStall(
            f"amplitude first-order residual {slope / den:.3e} > {AMPLITUDE_RTOL:g}"
        )
    return dist, Bubble(amplitude=amp, scale=math.exp(log_lam))


# ---------------------------------------------------------------------------
# dilation-picked representative


def _q_pairing(u: Field, v: Field, params: CknParams) -> float:
    """integral |x|^-qb V^(q-1) u (V positive)."""
    power = params.n - 1.0 - params.q * params.b
    return u.wider(v).integrate(power, v.values ** (params.q - 1.0) * u.values)


def _pairing_search(u: Field, params: CknParams) -> tuple:
    """(scan, point): minus the q-pairing P(t) = sum W V_t^(q-1) u, t = log lam.

    V_t is the canonical bubble at lam = e^t and W the q-pairing's
    quadrature weights.  scan(log lams) is -P at each dilation;
    point(log lam) is (-P, -P', -P'', tol) with the closed forms
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
        dens = (amp * lam**dw * (1.0 + y) ** (-m)) ** (q - 1.0)
        dens *= wu_radial
        return y, dens

    def scan(log_lams):
        out = np.empty(len(log_lams))
        for k in range(0, len(log_lams), AMPLITUDE_BLOCK):
            dens = terms(log_lams[k : k + AMPLITUDE_BLOCK])[1]
            out[k : k + AMPLITUDE_BLOCK] = -np.sum(dens, axis=(0, 1))
        return out

    def point(log_lam):
        y, dens = terms([log_lam])
        inv = 1.0 / (1.0 + y)
        k1 = dw - m * sig * y * inv
        k1_dt = -m * sig * sig * y * inv * inv
        d1 = -(q - 1.0) * np.sum(dens * k1)
        d2 = -(q - 1.0) * np.sum(dens * ((q - 1.0) * k1 * k1 + k1_dt))
        tol = SLOPE_ROUNDING * (q - 1.0) * np.sum(np.abs(dens * k1))
        return -float(np.sum(dens)), float(d1), float(d2), float(tol)

    return scan, point


def select_Pu(u: Field, params: CknParams) -> Bubble:
    """Dilation-picked representative: maximise the q-pairing over lam.

    Minus the pairing (_pairing_search) goes through _bracketed_min from
    the moment seed (OptimizerStall when the maximum is not bracketed).
    The caller is responsible for the closeness gate; this only needs a
    nonzero field, radial unless a or b is nonzero (UnsupportedField).
    """
    if not np.any(u.values):
        raise ZeroField("representative undefined for the zero field")
    _refuse_translation(u, params)
    scan, point = _pairing_search(u, params)
    log_lam = _bracketed_min(scan, point, moment_seed(u, params))[1]
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


def _tangent_free(vals, grads, v_bub: Bubble, params: CknParams, grid: RadialGrid) -> tuple:
    """Radial rows (K, nodes) with the amplitude and dilation tangents removed.

    vals and grads hold K radial functions and their r-derivatives, one
    row each.  With T the two tangent rows and W the V-weighted measure
    w r^(n-1-qb) V^(q-2), the coefficients C solve the 2 x 2 Gram system
    (T W T^T) C = T W vals^T, and the rows leave as vals - C^T T (grads
    likewise): the orthogonal projection in <., .>_V, up to the sphere
    area, which cancels.  ZeroField for a zero-amplitude bubble, whose
    tangents vanish.
    """
    if v_bub.amplitude == 0.0:
        raise ZeroField("tangents of a zero-amplitude bubble vanish; no projection")
    tangents = tangent_basis(v_bub, params, grid)
    t_vals = np.array([t.values[:, 0] for t in tangents])
    t_grads = np.array([t.grad_r[:, 0] for t in tangents])
    v = sample_bubble(params, v_bub, grid).values[:, 0]
    power = params.n - 1.0 - params.q * params.b
    weighted = t_vals * (grid.radial_weights(power) * v ** (params.q - 2.0))
    coef = np.linalg.solve(weighted @ t_vals.T, weighted @ vals.T)
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
