"""Weighted integrals: gradient energies, q-norms, deficits, weak norms.

Conventions: weighted_grad_pnorm and weighted_lq_norm return the p-th
and q-th power integrals (not the norms); deficit takes the roots.  All
integrals go through Field.integrate, which fixes the summation order,
so repeated evaluation is bitwise reproducible.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import BadExponent, BadGridSpec, GridMismatch, ZeroField
from .fields import Field
from .params import CknParams, sharp_constant

log = logging.getLogger(__name__)

__all__ = [
    "weighted_grad_pnorm",
    "weighted_lq_norm",
    "deficit",
    "weak_lebesgue_norm",
    "grad_norm",
    "q_norm",
]

NEGATIVE_DEFICIT_FLOOR = -1e-8


def _check_dim(u: Field, params: CknParams) -> None:
    if u.dim != params.n:
        raise GridMismatch(f"field dim {u.dim} vs params n {params.n}")


def _energy(w: np.ndarray, grads: np.ndarray, p: float) -> float:
    """sum w |grads|^p, the magnitude taken over the leading (component) axis."""
    return float(np.sum(w * np.sqrt(np.sum(grads**2, axis=0)) ** p))


def _gradient_stack(elements: list, params: CknParams) -> tuple:
    """Gradient components (ncomp, nodes, m) and the energy weights w.

    sum(w * |sum_c comps[c] @ coeff|^p) is weighted_grad_pnorm of the
    combined field, on the widest element's tensor grid flattened: one
    component (grad_r) when no element has an angular derivative, else
    (grad_r, grad_psi / r).
    """
    wide = elements[0]
    for e in elements[1:]:
        wide = wide.wider(e)
    shape = wide.values.shape
    parts = [[e.grad_r for e in elements]]
    if any(e.grad_psi is not None for e in elements):
        r = wide.grid.nodes[:, None]
        parts.append(
            [0.0 * r if e.grad_psi is None else e.grad_psi / r for e in elements]
        )
    comps = np.stack(
        [np.stack([np.broadcast_to(c, shape) for c in part], axis=-1) for part in parts]
    ).reshape(len(parts), -1, len(elements))
    power = params.n - 1.0 - params.p * params.a
    return comps, wide.measure(power).ravel()


def _flux_factor(mag: np.ndarray, expo: float) -> np.ndarray:
    """mag^expo where mag > 0, else 0: the flux |g|^(p-2) g vanishes with g."""
    return np.power(mag, expo, out=np.zeros_like(mag), where=mag > 0.0)


def weighted_grad_pnorm(u: Field, params: CknParams, k_factor: float = 1.0) -> float:
    """Integral of |x|^-pa |grad u|^p, with the angular part scaled by k_factor^2.

    k_factor = 1 is the true energy; k_factor = k majorises it (the
    polar functional of the weight-removing map).  Monotone
    nondecreasing in k_factor.
    """
    if k_factor < 1.0:
        raise ValueError(f"k_factor must be >= 1, got {k_factor}")
    _check_dim(u, params)
    p = params.p
    return u.integrate(params.n - 1.0 - p * params.a, u.grad_sq(k_factor) ** (p / 2.0))


def weighted_lq_norm(u: Field, params: CknParams) -> float:
    """Integral of |x|^-qb |u|^q."""
    _check_dim(u, params)
    q = params.q
    return u.integrate(params.n - 1.0 - q * params.b, np.abs(u.values) ** q)


def grad_norm(u: Field, params: CknParams) -> float:
    """The norm || |x|^-a grad u ||_p itself."""
    return weighted_grad_pnorm(u, params) ** (1.0 / params.p)


def q_norm(u: Field, params: CknParams) -> float:
    """The norm || |x|^-b u ||_q itself."""
    return weighted_lq_norm(u, params) ** (1.0 / params.q)


def deficit(u: Field, params: CknParams) -> float:
    """Rayleigh gap: grad norm over q norm, minus the sharp constant.

    Nonnegative for every admissible field up to quadrature noise;
    values in [-1e-8, 0) are clamped to 0 with a log diagnostic.
    """
    q_int = weighted_lq_norm(u, params)
    if q_int == 0.0:
        raise ZeroField("deficit undefined for the zero field")
    grad_int = weighted_grad_pnorm(u, params)
    d = grad_int ** (1.0 / params.p) / q_int ** (1.0 / params.q) - sharp_constant(
        params
    )
    if NEGATIVE_DEFICIT_FLOOR <= d < 0.0:
        log.debug("clamping quadrature-level negative deficit %.3e to 0", d)
        return 0.0
    if d < NEGATIVE_DEFICIT_FLOOR:
        log.warning("deficit %.3e below the quadrature floor; inequality violated?", d)
    return d


def weak_lebesgue_norm(u: Field, exponent: float, domain_radius: float) -> float:
    """sup over t of t * measure(|f| >= t on the ball)^(1/exponent).

    The sup runs over the multiset of sampled |f| values and the
    level-set measure is the indicator summed with the quadrature
    weights (Lebesgue measure in R^u.dim), so the result is exact on
    the discretization.
    """
    if exponent <= 0:
        raise BadExponent(f"weak norm exponent must be positive, got {exponent}")
    if domain_radius <= 0:
        raise BadGridSpec(f"domain radius must be positive, got {domain_radius}")
    shape = u.values.shape
    inside = np.broadcast_to(u.grid.nodes[:, None] <= domain_radius, shape).ravel()
    vals = np.abs(u.values).ravel()[inside]
    vols = u.measure(u.dim - 1.0).ravel()[inside]
    pos = vals > 0
    if not np.any(pos):
        return 0.0
    vals, vols = vals[pos], vols[pos]
    order = np.argsort(vals)[::-1]
    v_sorted = vals[order]
    cum_vol = np.cumsum(vols[order])
    return float(np.max(v_sorted * cum_vol ** (1.0 / exponent)))
