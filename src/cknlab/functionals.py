"""Weighted integrals: gradient energies, q-norms, deficits, weak norms.

Conventions: weighted_grad_pnorm and weighted_lq_norm return the p-th
and q-th power integrals (not the norms); deficit takes the roots.  All
integrals go through Field.integrate, which fixes the summation order
per row block, so repeated evaluation is bitwise reproducible.  The
gradient and q densities are built one row block at a time.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .errors import BadExponent, BadGridSpec, GridMismatch, InvalidArgument, ZeroField
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
_TINY = np.finfo(float).tiny


def _check_dim(u: Field, params: CknParams) -> None:
    if u.dim != params.n:
        raise GridMismatch(f"field dim {u.dim} vs params n {params.n}")


def _flux_factor(mag: np.ndarray, expo: float) -> np.ndarray:
    """mag^expo where mag > 0, else 0: the flux |g|^(p-2) g vanishes with g."""
    if expo > 0.0:
        # zero where mag is; these inputs do not underflow, so _power's
        # masked power would only cost more (about twice, at 1,024 nodes)
        return mag**expo
    return np.power(mag, expo, out=np.zeros(np.shape(mag)), where=mag > 0.0)


@functools.lru_cache(maxsize=256)
def _underflow_floor(expo: float) -> float:
    """The largest x >= 0 whose x^expo (numpy's array pow) is below tiny."""
    # tiny^(1/expo) alone misses it by up to |ln tiny| ulp(1/expo) relative
    x = np.power(np.array([_TINY]), 1.0 / expo)
    while x[0] > 0.0 and np.power(x, expo)[0] >= _TINY:
        x = np.nextafter(x, 0.0)
    while np.power(np.nextafter(x, 1.0), expo)[0] < _TINY:
        x = np.nextafter(x, 1.0)
    return float(x[0])


def _power(x: np.ndarray, expo: float) -> np.ndarray:
    """x^expo for x >= 0 and expo > 0, with pow's results below tiny set to 0.

    tiny = 2.2e-308 is the smallest normal double.  Every result at or
    above it is the same pow as x**expo, bit for bit.  Below it glibc's
    pow takes a slow path, so those entries are 0: on a 2048 x 128
    Gaussian bump, 40% of whose |u|^q underflows, the power takes 1.2 ms
    instead of 16 ms (2-core x86-64 host).  NaN and inf propagate.  A
    dropped entry weighs under tiny times its quadrature weight, below
    one ulp of any integral short of 1e-290, so no reported number
    moves.  numpy computes the exponents 0.5, 1 and 2 without pow
    (sqrt, copy, square), so those keep x**expo.
    """
    if expo in (0.5, 1.0, 2.0):
        return x**expo
    out = np.zeros(np.shape(x))
    keep = ~(x <= _underflow_floor(expo))  # not x > floor: NaN must not become 0
    return np.power(x, expo, out=out, where=keep)


def weighted_grad_pnorm(u: Field, params: CknParams, k_factor: float = 1.0) -> float:
    """Integral of |x|^-pa |grad u|^p, with the angular part scaled by k_factor^2.

    k_factor = 1 is the true energy; k_factor = k majorises it (the
    polar functional of the weight-removing map).  Monotone
    nondecreasing in k_factor.
    """
    if k_factor < 1.0:
        raise InvalidArgument(f"k_factor must be >= 1, got {k_factor}")
    _check_dim(u, params)
    p = params.p
    return u.integrate(
        params.n - 1.0 - p * params.a, lambda blk: _power(blk.grad_sq(k_factor), p / 2.0)
    )


def weighted_lq_norm(u: Field, params: CknParams) -> float:
    """Integral of |x|^-qb |u|^q."""
    _check_dim(u, params)
    q = params.q
    return u.integrate(params.n - 1.0 - q * params.b, lambda blk: _power(np.abs(blk.values), q))


def grad_norm(u: Field, params: CknParams) -> float:
    """The norm || |x|^-a grad u ||_p itself."""
    return weighted_grad_pnorm(u, params) ** (1.0 / params.p)


def q_norm(u: Field, params: CknParams) -> float:
    """The norm || |x|^-b u ||_q itself."""
    return weighted_lq_norm(u, params) ** (1.0 / params.q)


def deficit(u: Field, params: CknParams) -> float:
    """Rayleigh gap: grad norm over q norm, minus the sharp constant.

    Nonnegative for every admissible field up to quadrature noise and
    window truncation, and returned as computed; values below -1e-8 log
    a warning.
    """
    return _deficit(u, params, None)


def _deficit(u: Field, params: CknParams, grad_int: float | None) -> float:
    """deficit(u, params), with u's weighted gradient energy grad_int when it is not None."""
    q_int = weighted_lq_norm(u, params)
    if q_int == 0.0:
        raise ZeroField("deficit undefined for the zero field")
    if grad_int is None:
        grad_int = weighted_grad_pnorm(u, params)
    d = grad_int ** (1.0 / params.p) / q_int ** (1.0 / params.q) - sharp_constant(
        params
    )
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
