"""Horiuchi's radial stretch, which trades the gradient weight for dimension.

One map, v(r theta) = c^(1/q) u(r^c theta), serves both weight changes:
the stretch c = k removes the |x|^-pa weight entirely, and c = h moves
a field between two weight classes sharing gamma.  The inverse of the
c-stretch is the 1/c-stretch.  On a log-radius grid the substitution is
a pure node re-map: new log nodes t/c, values scaled by c^(1/q), radial
derivatives picking up c e^(t(c-1)/c).  No interpolation is involved,
so the q-norm identity holds node for node at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RegionViolation
from .fields import Field, scaled_grid
from .functionals import weighted_grad_pnorm, weighted_lq_norm
from .params import CknParams, derive_params

__all__ = [
    "TransformReport",
    "radial_stretch",
    "transform_identity_check",
    "flat_params",
]


@dataclass(frozen=True)
class TransformReport:
    """Residuals of the two norm identities for one mapped field."""

    q_norm_residual: float
    grad_identity_residual: float
    k_drop_gap: float = 0.0  # angular majorisation gap, >= 0, 0 for radial


def _stretch_field(u: Field, expo: float, value_scale: float) -> Field:
    """v(s) = value_scale * u(s^expo), node for node."""
    t = u.grid.log_nodes
    dfac = value_scale * expo * np.exp(t * (expo - 1.0) / expo)
    return replace(
        u,
        grid=scaled_grid(u.grid, 1.0 / expo),
        values=value_scale * u.values,
        grad_r=None if u.grad_r is None else dfac[:, None] * u.grad_r,
        grad_psi=None if u.grad_psi is None else value_scale * u.grad_psi,
        evaluator=None,
    )


def flat_params(params: CknParams) -> CknParams:
    """The weightless tuple (n, p, 0, b-a) sharing gamma and q."""
    return derive_params(params.n, params.p, 0.0, params.b - params.a)


def radial_stretch(u: Field, c: float, q: float) -> Field:
    """v = c^(1/q) u(r^c): the stretch by c, which preserves the q-norm.

    Pass params.k to reach the weightless class and hp.h to move from
    the target class to the base class; the stretch by 1/c undoes
    either.  c = 1 returns u unchanged.
    """
    if c == 1.0:
        return u
    return _stretch_field(u, c, c ** (1.0 / q))


def transform_identity_check(u: Field, params: CknParams) -> TransformReport:
    """Verify both norm identities of the weight-removing map on one field.

    Requires a > 0 (with a = 0 there is nothing to check).  Returns the
    relative q-norm residual, the relative residual of the gradient
    identity (with the k^2-scaled angular term), and the nonnegative
    gap dropped when the angular scaling is released to 1.
    """
    if params.a <= 0.0:
        raise RegionViolation("identity check needs a > 0; the map is trivial at a = 0")
    flat = flat_params(params)
    k = params.k
    moved = radial_stretch(u, k, params.q)
    pref = k ** (1.0 - params.p - params.p / params.q)

    q_lhs = weighted_lq_norm(u, params)
    q_rhs = weighted_lq_norm(moved, flat)
    q_res = abs(q_lhs - q_rhs) / max(abs(q_lhs), 1e-300)

    g_lhs = weighted_grad_pnorm(u, params, 1.0)
    g_rhs_scaled = pref * weighted_grad_pnorm(moved, flat, k_factor=k)
    g_res = abs(g_lhs - g_rhs_scaled) / max(abs(g_lhs), 1e-300)

    # exactly 0 for radial fields: without grad_psi the k scaling is void
    drop = g_rhs_scaled - pref * weighted_grad_pnorm(moved, flat, k_factor=1.0)
    return TransformReport(
        q_norm_residual=q_res,
        grad_identity_residual=g_res,
        k_drop_gap=drop,
    )
