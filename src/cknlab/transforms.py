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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import RegionViolation
from .fields import Field, scaled_grid
from .functionals import weighted_grad_pnorm, weighted_lq_norm
from .params import CknParams, HatParams, derive_hat_params, derive_params

__all__ = [
    "StretchReport",
    "radial_stretch",
    "transform_identity_check",
    "flat_params",
]


@dataclass(frozen=True)
class StretchReport:
    """The norm identities and the chain step of one h-stretch of one field."""

    q_norm_residual: float
    grad_identity_residual: float  # angular term scaled by h^2
    k_drop_gap: float  # angular majorisation gap, >= 0, 0 for radial
    grad_chain_gap: float  # target energy minus the scaled plain image energy
    grad_energy: float  # the target energy


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
    scale = c ** (1.0 / q)
    dfac = scale * c * np.exp(u.grid.log_nodes * (c - 1.0) / c)
    return replace(
        u,
        grid=scaled_grid(u.grid, 1.0 / c),
        values=scale * u.values,
        grad_r=None if u.grad_r is None else dfac[:, None] * u.grad_r,
        grad_psi=None if u.grad_psi is None else scale * u.grad_psi,
    )


def _stretch_report(u: Field, hp: HatParams) -> StretchReport:
    """Both norm identities and the chain step of the h-stretch of u.

    u lives in the target class and its image in the base class.  The
    image is stretched one row block of u at a time, so it is never
    built on the full grid, and each block goes through the public
    norms; math.fsum adds the blocks as Field.integrate does.
    """
    tp, base, h = hp.target, hp.base, hp.h
    q_lhs = weighted_lq_norm(u, tp)
    g_lhs = weighted_grad_pnorm(u, tp)
    # the image's q-energy, its gradient energy with the angular part scaled
    # by h^2, and the plain one; without grad_psi the last two are the same
    parts = ([], [], [])
    for _, blk in u.row_blocks():
        moved = radial_stretch(blk, h, base.q)
        parts[0].append(weighted_lq_norm(moved, base))
        parts[1].append(weighted_grad_pnorm(moved, base, h))
        parts[2].append(weighted_grad_pnorm(moved, base))
    q_rhs, g_scaled, g_plain = (math.fsum(part) for part in parts)

    q_res = abs(q_lhs - q_rhs) / max(abs(q_lhs), 1e-300)
    pref = h ** (1.0 - tp.p - tp.p / tp.q)
    g_rhs_scaled = pref * g_scaled
    g_res = abs(g_lhs - g_rhs_scaled) / max(abs(g_lhs), 1e-300)
    g_rhs_plain = pref * g_plain
    return StretchReport(
        q_norm_residual=q_res,
        grad_identity_residual=g_res,
        k_drop_gap=g_rhs_scaled - g_rhs_plain,
        grad_chain_gap=g_lhs - g_rhs_plain,
        grad_energy=g_lhs,
    )


def transform_identity_check(u: Field, params: CknParams) -> StretchReport:
    """Verify both norm identities of the weight-removing map on one field.

    The map is the k-stretch to the weightless tuple; a = 0 makes it trivial.
    """
    if params.a <= 0.0:
        raise RegionViolation("identity check needs a > 0; the map is trivial at a = 0")
    return _stretch_report(u, derive_hat_params(flat_params(params), params))
