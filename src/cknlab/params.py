"""Admissible parameter tuples and the sharp constant.

The inequality under study compares the weighted gradient norm
``|| |x|^-a grad u ||_p`` against the weighted Lebesgue norm
``|| |x|^-b u ||_q`` on R^n.  A tuple (n, p, a, b) is admissible when

    1 < p < n,    0 <= a < (n - p)/p,    a <= b < a + 1,

and then q = n p / (n - p*gamma) with gamma = 1 + a - b in (0, 1].
Everything downstream carries a validated :class:`CknParams` instead of
raw numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GammaMismatch, RegionViolation

__all__ = [
    "CknParams",
    "HatParams",
    "derive_params",
    "sharp_constant",
    "derive_hat_params",
]


def _sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class CknParams:
    """Validated parameter tuple plus the derived exponents.

    q and gamma are stored, not recomputed, so every consumer sees the
    same floating-point values.  k = (n-p)/(n-p-ap) >= 1 is the radial
    stretch of the weight-removing change of variables; k = 1 iff a = 0.
    """

    n: int
    p: float
    a: float
    b: float
    q: float
    gamma: float
    k: float

    # -- derived exponents used by the extremal profiles -----------------

    @property
    def sigma(self) -> float:
        """Profile exponent: extremals are A*(1 + B r^sigma)^(-bubble_m)."""
        return self.p * self.gamma * (self.n - self.p - self.p * self.a) / (
            (self.p - 1.0) * (self.n - self.p * self.gamma)
        )

    @property
    def bubble_m(self) -> float:
        return self.n / (self.p * self.gamma) - 1.0

    @property
    def tail_rate(self) -> float:
        """Decay exponent beta of the extremal: V ~ r^-beta at infinity."""
        return (self.n - self.p - self.p * self.a) / (self.p - 1.0)

    @property
    def dilation_weight(self) -> float:
        """Homogeneity (n-p-pa)/p of the norm-preserving dilation action."""
        return (self.n - self.p - self.p * self.a) / self.p

    @property
    def sphere_area(self) -> float:
        """Surface measure of the unit sphere in R^n."""
        return _sphere_area(self.n)


@dataclass(frozen=True)
class HatParams:
    """A pair of tuples sharing (n, p, gamma), linked by the stretch h.

    h = (n - p - p*a_base)/(n - p - p*a_target); h > 1 exactly when the
    base tuple carries the smaller weight exponent a.
    """

    base: CknParams
    target: CknParams
    h: float


def derive_params(n: int, p: float, a: float, b: float) -> CknParams:
    """Validate (n, p, a, b) and fill in q, gamma, k.

    Raises
    ------
    RegionViolation
        If any admissibility constraint fails; the message names the
        violated constraint.  Boundary cases are rejected: a = (n-p)/p
        and b = a + 1 are outside the region.
    """
    if int(n) != n or n < 2:
        raise RegionViolation(f"n must be an integer >= 2, got {n}")
    n = int(n)
    if not 1.0 < p < n:
        raise RegionViolation(f"need 1 < p < n, got p={p}, n={n}")
    a_cap = (n - p) / p
    if not 0.0 <= a < a_cap:
        raise RegionViolation(f"need 0 <= a < (n-p)/p = {a_cap}, got a={a}")
    if not a <= b < a + 1.0:
        raise RegionViolation(f"need a <= b < a+1 with a={a}, got b={b}")
    # 1 - (b - a) is exact when a == b, unlike 1 + a - b
    gamma = 1.0 - (b - a)
    q = n * p / (n - p * gamma)
    k = (n - p) / (n - p - a * p)
    return CknParams(n=n, p=float(p), a=float(a), b=float(b), q=q, gamma=gamma, k=k)


def sharp_constant(params: CknParams) -> float:
    """Best constant of the inequality on the admissible region.

    Evaluated through log-gamma to stay finite for large n/gamma; the
    radial extremals computed elsewhere reproduce this value as their
    Rayleigh quotient.
    """
    n, p, a = params.n, params.p, params.a
    gam = params.gamma
    lg = (
        math.lgamma(n / (gam * p))
        + math.lgamma(n * (p - 1.0) / (gam * p))
        - math.lgamma(n / 2.0)
        - math.lgamma(n / gam)
    )
    return (
        n ** (1.0 / p)
        * (p - 1.0) ** (gam / n - 1.0 + 1.0 / p)
        * (n - gam * p) ** (gam / n - 1.0 / p)
        * (n - p - p * a) ** (1.0 - gam / n)
        * (2.0 * math.pi ** (n / 2.0) / (p * gam)) ** (gam / n)
        * math.exp(gam / n * lg)
    )


def derive_hat_params(base: CknParams, target: CknParams) -> HatParams:
    """Link two tuples with equal (n, p, gamma) by the radial stretch h.

    The stretch moves fields in the target weight class to the base
    weight class.  Both tuples must already be admissible.

    Raises
    ------
    GammaMismatch
        If the offsets b - a differ (the stretched field would land in
        the wrong Lebesgue class), or n or p disagree.
    """
    if base.n != target.n:
        raise GammaMismatch(f"dimension mismatch: {base.n} vs {target.n}")
    if base.p != target.p:
        raise GammaMismatch(f"gradient exponent mismatch: {base.p} vs {target.p}")
    if abs(base.gamma - target.gamma) > 1e-14:
        raise GammaMismatch(
            f"b - a offsets differ: gamma {base.gamma} vs {target.gamma}"
        )
    n, p = base.n, base.p
    h = (n - p - p * base.a) / (n - p - p * target.a)
    return HatParams(base=base, target=target, h=h)
