"""Stability experiments built on the projection machinery.

Everything here turns an inequality statement into a number we can
watch: deficit-to-distance ratios, empirical upper bounds for the
stability constant, slope fits for the distance exponent, the
parameter-monotonicity chain, and finite-domain embedding checks
through the weak norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFit,
    EmptyFamily,
    InvalidArgument,
    OnManifold,
    RegionViolation,
    UnsupportedField,
    ZeroField,
)
from .fields import (
    Field,
    RadialGrid,
    gaussian_bump_profile,
    make_radial_grid,
    sample_bubble,
)
from .functionals import (
    _deficit,
    deficit,
    grad_norm,
    q_norm,
    weak_lebesgue_norm,
    weighted_grad_pnorm,
)
from .manifold import canonical_bubble, canonical_profile, manifold_distance, orthogonalize
from .params import CknParams, HatParams, sharp_constant
from .transforms import StretchReport, _stretch_report

__all__ = [
    "ON_MANIFOLD_REL",
    "StabilityRecord",
    "KUpperBound",
    "SlopeFitResult",
    "GeneratorSpec",
    "alpha_exponent",
    "stability_ratio",
    "bubble_perturbation",
    "family_samples",
    "k_upper_scan",
    "exponent_slope_fit",
    "monotonicity_chain_check",
    "mollified_bubble",
    "embedding_check",
]

# relative distance below this counts as sitting on the manifold
ON_MANIFOLD_REL = 1e-6


@dataclass(frozen=True)
class StabilityRecord:
    """One deficit/distance measurement at a fixed exponent."""

    params: CknParams
    alpha: float
    ratio: float
    distance: float
    deficit: float
    family_tag: str


@dataclass(frozen=True)
class KUpperBound:
    """Scan summary: the smallest observed ratio bounds the constant above."""

    bound: float
    alpha: float
    sample_count: int
    used_count: int
    skipped_count: int
    minimizer: StabilityRecord
    caveat: bool  # a = b > 0, p != 2: the constant itself might vanish


@dataclass(frozen=True)
class SlopeFitResult:
    slope: float
    intercept: float
    distances: tuple
    deficits: tuple


@dataclass(frozen=True)
class GeneratorSpec:
    """Perturbation family: name, seed and the ranges its samples draw from.

    ``bubble_bump`` samples live on the grid ``window`` = (t_min, t_max,
    count); log10 eps, the bump centre and its width are drawn uniformly
    from their (lo, hi) ranges.  InvalidArgument at construction for
    lo > hi, or a width range that reaches 0.  Samples are drawn
    sequentially from one seeded stream, so the first N samples of a
    longer scan coincide with a shorter one.
    """

    family: str
    seed: int = 0
    window: tuple = (-30.0, 30.0, 2048)
    eps_log10: tuple = (-3.0, -1.0)
    center: tuple = (-5.0, 5.0)
    width: tuple = (0.6, 1.8)

    def __post_init__(self):
        for name in ("eps_log10", "center", "width"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise InvalidArgument(f"{name}: need lo <= hi, got {[lo, hi]}")
        lo = self.width[0]
        if not lo > 0.0:
            raise InvalidArgument(f"width: bump widths must be positive, got lo={lo}")

    def tag(self, index: int) -> str:
        return f"{self.family}[{index}]@seed{self.seed}"


def alpha_exponent(params: CknParams, n_symmetric: bool = False) -> float:
    """Distance exponent: max{4,2p} only for p != 2, 0 < a = b, flag off."""
    if params.p != 2.0 and params.a == params.b and params.a > 0 and not n_symmetric:
        return max(4.0, 2.0 * params.p)
    return max(2.0, params.p)


def stability_ratio(
    u: Field,
    params: CknParams,
    family_tag: str = "adhoc",
) -> StabilityRecord:
    """deficit(u) / (relative manifold distance)^alpha for one field."""
    unorm_p = weighted_grad_pnorm(u, params)
    if unorm_p <= 0.0:
        raise ZeroField("stability ratio of the zero field")
    unorm = unorm_p ** (1.0 / params.p)
    dist, _ = manifold_distance(u, params)
    rel = dist / unorm
    if rel <= ON_MANIFOLD_REL:
        raise OnManifold(f"relative distance {rel:.3e} below {ON_MANIFOLD_REL:.0e}")
    alpha = alpha_exponent(params)
    d = _deficit(u, params, unorm_p)
    return StabilityRecord(
        params=params,
        alpha=alpha,
        ratio=d / rel**alpha,
        distance=rel,
        deficit=d,
        family_tag=family_tag,
    )


# ---------------------------------------------------------------------------
# declarative sample families


def bubble_perturbation(params: CknParams, grid: RadialGrid, center: float, width: float):
    """eps -> V + eps z: the canonical bubble plus a tangent-free log-radius bump.

    z is the Gaussian bump at (center, width) with the tangent
    directions projected out, scaled to unit gradient norm, so eps is
    the size of the perturbation relative to a unit-norm direction.
    V and z are built once, so a sweep over eps pays for them once.
    """
    z = orthogonalize(
        gaussian_bump_profile(grid, params.n, center, width),
        canonical_bubble(params),
        params,
    )
    zn = grad_norm(z, params)
    v = canonical_profile(params, grid)
    return lambda eps: v + (eps / zn) * z


def family_samples(spec: GeneratorSpec, params: CknParams, count: int):
    """Yield `count` fields from the named family, prefix-stable in count."""
    if spec.family != "bubble_bump":
        raise InvalidArgument(f"unknown sample family {spec.family!r}")
    rng = np.random.default_rng(spec.seed)
    grid = make_radial_grid(*spec.window)
    for _ in range(count):
        # three draws per sample keeps prefixes aligned across counts
        eps = 10.0 ** rng.uniform(*spec.eps_log10)
        center = rng.uniform(*spec.center)
        width = rng.uniform(*spec.width)
        yield bubble_perturbation(params, grid, center, width)(eps)


def k_upper_scan(
    family: GeneratorSpec,
    params: CknParams,
    sample_count: int,
) -> KUpperBound:
    """Empirical upper bound: min stability ratio over the sampled family.

    On-manifold samples are excluded; the minimizing record is kept so a
    scan can be audited afterwards.
    """
    if sample_count < 1:
        raise InvalidArgument(f"sample_count must be >= 1, got {sample_count}")
    best: Optional[StabilityRecord] = None
    used = skipped = 0
    for i, u in enumerate(family_samples(family, params, sample_count)):
        try:
            rec = stability_ratio(u, params, family.tag(i))
        except OnManifold:
            skipped += 1
            continue
        used += 1
        if best is None or rec.ratio < best.ratio:
            best = rec
    if best is None:
        raise EmptyFamily(f"all {sample_count} samples sat on the manifold")
    return KUpperBound(
        bound=best.ratio,
        alpha=best.alpha,
        sample_count=sample_count,
        used_count=used,
        skipped_count=skipped,
        minimizer=best,
        caveat=(params.a == params.b and params.a > 0 and params.p != 2.0),
    )


# ---------------------------------------------------------------------------
# exponent optimality


def exponent_slope_fit(
    params: CknParams, eps_schedule: Sequence[float], perturbation: Field
) -> SlopeFitResult:
    """Fit log deficit(V + eps z) against log relative distance.

    The perturbation is rescaled to unit gradient norm relative to the
    bubble, so eps is the relative perturbation size and the schedule
    precondition (<= 0.1, >= 1.5 decades) means what it says.
    """
    eps = np.sort(np.asarray([float(e) for e in eps_schedule]))
    if eps.size < 2:
        raise DegenerateFit("need at least two epsilon values")
    if eps[0] <= 0.0:
        raise DegenerateFit("epsilon values must be positive")
    if eps[-1] > 0.1:
        raise DegenerateFit(f"epsilon {eps[-1]:.3g} above 0.1")
    if math.log10(eps[-1] / eps[0]) < 1.5:
        raise DegenerateFit("schedule spans under 1.5 decades")

    v = canonical_profile(params, perturbation.grid)
    unorm = grad_norm(v, params)
    zn = grad_norm(perturbation, params)
    if zn <= 0.0:
        raise ZeroField("zero perturbation")
    scale = unorm / zn

    dists, defs = [], []
    for e in eps:
        u = v + (e * scale) * perturbation
        d, _ = manifold_distance(u, params)
        dists.append(d / unorm)
        defs.append(deficit(u, params))
        if defs[-1] <= 0.0:  # window truncation can push a small deficit below 0
            raise DegenerateFit(f"deficit {defs[-1]:.3e} at eps {e:.3g} is not positive")

    dists_a = np.asarray(dists)
    if np.any(np.diff(dists_a) <= 0.0):
        raise DegenerateFit("distance not monotone along the schedule")
    slope, intercept = np.polyfit(np.log(dists_a), np.log(np.asarray(defs)), 1)
    return SlopeFitResult(
        slope=float(slope),
        intercept=float(intercept),
        distances=tuple(float(d) for d in dists),
        deficits=tuple(float(d) for d in defs),
    )


# ---------------------------------------------------------------------------
# parameter monotonicity


def monotonicity_chain_check(u: Field, hp: HatParams) -> StretchReport:
    """Verify the two computable steps tying the two weight classes.

    (i) the q-norms match exactly under the h-stretch; (ii) the target
    gradient energy dominates h^(1-p-p/q) times the plain base energy
    of the mapped field.  Radial fields make (ii) an equality.
    """
    if hp.h < 1.0:
        raise RegionViolation(f"chain runs toward smaller a only, h={hp.h:.4f} < 1")
    rep = _stretch_report(u, hp)
    if rep.grad_energy <= 0.0:
        raise ZeroField("chain check of the zero field")
    return rep


# ---------------------------------------------------------------------------
# finite-domain embedding


def mollified_bubble(
    params: CknParams,
    domain_radius: float,
    grid: Optional[RadialGrid] = None,
    lam: float = 1.0,
    count: int = 1024,
) -> Field:
    """Canonical bubble cut to a ball: cos^2 taper over the outer 10%.

    The taper puts the profile in the zero-trace class on the ball, so
    embedding_check accepts it.
    """
    if domain_radius <= 0.0:
        raise InvalidArgument(f"domain radius must be positive, got {domain_radius}")
    if grid is None:
        grid = make_radial_grid(-30.0, math.log(domain_radius), count)
    prof = sample_bubble(params, canonical_bubble(params, lam), grid)
    r = grid.nodes[:, None]
    r0 = 0.9 * domain_radius
    theta = 0.5 * math.pi * np.clip((r - r0) / (0.1 * domain_radius), 0.0, 1.0)
    chi = np.where(r >= domain_radius, 0.0, np.cos(theta) ** 2)
    dchi = np.where(
        (r > r0) & (r < domain_radius),
        -(math.pi / (0.2 * domain_radius)) * np.sin(2.0 * theta),
        0.0,
    )
    return replace(
        prof,
        values=prof.values * chi,
        grad_r=prof.grad_r * chi + prof.values * dchi,
    )


def _weight_samples(u: Field, params: CknParams, variant: str) -> Field:
    """|x|^-a |u| or |x|^-a |grad u| on u's grid, for the weak norm."""
    mag = np.abs(u.values) if variant == "value" else np.sqrt(u.grad_sq())
    vals = u.grid.nodes[:, None] ** (-params.a) * mag
    return replace(u, values=vals, grad_r=None, grad_psi=None)


def embedding_check(
    u: Field, params: CknParams, domain_radius: float, variant: str = "value"
) -> float:
    """Implied constant in the finite-domain weak-norm strengthening.

    Returns (grad^a - S^a qn^a) / (|Omega|^(-a p3) W^a) with W the weak
    norm of |x|^-a u (value variant, exponent p1) or of |x|^-a grad u
    (grad variant, exponent p2).  Degree zero in u by construction.
    """
    if variant not in ("value", "grad"):
        raise InvalidArgument(f"unknown variant {variant!r}")
    if domain_radius <= 0.0:
        raise InvalidArgument(f"domain radius must be positive, got {domain_radius}")
    n, p, a = params.n, params.p, params.a
    r = u.grid.nodes
    vals = np.max(np.abs(u.values), axis=1)
    outside = r >= domain_radius
    vmax = float(np.max(vals))
    if vmax == 0.0:
        raise ZeroField("embedding check of the zero field")
    if np.any(vals[outside] > 1e-14 * vmax):
        raise UnsupportedField(
            f"support leaks past r = {domain_radius:g}; zero-trace class required"
        )

    gn = grad_norm(u, params)
    qn = q_norm(u, params)
    alpha = alpha_exponent(params)
    p1 = n * (p - 1.0) / (n - p - a)
    p2 = n * (p - 1.0) / (n - a - 1.0)
    p3 = (n - p - p * a) / (n * p * (p - 1.0))
    exponent = p1 if variant == "value" else p2
    w = weak_lebesgue_norm(_weight_samples(u, params, variant), exponent, domain_radius)
    if w <= 0.0:
        raise ZeroField("weak norm vanished on the domain")
    volume = params.sphere_area * domain_radius**n / n
    numer = gn**alpha - sharp_constant(params) ** alpha * qn**alpha
    denom = volume ** (-alpha * p3) * w**alpha
    return numer / denom
