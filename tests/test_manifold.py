"""Normalization, projection, representative selection, decomposition."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scipy.optimize import OptimizeResult, minimize

from cknlab import (
    MissingGradient,
    OptimizerStall,
    UnsupportedField,
    ZeroField,
    derive_params,
    sharp_constant,
)
from cknlab import manifold
from cknlab.fields import (
    Bubble,
    Field,
    bubble_evaluator,
    bubble_second_derivative,
    gaussian_bump_profile,
    make_psi_grid,
    make_radial_grid,
    modulated_axisym,
    sample_bubble,
)
from cknlab.functionals import _gradient_stack, weighted_grad_pnorm, weighted_lq_norm
from cknlab.manifold import (
    bubble_normalization,
    canonical_bubble,
    canonical_profile,
    manifold_distance,
    moment_seed,
    mu_rho_decompose,
    orthogonalize,
    orthogonality_check,
    select_Pu,
    tangent_basis,
    v_inner,
)

TUPLES = [(3, 2, 0, 0), (4, 2.5, 0.2, 0.5), (4, 2, 0.5, 0.5)]


@pytest.mark.parametrize("tup", TUPLES)
def test_normalized_energies_hit_sharp_constant(tup):
    # independent check: both energies of the canonical profile must land
    # on S^(pq/(q-p)) with S from the closed gamma-function form
    ps = derive_params(*tup)
    bub = bubble_normalization(ps)
    grid = make_radial_grid(-40, 40, 2048)
    prof = sample_bubble(ps, bub, grid)
    target = sharp_constant(ps) ** (ps.p * ps.q / (ps.q - ps.p))
    assert weighted_grad_pnorm(prof, ps) == pytest.approx(target, rel=1e-6)
    assert weighted_lq_norm(prof, ps) == pytest.approx(target, rel=1e-6)


def test_normalization_independent_root_solve():
    # solve the amplitude balance by bisection instead of the closed form
    from scipy.optimize import brentq

    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-60, 60, 3072)

    def energy_gap(amp):
        prof = sample_bubble(ps, Bubble(amplitude=amp, scale=1.0), grid)
        return weighted_grad_pnorm(prof, ps) - weighted_lq_norm(prof, ps)

    root = brentq(energy_gap, 1e-3, 1e3, xtol=1e-14, rtol=1e-14)
    assert bubble_normalization(ps).amplitude == pytest.approx(root, rel=1e-10)


def test_canonical_bubble_dilation_amplitude():
    ps = derive_params(3, 2, 0, 0)
    lam = 1.7
    bub = bubble_normalization(ps)
    dil = canonical_bubble(ps, lam)
    assert dil.scale == lam
    assert dil.amplitude == pytest.approx(
        bub.amplitude * lam**ps.dilation_weight, rel=1e-14
    )


def test_canonical_family_deficit_zero():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(count=2048)
    from cknlab.functionals import deficit

    for lam in (0.4, 1.0, 2.5):
        assert abs(deficit(canonical_profile(ps, grid, lam), ps)) < 1e-9


def test_moment_seed_recovers_dilation():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=2048)
    for lam in (0.5, 1.0, 3.0):
        prof = canonical_profile(ps, grid, lam)
        assert moment_seed(prof, ps) == pytest.approx(math.log(lam), abs=1e-6)


def test_distance_zero_on_manifold():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    u = canonical_profile(ps, grid, 1.3)
    scaled = 1.1 * u
    unorm = weighted_grad_pnorm(scaled, ps) ** (1.0 / ps.p)
    dist, bub = manifold_distance(scaled, ps)
    assert dist <= 1e-6 * unorm
    assert bub.scale == pytest.approx(1.3, rel=1e-3)


def test_distance_bounded_by_perturbation():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    v = canonical_profile(ps, grid, 1.0)
    eps = 0.01
    bump = gaussian_bump_profile(grid, ps.n, 0.0, 1.0)
    u = v + eps * bump
    bump_norm = weighted_grad_pnorm(bump, ps) ** (1.0 / ps.p)
    dist, _ = manifold_distance(u, ps)
    assert dist <= eps * bump_norm + 1e-6


def test_distance_zero_field():
    ps = derive_params(3, 2, 0, 0)
    g = make_radial_grid(count=64)
    z = Field.radial(g, ps.n, np.zeros(g.count), np.zeros(g.count))
    with pytest.raises(ZeroField):
        manifold_distance(z, ps)


def _rel_distance(u, ps):
    dist, bub = manifold_distance(u, ps)
    return dist / weighted_grad_pnorm(u, ps) ** (1.0 / ps.p), bub


def test_projection_refuses_non_radial_field_at_zero_weights():
    # at a = b = 0 the nearest bubble of an axisymmetric u may be translated,
    # and the searches move only the amplitude and the dilation
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-20, 20, 256)
    u = modulated_axisym(1.2 * canonical_profile(ps, grid, 1.4), 32)
    with pytest.raises(UnsupportedField):
        manifold_distance(u, ps)
    with pytest.raises(UnsupportedField):
        select_Pu(u, ps)


def test_distance_axisym_without_angular_gradient():
    # grad_psi None means a vanishing angular derivative: the one-component
    # stack and the two-component one with a zero angular row agree
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-20, 20, 256)
    rad = canonical_profile(ps, grid, 1.4) + 0.05 * gaussian_bump_profile(
        grid, ps.n, 0.5, 1.0
    )
    psi, wpsi = make_psi_grid(ps.n, 16)
    ones = np.ones((1, len(psi)))
    u = Field(grid, ps.n, psi, wpsi, rad.values * ones, rad.grad_r * ones)
    got = manifold_distance(u, ps)[0]
    want = manifold_distance(replace(u, grad_psi=np.zeros_like(u.values)), ps)[0]
    assert got == pytest.approx(want, rel=1e-12)


P_BELOW_TWO = (3, 1.5, 0.1, 0.3)


def test_distance_zero_on_manifold_p_below_two():
    ps = derive_params(*P_BELOW_TWO)
    grid = make_radial_grid(-30, 30, 2048)
    rel, bub = _rel_distance(1.1 * canonical_profile(ps, grid, 1.3), ps)
    assert rel <= 1e-10
    assert bub.scale == pytest.approx(1.3, rel=1e-6)


def test_distance_p_below_two_matches_nelder_mead():
    # reference: the (amplitude, log B) simplex search with five starts
    ps = derive_params(*P_BELOW_TWO)
    grid = make_radial_grid(-30, 30, 2048)
    u = canonical_profile(ps, grid, 1.3) + 0.02 * gaussian_bump_profile(
        grid, ps.n, 0.5, 1.0
    )
    w = grid.radial_weights(ps.n - 1.0 - ps.p * ps.a) * u.psi_weights[0]

    def dist(theta):
        _, dv = bubble_evaluator(theta[0], math.exp(theta[1]), ps.sigma, ps.bubble_m)(
            grid.nodes
        )
        return np.sum(w * np.abs(u.grad_r[:, 0] - dv) ** ps.p) ** (1.0 / ps.p)

    amp0 = canonical_bubble(ps, 1.3).amplitude
    starts = [(0.0, 0.0), (0.1, 0.5), (-0.1, -0.5), (0.2, -0.3), (-0.15, 0.4)]
    ref = min(
        minimize(
            dist,
            [amp0 * (1.0 + da), ps.sigma * math.log(1.3) + db],
            method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000),
        ).fun
        for da, db in starts
    )
    dist_new, _ = manifold_distance(u, ps)
    assert dist_new == pytest.approx(ref, rel=1e-9)


# one admissible tuple with a > 0 per exponent
KERNEL_TUPLES = [
    (3, 1.5, 0.1, 0.3),
    (4, 2.0, 0.5, 0.5),
    (4, 2.5, 0.2, 0.5),
    (4, 3.0, 0.1, 0.1),
    (5, 4.0, 0.1, 0.2),
]
KERNEL_LOG_LAMS = (-1.0, 0.0, math.log(1.3), 1.0)


def _kernel_problem(tup, axisym, log_lams=KERNEL_LOG_LAMS):
    """u's stack and the columns: bubbles at log_lams and a bump at t = 45.

    u carries a near bump and a far one at t = 45, which the bubbles
    cannot reach (the c04c setting).  The columns are the kernel's rows,
    (components, columns, nodes).
    """
    ps = derive_params(*tup)
    grid = make_radial_grid(-30, 60, 1024)
    u = (
        canonical_profile(ps, grid, 1.3)
        + 0.05 * gaussian_bump_profile(grid, ps.n, 1.0, 1.0)
        + 1e-3 * gaussian_bump_profile(grid, ps.n, 45.0, 1.0)
    )
    if axisym:
        u = modulated_axisym(u, psi_count=8)
    cols = [sample_bubble(ps, Bubble(1.0, math.exp(t)), grid) for t in log_lams]
    cols.append(gaussian_bump_profile(grid, ps.n, 45.0, 1.0))
    comps, w = _gradient_stack([u, *cols], ps)
    H = np.ascontiguousarray(comps[..., 1:].transpose(0, 2, 1))
    return ps, comps[..., 0], H, w


def _slope_root(g, h, w, p, lo, hi):
    """Zero of -p sum w |r|^(p-2) r.h, r = g - A h, by bisection to 4 ulp."""

    def slope(amp):
        r = g - amp * h
        mag = np.sqrt(np.sum(r * r, axis=0))
        flux = np.power(mag, p - 2.0, out=np.zeros_like(mag), where=mag > 0.0)
        return -p * np.sum(w * flux * np.sum(r * h, axis=0))

    assert slope(lo) < 0.0 < slope(hi)
    while hi - lo > 4.0 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_batched_amplitudes_match_scalar_solve(tup, axisym):
    # against the slope root itself: the kernel's stopping test is referred
    # to its current iterate, so it may not stop short on the far bump
    ps, g, H, w = _kernel_problem(tup, axisym)
    assert H.shape[0] == (2 if axisym else 1)
    got = manifold._profiled_amplitudes(g, H, w, ps.p)
    for k in range(H.shape[1]):
        want = _slope_root(g, H[:, k], w, ps.p, 0.5 * got[k], 2.0 * got[k])
        assert got[k] == pytest.approx(want, rel=1e-12), k


def test_kernel_restart_moves_no_amplitude():
    # the far-bump problem whose p = 2 start is 3.3e8 against answers of 45-76
    ps, g, H, w = _kernel_problem((4, 2.5, 0.2, 0.5), False)
    cold = manifold._profiled_amplitudes(g, H, w, ps.p)
    warm = manifold._profiled_amplitudes(g, H, w, ps.p, start=cold)
    assert np.max(np.abs(warm / cold - 1.0)) <= 1e-10


def test_batched_amplitude_step_cap_raises(monkeypatch):
    ps, g, H, w = _kernel_problem((4, 3.0, 0.1, 0.1), False)
    monkeypatch.setattr(manifold, "AMPLITUDE_MAX_STEPS", 1)
    with pytest.raises(OptimizerStall, match="columns open"):
        manifold._profiled_amplitudes(g, H, w, ps.p)


def test_batched_amplitude_non_finite_slope_raises():
    ps, g, H, w = _kernel_problem((4, 2.5, 0.2, 0.5), False)
    start = [1.0, np.inf, 1.0, 1.0, 1.0]
    with np.errstate(all="ignore"):
        with pytest.raises(OptimizerStall, match="non-finite amplitude slope"):
            manifold._profiled_amplitudes(g, H, w, ps.p, start=start)


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_warm_started_amplitudes_match_cold_solve(tup, axisym):
    # the stopping test is taken at the iterate, so no start, however far,
    # stops short; the bump column, which u holds exactly, converges only
    # linearly at p > 2 but still reaches the same test
    ps, g, H, w = _kernel_problem(tup, axisym)
    answer = manifold._profiled_amplitudes(g, H, w, ps.p)
    for factor in (1.001, 10.0, -1.0, 0.0):
        warm = manifold._profiled_amplitudes(g, H, w, ps.p, start=factor * answer)
        assert warm == pytest.approx(answer, rel=1e-12), factor


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_one_component_slopes_match_generic_path(p):
    tup = next(t for t in KERNEL_TUPLES if t[1] == p)
    ps, g, H, w = _kernel_problem(tup, False)
    amps = 0.9 * manifold._profiled_amplitudes(g, H, w, p)
    # a column equal to g on the inner half: at amplitude 1 the residual,
    # and with it the flux, vanishes there
    inner = np.arange(g.shape[1]) < g.shape[1] // 2
    H = np.concatenate([H, np.where(inner, g, 0.5 * g)[:, None, :]], axis=1)
    amps = np.append(amps, 1.0)
    hsq = np.einsum("ckn,ckn->kn", H, H)
    one = manifold._slopes_curvs(g, H, hsq, w, p, amps)
    # the same stack with an all-zero angular row takes the generic path
    g2 = np.concatenate([g, np.zeros_like(g)])
    H2 = np.concatenate([H, np.zeros_like(H)])
    generic = manifold._slopes_curvs(g2, H2, hsq, w, p, amps)
    for got, want in zip(one, generic):
        assert got == pytest.approx(want, rel=1e-13)


def test_warm_start_saves_far_bump_slope_evaluations(monkeypatch):
    # c04c's tuple; the neighbour sits one Brent-sized step away
    t = math.log(1.3)
    ps, g, H, w = _kernel_problem((4, 2.5, 0.2, 0.5), False, (t, t + 0.01))
    near = manifold._profiled_amplitudes(g, H[:, :1], w, ps.p)
    calls = []
    slopes_curvs = manifold._slopes_curvs

    def counted(*args):
        calls.append(1)
        return slopes_curvs(*args)

    monkeypatch.setattr(manifold, "_slopes_curvs", counted)
    manifold._profiled_amplitudes(g, H[:, 1:2], w, ps.p)
    cold = len(calls)
    calls.clear()
    manifold._profiled_amplitudes(g, H[:, 1:2], w, ps.p, start=near)
    assert len(calls) < cold


@pytest.mark.parametrize(
    "tup,window",
    [((4, 2.5, 0.2, 0.5), (-30, 30, 2048)), ((4, 3.0, 0.1, 0.1), (-60, 60, 3072))],
)
def test_scan_blocks_match_one_column_solves(tup, window):
    # a 33-point scan of a c04a/c04b sample, solved as the scan solves it
    from cknlab.stability import perturbed_bubble

    ps = derive_params(*tup)
    u = perturbed_bubble(ps, make_radial_grid(*window), 0.05, 1.0, 1.0)
    _, _, amplitudes, w = manifold._distance_search(u, ps)
    seed = moment_seed(u, ps)
    x = np.linspace(seed - 8.0, seed + 8.0, 33)
    block = manifold.AMPLITUDE_BLOCK
    for k in range(0, len(x), block):
        g, H, amps = amplitudes(x[k : k + block])
        for j in range(H.shape[1]):
            one = manifold._profiled_amplitudes(g, H[:, j : j + 1], w, ps.p)
            assert amps[j] == pytest.approx(one[0], rel=1e-12), k + j


# one admissible tuple per exponent with a > 0, and one with a = b = 0
SLOPE_TUPLES = {
    1.5: ((3, 1.5, 0.1, 0.3), (3, 1.5, 0, 0)),
    2.0: ((4, 2.0, 0.5, 0.5), (3, 2.0, 0, 0)),
    2.5: ((4, 2.5, 0.2, 0.5), (3, 2.5, 0, 0)),
    3.0: ((4, 3.0, 0.1, 0.1), (4, 3.0, 0, 0)),
    4.0: ((5, 4.0, 0.1, 0.2), (5, 4.0, 0, 0)),
}


def _axial_derivative(ps, bub, grid, psi_count):
    """V'(r) cos psi, the derivative of the bubble V along the first axis."""
    dv = sample_bubble(ps, bub, grid).grad_r
    d2v = bubble_second_derivative(
        bub.amplitude, bub.scale**ps.sigma, ps.sigma, ps.bubble_m
    )(grid.nodes[:, None])
    psi, wpsi = make_psi_grid(ps.n, psi_count)
    return Field(
        grid=grid,
        dim=ps.n,
        psi_nodes=psi,
        psi_weights=wpsi,
        values=dv * np.cos(psi),
        grad_r=d2v * np.cos(psi),
        grad_psi=-dv * np.sin(psi),
    )


def _slope_field(p, kind):
    """(params, u): a perturbed bubble, radial, axisymmetric or shifted.

    The shifted one is V + 0.3 V'(r) cos psi plus the bump at a = b = 0,
    the bubble moved along the axis to first order: the public searches
    refuse it, but their objectives over centred bubbles are defined for
    any field.
    """
    weighted, flat = SLOPE_TUPLES[p]
    ps = derive_params(*(flat if kind == "shifted" else weighted))
    grid = make_radial_grid(-25, 25, 512)
    u = canonical_profile(ps, grid, 1.3) + 0.05 * gaussian_bump_profile(
        grid, ps.n, 0.5, 1.0
    )
    if kind == "axisym":
        u = modulated_axisym(u, psi_count=8)
    if kind == "shifted":
        u = u + 0.3 * _axial_derivative(ps, canonical_bubble(ps, 1.3), grid, 8)
    return ps, u


def _check_slopes(point, t, step=1e-4):
    # f' against the central difference of f, f'' against that of f'
    f, d1, d2, tol = point(t)
    up, dn = point(t + step), point(t - step)
    assert d1 == pytest.approx((up[0] - dn[0]) / (2.0 * step), rel=1e-6)
    assert d2 == pytest.approx((up[1] - dn[1]) / (2.0 * step), rel=1e-6)
    assert 0.0 < tol < 1e-10 * abs(d1)
    return f


@pytest.mark.parametrize("kind", ["radial", "axisym", "shifted"])
@pytest.mark.parametrize("p", sorted(SLOPE_TUPLES))
def test_dilation_slopes_match_central_differences(p, kind):
    # off the minimum, where the slope is far from its rounding bound
    ps, u = _slope_field(p, kind)
    scan, point, _, _ = manifold._distance_search(u, ps)
    t = math.log(1.3) + 0.2
    f = _check_slopes(point, t)
    assert f == pytest.approx(scan(np.array([t]))[0], rel=1e-12)


@pytest.mark.parametrize("kind", ["radial", "axisym", "shifted"])
@pytest.mark.parametrize("p", sorted(SLOPE_TUPLES))
def test_pairing_slopes_match_central_differences(p, kind):
    ps, u = _slope_field(p, kind)
    scan, point = manifold._pairing_search(u, ps)
    t = math.log(1.3) + 0.2
    f = _check_slopes(point, t)
    bub = canonical_bubble(ps, math.exp(t))
    want = manifold._q_pairing(u, sample_bubble(ps, bub, u.grid), ps)
    assert f == pytest.approx(-want, rel=1e-12)
    assert scan(np.array([t]))[0] == pytest.approx(-want, rel=1e-12)


EXACT_BUBBLE_CASES = [
    ((4, 3, 0.2, 0.4), (-30, 30, 2048)),
    ((4, 3, 0.2, 0.4), (-60, 60, 4096)),
    ((5, 3, 0.3, 0.5), (-30, 30, 2048)),
]


@pytest.mark.parametrize("tup,window", EXACT_BUBBLE_CASES)
def test_distance_zero_on_exact_bubbles(tup, window):
    # the p = 3 tuples whose Brent search stopped 1e-11 off in log lam and
    # stalled; the slope search lands on the dilation to rounding
    ps = derive_params(*tup)
    grid = make_radial_grid(*window)
    for lam in (0.3, 0.5, 0.7, 0.9, 1.4, 2.0, 3.0):
        rel, bub = _rel_distance(1.1 * canonical_profile(ps, grid, lam), ps)
        assert rel <= 1e-12, lam
        assert bub.scale == pytest.approx(lam, rel=1e-10), lam


def test_distance_dilation_certificate_slow_tail():
    # a perturbed slow-tail bubble: the returned dilation's slope is on its
    # rounding bound
    ps = derive_params(5, 3.0, 0.3, 0.5)
    grid = make_radial_grid(-30, 30, 2048)
    u = canonical_profile(ps, grid, 0.7) + 0.02 * gaussian_bump_profile(
        grid, ps.n, 0.5, 1.0
    )
    _, bub = manifold_distance(u, ps)
    _, d1, _, tol = manifold._distance_search(u, ps)[1](math.log(bub.scale))
    assert abs(d1) <= tol


@pytest.mark.parametrize("count", [1024, 2048])
def test_select_pu_certificate_on_residual_scaling_fields(count):
    # c07's seven fields on its fast and strict grids
    from cknlab.stability import perturbed_bubble

    ps = derive_params(5, 3.0, 0.3, 0.5)
    grid = make_radial_grid(-30, 30, count)
    for eps in np.logspace(-3, -1, 7):
        u = perturbed_bubble(ps, grid, float(eps), 0.5, 0.7)
        bub = select_Pu(u, ps)
        _, d1, _, tol = manifold._pairing_search(u, ps)[1](math.log(bub.scale))
        assert abs(d1) <= tol, eps
        # a rounding-level change of u no longer moves the dilation off its
        # plateau (Brent's moved c07's N by up to 7e-6 relative)
        again = select_Pu((1.0 + 3e-15) * u, ps)
        assert again.scale == pytest.approx(bub.scale, rel=1e-12), eps


def test_distance_axisym_weighted_matches_nelder_mead():
    # a > 0: no shift, but the angular gradient enters the distance
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-25, 25, 512)
    u = modulated_axisym(
        canonical_profile(ps, grid, 1.3)
        + 0.02 * gaussian_bump_profile(grid, ps.n, 0.5, 1.0),
        psi_count=8,
    )
    w = grid.radial_weights(ps.n - 1.0 - ps.p * ps.a)[:, None] * u.psi_weights
    ang_sq = (u.grad_psi / grid.nodes[:, None]) ** 2

    def dist(theta):
        _, dv = bubble_evaluator(theta[0], math.exp(theta[1]), ps.sigma, ps.bubble_m)(
            grid.nodes
        )
        grad_sq = (u.grad_r - dv[:, None]) ** 2 + ang_sq
        return np.sum(w * grad_sq ** (ps.p / 2.0)) ** (1.0 / ps.p)

    amp0 = canonical_bubble(ps, 1.3).amplitude
    starts = [(0.0, 0.0), (0.1, 0.5), (-0.1, -0.5)]
    ref = min(
        minimize(
            dist,
            [amp0 * (1.0 + da), ps.sigma * math.log(1.3) + db],
            method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000),
        ).fun
        for da, db in starts
    )
    got, _ = manifold_distance(u, ps)
    assert got == pytest.approx(ref, rel=1e-9)


def _perturbed_p25():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    u = canonical_profile(ps, grid) + 0.05 * gaussian_bump_profile(grid, ps.n, 1.0, 1.0)
    return ps, u


def test_certificate_unbracketed_scan_raises(monkeypatch):
    # seeded 20 away, the scan window ends before the minimum
    ps, u = _perturbed_p25()
    seed = manifold.moment_seed
    monkeypatch.setattr(manifold, "moment_seed", lambda f, ps: seed(f, ps) + 20.0)
    with pytest.raises(OptimizerStall, match="no interior minimum"):
        manifold_distance(u, ps)


def test_dilation_newton_certifies_and_guards_its_bracket():
    # f = (t - c)^4 / 4: f'' vanishes at c, where f' meets its bound
    def point(c):
        return lambda t: ((t - c) ** 4 / 4, (t - c) ** 3, 3 * (t - c) ** 2, 1e-30)

    val, t = manifold._newton(point(0.3), -1.0, 0.0, 1.0)
    assert abs(t - 0.3) ** 3 <= 1e-30 or t == pytest.approx(0.3, abs=1e-15)
    # f' < 0 all through the bracket: the search closes on its right end
    with pytest.raises(OptimizerStall, match="closed on an end"):
        manifold._newton(point(5.0), -1.0, 0.0, 1.0)


def test_certificate_first_order_residual_raises(monkeypatch):
    # an amplitude solver that never moves, started without the kernel's
    # amplitude, leaves the p = 2 projection, which misses the p = 2.5
    # first-order condition
    def stuck(fun, x0, **kwargs):
        x = np.asarray(x0, dtype=float)
        return OptimizeResult(x=x, fun=fun(x)[0], nfev=1, nit=0, success=False)

    def cold(g, h, w, p, start=None):
        return solve(g, h, w, p)

    ps, u = _perturbed_p25()
    solve = manifold._profiled_amplitude
    monkeypatch.setattr(manifold, "minimize", stuck)
    monkeypatch.setattr(manifold, "_profiled_amplitude", cold)
    with pytest.raises(OptimizerStall, match="first-order residual"):
        manifold_distance(u, ps)


def test_certified_amplitude_starts_from_kernel(monkeypatch):
    # a c04a sample at p = 2.5: the trust-region solve starts at the
    # kernel's amplitude at the chosen dilation and has nothing to polish,
    # where a start at the p = 2 projection needs several iterations
    from cknlab.stability import perturbed_bubble

    ps = derive_params(4, 2.5, 0.2, 0.5)
    u = perturbed_bubble(ps, make_radial_grid(-30, 30, 2048), 0.05, 1.0, 1.0)
    kernel, starts, solves = [], [], []
    batched, scalar = manifold._profiled_amplitudes, manifold._profiled_amplitude

    def spied_batched(*args):
        kernel.append(batched(*args))
        return kernel[-1]

    def spied_scalar(g, h, w, p, start=None):
        starts.append(start)
        return scalar(g, h, w, p, start)

    def spied_minimize(fun, x0, **kwargs):
        solves.append((np.array(x0, dtype=float), minimize(fun, x0, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(manifold, "_profiled_amplitudes", spied_batched)
    monkeypatch.setattr(manifold, "_profiled_amplitude", spied_scalar)
    monkeypatch.setattr(manifold, "minimize", spied_minimize)
    _, bub = manifold_distance(u, ps)
    (x0, res), = solves
    # x0 is the start over its own magnitude
    assert starts == [kernel[-1][0]]
    assert x0[0] * abs(starts[0]) == starts[0]
    assert res.nit <= 1
    assert bub.amplitude == pytest.approx(starts[0], rel=1e-12)

    # the same solve from the p = 2 projection
    _, _, amplitudes, w = manifold._distance_search(u, ps)
    g, H, _ = amplitudes([math.log(bub.scale)])
    solves.clear()
    cold = scalar(g, H[:, 0], w, ps.p)
    assert solves[0][1].nit > 1
    assert cold == pytest.approx(bub.amplitude, rel=1e-12)


def test_select_pu_recovers_scale():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=2048)
    u = canonical_profile(ps, grid, 1.7)
    got = select_Pu(u, ps)
    assert got.scale == pytest.approx(1.7, rel=1e-4)


def test_select_pu_scale_invariant_in_u():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    u = canonical_profile(ps, grid, 0.8)
    u3 = 3.0 * u
    # the pairing scales linearly, and the search stops on its slope, not
    # on values, so the maximiser agrees to rounding
    assert select_Pu(u3, ps).scale == pytest.approx(select_Pu(u, ps).scale, rel=1e-12)


def test_select_pu_perturbation_stability():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=2048)
    v = canonical_profile(ps, grid, 1.0)
    u = v + 0.01 * gaussian_bump_profile(grid, ps.n, 1.0, 0.8)
    got = select_Pu(u, ps)
    assert abs(math.log(got.scale)) <= 0.1


def test_select_pu_zero_field():
    ps = derive_params(3, 2, 0, 0)
    g = make_radial_grid(count=64)
    z = Field.radial(g, ps.n, np.zeros(g.count), np.zeros(g.count))
    with pytest.raises(ZeroField):
        select_Pu(z, ps)


def test_mu_rho_on_manifold():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    v = canonical_profile(ps, grid)
    rec = mu_rho_decompose(v, bub, ps)
    assert rec.mu == pytest.approx(1.0, rel=1e-10)
    assert np.max(np.abs(rec.rho.values)) <= 1e-10 * np.max(np.abs(v.values))
    assert mu_rho_decompose(2.0 * v, bub, ps).mu == pytest.approx(2.0, rel=1e-10)


def test_mu_rho_orthogonal_perturbation():
    # u = V + eps W with W orthogonal to V in the weighted pairing:
    # mu comes back 1 and rho comes back eps W
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    v = canonical_profile(ps, grid)
    w = orthogonalize(gaussian_bump_profile(grid, ps.n, 0.5, 0.9), bub, ps)
    eps = 0.05
    u = v + eps * w
    rec = mu_rho_decompose(u, bub, ps)
    assert rec.mu == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rec.rho.values - eps * w.values)) <= 1e-10 * np.max(
        np.abs(v.values)
    )


@pytest.mark.parametrize("tup", [(4, 2.5, 0.2, 0.5), (5, 3, 0.3, 0.5)])
def test_mu_rho_radial_bubble_broadcasts_on_axisym_field(tup):
    # the radial bubble sample pairs with an angular u as it stands; the
    # cos psi modulation integrates to zero, so mu is the radial u's
    ps = derive_params(*tup)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    u = canonical_profile(ps, grid, 1.3) + 0.05 * gaussian_bump_profile(
        grid, ps.n, 0.5, 1.0
    )
    axi = modulated_axisym(u, 16, cos_coeff=0.4)
    rec = mu_rho_decompose(axi, bub, ps)
    assert rec.mu == pytest.approx(mu_rho_decompose(u, bub, ps).mu, rel=1e-13)
    assert rec.rho.values.shape == (grid.count, 16)
    assert np.array_equal(rec.rho.psi_nodes, axi.psi_nodes)


def test_tangent_count_and_labels():
    ps = derive_params(4, 2, 0.5, 0.5)
    grid = make_radial_grid(count=256)
    basis = tangent_basis(canonical_bubble(ps), ps, grid)
    assert len(basis) == 2
    assert all(w.is_radial for w in basis)


def test_dilation_tangent_fd_oracle():
    # central difference through the canonical family at lam = 1
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-20, 20, 512)
    h = 1e-5
    up = canonical_profile(ps, grid, 1.0 + h)
    dn = canonical_profile(ps, grid, 1.0 - h)
    fd = (up.values - dn.values) / (2 * h)
    dil = tangent_basis(canonical_bubble(ps), ps, grid)[1]
    scale = np.max(np.abs(dil.values))
    assert np.max(np.abs(fd - dil.values)) <= 1e-6 * scale
    fd_der = (up.grad_r - dn.grad_r) / (2 * h)
    dscale = np.max(np.abs(dil.grad_r))
    assert np.max(np.abs(fd_der - dil.grad_r)) <= 1e-5 * dscale


def test_amplitude_dilation_orthogonality_identity():
    # <V, dilation>_V vanishes identically: the q-energy is invariant
    # along the canonical family
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=2048)
    bub = canonical_bubble(ps)
    v_field = canonical_profile(ps, grid)
    amp, dil = tangent_basis(bub, ps, grid)
    num = v_inner(amp, dil, v_field, ps)
    den = math.sqrt(v_inner(amp, amp, v_field, ps) * v_inner(dil, dil, v_field, ps))
    assert abs(num) / den <= 1e-9


def test_orthogonality_check_examples():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    z = Field.radial(grid, ps.n, np.zeros(grid.count))
    assert orthogonality_check(z, bub, ps) == [0.0, 0.0]
    v = canonical_profile(ps, grid)
    res = orthogonality_check(v, bub, ps)
    assert res[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(res[1]) <= 1e-8


def test_selected_representative_kills_dilation_pairing():
    # at an interior maximiser of the pairing the dilation direction of
    # the decomposition must be numerically orthogonal
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=2048)
    v = canonical_profile(ps, grid, 1.2)
    u = v + 0.02 * gaussian_bump_profile(grid, ps.n, -0.5, 1.0)
    rep = select_Pu(u, ps)
    rec = mu_rho_decompose(u, rep, ps)
    assert abs(orthogonality_check(rec.rho, rep, ps)[1]) <= 1e-4


def test_orthogonalize_output_is_orthogonal():
    ps = derive_params(4, 2, 0.5, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    w = orthogonalize(gaussian_bump_profile(grid, ps.n, 0.3, 1.1), bub, ps)
    res = orthogonality_check(w, bub, ps)
    assert max(abs(x) for x in res) <= 1e-10


def test_orthogonalize_is_a_projection_onto_the_tangent_complement():
    # idempotent, and what it removes is one combination of the two
    # tangents, in values and gradients alike
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    f = gaussian_bump_profile(grid, ps.n, 0.3, 1.1)
    once = orthogonalize(f, bub, ps)
    twice = orthogonalize(once, bub, ps)
    for a, b in ((once.values, twice.values), (once.grad_r, twice.grad_r)):
        assert np.max(np.abs(b - a)) <= 1e-12 * np.max(np.abs(a))
    removed = f - once
    amp, dil = tangent_basis(bub, ps, grid)
    span = np.column_stack([amp.values[:, 0], dil.values[:, 0]])
    coef = np.linalg.lstsq(span, removed.values[:, 0], rcond=None)[0]
    span_grad = np.column_stack([amp.grad_r[:, 0], dil.grad_r[:, 0]])
    for got, want in ((span @ coef, removed.values), (span_grad @ coef, removed.grad_r)):
        want = want[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_orthogonalize_guards():
    ps = derive_params(4, 2, 0.5, 0.5)
    grid = make_radial_grid(count=256)
    bub = canonical_bubble(ps)
    bump = gaussian_bump_profile(grid, ps.n, 0.3, 1.1)
    with pytest.raises(UnsupportedField):
        orthogonalize(modulated_axisym(bump, 8), bub, ps)
    with pytest.raises(MissingGradient):
        orthogonalize(Field.radial(grid, ps.n, bump.values[:, 0]), bub, ps)
    # the tangents of a zero-amplitude bubble vanish: the Gram matrix is singular
    with pytest.raises(ZeroField):
        orthogonalize(bump, Bubble(amplitude=0.0, scale=1.0), ps)


# small-sigma survey tuples: sigma below 0.1, amplitudes of order 1e-8 and 4e-4
SMALL_SIGMA_TUPLES = [
    (3, 1.945309798835695, 0.32439487481430185, 1.256188),
    (4, 2.523087181780399, 0.3124020431050102, 1.199743),
]


@pytest.mark.parametrize("tup", SMALL_SIGMA_TUPLES)
def test_normalization_small_sigma(tup):
    ps = derive_params(*tup)
    assert ps.sigma < 0.1
    bub = bubble_normalization(ps)
    assert math.isfinite(bub.amplitude) and bub.amplitude > 0.0
    prof = canonical_profile(ps, make_radial_grid(-60, 60, 1024))
    assert math.isfinite(moment_seed(prof, ps))


ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"


def _acceptance_tuples():
    tups = set()
    for path in ACCEPTANCE_DIR.glob("*.json"):
        cfg = json.loads(path.read_text())
        tups.update(tuple(t) for t in cfg.get("params", []))
        if "base" in cfg.get("options", {}):
            tups.add(tuple(cfg["options"]["base"]))
    return sorted(tups)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_aubin_talenti_amplitude(n):
    # p = 2, a = b = 0: the extremal (n(n-2))^((n-2)/4) (1 + r^2)^(-(n-2)/2)
    amp = bubble_normalization(derive_params(n, 2.0, 0.0, 0.0)).amplitude
    assert amp == pytest.approx((n * (n - 2.0)) ** ((n - 2.0) / 4.0), rel=1e-14)


@pytest.mark.parametrize("tup", _acceptance_tuples() + SMALL_SIGMA_TUPLES)
def test_unit_integrals_meet_sharp_constant(tup):
    # the Beta-function energies against the gamma-function S: two closed
    # forms; both sides amplify last-ulp errors in S and in the Beta values
    # by up to pq/(q-p), which is at most 10 on the acceptance tuples and
    # 36-44 on the small-sigma ones (1.1e-13 measured at the second)
    ps = derive_params(*tup)
    grad_unit, q_unit = manifold._unit_integrals(ps)
    amp = bubble_normalization(ps).amplitude
    expo = ps.p * ps.q / (ps.q - ps.p)
    target = sharp_constant(ps) ** expo
    rel = max(1e-13, 4e-15 * expo)
    assert amp**ps.p * grad_unit == pytest.approx(target, rel=rel)
    assert amp**ps.q * q_unit == pytest.approx(target, rel=rel)


def test_beta_and_digamma_match_reference(monkeypatch):
    from scipy.special import betaln, digamma

    # every argument the acceptance and small-sigma tuples pass them
    beta_args, digamma_args = [], []
    betaln_own, digamma_own = manifold._betaln, manifold._digamma
    monkeypatch.setattr(
        manifold, "_betaln", lambda a, b: beta_args.append((a, b)) or betaln_own(a, b)
    )
    monkeypatch.setattr(
        manifold, "_digamma", lambda x: digamma_args.append(x) or digamma_own(x)
    )
    for tup in _acceptance_tuples() + SMALL_SIGMA_TUPLES:
        ps = derive_params(*tup)
        manifold._unit_integrals(ps)
        manifold._reference_mean.__wrapped__(ps)
    assert len(beta_args) == len(digamma_args) > 0
    sweep = np.geomspace(0.1, 40.0, 41).tolist()
    beta_args += [(a, b) for a in sweep for b in sweep]
    # a + b past 170, where gamma overflows and the lgamma difference takes over
    large = [(100.0, 80.0), (150.5, 30.0), (300.0, 0.5), (1000.0, 2000.0)]
    for a, b in beta_args + large:
        want = float(betaln(a, b))
        assert abs(betaln_own(a, b) - want) <= 1e-14 * max(1.0, abs(want)), (a, b)
    for x in digamma_args + np.geomspace(0.1, 40.0, 401).tolist():
        want = float(digamma(x))
        assert abs(digamma_own(x) - want) <= 1e-14 * max(1.0, abs(want)), x
