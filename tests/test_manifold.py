"""Normalization, projection, representative selection, decomposition."""

import json
import math
import re
from dataclasses import replace
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cknlab.functionals import weighted_grad_pnorm, weighted_lq_norm
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
from cknlab.stability import GeneratorSpec, bubble_perturbation, family_samples

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
    # grad_psi None means a vanishing angular derivative: it projects as a
    # zero angular part does
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
    """(params, g, ang, records, w): u and the columns as the kernels take them.

    u carries a near bump and a far one at t = 45, which the bubbles
    cannot reach (the c04c setting); axisym modulates it in angle.  g is
    u's radial gradient and ang its angular part (grad_psi / r)^2, None
    for a radial u; g and w are per radial node without ang and per
    tensor node with it.  The columns, bubbles at log_lams and a bump at
    t = 45, hold one value per radial node; each comes as its _column
    record (h, pair, (h.h)_w).
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
    w = u.measure(ps.n - 1.0 - ps.p * ps.a)
    if axisym:
        g, ang = u.grad_r, (u.grad_psi / grid.nodes[:, None]) ** 2
    else:
        g, ang, w = u.grad_r[:, 0], None, w[:, 0]
    return ps, g, ang, [manifold._column(c.grad_r[:, 0], ang, w) for c in cols], w


def _slope_root(g, ang, h, w, p, lo, hi):
    """Zero of -p sum w |r|^(p-2) r h, r = g - A h, |r|^2 = r^2 + ang: bisection to 4 ulp."""
    hb = h if ang is None else h[:, None]
    ang = 0.0 if ang is None else ang

    def slope(amp):
        r = g - amp * hb
        mag = np.sqrt(r * r + ang)
        flux = np.power(mag, p - 2.0, out=np.zeros_like(mag), where=mag > 0.0)
        return -p * np.sum(w * flux * r * hb)

    assert slope(lo) < 0.0 < slope(hi)
    while hi - lo > 4.0 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _counted_slopes(monkeypatch):
    """The list that grows by one at each _slope_curv call."""
    calls = []
    slope_curv = manifold._slope_curv

    def counted(*args):
        calls.append(1)
        return slope_curv(*args)

    monkeypatch.setattr(manifold, "_slope_curv", counted)
    return calls


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_batched_amplitudes_match_scalar_solve(tup, axisym):
    # every column of the stack against the slope root itself: the kernel's
    # stopping test is referred to its current iterate, so it may not stop
    # short on the far bump
    ps, g, ang, cols, w = _kernel_problem(tup, axisym)
    assert (ang is not None) == axisym
    for k, col in enumerate(cols):
        got = manifold._amplitude_newton(g, ang, col, w, ps.p)[0]
        want = _slope_root(g, ang, col[0], w, ps.p, 0.5 * got, 2.0 * got)
        assert got == pytest.approx(want, rel=1e-12), k


def test_kernel_restart_moves_no_amplitude():
    # the far-bump problem whose p = 2 start is 3.3e8 against answers of 45-76
    ps, g, ang, cols, w = _kernel_problem((4, 2.5, 0.2, 0.5), False)
    for k, col in enumerate(cols):
        cold = manifold._amplitude_newton(g, ang, col, w, ps.p)[0]
        warm = manifold._amplitude_newton(g, ang, col, w, ps.p, start=cold)[0]
        assert abs(warm / cold - 1.0) <= 1e-10, k


def test_batched_amplitude_step_cap_raises(monkeypatch):
    ps, g, ang, cols, w = _kernel_problem((4, 3.0, 0.1, 0.1), False)
    monkeypatch.setattr(manifold, "AMPLITUDE_MAX_STEPS", 1)
    for col in cols:
        with pytest.raises(OptimizerStall, match="open after 1 steps"):
            manifold._amplitude_newton(g, ang, col, w, ps.p)


def test_batched_amplitude_non_finite_slope_raises():
    ps, g, ang, cols, w = _kernel_problem((4, 2.5, 0.2, 0.5), False)
    with np.errstate(all="ignore"):
        with pytest.raises(OptimizerStall, match="non-finite amplitude slope"):
            manifold._amplitude_newton(g, ang, cols[1], w, ps.p, start=np.inf)


@pytest.mark.parametrize("axisym", [False, True])
def test_amplitude_zero_curvature_returns_the_start(monkeypatch, axisym):
    # g = 2 h at p = 3 with no angular part: the residual, and with it the
    # curvature, vanishes wherever h does not, so the closed-form start is
    # the answer
    ps, _, ang, cols, w = _kernel_problem((4, 3.0, 0.1, 0.1), axisym)
    h = cols[0][0]
    g = 2.0 * h if ang is None else np.outer(2.0 * h, np.ones(w.shape[1]))
    ang = None if ang is None else np.zeros_like(ang)
    calls = _counted_slopes(monkeypatch)
    with np.errstate(all="raise"):
        assert manifold._amplitude_newton(g, ang, cols[0], w, ps.p)[0] == 2.0
    assert len(calls) == 1


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_warm_started_amplitudes_match_cold_solve(tup, axisym):
    # the stopping test is taken at the iterate, so no start, however far,
    # stops short; the bump column, which u holds exactly, converges only
    # linearly at p > 2 but still reaches the same test
    ps, g, ang, cols, w = _kernel_problem(tup, axisym)
    for k, col in enumerate(cols):
        answer = manifold._amplitude_newton(g, ang, col, w, ps.p)[0]
        for factor in (1.001, 10.0, -1.0, 0.0):
            warm = manifold._amplitude_newton(g, ang, col, w, ps.p, start=factor * answer)
            assert warm[0] == pytest.approx(answer, rel=1e-12), (k, factor)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_one_component_slopes_match_generic_path(p):
    # the radial branch against the angular one with a zero angular part
    tup = next(t for t in KERNEL_TUPLES if t[1] == p)
    ps, g, ang, cols, w = _kernel_problem(tup, False)
    amps = [0.9 * manifold._amplitude_newton(g, ang, col, w, p)[0] for col in cols]
    # a column equal to g on the inner half: at amplitude 1 the residual,
    # and with it the flux, vanishes there
    inner = np.arange(len(g)) < len(g) // 2
    cols.append(manifold._column(np.where(inner, g, 0.5 * g), None, w))
    amps.append(1.0)
    # the same problem on one angular node, ang = 0
    zero = np.zeros((len(g), 1))
    for col, amp in zip(cols, amps):
        one_node = manifold._column(col[0], zero, w[:, None])
        radial = manifold._slope_curv(g, None, col, w, p, amp)
        angular = manifold._slope_curv(g[:, None], zero, one_node, w[:, None], p, amp)
        for got, want in zip(radial[:2], angular[:2]):
            assert got == pytest.approx(want, rel=1e-13)
        assert radial[2]() == pytest.approx(angular[2](), rel=1e-13)


@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_radial_dilation_derivs_match_one_angular_node(tup):
    # the radial rows against the angular ones with a zero angular part, for
    # each bubble column at its own dilation (the bump column has none)
    ps, g, ang, cols, w = _kernel_problem(tup, False)
    r_sig = make_radial_grid(-30, 60, 1024).nodes ** ps.sigma
    zero = np.zeros((len(g), 1))
    for t, col in zip(KERNEL_LOG_LAMS, cols):
        y = math.exp(t) ** ps.sigma * r_sig
        amp = manifold._amplitude_newton(g, ang, col, w, ps.p)[0]
        rest = ps.p, amp, ps.sigma, ps.bubble_m
        one_node = manifold._column(col[0], zero, w[:, None])
        radial = manifold._dilation_derivs(g, None, col, y, w, *rest)
        angular = manifold._dilation_derivs(g[:, None], zero, one_node, y, w[:, None], *rest)
        for got, want in zip(radial, angular):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


def test_warm_start_saves_far_bump_slope_evaluations(monkeypatch):
    # c04c's tuple; the neighbour sits one Brent-sized step away
    t = math.log(1.3)
    problem = _kernel_problem((4, 2.5, 0.2, 0.5), False, (t, t + 0.01))
    ps, g, ang, (col_near, col, _), w = problem
    near = manifold._amplitude_newton(g, ang, col_near, w, ps.p)[0]
    calls = _counted_slopes(monkeypatch)
    manifold._amplitude_newton(g, ang, col, w, ps.p)
    cold = len(calls)
    calls.clear()
    manifold._amplitude_newton(g, ang, col, w, ps.p, start=near)
    assert len(calls) < cold


def _visited(monkeypatch):
    """The list of the log lams the dilation search asks for, in order."""
    visited = []
    search = manifold._best_first_min

    def spied(lattice, point, seed):
        def lattice_spy(k0):
            solve = lattice(k0)

            def solve_spy(i):
                visited.append((k0 + i) / 2.0)
                return solve(i)

            return solve_spy

        def point_spy(t):
            visited.append(t)
            return point(t)

        return search(lattice_spy, point_spy, seed)

    monkeypatch.setattr(manifold, "_best_first_min", spied)
    return visited


def _held_start(held, t):
    """The start of a solve at t: the nearest held solves on either side."""
    below = max((s for s in held if s < t), default=None)
    above = min((s for s in held if s > t), default=None)
    if below is None or above is None:
        near = above if below is None else below
        return None if near is None else held[near]
    a1, a2 = held[below], held[above]
    return a1 * (a1 / a2) ** ((t - below) / (below - above)) if a1 * a2 > 0.0 else a1


@pytest.mark.parametrize(
    "tup,window",
    [((4, 2.5, 0.2, 0.5), (-30, 30, 2048)), ((4, 3.0, 0.1, 0.1), (-60, 60, 3072))],
)
def test_chained_scan_matches_cold_solves(monkeypatch, tup, window):
    # the solves of the projection of a c04a/c04b sample, lattice points in
    # best-first order, then Newton points: the first starts cold, every
    # later one from the geometric interpolation between the nearest held
    # solves on either side, or from the one there is on one side only;
    # each must land where a cold solve lands, with the residual energy, and
    # the chained starts take fewer slope evaluations than cold starts
    ps = derive_params(*tup)
    u = bubble_perturbation(ps, make_radial_grid(*window), 1.0, 1.0)(0.05)
    visited = _visited(monkeypatch)
    calls = _counted_slopes(monkeypatch)
    solves = []
    solve = manifold._amplitude_newton

    def recorded(g, ang, col, w, p, start=None):
        before = len(calls)
        result = solve(g, ang, col, w, p, start)
        solves.append((g, ang, col, w, start, result, len(calls) - before))
        return result

    monkeypatch.setattr(manifold, "_amplitude_newton", recorded)
    manifold_distance(u, ps)
    order = list(dict.fromkeys(visited))
    assert len(solves) == len(order) > 2
    chained = sum(n for *_, n in solves)
    calls.clear()
    held = {}
    for t, (g, ang, col, w, start, (amp, energy, _), _) in zip(order, solves):
        assert start == _held_start(held, t), t
        held[t] = amp
        assert amp == pytest.approx(solve(g, ang, col, w, ps.p)[0], rel=1e-12), t
        r = g - amp * col[0]
        assert energy == pytest.approx((r * r) ** (ps.p / 2.0) @ w, rel=1e-13), t
    assert chained < len(calls)


def _c04a_sample():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    return ps, bubble_perturbation(ps, make_radial_grid(-30, 30, 2048), 1.0, 1.0)(0.05)


def _recorded_starts(monkeypatch):
    """The list of the starts _amplitude_newton is called with."""
    starts = []
    solve = manifold._amplitude_newton

    def recorded(g, ang, col, w, p, start=None):
        starts.append(start)
        return solve(g, ang, col, w, p, start)

    monkeypatch.setattr(manifold, "_amplitude_newton", recorded)
    return starts


@pytest.mark.parametrize("t", [0.3, -1.85, 0.125])
def test_off_lattice_start_interpolates_its_lattice_neighbours(monkeypatch, t):
    # a Newton point t between the lattice points t1 < t < t2 starts from
    # a1 (a1/a2)^((t - t1)/(t1 - t2)) = a1^(1-s) a2^s, s = 2 (t - t1);
    # without them, from the closed form
    ps, u = _c04a_sample()
    t1 = math.floor(2.0 * t) / 2.0
    t2 = t1 + 0.5
    _, _, amplitude, _ = manifold._distance_search(u, ps)
    amplitude(t1)
    amplitude(t2)
    starts = _recorded_starts(monkeypatch)
    amplitude(t)
    a1, a2 = amplitude(t1)[3], amplitude(t2)[3]
    assert starts == [a1 * (a1 / a2) ** ((t - t1) / (t1 - t2))]
    s = 2.0 * (t - t1)
    assert starts[0] == pytest.approx(a1 ** (1.0 - s) * a2**s, rel=1e-14)
    manifold._distance_search(u, ps)[2](t)
    assert starts[1:] == [None]


def test_held_solves_are_returned_unchanged(monkeypatch):
    # after the window's solves, a window point's slope and a repeated
    # amplitude make no solve and return the held tuple itself; so does an
    # off-lattice point
    ps, u = _c04a_sample()
    lattice, point, amplitude, _ = manifold._distance_search(u, ps)
    k0 = round(2.0 * moment_seed(u, ps)) - 16
    solve = lattice(k0)
    for i in range(33):
        solve(i)
    x = [(k0 + i) / 2.0 for i in range(33)]
    ts = x + [x[16] + 0.1]
    held = [amplitude(t) for t in ts]
    starts = _recorded_starts(monkeypatch)
    for t, want in zip(ts, held):
        point(t)
        assert amplitude(t) is want, t
    assert starts == []


def test_projection_solves_each_dilation_once(monkeypatch):
    # a c04a sample: Newton's first point is a lattice point and the
    # certificate reads the last one, yet each log lam the search visits is
    # solved once
    ps, u = _c04a_sample()
    visited = _visited(monkeypatch)
    starts = _recorded_starts(monkeypatch)
    manifold_distance(u, ps)
    assert len(visited) > len(set(visited))
    assert len(starts) == len(set(visited))


def test_best_first_solves_only_what_its_bounds_leave_open():
    # exact bounds leave the seed's point and the two tied minima at +-2.5,
    # no bounds every point; either way Newton runs once, in the bracket of
    # a tied minimum, and lands on the minimum of f
    def f(t):
        return (t - 2.3) ** 2 * (t + 2.3) ** 2

    def point(t):
        return f(t), 4.0 * t * (t * t - 2.3**2), 12.0 * t * t - 4.0 * 2.3**2, 1e-12

    search = manifold._newton
    for exact, want in ((True, 3), (False, 33)):
        solved, brackets = [], []

        def lattice(k0):
            x = np.arange(k0, k0 + 33) / 2.0

            def solve(i):
                solved.append(i)
                return f(x[i]), f(x) if exact else np.full(33, np.nan)

            return solve

        def newton(point, lo, t, hi):
            brackets.append((lo, t, hi))
            return search(point, lo, t, hi)

        with mock.patch.object(manifold, "_newton", newton):
            val, t = manifold._best_first_min(lattice, point, 0.1)
        assert len(solved) == len(set(solved)) == want
        assert solved[0] == 16 and {11, 21} <= set(solved)
        assert brackets == [(-3.0, -2.5, -2.0)] or brackets == [(2.0, 2.5, 3.0)]
        assert abs(abs(t) - 2.3) <= 1e-12 and val <= 1e-20


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_dual_bounds_never_exceed_the_lattice_distances(p, axisym):
    # weak duality: for any unit J in L^p', |<grad u, J> - c_t <grad u, psi_t>|
    # / (1 + |c_t|) is at most d(t) at every lattice point, up to rounding;
    # J from a solve's residual gives that solve's own d(s) back, to 1e-12
    ps, u = _slope_field(p, "axisym" if axisym else "radial")
    lattice, _, amplitude, w = manifold._distance_search(u, ps)
    k0 = round(2.0 * moment_seed(u, ps)) - 16
    solve = lattice(k0)
    ts = [(k0 + i) / 2.0 for i in range(33)]
    dist_sq = np.array([amplitude(t)[4] ** (2.0 / p) for t in ts])
    (h, norm, _), = _blocks(u.grid)
    # per tensor node (one angular node for a radial u): weights, the
    # gradient's radial and angular parts, and the unit columns' duals
    w = u.measure(ps.n - 1.0 - p * ps.a)
    g = u.grad_r
    side = np.zeros_like(g) if u.grad_psi is None else u.grad_psi / u.grid.nodes[:, None]
    unit = (h / norm[:, None])[:, :, None]
    dual_psi = np.sum(w * g * np.sign(unit) * np.abs(unit) ** (p - 1.0), axis=(1, 2))
    rng = np.random.default_rng(5)
    q = p / (p - 1.0)
    for i in (16, 10, 24):
        _, bounds = solve(i)
        assert np.all(bounds <= dist_sq * (1.0 + 1e-12)), i
        assert bounds[i] == pytest.approx(dist_sq[i], rel=1e-12), i
        # the dual of the solve's residual, then random fields near it and far
        r = g - amplitude(ts[i])[3] * h[i][:, None]
        mag = np.sqrt(r * r + side * side)
        for scale in (0.0, 0.1, 1.0, 1e3):
            jr = mag ** (p - 2.0) * r + scale * rng.standard_normal(r.shape)
            ja = mag ** (p - 2.0) * side + scale * rng.standard_normal(r.shape) * axisym
            size = np.sum(w * (jr * jr + ja * ja) ** (q / 2.0)) ** (1.0 / q)
            jr, ja = jr / size, ja / size
            dual_u = np.sum(w * (g * jr + side * ja))
            c = np.sum(w * unit * jr, axis=(1, 2))
            got = manifold._dual_bounds(dual_u, c, dual_psi)
            assert np.all(got <= dist_sq * (1.0 + 1e-12)), (i, scale)
            if scale == 0.0:
                assert got[i] == pytest.approx(dist_sq[i], rel=1e-12), i


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1.5, 2.0, 2.5, 3.0]),
    st.floats(-2.0, 2.0),
    st.floats(0.01, 1.0),
    st.floats(-6.0, 6.0),
    st.floats(0.5, 2.0),
)
def test_best_first_minimum_is_the_dense_scan_minimum(p, log_lam, eps, center, width):
    # bubble-plus-bump fields: the search's lattice minimum is the dense
    # 33-point scan's, point and value, and an end of the window stalls
    ps = derive_params(*SLOPE_TUPLES[p][0])
    grid = make_radial_grid(-25, 25, 512)
    u = canonical_profile(ps, grid, math.exp(log_lam)) + eps * gaussian_bump_profile(
        grid, ps.n, center, width
    )
    x = ((np.arange(-16, 17) + round(2.0 * moment_seed(u, ps))) / 2.0).tolist()
    _, _, amplitude, _ = manifold._distance_search(u, ps)
    dense = [amplitude(t)[4] ** (2.0 / p) for t in x]
    best = min(dense)
    want = min(
        (i for i, v in enumerate(dense) if v - best <= manifold.TIE_RTOL * best),
        key=lambda i: abs(x[i]),
    )
    lattice, point, _, _ = manifold._distance_search(u, ps)

    def at_lattice(point, lo, t, hi):
        return point(t)[0], t

    with mock.patch.object(manifold, "_newton", at_lattice):
        if want in (0, 32):
            with pytest.raises(OptimizerStall, match="no interior minimum"):
                manifold._best_first_min(lattice, point, moment_seed(u, ps))
            return
        val, t = manifold._best_first_min(lattice, point, moment_seed(u, ps))
    assert t == x[want]
    assert val == pytest.approx(dense[want], rel=1e-12)


def test_c04_samples_solve_few_lattice_points(monkeypatch):
    # the c04a and c04b samples: at most 3 lattice solves per sample on
    # average, against the window's 33
    solves = []
    search = manifold._best_first_min

    def spied(lattice, point, seed):
        def lattice_spy(k0):
            solve = lattice(k0)
            solves.append(0)

            def solve_spy(i):
                solves[-1] += 1
                return solve(i)

            return solve_spy

        return search(lattice_spy, point, seed)

    monkeypatch.setattr(manifold, "_best_first_min", spied)
    for name in ("c04a_scan", "c04b_scan_equal_weights"):
        cfg = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text())
        spec = GeneratorSpec(
            cfg["family"]["name"], cfg["family"]["seed"], tuple(cfg["family"]["options"]["window"])
        )
        for tup in cfg["params"]:
            ps = derive_params(*tup)
            for u in family_samples(spec, ps, cfg["options"]["samples"]):
                manifold_distance(u, ps)
    assert len(solves) == 90
    assert np.mean(solves) <= 3.0


@pytest.mark.parametrize("axisym", [False, True])
@pytest.mark.parametrize("tup", KERNEL_TUPLES)
def test_amplitude_energy_is_the_residual_energy(tup, axisym):
    # E and the slope row come from the last slope evaluation (at p = 2
    # from the closed form), which is always at the returned amplitude
    ps, g, ang, cols, w = _kernel_problem(tup, axisym)
    for k, col in enumerate(cols):
        cold = manifold._amplitude_newton(g, ang, col, w, ps.p)[0]
        for start in (None, 0.9 * cold):
            amp, energy, s = manifold._amplitude_newton(g, ang, col, w, ps.p, start)
            h = col[0]
            row = manifold._residual_rows(g, ang, h, w, ps.p, amp)[0]
            assert np.array_equal(s, row), (k, start)
            r = g - amp * (h if ang is None else h[:, None])
            if ang is None:
                want = (r * r) ** (ps.p / 2.0) @ w
            else:
                want = np.sum(w * (r * r + ang) ** (ps.p / 2.0))
            assert energy == pytest.approx(want, rel=1e-13), (k, start)


@pytest.mark.parametrize("tup", [(3, 2, 0, 0), (4, 2.0, 0.5, 0.5)])
def test_p2_energy_is_the_residual_rows_energy(tup):
    # the radial p = 2 closed form sums ((g - A h)^2).w and returns r as
    # its slope row: the flux is exactly 1 wherever r is not 0, so these are
    # _residual_rows' sum and row, bit for bit
    ps, g, _, cols, w = _kernel_problem(tup, False)
    for k, col in enumerate(cols):
        amp, energy, s = manifold._amplitude_newton(g, None, col, w, 2.0)
        row, _, want = manifold._residual_rows(g, None, col[0], w, 2.0, amp)
        assert energy == want(), k
        assert np.array_equal(s, row), k


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-40.0, 40.0), st.integers(-80, 80).map(lambda k: k / 4.0)))
def test_scan_points_are_the_lattice_nearest_the_seed(seed):
    # 33 half-integers k/2 around the one nearest the seed: the window covers
    # seed +- 7.75 and stays within seed +- 8.25
    x = manifold._scan_window(seed)
    assert len(x) == 33
    k = 2.0 * x
    assert np.array_equal(k, np.round(k))
    assert np.array_equal(np.diff(k), np.ones(32))
    assert abs(x[16] - seed) <= 0.25
    assert x[0] <= seed - 7.75 and x[-1] >= seed + 7.75
    assert x[0] >= seed - 8.25 and x[-1] <= seed + 8.25
    # a seed in the same lattice cell scans the same points
    if abs(x[16] - seed) < 0.25:
        assert np.array_equal(manifold._scan_window(0.5 * (seed + x[16])), x)


@pytest.mark.parametrize("seed", [math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("search", ["manifold_distance", "select_Pu"])
def test_non_finite_seed_raises_a_typed_stall(monkeypatch, search, seed):
    # round() would raise an untyped ValueError or OverflowError
    ps, u = _perturbed_p25()
    monkeypatch.setattr(manifold, "moment_seed", lambda f, ps: seed)
    with pytest.raises(OptimizerStall, match=re.escape(f"dilation seed {seed!r}")):
        getattr(manifold, search)(u, ps)


def _blocks(grid):
    return [v for k, v in grid._memo.items() if k[0] == "lattice block"]


@pytest.mark.parametrize("axisym", [False, True])
def test_lattice_column_is_the_fresh_build(axisym):
    # the window's columns come from the grid's memo, one read-only block:
    # bit for bit the column built at each point, with its p-norm and dual
    # row; a window point's record is built on its row, a grid of the same
    # window holds its own block, and an off-lattice point is built afresh
    ps = derive_params(4, 2.5, 0.2, 0.5)

    def search(grid):
        u = bubble_perturbation(ps, grid, 1.0, 1.0)(0.05)
        if axisym:
            u = modulated_axisym(u, psi_count=8)
        return manifold._distance_search(u, ps)

    grid = make_radial_grid(-30, 30, 1024)
    lattice, _, amplitude, w = search(grid)
    lattice(-6)
    other_lattice, _, other, _ = search(make_radial_grid(-30, 30, 1024))
    other_lattice(-6)
    (block,) = _blocks(grid)
    h_block, norm, psi = block
    assert not any(a.flags.writeable for a in block)
    r = grid.nodes
    w_radial = w if w.ndim == 1 else np.sum(w, axis=1)
    for i in range(33):
        t = (i - 6) / 2.0
        b_coeff = math.exp(t) ** ps.sigma
        want = (1.0 + b_coeff * r**ps.sigma) ** (-ps.bubble_m - 1.0)
        want *= -ps.bubble_m * ps.sigma * r ** (ps.sigma - 1.0) * b_coeff
        assert np.array_equal(h_block[i], want), t
        want_norm = float(np.abs(want) ** ps.p @ w_radial) ** (1.0 / ps.p)
        assert norm[i] == pytest.approx(want_norm, rel=1e-13), t
        want_psi = np.sign(want) * (np.abs(want) / want_norm) ** (ps.p - 1.0)
        assert np.allclose(psi[i], want_psi, rtol=1e-13, atol=0.0), t
        col = amplitude(t)[2]
        assert col[0].base is h_block
        for got, want_part in zip(col, manifold._column(want, 0.0 if axisym else None, w)):
            assert np.array_equal(got, want_part), t
        h_other = other(t)[2][0]
        assert h_other.base is not h_block and np.array_equal(h_other, col[0]), t
    amplitude(0.3)
    assert len(_blocks(grid)) == 1


def test_lattice_block_is_keyed_by_the_angular_weights():
    # ||h||_p sums u's angular weights: two axisymmetric fields on one grid
    # whose weights differ in their sum each get their own block, and their
    # own exact p = 2 amplitude (g.h)_w / (h.h)_w
    ps = derive_params(4, 2.0, 0.5, 0.5)
    grid = make_radial_grid(-30, 30, 1024)
    u = modulated_axisym(bubble_perturbation(ps, grid, 1.0, 1.0)(0.05), psi_count=8)
    v = replace(u, psi_weights=u.psi_weights * np.linspace(0.5, 2.0, 8))
    assert np.sum(v.psi_weights) != np.sum(u.psi_weights)
    amps = []
    for f in (u, v):
        lattice, _, amplitude, w = manifold._distance_search(f, ps)
        lattice(-20)
        norm = _blocks(grid)[-1][1]
        for i in range(33):
            g, _, (h, _, hh), amp, _, _ = amplitude((i - 20) / 2.0)
            assert hh == float(np.sum(w * h[:, None], axis=1) @ h), i
            assert amp == float(np.sum(w * g, axis=1) @ h) / hh, i
            assert norm[i] == pytest.approx(hh**0.5, rel=1e-13), i
            amps.append(amp)
    assert len(_blocks(grid)) == 2
    assert amps[:33] != amps[33:]


def test_canonical_profile_is_the_grid_memo():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-20.0, 20.0, 256)
    v = canonical_profile(ps, grid, 1.3)
    fresh = sample_bubble(ps, canonical_bubble(ps, 1.3), make_radial_grid(-20.0, 20.0, 256))
    assert np.array_equal(v.values, fresh.values)
    assert np.array_equal(v.grad_r, fresh.grad_r)
    assert canonical_profile(ps, grid, 1.3).values.base is v.values.base
    assert not (v.values.flags.writeable or v.grad_r.flags.writeable)
    # arithmetic makes new arrays; only in-place writes are refused
    assert np.array_equal((2.0 * v).values, 2.0 * fresh.values)
    with pytest.raises(ValueError):
        v.values *= 2.0


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
    _, point, amplitude, _ = manifold._distance_search(u, ps)
    t = math.log(1.3) + 0.2
    f = _check_slopes(point, t)
    assert f == pytest.approx(amplitude(t)[4] ** (2.0 / ps.p), rel=1e-12)


@pytest.mark.parametrize("kind", ["radial", "axisym", "shifted"])
@pytest.mark.parametrize("p", sorted(SLOPE_TUPLES))
def test_pairing_slopes_match_central_differences(p, kind):
    ps, u = _slope_field(p, kind)
    lattice, point = manifold._pairing_search(u, ps)
    t = math.log(1.3) + 0.2
    f = _check_slopes(point, t)
    bub = canonical_bubble(ps, math.exp(t))
    want = manifold._q_pairing(u, sample_bubble(ps, bub, u.grid), ps)
    assert f == pytest.approx(-want, rel=1e-12)
    # the window's 33 values are one array call; each point alone, and the
    # field's own q-pairing there, are the references
    k0 = round(2.0 * t) - 16
    solve = lattice(k0)
    for i in range(33):
        s = (k0 + i) / 2.0
        value = solve(i)[0]
        assert value == pytest.approx(point(s)[0], rel=1e-13), s
        v = sample_bubble(ps, canonical_bubble(ps, math.exp(s)), u.grid)
        assert value == pytest.approx(-manifold._q_pairing(u, v, ps), rel=1e-12), s


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
    ps = derive_params(5, 3.0, 0.3, 0.5)
    grid = make_radial_grid(-30, 30, count)
    for eps in np.logspace(-3, -1, 7):
        u = bubble_perturbation(ps, grid, 0.5, 0.7)(float(eps))
        bub = select_Pu(u, ps)
        _, d1, _, tol = manifold._pairing_search(u, ps)[1](math.log(bub.scale))
        assert abs(d1) <= tol, eps
        # a rounding-level change of u no longer moves the dilation off its
        # plateau (Brent's moved c07's N by up to 7e-6 relative)
        again = select_Pu((1.0 + 3e-15) * u, ps)
        assert again.scale == pytest.approx(bub.scale, rel=1e-12), eps


@pytest.mark.parametrize("near,weight,far", [(-3.0, 0.8, 3.0), (-4.0, 1.1, 1.5)])
def test_select_pu_keeps_the_global_pairing_maximum(near, weight, far):
    # V_near + weight V_far: the pairing has an interior maximum near each
    # bubble's dilation; the representative is in the bracket of the dense
    # scan's global maximum, and its slope is on its rounding bound
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-30, 30, 2048)
    u = canonical_profile(ps, grid, math.exp(near))
    u = u + weight * canonical_profile(ps, grid, math.exp(far))
    point = manifold._pairing_search(u, ps)[1]
    ts = np.linspace(-12.0, 12.0, 24 * 64 + 1)
    f = np.array([point(t)[0] for t in ts])
    interior = [i for i in range(1, len(f) - 1) if f[i] < f[i - 1] and f[i] < f[i + 1]]
    assert len(interior) == 2
    i = int(np.argmin(f))
    t = math.log(select_Pu(u, ps).scale)
    assert ts[i - 1] < t < ts[i + 1]
    _, d1, _, tol = point(t)
    assert abs(d1) <= tol


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_distance_axisym_weighted_matches_nelder_mead(p):
    # a > 0: no shift, but the angular gradient enters the distance
    ps = derive_params(*next(t for t in KERNEL_TUPLES if t[1] == p))
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


@pytest.mark.parametrize("search", [manifold_distance, select_Pu])
def test_certificate_unbracketed_scan_raises(monkeypatch, search):
    # seeded 20 away, the scan window [12, 28] ends before the minimum
    ps, u = _perturbed_p25()
    seed = manifold.moment_seed
    monkeypatch.setattr(manifold, "moment_seed", lambda f, ps: seed(f, ps) + 20.0)
    window = re.escape("no interior minimum in the scan window [12, 28]")
    with pytest.raises(OptimizerStall, match=window):
        search(u, ps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
@pytest.mark.parametrize("tup", [(3, 2, 0, 0), (4, 2, 0.2, 0.4)])
def test_non_finite_gradient_raises_a_typed_stall(tup, bad):
    # one bad gradient node makes the p = 2 energy non-finite at every
    # dilation, which no lattice minimum can be taken over
    ps = derive_params(*tup)
    v = canonical_profile(ps, make_radial_grid(-30, 30, 1024))
    grads = v.grad_r[:, 0].copy()
    grads[500] = bad
    u = Field.radial(v.grid, ps.n, v.values[:, 0], grads)
    with np.errstate(all="ignore"):
        with pytest.raises(OptimizerStall, match="non-finite search value at log lam"):
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
    # an amplitude solver that never moves, started at the p = 2 projection
    # instead of the kernel's amplitude, leaves that projection, which misses
    # the p = 2.5 first-order condition
    def stuck(fun, x0, **kwargs):
        x = np.asarray(x0, dtype=float)
        return OptimizeResult(x=x, fun=fun(x)[0], nfev=1, nit=0, success=False)

    def from_p2(g, ang, col, w, p, start):
        return solve(g, ang, col, w, p, manifold._amplitude_newton(g, ang, col, w, 2.0)[0])

    ps, u = _perturbed_p25()
    solve = manifold._profiled_amplitude
    monkeypatch.setattr(manifold, "minimize", stuck)
    monkeypatch.setattr(manifold, "_profiled_amplitude", from_p2)
    with pytest.raises(OptimizerStall, match="first-order residual"):
        manifold_distance(u, ps)


def test_certified_amplitude_starts_from_kernel(monkeypatch):
    # a c04a sample at p = 2.5: the trust-region solve starts at the
    # kernel's amplitude at the chosen dilation, the search's held solve
    # there, and has nothing to polish, where a start at the p = 2
    # projection needs several iterations
    ps, u = _c04a_sample()
    kernel, starts, solves = [], [], []
    newton, scalar = manifold._amplitude_newton, manifold._profiled_amplitude

    def spied_newton(g, ang, col, w, p, start=None):
        kernel.append((col, newton(g, ang, col, w, p, start)))
        return kernel[-1][1]

    def spied_scalar(g, ang, col, w, p, start):
        starts.append((col, start))
        return scalar(g, ang, col, w, p, start)

    def spied_minimize(fun, x0, **kwargs):
        solves.append((np.array(x0, dtype=float), minimize(fun, x0, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(manifold, "_amplitude_newton", spied_newton)
    monkeypatch.setattr(manifold, "_profiled_amplitude", spied_scalar)
    monkeypatch.setattr(manifold, "minimize", spied_minimize)
    _, bub = manifold_distance(u, ps)
    (x0, res), = solves
    (col, start), = starts
    # the one solve made with that record
    assert [amp for c, (amp, *_) in kernel if c is col] == [start]
    # x0 is the start over its own magnitude
    assert x0[0] * abs(start) == start
    assert res.nit <= 1
    assert bub.amplitude == pytest.approx(start, rel=1e-12)

    # the same solve from the p = 2 projection
    _, _, amplitude, w = manifold._distance_search(u, ps)
    g, ang, col, *_ = amplitude(math.log(bub.scale))
    solves.clear()
    cold = scalar(g, ang, col, w, ps.p, manifold._amplitude_newton(g, ang, col, w, 2.0)[0])
    assert solves[0][1].nit > 1
    assert cold == pytest.approx(bub.amplitude, rel=1e-12)


@pytest.mark.parametrize("axisym", [False, True])
def test_p2_distance_is_the_kernel_closed_form(monkeypatch, axisym):
    # at p = 2 the kernel's closed form is the projection: no polish, and
    # the distance is the kernel's E^(1/2) at the returned bubble
    ps = derive_params(4, 2.0, 0.5, 0.5)
    u = bubble_perturbation(ps, make_radial_grid(-30, 30, 1024), 1.0, 1.0)(0.05)
    if axisym:
        u = modulated_axisym(u, psi_count=8)
    polished = []
    monkeypatch.setattr(manifold, "_profiled_amplitude", lambda *args: polished.append(args))
    dist, bub = manifold_distance(u, ps)
    assert polished == []
    _, _, amplitude, _ = manifold._distance_search(u, ps)
    _, _, _, amp, energy, _ = amplitude(math.log(bub.scale))
    assert bub.amplitude == amp
    assert dist == energy ** 0.5


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
