"""Grids, bubbles, axisymmetric sampling, and Field arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, roots_jacobi

from cknlab import (
    BadGridSpec,
    GridMismatch,
    InvalidArgument,
    MissingGradient,
    derive_params,
)
from cknlab.fields import (
    Bubble,
    Field,
    _gauss_jacobi,
    bubble_evaluator,
    bubble_second_derivative,
    gaussian_bump_profile,
    make_psi_grid,
    make_radial_grid,
    modulated_axisym,
    sample_bubble,
    scaled_grid,
)
from cknlab.functionals import weighted_lq_norm
from cknlab.transforms import transform_identity_check


def _fd_derivative(grid, values):
    """Second-order finite-difference d(values)/dr on the non-uniform grid.

    Centred three-point stencil in t = log r inside, one-sided at the
    two ends, then divided by r.
    """
    t = grid.log_nodes
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    out[1:-1] = (
        h1**2 * v[2:] - h2**2 * v[:-2] - (h1**2 - h2**2) * v[1:-1]
    ) / (h1 * h2 * (h1 + h2))
    # one-sided quadratic at the ends
    for idx, sl in ((0, slice(0, 3)), (-1, slice(-3, None))):
        ts, vs = t[sl], v[sl]
        c = np.polyfit(ts - t[idx], vs, 2)
        out[idx] = c[1]
    return out / grid.nodes


def sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def test_grid_gamma_integral():
    g = make_radial_grid(-20, 20, 512)
    val = float(np.sum(g.weights * g.nodes**2 * np.exp(-g.nodes)))
    assert val == pytest.approx(2.0, abs=1e-10)


def test_grid_doubling_error_ratio():
    def err(count):
        g = make_radial_grid(-20, 20, count)
        return abs(float(np.sum(g.weights * g.nodes**2 * np.exp(-g.nodes))) - 2.0)

    assert err(512) / max(err(1024), 1e-300) >= 4.0


@pytest.mark.parametrize("tmin,tmax,count", [(0, -1, 64), (0, 0, 64), (-5, 5, 8)])
def test_bad_grid_specs(tmin, tmax, count):
    with pytest.raises(BadGridSpec):
        make_radial_grid(tmin, tmax, count)


def test_grid_count_rounds_up():
    g = make_radial_grid(-5, 5, 17)
    assert g.count == 24
    assert len(g.nodes) == 24


@given(
    st.floats(min_value=-40, max_value=-1),
    st.floats(min_value=1, max_value=40),
    st.integers(min_value=16, max_value=512),
)
@settings(max_examples=60, deadline=None)
def test_grid_invariants(tmin, tmax, count):
    g = make_radial_grid(tmin, tmax, count)
    assert np.all(np.diff(g.log_nodes) > 0)
    assert np.all(g.weights > 0)
    assert np.all(g.t_weights > 0)
    assert g.count % 8 == 0
    # t-weights integrate the window length
    assert float(np.sum(g.t_weights)) == pytest.approx(tmax - tmin, rel=1e-12)


def test_scaled_grid_node_for_node():
    g = make_radial_grid(-12, 12, 64)
    s = scaled_grid(g, 0.5)
    assert np.array_equal(s.log_nodes, g.log_nodes * 0.5)
    assert s.count == g.count


def test_psi_grid_sphere_area():
    for n in (2, 3, 4, 5, 7):
        _, w = make_psi_grid(n, 64)
        assert float(np.sum(w)) == pytest.approx(sphere_area(n), rel=1e-10)
    # moments: integral of cos^2j psi over S^(n-1) is |S^(n-2)| B(j+1/2, (n-1)/2)
    for n in range(3, 7):
        psi, w = make_psi_grid(n, 16)
        for j in range(5):
            want = sphere_area(n - 1) * math.exp(betaln(j + 0.5, (n - 1) / 2.0))
            got = float(np.sum(w * np.cos(psi) ** (2 * j)))
            assert got == pytest.approx(want, rel=1e-13), (n, j)


@pytest.mark.parametrize("count", [16, 64, 128])
@pytest.mark.parametrize("dim", range(2, 9))
def test_gauss_jacobi_rule(dim, count):
    # alpha = -1/2 at dim 2, where the general b_1 is 0/0
    alpha = (dim - 3) / 2.0
    x, w = _gauss_jacobi(count, alpha)
    # exact on x^2k (1 - x^2)^alpha up to degree 2 count - 1: B(k + 1/2, alpha + 1)
    for k in range(count):
        want = math.gamma(k + 0.5) * math.gamma(alpha + 1.0)
        want /= math.gamma(k + alpha + 1.5)
        assert math.fsum(w * x ** (2 * k)) == pytest.approx(want, rel=1e-13), k
    # the library rule's own tail weights sit 5e-11 off a 40-digit
    # reference at 128 nodes, so it referees the weights no closer than 1e-10
    ref_x, ref_w = roots_jacobi(count, alpha, alpha)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-10
    assert _gauss_jacobi(count, alpha)[0] is x
    assert not (x.flags.writeable or w.flags.writeable)


def test_psi_grid_ordered():
    psi, _ = make_psi_grid(4, 32)
    assert np.all(np.diff(psi) > 0)
    assert 0 < psi[0] and psi[-1] < math.pi


def test_bubble_zero_amplitude():
    ps = derive_params(3, 2, 0, 0)
    prof = sample_bubble(ps, Bubble(amplitude=0.0, scale=1.0), make_radial_grid(count=64))
    assert np.all(prof.values == 0.0)


def test_bubble_half_height_radius():
    # at the radius where B r^sigma = 1 the profile is A * 2^(1 - n/(p gamma))
    ps = derive_params(4, 2.5, 0.2, 0.5)
    bub = Bubble(amplitude=1.7, scale=1.3)
    grid = make_radial_grid(count=64)
    prof = sample_bubble(ps, bub, grid)
    r_star = (1.0 / bub.scale**ps.sigma) ** (1.0 / ps.sigma)
    v, _ = bubble_evaluator(bub.amplitude, bub.scale**ps.sigma, ps.sigma, ps.bubble_m)(r_star)
    assert float(v) == pytest.approx(1.7 * 2.0 ** (1.0 - ps.n / (ps.p * ps.gamma)), rel=1e-12)


def test_bubble_scale_positive():
    with pytest.raises(InvalidArgument):
        Bubble(amplitude=1.0, scale=0.0)


def test_fd_derivative_matches_analytic():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    bub = Bubble(amplitude=1.0, scale=1.0)

    def interior_err(count):
        g = make_radial_grid(-10, 10, count)
        prof = sample_bubble(ps, bub, g)
        fd = _fd_derivative(g, prof.values[:, 0])
        exact = prof.grad_r[:, 0]
        sl = slice(8, -8)
        # derivative grows like r^(sigma-1) toward the origin, so
        # normalise by the local derivative scale
        scale = np.maximum(np.abs(exact[sl]), 1.0)
        return float(np.max(np.abs(fd[sl] - exact[sl]) / scale))

    e1, e2 = interior_err(512), interior_err(1024)
    assert e1 < 5e-3
    assert e1 / max(e2, 1e-300) >= 3.0  # second-order stencil


def test_bubble_second_derivative_consistent():
    # differentiate the analytic first derivative numerically; the gap
    # must be FD truncation (second order), not a formula error
    ev2 = bubble_second_derivative(1.2, 0.7, 1.4, 2.5)

    def err(count):
        g = make_radial_grid(-8, 8, count)
        _, dv = bubble_evaluator(1.2, 0.7, 1.4, 2.5)(g.nodes)
        fd2 = _fd_derivative(g, dv)
        sl = slice(16, -16)
        return float(np.max(np.abs(fd2[sl] - ev2(g.nodes)[sl])))

    e1, e2 = err(512), err(1024)
    assert e1 < 2e-2
    assert e1 / max(e2, 1e-300) >= 3.0


def test_embed_axisym_invariants():
    ps = derive_params(4, 2, 0.5, 0.5)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), make_radial_grid(count=128))
    u = modulated_axisym(prof, 48, cos_coeff=0.0)
    assert np.all(u.grad_psi == 0.0)
    assert float(np.sum(u.psi_weights)) == pytest.approx(sphere_area(4), rel=1e-10)
    assert u.values.shape == (128, 48)


def test_translate_preserves_unweighted_qnorm():
    # the bubble moved to x + 0.7 e1 has the centred one's q-norm: the
    # angular quadrature on an integrand that is no polynomial in cos(psi)
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-25, 25, 1024)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), grid)
    radial_q = sphere_area(3) * float(
        np.sum(
            grid.weights * np.abs(prof.values[:, 0]) ** ps.q * grid.nodes ** (ps.n - 1)
        )
    )
    psi, wpsi = make_psi_grid(ps.n, 96)
    r = grid.nodes[:, None]
    moved = bubble_evaluator(1.0, 1.0, ps.sigma, ps.bubble_m)(
        np.hypot(r * np.cos(psi) + 0.7, r * np.sin(psi))
    )[0]
    moved_q = float(
        np.sum(grid.weights[:, None] * wpsi * np.abs(moved) ** ps.q * r ** (ps.n - 1))
    )
    assert moved_q == pytest.approx(radial_q, rel=1e-6)


def test_modulated_axisym_shape():
    ps = derive_params(4, 2, 0.5, 0.5)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), make_radial_grid(count=64))
    u = modulated_axisym(prof, 24, cos_coeff=0.4)
    assert u.grad_psi is not None and np.max(np.abs(u.grad_psi)) > 0


# ---------------------------------------------------------------------------
# the Field type


def _bubble_and_bump(count=128, psi_count=16):
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(count=count)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), grid)
    angular = modulated_axisym(gaussian_bump_profile(grid, 4, 0.3, 0.9), psi_count)
    return ps, prof, angular


@pytest.mark.parametrize("k_factor", [1.0, 0.7])
def test_grad_sq_matches_the_written_expression(k_factor):
    _, _, angular = _bubble_and_bump(count=256, psi_count=32)
    r = angular.grid.nodes[:, None]
    want = angular.grad_r**2 + k_factor**2 * (angular.grad_psi / r) ** 2
    assert np.array_equal(angular.grad_sq(k_factor), want)


def test_radial_field_layout():
    ps, prof, angular = _bubble_and_bump()
    assert prof.is_radial and not angular.is_radial
    assert prof.values.shape == (128, 1)
    assert prof.grad_psi is None
    assert float(prof.psi_weights[0]) == pytest.approx(sphere_area(4), rel=1e-14)
    assert angular.values.shape == (128, 16)


def test_one_node_broadcast_equals_embedding():
    ps, prof, angular = _bubble_and_bump()
    broadcast = prof + 0.0 * angular
    embedded = modulated_axisym(prof, 16, cos_coeff=0.0)
    assert np.array_equal(broadcast.psi_nodes, embedded.psi_nodes)
    assert np.array_equal(broadcast.psi_weights, embedded.psi_weights)
    for name in ("values", "grad_r", "grad_psi"):
        assert np.array_equal(getattr(broadcast, name), getattr(embedded, name)), name


def test_linear_arithmetic_node_for_node():
    ps, prof, angular = _bubble_and_bump()
    combo = 2.0 * prof - angular + prof * 0.5
    for name in ("values", "grad_r"):
        a, b = getattr(prof, name), getattr(angular, name)
        assert np.array_equal(getattr(combo, name), 2.0 * a - b + 0.5 * a), name
    assert np.array_equal(combo.grad_psi, -angular.grad_psi)
    # numpy scalars scale too, instead of broadcasting over the field
    assert np.array_equal((np.float64(3.0) * prof).values, 3.0 * prof.values)


def test_arithmetic_rejects_other_radial_grid():
    ps, prof, _ = _bubble_and_bump()
    other = sample_bubble(ps, Bubble(1.0, 1.0), make_radial_grid(-20, 20, 128))
    with pytest.raises(GridMismatch):
        prof + other


def test_arithmetic_rejects_other_angular_grid():
    _, _, angular = _bubble_and_bump(psi_count=16)
    _, _, finer = _bubble_and_bump(psi_count=24)
    with pytest.raises(GridMismatch):
        angular - finer


def test_arithmetic_rejects_other_dim():
    ps, prof, _ = _bubble_and_bump()
    bump3 = gaussian_bump_profile(prof.grid, 3, 0.0, 1.0)
    with pytest.raises(GridMismatch):
        prof + bump3


def test_missing_gradient_propagates():
    ps, prof, angular = _bubble_and_bump()
    bare = Field.radial(prof.grid, 4, np.ones(prof.grid.count))
    for combo in (prof + bare, bare - angular, 3.0 * bare):
        assert combo.grad_r is None and combo.grad_psi is None
        with pytest.raises(MissingGradient):
            combo.grad_sq()


def test_radial_field_checked_against_params_dim():
    ps3 = derive_params(3, 2, 0, 0)
    ps4 = derive_params(4, 2, 0, 0)
    prof = sample_bubble(ps3, Bubble(1.0, 1.0), make_radial_grid(count=64))
    with pytest.raises(GridMismatch):
        weighted_lq_norm(prof, ps4)


def test_integrate_rejects_wider_density():
    ps, prof, angular = _bubble_and_bump()
    with pytest.raises(GridMismatch):
        prof.integrate(1.0, angular.values)


def test_k_drop_gap_exactly_zero_for_radial():
    ps, prof, _ = _bubble_and_bump()
    for u in (prof, gaussian_bump_profile(prof.grid, 4, 0.5, 1.1)):
        assert transform_identity_check(u, ps).k_drop_gap == 0.0
