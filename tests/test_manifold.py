"""Normalization, projection, representative selection, decomposition."""

import math

import numpy as np
import pytest

from scipy.optimize import OptimizeResult, minimize

from cknlab import OptimizerStall, ZeroField, derive_params, sharp_constant
from cknlab import manifold
from cknlab.fields import (
    Bubble,
    Field,
    bubble_evaluator,
    gaussian_bump_profile,
    make_radial_grid,
    sample_bubble,
    translate_axisym,
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


def _shifted_bubble():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-20, 20, 256)
    u = 1.2 * translate_axisym(canonical_profile(ps, grid, 1.4), 0.3, ps, 32)
    return ps, u


def test_distance_recovers_axial_shift():
    ps, u = _shifted_bubble()
    rel, bub = _rel_distance(u, ps)
    assert rel <= 1e-8
    assert bub.axial_shift == pytest.approx(0.3, abs=1e-6)
    assert bub.scale == pytest.approx(1.4, rel=1e-6)


def test_select_pu_recovers_axial_shift():
    ps, u = _shifted_bubble()
    got = select_Pu(u, ps)
    assert got.axial_shift == pytest.approx(0.3, abs=1e-6)
    assert got.scale == pytest.approx(1.4, rel=1e-6)


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


def test_certificate_first_order_residual_raises(monkeypatch):
    # an amplitude solver that never moves leaves the p = 2 projection,
    # which misses the p = 2.5 first-order condition
    def stuck(fun, x0, **kwargs):
        x = np.asarray(x0, dtype=float)
        return OptimizeResult(x=x, fun=fun(x)[0], nfev=1, nit=0, success=False)

    ps, u = _perturbed_p25()
    monkeypatch.setattr(manifold, "minimize", stuck)
    with pytest.raises(OptimizerStall, match="first-order residual"):
        manifold_distance(u, ps)


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
    # the pairing scales linearly, so the maximiser agrees down to the
    # sqrt(machine eps) plateau of any smooth 1-D maximisation
    assert select_Pu(u3, ps).scale == pytest.approx(select_Pu(u, ps).scale, rel=1e-6)


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


def test_tangent_count_and_labels():
    ps = derive_params(4, 2, 0.5, 0.5)
    grid = make_radial_grid(count=256)
    basis = tangent_basis(canonical_bubble(ps), ps, grid)
    assert len(basis) == 2
    assert all(w.is_radial for w in basis)
    flat = derive_params(3, 2, 0, 0)
    basis_ax = tangent_basis(canonical_bubble(flat), flat, grid, axisym=True, psi_count=32)
    assert len(basis_ax) == 3
    # amplitude and dilation stay radial; the axial translation is angular
    assert [w.is_radial for w in basis_ax] == [True, True, False]
    assert basis_ax[-1].values.shape == (256, 32)


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
    assert abs(rec.tangent_residuals[1]) <= 1e-4


def test_orthogonalize_output_is_orthogonal():
    ps = derive_params(4, 2, 0.5, 0.5)
    grid = make_radial_grid(count=1024)
    bub = canonical_bubble(ps)
    w = orthogonalize(gaussian_bump_profile(grid, ps.n, 0.3, 1.1), bub, ps)
    res = orthogonality_check(w, bub, ps)
    assert max(abs(x) for x in res) <= 1e-10


# small-sigma tuples: the unit integrands peak near 2^(-m q), far below 1,
# so the normalisation window must widen with m q to stay tail-clean
@pytest.mark.parametrize(
    "tup",
    [
        (3, 1.945309798835695, 0.32439487481430185, 1.256188),
        (4, 2.523087181780399, 0.3124020431050102, 1.199743),
    ],
)
def test_normalization_small_sigma(tup):
    ps = derive_params(*tup)
    assert ps.sigma < 0.1
    bub = bubble_normalization(ps)
    assert math.isfinite(bub.amplitude) and bub.amplitude > 0.0
    prof = canonical_profile(ps, make_radial_grid(-60, 60, 1024))
    assert math.isfinite(moment_seed(prof, ps))
