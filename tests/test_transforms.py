"""The radial stretch: norm identities, bubble transport, round trips."""

import numpy as np
import pytest

from cknlab import RegionViolation, derive_hat_params, derive_params
from cknlab.fields import (
    axisym_row_blocks,
    Bubble,
    gaussian_bump_profile,
    make_radial_grid,
    modulated_axisym,
    sample_bubble,
)
from cknlab.functionals import weighted_grad_pnorm, weighted_lq_norm
from cknlab.stability import monotonicity_chain_check
from cknlab.transforms import flat_params, radial_stretch, transform_identity_check


def test_identity_at_a_zero():
    ps = derive_params(3, 2, 0, 0)
    u = gaussian_bump_profile(make_radial_grid(count=64), ps.n, 0.0, 1.0)
    assert radial_stretch(u, ps.k, ps.q) is u


def test_bubble_maps_to_flat_bubble():
    # the image of an extremal is an extremal of the weightless tuple
    ps = derive_params(4, 2, 0.5, 0.5)  # k = 2
    grid = make_radial_grid(-15, 15, 256)
    bub = Bubble(amplitude=1.3, scale=1.7)
    moved = radial_stretch(sample_bubble(ps, bub, grid), ps.k, ps.q)
    flat = flat_params(ps)
    expected = sample_bubble(
        flat,
        Bubble(
            amplitude=ps.k ** (1.0 / ps.q) * bub.amplitude,
            scale=(bub.scale**ps.sigma) ** (1.0 / flat.sigma),
        ),
        moved.grid,
    )
    scale = np.max(np.abs(expected.values))
    assert np.max(np.abs(moved.values - expected.values)) <= 1e-8 * scale
    dscale = np.max(np.abs(expected.grad_r))
    assert np.max(np.abs(moved.grad_r - expected.grad_r)) <= 1e-6 * dscale


def test_round_trip():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-12, 12, 256)
    u = sample_bubble(ps, Bubble(1.0, 1.0), grid)
    back = radial_stretch(radial_stretch(u, ps.k, ps.q), 1.0 / ps.k, ps.q)
    assert np.allclose(back.grid.log_nodes, grid.log_nodes, rtol=0, atol=1e-12)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    assert np.max(np.abs(back.grad_r - u.grad_r)) <= 1e-10 * np.max(
        np.abs(u.grad_r)
    )


def test_identity_check_radial_batch():
    grid = make_radial_grid(count=1024)
    tuples = [
        (4, 2, 0.5, 0.5),
        (4, 2.5, 0.2, 0.5),
        (3, 2, 0.25, 0.25),
        (5, 3, 0.3, 0.7),
        (4, 1.5, 0.8, 1.2),
    ]
    for tup in tuples:
        ps = derive_params(*tup)
        for u in (
            sample_bubble(ps, Bubble(1.0, 1.2), grid),
            gaussian_bump_profile(grid, ps.n, 0.5, 1.1),
        ):
            rep = transform_identity_check(u, ps)
            assert rep.q_norm_residual <= 1e-8, tup
            assert rep.grad_identity_residual <= 1e-8, tup
            assert rep.k_drop_gap == 0.0


def test_identity_check_axisym_batch():
    grid = make_radial_grid(count=512)
    for tup in [(4, 2, 0.5, 0.5), (4, 2.5, 0.2, 0.5), (5, 3, 0.3, 0.7)]:
        ps = derive_params(*tup)
        prof = sample_bubble(ps, Bubble(1.0, 1.0), grid)
        u = modulated_axisym(prof, 64, cos_coeff=0.4)
        rep = transform_identity_check(u, ps)
        assert rep.q_norm_residual <= 1e-8, tup
        assert rep.grad_identity_residual <= 1e-8, tup
        assert rep.k_drop_gap >= 0.0


def test_identity_check_is_the_chain_check_to_the_flat_tuple():
    # c02's tuples and fields: the weight-removing map is the chain's stretch
    # from the tuple to its weightless tuple, and h is k bit for bit
    grid = make_radial_grid(-30, 30, 1024)
    fields = [(0.0, 1.0, None), (-2.0, 0.7, None), (1.5, 1.4, None), (3.0, 0.9, None)]
    fields += [(-0.5, 2.0, None), (0.5, 1.0, 0.3), (-1.0, 1.2, 0.5), (2.0, 0.8, 0.15)]
    for tup in [(4, 2.5, 0.2, 0.5), (5, 3.0, 0.3, 0.5)]:
        ps = derive_params(*tup)
        hp = derive_hat_params(flat_params(ps), ps)
        assert hp.h == ps.k
        for center, width, cos_coeff in fields:
            u = gaussian_bump_profile(grid, ps.n, center, width)
            if cos_coeff is not None:
                u = modulated_axisym(u, cos_coeff=cos_coeff)
            assert monotonicity_chain_check(u, hp) == transform_identity_check(u, ps)


def test_stretch_report_blocks_match_the_whole_stretched_field():
    # c02's axisymmetric fields on strict's 2048 x 128 grid span many row
    # blocks; the report stretches one block at a time, and its gaps must
    # match the public norms of the whole field's stretch
    grid = make_radial_grid(-30.0, 30.0, 2048)
    for tup in [(4, 2.5, 0.2, 0.5), (5, 3.0, 0.3, 0.5)]:
        ps = derive_params(*tup)
        hp = derive_hat_params(flat_params(ps), ps)
        for center, width, cos_coeff in [(0.5, 1.0, 0.3), (-1.0, 1.2, 0.5), (2.0, 0.8, 0.15)]:
            u = gaussian_bump_profile(grid, ps.n, center, width)
            u = modulated_axisym(u, cos_coeff=cos_coeff)
            assert u.values.shape == (2048, 128) and len(u.row_blocks()) > 1
            rep = transform_identity_check(u, ps)
            moved = radial_stretch(u, hp.h, hp.base.q)
            pref = hp.h ** (1.0 - ps.p - ps.p / ps.q)
            g_scaled = pref * weighted_grad_pnorm(moved, hp.base, hp.h)
            g_plain = pref * weighted_grad_pnorm(moved, hp.base)
            tol = 1e-13 * rep.grad_energy
            assert abs(rep.k_drop_gap - (g_scaled - g_plain)) <= tol, tup
            assert abs(rep.grad_chain_gap - (rep.grad_energy - g_plain)) <= tol, tup


@pytest.mark.parametrize("count", [1024, 2048])
def test_stretch_reports_over_built_blocks_equal_the_materialised_field(count):
    # c02's six axisymmetric fields and c05's four on the fast and strict
    # grids: the blocks built one at a time give the same report bit for bit
    grid = make_radial_grid(-30.0, 30.0, count)
    c02 = [(0.5, 1.0, 0.3), (-1.0, 1.2, 0.5), (2.0, 0.8, 0.15)]
    for tup in [(4, 2.5, 0.2, 0.5), (5, 3.0, 0.3, 0.5)]:
        ps = derive_params(*tup)
        for center, width, cos_coeff in c02:
            prof = gaussian_bump_profile(grid, ps.n, center, width)
            whole = transform_identity_check(modulated_axisym(prof, cos_coeff=cos_coeff), ps)
            blocks = axisym_row_blocks(prof, cos_coeff=cos_coeff)
            assert transform_identity_check(blocks, ps) == whole
    target = derive_params(4, 2.5, 0.3, 0.6)
    hp = derive_hat_params(derive_params(4, 2.5, 0.1, 0.4), target)
    for center, width, cos_coeff in c02 + [(0.0, 1.5, 0.4)]:
        prof = gaussian_bump_profile(grid, target.n, center, width)
        whole = monotonicity_chain_check(modulated_axisym(prof, cos_coeff=cos_coeff), hp)
        blocks = axisym_row_blocks(prof, cos_coeff=cos_coeff)
        assert monotonicity_chain_check(blocks, hp) == whole


def test_identity_check_rejects_flat():
    ps = derive_params(3, 2, 0, 0)
    u = gaussian_bump_profile(make_radial_grid(count=64), ps.n, 0.0, 1.0)
    with pytest.raises(RegionViolation):
        transform_identity_check(u, ps)


def test_hat_map_identity_at_h_one():
    ps = derive_params(4, 2, 0.5, 1.0)
    hp = derive_hat_params(ps, ps)
    u = gaussian_bump_profile(make_radial_grid(count=64), ps.n, 0.0, 1.0)
    assert radial_stretch(u, hp.h, ps.q) is u


def test_hat_map_qnorm_identity():
    base = derive_params(4, 2, 0.0, 0.5)
    target = derive_params(4, 2, 0.5, 1.0)
    hp = derive_hat_params(base, target)
    grid = make_radial_grid(count=1024)
    for u in (
        sample_bubble(target, Bubble(1.0, 1.0), grid),
        gaussian_bump_profile(grid, target.n, -0.5, 0.9),
    ):
        moved = radial_stretch(u, hp.h, base.q)
        lhs = weighted_lq_norm(u, target)
        rhs = weighted_lq_norm(moved, base)
        assert abs(lhs - rhs) / lhs <= 1e-8


def test_hat_map_gradient_identity_radial():
    # radial chain identity: target energy = h^(1-p-p/q) * base energy
    base = derive_params(4, 2, 0.0, 0.5)
    target = derive_params(4, 2, 0.5, 1.0)
    hp = derive_hat_params(base, target)
    grid = make_radial_grid(count=1024)
    u = sample_bubble(target, Bubble(1.0, 1.0), grid)
    moved = radial_stretch(u, hp.h, base.q)
    lhs = weighted_grad_pnorm(u, target)
    rhs = hp.h ** (1.0 - base.p - base.p / base.q) * weighted_grad_pnorm(moved, base)
    assert abs(lhs - rhs) / lhs <= 1e-8


def test_hat_round_trip():
    base = derive_params(4, 2, 0.0, 0.5)
    target = derive_params(4, 2, 0.5, 1.0)
    hp = derive_hat_params(base, target)
    grid = make_radial_grid(-10, 10, 128)
    u = gaussian_bump_profile(grid, target.n, 0.3, 0.8)
    back = radial_stretch(radial_stretch(u, hp.h, base.q), 1.0 / hp.h, base.q)
    assert np.max(np.abs(back.values - u.values)) <= 1e-12
    assert np.allclose(back.grid.log_nodes, grid.log_nodes, rtol=0, atol=1e-12)

