"""Stability-lab tests: ratios, scans, slope fits, chain, gap scaling, embedding."""

from types import SimpleNamespace

import numpy as np
import pytest

from cknlab import (
    derive_hat_params,
    derive_params,
    functionals,
    manifold,
    sharp_constant,
    stability,
)
from cknlab.cli import _op_chain_check
from cknlab.errors import (
    DegenerateFit,
    EmptyFamily,
    InvalidArgument,
    OnManifold,
    RegionViolation,
    UnsupportedField,
    ZeroField,
)
from cknlab.fields import (
    Field,
    bubble_second_derivative,
    gaussian_bump_profile,
    make_psi_grid,
    make_radial_grid,
    modulated_axisym,
)
from cknlab.functionals import grad_norm, q_norm, weighted_grad_pnorm
from cknlab.manifold import canonical_bubble, canonical_profile, orthogonalize
from cknlab.stability import (
    GeneratorSpec,
    alpha_exponent,
    bubble_perturbation,
    embedding_check,
    exponent_slope_fit,
    family_samples,
    k_upper_scan,
    mollified_bubble,
    monotonicity_chain_check,
    stability_ratio,
)
from cknlab.transforms import flat_params


# ---------------------------------------------------------------------------
# alpha rule


def test_alpha_rule_dichotomy():
    # p != 2, 0 < a = b, flag off: the doubled exponent
    assert alpha_exponent(derive_params(4, 3, 0.3, 0.3)) == 6.0
    assert alpha_exponent(derive_params(4, 3, 0.3, 0.3), n_symmetric=True) == 3.0
    # p = 2 stays at max{2,p} even for a = b > 0
    assert alpha_exponent(derive_params(4, 2, 0.3, 0.3)) == 2.0
    assert alpha_exponent(derive_params(4, 2.5, 0.2, 0.5)) == 2.5
    assert alpha_exponent(derive_params(3, 2.5, 0.0, 0.0)) == 2.5
    # max kicks in below p = 4 on the doubled branch
    assert alpha_exponent(derive_params(4, 2.2, 0.1, 0.1)) == 4.4
    assert alpha_exponent(derive_params(5, 2.1, 0.2, 0.2)) == 4.2


# ---------------------------------------------------------------------------
# stability_ratio


def _perturbed_bubble(ps, eps, center=1.0, width=1.0, window=(-30.0, 30.0, 1024)):
    return bubble_perturbation(ps, make_radial_grid(*window), center, width)(eps)


def test_ratio_positive_for_perturbed_bubble():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    rec = stability_ratio(_perturbed_bubble(ps, 1e-2), ps)
    assert rec.ratio > 0.0
    assert rec.alpha == 2.5
    assert rec.deficit > 0.0
    assert 1e-6 < rec.distance < 1.0


def test_ratio_zero_homogeneous():
    ps = derive_params(4, 2.5, 0.1, 0.3)
    u = _perturbed_bubble(ps, 5e-3)
    r1 = stability_ratio(u, ps).ratio
    r3 = stability_ratio(3.0 * u, ps).ratio
    assert abs(r3 - r1) / r1 <= 1e-8

def test_ratio_rejects_zero_and_on_manifold():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-30, 30, 1024)
    zero = Field.radial(grid, ps.n, np.zeros(grid.count), np.zeros(grid.count))
    with pytest.raises(ZeroField):
        stability_ratio(zero, ps)
    with pytest.raises(OnManifold):
        stability_ratio(canonical_profile(ps, grid, lam=1.4), ps)


@pytest.mark.parametrize("tup", [(4, 2.5, 0.2, 0.5), (3, 2, 0, 0)])
def test_ratio_computes_the_gradient_energy_once(monkeypatch, tup):
    # the ratio's norm, the projection and the deficit share one gradient
    # energy per sample, and the record is the one from separate calls
    ps = derive_params(*tup)
    u = _perturbed_bubble(ps, 1e-2)
    calls = []
    energy = functionals.weighted_grad_pnorm

    def counted(f, params, *args):
        calls.append(f)
        return energy(f, params, *args)

    for mod in (functionals, manifold, stability):
        monkeypatch.setattr(mod, "weighted_grad_pnorm", counted)
    rec = stability_ratio(u, ps)
    assert len(calls) == 1 and calls[0] is u
    monkeypatch.undo()
    dist, _ = manifold.manifold_distance(u, ps)
    assert rec.distance == dist / grad_norm(u, ps)
    assert rec.deficit == functionals.deficit(u, ps)


# ---------------------------------------------------------------------------
# sample families and the scan


def test_family_prefix_stability():
    ps = derive_params(3, 2, 0, 0)
    spec = GeneratorSpec("bubble_bump", seed=7, window=(-20.0, 20.0, 256))
    short = [u.values for u in family_samples(spec, ps, 3)]
    longer = [u.values for u in family_samples(spec, ps, 6)]
    for s, l in zip(short, longer[:3]):
        assert np.array_equal(s, l)


def test_family_rejects_unknown():
    # config readers check the options; the sampler keeps a guard on the name
    ps = derive_params(3, 2, 0, 0)
    with pytest.raises(InvalidArgument):
        list(family_samples(GeneratorSpec("mystery"), ps, 2))


def test_generator_spec_checks_its_ranges():
    # a library caller gets the CLI's load-time rules, not numpy's
    # "high - low < 0" from the first draw
    ps = derive_params(3, 2, 0, 0)
    with pytest.raises(InvalidArgument, match="center: need lo <= hi"):
        k_upper_scan(
            GeneratorSpec("bubble_bump", window=(-20, 20, 128), center=(5.0, -5.0)),
            ps,
            sample_count=1,
        )
    for bad in ({"eps_log10": (-1.0, -3.0)}, {"width": (1.8, 0.6)}):
        with pytest.raises(InvalidArgument, match="need lo <= hi"):
            GeneratorSpec("bubble_bump", **bad)
    for bad in ((0.0, 1.0), (-0.5, 1.0)):
        with pytest.raises(InvalidArgument, match="widths must be positive"):
            GeneratorSpec("bubble_bump", width=bad)


def test_scan_bound_positive_and_monotone():
    # tail rate (n-p-pa)/(p-1) = 0.83, clean on the +-25 window
    ps = derive_params(4, 2.5, 0.1, 0.4)
    spec = GeneratorSpec("bubble_bump", seed=3, window=(-25.0, 25.0, 512))
    few = k_upper_scan(spec, ps, 4)
    more = k_upper_scan(spec, ps, 8)
    assert few.bound > 0.0
    assert more.bound <= few.bound + 1e-15  # min over a superset
    assert more.used_count + more.skipped_count == 8
    assert more.minimizer.family_tag.startswith("bubble_bump[")
    assert not few.caveat


def test_scan_caveat_and_errors():
    ps_ab = derive_params(5, 3, 0.2, 0.2)
    spec = GeneratorSpec("bubble_bump", seed=1, window=(-25.0, 25.0, 512))
    assert k_upper_scan(spec, ps_ab, 3).caveat
    ps = derive_params(3, 2, 0, 0)
    with pytest.raises(InvalidArgument):
        k_upper_scan(spec, ps, 0)
    # eps of at most 1e-8 keeps every sample inside ON_MANIFOLD_REL
    tiny = GeneratorSpec(
        "bubble_bump", seed=2, window=(-25.0, 25.0, 512), eps_log10=(-9.0, -8.0)
    )
    with pytest.raises(EmptyFamily):
        k_upper_scan(tiny, ps, 3)


# ---------------------------------------------------------------------------
# slope fit

# fit oracle: quadratic-form suppression pushes the measured slope to
# max{2,p}; for p = 2 any orthogonal bump is already clean


def test_slope_fit_p2_radial():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-30, 30, 1024)
    bump = gaussian_bump_profile(grid, ps.n, 10.0, 1.0)
    z = orthogonalize(bump, canonical_bubble(ps), ps)
    fit = exponent_slope_fit(ps, np.logspace(-2.6, -1.0, 6), z)
    assert abs(fit.slope - 2.0) / 2.0 <= 0.1
    assert len(fit.distances) == 6
    assert all(d > 0 for d in fit.deficits)


def test_slope_fit_guards():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-20, 20, 256)
    z = gaussian_bump_profile(grid, ps.n, 3.0, 1.0)
    with pytest.raises(DegenerateFit):
        exponent_slope_fit(ps, [1e-2], z)
    with pytest.raises(DegenerateFit):
        exponent_slope_fit(ps, [1e-2, 2e-2], z)  # under 1.5 decades
    with pytest.raises(DegenerateFit):
        exponent_slope_fit(ps, [1e-3, 0.5], z)  # above the smallness cap
    zero = Field.radial(grid, ps.n, np.zeros(grid.count), np.zeros(grid.count))
    with pytest.raises(ZeroField):
        exponent_slope_fit(ps, np.logspace(-3, -1, 4), zero)


def test_slope_fit_refuses_nonpositive_deficit():
    # on [-30, 30] window truncation leaves this tuple's smallest-eps deficit
    # near -1.3e-5, which has no logarithm to fit
    ps = derive_params(4, 3.0, 0.1, 0.1)
    grid = make_radial_grid(-30, 30, 1024)
    bump = gaussian_bump_profile(grid, ps.n, 10.0, 1.0)
    message = r"deficit -1\.\d+e-05 at eps 0\.0025 is not positive"
    with pytest.raises(DegenerateFit, match=message):
        exponent_slope_fit(ps, [2.5e-3, 0.1], bump)


# ---------------------------------------------------------------------------
# monotonicity chain


def test_chain_radial_equality():
    base = derive_params(4, 2.5, 0.1, 0.4)
    target = derive_params(4, 2.5, 0.3, 0.6)
    hp = derive_hat_params(base, target)
    u = gaussian_bump_profile(make_radial_grid(-30, 30, 1024), target.n, 0.5, 1.2)
    rec = monotonicity_chain_check(u, hp)
    assert abs(rec.grad_chain_gap) <= 1e-8 * weighted_grad_pnorm(u, target)
    assert rec.q_norm_residual <= 1e-8
    # nu is a column of the chain-check record, computed from the target tuple
    job = SimpleNamespace(
        grid=(-30, 30, 1024),
        params=[target],
        base=base,
        fields=[SimpleNamespace(kind="radial", center=0.5, width=1.2)],
        qnorm_tol=1e-8,
        gap_floor=1e-8,
    )
    nu = _op_chain_check(job)[0]["nu"][0]
    assert nu == pytest.approx(1.0 + 1.5 * target.gamma / 4.0, rel=1e-12)


def test_chain_axisym_strict_gap():
    base = derive_params(4, 2.5, 0.1, 0.4)
    target = derive_params(4, 2.5, 0.3, 0.6)
    hp = derive_hat_params(base, target)
    g = gaussian_bump_profile(make_radial_grid(-30, 30, 1024), target.n, 0.5, 1.2)
    u = modulated_axisym(g, cos_coeff=0.35)
    rec = monotonicity_chain_check(u, hp)
    assert rec.grad_chain_gap > 0.0
    assert rec.q_norm_residual <= 1e-8


def test_chain_identity_and_orientation():
    ps = derive_params(3, 2, 0.1, 0.3)
    hp = derive_hat_params(ps, ps)  # h = 1
    u = gaussian_bump_profile(make_radial_grid(-25, 25, 512), ps.n, 0.0, 1.0)
    rec = monotonicity_chain_check(u, hp)
    assert abs(rec.grad_chain_gap) <= 1e-10
    assert rec.q_norm_residual <= 1e-10
    base = derive_params(3, 2, 0.3, 0.4)
    target = derive_params(3, 2, 0.1, 0.2)
    with pytest.raises(RegionViolation):
        monotonicity_chain_check(u, derive_hat_params(base, target))  # h < 1


# ---------------------------------------------------------------------------
# translated flat bubble: both sides of the a = b > 0 gap comparison


def test_gap_probe_quadratic_scaling():
    # both LHS and RHS should scale like shift^2 for small shifts; the
    # bubble moves along the axis to first order, V + shift V'(r) cos psi
    ps = derive_params(4, 2, 0.3, 0.3)
    fp = flat_params(ps)
    grid = make_radial_grid(-30, 30, 1536)
    u0 = canonical_profile(fp, grid)
    sharp = sharp_constant(fp)
    gn0 = grad_norm(u0, fp)
    amp = canonical_bubble(fp).amplitude
    d2v = bubble_second_derivative(amp, 1.0, fp.sigma, fp.bubble_m)(grid.nodes[:, None])
    psi, wpsi = make_psi_grid(fp.n, 160)
    axial = Field(
        grid=grid,
        dim=fp.n,
        psi_nodes=psi,
        psi_weights=wpsi,
        values=u0.grad_r * np.cos(psi),
        grad_r=d2v * np.cos(psi),
        grad_psi=-u0.grad_r * np.sin(psi),
    )
    shifts = np.array([0.05, 0.1, 0.2, 0.4])
    lhs, rhs = [], []
    for s in shifts:
        moved = u0 + float(s) * axial
        pk = weighted_grad_pnorm(moved, fp, k_factor=ps.k)
        lhs.append(pk ** (1.0 / fp.p) / q_norm(moved, fp) - sharp)
        rhs.append((grad_norm(u0 - moved, fp) / gn0) ** 2)
    s_lhs = np.polyfit(np.log(shifts), np.log(lhs), 1)[0]
    s_rhs = np.polyfit(np.log(shifts), np.log(rhs), 1)[0]
    assert abs(s_lhs - 2.0) / 2.0 <= 0.1
    assert abs(s_rhs - 2.0) / 2.0 <= 0.1



# ---------------------------------------------------------------------------
# finite-domain embedding


def test_embedding_positive_both_variants():
    ps = derive_params(3, 2, 0, 0)
    u = mollified_bubble(ps, 1.0, count=768)
    kv = embedding_check(u, ps, 1.0, "value")
    kg = embedding_check(u, ps, 1.0, "grad")
    assert kv > 0.0
    assert kg > 0.0


def test_embedding_zero_homogeneous():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    u = mollified_bubble(ps, 2.0, count=768)
    k1 = embedding_check(u, ps, 2.0, "value")
    k3 = embedding_check(3.0 * u, ps, 2.0, "value")
    assert abs(k3 - k1) / abs(k1) <= 1e-8


def test_embedding_support_guard():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(-5, 3, 256)
    leak = gaussian_bump_profile(grid, ps.n, 2.0, 0.5)  # mass near r = e^2 > 1
    with pytest.raises(UnsupportedField):
        embedding_check(leak, ps, 1.0, "value")
    zero = Field.radial(grid, ps.n, np.zeros(grid.count), np.zeros(grid.count))
    with pytest.raises(ZeroField):
        embedding_check(zero, ps, 1.0, "value")
    u = mollified_bubble(ps, 1.0, count=256)
    with pytest.raises(InvalidArgument):
        embedding_check(u, ps, 1.0, "weird")
    with pytest.raises(InvalidArgument):
        embedding_check(u, ps, -1.0, "value")


def test_mollified_bubble_taper():
    ps = derive_params(3, 2, 0, 0)
    u = mollified_bubble(ps, 1.0, count=512)
    r = u.grid.nodes
    inner = r <= 0.9
    ref = canonical_profile(ps, u.grid)
    assert np.allclose(u.values[inner], ref.values[inner], rtol=0, atol=0)
    assert np.all(np.abs(u.values[r > 0.99]) < np.abs(ref.values[r > 0.99]))
    with pytest.raises(InvalidArgument):
        mollified_bubble(ps, -1.0)


def test_family_sample_is_perturbed_bubble():
    # the family draws (eps, center, width) and delegates to
    # bubble_perturbation; its samples share one grid, and with it the
    # canonical profile and the tangent projector of the grid's memo, yet
    # each equals the perturbation built on a grid of its own, bit for bit
    ps = derive_params(4, 2.5, 0.1, 0.4)
    spec = GeneratorSpec("bubble_bump", seed=4, window=(-25.0, 25.0, 512))
    samples = list(family_samples(spec, ps, 4))
    assert len({id(u.grid) for u in samples}) == 1
    rng = np.random.default_rng(4)
    for sample in samples:
        eps = 10.0 ** rng.uniform(-3.0, -1.0)
        center, width = rng.uniform(-5.0, 5.0), rng.uniform(0.6, 1.8)
        grid = make_radial_grid(-25.0, 25.0, 512)
        direct = bubble_perturbation(ps, grid, center, width)(eps)
        assert np.array_equal(sample.values, direct.values)
        assert np.array_equal(sample.grad_r, direct.grad_r)
