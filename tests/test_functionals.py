"""Weighted energies, deficit behaviour, and the weak Lebesgue norm."""

import math
import tracemalloc

import numpy as np
import pytest

from cknlab import (
    BadExponent,
    BadGridSpec,
    GridMismatch,
    InvalidArgument,
    MissingGradient,
    ZeroField,
    derive_params,
    sharp_constant,
)
from cknlab.fields import (
    Bubble,
    Field,
    gaussian_bump_profile,
    make_radial_grid,
    modulated_axisym,
    sample_bubble,
)
from cknlab.functionals import (
    _power,
    deficit,
    grad_norm,
    q_norm,
    weak_lebesgue_norm,
    weighted_grad_pnorm,
    weighted_lq_norm,
)
from cknlab.manifold import canonical_profile
from cknlab.transforms import transform_identity_check


def exp_profile(grid, dim):
    """u = exp(-r): both weighted integrals have Gamma-function closed forms."""
    v = np.exp(-grid.nodes)
    return Field.radial(grid, dim, v, -v)


def test_grad_integral_gamma_oracle():
    # integral of e^{-pr} r^{n-1-pa} dr = Gamma(n-pa) / p^{n-pa}
    ps = derive_params(4, 2.5, 0.2, 0.5)
    g = make_radial_grid(-30, 10, 1024)
    u = exp_profile(g, ps.n)
    expo = ps.n - ps.p * ps.a
    oracle = ps.sphere_area * math.gamma(expo) / ps.p**expo
    assert weighted_grad_pnorm(u, ps) == pytest.approx(oracle, rel=1e-11)


def test_q_integral_gamma_oracle():
    # n - qb = 0.6 here, so the origin-side tail decays like e^{0.6 t};
    # the window must reach far enough down for the Gamma oracle
    ps = derive_params(3, 2, 0.3, 0.8)
    g = make_radial_grid(-60, 10, 1024)
    u = exp_profile(g, ps.n)
    expo = ps.n - ps.q * ps.b
    oracle = ps.sphere_area * math.gamma(expo) / ps.q**expo
    assert weighted_lq_norm(u, ps) == pytest.approx(oracle, rel=1e-11)


def test_embedded_equals_radial_times_sphere():
    ps = derive_params(4, 2, 0.5, 0.5)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), make_radial_grid(count=512))
    u = modulated_axisym(prof, 64, cos_coeff=0.0)
    for fn in (weighted_grad_pnorm, weighted_lq_norm):
        assert fn(u, ps) == pytest.approx(fn(prof, ps), rel=1e-10)


def test_missing_gradient():
    ps = derive_params(3, 2, 0, 0)
    g = make_radial_grid(count=64)
    with pytest.raises(MissingGradient):
        weighted_grad_pnorm(Field.radial(g, 3, np.ones(g.count)), ps)


def test_dim_mismatch():
    ps3 = derive_params(3, 2, 0, 0)
    ps4 = derive_params(4, 2, 0, 0)
    prof = sample_bubble(ps3, Bubble(1.0, 1.0), make_radial_grid(count=64))
    u = modulated_axisym(prof, 16, cos_coeff=0.0)
    with pytest.raises(GridMismatch):
        weighted_lq_norm(u, ps4)


def test_k_factor_monotone():
    ps = derive_params(3, 2, 0, 0)
    grid = make_radial_grid(count=256)
    u = modulated_axisym(sample_bubble(ps, Bubble(1.0, 1.0), grid), 48)
    vals = [weighted_grad_pnorm(u, ps, k) for k in (1.0, 1.5, 2.0)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(InvalidArgument):
        weighted_grad_pnorm(u, ps, 0.5)


def test_bubble_deficit_vanishes():
    # extremal profiles sit at the sharp constant for any amplitude/scale
    for tup, tol in [((3, 2, 0, 0), 1e-10), ((4, 2.5, 0.2, 0.5), 1e-7)]:
        ps = derive_params(*tup)
        prof = sample_bubble(ps, Bubble(2.3, 1.4), make_radial_grid(count=2048))
        assert abs(deficit(prof, ps)) <= tol


def test_deficit_zero_homogeneous():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    g = make_radial_grid(count=512)
    u = gaussian_bump_profile(g, ps.n, 0.5, 1.0)
    d1 = deficit(u, ps)
    assert deficit(37.0 * u, ps) == pytest.approx(d1, rel=1e-10)


def test_deficit_dilation_invariant():
    # u -> lam^w u(lam .) moves the bump along the grid without changing
    # the Rayleigh quotient
    ps = derive_params(4, 2.5, 0.2, 0.5)
    g = make_radial_grid(count=1024)
    u = gaussian_bump_profile(g, ps.n, 0.0, 1.0)
    w = ps.dilation_weight

    def dilated(shift):
        lam = math.e**shift
        return lam**w * gaussian_bump_profile(g, ps.n, -shift, 1.0)

    d0 = deficit(u, ps)
    # generic shift: limited by quadrature of the |u'|^p kink at the peak
    assert deficit(dilated(1.5), ps) == pytest.approx(d0, rel=1e-5)
    # whole-panel shift: node-for-node identical samples, so near exact
    panel = (g.t_max - g.t_min) / (g.count // 8)
    assert deficit(dilated(3 * panel), ps) == pytest.approx(d0, rel=1e-10)


def test_deficit_positive_for_bump():
    ps = derive_params(3, 2, 0, 0)
    u = gaussian_bump_profile(make_radial_grid(count=512), ps.n, 0.0, 1.2)
    assert deficit(u, ps) > 0.0


def test_deficit_is_not_clamped():
    # the exact bubble's window-truncation bias is small and negative, and
    # deficit reports it as computed rather than as 0
    ps = derive_params(3, 2, 0, 0)
    v = canonical_profile(ps, make_radial_grid(-30.0, 30.0, 1024))
    d = deficit(v, ps)
    assert d == grad_norm(v, ps) / q_norm(v, ps) - sharp_constant(ps)
    assert d < 0.0


def test_deficit_zero_field():
    ps = derive_params(3, 2, 0, 0)
    g = make_radial_grid(count=64)
    z = Field.radial(g, 3, np.zeros(g.count), np.zeros(g.count))
    with pytest.raises(ZeroField):
        deficit(z, ps)


# ---------------------------------------------------------------------------
# the power inside the two norms: pow's subnormal results are dropped

TINY = np.finfo(float).tiny


def _around(x, ulps=4096):
    """Every nonnegative double within `ulps` steps of x >= 0."""
    bits = np.array([x], dtype=float).view(np.int64)[0] + np.arange(-ulps, ulps + 1)
    return np.maximum(bits, 0).view(float)


def _probe(expo):
    """The doubles around tiny^(1/expo), where underflow starts, and a wide sweep."""
    sweep = np.exp(np.linspace(-760.0, 25.0, 20001))
    return np.concatenate([_around(TINY ** (1.0 / expo)), sweep, [0.0, 5e-324, 1e-310]])


POW_EXPONENTS = [0.75, 0.97, 1.25, 1.5, 2.5, 3.0, 10.0 / 3.0, 4.5, 12.0]


@pytest.mark.parametrize("expo", POW_EXPONENTS)
def test_power_is_plain_power_or_zero_below_tiny(expo):
    # tiny^(1/expo) misses the true edge by up to hundreds of ulps, so the
    # band around it is where a threshold taken from it alone would fail
    x = _probe(expo)
    got, plain = _power(x, expo), x**expo
    normal = plain >= TINY
    assert np.count_nonzero(normal) and np.count_nonzero(~normal)
    np.testing.assert_array_equal(got[normal], plain[normal])
    assert np.all(got[~normal] == 0.0)


@pytest.mark.parametrize("expo", [0.5, 1.0, 2.0])
def test_power_keeps_numpys_exact_exponents(expo):
    # sqrt, copy and square call no pow, so nothing is dropped
    x = np.concatenate([_probe(expo), [np.nan, np.inf]])
    np.testing.assert_array_equal(_power(x, expo), x**expo)


@pytest.mark.parametrize("expo", [1.25, 1.5, 2.5, 3.0, 4.5])
def test_power_special_values(expo):
    got = _power(np.array([np.nan, np.inf, 0.0, 5e-324, 1e-310, 2e-308]), expo)
    assert np.isnan(got[0])
    assert got[1] == np.inf
    assert np.all(got[2:] == 0.0)


# c02's axisymmetric fields on its strict grid: 40% of |u|^q underflows there
C02_TUPLES = [(4, 2.5, 0.2, 0.5), (5, 3.0, 0.3, 0.5)]
C02_AXISYM = [(0.5, 1.0, 0.3), (-1.0, 1.2, 0.5), (2.0, 0.8, 0.15)]


@pytest.mark.parametrize("tup", C02_TUPLES)
def test_norms_bit_identical_to_plain_power(tup):
    ps = derive_params(*tup)
    grid = make_radial_grid(-30.0, 30.0, 2048)
    for center, width, cos_coeff in C02_AXISYM:
        prof = gaussian_bump_profile(grid, ps.n, center, width)
        u = modulated_axisym(prof, cos_coeff=cos_coeff)
        vals_q = np.abs(u.values) ** ps.q
        assert np.mean(vals_q < TINY) > 0.2
        plain = u.integrate(ps.n - 1.0 - ps.q * ps.b, vals_q)
        assert weighted_lq_norm(u, ps) == plain
        for k_factor in (1.0, ps.k):
            grads_p = u.grad_sq(k_factor) ** (ps.p / 2.0)
            plain = u.integrate(ps.n - 1.0 - ps.p * ps.a, grads_p)
            assert weighted_grad_pnorm(u, ps, k_factor) == plain


def test_axisym_integrals_allocate_row_blocks_not_full_grids():
    # peak traced allocation of each call, in sizes of one full-grid array
    ps = derive_params(*C02_TUPLES[0])
    center, width, cos_coeff = C02_AXISYM[0]
    prof = gaussian_bump_profile(make_radial_grid(-30.0, 30.0, 2048), ps.n, center, width)
    u = modulated_axisym(prof, cos_coeff=cos_coeff)
    assert u.values.shape == (2048, 128)
    calls = {
        "q": (lambda: weighted_lq_norm(u, ps), 0.5),
        "grad": (lambda: weighted_grad_pnorm(u, ps), 0.5),
        "grad k": (lambda: weighted_grad_pnorm(u, ps, ps.k), 0.5),
        "identity check": (lambda: transform_identity_check(u, ps), 1.0),
    }
    tracemalloc.start()
    try:
        for name, (call, bound) in calls.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = (tracemalloc.get_traced_memory()[1] - before) / u.values.nbytes
            assert peak < bound, name
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# weak norm


def ball_volume(n, R=1.0):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * R**n


def test_weak_norm_constant_field():
    g = make_radial_grid(-30, 30, 2048)
    for n, e in [(3, 2.0), (4, 2.5)]:
        u = Field.radial(g, n, np.full(g.count, 2.5))
        val = weak_lebesgue_norm(u, e, 1.0)
        assert val == pytest.approx(2.5 * ball_volume(n) ** (1.0 / e), rel=1e-6)


def test_weak_norm_power_law_oracle():
    # f = r^-s on the unit ball with s*e < n: sup attained at level t = 1
    # with value |B_1|^(1/e)
    n, s, e = 4, 1.0, 2.5
    g = make_radial_grid(-30, 30, 2048)
    u = Field.radial(g, n, g.nodes ** (-s))
    val = weak_lebesgue_norm(u, e, 1.0)
    assert val == pytest.approx(ball_volume(n) ** (1.0 / e), rel=0.02)


def test_weak_norm_below_strong_norm():
    n, e = 4, 2.5
    ps = derive_params(n, 2, 0, 0)
    g = make_radial_grid(count=1024)
    for u in (
        sample_bubble(ps, Bubble(1.0, 1.0), g),
        gaussian_bump_profile(g, n, 0.3, 0.8),
    ):
        weak = weak_lebesgue_norm(u, e, 1.0)
        surf = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        inside = g.nodes <= 1.0
        strong = (
            surf
            * float(
                np.sum(
                    g.weights[inside]
                    * np.abs(u.values[inside, 0]) ** e
                    * g.nodes[inside] ** (n - 1)
                )
            )
        ) ** (1.0 / e)
        assert weak <= strong * (1.0 + 1e-12)


def test_weak_norm_guards():
    g = make_radial_grid(count=64)
    u = Field.radial(g, 3, np.ones(g.count))
    with pytest.raises(BadExponent):
        weak_lebesgue_norm(u, 0.0, 1.0)
    with pytest.raises(BadGridSpec):
        weak_lebesgue_norm(u, 2.0, 0.0)
    z = Field.radial(g, 3, np.zeros(g.count))
    assert weak_lebesgue_norm(z, 2.0, 1.0) == 0.0


def test_weak_norm_axisym_matches_radial():
    ps = derive_params(4, 2, 0, 0)
    prof = sample_bubble(ps, Bubble(1.0, 1.0), make_radial_grid(count=512))
    u = modulated_axisym(prof, 32, cos_coeff=0.0)
    wa = weak_lebesgue_norm(u, 2.5, 1.0)
    wr = weak_lebesgue_norm(prof, 2.5, 1.0)
    assert wa == pytest.approx(wr, rel=1e-10)
