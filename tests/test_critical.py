"""Critical-point tests: residual pairing, dual norm, Hessian, expansion."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cknlab import critical, derive_params, manifold
from cknlab.errors import (
    BadGridSpec,
    BasisTooSmall,
    CaseRangeViolation,
    FarFromManifold,
    GridMismatch,
    InvalidArgument,
    OptimizerStall,
    RegionViolation,
    ScalingGuardFailure,
    UnsupportedField,
    ZeroField,
)
from cknlab.critical import (
    dual_norm_estimate,
    el_residual_pairing,
    elementary_C_estimate,
    elementary_terms,
    hessian_form,
    expansion_quantities,
    radial_dual_norm,
    spectral_gap,
)
from cknlab.fields import (
    Field,
    gaussian_bump_profile,
    make_radial_grid,
    modulated_axisym,
    sample_bubble,
)
from cknlab.functionals import weighted_grad_pnorm, weighted_lq_norm
from cknlab.fields import PANEL_POINTS
from cknlab.manifold import (
    canonical_bubble,
    canonical_profile,
    orthogonality_check,
    orthogonalize,
    tangent_basis,
    v_inner,
)
from cknlab.stability import bubble_perturbation

PS53 = derive_params(5, 3.0, 0.3, 0.5)
PS32 = derive_params(3, 2.0, 0.0, 0.0)
# the a = 0.2 tail of this tuple decays slowly; pair it with the wide window
PS43 = derive_params(4, 3.0, 0.2, 0.4)

GRID_SPEC = (-30.0, 30.0, 768)
WIDE_SPEC = (-70.0, 70.0, 2048)

_cache = {}


def _grid(spec=GRID_SPEC):
    if spec not in _cache:
        _cache[spec] = make_radial_grid(*spec)
    return _cache[spec]


def _bubble_profile(ps, spec=GRID_SPEC):
    key = ("bub", ps, spec)
    if key not in _cache:
        _cache[key] = canonical_profile(ps, _grid(spec))
    return _cache[key]


def _unit_ortho_bump(ps, center=0.5, width=0.7, spec=GRID_SPEC):
    key = ("zeta", ps, center, width, spec)
    if key not in _cache:
        z = orthogonalize(
            gaussian_bump_profile(_grid(spec), ps.n, center, width),
            canonical_bubble(ps),
            ps,
        )
        _cache[key] = (1.0 / weighted_grad_pnorm(z, ps) ** (1.0 / ps.p)) * z
    return _cache[key]


def _perturbed(ps, eps, spec=GRID_SPEC):
    return _bubble_profile(ps, spec) + eps * _unit_ortho_bump(ps, spec=spec)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual pairing


def test_pairing_vanishes_at_bubble():
    v = _bubble_profile(PS32)
    phi = gaussian_bump_profile(_grid(), PS32.n, 0.0, 1.0)
    assert abs(el_residual_pairing(v, phi, PS32)) <= 1e-8


def test_pairing_linear_in_test_function():
    u = _perturbed(PS53, 0.3)
    g = _grid()
    p1 = gaussian_bump_profile(g, PS53.n, -1.0, 0.6)
    p2 = gaussian_bump_profile(g, PS53.n, 1.5, 1.2)
    combo = 2.0 * p1 - 0.7 * p2
    lhs = el_residual_pairing(u, combo, PS53)
    rhs = 2.0 * el_residual_pairing(u, p1, PS53) - 0.7 * el_residual_pairing(
        u, p2, PS53
    )
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_pairing_scaled_bubble_closed_form():
    # residual of mu V pairs against V as (mu^(q-1) - mu^(p-1)) int |x|^-qb V^q
    v = _bubble_profile(PS53)
    mu = 1.3
    pair = el_residual_pairing(mu * v, v, PS53)
    pred = (mu ** (PS53.q - 1.0) - mu ** (PS53.p - 1.0)) * weighted_lq_norm(v, PS53)
    assert abs(pair - pred) <= 1e-5 * abs(pred)


def test_pairing_zero_field():
    g = _grid()
    zero = Field.radial(g, PS53.n, np.zeros(g.count), np.zeros(g.count))
    phi = gaussian_bump_profile(g, PS53.n, 0.0, 1.0)
    assert el_residual_pairing(zero, phi, PS53) == 0.0


def test_pairing_grid_guards():
    v = _bubble_profile(PS53)
    other = gaussian_bump_profile(make_radial_grid(-20.0, 20.0, 512), PS53.n, 0.0, 1.0)
    with pytest.raises(GridMismatch):
        el_residual_pairing(v, other, PS53)
    bump = gaussian_bump_profile(_grid(), PS53.n, 0.0, 1.0)
    axi = modulated_axisym(bump, 48, cos_coeff=0.0)
    with pytest.raises(GridMismatch):
        el_residual_pairing(v, axi, PS53)


def test_pairing_embeds_radial_phi_for_axisym_u():
    u_rad = _perturbed(PS53, 0.3)
    u_axi = modulated_axisym(u_rad, 48, cos_coeff=0.0)
    phi = gaussian_bump_profile(_grid(), PS53.n, 0.8, 0.9)
    p_axi = el_residual_pairing(u_axi, phi, PS53)
    p_rad = el_residual_pairing(u_rad, phi, PS53)
    assert abs(p_axi - p_rad) <= 1e-10 * max(abs(p_rad), 1.0)


# ---------------------------------------------------------------------------
# exact radial dual norm


def test_panel_integration_matrix_is_exact_on_polynomials():
    # S interpolates at the panel's nodes: exact to degree PANEL_POINTS - 1
    x = critical._PANEL_X
    s = critical._panel_integration_matrix()
    for k in range(PANEL_POINTS):
        assert np.allclose(s @ x**k, (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1), atol=1e-15)


def test_running_integral_of_log_radius_polynomial():
    # the running integral from t_min in log radius, panel sums included
    g = make_radial_grid(-3.0, 5.0, 64)
    t = g.log_nodes
    got = critical._running_integral(g, t**3 - 2.0 * t)
    want = (t**4 - 3.0**4) / 4.0 - (t**2 - 3.0**2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "tup", [(3, 2.0, 0.0, 0.0), (4, 2.5, 0.1, 0.4), (5, 3.0, 0.3, 0.5), (6, 4.0, 0.1, 0.3)]
)
def test_radial_dual_norm_vanishes_at_c03_bubbles(tup):
    # G is the first integral of the radial equation: the formula reads the
    # quadrature floor at a bubble, not a window artefact
    ps = derive_params(*tup)
    assert radial_dual_norm(_bubble_profile(ps, (-30.0, 30.0, 4096)), ps) <= 1e-12


def test_radial_dual_norm_above_the_basis_estimate():
    # the estimate is a sup over a subspace, so it cannot exceed the exact value
    u = _perturbed(PS53, 1e-2)
    exact = radial_dual_norm(u, PS53)
    assert dual_norm_estimate(u, PS53, 8).value <= exact


def test_radial_dual_norm_scaled_bubble_bound():
    # the amplitude direction alone already gives pairing / ||V||
    v = _bubble_profile(PS53)
    mu = 1.3
    drop = abs(mu ** (PS53.q - 1.0) - mu ** (PS53.p - 1.0)) * weighted_lq_norm(v, PS53)
    bound = drop / weighted_grad_pnorm(v, PS53) ** (1.0 / PS53.p)
    assert radial_dual_norm(mu * v, PS53) >= 0.999 * bound


def test_radial_dual_norm_rejects_axisymmetric_field():
    u = modulated_axisym(_perturbed(PS53, 1e-2), 48)
    with pytest.raises(UnsupportedField):
        radial_dual_norm(u, PS53)
    with pytest.raises(UnsupportedField):
        expansion_quantities(u, PS53)


def test_residual_zero_term_finite_where_u_vanishes_below_q_two():
    # q = 1.58 < 2: |u|^(q-2) u is 0 where u is, not inf * 0; a narrow bump
    # vanishes at 630 of the 1024 nodes
    ps = derive_params(3, 1.2, 0.1, 0.5)
    assert ps.q < 2.0
    u = gaussian_bump_profile(make_radial_grid(-30.0, 30.0, 1024), 3, 0.0, 0.3)
    assert np.count_nonzero(u.values == 0.0) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            el_residual_pairing(u, u, ps),
            radial_dual_norm(u, ps),
            dual_norm_estimate(u, ps, 8).value,  # through the basis pairings
        ]
    assert all(math.isfinite(v) for v in values)


def _hat_sup(u, ps, knots):
    """sqrt(l^T M^-1 l) over the hats in log r with the given knots, p = 2."""
    g = u.grid
    t = g.log_nodes
    width = knots[1] - knots[0]
    ders, ell = [], []
    for c in knots[1:-1]:
        inside = np.abs(t - c) < width
        v = np.maximum(0.0, 1.0 - np.abs(t - c) / width)
        d = np.where(inside, -np.sign(t - c) / width, 0.0) / g.nodes
        ell.append(el_residual_pairing(u, Field.radial(g, ps.n, v, d), ps))
        ders.append(d)
    ders, ell = np.array(ders).T, np.array(ell)
    w = ps.sphere_area * g.weights * g.nodes ** (ps.n - 1.0 - ps.p * ps.a)
    return math.sqrt(float(ell @ np.linalg.solve(ders.T @ (w[:, None] * ders), ell)))


def test_radial_dual_norm_against_nested_hat_sups():
    # at p = 2 the sup over a span is sqrt(l^T M^-1 l).  Piecewise-linear
    # hats in log r with every knot on a panel edge keep each panel's
    # quadrature exact; coarser hats lie in the span of finer ones, so the
    # sup rises toward the exact value, its gap shrinking ~4x per halving
    ps = derive_params(4, 2.0, 0.2, 0.5)
    g = make_radial_grid(-40.0, 40.0, 4096)
    u = bubble_perturbation(ps, g, 0.5, 0.7)(0.05)
    exact = radial_dual_norm(u, ps)
    edges = np.linspace(g.t_min, g.t_max, g.count // PANEL_POINTS + 1)
    lo, hi = np.searchsorted(edges, [-30.0, 30.0])
    sups = [_hat_sup(u, ps, edges[lo : hi + 1 : step]) for step in (4, 2, 1)]
    assert sups[0] < sups[1] < sups[2] < exact
    assert (exact - sups[2]) / exact < 1e-2  # one hat per panel
    richardson = sups[2] + (sups[2] - sups[1]) / 3.0
    assert abs(richardson - exact) / exact < 1e-3


# ---------------------------------------------------------------------------
# dual-norm lower bound


def test_dual_estimate_small_at_bubble():
    v = _bubble_profile(PS53)
    est = dual_norm_estimate(v, PS53, 8)
    assert est.value <= 1e-5


def test_dual_estimate_scaled_bubble_bound():
    # the amplitude direction alone already gives pairing / ||V||
    v = _bubble_profile(PS53)
    mu = 1.3
    est = dual_norm_estimate(mu * v, PS53, 8)
    drop = abs(mu ** (PS53.q - 1.0) - mu ** (PS53.p - 1.0)) * weighted_lq_norm(v, PS53)
    bound = drop / weighted_grad_pnorm(v, PS53) ** (1.0 / PS53.p)
    assert est.value >= 0.999 * bound


def test_dual_estimate_monotone_in_basis():
    u = _perturbed(PS53, 1e-2)
    est4 = dual_norm_estimate(u, PS53, 4)
    est8 = dual_norm_estimate(u, PS53, 8)
    est12 = dual_norm_estimate(u, PS53, 12)
    assert est8.half_value == est4.value
    assert est8.value >= est4.value
    assert est12.value >= est12.half_value
    assert est4.half_value is None


def test_dual_estimate_needs_four_elements():
    with pytest.raises(BasisTooSmall):
        dual_norm_estimate(_bubble_profile(PS53), PS53, 3)


def _elements(u, ps, size):
    # the estimate's own test basis, one radial field per element
    vals, ders = critical._dual_basis(u.grid, u.dim, ps, size)[:2]
    return [Field.radial(u.grid, ps.n, v, d) for v, d in zip(vals.T, ders.T)]


def _pairings_and_norm(u, ps, size):
    # derivatives and pairings of the estimate's own test basis, and
    # ||sum c_i phi_i|| through an explicitly combined field
    elements = _elements(u, ps, size)
    ell = np.array([el_residual_pairing(u, e, ps) for e in elements])
    ders = np.concatenate([e.grad_r for e in elements], axis=1)

    def norm(c):
        combo = Field.radial(u.grid, ps.n, u.values[:, 0], ders @ c)
        return weighted_grad_pnorm(combo, ps) ** (1.0 / ps.p)

    return ders, ell, norm


def _assert_sup_certificate(u, ps, size):
    value = dual_norm_estimate(u, ps, size).value
    ders, ell, norm = _pairings_and_norm(u, ps, size)
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = rng.standard_normal(len(ell))
        assert abs(ell @ c) / norm(c) <= value * (1.0 + 1e-12)
    # a derivative-free ascent from the p = 2 optimum must not beat it either
    g = u.grid
    w = g.weights * g.nodes ** (ps.n - 1.0 - ps.p * ps.a)
    start = np.linalg.solve(ders.T @ (w[:, None] * ders), ell)
    res = minimize(
        lambda c: -abs(ell @ c) / norm(c),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 0.0, "maxfev": 4000},
    )
    assert -res.fun <= value * (1.0 + 1e-9)
    return value


def test_dual_estimate_p2_closed_form():
    # at p = 2 the sup over the span is sqrt(l^T G^-1 l) with Gram matrix G
    u = _perturbed(PS32, 1e-2)
    ders, ell, _ = _pairings_and_norm(u, PS32, 8)
    g = u.grid
    w = PS32.sphere_area * g.weights * g.nodes ** (PS32.n - 1.0)
    gram = ders.T @ (w[:, None] * ders)
    expected = math.sqrt(float(ell @ np.linalg.solve(gram, ell)))
    assert dual_norm_estimate(u, PS32, 8).value == pytest.approx(expected, rel=1e-10)


def test_dual_estimate_is_a_sup_over_the_span():
    assert _assert_sup_certificate(_perturbed(PS53, 1e-2), PS53, 8) > 0.0


def test_dual_estimate_p_below_two():
    ps = derive_params(3, 1.5, 0.1, 0.5)
    value = _assert_sup_certificate(_perturbed(ps, 1e-2), ps, 8)
    assert 0.0 < value < math.inf


def test_dual_estimate_halving_at_p_below_two(monkeypatch):
    # the p < 2 Newton step overshoots where |g| is small (for |x|^p alone
    # it is -x / (p - 1)): at p = 1.2 halving the failed steps still
    # reaches the sup, and taking every full step instead stalls
    ps = derive_params(3, 1.2, 0.1, 0.5)
    u = _perturbed(ps, 1e-2)
    assert _assert_sup_certificate(u, ps, 8) > 0.0
    monkeypatch.setattr(critical, "ARMIJO_C", -math.inf)
    with pytest.raises(OptimizerStall):
        dual_norm_estimate(u, ps, 8)


@pytest.mark.parametrize("tup", [(6, 4.0, 0.1, 0.3), (5, 3.0, 0.3, 0.5)])
def test_dual_estimate_newton_step_count(monkeypatch, tup):
    # from the p = 2 maximiser in the rank guard's metric, moved along its
    # ray, Newton steps converge on an exact c03 bubble within 15
    ps = derive_params(*tup)
    v = _bubble_profile(ps, (-30.0, 30.0, 1024))
    reference = dual_norm_estimate(v, ps, 8).value
    monkeypatch.setattr(critical, "NEWTON_MAX_STEPS", 15)
    capped = dual_norm_estimate(v, ps, 8).value
    assert capped == pytest.approx(reference, rel=1e-12)


# (value, half_value) at basis 8 from the earlier null-space least-norm
# solve, on fields at eps = 0.1 off the bubble, one tuple each side of p = 2
_DUAL_REFERENCE = {
    (6, 4.0, 0.1, 0.3): (0.040465027938916695, 0.0352987913081021),
    (3, 1.5, 0.1, 0.5): (0.009433540366261218, 0.009253156854356065),
}


@pytest.mark.parametrize("tup", sorted(_DUAL_REFERENCE))
def test_dual_estimate_matches_least_norm_reference(tup):
    ps = derive_params(*tup)
    est = dual_norm_estimate(_perturbed(ps, 0.1), ps, 8)
    value, half = _DUAL_REFERENCE[tup]
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.half_value == pytest.approx(half, rel=1e-12)


def test_dual_estimate_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(critical, "NEWTON_MAX_STEPS", 1)
    cap = re.escape("dual-norm Newton ascent at (5, 3.0, 0.3, 0.5): not converged after 1 steps")
    with pytest.raises(OptimizerStall, match=cap):
        dual_norm_estimate(_perturbed(PS53, 1e-2), PS53, 4)


def test_dual_estimate_singular_hessian_names_the_tuple(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(critical, "_dual_sup", singular)
    tup = re.escape("dual-norm Newton ascent at (5, 3.0, 0.3, 0.5): Singular matrix")
    with pytest.raises(OptimizerStall, match=tup):
        dual_norm_estimate(_perturbed(PS53, 1e-2), PS53, 4)


def test_basis_estimate_recurses_once_through_the_module(monkeypatch):
    # the half estimate goes through the module name, which a tracer rebinds
    calls = []
    real = critical.dual_norm_estimate

    def spied(u, ps, size):
        calls.append(size)
        return real(u, ps, size)

    monkeypatch.setattr(critical, "dual_norm_estimate", spied)
    critical.dual_norm_estimate(_perturbed(PS53, 1e-2), PS53, 8)
    assert calls == [8, 4]


def test_dual_basis_is_built_once_per_grid(monkeypatch):
    grids = [make_radial_grid(*GRID_SPEC) for _ in range(2)]
    fields = [
        canonical_profile(PS53, g) + 1e-2 * gaussian_bump_profile(g, PS53.n, 0.5, 0.7)
        for g in grids
    ]
    dual_norm_estimate(fields[0], PS53, 8)
    entries = {k: v for k, v in grids[0]._memo.items() if k[0] == "dual basis"}
    assert sorted(entries) == [("dual basis", PS53, PS53.n, 4), ("dual basis", PS53, PS53.n, 8)]
    for arrays in entries.values():
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0, 0] = 1.0

    def unexpected(*args):
        raise AssertionError("the basis was rebuilt")

    monkeypatch.setattr(critical, "tangent_basis", unexpected)
    monkeypatch.setattr(critical, "gaussian_bump_profile", unexpected)
    again = dual_norm_estimate(1.5 * fields[0], PS53, 8)
    monkeypatch.undo()
    # a new grid builds its own entries, and they give the same estimate
    assert not any(k[0] == "dual basis" for k in grids[1]._memo)
    assert dual_norm_estimate(1.5 * fields[1], PS53, 8) == again
    assert sum(k[0] == "dual basis" for k in grids[1]._memo) == 2


@pytest.mark.parametrize("axisym", [False, True], ids=["radial", "axisym"])
@pytest.mark.parametrize("tup", [(3, 1.5, 0.1, 0.5), (5, 3.0, 0.3, 0.5)])
def test_basis_pairings_match_the_one_element_pairing(tup, axisym):
    ps = derive_params(*tup)
    u = _perturbed(ps, 1e-2)
    if axisym:
        u = modulated_axisym(u, 24, cos_coeff=0.3)
    vals, ders = critical._dual_basis(u.grid, u.dim, ps, 8)[:2]
    ell = critical._basis_pairings(u, ps, vals, ders)
    flux = critical._flux_factor(np.sqrt(u.grad_sq()), ps.p - 2.0) * u.grad_r
    zero = np.abs(u.values) ** (ps.q - 2.0) * u.values
    for i, e in enumerate(_elements(u, ps, 8)):
        # the two terms' magnitudes, integrand by integrand: the rounding scale
        terms = u.integrate(ps.n - 1.0 - ps.q * ps.b, np.abs(zero * e.values))
        terms += u.integrate(ps.n - 1.0 - ps.p * ps.a, np.abs(flux * e.grad_r))
        assert abs(ell[i] - el_residual_pairing(u, e, ps)) <= 1e-13 * terms, i


def test_dual_estimate_axisym_embedding_matches_radial():
    # a != 0: no translation element, so both spans hold the same functions
    u = _perturbed(PS53, 1e-2)
    radial = dual_norm_estimate(u, PS53, 8)
    axi = dual_norm_estimate(modulated_axisym(u, 48, cos_coeff=0.0), PS53, 8)
    assert axi.value == pytest.approx(radial.value, rel=1e-8)
    assert axi.half_value == pytest.approx(radial.half_value, rel=1e-8)


# ---------------------------------------------------------------------------
# Hessian quadratic form


def test_hessian_zero_rho():
    g = _grid()
    zero = Field.radial(g, PS53.n, np.zeros(g.count), np.zeros(g.count))
    assert hessian_form(canonical_bubble(PS53), zero, PS53) == 0.0


@given(st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_hessian_quadratic_homogeneity(c):
    rho = _unit_ortho_bump(PS53)
    bub = canonical_bubble(PS53)
    base = hessian_form(bub, rho, PS53)
    assert hessian_form(bub, c * rho, PS53) == pytest.approx(c * c * base, rel=1e-12)


def test_hessian_needs_p_at_least_two():
    ps = derive_params(3, 1.5, 0.0, 0.0)
    rho = gaussian_bump_profile(_grid(), ps.n, 0.0, 1.0)
    with pytest.raises(RegionViolation):
        hessian_form(canonical_bubble(ps), rho, ps)


def test_dilation_mode_saturates_the_form():
    # along the scaling direction the form equals (q-1) times the V-pairing
    wide = _grid(WIDE_SPEC)
    bub = canonical_bubble(PS43)
    dil = tangent_basis(bub, PS43, wide)[1]
    lhs = hessian_form(bub, dil, PS43)
    vf = canonical_profile(PS43, wide)
    rhs = (PS43.q - 1.0) * v_inner(dil, dil, vf, PS43)
    assert lhs == pytest.approx(rhs, rel=1e-4)


# ---------------------------------------------------------------------------
# spectral gap


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spectral_gap_p2_closed_form(n):
    # p = 2, a = b = 0: the first ratio off the tangent space is (n + 4) / n
    # (Bianchi-Egnell); a leaked tangent would read about 1
    ps = derive_params(n, 2.0, 0.0, 0.0)
    wide = _grid(WIDE_SPEC)
    values = [spectral_gap(ps, wide, k)[0] for k in (5, 10, 20, 40)]
    assert values[2] == pytest.approx((n + 4.0) / n, abs=1e-3)
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))


@pytest.mark.parametrize("tup", [(4, 2, 0, 0.8), (6, 2, 0.5, 1.2), (5, 2, 0.3, 1.0)])
def test_spectral_gap_nests_at_small_sigma(tup):
    # sigma near 0.2: the Ritz weights span many decades across the ladder,
    # and a guard on the unscaled rows kept 8 of 20 or 40 directions and
    # read 1.84 or 117.8; at p = 2 the radial gap is 3 - 4/q
    ps = derive_params(*tup)
    grid = make_radial_grid(-70, 70, 4096)
    runs = {k: spectral_gap(ps, grid, k) for k in (10, 20, 40)}
    assert [kept for _, _, kept in runs.values()] == list(runs)
    values = [value for value, _, _ in runs.values()]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert runs[20][0] == pytest.approx(3.0 - 4.0 / ps.q, abs=1e-3)


def test_spectral_gap_half_basis_is_its_prefix():
    wide = _grid(WIDE_SPEC)
    value, half, kept = spectral_gap(PS43, wide, 20)
    assert 1.0 < value < 2.0 and value <= half
    assert kept == 20
    assert spectral_gap(PS43, wide, 10)[0] == pytest.approx(half, rel=1e-12)


def test_spectral_gap_equal_weights_stretch_to_flat():
    # at a = b the stretch sends the radial sector to the weightless tuple
    wide = _grid(WIDE_SPEC)
    stretched = spectral_gap(derive_params(5, 2.0, 0.3, 0.3), wide, 20)[0]
    flat = spectral_gap(derive_params(5, 2.0, 0.0, 0.0), wide, 20)[0]
    assert stretched == pytest.approx(flat, abs=1e-5)


def test_ladder_past_the_window_raises():
    # every bump must end 8 widths inside the window: c06's tuple and grid
    # fit 80 Ritz bumps but not 120, and a dual basis of 44 overruns [-30, 30]
    wide = _grid(WIDE_SPEC)
    assert spectral_gap(PS43, wide, 80)[0] == pytest.approx(1.969325, rel=1e-6)
    with pytest.raises(BadGridSpec, match="past the window"):
        spectral_gap(PS43, wide, 120)
    with pytest.raises(BadGridSpec, match="past the window"):
        dual_norm_estimate(_bubble_profile(PS53), PS53, 44)
    # the basis build that raised stored nothing in the grid's memo
    assert not any(k[0] == "dual basis" and k[3] == 44 for k in _grid()._memo)


def test_ritz_matrices_match_the_forms():
    # x^T H x is the Hessian form and x^T M x the (q - 1) V-pairing of sum x_i rho_i,
    # each rho_i projected on its own; at p = 2 the form has no (p - 2) term
    wide = _grid(WIDE_SPEC)
    x = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 1.1])
    for ps in (PS43, derive_params(4, 2.0, 0.2, 0.5)):
        h, m = critical._ritz_matrices(ps, wide, 6)
        bub = canonical_bubble(ps)
        ladder = critical._ladder(
            wide, ps.n, 6, critical.RITZ_STEP, critical.RITZ_WIDTH, 1.0 / ps.sigma
        )
        bumps = [orthogonalize(bump, bub, ps) for bump in ladder]
        rho = x[0] * bumps[0]
        for xi, bump in zip(x[1:], bumps[1:]):
            rho = rho + xi * bump
        vf = canonical_profile(ps, wide)
        assert x @ h @ x == pytest.approx(hessian_form(bub, rho, ps), rel=1e-12)
        assert x @ m @ x == pytest.approx((ps.q - 1.0) * v_inner(rho, rho, vf, ps), rel=1e-12)


def test_ritz_rows_are_tangent_free(monkeypatch):
    # every projected row at c06's tuple and grid is V-orthogonal to both tangents
    rows = []

    def recorded(*args):
        rows.append(manifold._tangent_free(*args))
        return rows[-1]

    monkeypatch.setattr(critical, "_tangent_free", recorded)
    grid = _grid((-70.0, 70.0, 2048))
    critical._ritz_matrices(PS43, grid, 20)
    (vals, grads), = rows
    assert vals.shape == grads.shape == (20, grid.count)
    bub = canonical_bubble(PS43)
    for v, g in zip(vals, grads):
        res = orthogonality_check(Field.radial(grid, PS43.n, v, g), bub, PS43)
        assert max(abs(r) for r in res) <= 1e-12


def test_ritz_matrices_build_the_tangents_once(monkeypatch):
    calls = []
    real = manifold.tangent_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    # a grid of its own: the tangents are the grid's memo, so a second
    # basis on it builds none
    monkeypatch.setattr(manifold, "tangent_basis", counted)
    grid = make_radial_grid(*WIDE_SPEC)
    critical._ritz_matrices(PS43, grid, 20)
    critical._ritz_matrices(PS43, grid, 8)
    assert len(calls) == 1


def test_spectral_gap_range_and_basis():
    wide = _grid(WIDE_SPEC)
    with pytest.raises(RegionViolation):
        spectral_gap(derive_params(3, 1.5, 0.0, 0.0), wide, 4)
    with pytest.raises(BasisTooSmall):
        spectral_gap(PS43, wide, 0)


# ---------------------------------------------------------------------------
# two-sided near-manifold quantities


def test_expansion_at_exact_bubble():
    v = _bubble_profile(PS53)
    rep = expansion_quantities(v, PS53)
    assert rep.mu == pytest.approx(1.0, abs=1e-8)
    assert rep.N <= 1e-12
    assert rep.Q <= 1e-10
    assert rep.residual_pairing_norm <= 1e-11
    unorm = weighted_grad_pnorm(v, PS53) ** (1.0 / PS53.p)
    assert rep.distance_gate == pytest.approx(0.1 * unorm, rel=1e-12)


def test_expansion_epsilon_scaling():
    r1 = expansion_quantities(_perturbed(PS53, 1e-3), PS53)
    r2 = expansion_quantities(_perturbed(PS53, 2e-3), PS53)
    assert r2.N / r1.N == pytest.approx(2.0**PS53.p, rel=2e-2)
    assert r2.Q / r1.Q == pytest.approx(4.0, rel=2e-2)


def test_expansion_needs_p_above_two():
    with pytest.raises(RegionViolation):
        expansion_quantities(_bubble_profile(PS32), PS32)


def test_expansion_far_from_manifold():
    u = _perturbed(PS53, 1e-2)
    with pytest.raises(FarFromManifold):
        expansion_quantities(u, PS53, distance_gate=1e-8)


# ---------------------------------------------------------------------------
# elementary inequalities


def test_elementary_known_scalar_point():
    # q = 3, a = b = 1: |(2)|2| - 1 - 2| = 1 against |b|^2 = 1
    lhs, rhs = elementary_terms(5, 3.0, 1.0, 1.0, 1.0)
    assert float(lhs) == pytest.approx(1.0, abs=1e-14)
    assert float(rhs) == pytest.approx(1.0, abs=1e-14)


def test_elementary_case5_constant_near_one():
    c = elementary_C_estimate(5, 3.0)
    assert 1.0 <= c <= 1.01


def test_elementary_zero_increment():
    for case, expo in [(1, 2.5), (2, 4.0), (3, 3.0), (4, 3.5), (5, 2.5), (6, 4.0)]:
        lhs, rhs = elementary_terms(case, expo, 1.0, 0.0, -1.0)
        assert float(lhs) == 0.0


def test_elementary_case_ranges():
    with pytest.raises(CaseRangeViolation):
        elementary_C_estimate(1, 3.5)
    with pytest.raises(CaseRangeViolation):
        elementary_C_estimate(2, 3.0)
    with pytest.raises(CaseRangeViolation):
        elementary_C_estimate(5, 3.5)
    with pytest.raises(CaseRangeViolation):
        elementary_C_estimate(6, 3.0)
    with pytest.raises(InvalidArgument):
        elementary_C_estimate(7, 3.0)


def test_elementary_scaling_guard_raises(monkeypatch):
    # a term evaluation that sees the overall magnitude must not pass as a constant
    raw = critical._raw_terms

    def drifting(case, e, x_mag, y_mag, cos_angle):
        lhs, rhs, scale = raw(case, e, x_mag, y_mag, cos_angle)
        return lhs * (1.0 + 1e-6 * float(np.max(x_mag))), rhs, scale

    monkeypatch.setattr(critical, "_raw_terms", drifting)
    with pytest.raises(ScalingGuardFailure, match="joint scaling"):
        elementary_C_estimate(3, 2.5)


@pytest.mark.parametrize("case,expo", [(1, 2.5), (2, 4.0), (5, 2.5), (6, 4.0)])
def test_elementary_scaling_guard_needs_a_point(case, expo):
    # at one sample every point of these cases is cancellation noise
    with pytest.raises(ScalingGuardFailure, match=f"case {case}: scaling guard has no"):
        elementary_C_estimate(case, expo, 1)


def test_elementary_doubling_stable():
    c200 = elementary_C_estimate(3, 2.5, 200)
    c400 = elementary_C_estimate(3, 2.5, 400)
    assert abs(c400 - c200) <= 1e-2 * c200


def _meshgrid_C_estimate(case, exponent, samples):
    """(C, guard |y|, guard cos) of elementary_C_estimate on the whole meshgrid."""
    y = np.logspace(-6.0, 6.0, samples)
    if case in (1, 2, 3, 4):
        ang = np.cos(np.linspace(0.0, math.pi, max(17, samples // 3)))
    else:
        ang = np.array([-1.0, 1.0])
    ym, cm = np.meshgrid(y, ang, indexing="ij")
    lhs, rhs, scale = critical._raw_terms(case, exponent, 1.0, ym, cm)
    idx = np.flatnonzero((lhs > 1e-4 * scale).ravel())[::17]
    return float(np.max(lhs / rhs)), 7.0 * ym.ravel()[idx], cm.ravel()[idx]


C08_CASES = [
    [1, 2.5], [1, 3.0], [2, 3.5], [2, 4.0], [3, 2.5], [3, 3.0],
    [4, 3.5], [4, 4.0], [5, 2.5], [5, 2.9], [6, 3.5], [6, 4.0],
]


@pytest.mark.parametrize("samples", [200, 400])
def test_blocked_C_estimate_equals_the_meshgrid(samples, monkeypatch):
    # c08's cases and the CLI defaults: the row blocks keep the maximum and
    # pick the same guard points, so C and the guard's drift are bit for bit
    from cknlab.cli import _DEFAULT_CASES

    raw = critical._raw_terms
    guard = []

    def recording(case, e, x_mag, y_mag, cos_angle):
        if x_mag == 7.0:
            guard.append((y_mag, cos_angle))
        return raw(case, e, x_mag, y_mag, cos_angle)

    monkeypatch.setattr(critical, "_raw_terms", recording)
    for case, e in C08_CASES + _DEFAULT_CASES:
        best, y7, c7 = _meshgrid_C_estimate(case, e, samples)
        guard.clear()
        assert elementary_C_estimate(case, e, samples) == best, (case, e)
        (got_y, got_c), = guard
        assert got_y.tobytes() == y7.tobytes() and got_c.tobytes() == c7.tobytes()
    with pytest.raises(ScalingGuardFailure, match="scaling guard has no"):
        elementary_C_estimate(1, 2.5, 1)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_elementary_ratio_scale_free(y, cos_angle, lam):
    lhs, rhs = elementary_terms(2, 4.0, 1.0, y, cos_angle)
    lhs2, rhs2 = elementary_terms(2, 4.0, lam, lam * y, cos_angle)
    # skip cancellation-dominated points; the clean ones must match
    if float(lhs) > 1e-6 * (1.0 + y) ** 4:
        assert float(lhs2) / float(rhs2) == pytest.approx(
            float(lhs) / float(rhs), rel=1e-8
        )
