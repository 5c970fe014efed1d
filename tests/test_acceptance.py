"""End-to-end acceptance gate: checked-in configs through the CLI runner.

Each test pins one release criterion to the ledger records produced by the
configs under configs/acceptance/.  The suite runs every config once in a
module fixture; the determinism test reruns the lot and compares digests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cknlab.cli import run_experiment
from cknlab.critical import elementary_terms, radial_dual_norm
from cknlab.fields import gaussian_bump_profile, make_radial_grid
from cknlab.functionals import weighted_grad_pnorm
from cknlab.manifold import canonical_profile
from cknlab.params import derive_params
from cknlab.stability import embedding_check, mollified_bubble

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

# spectral stability is judged against a doubled grid, realized through the
# strict tolerance profile; every other config runs on the fast profile
PROFILES = {"c06_spectral": ("fast", "strict")}


def _run_all(ledger_path):
    records = {}
    for cfg in CONFIGS:
        for profile in PROFILES.get(cfg.stem, ("fast",)):
            rec = run_experiment(
                str(cfg), ledger_path=str(ledger_path), threads=4, tol_profile=profile
            )
            records[(rec.experiment, profile)] = rec
    return records


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    ledger = root / "ledger.jsonl"
    records = _run_all(ledger)
    return {"ledger": ledger, "records": records, "root": root}


def _rec(suite, experiment, profile="fast"):
    return suite["records"][(experiment, profile)]


# -- criterion 1: sharp constant, three routes, ten tuples ------------------


def test_sharp_constant_three_way_agreement(suite):
    rec = _rec(suite, "acc-constants")
    assert rec.outputs["violations"] == []
    closed = rec.outputs["S_closed"]
    ratio = rec.outputs["S_ratio_law"]
    rayleigh = rec.outputs["S_rayleigh"]
    assert len(closed) == 10
    for c, r, y in zip(closed, ratio, rayleigh):
        vals = (c, r, y)
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread <= 1e-6


# -- criterion 2: norm-preserving transport identities ----------------------


def test_transform_identities(suite):
    rec = _rec(suite, "acc-transforms")
    assert rec.outputs["violations"] == []
    assert len(rec.outputs["labels"]) == 16  # 2 tuples x (5 radial + 3 axisym)
    assert max(rec.outputs["q_norm_residual"]) <= 1e-8
    assert max(rec.outputs["grad_identity_residual"]) <= 1e-8
    assert min(rec.outputs["k_drop_gap"]) >= -1e-12


# -- criterion 3: manifold points are extremal ------------------------------


def test_extremal_deficit_and_stationarity(suite):
    rec = _rec(suite, "acc-extremals")
    assert rec.outputs["violations"] == []
    deficits = [d for row in rec.outputs["deficit"] for d in row]
    assert len(deficits) >= 10
    assert max(abs(d) for d in deficits) <= 1e-6
    duals = [r for row in rec.outputs["dual_residual"] for r in row if r is not None]
    assert duals and max(duals) <= 1e-5


# -- criterion 4: stability ratio positive, deficit exponent ----------------


def test_stability_scan_positive(suite):
    for name in ("acc-scan", "acc-scan-equal-weights"):
        rec = _rec(suite, name)
        assert rec.outputs["violations"] == []
        for bound, used in zip(rec.outputs["bound"], rec.outputs["used"]):
            assert bound > 0.0
            assert used >= 25  # a few samples may fall below the distance gate


def test_deficit_exponent_slopes(suite):
    wide = _rec(suite, "acc-slope-wide")
    assert wide.outputs["violations"] == []
    assert wide.outputs["expected"] == 2.5
    assert abs(wide.outputs["slope"] - 2.5) <= 0.25

    flat = _rec(suite, "acc-slope-flat")
    assert flat.outputs["violations"] == []
    assert flat.outputs["expected"] == 2.0
    assert abs(flat.outputs["slope"] - 2.0) <= 0.2

    # equal-weight case: the quadratic coefficient may vanish, so the slope
    # is recorded without an assertion; the run itself must stay clean
    rec = _rec(suite, "acc-slope-recorded")
    assert rec.outputs["violations"] == []
    assert rec.outputs["expected"] == 6.0
    assert math.isfinite(rec.outputs["slope"])


# -- criterion 5: weight-monotonicity chain ---------------------------------


def test_monotonicity_chain(suite):
    rec = _rec(suite, "acc-chain")
    assert rec.outputs["violations"] == []
    labels = rec.outputs["labels"]
    gaps = rec.outputs["grad_chain_gap"]
    assert len(labels) == 10
    assert max(rec.outputs["qnorm_residual"]) <= 1e-8
    assert max(rec.outputs["grad_identity_residual"]) <= 1e-8
    assert min(rec.outputs["k_drop_gap"]) >= -1e-12
    for label, gap in zip(labels, gaps):
        idx = int(label.split("fields[")[1][:-1])
        if idx <= 5:  # radial entries: chain collapses to equality
            assert abs(gap) <= 1e-8
        else:
            assert gap > 1e-8


# -- criterion 6: spectral gap with grid-doubling stability -----------------


def test_spectral_gap_floor_and_doubling(suite):
    fast = _rec(suite, "acc-spectral", "fast")
    strict = _rec(suite, "acc-spectral", "strict")
    assert fast.outputs["violations"] == []
    assert strict.outputs["violations"] == []
    m_fast = fast.outputs["min_ratio"]
    m_strict = strict.outputs["min_ratio"]
    assert fast.outputs["half_ratio"] >= m_fast
    assert strict.outputs["half_ratio"] >= m_strict
    assert m_fast > 1.0 and m_strict > 1.0
    assert abs(m_strict - m_fast) / m_fast <= 0.02


# -- criterion 7: residual scalings in the eps sweep ------------------------


def test_residual_scaling_slopes(suite):
    rec = _rec(suite, "acc-residual-scalings")
    assert rec.outputs["violations"] == []
    p = rec.outputs["tuple"][1]
    assert abs(rec.outputs["slope_Q"] - 2.0) <= 0.2
    assert abs(rec.outputs["slope_N"] - p) <= 0.1 * p
    assert abs(rec.outputs["slope_residual_rho"] - 2.0) <= 0.3


def test_far_perturbation_residual_slope():
    # translation-free weights: a far-out bump leaves the linearization of
    # the flux term, so the residual is governed by the p-homogeneous part
    # and its exact dual norm must scale like eps^(p-1)
    ps = derive_params(5, 3.0, 0.0, 0.3)
    grid = make_radial_grid(-30.0, 40.0, 1536)
    v = canonical_profile(ps, grid)
    bump = gaussian_bump_profile(grid, ps.n, 33.0, 0.8)
    far = (1.0 / weighted_grad_pnorm(bump, ps) ** (1.0 / ps.p)) * bump
    eps_list = np.logspace(-3.25, -1.75, 5)
    norms = [radial_dual_norm(v + eps * far, ps) for eps in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    target = ps.p - 1.0
    assert abs(slope - target) <= 0.1 * target


# -- criterion 8: pointwise inequality constants ----------------------------


def test_elementary_constants_stabilize(suite):
    rec = _rec(suite, "acc-inequalities")
    assert rec.outputs["violations"] == []
    assert len(rec.outputs["cases"]) == 12
    assert max(rec.outputs["doubling_rel"]) <= 1e-2
    assert all(c > 0.0 and math.isfinite(c) for c in rec.outputs["C"])


def test_elementary_joint_scaling_invariance():
    rng = np.random.default_rng(3)
    for case, expo in ((1, 2.5), (4, 3.5), (5, 2.9)):
        x = rng.uniform(0.3, 2.0, 64)
        y = rng.uniform(0.3, 2.0, 64)
        cos = rng.uniform(-1.0, 1.0, 64)
        lhs, rhs = elementary_terms(case, expo, x, y, cos)
        lhs_s, rhs_s = elementary_terms(case, expo, 7.0 * x, 7.0 * y, cos)
        keep = lhs > 1e-6 * rhs  # skip cancellation-dominated points
        ratio = lhs[keep] / rhs[keep]
        ratio_s = lhs_s[keep] / rhs_s[keep]
        assert float(np.max(np.abs(ratio_s - ratio) / ratio)) <= 1e-10


# -- criterion 9: ball embedding constants ----------------------------------


def test_embedding_constants_positive(suite):
    rec = _rec(suite, "acc-embedding")
    assert rec.outputs["violations"] == []
    assert len(rec.outputs["kbar_grad"]) == 10
    assert min(rec.outputs["kbar_grad"]) > 0.0
    assert min(rec.outputs["kbar_value"]) > 0.0
    small = _rec(suite, "acc-embedding-shrunk")
    assert small.outputs["violations"] == []
    assert min(small.outputs["kbar_grad"]) > 0.0
    assert min(small.outputs["kbar_value"]) > 0.0


def test_embedding_constant_zero_homogeneous():
    ps = derive_params(4, 2.5, 0.2, 0.5)
    grid = make_radial_grid(-40.0, 0.0, 1024)
    u = mollified_bubble(ps, 1.0, grid=grid)
    for variant in ("grad", "value"):
        k1 = embedding_check(u, ps, 1.0, variant)
        k3 = embedding_check(3.0 * u, ps, 1.0, variant)
        assert abs(k3 - k1) / k1 <= 1e-8


# -- criterion 10: rerunning the suite is bit-identical ---------------------


def test_determinism_bit_identical_rerun(suite):
    rerun_ledger = suite["root"] / "rerun.jsonl"
    second = _run_all(rerun_ledger)
    first = suite["records"]
    assert set(second) == set(first)
    for key in first:
        assert second[key].inputs_digest == first[key].inputs_digest, key
        assert second[key].outputs_digest == first[key].outputs_digest, key

    # digest discipline extends to the serialized ledger lines themselves
    strip = lambda line: {
        k: v for k, v in json.loads(line).items() if k != "timestamp"
    }
    a = [strip(l) for l in suite["ledger"].read_text().splitlines()]
    b = [strip(l) for l in rerun_ledger.read_text().splitlines()]
    assert a == b
