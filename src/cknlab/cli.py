"""Batch front-end: experiment configs in, ledger records and CSV out.

One JSON config describes one experiment: which operation, which
parameter tuples, which grid and family, which tolerances.  Running it
appends a line-delimited record to the ledger and drops a flat CSV of
the outputs next to it.  Records carry content digests of both the
inputs and the outputs, so determinism is checkable by diffing digests
across re-runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__
from .critical import (
    alternative_check,
    dual_norm_estimate,
    elementary_C_estimate,
    spectral_gap_ratio,
    expansion_quantities,
)
from .errors import (
    CknError,
    ConfigError,
    DegenerateFit,
    LedgerCorrupt,
    OptimizerStall,
    RootFindFailure,
    ScalingGuardFailure,
)
from .fields import gaussian_bump_profile, make_radial_grid, modulated_axisym
from .functionals import deficit, grad_norm, q_norm, weighted_grad_pnorm
from .manifold import (
    canonical_bubble,
    canonical_profile,
    manifold_distance,
    mu_rho_decompose,
    orthogonalize,
)
from .params import derive_hat_params, derive_params, sharp_constant
from .stability import (
    GeneratorSpec,
    alpha_exponent,
    embedding_check,
    exponent_slope_fit,
    k_upper_scan,
    mollified_bubble,
    monotonicity_chain_check,
    perturbed_bubble,
)
from .transforms import flat_params, transform_identity_check

__all__ = [
    "ExperimentConfig",
    "ResultRecord",
    "load_config",
    "run_experiment",
    "report",
    "main",
]

LEDGER_ENV = "CKNLAB_LEDGER"
DEFAULT_LEDGER = "ckn_ledger.jsonl"
DEFAULT_GRID = (-30.0, 30.0, 1024)

# failures of the numerics themselves, as opposed to bad inputs
NUMERICAL_ERRORS = (RootFindFailure, OptimizerStall, DegenerateFit, ScalingGuardFailure)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    operation: str
    params: tuple  # tuples (n, p, a, b)
    grid: tuple  # (t_min, t_max, count)
    family: Optional[GeneratorSpec]
    tolerances: dict
    seed: int
    options: dict


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    operation: str
    module: str
    timestamp: str
    version: str
    inputs_digest: str
    outputs_digest: str
    outputs: dict


# ---------------------------------------------------------------------------
# config parsing

_TOP_KEYS = {
    "experiment": str,
    "operation": str,
    "params": list,
    "grid": list,
    "family": dict,
    "tolerances": dict,
    "seed": int,
    "options": dict,
}
_FAMILY_KEYS = {"name": str, "seed": int, "options": dict}


def _reject_unknown(mapping: dict, allowed: dict, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
        want = allowed[key]
        if want is int:
            if not isinstance(mapping[key], int) or isinstance(mapping[key], bool):
                raise ConfigError(f"{path}.{key} must be an integer")
        elif not isinstance(mapping[key], want):
            raise ConfigError(f"{path}.{key} must be {want.__name__}")


def _parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("experiment", "operation"):
        if key not in raw:
            raise ConfigError(f"missing key config.{key}")
    operation = raw["operation"]
    if operation not in OPERATIONS:
        raise ConfigError(f"config.operation: unknown operation {operation!r}")

    tuples = []
    for i, item in enumerate(raw.get("params", [])):
        if isinstance(item, dict):
            for key in item:
                if key not in ("n", "p", "a", "b"):
                    raise ConfigError(f"unknown key config.params[{i}].{key}")
            for key in ("n", "p", "a", "b"):
                if key not in item:
                    raise ConfigError(f"missing key config.params[{i}].{key}")
            item = [item["n"], item["p"], item["a"], item["b"]]
        if not isinstance(item, list) or len(item) != 4:
            raise ConfigError(f"config.params[{i}] must be [n, p, a, b]")
        for j, entry in enumerate(item):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ConfigError(f"config.params[{i}][{j}] must be a number")
        tuples.append((int(item[0]), float(item[1]), float(item[2]), float(item[3])))
    if not tuples and operation in _NEEDS_PARAMS:
        raise ConfigError("missing key config.params")

    grid_raw = raw.get("grid", list(DEFAULT_GRID))
    if len(grid_raw) != 3:
        raise ConfigError("config.grid must be [t_min, t_max, count]")
    grid = (float(grid_raw[0]), float(grid_raw[1]), int(grid_raw[2]))

    family = None
    if "family" in raw:
        _reject_unknown(raw["family"], _FAMILY_KEYS, "config.family")
        if "name" not in raw["family"]:
            raise ConfigError("missing key config.family.name")
        family = GeneratorSpec(
            family=raw["family"]["name"],
            seed=raw["family"].get("seed", 0),
            options=raw["family"].get("options", {}),
        )

    tolerances = raw.get("tolerances", {})
    for key, val in tolerances.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"config.tolerances.{key} must be a number")

    return ExperimentConfig(
        experiment=raw["experiment"],
        operation=operation,
        params=tuple(tuples),
        grid=grid,
        family=family,
        tolerances=dict(tolerances),
        seed=raw.get("seed", 0),
        options=dict(raw.get("options", {})),
    )


def load_config(config_path: str) -> ExperimentConfig:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return _parse_config(raw)


def _check_options(options: dict, allowed: set, operation: str) -> None:
    for key in options:
        if key not in allowed:
            raise ConfigError(f"unknown key config.options.{key} for {operation}")


# ---------------------------------------------------------------------------
# shared builders


@dataclass(frozen=True)
class _RunContext:
    seed: int
    threads: int
    grid_factor: int  # strict profile doubles the radial resolution


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _build_grid(cfg: ExperimentConfig, ctx: _RunContext):
    t_min, t_max, count = cfg.grid
    return make_radial_grid(t_min, t_max, count * ctx.grid_factor)


def _field_from_spec(spec: dict, ps, grid, idx: int):
    allowed = {"kind", "center", "width", "cos_coeff"}
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"unknown key config.options.fields[{idx}].{key}")
    kind = spec.get("kind", "radial")
    center = float(spec.get("center", 0.5))
    width = float(spec.get("width", 1.0))
    prof = gaussian_bump_profile(grid, ps.n, center, width)
    if kind == "radial":
        return prof
    if kind == "axisym":
        return modulated_axisym(prof, cos_coeff=float(spec.get("cos_coeff", 0.3)))
    raise ConfigError(f"config.options.fields[{idx}].kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# operation handlers: cfg, ctx -> (outputs, violations)


def _op_constants(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, set(), "constants")
    rtol = cfg.tolerances.get("pair_rtol", 1e-6)
    grid = _build_grid(cfg, ctx)

    def one(tup):
        ps = derive_params(*tup)
        s_closed = sharp_constant(ps)
        flat = flat_params(ps)
        s_ratio_law = ps.k ** (1.0 / ps.p - 1.0 - 1.0 / ps.q) * sharp_constant(flat)
        v = canonical_profile(ps, grid)
        s_rayleigh = grad_norm(v, ps) / q_norm(v, ps)
        return ps, s_closed, s_ratio_law, s_rayleigh

    rows = _map_ordered(one, list(cfg.params), ctx.threads)
    outputs = {
        "tuples": [list(t) for t in cfg.params],
        "q": [float(r[0].q) for r in rows],
        "gamma": [float(r[0].gamma) for r in rows],
        "k": [float(r[0].k) for r in rows],
        "S_closed": [float(r[1]) for r in rows],
        "S_ratio_law": [float(r[2]) for r in rows],
        "S_rayleigh": [float(r[3]) for r in rows],
        "alpha": [float(alpha_exponent(r[0])) for r in rows],
    }
    violations = []
    for i, (_, sc, sr, sq) in enumerate(rows):
        worst = max(abs(sc - sr), abs(sc - sq), abs(sr - sq)) / sc
        if worst > rtol:
            violations.append(
                f"params[{i}]: sharp-constant routes disagree ({worst:.3e} > {rtol:.1e})"
            )
    return outputs, violations


def _op_transform_check(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, {"fields"}, "transform-check")
    tol = cfg.tolerances.get("identity_tol", 1e-8)
    grid = _build_grid(cfg, ctx)
    specs = cfg.options.get("fields", [{"kind": "radial"}])

    q_res, g_res, drops, labels = [], [], [], []
    violations = []
    for i, tup in enumerate(cfg.params):
        ps = derive_params(*tup)
        for j, spec in enumerate(specs):
            u = _field_from_spec(spec, ps, grid, j)
            rep = transform_identity_check(u, ps)
            label = f"params[{i}]/fields[{j}]"
            labels.append(label)
            q_res.append(float(rep.q_norm_residual))
            g_res.append(float(rep.grad_identity_residual))
            drops.append(float(rep.k_drop_gap))
            if rep.q_norm_residual > tol:
                violations.append(f"{label}: q-norm residual {rep.q_norm_residual:.3e}")
            if rep.grad_identity_residual > tol:
                violations.append(
                    f"{label}: gradient identity residual {rep.grad_identity_residual:.3e}"
                )
            if rep.k_drop_gap < -1e-12:
                violations.append(f"{label}: negative angular drop {rep.k_drop_gap:.3e}")
    outputs = {
        "labels": labels,
        "q_norm_residual": q_res,
        "grad_identity_residual": g_res,
        "k_drop_gap": drops,
    }
    return outputs, violations


def _op_project(cfg: ExperimentConfig, ctx: _RunContext):
    allowed = {"eps", "center", "width", "bubbles", "dual_basis"}
    _check_options(cfg.options, allowed, "project")
    grid = _build_grid(cfg, ctx)
    if "bubbles" in cfg.options:
        return _project_exact_bubbles(cfg, grid)
    eps = float(cfg.options.get("eps", 1e-2))
    center = float(cfg.options.get("center", 0.5))
    width = float(cfg.options.get("width", 1.0))

    dists, mus, rho_rel, tang = [], [], [], []
    for tup in cfg.params:
        ps = derive_params(*tup)
        u = perturbed_bubble(ps, grid, eps, center, width)
        dist, bub = manifold_distance(u, ps)
        dec = mu_rho_decompose(u, bub, ps)
        unorm = weighted_grad_pnorm(u, ps) ** (1.0 / ps.p)
        rn = weighted_grad_pnorm(dec.rho, ps) ** (1.0 / ps.p)
        dists.append(float(dist))
        mus.append(float(dec.mu))
        rho_rel.append(float(rn / unorm))
        tang.append(float(max(abs(t) for t in dec.tangent_residuals)))
    outputs = {
        "tuples": [list(t) for t in cfg.params],
        "distance": dists,
        "mu": mus,
        "rho_rel_norm": rho_rel,
        "max_tangent_residual": tang,
    }
    return outputs, []


def _project_exact_bubbles(cfg: ExperimentConfig, grid):
    """Deficit and dual residual on exact manifold points (scaled bubbles)."""
    bubbles = [(float(lam), float(amp)) for lam, amp in cfg.options["bubbles"]]
    for i, (lam, _) in enumerate(bubbles):
        if not lam > 0.0:
            raise ConfigError(
                f"config.options.bubbles[{i}]: lam must be positive, got {lam}"
            )
    basis_size = int(cfg.options.get("dual_basis", 8))
    deficit_tol = float(cfg.tolerances.get("deficit_tol", 1e-6))
    dual_tol = float(cfg.tolerances.get("dual_tol", 1e-5))

    defs, duals, violations = [], [], []
    for i, tup in enumerate(cfg.params):
        ps = derive_params(*tup)
        row_d, row_r = [], []
        for lam, amp in bubbles:
            u = amp * canonical_profile(ps, grid, lam)
            d = float(deficit(u, ps))
            row_d.append(d)
            if abs(d) > deficit_tol:
                violations.append(
                    f"params[{i}] lam={lam:g} amp={amp:g}: deficit {d:.3e}"
                )
            # the residual functional is stationarity-based, so only the
            # normalized representative amp == 1 is expected to annihilate it
            if amp == 1.0:
                r = float(dual_norm_estimate(u, ps, basis_size).value)
                row_r.append(r)
                if r > dual_tol:
                    violations.append(
                        f"params[{i}] lam={lam:g}: dual residual {r:.3e}"
                    )
            else:
                row_r.append(None)
        defs.append(row_d)
        duals.append(row_r)
    outputs = {
        "tuples": [list(t) for t in cfg.params],
        "bubbles": [list(b) for b in bubbles],
        "deficit": defs,
        "dual_residual": duals,
    }
    return outputs, violations


def _op_stability_scan(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, {"samples"}, "stability-scan")
    if cfg.family is None:
        raise ConfigError("missing key config.family for stability-scan")
    samples = int(cfg.options.get("samples", 30))
    if samples < 1:
        raise ConfigError(f"config.options.samples must be >= 1, got {samples}")

    def one(tup):
        ps = derive_params(*tup)
        return k_upper_scan(cfg.family, ps, sample_count=samples)

    scans = _map_ordered(one, list(cfg.params), ctx.threads)
    outputs = {
        "tuples": [list(t) for t in cfg.params],
        "bound": [float(s.bound) for s in scans],
        "alpha": [float(s.alpha) for s in scans],
        "used": [int(s.used_count) for s in scans],
        "skipped": [int(s.skipped_count) for s in scans],
        "minimizer_tag": [s.minimizer.family_tag for s in scans],
        "caveat": [bool(s.caveat) for s in scans],
    }
    violations = []
    for i, s in enumerate(scans):
        if s.bound <= 0.0:
            violations.append(f"params[{i}]: nonpositive stability ratio {s.bound:.3e}")
    return outputs, violations


def _op_slope_fit(cfg: ExperimentConfig, ctx: _RunContext):
    allowed = {
        "eps_start",
        "eps_stop",
        "eps_count",
        "center",
        "width",
        "assert_slope",
        "expected",
    }
    _check_options(cfg.options, allowed, "slope-fit")
    rtol = cfg.tolerances.get("slope_rtol", 0.1)
    ps = derive_params(*cfg.params[0])
    grid = _build_grid(cfg, ctx)
    eps = np.logspace(
        math.log10(float(cfg.options.get("eps_start", 2.5e-3))),
        math.log10(float(cfg.options.get("eps_stop", 1e-1))),
        int(cfg.options.get("eps_count", 6)),
    )
    bump = gaussian_bump_profile(
        grid,
        ps.n,
        float(cfg.options.get("center", 10.0)),
        float(cfg.options.get("width", 1.0)),
    )
    fit = exponent_slope_fit(ps, eps, bump)
    expected = float(cfg.options.get("expected", alpha_exponent(ps)))
    outputs = {
        "tuple": list(cfg.params[0]),
        "slope": float(fit.slope),
        "intercept": float(fit.intercept),
        "expected": expected,
        "plot_x": [float(math.log10(d)) for d in fit.distances],
        "plot_y": [float(math.log10(d)) for d in fit.deficits],
    }
    violations = []
    if bool(cfg.options.get("assert_slope", True)):
        if abs(fit.slope - expected) > rtol * expected:
            violations.append(
                f"slope {fit.slope:.4f} not within {rtol:.0%} of {expected:.4f}"
            )
    return outputs, violations


def _op_chain_check(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, {"base", "fields"}, "chain-check")
    if "base" not in cfg.options:
        raise ConfigError("missing key config.options.base for chain-check")
    base_raw = cfg.options["base"]
    if not isinstance(base_raw, list) or len(base_raw) != 4:
        raise ConfigError("config.options.base must be [n, p, a, b]")
    base = derive_params(int(base_raw[0]), *map(float, base_raw[1:]))
    qtol = cfg.tolerances.get("qnorm_tol", 1e-8)
    gap_floor = cfg.tolerances.get("gap_floor", 1e-8)
    grid = _build_grid(cfg, ctx)
    specs = cfg.options.get("fields", [{"kind": "radial"}])

    labels, gaps, q_res, nus, hs = [], [], [], [], []
    violations = []
    for i, tup in enumerate(cfg.params):
        target = derive_params(*tup)
        hp = derive_hat_params(base, target)
        for j, spec in enumerate(specs):
            u = _field_from_spec(spec, target, grid, j)
            rec = monotonicity_chain_check(u, hp)
            scale = weighted_grad_pnorm(u, target)
            label = f"params[{i}]/fields[{j}]"
            labels.append(label)
            gaps.append(float(rec.grad_chain_gap))
            q_res.append(float(rec.qnorm_residual))
            nus.append(float(rec.nu))
            hs.append(float(hp.h))
            if rec.qnorm_residual > qtol:
                violations.append(f"{label}: q-norm residual {rec.qnorm_residual:.3e}")
            if rec.grad_chain_gap < -gap_floor * scale:
                violations.append(f"{label}: chain gap {rec.grad_chain_gap:.3e} below floor")
    outputs = {
        "labels": labels,
        "grad_chain_gap": gaps,
        "qnorm_residual": q_res,
        "nu": nus,
        "h": hs,
    }
    return outputs, violations


def _op_embedding_check(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, {"radius", "lam"}, "embedding-check")
    radius = float(cfg.options.get("radius", 1.0))
    if not radius > 0.0:
        raise ConfigError(f"config.options.radius must be positive, got {radius}")
    lam = float(cfg.options.get("lam", 1.0))
    if not lam > 0.0:
        raise ConfigError(f"config.options.lam must be positive, got {lam}")

    kbar_grad, kbar_value = [], []
    violations = []
    for i, tup in enumerate(cfg.params):
        ps = derive_params(*tup)
        t_min, _, count = cfg.grid
        u = mollified_bubble(
            ps,
            radius,
            grid=make_radial_grid(t_min, math.log(radius), count * ctx.grid_factor),
            lam=lam,
        )
        kg = embedding_check(u, ps, radius, "grad")
        kv = embedding_check(u, ps, radius, "value")
        kbar_grad.append(float(kg))
        kbar_value.append(float(kv))
        if kg <= 0.0:
            violations.append(f"params[{i}]: grad-variant constant {kg:.3e} <= 0")
        if kv <= 0.0:
            violations.append(f"params[{i}]: value-variant constant {kv:.3e} <= 0")
    outputs = {
        "tuples": [list(t) for t in cfg.params],
        "kbar_grad": kbar_grad,
        "kbar_value": kbar_value,
    }
    return outputs, violations


def _op_spectral_gap(cfg: ExperimentConfig, ctx: _RunContext):
    allowed = {"count", "center_lo", "center_hi", "width_lo", "width_hi"}
    _check_options(cfg.options, allowed, "spectral-gap")
    floor = cfg.tolerances.get("ratio_floor", 1.0)
    ps = derive_params(*cfg.params[0])
    grid = _build_grid(cfg, ctx)
    bub = canonical_bubble(ps)
    count = int(cfg.options.get("count", 20))
    if count < 1:
        raise ConfigError(f"config.options.count must be >= 1, got {count}")
    rng = np.random.default_rng(ctx.seed)
    centers = rng.uniform(
        float(cfg.options.get("center_lo", -3.0)),
        float(cfg.options.get("center_hi", 3.0)),
        count,
    )
    widths = rng.uniform(
        float(cfg.options.get("width_lo", 0.5)),
        float(cfg.options.get("width_hi", 1.5)),
        count,
    )

    def one(cw):
        rho = orthogonalize(gaussian_bump_profile(grid, ps.n, cw[0], cw[1]), bub, ps)
        return float(spectral_gap_ratio(bub, rho, ps).ratio)

    ratios = _map_ordered(one, list(zip(centers, widths)), ctx.threads)
    outputs = {
        "tuple": list(cfg.params[0]),
        "ratios": ratios,
        "min_ratio": float(min(ratios)),
    }
    violations = []
    if min(ratios) <= floor:
        violations.append(f"min spectral ratio {min(ratios):.4f} <= {floor}")
    return outputs, violations


def _op_expansion_slopes(cfg: ExperimentConfig, ctx: _RunContext):
    allowed = {
        "eps_start",
        "eps_stop",
        "eps_count",
        "center",
        "width",
        "basis_size",
        "distance_gate",
    }
    _check_options(cfg.options, allowed, "expansion-slopes")
    ps = derive_params(*cfg.params[0])
    grid = _build_grid(cfg, ctx)
    eps_stop = float(cfg.options.get("eps_stop", 1e-1))
    eps = np.logspace(
        math.log10(float(cfg.options.get("eps_start", 1e-3))),
        math.log10(eps_stop),
        int(cfg.options.get("eps_count", 7)),
    )
    center = float(cfg.options.get("center", 0.5))
    width = float(cfg.options.get("width", 0.7))
    basis = int(cfg.options.get("basis_size", 8))
    # sweep fields sit at distance ~ eps, so the gate follows the sweep top
    gate = float(cfg.options.get("distance_gate", 2.0 * eps_stop))

    qs, ns, resids = [], [], []
    for e in eps:
        u = perturbed_bubble(ps, grid, float(e), center, width)
        rep = expansion_quantities(u, ps, distance_gate=gate, basis_size=basis)
        qs.append(float(rep.Q))
        ns.append(float(rep.N))
        resids.append(float(rep.residual_pairing_norm))
    loge = np.log(eps)
    slope_q = float(np.polyfit(loge, np.log(qs), 1)[0])
    slope_n = float(np.polyfit(loge, np.log(ns), 1)[0])
    prod = [r * n ** (1.0 / ps.p) for r, n in zip(resids, ns)]
    slope_prod = float(np.polyfit(loge, np.log(prod), 1)[0])
    outputs = {
        "tuple": list(cfg.params[0]),
        "eps": [float(e) for e in eps],
        "Q": qs,
        "N": ns,
        "residual": resids,
        "slope_Q": slope_q,
        "slope_N": slope_n,
        "slope_residual_rho": slope_prod,
    }
    violations = []
    if "q_slope_rtol" in cfg.tolerances:
        if abs(slope_q - 2.0) > cfg.tolerances["q_slope_rtol"] * 2.0:
            violations.append(f"Q slope {slope_q:.4f} away from 2")
    if "n_slope_rtol" in cfg.tolerances:
        if abs(slope_n - ps.p) > cfg.tolerances["n_slope_rtol"] * ps.p:
            violations.append(f"N slope {slope_n:.4f} away from p={ps.p}")
    if "prod_slope_rtol" in cfg.tolerances:
        if abs(slope_prod - 2.0) > cfg.tolerances["prod_slope_rtol"] * 2.0:
            violations.append(f"residual*rho slope {slope_prod:.4f} away from 2")
    return outputs, violations


def _op_alt_check(cfg: ExperimentConfig, ctx: _RunContext):
    allowed = {"c1", "C1", "eps", "center", "width", "basis_size", "t_count"}
    _check_options(cfg.options, allowed, "alt-check")
    ps = derive_params(*cfg.params[0])
    grid = _build_grid(cfg, ctx)
    u = perturbed_bubble(
        ps,
        grid,
        float(cfg.options.get("eps", 5e-2)),
        float(cfg.options.get("center", 0.5)),
        float(cfg.options.get("width", 0.7)),
    )
    rep = alternative_check(
        u,
        ps,
        float(cfg.options.get("c1", 1.0)),
        float(cfg.options.get("C1", 2.0)),
        t_count=int(cfg.options.get("t_count", 2)),
        basis_size=int(cfg.options.get("basis_size", 4)),
    )
    outputs = {
        "tuple": list(cfg.params[0]),
        "branch": rep.branch,
        "A_u": None if rep.A_u is None else float(rep.A_u),
        "eta": float(rep.eta),
        "kappa": "inf" if math.isinf(rep.kappa) else float(rep.kappa),
        "interval": [float(rep.interval[0]), float(rep.interval[1])],
        "t_grid": [float(t) for t in rep.t_grid],
    }
    violations = []
    if rep.branch != "degenerate" and not math.isinf(rep.kappa) and rep.kappa <= 0.0:
        violations.append(f"nonpositive kappa {rep.kappa:.3e}")
    return outputs, violations


def _op_ineq_const(cfg: ExperimentConfig, ctx: _RunContext):
    _check_options(cfg.options, {"cases", "samples"}, "ineq-const")
    rtol = cfg.tolerances.get("doubling_rtol", 1e-2)
    samples = int(cfg.options.get("samples", 200))
    cases_raw = cfg.options.get(
        "cases",
        [[1, 2.5], [2, 4.0], [3, 2.5], [4, 4.0], [5, 2.5], [6, 4.0]],
    )
    cases = []
    for i, item in enumerate(cases_raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"config.options.cases[{i}] must be [case, exponent]")
        if item[0] not in range(1, 7):
            raise ConfigError(
                f"config.options.cases[{i}]: case must be 1..6, got {item[0]}"
            )
        cases.append((int(item[0]), float(item[1])))

    def one(ce):
        c_base = elementary_C_estimate(ce[0], ce[1], samples)
        c_double = elementary_C_estimate(ce[0], ce[1], 2 * samples)
        return c_base, c_double

    rows = _map_ordered(one, cases, ctx.threads)
    outputs = {
        "cases": [[c, e] for c, e in cases],
        "C": [float(r[0]) for r in rows],
        "C_doubled": [float(r[1]) for r in rows],
        "doubling_rel": [
            float(abs(r[1] - r[0]) / max(r[0], 1e-300)) for r in rows
        ],
    }
    violations = []
    for (c, e), (cb, cd) in zip(cases, rows):
        rel = abs(cd - cb) / max(cb, 1e-300)
        if rel > rtol:
            violations.append(f"case {c} e={e}: doubling drift {rel:.3e} > {rtol:.1e}")
    return outputs, violations


_NEEDS_PARAMS = {
    "constants",
    "transform-check",
    "project",
    "stability-scan",
    "slope-fit",
    "chain-check",
    "embedding-check",
    "spectral-gap",
    "expansion-slopes",
    "alt-check",
}

# operation name -> (home module of the work, handler)
OPERATIONS = {
    "constants": ("params", _op_constants),
    "transform-check": ("transforms", _op_transform_check),
    "project": ("manifold", _op_project),
    "stability-scan": ("stability", _op_stability_scan),
    "slope-fit": ("stability", _op_slope_fit),
    "chain-check": ("stability", _op_chain_check),
    "embedding-check": ("stability", _op_embedding_check),
    "spectral-gap": ("critical", _op_spectral_gap),
    "expansion-slopes": ("critical", _op_expansion_slopes),
    "alt-check": ("critical", _op_alt_check),
    "ineq-const": ("critical", _op_ineq_const),
}


# ---------------------------------------------------------------------------
# ledger plumbing


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _digest(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _config_payload(cfg: ExperimentConfig, tol_profile: str) -> dict:
    family = None
    if cfg.family is not None:
        family = {
            "name": cfg.family.family,
            "seed": cfg.family.seed,
            "options": cfg.family.options,
        }
    return {
        "experiment": cfg.experiment,
        "operation": cfg.operation,
        "params": [list(t) for t in cfg.params],
        "grid": list(cfg.grid),
        "family": family,
        "tolerances": cfg.tolerances,
        "seed": cfg.seed,
        "options": cfg.options,
        "tol_profile": tol_profile,
    }


def resolve_ledger(ledger_path: Optional[str]) -> str:
    if ledger_path:
        return ledger_path
    return os.environ.get(LEDGER_ENV, DEFAULT_LEDGER)


def _write_csv(record: ResultRecord, ledger_path: str) -> str:
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(ledger_path)), f"{record.experiment}.csv"
    )
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "name", "index", "value"])
        for name, value in sorted(record.outputs.items()):
            if isinstance(value, list):
                for i, item in enumerate(value):
                    writer.writerow([record.experiment, name, i, item])
            else:
                writer.writerow([record.experiment, name, "", value])
    return out_path


def run_experiment(
    config_path: str,
    ledger_path: Optional[str] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    tol_profile: str = "fast",
) -> ResultRecord:
    """Execute one config: dispatch, append to the ledger, write CSV."""
    if tol_profile not in ("fast", "strict"):
        raise ConfigError(f"unknown tol profile {tol_profile!r}")
    cfg = load_config(config_path)
    if seed is not None:
        cfg = ExperimentConfig(
            experiment=cfg.experiment,
            operation=cfg.operation,
            params=cfg.params,
            grid=cfg.grid,
            family=cfg.family,
            tolerances=cfg.tolerances,
            seed=seed,
            options=cfg.options,
        )
    module, handler = OPERATIONS[cfg.operation]
    ctx = _RunContext(
        seed=cfg.seed,
        threads=max(1, threads),
        grid_factor=2 if tol_profile == "strict" else 1,
    )
    try:
        outputs, violations = handler(cfg, ctx)
    except CknError as exc:
        raise type(exc)(f"{cfg.experiment}: {exc}") from exc
    outputs = dict(outputs)
    outputs["violations"] = violations

    inputs_payload = {
        "config": _config_payload(cfg, tol_profile),
        "version": __version__,
    }
    record = ResultRecord(
        experiment=cfg.experiment,
        operation=cfg.operation,
        module=module,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        version=__version__,
        inputs_digest=_digest(inputs_payload),
        outputs_digest=_digest(outputs),
        outputs=outputs,
    )
    ledger = resolve_ledger(ledger_path)
    ledger_dir = os.path.dirname(os.path.abspath(ledger))
    os.makedirs(ledger_dir, exist_ok=True)
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "experiment": record.experiment,
                    "operation": record.operation,
                    "module": record.module,
                    "timestamp": record.timestamp,
                    "version": record.version,
                    "inputs_digest": record.inputs_digest,
                    "outputs_digest": record.outputs_digest,
                    "outputs": record.outputs,
                },
                sort_keys=True,
            )
            + "\n"
        )
    _write_csv(record, ledger)
    return record


# ---------------------------------------------------------------------------
# report

_SUMMARY_COLS = (
    "experiment", "operation", "module", "timestamp", "inputs_digest", "outputs_digest"
)
_RECORD_KEYS = {*_SUMMARY_COLS, "version", "outputs"}
_FILTER_FIELDS = {"experiment", "operation", "module", "version"}


def _read_ledger(ledger_path: str) -> list:
    try:
        with open(ledger_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise LedgerCorrupt(f"ledger not found: {ledger_path}")
    records = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerCorrupt(f"line {i}: not valid JSON ({exc.msg})")
        if not isinstance(rec, dict) or not _RECORD_KEYS.issubset(rec):
            raise LedgerCorrupt(f"line {i}: missing record keys")
        records.append(rec)
    return records


def report(ledger_path: str, filter_expr: str = "") -> list:
    """Summarize the ledger into CSV and plain text; returns file paths.

    filter_expr is empty (keep everything) or "field=value" over
    experiment/operation/module/version.  Slope-fit records with
    plot_x/plot_y columns additionally get per-experiment plot CSVs.
    """
    records = _read_ledger(ledger_path)
    if filter_expr:
        if "=" not in filter_expr:
            raise ConfigError(f"filter must be field=value, got {filter_expr!r}")
        field, value = filter_expr.split("=", 1)
        if field not in _FILTER_FIELDS:
            raise ConfigError(f"filter field must be one of {sorted(_FILTER_FIELDS)}")
        records = [r for r in records if str(r.get(field)) == value]

    stem = os.path.splitext(os.path.abspath(ledger_path))[0]
    paths = []

    csv_path = f"{stem}_summary.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_SUMMARY_COLS, "violations"])
        for rec in records:
            violations = len(rec["outputs"].get("violations", []))
            writer.writerow([*(rec[c] for c in _SUMMARY_COLS), violations])
    paths.append(csv_path)

    txt_path = f"{stem}_summary.txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        header = f"{'experiment':24} {'operation':16} {'digest':12} violations"
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for rec in records:
            fh.write(
                f"{rec['experiment']:24} {rec['operation']:16} "
                f"{rec['outputs_digest'][:12]} "
                f"{len(rec['outputs'].get('violations', []))}\n"
            )
    paths.append(txt_path)

    for rec in records:
        out = rec["outputs"]
        if "plot_x" in out and "plot_y" in out:
            plot_path = f"{stem}_{rec['experiment']}_plot.csv"
            with open(plot_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "y"])
                for x, y in zip(out["plot_x"], out["plot_y"]):
                    writer.writerow([x, y])
            paths.append(plot_path)
    return paths


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn-lab", description="batch experiments over the inequality laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OPERATIONS:
        cmd = sub.add_parser(name, help=f"run a {name} config")
        cmd.add_argument("--config", required=True, help="experiment config path")
        cmd.add_argument("--ledger", default=None, help="ledger path override")
        cmd.add_argument("--threads", type=int, default=1)
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument(
            "--tol-profile", choices=("fast", "strict"), default="fast"
        )
    rep = sub.add_parser("report", help="summarize a ledger")
    rep.add_argument("--ledger", default=None, help="ledger path")
    rep.add_argument("--filter", default="", help="field=value filter")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            paths = report(resolve_ledger(args.ledger), args.filter)
            for path in paths:
                print(path)
            return 0
        cfg = load_config(args.config)
        if cfg.operation != args.command:
            raise ConfigError(
                f"config.operation is {cfg.operation!r} but the "
                f"{args.command} command was invoked"
            )
        record = run_experiment(
            args.config,
            ledger_path=args.ledger,
            seed=args.seed,
            threads=args.threads,
            tol_profile=args.tol_profile,
        )
        print(f"{record.experiment}: outputs digest {record.outputs_digest[:12]}")
        for line in record.outputs["violations"]:
            print(f"violation: {line}", file=sys.stderr)
        return 4 if record.outputs["violations"] else 0
    except (ConfigError, LedgerCorrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CknError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
