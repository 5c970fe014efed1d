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
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .critical import (
    dual_norm_estimate,
    elementary_C_estimate,
    expansion_quantities,
    radial_dual_norm,
    spectral_gap,
)
from .errors import (
    CknError,
    ConfigError,
    DegenerateFit,
    GammaMismatch,
    InvalidArgument,
    LedgerCorrupt,
    NonFiniteOutput,
    OptimizerStall,
    RegionViolation,
    RootFindFailure,
    ScalingGuardFailure,
)
from .fields import gaussian_bump_profile, make_radial_grid, modulated_axisym
from .functionals import deficit, grad_norm, q_norm
from .manifold import canonical_profile
from .params import CknParams, derive_hat_params, derive_params, sharp_constant
from .stability import (
    GeneratorSpec,
    alpha_exponent,
    bubble_perturbation,
    embedding_check,
    exponent_slope_fit,
    k_upper_scan,
    mollified_bubble,
    monotonicity_chain_check,
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
NUMERICAL_ERRORS = (
    RootFindFailure, OptimizerStall, DegenerateFit, ScalingGuardFailure, NonFiniteOutput
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    operation: str
    params: tuple  # tuples (n, p, a, b)
    grid: tuple  # (t_min, t_max, count)
    family: Optional[dict]  # name, seed and options as written
    tolerances: dict
    seed: int
    options: dict
    # the fields above, as written, alone feed the inputs digest; checked holds
    # what was read from them: options and tolerances with defaults filled in,
    # the family as a GeneratorSpec and each tuple as CknParams
    checked: SimpleNamespace = field(compare=False, repr=False)


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
# readers: (value, path) -> value, raising a ConfigError that names path

_REQUIRED = object()  # default of a key that must be present


def _number(value, path: str):
    """A finite int or float.

    json reads NaN, Infinity and ints past the float range, which no
    gate can use.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(f"{path} is an integer too large for a float") from None
    if not finite:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return value


def _real(value, path: str) -> float:
    return float(_number(value, path))


def _positive(value, path: str) -> float:
    value = _real(value, path)
    if not value > 0.0:
        raise ConfigError(f"{path} must be positive, got {value}")
    return value


def _count(lo: int, hi: float = math.inf):
    """Reader of an integer in lo..hi."""

    def read(value, path: str) -> int:
        if not isinstance(_number(value, path), int) or not lo <= value <= hi:
            raise ConfigError(f"{path} must be an integer in {lo}..{hi}, got {value!r}")
        return value

    return read


def _of_type(kind: type, name: str):
    def read(value, path: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{path} must be {name}, got {value!r}")
        return value

    return read


_flag = _of_type(bool, "true or false")
_string = _of_type(str, "a string")
_object = _of_type(dict, "an object")


def _list_of(read):
    """Reader of a list, item by item."""

    def read_list(value, path: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return read_list


def _items(*reads):
    """Reader of a list of exactly len(reads) items, item i read by reads[i]."""

    def read_list(value, path: str) -> tuple:
        if not isinstance(value, list) or len(value) != len(reads):
            raise ConfigError(f"{path} must be a list of {len(reads)} items, got {value!r}")
        return tuple(read(value[i], f"{path}[{i}]") for i, read in enumerate(reads))

    return read_list


def _read_keys(mapping: dict, table: dict, path: str) -> dict:
    """Read `mapping` against name -> (reader, default).

    Unknown keys are rejected with the allowed ones listed; a missing key
    takes its default, which goes through the reader too (None stays None).
    """
    unknown = sorted(set(mapping) - set(table))
    if unknown:
        allowed = ", ".join(sorted(table)) or "none"
        raise ConfigError(f"unknown key {path}.{unknown[0]} (allowed: {allowed})")
    out = {}
    for name, (read, default) in table.items():
        if name in mapping:
            out[name] = read(mapping[name], f"{path}.{name}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing key {path}.{name}")
        else:
            out[name] = None if default is None else read(default, f"{path}.{name}")
    return out


_TUPLE_KEYS = {key: (_number, _REQUIRED) for key in ("n", "p", "a", "b")}


def _params(value, path: str) -> CknParams:
    """[n, p, a, b], or the same as an object, inside the admissible region."""
    if isinstance(value, dict):
        value = list(_read_keys(value, _TUPLE_KEYS, path).values())
    try:
        return derive_params(*_items(_count(1), _real, _real, _real)(value, path))
    except RegionViolation as exc:
        raise ConfigError(f"{path}: {exc}") from None


# [t_min, t_max, count] in log radius; make_radial_grid takes 16 nodes or more
_grid = _items(_real, _real, _count(16))


def _ordered(window: tuple, path: str) -> tuple:
    if not window[0] < window[1]:
        raise ConfigError(f"{path}: need t_min < t_max, got {list(window[:2])}")
    return window


def _window(value, path: str) -> tuple:
    """A grid whose ends are both used: t_min < t_max."""
    return _ordered(_grid(value, path), path)


_bubble = _items(_positive, _real)  # [lam, amp]
_case = _items(_count(1, 6), _real)  # [case, exponent]


def _kind(value, path: str) -> str:
    if value not in ("radial", "axisym"):
        raise ConfigError(f"{path}: unknown kind {value!r}")
    return value


_FIELD_KEYS = {
    "kind": (_kind, "radial"),
    "center": (_real, 0.5),
    "width": (_real, 1.0),
    "cos_coeff": (_real, 0.3),
}


def _field_spec(value, path: str) -> SimpleNamespace:
    return SimpleNamespace(**_read_keys(_object(value, path), _FIELD_KEYS, path))


# ---------------------------------------------------------------------------
# config parsing


def _experiment(value, path: str) -> str:
    """A name that is also the stem of the CSV written beside the ledger."""
    if _string(value, path) in ("", ".", "..") or "/" in value or os.sep in value:
        raise ConfigError(f"{path} must be a plain file stem, got {value!r}")
    return value


def _operation(value, path: str) -> str:
    if _string(value, path) not in OPERATIONS:
        raise ConfigError(f"{path}: unknown operation {value!r}")
    return value


_pair = _items(_real, _real)

# family name -> its option readers; GeneratorSpec holds the defaults and
# checks the ranges
_FAMILIES = {
    "bubble_bump": {
        "window": (_window, None),
        "eps_log10": (_pair, None),
        "center": (_pair, None),
        "width": (_pair, None),
    },
}
_FAMILY_KEYS = {
    "name": (_string, _REQUIRED),
    "seed": (_count(0), 0),
    "options": (_object, {}),
}


def _family(value, path: str) -> dict:
    family = _read_keys(_object(value, path), _FAMILY_KEYS, path)
    if family["name"] not in _FAMILIES:
        raise ConfigError(f"{path}.name: unknown family {family['name']!r}")
    return family


_CONFIG_KEYS = {
    "experiment": (_experiment, _REQUIRED),
    "operation": (_operation, _REQUIRED),
    "params": (_list_of(_params), []),
    "grid": (_grid, list(DEFAULT_GRID)),
    "family": (_family, None),
    "tolerances": (_object, {}),
    "seed": (_count(0), 0),
    "options": (_object, {}),
}


def _parse_config(raw: dict) -> ExperimentConfig:
    """Read every section once, against the operation's tables."""
    written = _read_keys(_object(raw, "config"), _CONFIG_KEYS, "config")
    operation, params = written["operation"], tuple(written["params"])
    op = OPERATIONS[operation]
    if op.tuples == "none" and params:
        raise ConfigError(f"config.params: {operation} takes no parameter tuples")
    if op.tuples != "none" and not params:
        raise ConfigError("missing key config.params")
    if op.tuples == "one" and len(params) > 1:
        raise ConfigError(
            f"config.params: {operation} takes exactly one tuple, got {len(params)}"
        )
    tolerances = {name: (_number, default) for name, default in op.tolerances.items()}
    family = written["family"]
    if family is not None:
        keys = _FAMILIES[family["name"]]
        ranges = _read_keys(family["options"], keys, "config.family.options")
        set_ranges = {key: value for key, value in ranges.items() if value is not None}
        try:
            family = GeneratorSpec(family["name"], family["seed"], **set_ranges)
        except InvalidArgument as exc:
            raise ConfigError(f"config.family.options.{exc}") from None
    checked = SimpleNamespace(
        **_read_keys(written["options"], op.options, "config.options"),
        **_read_keys(written["tolerances"], tolerances, "config.tolerances"),
        family=family,
        params=params,
    )
    op.check(checked, written["grid"])
    tuples = tuple((ps.n, ps.p, ps.a, ps.b) for ps in params)  # the numbers as read
    return ExperimentConfig(**{**written, "params": tuples}, checked=checked)


def load_config(config_path: str) -> ExperimentConfig:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}")
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    return _parse_config(raw)


# ---------------------------------------------------------------------------
# shared builders


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _build_field(spec: SimpleNamespace, ps, grid):
    prof = gaussian_bump_profile(grid, ps.n, spec.center, spec.width)
    if spec.kind == "radial":
        return prof
    return modulated_axisym(prof, cos_coeff=spec.cos_coeff)


def _columns(rows: list) -> dict:
    """Per-item row dicts -> one output list per key."""
    return {key: [row[key] for row in rows] for key in (rows[0] if rows else ())}


# gates: [] when the claim holds, else its one violation line
def _at_most(label: str, value: float, bound: float) -> list:
    return [] if value <= bound else [f"{label} {value:.4g} above {bound:.4g}"]


def _above(label: str, value: float, bound: float) -> list:
    return [] if value > bound else [f"{label} {value:.4g} not above {bound:.4g}"]


# ---------------------------------------------------------------------------
# operation handlers: job -> (outputs, violations).  job holds the checked
# values of the config, its tuples as written, the grid [t_min, t_max, count]
# (count doubled on the strict profile, as is the family window's) and the
# thread count


def _op_constants(job):
    grid = make_radial_grid(*job.grid)

    def one(ps):
        flat = flat_params(ps)
        v = canonical_profile(ps, grid)
        return {
            "q": float(ps.q),
            "gamma": float(ps.gamma),
            "k": float(ps.k),
            "S_closed": float(sharp_constant(ps)),
            "S_ratio_law": float(
                ps.k ** (1.0 / ps.p - 1.0 - 1.0 / ps.q) * sharp_constant(flat)
            ),
            "S_rayleigh": float(grad_norm(v, ps) / q_norm(v, ps)),
            "alpha": float(alpha_exponent(ps)),
        }

    rows = _map_ordered(one, job.params, job.threads)
    violations = []
    for i, row in enumerate(rows):
        routes = (row["S_closed"], row["S_ratio_law"], row["S_rayleigh"])
        spread = (max(routes) - min(routes)) / row["S_closed"]
        violations += _at_most(f"params[{i}]: S route spread", spread, job.pair_rtol)
    return {"tuples": [list(t) for t in job.tuples], **_columns(rows)}, violations


def _op_transform_check(job):
    grid = make_radial_grid(*job.grid)
    rows, violations = [], []
    for i, ps in enumerate(job.params):
        for j, spec in enumerate(job.fields):
            rep = transform_identity_check(_build_field(spec, ps, grid), ps)
            label = f"params[{i}]/fields[{j}]"
            rows.append(
                {
                    "labels": label,
                    "q_norm_residual": float(rep.q_norm_residual),
                    "grad_identity_residual": float(rep.grad_identity_residual),
                    "k_drop_gap": float(rep.k_drop_gap),
                }
            )
            violations += _stretch_violations(label, rep, job.identity_tol)
    return _columns(rows), violations


def _stretch_violations(label: str, rep, tol: float) -> list:
    """Gates on a StretchReport: both norm identities within tol, angular drop >= 0."""
    return [
        *_at_most(f"{label}: q_norm_residual", rep.q_norm_residual, tol),
        *_at_most(f"{label}: grad_identity_residual", rep.grad_identity_residual, tol),
        *_at_most(f"{label}: -k_drop_gap", -rep.k_drop_gap, 1e-12),
    ]


def _op_project(job):
    """Deficit and dual residual on exact manifold points (scaled bubbles)."""
    grid = make_radial_grid(*job.grid)
    rows, violations = [], []
    for i, ps in enumerate(job.params):
        row = {"deficit": [], "dual_residual": []}
        for lam, amp in job.bubbles:
            u = amp * canonical_profile(ps, grid, lam)
            d = float(deficit(u, ps))
            row["deficit"].append(d)
            label = f"params[{i}] lam={lam:g} amp={amp:g}"
            violations += _at_most(f"{label}: |deficit|", abs(d), job.deficit_tol)
            # the residual functional is stationarity-based, so only the
            # normalized representative amp == 1 is expected to annihilate it
            if amp == 1.0:
                r = float(dual_norm_estimate(u, ps, job.dual_basis).value)
                row["dual_residual"].append(r)
                violations += _at_most(f"{label}: dual_residual", r, job.dual_tol)
            else:
                row["dual_residual"].append(None)
        rows.append(row)
    outputs = {
        "tuples": [list(t) for t in job.tuples],
        "bubbles": [list(b) for b in job.bubbles],
        **_columns(rows),
    }
    return outputs, violations


def _op_stability_scan(job):
    def one(ps):
        scan = k_upper_scan(job.family, ps, sample_count=job.samples)
        return {
            "bound": float(scan.bound),
            "alpha": float(scan.alpha),
            "used": int(scan.used_count),
            "skipped": int(scan.skipped_count),
            "minimizer_tag": scan.minimizer.family_tag,
            "caveat": bool(scan.caveat),
        }

    rows = _map_ordered(one, job.params, job.threads)
    violations = []
    for i, row in enumerate(rows):
        violations += _above(f"params[{i}]: bound", row["bound"], 0.0)
    return {"tuples": [list(t) for t in job.tuples], **_columns(rows)}, violations


def _sweep(job) -> np.ndarray:
    return np.logspace(math.log10(job.eps_start), math.log10(job.eps_stop), job.eps_count)


def _op_slope_fit(job):
    ps = job.params[0]
    grid = make_radial_grid(*job.grid)
    bump = gaussian_bump_profile(grid, ps.n, job.center, job.width)
    fit = exponent_slope_fit(ps, _sweep(job), bump)
    expected = float(alpha_exponent(ps))
    outputs = {
        "tuple": list(job.tuples[0]),
        "slope": float(fit.slope),
        "intercept": float(fit.intercept),
        "expected": expected,
        "plot_x": [float(math.log10(d)) for d in fit.distances],
        "plot_y": [float(math.log10(d)) for d in fit.deficits],
    }
    if not job.assert_slope:
        return outputs, []
    gap = abs(fit.slope - expected)
    return outputs, _at_most("|slope - expected|", gap, job.slope_rtol * expected)


def _op_chain_check(job):
    grid = make_radial_grid(*job.grid)
    rows, violations = [], []
    for i, target in enumerate(job.params):
        hp = derive_hat_params(job.base, target)
        for j, spec in enumerate(job.fields):
            u = _build_field(spec, target, grid)
            rec = monotonicity_chain_check(u, hp)
            label = f"params[{i}]/fields[{j}]"
            rows.append(
                {
                    "labels": label,
                    "grad_chain_gap": float(rec.grad_chain_gap),
                    "qnorm_residual": float(rec.q_norm_residual),
                    "grad_identity_residual": float(rec.grad_identity_residual),
                    "k_drop_gap": float(rec.k_drop_gap),
                    "nu": 1.0 + max(1.0, target.p - 1.0) * target.gamma / target.n,
                    "h": float(hp.h),
                }
            )
            violations += _stretch_violations(label, rec, job.qnorm_tol)
            floor = job.gap_floor * rec.grad_energy
            violations += _at_most(f"{label}: -grad_chain_gap", -rec.grad_chain_gap, floor)
    return _columns(rows), violations


def _op_embedding_check(job):
    t_min, _, count = job.grid
    grid = make_radial_grid(t_min, math.log(job.radius), count)
    rows, violations = [], []
    for i, ps in enumerate(job.params):
        u = mollified_bubble(ps, job.radius, grid=grid, lam=job.lam)
        kg = embedding_check(u, ps, job.radius, "grad")
        kv = embedding_check(u, ps, job.radius, "value")
        rows.append({"kbar_grad": float(kg), "kbar_value": float(kv)})
        violations += _above(f"params[{i}]: kbar_grad", kg, 0.0)
        violations += _above(f"params[{i}]: kbar_value", kv, 0.0)
    return {"tuples": [list(t) for t in job.tuples], **_columns(rows)}, violations


def _op_spectral_gap(job):
    value, half, kept = spectral_gap(job.params[0], make_radial_grid(*job.grid), job.count)
    outputs = {
        "tuple": list(job.tuples[0]),
        "min_ratio": value,
        "half_ratio": half,
        "kept": kept,
    }
    return outputs, _above("min_ratio", value, job.ratio_floor)


def _op_expansion_slopes(job):
    ps = job.params[0]
    grid = make_radial_grid(*job.grid)
    eps = _sweep(job)
    # sweep fields sit at distance ~ eps, so the gate follows the largest eps
    gate = 2.0 * max(job.eps_start, job.eps_stop)

    # the residual's stated error: the same sweep field rebuilt on half the
    # nodes of the window, since a sampled field does not move between grids
    half = make_radial_grid(grid.t_min, grid.t_max, grid.count // 2)
    sweep = bubble_perturbation(ps, grid, 0.5, 0.7)
    half_sweep = bubble_perturbation(ps, half, 0.5, 0.7)

    rows = []
    for e in eps:
        rep = expansion_quantities(sweep(float(e)), ps, distance_gate=gate)
        residual = float(rep.residual_pairing_norm)
        coarse = radial_dual_norm(half_sweep(float(e)), ps)
        rows.append(
            {
                "Q": float(rep.Q),
                "N": float(rep.N),
                "residual": residual,
                "residual_error": abs(residual - coarse),
            }
        )
    cols = _columns(rows)
    prod = [r * n ** (1.0 / ps.p) for r, n in zip(cols["residual"], cols["N"])]
    outputs = {"tuple": list(job.tuples[0]), "eps": [float(e) for e in eps], **cols}
    violations = []
    for name, values, target, rtol in (
        ("slope_Q", cols["Q"], 2.0, job.q_slope_rtol),
        ("slope_N", cols["N"], ps.p, job.n_slope_rtol),
        ("slope_residual_rho", prod, 2.0, job.prod_slope_rtol),
    ):
        slope = outputs[name] = float(np.polyfit(np.log(eps), np.log(values), 1)[0])
        violations += _at_most(f"|{name} - {target:g}|", abs(slope - target), rtol * target)
    return outputs, violations


def _op_ineq_const(job):
    def one(case):
        c_base = elementary_C_estimate(*case, job.samples)
        c_double = elementary_C_estimate(*case, 2 * job.samples)
        return {
            "C": float(c_base),
            "C_doubled": float(c_double),
            "doubling_rel": float(abs(c_double - c_base) / max(c_base, 1e-300)),
        }

    rows = _map_ordered(one, job.cases, job.threads)
    violations = []
    for (c, e), row in zip(job.cases, rows):
        drift = row["doubling_rel"]
        violations += _at_most(f"case {c} e={e}: doubling_rel", drift, job.doubling_rtol)
    return {"cases": [[c, e] for c, e in job.cases], **_columns(rows)}, violations


# load-time checks across sections: (checked, grid) -> None, raising a
# ConfigError that names the config path


def _ordered_grid(checked, grid) -> None:
    _ordered(grid, "config.grid")


def _grid_below_radius(checked, grid) -> None:
    """embedding-check's grid ends at log(radius); grid[1] is not used."""
    top = math.log(checked.radius)
    if not grid[0] < top:
        raise ConfigError(
            f"config.grid[0]: need t_min < log(config.options.radius) = {top:g}, "
            f"got {grid[0]}"
        )


def _weighted_tuples(checked, grid) -> None:
    """transform-check's map is the identity at a = 0."""
    _ordered_grid(checked, grid)
    for i, ps in enumerate(checked.params):
        if ps.a <= 0.0:
            raise ConfigError(f"config.params[{i}]: identity check needs a > 0, got a={ps.a}")


def _chainable_base(checked, grid) -> None:
    """Every target shares gamma with the base and has the larger a (h >= 1)."""
    _ordered_grid(checked, grid)
    for i, target in enumerate(checked.params):
        path = f"config.options.base vs config.params[{i}]"
        try:
            h = derive_hat_params(checked.base, target).h
        except GammaMismatch as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if h < 1.0:
            raise ConfigError(f"{path}: chain runs toward smaller a only, h={h:.4f} < 1")


def _sweep_spans(checked, grid) -> None:
    """expansion-slopes fits log-log slopes, so its sweep needs two distinct eps;
    it repeats the residual on count // 2 nodes, and a grid takes 16 or more."""
    _ordered_grid(checked, grid)
    if grid[2] < 32:
        raise ConfigError(
            f"config.grid[2]: the half grid of the residual error needs count >= 32, "
            f"got {grid[2]}"
        )
    if checked.eps_start == checked.eps_stop:
        raise ConfigError(
            f"config.options.eps_stop: need eps_stop != eps_start, got {checked.eps_stop}"
        )


def _family_given(checked, grid) -> None:
    """stability-scan samples on family.options.window; config.grid is not used."""
    if checked.family is None:
        raise ConfigError("missing key config.family")


class Operation(NamedTuple):
    module: str  # home module of the work
    handler: Callable
    tuples: str  # parameter tuples taken: "many", "one" or "none"
    options: dict  # name -> (reader, default)
    tolerances: dict  # name -> default
    check: Callable = _ordered_grid  # of the read sections against each other


_FIELDS = (_list_of(_field_spec), [{"kind": "radial"}])
_DEFAULT_CASES = [[1, 2.5], [2, 4.0], [3, 2.5], [4, 4.0], [5, 2.5], [6, 4.0]]

OPERATIONS = {
    "constants": Operation("params", _op_constants, "many", {}, {"pair_rtol": 1e-6}),
    "transform-check": Operation("transforms", _op_transform_check, "many", {
        "fields": _FIELDS,
    }, {"identity_tol": 1e-8}, _weighted_tuples),
    "project": Operation("manifold", _op_project, "many", {
        "bubbles": (_list_of(_bubble), _REQUIRED),
        "dual_basis": (_count(4), 8),
    }, {"deficit_tol": 1e-6, "dual_tol": 1e-5}),
    "stability-scan": Operation("stability", _op_stability_scan, "many", {
        "samples": (_count(1), 30),
    }, {}, _family_given),
    "slope-fit": Operation("stability", _op_slope_fit, "one", {
        "eps_start": (_positive, 2.5e-3),
        "eps_stop": (_positive, 1e-1),
        "eps_count": (_count(2), 6),
        "center": (_real, 10.0),
        "width": (_real, 1.0),
        "assert_slope": (_flag, True),
    }, {"slope_rtol": 0.1}),
    "chain-check": Operation("stability", _op_chain_check, "many", {
        "base": (_params, _REQUIRED),
        "fields": _FIELDS,
    }, {"qnorm_tol": 1e-8, "gap_floor": 1e-8}, _chainable_base),
    "embedding-check": Operation("stability", _op_embedding_check, "many", {
        "radius": (_positive, 1.0),
        "lam": (_positive, 1.0),
    }, {}, _grid_below_radius),
    "spectral-gap": Operation("critical", _op_spectral_gap, "one", {
        "count": (_count(1), 20),
    }, {"ratio_floor": 1.0}),
    "expansion-slopes": Operation("critical", _op_expansion_slopes, "one", {
        "eps_start": (_positive, 1e-3),
        "eps_stop": (_positive, 1e-1),
        "eps_count": (_count(2), 7),
    }, {"q_slope_rtol": 0.1, "n_slope_rtol": 0.1, "prod_slope_rtol": 0.15}, _sweep_spans),
    "ineq-const": Operation("critical", _op_ineq_const, "none", {
        "cases": (_list_of(_case), _DEFAULT_CASES),
        "samples": (_count(1), 200),
    }, {"doubling_rtol": 1e-2}),
}


# ---------------------------------------------------------------------------
# ledger plumbing


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _digest(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def resolve_ledger(ledger_path: Optional[str]) -> str:
    if ledger_path:
        return ledger_path
    return os.environ.get(LEDGER_ENV, DEFAULT_LEDGER)


def _flat_items(value, index: str = ""):
    """(index, scalar) pairs of a nested list; indices of inner lists join as i.j."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flat_items(item, f"{index}.{i}" if index else str(i))
    else:
        yield index, value


def _write_csv(record: ResultRecord, ledger_path: str) -> str:
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(ledger_path)), f"{record.experiment}.csv"
    )
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "name", "index", "value"])
        for name, value in sorted(record.outputs.items()):
            for index, item in _flat_items(value):
                writer.writerow([record.experiment, name, index, item])
    return out_path


def _run(cfg: ExperimentConfig, ledger_path, threads, tol_profile) -> ResultRecord:
    """Execute one loaded config: dispatch, append to the ledger, write CSV."""
    if tol_profile not in ("fast", "strict"):
        raise ConfigError(f"unknown tol profile {tol_profile!r}")
    op = OPERATIONS[cfg.operation]
    refine = 2 if tol_profile == "strict" else 1  # node count factor of every grid
    family = cfg.checked.family
    if family is not None:
        family = replace(family, window=(*family.window[:2], family.window[2] * refine))
    job = SimpleNamespace(
        **{**vars(cfg.checked), "family": family},
        tuples=cfg.params,
        grid=(*cfg.grid[:2], cfg.grid[2] * refine),
        threads=max(1, threads),
    )
    try:
        outputs, violations = op.handler(job)
    except CknError as exc:
        raise type(exc)(f"{cfg.experiment}: {exc}") from exc
    # a NaN passes every gate written as value > tol, so no such record is kept
    bad = [
        f"{name}[{index}]" if index else name
        for name, value in sorted(outputs.items())
        for index, item in _flat_items(value)
        if isinstance(item, float) and not math.isfinite(item)
    ]
    if bad:
        raise NonFiniteOutput(f"{cfg.experiment}: non-finite outputs {', '.join(bad)}")
    outputs = {**outputs, "violations": violations}

    # the config as written, not the checked values
    written = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.compare}
    written["tol_profile"] = tol_profile
    inputs_payload = {"config": written, "version": __version__}
    record = ResultRecord(
        experiment=cfg.experiment,
        operation=cfg.operation,
        module=op.module,
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
        fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    _write_csv(record, ledger)
    return record


def run_experiment(
    config_path: str,
    ledger_path: Optional[str] = None,
    threads: int = 1,
    tol_profile: str = "fast",
) -> ResultRecord:
    """Load one config file and execute it."""
    return _run(load_config(config_path), ledger_path, threads, tol_profile)


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
        if not isinstance(rec["outputs"], dict):
            raise LedgerCorrupt(f"line {i}: outputs is not an object")
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
        record = _run(cfg, args.ledger, args.threads, args.tol_profile)
        print(f"{record.experiment}: outputs digest {record.outputs_digest[:12]}")
        for line in record.outputs["violations"]:
            print(f"violation: {line}", file=sys.stderr)
        return 4 if record.outputs["violations"] else 0
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CknError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
