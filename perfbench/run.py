#!/usr/bin/env python3
"""Acceptance-workload benchmark for cknlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--spans FILE]

Drives one workload's acceptance configs through
``cknlab.cli.run_experiment`` in a closed loop: one process, one client,
``threads=1``, one config after another, pass after pass, until
``--seconds`` have elapsed and at least two passes are done.  The seed is
added to each template config's ``seed`` and ``family.seed`` (seed 0
reproduces ``configs/acceptance``); the program sees only the generated
files.  Every pass is checked: a config fails when it raises a
``CknError``, records a gate violation, or its ``outputs_digest`` differs
from the first pass of the run.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` passes alternate untraced and traced
(see tracing.py) and the last line reports the per-layer metrics.
README.md beside this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer, traced_bindings
from warm import fill

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TEMPLATES = BENCH_DIR / "configs"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 2
SETUP_REPEATS = 5

# workload -> (tolerance profile, template configs in run order)
WORKLOADS = {
    # coordinate-ascent dual-norm estimate (critical) over many tiny
    # weighted_grad_pnorm calls; c03 also logs the six deficit warnings
    "dual_residual": ("fast", ["c03_extremals", "c07_residual_scalings"]),
    # Nelder-Mead manifold projections over bubble samples; no dual norm
    "projection_scan": (
        "fast",
        [
            "c04a_scan",
            "c04b_scan_equal_weights",
            "c04c_slope_wide",
            "c04d_slope_flat",
            "c04e_slope_recorded",
        ],
    ),
    # no optimiser: large-array quadrature on doubled grids plus per-record
    # CLI overhead
    "quadrature_sweep": (
        "strict",
        [
            "c01_constants",
            "c02_transforms",
            "c05_chain",
            "c06_spectral",
            "c08_inequalities",
            "c09a_embedding",
            "c09b_embedding_shrunk",
        ],
    ),
}


# ---------------------------------------------------------------------------
# inputs


def make_configs(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's configs for this seed; returns them in run order."""
    paths = []
    for stem in WORKLOADS[workload][1]:
        raw = json.loads((TEMPLATES / f"{stem}.json").read_text(encoding="utf-8"))
        raw["seed"] = raw.get("seed", 0) + seed
        if "family" in raw:
            raw["family"]["seed"] = raw["family"].get("seed", 0) + seed
        path = out_dir / f"{stem}.json"
        path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        paths.append(path)
    return paths


def warm_entries(paths: list[Path]) -> list:
    """Distinct parameter tuples of the configs, each with its config's grid."""
    from cknlab.cli import DEFAULT_GRID

    entries = {}
    for path in paths:
        raw = json.loads(path.read_text(encoding="utf-8"))
        tuples = list(raw.get("params", []))
        if "base" in raw.get("options", {}):
            tuples.append(raw["options"]["base"])
        for tup in tuples:
            entries.setdefault(json.dumps(tup), (tup, raw.get("grid", list(DEFAULT_GRID))))
    return list(entries.values())


# ---------------------------------------------------------------------------
# measurement


class WarningCounter(logging.Handler):
    """Counts WARNING-and-above records reaching the cknlab logger tree."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0
        self.first = None

    def emit(self, record):
        self.count += 1
        if self.first is None:
            self.first = record.getMessage()


@dataclass
class PassResult:
    wall_s: float
    config_s: list
    digests: list  # outputs_digest per config, None when the config raised
    problems: dict  # config stem -> why it failed
    warnings: int
    spans: dict = field(default_factory=dict)  # traced passes: Tracer.aggregate()


def run_pass(paths, ledger: Path, profile: str, counter: WarningCounter) -> PassResult:
    """One pass over the configs, each through the public CLI entry point."""
    from cknlab import cli
    from cknlab.errors import CknError

    config_s, digests, problems = [], [], {}
    warned = counter.count
    start = time.perf_counter()
    for path in paths:
        t0 = time.perf_counter()
        try:
            rec = cli.run_experiment(
                str(path), ledger_path=str(ledger), threads=1, tol_profile=profile
            )
        except CknError as exc:
            digests.append(None)
            problems[path.stem] = f"{type(exc).__name__}: {exc}"
        else:
            digests.append(rec.outputs_digest)
            if rec.outputs["violations"]:
                problems[path.stem] = "; ".join(rec.outputs["violations"])
        config_s.append(time.perf_counter() - t0)
    return PassResult(
        time.perf_counter() - start, config_s, digests, problems, counter.count - warned
    )


def measure(paths, ledger: Path, profile: str, seconds: float, tracer=None):
    """Run passes until `seconds` have elapsed and MIN_PASSES are done.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, starting untraced; the wrappers are installed
    only for the traced passes.  Returns (untraced, traced, counter).
    """
    counter = WarningCounter()
    logger = logging.getLogger("cknlab")
    logger.addHandler(counter)
    untraced, traced = [], []
    start = time.perf_counter()
    try:
        while (
            len(untraced) + len(traced) < MIN_PASSES
            or time.perf_counter() - start < seconds
        ):
            if tracer is None or len(untraced) == len(traced):
                untraced.append(run_pass(paths, ledger, profile, counter))
                continue
            tracer.clear()
            tracer.install()
            try:
                res = run_pass(paths, ledger, profile, counter)
            finally:
                tracer.uninstall()
            res.spans = tracer.aggregate()
            traced.append(res)
    finally:
        logger.removeHandler(counter)
    return untraced, traced, counter


def failed_configs(passes: list[PassResult], stems: list[str]) -> list[str]:
    """One entry per failed (pass, config), replay mismatches included."""
    ref = passes[0].digests
    failed = []
    for k, res in enumerate(passes):
        for stem, digest, want in zip(stems, res.digests, ref):
            if stem in res.problems:
                failed.append(f"pass {k} {stem}: {res.problems[stem]}")
            elif digest != want:
                failed.append(f"pass {k} {stem}: outputs_digest differs from pass 0")
    return failed


def measure_setup(entries, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and fill the caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "warm.py"), json.dumps(entries)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# per-layer values


def layer_values(spans: dict) -> dict:
    """Flatten one traced pass: `<span>.<stat>`, layer self totals, derived ratios."""
    values = {}
    for name, stats in spans.items():
        for stat, value in stats.items():
            if stat != "errors":
                values[f"{name}.{stat}"] = value
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for n, s in spans.items() if n.startswith(layer + ".")
        )
    values["manifold.manifold_distance.stalls"] = spans["manifold.manifold_distance"][
        "errors"
    ]["OptimizerStall"]
    scan = spans["stability.k_upper_scan"]
    values["stability.k_upper_scan.used_frac"] = (
        scan["used"] / scan["samples"] if scan["samples"] else 0.0
    )
    return values


def mean_values(passes: list[PassResult]) -> dict:
    rows = [layer_values(p.spans) for p in passes]
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


# ---------------------------------------------------------------------------
# reporting


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spec_metrics(kind: str, values: dict) -> dict:
    """The BENCHMARK.json metrics of one kind, with their units."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def _timing(label: str, xs: list[float]) -> str:
    return (
        f"{label}: median {statistics.median(xs):.4f} s, min {min(xs):.4f}, "
        f"max {max(xs):.4f}, n={len(xs)}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the last traced pass's spans as CSV")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import cknlab

    if not Path(cknlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: cknlab imported from {cknlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    profile, stems = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        paths = make_configs(args.workload, args.seed, work)
        entries = warm_entries(paths)
        setup = measure_setup(entries)
        fill(entries)
        tracer = Tracer() if args.trace else None
        untraced, traced, counter = measure(
            paths, work / "ledger.jsonl", profile, args.seconds, tracer
        )
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    failed = failed_configs(passes, stems)
    attempted = len(passes) * len(stems)
    correct = not failed
    walls = [p.wall_s for p in untraced]
    warnings = statistics.median(p.warnings for p in passes)

    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print(
        f"workload {args.workload}: seed {args.seed}, profile {profile}, "
        f"{len(stems)} configs, {len(untraced)} untraced + {len(traced)} traced passes"
    )
    for i, stem in enumerate(stems):
        print(_timing(f"config {stem}", [p.config_s[i] for p in untraced]))
    print(_timing("wall_s (untraced pass)", walls))
    print(_timing("setup_s", setup))
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    print(f"failed_frac: {len(failed)}/{attempted} = {len(failed) / attempted:.4f}")
    for line in failed:
        print(f"  failed {line}")
    print(f"log_warnings: {warnings:g} per pass (median)", end="")
    print(f", first: {counter.first!r}" if counter.first else "")

    if tracer is None:
        metrics = spec_metrics(
            "end_to_end",
            {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            },
        )
    else:
        leftover = traced_bindings()
        if leftover:
            correct = False
            print(f"tracing not removed: {leftover}")
        traced_wall = statistics.median(p.wall_s for p in traced)
        values = mean_values(traced)
        values["log_warnings"] = warnings
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        # the spans' self times tile each traced pass, so they should sum to
        # its wall time up to the loop outside run_experiment
        self_sums = [sum(s["self_s"] for s in p.spans.values()) for p in traced]
        values["trace.accounted_frac"] = statistics.fmean(
            s / p.wall_s for s, p in zip(self_sums, traced)
        )
        gap = statistics.fmean(p.wall_s - s for s, p in zip(self_sums, traced))
        within = abs(gap) <= abs(values["trace.overhead_s"])
        print(
            f"self-time accounting: spans cover {values['trace.accounted_frac']:.2%} "
            f"of the traced pass; gap {gap:.4f} s vs tracing overhead "
            f"{values['trace.overhead_s']:.4f} s: {'within' if within else 'NOT within'}"
        )
        metrics = spec_metrics("per_layer", values)
        for name, m in metrics.items():
            note = " (computed from field shapes)" if name.endswith(".points") else ""
            print(f"{name}: {m['value']:.6g} {m['unit']}{note}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
