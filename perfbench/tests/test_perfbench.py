"""Tests of the benchmark harness: tracing, accounting and failure counting.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

ACCEPTANCE = run.ROOT / "configs" / "acceptance"


def _config(tmp_path, stem, edit=None):
    raw = json.loads((run.TEMPLATES / f"{stem}.json").read_text())
    if edit is not None:
        edit(raw)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(raw))
    return path


def _small_mix(tmp_path):
    """A cut-down mix that reaches every traced layer in about a second."""

    def one_bubble(raw):
        raw["params"] = raw["params"][:1]
        raw["options"]["bubbles"] = [[1.0, 1.0]]

    def two_samples(raw):
        raw["params"] = raw["params"][:1]
        raw["options"]["samples"] = 2

    return [
        _config(tmp_path, "c03_extremals", one_bubble),
        _config(tmp_path, "c04a_scan", two_samples),
        _config(tmp_path, "c04d_slope_flat"),
        _config(tmp_path, "c05_chain"),
    ]


def _traced_run(tmp_path):
    tracer = tracing.Tracer()
    untraced, traced, _ = run.measure(
        _small_mix(tmp_path), tmp_path / "ledger.jsonl", "fast", 0.0, tracer
    )
    return tracer, untraced, traced


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return _traced_run(tmp_path_factory.mktemp("traced"))


def test_wrappers_bound_in_every_importing_module():
    from cknlab import cli, critical, functionals, manifold

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (functionals, critical, manifold):
            assert tracing.is_traced(mod.weighted_grad_pnorm)
        assert tracing.is_traced(cli.run_experiment)
        assert tracing.is_traced(critical.minimize_scalar)
        assert tracing.is_traced(manifold.minimize)
    finally:
        tracer.uninstall()


def test_wrappers_removed_after_traced_run(traced_run, tmp_path):
    from cknlab import critical, functionals, manifold

    tracer, untraced, traced = traced_run
    assert len(untraced) == 1 and len(traced) == 1
    assert tracing.traced_bindings() == []
    assert critical.weighted_grad_pnorm is functionals.weighted_grad_pnorm
    assert not tracing.is_traced(manifold.minimize)
    # a pass after the traced one runs unwrapped code: it records no span
    recorded = len(tracer.start)
    run.run_pass(_small_mix(tmp_path), tmp_path / "l.jsonl", "fast", run.WarningCounter())
    assert len(tracer.start) == recorded


def test_traced_pass_reaches_every_layer(traced_run):
    _, _, traced = traced_run
    values = run.layer_values(traced[0].spans)
    for layer in tracing.LAYERS:
        assert values[f"{layer}.self_s"] > 0.0, layer
    assert values["critical.dual_norm_estimate.calls"] == 2  # basis 8 recurses to 4
    assert values["manifold.minimize.nfev"] > 0
    assert values["stability.k_upper_scan.used_frac"] == 1.0


def test_self_time_within_inclusive_time(tmp_path):
    tracer, _, traced = _traced_run(tmp_path)
    _, start, end, _, _ = tracer._arrays()
    dur = end - start
    self_t = tracer.span_self_times()
    assert (self_t >= -1e-9).all()
    assert (self_t <= dur + 1e-9).all()
    for name, stats in traced[0].spans.items():
        assert stats["self_s"] <= stats["incl_s"] + 1e-9, name
    # the self times tile the root spans, so they sum to the pass
    assert sum(s["self_s"] for s in traced[0].spans.values()) <= traced[0].wall_s


def test_spans_written_one_row_per_call(traced_run, tmp_path):
    tracer, _, _ = traced_run
    tracer.write_spans(tmp_path / "spans.csv")
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "index,name,start,end,parent,error"
    assert len(tracer.start) > 0
    assert len(rows) == 1 + len(tracer.start)


def test_counts_repeat_across_traced_runs(traced_run, tmp_path):
    first = traced_run[2][0].spans
    second = _traced_run(tmp_path)[2][0].spans
    assert first.keys() == second.keys()
    for name in first:
        for stat, value in first[name].items():
            if not stat.endswith("_s"):
                assert second[name][stat] == value, (name, stat)


def test_forced_gate_violation_and_error_are_counted(tmp_path):
    def impossible(raw):
        raw["tolerances"]["doubling_rtol"] = -1.0

    def unknown_operation(raw):
        raw["operation"] = "no-such-operation"

    paths = [
        _config(tmp_path, "c08_inequalities", impossible),
        _config(tmp_path, "c09b_embedding_shrunk"),
        _config(tmp_path, "c01_constants", unknown_operation),
    ]
    untraced, _, _ = run.measure(paths, tmp_path / "ledger.jsonl", "fast", 0.0)
    failed = run.failed_configs(untraced, [p.stem for p in paths])
    assert len(untraced) == 2
    assert len(failed) == 4
    assert not any("c09b" in line for line in failed)
    assert any("ConfigError" in line for line in failed)


def test_digest_mismatch_counts_as_failure():
    same = run.PassResult(1.0, [0.5, 0.5], ["a", "b"], {}, 0)
    drift = run.PassResult(1.0, [0.5, 0.5], ["a", "c"], {}, 0)
    assert run.failed_configs([same, same], ["x", "y"]) == []
    assert run.failed_configs([same, drift], ["x", "y"]) == [
        "pass 1 y: outputs_digest differs from pass 0"
    ]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_zero_reproduces_acceptance_configs(workload, tmp_path):
    for path in run.make_configs(workload, 0, tmp_path):
        assert json.loads(path.read_text()) == json.loads(
            (ACCEPTANCE / path.name).read_text()
        )
    for path in run.make_configs(workload, 3, tmp_path):
        raw = json.loads(path.read_text())
        base = json.loads((ACCEPTANCE / path.name).read_text())
        assert raw["seed"] == base["seed"] + 3
        if "family" in base:
            assert raw["family"]["seed"] == base["family"]["seed"] + 3


def _bench(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_traced_counts_repeat_and_match_spec():
    spec = json.loads(run.SPEC.read_text())
    args = ("--workload", "quadrature_sweep", "--seed", "2", "--seconds", "0", "--trace", "1")
    results = []
    for _ in range(2):
        proc = _bench(run.ROOT, *args)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    assert [results[0]["metrics"][n] for n in counts] == [
        results[1]["metrics"][n] for n in counts
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(tmp_path, "--workload", "quadrature_sweep", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
