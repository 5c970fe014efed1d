"""Config parsing, ledger determinism, report files, exit codes."""

import csv
import json
import os
import re

import numpy as np
import pytest

from cknlab import cli
from cknlab.cli import (
    ResultRecord,
    _write_csv,
    load_config,
    main,
    report,
    resolve_ledger,
    run_experiment,
)
from cknlab.errors import ConfigError, LedgerCorrupt

CONSTANTS_CFG = {
    "experiment": "t-constants",
    "operation": "constants",
    "params": [[3, 2.0, 0.0, 0.0]],
    "grid": [-25.0, 25.0, 512],
    "seed": 0,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip(tmp_path):
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    cfg = load_config(path)
    assert cfg.experiment == "t-constants"
    assert cfg.operation == "constants"
    assert cfg.params == ((3, 2.0, 0.0, 0.0),)
    assert cfg.grid == (-25.0, 25.0, 512)
    assert cfg.seed == 0
    assert cfg.family is None


def test_config_accepts_named_tuples(tmp_path):
    payload = dict(CONSTANTS_CFG, params=[{"n": 3, "p": 2.0, "a": 0.0, "b": 0.0}])
    cfg = load_config(_write(tmp_path, "c.json", payload))
    assert cfg.params == ((3, 2.0, 0.0, 0.0),)


def test_config_rejects_unknown_key(tmp_path):
    payload = dict(CONSTANTS_CFG, mystery=1)
    with pytest.raises(ConfigError, match="config.mystery"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_names_missing_field(tmp_path):
    payload = dict(CONSTANTS_CFG, params=[{"n": 3, "a": 0.0, "b": 0.0}])
    with pytest.raises(ConfigError, match=r"params\[0\]\.p"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_rejects_unknown_operation(tmp_path):
    payload = dict(CONSTANTS_CFG, operation="nonsense")
    with pytest.raises(ConfigError, match="operation"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_rejects_bad_family_key(tmp_path):
    payload = dict(
        CONSTANTS_CFG,
        operation="stability-scan",
        family={"name": "bubble_bump", "surprise": 1},
    )
    with pytest.raises(ConfigError, match="config.family.surprise"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_rejects_non_numeric_tolerance(tmp_path):
    payload = dict(CONSTANTS_CFG, tolerances={"pair_rtol": "tight"})
    with pytest.raises(ConfigError, match="tolerances.pair_rtol"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_checks_options_at_load(tmp_path):
    payload = dict(CONSTANTS_CFG, operation="project", options={"bubbles": [[-1.0, 1.0]]})
    with pytest.raises(ConfigError, match=r"config\.options\.bubbles\[0\]\[0\]"):
        load_config(_write(tmp_path, "c.json", payload))


def test_config_holds_checked_values(tmp_path):
    payload = dict(CONSTANTS_CFG, operation="project", options={"bubbles": [[1.0, 1.0]]})
    cfg = load_config(_write(tmp_path, "c.json", payload))
    assert cfg.options == {"bubbles": [[1.0, 1.0]]}
    assert cfg.tolerances == {}
    checked = cfg.checked
    assert (checked.bubbles, checked.dual_basis) == ([(1.0, 1.0)], 8)
    assert (checked.deficit_tol, checked.dual_tol) == (1e-6, 1e-5)
    assert checked.params[0].q == 6.0


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/definitely/not/here.json")


# ---------------------------------------------------------------------------
# run_experiment and determinism


def test_constants_record_and_ledger(tmp_path):
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    ledger = str(tmp_path / "ledger.jsonl")
    rec = run_experiment(path, ledger_path=ledger)
    assert rec.outputs["q"] == [6.0]
    assert rec.outputs["S_closed"][0] == pytest.approx(2.3404922750420116, rel=1e-12)
    assert rec.outputs["violations"] == []
    assert rec.module == "params"
    lines = open(ledger).read().splitlines()
    assert len(lines) == 1
    stored = json.loads(lines[0])
    assert stored["outputs_digest"] == rec.outputs_digest
    side = tmp_path / "t-constants.csv"
    rows = list(csv.reader(open(side)))
    assert rows[0] == ["experiment", "name", "index", "value"]
    assert any(r[1] == "S_closed" for r in rows[1:])


def test_csv_flattens_nested_outputs(tmp_path):
    # c03-shaped outputs: one row per tuple, one column per bubble
    outputs = {
        "tuples": [[3, 2.0, 0.0, 0.0], [5, 3.0, 0.3, 0.5]],
        "bubbles": [[1.0, 1.0], [0.5, 1.0], [2.0, 0.7]],
        "deficit": [[0.0, 0.0, 0.0], [1e-9, 0.0, 2e-9]],
        "dual_residual": [[1e-12, 2e-12, 3e-12], [1e-9, 1e-6, 8e-7]],
        "violations": [],
    }
    record = ResultRecord("t-extremals", "project", "critical", "", "", "", "", outputs)
    rows = list(csv.reader(open(_write_csv(record, str(tmp_path / "ledger.jsonl")))))
    assert not any("[" in value for row in rows[1:] for value in row)
    residual = {r[2]: float(r[3]) for r in rows[1:] if r[1] == "dual_residual"}
    assert len(residual) == 6
    assert residual["1.1"] == 1e-6
    tuple_index = [r[2] for r in rows[1:] if r[1] == "tuples"]
    assert tuple_index[:5] == ["0.0", "0.1", "0.2", "0.3", "1.0"]


def test_rerun_reproduces_digests(tmp_path):
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    ledger = str(tmp_path / "ledger.jsonl")
    r1 = run_experiment(path, ledger_path=ledger)
    r2 = run_experiment(path, ledger_path=ledger)
    assert r1.inputs_digest == r2.inputs_digest
    assert r1.outputs_digest == r2.outputs_digest
    assert len(open(ledger).read().splitlines()) == 2


def test_threads_do_not_change_outputs(tmp_path):
    payload = dict(
        CONSTANTS_CFG, params=[[3, 2.0, 0.0, 0.0], [4, 2.5, 0.1, 0.4], [5, 3.0, 0.3, 0.5]]
    )
    path = _write(tmp_path, "c.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    r1 = run_experiment(path, ledger_path=ledger, threads=1)
    r3 = run_experiment(path, ledger_path=ledger, threads=3)
    assert r1.outputs_digest == r3.outputs_digest


def test_project_exact_bubble_mode(tmp_path):
    payload = {
        "experiment": "t-bubbles",
        "operation": "project",
        "params": [[3, 2.0, 0.0, 0.0]],
        "grid": [-30.0, 30.0, 1024],
        "options": {"bubbles": [[1.0, 1.0], [0.5, 1.0], [2.0, 0.7]], "dual_basis": 8},
        "tolerances": {"deficit_tol": 1e-6, "dual_tol": 1e-5},
        "seed": 0,
    }
    path = _write(tmp_path, "c.json", payload)
    rec = run_experiment(path, ledger_path=str(tmp_path / "ledger.jsonl"))
    assert rec.outputs["violations"] == []
    row = rec.outputs["deficit"][0]
    assert len(row) == 3 and max(abs(d) for d in row) <= 1e-6
    duals = rec.outputs["dual_residual"][0]
    assert duals[0] <= 1e-5 and duals[1] <= 1e-5
    assert duals[2] is None


def test_ledger_env_override(monkeypatch, tmp_path):
    target = str(tmp_path / "elsewhere.jsonl")
    monkeypatch.setenv("CKNLAB_LEDGER", target)
    assert resolve_ledger(None) == target
    assert resolve_ledger("explicit.jsonl") == "explicit.jsonl"


# ---------------------------------------------------------------------------
# report


def _two_record_ledger(tmp_path):
    ledger = str(tmp_path / "ledger.jsonl")
    run_experiment(_write(tmp_path, "c.json", CONSTANTS_CFG), ledger_path=ledger)
    slope_cfg = {
        "experiment": "t-slope",
        "operation": "slope-fit",
        "params": [[3, 2.0, 0.0, 0.0]],
        "grid": [-30.0, 30.0, 2048],
        "options": {"center": 10.0, "eps_count": 5},
    }
    run_experiment(_write(tmp_path, "s.json", slope_cfg), ledger_path=ledger)
    return ledger


def test_report_files_and_filter(tmp_path):
    ledger = _two_record_ledger(tmp_path)
    paths = report(ledger)
    assert len(paths) == 3  # summary csv, summary txt, one plot csv
    rows = list(csv.reader(open(paths[0])))
    assert len(rows) == 3
    assert os.path.exists(paths[1])
    plot_rows = list(csv.reader(open(paths[2])))
    assert plot_rows[0] == ["x", "y"]
    assert len(plot_rows) == 6

    filtered = report(ledger, "operation=constants")
    rows = list(csv.reader(open(filtered[0])))
    assert len(rows) == 2
    assert rows[1][1] == "constants"


def test_report_rejects_bad_filter(tmp_path):
    ledger = _two_record_ledger(tmp_path)
    with pytest.raises(ConfigError, match="filter"):
        report(ledger, "nonsense")
    with pytest.raises(ConfigError, match="filter field"):
        report(ledger, "timestamp=now")


def test_report_corrupt_line_numbered(tmp_path):
    ledger = _two_record_ledger(tmp_path)
    with open(ledger, "a") as fh:
        fh.write("{broken\n")
    with pytest.raises(LedgerCorrupt, match="line 3"):
        report(ledger)


def test_report_non_object_outputs_numbered(tmp_path):
    ledger = _two_record_ledger(tmp_path)
    with open(ledger) as fh:
        rec = json.loads(fh.readline())
    with open(ledger, "a") as fh:
        fh.write(json.dumps({**rec, "outputs": [1, 2]}) + "\n")
    with pytest.raises(LedgerCorrupt, match="line 3: outputs"):
        report(ledger)


def test_report_missing_ledger():
    with pytest.raises(LedgerCorrupt, match="not found"):
        report("/no/such/ledger.jsonl")


# ---------------------------------------------------------------------------
# exit codes


def test_main_success_and_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["constants", "--config", path, "--ledger", ledger]) == 0
    assert main(["expansion-slopes", "--config", path, "--ledger", ledger]) == 2
    capsys.readouterr()


def test_main_config_error_exit(tmp_path, capsys):
    payload = dict(CONSTANTS_CFG, params=[{"n": 3, "a": 0.0, "b": 0.0}])
    path = _write(tmp_path, "bad.json", payload)
    assert main(["constants", "--config", path]) == 2
    assert "params[0].p" in capsys.readouterr().err


def test_main_loads_config_once(tmp_path, capsys, monkeypatch):
    calls = []
    load = cli.load_config

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_config", counted)
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    assert main(["constants", "--config", path, "--ledger", str(tmp_path / "l.jsonl")]) == 0
    assert calls == [path]
    capsys.readouterr()


def test_main_numerical_failure_exit(tmp_path, capsys):
    payload = {
        "experiment": "t-degenerate",
        "operation": "slope-fit",
        "params": [[3, 2.0, 0.0, 0.0]],
        "grid": [-25.0, 25.0, 512],
        # under 1.5 decades of epsilon: the fit refuses
        "options": {"eps_start": 1e-2, "eps_stop": 2e-2, "eps_count": 4},
    }
    path = _write(tmp_path, "d.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["slope-fit", "--config", path, "--ledger", ledger]) == 3
    capsys.readouterr()


def test_main_nonpositive_deficit_exit(tmp_path, capsys):
    # window truncation leaves the smallest-eps deficit near -1.3e-5
    payload = {
        "experiment": "t-negative-deficit",
        "operation": "slope-fit",
        "params": [[4, 3.0, 0.1, 0.1]],
        "grid": [-30, 30, 1024],
        "options": {"center": 10.0, "width": 1.0},
    }
    path = _write(tmp_path, "n.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["slope-fit", "--config", path, "--ledger", ledger]) == 3
    assert "at eps 0.0025 is not positive" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_main_non_finite_output_exit(tmp_path, capsys, monkeypatch):
    # a NaN passes every value > tol gate, so the run must fail before the ledger
    monkeypatch.setattr(cli, "q_norm", lambda u, ps: float("nan"))
    config = os.path.join(
        os.path.dirname(__file__), "..", "configs", "acceptance", "c01_constants.json"
    )
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["constants", "--config", config, "--ledger", ledger]) == 3
    err = capsys.readouterr().err
    assert "non-finite outputs S_rayleigh[0], S_rayleigh[1]" in err
    assert not os.path.exists(ledger)


# a tolerance no value can meet, per gate; each gate fires once per item
@pytest.mark.parametrize(
    "operation,params,options,tolerances,count",
    [
        ("constants", [[3, 2.0, 0.0, 0.0]], {}, {"pair_rtol": -1.0}, 1),
        ("transform-check", [[4, 2.5, 0.1, 0.4]], {}, {"identity_tol": -1.0}, 2),
        (
            "project",
            [[3, 2.0, 0.0, 0.0]],
            {"bubbles": [[1.0, 1.0]], "dual_basis": 4},
            {"deficit_tol": -1.0, "dual_tol": -1.0},
            2,
        ),
        (
            "chain-check",
            [[4, 2.5, 0.3, 0.6]],
            {"base": [4, 2.5, 0.1, 0.4]},
            {"qnorm_tol": -1.0, "gap_floor": -1.0},
            3,
        ),
        ("spectral-gap", [[4, 3.0, 0.2, 0.4]], {"count": 2}, {"ratio_floor": 1e300}, 1),
        (
            "expansion-slopes",
            [[5, 3.0, 0.3, 0.5]],
            {"eps_count": 2},
            {"q_slope_rtol": -1.0, "n_slope_rtol": -1.0, "prod_slope_rtol": -1.0},
            3,
        ),
        ("ineq-const", [], {"cases": [[1, 2.5]], "samples": 10}, {"doubling_rtol": -1.0}, 1),
        ("slope-fit", [[3, 2.0, 0.0, 0.0]], {"center": 10.0}, {"slope_rtol": -1.0}, 1),
    ],
)
def test_main_every_tolerance_gate_fires(
    tmp_path, capsys, operation, params, options, tolerances, count
):
    payload = {
        "experiment": "t-gates",
        "operation": operation,
        "params": params,
        # slope-fit runs on c04d's grid
        "grid": [-30.0, 30.0, 2048] if operation == "slope-fit" else [-25.0, 25.0, 256],
        "options": options,
        "tolerances": tolerances,
    }
    path = _write(tmp_path, "g.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main([operation, "--config", path, "--ledger", ledger]) == 4
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if line.startswith("violation: ")]
    assert len(lines) == count
    number = r"-?(?:inf|nan|\d+(?:\.\d+)?(?:e[+-]\d+)?)"
    for line in lines:
        assert re.fullmatch(rf"violation: .+ {number} (?:not )?above {number}", line), line
    assert len(json.loads(open(ledger).read())["outputs"]["violations"]) == count


def test_expansion_slopes_tolerance_defaults(tmp_path):
    # c07's tolerances are the defaults: every gate has a number
    payload = {**CONSTANTS_CFG, "operation": "expansion-slopes", "params": [[5, 3.0, 0.3, 0.5]]}
    checked = load_config(_write(tmp_path, "d.json", payload)).checked
    rtols = (checked.q_slope_rtol, checked.n_slope_rtol, checked.prod_slope_rtol)
    assert rtols == (0.1, 0.1, 0.15)


def test_expansion_slopes_reversed_sweep(tmp_path):
    # the distance gate follows the largest eps, at either end of the sweep
    payload = {
        "experiment": "t-reversed",
        "operation": "expansion-slopes",
        "params": [[5, 3.0, 0.3, 0.5]],
        "grid": [-25.0, 25.0, 256],
        "tolerances": {"q_slope_rtol": 0.1, "n_slope_rtol": 0.1, "prod_slope_rtol": 0.15},
    }
    ledger = str(tmp_path / "ledger.jsonl")
    records = []
    for start, stop in ((1e-3, 1e-1), (1e-1, 1e-3)):
        payload["options"] = {"eps_start": start, "eps_stop": stop, "eps_count": 7}
        records.append(run_experiment(_write(tmp_path, "e.json", payload), ledger))
    forward, reverse = (rec.outputs for rec in records)
    assert reverse["violations"] == []
    assert reverse["eps"] == pytest.approx(forward["eps"][::-1], rel=1e-15)
    for key in ("slope_Q", "slope_N", "slope_residual_rho"):
        assert reverse[key] == pytest.approx(forward[key], rel=1e-12)


def test_expansion_slopes_states_the_residual_error(tmp_path):
    # |residual - residual on count // 2 nodes| for every eps, well below it
    payload = {
        "experiment": "t-residual-error",
        "operation": "expansion-slopes",
        "params": [[5, 3.0, 0.3, 0.5]],
        "grid": [-30.0, 30.0, 512],
        "options": {"eps_start": 1e-2, "eps_stop": 1e-1, "eps_count": 3},
    }
    out = run_experiment(_write(tmp_path, "r.json", payload), str(tmp_path / "l.jsonl")).outputs
    assert len(out["residual_error"]) == 3
    for err, value in zip(out["residual_error"], out["residual"]):
        assert 0.0 < err <= 1e-2 * value


def test_expansion_slopes_needs_a_half_grid(tmp_path, capsys):
    payload = {
        "experiment": "t-half-grid",
        "operation": "expansion-slopes",
        "params": [[5, 3.0, 0.3, 0.5]],
        "grid": [-30.0, 30.0, 24],
    }
    path = _write(tmp_path, "h.json", payload)
    ledger = tmp_path / "l.jsonl"
    assert main(["expansion-slopes", "--config", path, "--ledger", str(ledger)]) == 2
    assert "config.grid[2]" in capsys.readouterr().err
    assert not ledger.exists()


def test_main_report_exit(tmp_path, capsys):
    ledger = _two_record_ledger(tmp_path)
    assert main(["report", "--ledger", ledger]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "operation,params,options,key",
    [
        ("stability-scan", [[3, 2.0, 0.0, 0.0]], {"samples": 0}, "options.samples"),
        ("embedding-check", [[3, 2.0, 0.0, 0.0]], {"radius": 0.0}, "options.radius"),
        ("project", [[3, 2.0, 0.0, 0.0]], {"bubbles": [[-1.0, 1.0]]}, "bubbles[0]"),
        ("ineq-const", [], {"cases": [[7, 3.0]]}, "options.cases[0]"),
        ("spectral-gap", [[4, 3.0, 0.2, 0.4]], {"count": 0}, "options.count"),
        ("embedding-check", [[3, 2.0, 0.0, 0.0]], {"lam": 0.0}, "options.lam"),
        ("embedding-check", [[3, 2.0, 0.0, 0.0]], {"lam": -1.0}, "options.lam"),
        # malformed values and tuple counts
        ("project", [[3, 2.0, 0.0, 0.0]], {"eps": "big"}, "options.eps"),
        ("transform-check", [[3, 2.0, 0.0, 0.0]], {"fields": [1]}, "options.fields[0]"),
        ("project", [[3, 2.0, 0.0, 0.0]], {"bubbles": [[1.0]]}, "options.bubbles[0]"),
        ("stability-scan", [[3, 2.0, 0.0, 0.0]], {"samples": "10"}, "options.samples"),
        ("expansion-slopes", [[5, 3.0, 0.3, 0.5]], {"eps_count": 1}, "options.eps_count"),
        ("slope-fit", [[3, 2.0, 0.0, 0.0]], {"eps_count": 1}, "options.eps_count"),
        ("slope-fit", [[3, 2.0, 0.0, 0.0]], {"assert_slope": "no"}, "options.assert_slope"),
        ("project", [[3, 2.0, 0.0, 0.0]], {}, "options.bubbles"),
        ("chain-check", [[4, 2.5, 0.3, 0.6]], {"base": [4, 2.5]}, "options.base"),
        ("chain-check", [[4, 2.5, 0.3, 0.6]], {}, "options.base"),
        ("spectral-gap", [[4, 3.0, 0.2, 0.4], [3, 2.0, 0.0, 0.0]], {}, "config.params"),
        ("ineq-const", [[3, 2.0, 0.0, 0.0]], {}, "config.params"),
        # a sweep end at or below zero has no log10
        ("slope-fit", [[3, 2.0, 0.0, 0.0]], {"eps_start": 0}, "options.eps_start"),
        ("expansion-slopes", [[5, 3.0, 0.3, 0.5]], {"eps_stop": -0.1}, "options.eps_stop"),
        ("slope-fit", [[3, 2.0, 0.0, 0.0]], {"center": "big"}, "options.center"),
    ],
)
def test_main_out_of_range_option_exit(
    tmp_path, capsys, operation, params, options, key
):
    payload = {
        "experiment": "t-out-of-range",
        "operation": operation,
        "params": params,
        "grid": [-25.0, 25.0, 256],
        "family": {"name": "bubble_bump"},
        "options": options,
    }
    path = _write(tmp_path, "r.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main([operation, "--config", path, "--ledger", ledger]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(ledger)


@pytest.mark.parametrize(
    "operation,overrides,key",
    [
        ("constants", {"grid": [-25, 25, "many"]}, "config.grid[2]"),
        (
            "project",
            {"options": {"bubbles": [[1.0, 1.0]]}, "tolerances": {"dual_tl": 1e-5}},
            "config.tolerances.dual_tl",
        ),
        ("constants", {"seed": -1}, "config.seed"),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"eps_log10": 5}}},
            "family.options.eps_log10",
        ),
        (
            "constants",
            {"tolerances": {"pair_rtol": float("nan")}},
            "config.tolerances.pair_rtol",
        ),
        ("constants", {"experiment": "../escaped"}, "config.experiment"),
        ("constants", {"grid": [-25, 10**400, 256]}, "config.grid[1]"),
        # family ranges feed rng.uniform, which has no use for non-finite ends
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"center": [float("nan"), 5]}}},
            "family.options.center",
        ),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"eps_log10": [-3, float("inf")]}}},
            "family.options.eps_log10",
        ),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"center": [-5, 10**400]}}},
            "family.options.center",
        ),
        # a node count, like config.grid[2]
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"window": [-30, 30, 256.5]}}},
            "family.options.window[2]",
        ),
        # the family is read for every operation, not only the one that samples it
        (
            "constants",
            {"family": {"name": "bubble_bump", "options": {"center": [float("nan"), 5]}}},
            "config.family.options.center",
        ),
        (
            "constants",
            {"family": {"name": "bubble_bump", "options": {"wdith": [0.5, 1.0]}}},
            "config.family.options.wdith",
        ),
        ("stability-scan", {"family": {"name": "mystery"}}, "config.family.name"),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"window": [-30, 30, 8]}}},
            "config.family.options.window[2]",
        ),
        (
            "constants",
            {"family": {"name": "bubble_bump", "options": {"eps_log10": 5}}},
            "config.family.options.eps_log10",
        ),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"center": [1.0, 2.0, 3.0]}}},
            "config.family.options.center",
        ),
        (
            "spectral-gap",
            {"family": {"name": "bubble_bump", "options": {"width": ["a", "b"]}}},
            "config.family.options.width[0]",
        ),
        # a node count past the float range, like any other number there
        ("constants", {"grid": [-25, 25, 10**400]}, "config.grid[2]"),
        # tuples, and chain-check's base, are checked against the region at load
        (
            "constants",
            {"params": [[3, 2, 0, 0], [3, 4.0, 0, 0]]},
            "config.params[1]: need 1 < p",
        ),
        (
            "chain-check",
            {"options": {"base": [4, 2.5, 0.9, 1.0]}},
            "config.options.base: need 0 <= a",
        ),
        # sections checked against each other at load, not when the run starts
        ("constants", {"grid": [25.0, -25.0, 256]}, "config.grid: need t_min < t_max"),
        (
            "constants",
            {"family": {"name": "bubble_bump", "options": {"window": [30, -30, 256]}}},
            "config.family.options.window: need t_min < t_max",
        ),
        (
            "embedding-check",
            {"grid": [0.5, 25.0, 256]},
            "config.grid[0]: need t_min < log(config.options.radius)",
        ),
        (
            "chain-check",
            {"options": {"base": [3, 2.0, 0.0, 0.1]}},
            "config.options.base vs config.params[0]: b - a offsets differ",
        ),
        # each stretch's direction: transform-check needs a > 0, chain-check h >= 1
        (
            "transform-check",
            {"params": [[4, 2.5, 0.2, 0.5], [3, 2.0, 0.0, 0.0]]},
            "config.params[1]: identity check needs a > 0",
        ),
        (
            "chain-check",
            {"params": [[3, 2.0, 0.1, 0.2]], "options": {"base": [3, 2.0, 0.3, 0.4]}},
            "config.options.base vs config.params[0]: chain runs toward smaller a only",
        ),
        # family ranges are ordered, and bump widths positive, before any sample
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"center": [5, -5]}}},
            "config.family.options.center: need lo <= hi",
        ),
        (
            "constants",
            {"family": {"name": "bubble_bump", "options": {"eps_log10": [-1, -3]}}},
            "config.family.options.eps_log10: need lo <= hi",
        ),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"width": [-1, 0]}}},
            "config.family.options.width: bump widths must be positive",
        ),
        (
            "stability-scan",
            {"family": {"name": "bubble_bump", "options": {"width": [0, 1]}}},
            "config.family.options.width: bump widths must be positive",
        ),
        # the dual-norm estimate needs 4 test elements
        (
            "project",
            {"options": {"bubbles": [[1.0, 1.0]], "dual_basis": 3}},
            "config.options.dual_basis",
        ),
        # a log-log slope over one repeated eps is not a fit
        (
            "expansion-slopes",
            {
                "params": [[5, 3.0, 0.3, 0.5]],
                "options": {"eps_start": 0.01, "eps_stop": 0.01, "eps_count": 3},
            },
            "config.options.eps_stop: need eps_stop != eps_start",
        ),
        # a bump ladder that runs past the window: c06's tuple and window fit
        # 80 Ritz bumps, not 120, and [-30, 30] fits no dual basis of 44
        (
            "spectral-gap",
            {"params": [[4, 3.0, 0.2, 0.4]], "grid": [-70, 70, 2048], "options": {"count": 120}},
            "past the window [-70, 70]",
        ),
        (
            "project",
            {
                "params": [[5, 3.0, 0.3, 0.5]],
                "grid": [-30, 30, 1024],
                "options": {"bubbles": [[1.0, 1.0]], "dual_basis": 44},
            },
            "past the window [-30, 30]",
        ),
        # files json cannot read: an int past Python's 4,300-digit limit, and
        # bytes that are not UTF-8
        pytest.param(
            "constants",
            b'{"experiment": "t-digits", "seed": 1' + b"0" * 5000 + b"}",
            "digits",
            id="constants-long-seed",
        ),
        pytest.param(
            "constants", b'{"experiment": "t-caf\xe9"}', "utf-8", id="constants-not-utf8"
        ),
    ],
)
def test_main_malformed_config_exit(tmp_path, capsys, operation, overrides, key):
    if isinstance(overrides, bytes):
        path = tmp_path / "m.json"
        path.write_bytes(overrides)
        path = str(path)
    else:
        payload = {
            "experiment": "t-malformed",
            "operation": operation,
            "params": [[3, 2.0, 0.0, 0.0]],
            "grid": [-25.0, 25.0, 256],
            "family": {"name": "bubble_bump"},
            **overrides,
        }
        path = _write(tmp_path, "m.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main([operation, "--config", path, "--ledger", ledger]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_main_unguarded_ineq_const_exit(tmp_path, capsys):
    # one sample leaves cases 1, 2, 5 and 6 no point for the scaling guard
    payload = {"experiment": "t-one-sample", "operation": "ineq-const", "options": {"samples": 1}}
    path = _write(tmp_path, "i.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["ineq-const", "--config", path, "--ledger", ledger]) == 3
    assert "case 1: scaling guard has no well-conditioned point" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_main_unit_energy_underflow_exit(tmp_path, capsys):
    # at b -> a + 1 both unit bubble energies underflow to 0: a typed
    # numerical failure naming the tuple, not a ZeroDivisionError
    payload = {**CONSTANTS_CFG, "params": [[3, 2.0, 0.0, 0.999]]}
    path = _write(tmp_path, "u.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["constants", "--config", path, "--ledger", ledger]) == 3
    assert "not positive at (3, 2.0, 0.0, 0.999)" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_main_project_p_near_one_exit(tmp_path, capsys):
    # at p = 1.01, sigma = 101: r^sigma overflows and the tangent elements
    # of the dual-norm basis get NaN gradients, a typed numerical failure,
    # not numpy's LinAlgError from the SVD
    payload = {
        "experiment": "t-p-near-one",
        "operation": "project",
        "params": [[3, 1.01, 0.0, 0.0]],
        "options": {"bubbles": [[1.0, 1.0]]},
    }
    path = _write(tmp_path, "p.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["project", "--config", path, "--ledger", ledger]) == 3
    assert "basis elements [0, 1] have non-finite gradients" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_main_project_singular_dual_hessian_exit(tmp_path, capsys):
    # at p = 1.05 on [-10, 10] x 4096 the dual-norm Newton ascent fails
    # (its Hessian near-singular, the steps run out): a typed numerical
    # failure naming the tuple, not numpy's LinAlgError
    payload = {
        "experiment": "t-p-near-one-fine",
        "operation": "project",
        "params": [[3, 1.05, 0.0, 0.0]],
        "grid": [-10, 10, 4096],
        "options": {"bubbles": [[1.0, 1.0]]},
    }
    path = _write(tmp_path, "p.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["project", "--config", path, "--ledger", ledger]) == 3
    err = capsys.readouterr().err
    assert "dual-norm Newton ascent at (3, 1.05, 0.0, 0.0): not converged after 100 steps" in err
    assert not os.path.exists(ledger)


def test_main_stability_scan_needs_family(tmp_path, capsys):
    payload = {**CONSTANTS_CFG, "operation": "stability-scan"}
    ledger = str(tmp_path / "ledger.jsonl")
    path = _write(tmp_path, "f.json", payload)
    assert main(["stability-scan", "--config", path, "--ledger", ledger]) == 2
    assert "missing key config.family" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_strict_profile_refines_the_family_window(tmp_path):
    # stability-scan samples on family.options.window, not on config.grid
    payload = {
        **CONSTANTS_CFG,
        "operation": "stability-scan",
        "family": {"name": "bubble_bump", "options": {"window": [-20.0, 20.0, 256]}},
        "options": {"samples": 2},
    }
    path = _write(tmp_path, "s.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    fast, strict = (run_experiment(path, ledger, tol_profile=p) for p in ("fast", "strict"))
    assert fast.outputs["used"] == strict.outputs["used"] == [2]
    assert fast.outputs["bound"] != strict.outputs["bound"]


def test_config_embedding_grid_ends_at_radius(tmp_path):
    # embedding-check builds its grid up to log(radius), so grid[1] is unused
    payload = {
        **CONSTANTS_CFG,
        "operation": "embedding-check",
        "grid": [-40.0, -50.0, 256],
        "options": {"radius": 2.0},
    }
    assert load_config(_write(tmp_path, "e.json", payload)).grid == (-40.0, -50.0, 256)


def test_config_stability_scan_ignores_grid(tmp_path):
    # stability-scan samples on family.options.window, so grid is not checked
    payload = {
        **CONSTANTS_CFG,
        "operation": "stability-scan",
        "grid": [30.0, -30.0, 256],
        "family": {"name": "bubble_bump"},
    }
    assert load_config(_write(tmp_path, "s.json", payload)).grid == (30.0, -30.0, 256)


@pytest.mark.parametrize(
    "section,value,allowed",
    [
        ("options", {"epss": 0.1}, "bubbles, dual_basis"),
        ("tolerances", {"dual_tl": 1e-5}, "deficit_tol, dual_tol"),
    ],
)
def test_unknown_key_lists_allowed_keys(tmp_path, capsys, section, value, allowed):
    payload = {
        **CONSTANTS_CFG,
        "operation": "project",
        "options": {"bubbles": [[1.0, 1.0]]},
        section: value,
    }
    path = _write(tmp_path, "u.json", payload)
    assert main(["project", "--config", path, "--ledger", str(tmp_path / "l.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"unknown key config.{section}.{next(iter(value))}" in err
    assert f"allowed: {allowed}" in err
