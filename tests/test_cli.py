"""Config parsing, ledger determinism, report files, exit codes."""

import csv
import json
import os

import pytest

from cknlab.cli import (
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


def test_seed_override_changes_inputs_digest(tmp_path):
    path = _write(tmp_path, "c.json", CONSTANTS_CFG)
    ledger = str(tmp_path / "ledger.jsonl")
    r0 = run_experiment(path, ledger_path=ledger)
    r9 = run_experiment(path, ledger_path=ledger, seed=9)
    assert r0.inputs_digest != r9.inputs_digest


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


def test_main_violation_exit(tmp_path, capsys):
    payload = {
        "experiment": "t-wrong-slope",
        "operation": "slope-fit",
        "params": [[3, 2.0, 0.0, 0.0]],
        "grid": [-30.0, 30.0, 2048],
        "options": {"center": 10.0, "eps_count": 5, "expected": 7.0},
    }
    path = _write(tmp_path, "w.json", payload)
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["slope-fit", "--config", path, "--ledger", ledger]) == 4
    assert "violation" in capsys.readouterr().err


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
