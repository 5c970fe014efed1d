"""The CLI and its set-up load no scipy; the p != 2 polish loads its solver on use.

Runs in a fresh interpreter: pytest's own warning filters import
scipy.optimize into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cknlab import derive_params, manifold
from cknlab.fields import gaussian_bump_profile, make_radial_grid
from cknlab.manifold import canonical_profile, manifold_distance

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
import cknlab.cli
from warm import fill

config, ledger = sys.argv[1:3]
c03 = json.load(open("configs/acceptance/c03_extremals.json"))
fill([(tup, c03["grid"]) for tup in c03["params"]])
cknlab.cli.run_experiment(config, ledger)
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from cknlab import manifold
from test_imports import projected_amplitude

amplitude = projected_amplitude()
loaded = "scipy.optimize" in sys.modules
import scipy.optimize
bound = vars(manifold).get("minimize") is scipy.optimize.minimize
print(json.dumps({"before": before, "loaded": loaded, "bound": bound, "amplitude": amplitude}))
"""

# projected_amplitude() from the commit that bound scipy.optimize.minimize
# at import
PARENT_AMPLITUDE = 1.50892896764464


def projected_amplitude() -> float:
    """Amplitude of the projection of a bubble plus a bump at p = 2.5.

    The bump keeps u off the family, so the amplitude polish runs its solver.
    """
    ps = derive_params(4, 2.5, 0.1, 0.4)
    grid = make_radial_grid(-30.0, 30.0, 1024)
    bump = gaussian_bump_profile(grid, ps.n, 0.5, 1.0)
    u = canonical_profile(ps, grid, 1.3) + 0.05 * bump
    return manifold_distance(u, ps)[1].amplitude


def test_cli_and_warm_up_load_no_scipy(tmp_path, monkeypatch):
    config = tmp_path / "project.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "p2-project",
                "operation": "project",
                "params": [[3, 2.0, 0.0, 0.0]],
                "grid": [-30.0, 30.0, 1024],
                "options": {"bubbles": [[1.0, 1.0], [0.5, 1.0]], "dual_basis": 8},
            }
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), str(tmp_path / "ledger.jsonl")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["before"] == []
    # the projection imported the solver and bound the name manifold looks up
    assert got["loaded"] and got["bound"]
    # the same solve with the solver bound up front, as the parent bound it
    import scipy.optimize

    monkeypatch.setattr(manifold, "minimize", scipy.optimize.minimize)
    assert got["amplitude"] == projected_amplitude()
    assert abs(got["amplitude"] / PARENT_AMPLITUDE - 1.0) <= 1e-12
