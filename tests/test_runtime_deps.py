"""The package runs on numpy alone: scipy is a test-only dependency."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    import gapflow
    from gapflow import cli
    from gapflow.expansion import enumerate_branches
    from gapflow.flow import run_flow
    from gapflow.geometry import LatticeSpec
    from gapflow.model import random_model
    from gapflow.verify import verify_main_theorem

    spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=3)
    state = run_flow(spec, keep_history=True)
    assert verify_main_theorem(state)["status"] == "pass"
    root = state.history[-1].rect
    assert enumerate_branches(root, root, state).branches

    workdir = sys.argv[1]
    config = os.path.join(workdir, "run.json")
    with open(config, "w") as fh:
        json.dump({"d": 1, "N": 3, "t": 0.05, "seed": 3,
                   "output": {"report": os.path.join(workdir, "report.json")}}, fh)
    assert cli.run(cli.parse_config(config)) == 0
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
)


def test_runtime_imports_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").exists()
