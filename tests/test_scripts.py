"""Smoke runs of the scripts in scripts/, as a user would start them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expected", [
    ("reproduce_convergence.py", ["--quick"],
     [f"convergence_gamma{g}_{cfl}.csv" for g in (5, 15, 25, 35, 45) for cfl in ("cfl5", "cfl2")]),
    ("run_lemma_checks.py", [], ["verify.csv"]),
    ("scheme_memory.py", ["--gamma", "25", "--n", "16"], ["scheme_memory.json"]),
])
def test_script_runs(script, args, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
