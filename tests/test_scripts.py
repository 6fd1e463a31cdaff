"""The example scripts run end to end against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_adversarial_demo_runs(tmp_path):
    result = run_script("adversarial_demo.py", tmp_path)
    assert result.returncode == 0, result.stderr


def test_guarantee_curves_writes_csv_in_working_directory(tmp_path):
    result = run_script("guarantee_curves.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "guarantee_curves.csv").read_text(encoding="utf-8").startswith("s,s_dec,")
