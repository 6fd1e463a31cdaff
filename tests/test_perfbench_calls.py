"""The benchmark's own calls, run as Tier-1 tests.

``perfbench/run.py`` pins the check count of every ``verify`` call it makes,
and ``perfbench/traced_cli.py`` reruns the command line with fvr's public
functions wrapped from outside.  These tests keep both working from the
program's side: each pinned ``verify`` call passes with its count, and the
tracer still finds every name it wraps and prints what ``fvr.cli`` prints.
Nothing under ``perfbench/`` is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

from fvr import cli

ROOT = Path(__file__).resolve().parents[1]
TINY = "fvr 1\nm 4\nn 3\n1 2\n1 3\n0 2 3\n"


def test_every_pinned_verify_call_passes_with_its_check_count(capsys, perfbench_run):
    calls = [
        call
        for workload in perfbench_run.WORKLOADS.values()
        for call in workload.calls
        if call.args[0] == "verify"
    ]
    assert len(calls) == 8
    for call in calls:
        argv = ["1" if arg == "{seed}" else arg for arg in call.args]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert perfbench_run.verify_checks(out.encode("utf-8")) == call.checks, (argv, out)


def run_cli(args, cwd):
    # No bytecode is written, so the run leaves nothing under perfbench/.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120
    )


def test_traced_cli_prints_what_the_cli_prints(tmp_path):
    instance = tmp_path / "tiny.fvr"
    instance.write_text(TINY, encoding="utf-8")
    commands = [
        ["solve", str(instance), "--rule", "opt"],
        ["verify", "opt", "--n-max", "2", "--m-max", "3", "--jobs", "1"],
    ]
    for i, argv in enumerate(commands):
        trace = tmp_path / f"trace{i}.json"
        traced = run_cli([str(ROOT / "perfbench" / "traced_cli.py"), str(trace), *argv], tmp_path)
        plain = run_cli(["-m", "fvr.cli", *argv], tmp_path)
        assert (traced.returncode, traced.stderr) == (0, b""), argv
        assert plain.returncode == 0, argv
        assert traced.stdout == plain.stdout, argv
        assert trace.stat().st_size > 0
