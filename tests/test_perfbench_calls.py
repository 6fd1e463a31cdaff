"""The benchmark's own calls, run as Tier-1 tests.

``perfbench/run.py`` pins the check count of every ``verify`` call it makes
and the SHA-256 of every input file it generates, and
``perfbench/traced_cli.py`` reruns the command line with fvr's public
functions wrapped from outside.  These tests keep both working from the
program's side: each pinned ``verify`` call passes with its count, each
generated file matches its pin, and the tracer still finds every name it
wraps, prints what ``fvr.cli`` prints and writes the files it writes.
Nothing under ``perfbench/`` is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fvr import cli
from fvr.core import VIEW_LIMIT

ROOT = Path(__file__).resolve().parents[1]
TRACER = str(ROOT / "perfbench" / "traced_cli.py")
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


def test_generated_benchmark_files_match_their_pins(tmp_path, perfbench_run):
    """``fvr gen random`` writes every input file of the benchmark byte for byte
    as pinned in ``perfbench/pins.json`` at the default seed."""
    pins = perfbench_run.load_pins()
    seed = pins["seed"]
    checked = 0
    for workload in perfbench_run.WORKLOADS.values():
        for f in workload.files:
            out = tmp_path / f"{f.name}.fvr"
            argv = ["gen", "random", f"--param=n={f.n}", f"--param=m={f.m}", f"--seed={seed}"]
            assert cli.main([*argv, f"--out={out}"]) == 0
            assert perfbench_run.sha256(out.read_bytes()) == pins[workload.name]["files"][f.name]
            checked += 1
    assert checked == 6


def test_every_benchmark_input_is_within_the_view_limit(perfbench_run):
    """Each input file the benchmark generates builds its views under ``VIEW_LIMIT``."""
    files = [f for workload in perfbench_run.WORKLOADS.values() for f in workload.files]
    assert len(files) == 6
    assert max(f.n * (f.m + 3) for f in files) <= VIEW_LIMIT


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
        traced = run_cli([TRACER, str(trace), *argv], tmp_path)
        plain = run_cli(["-m", "fvr.cli", *argv], tmp_path)
        assert (traced.returncode, traced.stderr) == (0, b""), argv
        assert plain.returncode == 0, argv
        assert traced.stdout == plain.stdout, argv
        assert trace.stat().st_size > 0
    # The benchmark writes its inputs through the tracer, as here; the traced
    # run must reach the wrapped generator and write the same bytes.
    gen = ["gen", "random", "--param", "n=5", "--param", "m=4", "--seed", "3", "--out"]
    trace, traced_out, plain_out = tmp_path / "trace_gen.json", tmp_path / "traced.fvr", tmp_path / "plain.fvr"
    traced = run_cli([TRACER, str(trace), *gen, str(traced_out)], tmp_path)
    plain = run_cli(["-m", "fvr.cli", *gen, str(plain_out)], tmp_path)
    assert (traced.returncode, traced.stderr, plain.returncode) == (0, b"", 0)
    assert traced_out.read_bytes() == plain_out.read_bytes()
    assert json.loads(trace.read_text(encoding="utf-8"))["totals"]["oracles.gen_random_instance"][0] == 1
