"""Peak memory of cold CLI calls on a tall input (n=6000 voters, m=40 candidates).

An instance is one int mask per voter, and no call on the ``gen random`` ->
``solve`` path builds the per-voter frozensets, so each call should stay
close to what importing the CLI alone costs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# With per-voter frozensets, gen random and solve on this input read 10.5 and
# 10.3 MB above the import floor; with int masks 1.4 and 1.0 MB (CPython
# 3.11.7, Linux x86-64).  The bound sits at half the frozenset gap, so it
# catches the frozenset rows coming back but leaves a few MB for allocator
# layout and interpreter builds that differ from the one measured.
SLACK_MB = 5.0

# Linux counts a parent's RSS high-water mark into the max RSS of a child it
# starts (fork or vfork, then exec), so the child is started and reaped with
# os.wait4 by a small interpreter that loads no more than ``os``, not by the
# test process itself.
PROBE = """\
import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*args: str) -> float:
    """Max RSS in MB (ru_maxrss is in KiB on Linux) of a cold ``python args...``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, kib = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return kib / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_tall_gen_and_solve_stay_near_the_import_floor(tmp_path):
    path = tmp_path / "tall.fvr"
    peak_rss_mb("-c", "import fvr.cli")  # fills the bytecode cache, where writable
    floor = peak_rss_mb("-c", "import fvr.cli")
    gen = peak_rss_mb(
        "-m", "fvr.cli", "gen", "random", "--param", "n=6000", "--param", "m=40", "--out", str(path)
    )
    solve = peak_rss_mb("-m", "fvr.cli", "solve", str(path), "--rule", "opt")
    assert gen - floor < SLACK_MB, (gen, floor)
    assert solve - floor < SLACK_MB, (solve, floor)
