"""Peak memory of cold CLI calls on a tall input (n=6000 voters, m=40 candidates),
and on a sparse input whose views would run over ``VIEW_LIMIT``.

An instance is one int mask per voter, and no call on the ``gen random`` ->
``solve`` path builds the per-voter frozensets, so each call should stay
close to what importing the CLI alone costs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fvr.core import VIEW_LIMIT

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


def cold_run(*args: str) -> tuple[int, float, str]:
    """Exit code, max RSS in MB (ru_maxrss is in KiB on Linux) and stderr of a
    cold ``python args...``."""
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
    return code, kib / 1024, result.stderr


def peak_rss_mb(*args: str) -> float:
    """Max RSS in MB of a cold ``python args...`` that exits 0."""
    code, mb, stderr = cold_run(*args)
    assert code == 0, stderr
    return mb


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


# Over ``VIEW_LIMIT`` an instance is refused before its n*(m+3)-character row
# string is built: 10**8 characters are 100 MB, whatever the sparsity.  On the
# sparse file below a refused ``solve`` read 14.0 MB above the import floor
# (mostly the parser's token-to-bit map and the masks, which grow with m) and a
# refused ``gen`` 1.9 MB, against 200 MB for the solve that built the views
# (CPython 3.11.7, Linux x86-64).
OVER_BUDGET_SLACK_MB = 30.0


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_an_over_budget_profile_exits_2_near_the_import_floor(tmp_path):
    # gen spread n=10000 m=10000 L=5: 10000 * 10003 characters, just over 10**8.
    n = m = 10_000
    assert n * (m + 3) > VIEW_LIMIT
    path = tmp_path / "sparse.fvr"
    rows = "".join(f"{a} {a + 1} {a + 2} {a + 3} {a + 4}\n" for a in (5 * i % m for i in range(n)))
    path.write_text(f"fvr 1\nm {m}\nn {n}\n{rows}", encoding="utf-8")
    peak_rss_mb("-c", "import fvr.cli")  # fills the bytecode cache, where writable
    floor = peak_rss_mb("-c", "import fvr.cli")
    out = tmp_path / "gen.fvr"
    for args in (
        ("solve", str(path), "--rule", "opt"),
        ("gen", "spread", "--param", f"n={n}", "--param", f"m={m}", "--param", "L=5", "--out", str(out)),
    ):
        code, mb, stderr = cold_run("-m", "fvr.cli", *args)
        assert code == 2, stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert f"characters, over the limit {VIEW_LIMIT}" in stderr
        assert mb - floor < OVER_BUDGET_SLACK_MB, (args[0], mb, floor)
    assert not out.exists()
