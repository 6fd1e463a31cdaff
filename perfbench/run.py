"""End-to-end benchmark of the ``fvr`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload single_solve --seed 1 --seconds 30 --trace 0

It drives the real CLI (``python -m fvr.cli`` with ``PYTHONPATH=src``) as a
closed loop: one client, one child process at a time, each a fresh
interpreter, so parse cost and cold ``hypergeom`` caches are paid on every
call as they are for users.  A run first writes the workload's inputs with
``fvr gen random --seed <seed>`` (timed as ``setup_s``), then repeats rounds
of the workload's calls for at most ``--seconds`` (at least one round).  The
bounded times are normalized against a reference task run before and after
each call (see ``REFERENCE_TASK``).  Every call's exit code and stdout are
checked (see :class:`Checker`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds run through ``traced_cli.py``, which wraps the
public functions of each ``fvr`` module from outside; it prints the
per-module metrics, the untraced per-rule timings and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record: environment, input properties and per-call timings.  Scratch files
go to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, prod
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH_DIR / "pins.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# A run must end within 180 s; calls still running at this point are killed.
HARD_DEADLINE_S = 165.0
# Host speed on a shared machine drifts by up to 2x over tens of seconds.  Each
# measured call therefore runs between two runs of this fixed stdlib-only
# task, each in its own child, and the bounded metrics are normalized: a
# wall time w becomes w * REFERENCE_S / (mean time of the two tasks), the
# seconds it would take where the task takes REFERENCE_S.
REFERENCE_S = 0.6
REFERENCE_TASK = """\
from fractions import Fraction
x = Fraction(0)
for i in range(1, 100_000):
    x += Fraction(1, i % 97 + 1)
"""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputFile:
    name: str
    n: int
    m: int


@dataclass(frozen=True)
class Call:
    """One CLI call.  ``group`` is the untraced per-rule metric it adds to."""

    label: str
    group: str
    args: tuple[str, ...]
    file: str | None = None
    checks: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    files: tuple[InputFile, ...]
    calls: tuple[Call, ...]


def solve(group: str, file: str, rule: str, k: int | None = None, t: int | None = None) -> Call:
    args = ["solve", "{" + file + "}", "--rule", rule]
    label = f"solve {rule} {file}"
    if k is not None:
        args += ["--k", str(k), "--t", str(t)]
        label += f" k={k} t={t}"
    return Call(label, group, tuple(args), file)


def verify(group: str, suite: str, checks: int, *flags: str) -> Call:
    """A ``verify`` call; ``checks`` is its pinned check count, the same for every seed."""
    return Call(f"verify {suite}", group, ("verify", suite, *flags, "--jobs", "1"), None, checks)


SINGLE_RULES = (
    ("approval", "solve_s.approval"),
    ("opt", "solve_s.opt"),
    ("power:2", "solve_s.power2"),
    ("threshold:1/2", "solve_s.threshold"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single_solve",
            (InputFile("tall", 6000, 40), InputFile("wide", 600, 400)),
            tuple(solve(group, f, rule) for f in ("tall", "wide") for rule, group in SINGLE_RULES),
        ),
        Workload(
            "committee_solve",
            (
                InputFile("seq_tall", 3000, 40),
                InputFile("seq_wide", 1000, 80),
                InputFile("exp_16", 200, 16),
                InputFile("exp_14", 200, 14),
            ),
            (
                solve("solve_s.seq", "seq_tall", "seq", 4, 2),
                solve("solve_s.seq", "seq_wide", "seq", 10, 3),
                solve("solve_s.expanded", "exp_16", "expanded", 4, 2),
                solve("solve_s.expanded", "exp_14", "expanded", 5, 2),
            ),
        ),
        Workload(
            "verify_sweep",
            (),
            (
                verify("verify_s.multiwinner", "multiwinner", 10506, "--n-max", "2", "--m-max", "4"),
                *(
                    verify("verify_s.single", suite, checks, "--n-max", "3", "--m-max", "4")
                    for suite, checks in (
                        ("opt", 3266),
                        ("approval", 3266),
                        ("power", 9798),
                        ("threshold", 3266),
                        ("reduction", 2332),
                    )
                ),
                verify("verify_s.hypergeom", "hypergeom", 23694, "--m-max", "10", "--budget", "100"),
                verify(
                    "verify_s.hypergeom",
                    "pvc",
                    3892,
                    "--n-max", "4", "--m-max", "4", "--budget", "1000", "--seed", "{seed}",
                ),
            ),
        ),
    )
}

GROUPS = (
    *(group for _, group in SINGLE_RULES),
    "solve_s.seq",
    "solve_s.expanded",
    "verify_s.multiwinner",
    "verify_s.single",
    "verify_s.hypergeom",
)

# ---------------------------------------------------------------------------
# Metric names and units.  BENCHMARK.json declares the same lists.
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "geomean_call_s": "s",
}

# Untraced per-rule timings, reported by the traced run.
BREAKDOWN = {
    "fail_ratio": "ratio",
    "voters_per_s": "1/s",
    "checks_per_s": "1/s",
    **{group: "s" for group in GROUPS},
}

# (function, statistics) traced per module; "s" is inclusive, "self_s" exclusive.
TRACED_STATS = {
    "formats.parse_instance": ("s", "calls"),
    "formats.serialize_instance": ("s",),
    "core.build_instance": ("s",),
    "core.eval_weight": ("calls",),
    "single_winner.score_all": ("calls", "self_s"),
    "single_winner.winner": ("self_s",),
    "single_winner.empirical_fvr_point": ("calls", "self_s"),
    "single_winner.closed_form_fvr": ("calls",),
    "hypergeom.hyp_cdf": ("calls", "self_s"),
    "hypergeom.hyp_pmf": ("calls", "self_s"),
    "hypergeom.multiwinner_bound": ("calls",),
    "multi_winner.sequential_picks": ("calls", "self_s"),
    "multi_winner.committee_score": ("calls", "self_s"),
    "multi_winner.expand_instance": ("self_s",),
    "multi_winner.expanded_rule": ("s",),
    "multi_winner.empirical_fvr_committee": ("calls", "self_s"),
    "oracles.gen_random_instance": ("s",),
    "oracles.conditional_expected_score": ("calls", "self_s"),
    "oracles.strong_pvc": ("self_s",),
    "verify.run_suite": ("s",),
    "cli.main": ("s",),
}
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
PER_MODULE = {
    **{f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in TRACED_STATS.items() for stat in stats},
    "formats.bytes_parsed": "bytes",
    "hypergeom.cache_hit_ratio": "ratio",
    "hypergeom.cache_entries": "count",
    "oracles.enumerate_voter_multisets.instances": "count",
    "verify.checks": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {**BREAKDOWN, **PER_MODULE}


# ---------------------------------------------------------------------------
# Running one child
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: str
    timed_out: bool


class Runner:
    """Starts one child at a time, times it and reaps it with ``os.wait4``."""

    def __init__(self, work: Path, started: float) -> None:
        self.work = work
        self.deadline = started + HARD_DEADLINE_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(work.parent / "pycache"),
        )
        self.stderr_path = work / "stderr.txt"

    def run(self, argv: list[str]) -> Outcome:
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode < 0 and wall >= timeout
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr, timed_out)

    def fvr(self, args: list[str], trace_out: Path | None = None) -> Outcome:
        if trace_out is None:
            return self.run([sys.executable, "-m", "fvr.cli", *args])
        tracer = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_out)]
        return self.run(tracer + args)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """The exact ``p/q`` part of a ``p/q = decimal`` rendering."""
    return Fraction(text.split(" = ")[0])


def single_bound(rule: str, s: Fraction) -> Fraction:
    """The paper's worst-case audit guarantee of a single-winner rule at s."""
    if rule == "approval":
        return 1 / (1 + s)
    if rule == "opt":
        return 1 - s
    if rule.startswith("power:"):
        p = int(rule.partition(":")[2])
        return 1 / (1 + (s * (p + 1)) ** (p + 1) / Fraction(p**p))
    s0 = Fraction(rule.partition(":")[2])
    return 1 - s0 if s >= s0 else Fraction(1)


def committee_bound(m: int, s: Fraction, k: int, t: int) -> Fraction:
    """Chance that a random k-committee holds fewer than t of ceil(s*m) approved candidates."""
    size = ceil(s * m)
    return Fraction(sum(comb(size, j) * comb(m - size, k - j) for j in range(t)), comb(m, k))


def check_solve(text: str, call: Call, props: dict) -> str | None:
    """Check a ``solve`` stdout against the input and the paper's guarantees.

    The checks need nothing from ``fvr``: the header echoes the input, the
    winner is the lowest-index top score, the sequential committee scores
    at most n, and every audit value is a share of the n voters that stays
    within the rule's guarantee at its threshold.
    """
    m, n = props["m"], props["n"]
    rule = call.args[3]
    lines = text.split("\n")
    if lines[-1] != "" or lines[:3] != [f"rule: {rule}", f"m: {m}", f"n: {n}"]:
        return "header does not echo the rule and input"
    body = lines[3:-1]
    if rule in ("seq", "expanded"):
        k, t = int(call.args[5]), int(call.args[7])
        if body[:2] != [f"k: {k}", f"t: {t}"] or not body[2].startswith("committee: "):
            return "committee header malformed"
        members = [int(a) for a in body[2].split(" ")[1:]]
        if len(set(members)) != k or not all(0 <= a < m for a in members):
            return f"committee {members} is not {k} distinct candidates"
        score = _fraction(body[3].removeprefix("committee score: "))
        if rule == "seq" and score > n:
            return f"sequential committee scores {score} > n"
        if body[4] != f"score cap (n): {n}":
            return "score cap line malformed"
        audit, bound = body[6:], (lambda s: committee_bound(m, s, k, t))
    else:
        if not body[0].startswith("winner: ") or body[1] != "scores:":
            return "winner line malformed"
        scores = [line.split(": ", 1) for line in body[2 : 2 + m]]
        if [int(a) for a, _ in scores] != list(range(m)):
            return "score lines malformed"
        values = [_fraction(v) for _, v in scores]
        if int(body[0].split(" ")[1]) != values.index(max(values)):
            return "winner is not the lowest-index top score"
        audit, bound = body[3 + m :], (lambda s: single_bound(rule, s))
    if len(audit) != m - 1:
        return f"audit has {len(audit)} thresholds, expected {m - 1}"
    for i, line in enumerate(audit, start=1):
        s = Fraction(i, m)
        head, _, value = line.partition(": ")
        share = _fraction(value)
        if head != f"  s={s}" or (share * n).denominator != 1 or not 0 <= share <= 1:
            return f"audit line {line!r} malformed"
        if share > bound(s):
            return f"audit {share} at s={s} exceeds the guarantee {bound(s)}"
    return None


VERIFY_LINE = re.compile(r"suite (\w+): (\d+) checks, (\d+) violations\nPASS\n\Z")


def verify_checks(stdout: bytes) -> int | None:
    match = VERIFY_LINE.match(stdout.decode("utf-8", errors="replace"))
    return int(match.group(2)) if match and match.group(3) == "0" else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


class Checker:
    """Decides whether each call's result is correct.

    Every seed: exit code 0, stdout identical to the first result of the
    same call in this run, ``PASS`` with the pinned check count for
    ``verify``, and :func:`check_solve` for ``solve``.  The default seed
    also pins the SHA-256 of every input file and every ``solve`` stdout.
    """

    def __init__(self, workload: Workload, seed: int, props: dict, pins: dict) -> None:
        self.props = props
        self.pins = pins.get(workload.name, {})
        self.exact = seed == pins.get("seed") and bool(self.pins)
        self.first: dict[str, bytes] = {}
        self.errors: list[str] = []

    def fail(self, label: str, why: str) -> bool:
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")
        return False

    def file(self, name: str, data: bytes) -> bool:
        key = f"file {name}"
        if self.first.setdefault(key, data) != data:
            return self.fail(key, "generated file differs between set-up repeats")
        if self.exact and self.pins["files"].get(name) != sha256(data):
            return self.fail(key, "file SHA-256 differs from the pinned value")
        return True

    def call(self, call: Call, out: Outcome) -> bool:
        if out.timed_out:
            return self.fail(call.label, "timed out")
        if out.exit_code != 0:
            return self.fail(call.label, f"exit {out.exit_code}: {out.stderr.strip()[-300:]}")
        if self.first.setdefault(call.label, out.stdout) != out.stdout:
            return self.fail(call.label, "stdout differs from an earlier repeat of the same call")
        if call.file is None:
            if verify_checks(out.stdout) != call.checks:
                return self.fail(call.label, f"expected PASS with {call.checks} checks, got {out.stdout!r}")
            return True
        if self.exact and self.pins["stdout"].get(call.label) != sha256(out.stdout):
            return self.fail(call.label, "stdout SHA-256 differs from the pinned value")
        try:
            why = check_solve(out.stdout.decode("utf-8", errors="replace"), call, self.props[call.file])
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            why = f"malformed output ({exc})"
        return True if why is None else self.fail(call.label, why)


# ---------------------------------------------------------------------------
# Input properties and environment
# ---------------------------------------------------------------------------


def file_properties(data: bytes) -> dict:
    lines = data.decode("utf-8").split("\n")
    m, n = int(lines[1].split()[1]), int(lines[2].split()[1])
    sizes = [len(line.split()) for line in lines[3 : 3 + n]]
    classes = len(set(sizes))
    return {
        "n": n,
        "m": m,
        "bytes": len(data),
        "distinct_sizes": classes,
        "voters_per_size_class": n / classes,
    }


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.runner = Runner(self.work, time.perf_counter())
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.props: dict[str, dict] = {}
        self.checker: Checker | None = None

    def count(self, ok: bool, out: Outcome) -> None:
        self.attempted += 1
        self.failed += not ok
        self.peak_rss_mb = max(self.peak_rss_mb, out.rss_mb)

    def path(self, name: str, repeat: int = 0) -> Path:
        return self.work / f"{name}.{repeat}.txt"

    def gen_args(self, f: InputFile, out: Path) -> list[str]:
        return [
            "gen", "random", "--param", f"n={f.n}", "--param", f"m={f.m}",
            "--seed", str(self.seed), "--out", str(out),
        ]

    def setup(self) -> float:
        """Write the inputs SETUP_REPEATS times; returns the median normalized set-up seconds.

        ``verify_sweep`` has no inputs: its set-up is IMPORT_REPEATS cold
        ``import fvr`` calls.  Each repeat sits between two reference tasks.
        """
        runner = self.runner
        warm = runner.run([sys.executable, "-c", "import fvr.cli"])
        if warm.exit_code != 0:
            raise SystemExit(f"cannot import fvr from {SRC}: {warm.stderr.strip()}")
        times: list[float] = []
        refs = [self.reference()]
        outputs: list[tuple[str, Outcome, bytes]] = []
        for repeat in range(SETUP_REPEATS if self.workload.files else IMPORT_REPEATS):
            total = 0.0
            if not self.workload.files:
                out = runner.run([sys.executable, "-c", "import fvr"])
                self.count(out.exit_code == 0, out)
                total = out.wall_s
            for f in self.workload.files:
                path = self.path(f.name, repeat)
                path.unlink(missing_ok=True)
                out = runner.fvr(self.gen_args(f, path))
                total += out.wall_s
                data = path.read_bytes() if out.exit_code == 0 and path.exists() else b""
                outputs.append((f.name, out, data))
            times.append(total)
            refs.append(self.reference())
        self.setup_raw_s = median(times)
        self.props = {name: file_properties(data) for name, _, data in outputs if data}
        self.checker = Checker(self.workload, self.seed, self.props, load_pins())
        for name, out, data in outputs:
            ok = out.exit_code == 0 and bool(data) and self.checker.file(name, data)
            if out.exit_code != 0:
                self.checker.fail(f"gen {name}", f"exit {out.exit_code}: {out.stderr.strip()[-300:]}")
            self.count(ok, out)
        if len(self.props) != len(self.workload.files):
            raise SystemExit("set-up failed: " + "; ".join(self.checker.errors))
        for f in self.workload.files:
            for repeat in range(1, SETUP_REPEATS):
                self.path(f.name, repeat).unlink()
        return median([normalized(t, a, b) for t, a, b in zip(times, refs, refs[1:])])

    def args(self, call: Call) -> list[str]:
        subst = {"{seed}": str(self.seed), **{"{" + f.name + "}": str(self.path(f.name)) for f in self.workload.files}}
        return [subst.get(a, a) for a in call.args]

    def reference(self) -> float:
        out = self.runner.run([sys.executable, "-c", REFERENCE_TASK])
        if out.exit_code != 0:
            raise SystemExit(f"reference task failed: {out.stderr.strip()}")
        return out.wall_s

    def round(self, traced: bool) -> list[tuple]:
        """Run every call once; returns (call, outcome, trace summary, normalized seconds)."""
        results = []
        calls = list(self.workload.calls)
        if traced:
            # Trace the input writers too, so set-up layers show in the trace.
            calls = [Call(f"gen {f.name}", "", tuple(self.gen_args(f, self.path(f.name, "traced"))), None) for f in self.workload.files] + calls
        ref_before = self.reference()
        for i, call in enumerate(calls):
            # Span files are overwritten each round; the summaries are kept.
            trace_out = self.work / f"trace-{i}.json" if traced else None
            out = self.runner.fvr(self.args(call), trace_out)
            ref_after = self.reference()
            norm_s = normalized(out.wall_s, ref_before, ref_after)
            ref_before = ref_after
            summary = None
            if traced and trace_out.exists():
                summary = json.loads(trace_out.read_text(encoding="utf-8"))
                del summary["kept_spans"], summary["folded_spans"]
            if call.label.startswith("gen "):
                name = call.label[4:]
                path = self.path(name, "traced")
                data = path.read_bytes() if path.exists() else b""
                path.unlink(missing_ok=True)
                ok = out.exit_code == 0 and self.checker.file(name, data)
            else:
                ok = self.checker.call(call, out)
            self.count(ok, out)
            results.append((call, out, summary, norm_s))
        return results

    def measure(self) -> list[list]:
        """Rounds (untraced/traced pairs with ``--trace 1``) for at most ``seconds``.

        Another round starts only while one as long as the longest so far
        still fits; the first always runs.
        """
        rounds = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            rounds.append(self.round(False))
            if self.trace:
                rounds.append(self.round(True))
            longest = max(longest, time.perf_counter() - began)
            now = time.perf_counter()
            if now + longest > start + self.seconds or now + longest > self.runner.deadline:
                return rounds


def normalized(wall_s: float, ref_before: float, ref_after: float) -> float:
    return wall_s * REFERENCE_S * 2 / (ref_before + ref_after)


def normalized_total(rounds: list[list]) -> float:
    """Normalized seconds of the workload's own calls, without the traced input writers."""
    return sum(norm_s for results in rounds for call, _, _, norm_s in results if call.group)


def _items(call: Call, out: Outcome, props: dict) -> int:
    if call.file is not None:
        return props[call.file]["n"]
    return verify_checks(out.stdout) or 0


def untraced_stats(rounds: list[list], props: dict) -> dict[str, float]:
    """Raw wall-time medians over rounds, plus the normalized metrics.

    Each call's normalized time is its median over the run's rounds.
    """
    per_round: dict[str, list[float]] = {}
    costs: dict[str, list[float]] = {}
    items_of: dict[str, int] = {}
    for results in rounds:
        values = {group: 0.0 for group in GROUPS}
        items = walls = 0.0
        for call, out, _, norm_s in results:
            values[call.group] += out.wall_s
            items_of[call.label] = _items(call, out, props)
            items += items_of[call.label]
            walls += out.wall_s
            costs.setdefault(call.label, []).append(norm_s)
        values["items_per_s"] = items / walls
        values["geomean_call_s"] = prod(out.wall_s for _, out, _, _ in results) ** (1 / len(results))
        for key, value in values.items():
            per_round.setdefault(key, []).append(value)
    stats = {key: median(values) for key, values in per_round.items()}
    cost = [median(values) for values in costs.values()]
    stats["norm_items_per_s"] = sum(items_of.values()) / sum(cost)
    stats["norm_geomean_call_s"] = prod(cost) ** (1 / len(cost))
    stats["median_norm_s"] = dict(zip(costs, cost))
    return stats


def traced_stats(rounds: list[list]) -> dict[str, float]:
    per_round: dict[str, list[float]] = {}
    for results in rounds:
        totals: dict[str, list[float]] = {}
        counters: dict[str, int] = {}
        hits = misses = entries = spans = checks = 0
        for call, out, doc, _ in results:
            if doc is None:
                continue
            for name, (calls, s, self_s) in doc["totals"].items():
                t = totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += s
                t[2] += self_s
            for name, value in doc["counters"].items():
                counters[name] = counters.get(name, 0) + value
            caches = doc["hypergeom_caches"]
            hits += caches["hits"]
            misses += caches["misses"]
            entries = max(entries, caches["entries"])
            spans += doc["spans"]
            if call.file is None and not call.label.startswith("gen "):
                checks += verify_checks(out.stdout) or 0
        values: dict[str, float] = {}
        for fn, stats in TRACED_STATS.items():
            calls, s, self_s = totals.get(fn, (0, 0.0, 0.0))
            values.update({f"{fn}.calls": calls, f"{fn}.s": s, f"{fn}.self_s": self_s})
        values["cli.self_s"] = values["cli.main.self_s"]
        values["formats.bytes_parsed"] = counters.get("formats.bytes_parsed", 0)
        values["oracles.enumerate_voter_multisets.instances"] = counters.get(
            "oracles.enumerate_voter_multisets.instances", 0
        )
        values["hypergeom.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values["hypergeom.cache_entries"] = entries
        values["trace.spans"] = spans
        values["verify.checks"] = checks
        for key, value in values.items():
            per_round.setdefault(key, []).append(value)
    return {key: median(values) for key, values in per_round.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, run record)."""
    bench = Run(workload, seed, seconds, trace)
    setup_s = bench.setup()
    rounds = bench.measure()
    plain = [r for i, r in enumerate(rounds) if not trace or i % 2 == 0]
    stats = untraced_stats(plain, bench.props)
    fail_ratio = bench.failed / bench.attempted
    if not trace:
        values = {
            "setup_s": setup_s,
            "pass_ratio": 1 - fail_ratio,
            "peak_rss_mb": bench.peak_rss_mb,
            "items_per_s": stats["norm_items_per_s"],
            "geomean_call_s": stats["norm_geomean_call_s"],
        }
        units = END_TO_END
    else:
        solving = any(call.file for call in workload.calls)
        traced_rounds = [r for i, r in enumerate(rounds) if i % 2 == 1]
        traced = traced_stats(traced_rounds)
        values = {
            "fail_ratio": fail_ratio,
            "voters_per_s": stats["items_per_s"] if solving else 0.0,
            "checks_per_s": 0.0 if solving else stats["items_per_s"],
            **{group: stats[group] for group in GROUPS},
            **{name: traced[name] for name in PER_MODULE if name != "trace.overhead_ratio"},
            "trace.overhead_ratio": normalized_total(traced_rounds) / normalized_total(plain),
        }
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    per_call: dict[str, list[tuple[float, float]]] = {}
    for results in plain:
        for call, out, *_ in results:
            per_call.setdefault(call.label, []).append((out.wall_s, out.rss_mb))
    record = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": bench.props,
        "committee_candidates": {
            call.label: comb(bench.props[call.file]["m"], int(call.args[5]))
            for call in workload.calls
            if call.file is not None and "--k" in call.args
        },
        "rounds": len(plain),
        "fail_ratio": fail_ratio,
        "setup_raw_s": bench.setup_raw_s,
        "untraced": stats,
        "median_wall_s": {label: median([w for w, _ in v]) for label, v in per_call.items()},
        "peak_rss_mb": {label: max(r for _, r in v) for label, v in per_call.items()},
        "errors": bench.checker.errors,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fvr" / "cli.py").is_file():
        print(f"error: no fvr sources under {SRC}", file=sys.stderr)
        return 2
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    for error in record["errors"]:
        print(f"failure: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
