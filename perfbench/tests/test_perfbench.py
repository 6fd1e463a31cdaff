"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import traced_cli  # noqa: E402
import tracing  # noqa: E402

import fvr  # noqa: E402
from fvr import cli, multi_winner, oracles, single_winner  # noqa: E402

TINY = run.Workload(
    "tiny",
    (run.InputFile("small", 40, 6),),
    (
        run.solve("solve_s.opt", "small", "opt"),
        run.solve("solve_s.seq", "small", "seq", 2, 1),
        run.solve("solve_s.expanded", "small", "expanded", 3, 2),
        run.verify("verify_s.single", "opt", 102, "--n-max", "2", "--m-max", "3"),
    ),
)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_names_and_units_match_the_emitted_ones():
    doc = declared()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert doc["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_is_correct_and_emits_the_declared_metrics(trace):
    started = time.perf_counter()
    result, record = run.run(TINY, seed=5, seconds=0, trace=trace)
    assert time.perf_counter() - started < 90
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == list(expected)
    assert all(metrics[name]["unit"] == unit for name, unit in expected.items())
    if trace:
        assert metrics["fail_ratio"]["value"] == 0
        assert metrics["verify.checks"]["value"] == 102
        assert metrics["formats.parse_instance.calls"]["value"] == 3
        assert metrics["trace.spans"]["value"] > 0
    else:
        assert metrics["pass_ratio"]["value"] == 1
    assert record["inputs"]["small"]["n"] == 40


@pytest.fixture
def traced():
    tracer = tracing.Tracer(keep_limit=5)
    originals = {
        "score_all": single_winner.score_all,
        "winner": single_winner.winner,
        "committee_score": multi_winner.committee_score,
        "gen": oracles.gen_random_instance,
        "sequential_rule": multi_winner.sequential_rule,
    }
    changed = traced_cli.install(tracer)
    try:
        yield tracer, originals
    finally:
        tracing.restore(reversed(changed))


def test_tracing_wrapper_returns_identical_values(traced):
    tracer, original = traced
    assert cli.score_all is not original["score_all"]
    assert oracles.committee_score is not original["committee_score"]
    inst = oracles.gen_random_instance(60, 7, seed=3)
    assert inst == original["gen"](60, 7, seed=3)
    for family in (fvr.Constant(), fvr.Optimal(Fraction(1)), fvr.Power(2)):
        assert cli.score_all(inst, family) == original["score_all"](inst, family)
        assert single_winner.winner(inst, family) == original["winner"](inst, family)
    committee = original["sequential_rule"](inst, fvr.MultiParams(3, 2))
    assert oracles.committee_score(inst, committee, 2) == original["committee_score"](inst, committee, 2)
    # 3 direct calls, 3 inside the traced winner, and 3 inside the original
    # winner, whose global lookup of score_all now finds the wrapper.
    calls, total_s, self_s = tracer.totals["single_winner.score_all"]
    assert calls == 9 and 0 <= self_s <= total_s
    assert tracer.totals["single_winner.winner"][0] == 3
    # Only 5 spans of a name are kept; the rest fold into per-parent aggregates.
    assert sum(1 for span in tracer.spans if span[1] == "single_winner.score_all") == 5
    assert sum(agg[0] for (name, _), agg in tracer.folded.items() if name == "single_winner.score_all") == 4


def test_traced_cli_stdout_matches_untraced(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(fvr.formats.serialize_instance(oracles.gen_random_instance(30, 5, seed=1)))
    argvs = (["solve", str(path), "--rule", "power:2"], ["verify", "opt", "--n-max", "1", "--m-max", "3"])
    untraced = [cli_stdout(argv) for argv in argvs]
    tracer = tracing.Tracer()
    changed = traced_cli.install(tracer)
    try:
        assert [cli_stdout(argv) for argv in argvs] == untraced
    finally:
        tracing.restore(reversed(changed))
    assert cli.main is fvr.cli.main and "traced" not in cli.main.__code__.co_name
    assert tracer.counters["formats.bytes_parsed"] == len(path.read_bytes())
    assert tracer.totals["cli.main"][0] == 2
    assert tracer.counters["oracles.enumerate_voter_multisets.instances"] > 0


def cli_stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def test_self_time_is_duration_minus_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    # Clock reads: outer 0..5, inner 1..2 and 3..4.
    assert tracer.totals["outer"] == [1, 5.0, 3.0]
    assert tracer.totals["inner"] == [2, 2.0, 2.0]
    # The kept spans alone give the same self time.
    child_s: dict[int, float] = {}
    for _, _, parent, start, end in tracer.spans:
        child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    outer_id, _, _, start, end = next(span for span in tracer.spans if span[1] == "outer")
    assert (end - start) - child_s[outer_id] == 3.0


def test_check_solve_rejects_a_wrong_winner(tmp_path):
    path = tmp_path / "inst.txt"
    inst = oracles.gen_random_instance(30, 5, seed=2)
    path.write_text(fvr.formats.serialize_instance(inst))
    call = run.solve("solve_s.opt", "small", "opt")
    props = {"n": 30, "m": 5}
    text = cli_stdout(["solve", str(path), "--rule", "opt"])
    assert run.check_solve(text, call, props) is None
    lines = text.split("\n")
    chosen = int(lines[3].split(" ")[1])
    lines[3] = f"winner: {(chosen + 1) % 5}"
    assert "winner" in run.check_solve("\n".join(lines), call, props)


def test_committee_bound_matches_fvr():
    for m, k, t in ((6, 2, 1), (8, 3, 2), (10, 4, 3)):
        for i in range(1, m):
            s = Fraction(i, m)
            assert run.committee_bound(m, s, k, t) == fvr.multiwinner_bound(m, s, k, t)


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "single_solve", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
