"""Verification suites: every suite runs clean, its blocks in order in one process."""

import ast
import inspect
import multiprocessing
import os
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from fvr import multi_winner, oracles, verify
from fvr.cli import main
from fvr.core import Committee, Constant, RankedProfile, SizeLimitError, ValidationError, build_instance, parse_family
from fvr.hypergeom import HypParams, hyp_cdf, hyp_pmf, multiwinner_bound
from fvr.multi_winner import JrResult, MultiParams, empirical_fvr_committee, jr_check, sequential_picks
from fvr.oracles import (
    _multisets_over,
    conditional_expected_score,
    conditional_expected_scores,
    enumerate_voter_multisets,
    gen_jr_hard,
    reference_committee_score,
    strong_pvc,
)
from fvr.single_winner import closed_form_fvr, empirical_fvr_point, grid_theoretical_fvr, ropt_winner, score_all
from fvr.verify import (
    _SUITES,
    MAX_VIOLATIONS_KEPT,
    SUITE_NAMES,
    _build_separations,
    _jr_clash_block,
    _pvc_block,
    pmf_by_enumeration,
    run_suite,
    strong_pvc_by_subsets,
)


# The separations need at least 4 candidates (party split) and 5 (JR clash).
SMALL_M_MAX = {"separations": 6}


def _checks(block):
    """A block's check count and all its violation messages, in order."""
    outcomes = list(block)
    return len(outcomes), [failure for failure in outcomes if failure]


def _build(suite, *given):
    """The blocks of ``suite`` for sizes ``given``, each None read from the suite table."""
    builder, *defaults = _SUITES[suite]
    return builder(*(default if value is None else value for value, default in zip(given, defaults)))


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_at_small_scale(suite):
    result = run_suite(suite, n_max=2, m_max=SMALL_M_MAX.get(suite, 3), seed=1)
    assert result.passed
    assert result.checked > 0
    assert result.suite == suite


def test_sweep_budget_caps_enumeration():
    from fvr.core import SizeLimitError

    with pytest.raises(SizeLimitError):
        run_suite("opt", n_max=2, m_max=3, budget=30)


def test_pvc_block_over_budget_lists_no_rankings():
    # 8! rankings would take about 4.5 MB as a list; one sampled profile needs almost none.
    tracemalloc.start()
    try:
        checked, bad = _checks(_pvc_block(1, 8, 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (checked, bad) == (1, [])
    assert peak < 1_000_000


def test_hypergeom_enumeration_budget():
    # Counting each subset once per probe t, m_max=12 makes 745,472 subset probes and
    # m_max=13 1,720,320; the budget is 10**6.
    from fvr.core import SizeLimitError
    from fvr.verify import _build_hypergeom

    assert len(_build_hypergeom(None, 12, 50, 0)) == 13 + 17 + 1
    with pytest.raises(SizeLimitError, match="m_max=13 would enumerate more than 1000000 subsets"):
        _build_hypergeom(None, 13, 50, 0)


def test_hypergeom_counting_budget():
    # Each counting sample tests up to 6 voters against the 2**8 - 2 committees of
    # 8 candidates: 656 samples make 999,744 (voter, committee) pairs, 657 make 1,001,268.
    from fvr.verify import _build_hypergeom

    assert _build_hypergeom(None, 12, 656, 0)
    with pytest.raises(SizeLimitError, match="^budget=657 would test more than 1000000 "):
        _build_hypergeom(None, 12, 657, 0)
    # A smaller population allows more samples: 6 * (2**3 - 2) pairs each at m_max=1.
    assert _build_hypergeom(None, 1, 27_777, 0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_a_suite_name_that_is_not_a_string_is_an_unknown_suite():
    with pytest.raises(ValidationError, match=r"^unknown suite \[\]; known: approval, hypergeom, "):
        run_suite([])


# Each suite's check count at its defaults; hypergeom's also pins its default seed 0.
DEFAULT_CHECKS = {
    "approval": 362,
    "hypergeom": 8008,
    "multiwinner": 10506,
    "opt": 362,
    "power": 1086,
    "pvc": 275,
    "reduction": 396,
    "separations": 402,
    "threshold": 362,
}


def test_every_suite_pins_its_default_check_count():
    results = {suite: run_suite(suite) for suite in SUITE_NAMES}
    assert all(result.passed for result in results.values())
    assert {suite: result.checked for suite, result in results.items()} == DEFAULT_CHECKS


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_run_suite_runs_its_blocks_in_order_in_one_process(monkeypatch, suite):
    def no_process(*args, **kwargs):
        raise AssertionError("run_suite started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing, "Pool", no_process)
    monkeypatch.setattr(multiprocessing.Process, "start", no_process)
    sizes = (2, SMALL_M_MAX.get(suite, 3), None, 1)
    result = run_suite(suite, *sizes)
    outcomes = [_checks(block) for block in _build(suite, *sizes)]
    assert result.checked == sum(checked for checked, _ in outcomes) > 0
    assert result.violations == tuple(v for _, bad in outcomes for v in bad)


def test_run_suite_takes_no_jobs_argument():
    assert "jobs" not in inspect.signature(run_suite).parameters
    with pytest.raises(TypeError, match="jobs"):
        run_suite("opt", jobs=1, n_max=1, m_max=2)


@pytest.mark.parametrize(
    "suite, n_max, m_max",
    [
        # Blocks (n, 2) with n <= 178 would enumerate about 4.4e7 multisets
        # before block (179, 2) went over the budget.
        ("opt", 400, 2),
        ("multiwinner", 10**9, 10**9),
        # m * (2**n - 1) = 1,048,575 (candidate, voter group) pairs for the subset oracle.
        ("pvc", 20, 1),
        ("pvc", 1, 10**12),
        ("separations", 1, 10**9),
    ],
)
def test_over_budget_sweeps_raise_before_any_block(suite, n_max, m_max):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        run_suite(suite, n_max=n_max, m_max=m_max)
    assert time.perf_counter() - start < 1


def test_over_budget_sweep_exits_2_through_the_cli(capsys):
    assert main(["verify", "opt", "--n-max", "400", "--m-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n_max=400, m_max=2 would enumerate more than")


def test_one_candidate_sweep_builds_no_block():
    # Blocks with m = 1 check nothing, so a long one-candidate sweep is no work.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run_suite("opt", n_max=300_000, m_max=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.checked == 0 and result.passed
    assert time.perf_counter() - start < 1
    assert peak < 2_000_000


@pytest.mark.parametrize("budget", [1, 2, 7, 36, 1000, 10**6])
def test_multiset_budget_check_is_the_binomial(budget):
    for n in range(1, 30):
        for m in range(1, 11):
            assert _multisets_over(n, m, budget) == (comb(2**m + n - 1, n) > budget)


@pytest.mark.parametrize(
    "suite, n_max, m_max, budget",
    [
        # The benchmark's sizes.
        ("multiwinner", 2, 4, None),
        *((suite, 3, 4, None) for suite in ("opt", "approval", "power", "threshold", "reduction")),
        ("hypergeom", None, 10, 100),
        # The counting budgets the tests pass, at the largest m_max.
        *(("hypergeom", None, 12, budget) for budget in (2, 5, 50, 100, 200)),
        ("pvc", 4, 4, 1000),
        # The suites' defaults, and the largest pvc sweep of one candidate.
        *((suite, None, None, None) for suite in SUITE_NAMES),
        ("pvc", 19, 1, None),
    ],
)
def test_budgets_admit_the_sweeps_in_use(suite, n_max, m_max, budget):
    assert _build(suite, n_max, m_max, budget, 0)


# ---------------------------------------------------------------------------
# Planted faults: each suite, run on a wrong kernel, reports violations whose
# messages carry the exact values (a suite that checks nothing would pass).
# ---------------------------------------------------------------------------

SINGLE = re.compile(
    r"(?P<label>\S+) n=(?P<n>\d+) m=(?P<m>\d+) approvals=(?P<approvals>\[.*\]) "
    r"s=(?P<s>\S+): audit (?P<audit>\S+) exceeds (?P<bound>\S+)"
)
SEQ_AUDIT = re.compile(
    r"seq n=(?P<n>\d+) m=(?P<m>\d+) k=(?P<k>\d+) t=(?P<t>\d+) s=(?P<s>\S+) "
    r"approvals=(?P<approvals>\[.*\]): audit (?P<audit>\S+) exceeds (?P<bound>\S+)"
)
ROSE = re.compile(
    r"n=(?P<n>\d+) m=(?P<m>\d+) k=(?P<k>\d+) t=(?P<t>\d+) approvals=(?P<approvals>\[.*\]): "
    r"conditional expectation rose from (?P<before>\S+) to (?P<after>\S+) at pick (?P<j>\d+)"
)


def _instance(match):
    return build_instance(int(match["m"]), ast.literal_eval(match["approvals"]))


def _worst_winner(inst, w):
    """The lowest-scoring candidate: the opposite of :func:`fvr.single_winner.winner`."""
    scores = score_all(inst, w)
    return min(range(inst.m), key=scores.__getitem__)


def _worst_first_picks(inst, params):
    """The k least-approved candidates, least first."""
    order = sorted(range(inst.m), key=lambda a: (inst.columns[a].bit_count(), a))
    return tuple(order[: params.k])


@pytest.mark.parametrize("suite", ["opt", "approval", "power", "threshold"])
def test_single_winner_suites_catch_a_planted_worst_winner(monkeypatch, suite):
    monkeypatch.setattr(verify, "winner", _worst_winner)
    result = run_suite(suite, n_max=2, m_max=3)
    assert result.violations
    for message in result.violations:
        match = SINGLE.fullmatch(message)
        assert match, message
        inst, s, family = _instance(match), Fraction(match["s"]), parse_family(match["label"])
        audit, bound = Fraction(match["audit"]), Fraction(match["bound"])
        assert audit == empirical_fvr_point(inst, _worst_winner(inst, family), s)
        assert bound == grid_theoretical_fvr(family, s, inst.m) < audit


def test_single_winner_suites_audit_against_the_finite_m_bound(monkeypatch):
    # At m = 2 and s = 1/2 the approval bound is 1/2, below the closed form 2/3: a
    # planted winner with an audit of 2/3 there is caught only by the finite-m bound.
    monkeypatch.setattr(verify, "winner", _worst_winner)
    result = run_suite("approval", n_max=3, m_max=2)
    between = [
        match
        for match in map(SINGLE.fullmatch, result.violations)
        if Fraction(match["audit"]) <= closed_form_fvr(Constant(), Fraction(match["s"]))
    ]
    caught = {(match["m"], match["s"], match["audit"], match["bound"]) for match in between}
    assert caught == {("2", "1/2", "2/3", "1/2")}


def test_multiwinner_suite_catches_planted_worst_first_picks(monkeypatch):
    monkeypatch.setattr(verify, "sequential_picks", _worst_first_picks)
    result = run_suite("multiwinner", n_max=2, m_max=3)
    audits = [m for m in map(SEQ_AUDIT.fullmatch, result.violations) if m]
    rises = [m for m in map(ROSE.fullmatch, result.violations) if m]
    assert audits and rises
    for match in audits:
        inst, s, k, t = _instance(match), Fraction(match["s"]), int(match["k"]), int(match["t"])
        committee = Committee(_worst_first_picks(inst, MultiParams(k, t)))
        audit, bound = Fraction(match["audit"]), Fraction(match["bound"])
        assert audit == empirical_fvr_committee(inst, committee, s, t)
        assert bound == multiwinner_bound(inst.m, s, k, t) < audit
    for match in rises:
        inst, params, j = _instance(match), MultiParams(int(match["k"]), int(match["t"])), int(match["j"])
        picks = _worst_first_picks(inst, params)
        assert Fraction(match["before"]) == conditional_expected_score(inst, params, picks[: j - 1])
        assert Fraction(match["after"]) == conditional_expected_score(inst, params, picks[:j])
        assert Fraction(match["after"]) > Fraction(match["before"])


INCLUDABLE = re.compile(
    r"n=(?P<n>\d+) m=(?P<m>\d+) k=(?P<k>\d+) t=(?P<t>\d+) approvals=(?P<approvals>\[.*\]): "
    r"average penalty over all committees is (?P<average>\S+), not the (?P<includable>\d+) includable voters"
)


def test_multiwinner_suite_catches_a_prefix_oracle_off_by_one_at_its_first_entry(monkeypatch):
    def off_by_one(inst, params, picks):
        first, *rest = conditional_expected_scores(inst, params, picks)
        return [first + 1, *rest]

    monkeypatch.setattr(verify, "conditional_expected_scores", off_by_one)
    result = run_suite("multiwinner", n_max=1, m_max=3)
    # One per (instance, k, t): 2**m one-voter instances, with 1 pair (k, t) at m = 2 and 3 at m = 3.
    assert len(result.violations) == 4 * 1 + 8 * 3
    for message in result.violations:
        match = INCLUDABLE.fullmatch(message)
        assert match, message
        inst, k, t = _instance(match), int(match["k"]), int(match["t"])
        includable = sum(1 for A in inst.approvals if hyp_cdf(HypParams(inst.m, len(A), k), t - 1))
        assert int(match["includable"]) == includable
        assert Fraction(match["average"]) == conditional_expected_score(inst, MultiParams(k, t)) + 1
        assert Fraction(match["average"]) == includable + 1


def test_reduction_suite_catches_a_planted_expanded_rule(monkeypatch):
    # The lexicographically last committee instead of the optimal one.
    monkeypatch.setattr(verify, "expanded_rule", lambda inst, params: Committee((inst.m - 1,)))
    result = run_suite("reduction", n_max=2, m_max=3)
    assert result.violations
    pattern = re.compile(
        r"n=\d+ m=(?P<m>\d+) approvals=(?P<approvals>\[.*\]): "
        r"expanded gave \((?P<gave>\d+),\), single-winner rule gives (?P<expected>\d+)"
    )
    for message in result.violations:
        match = pattern.fullmatch(message)
        assert match, message
        assert int(match["gave"]) == int(match["m"]) - 1 != int(match["expected"])
        assert int(match["expected"]) == ropt_winner(_instance(match))


def test_hypergeom_suite_catches_off_by_one_pmf_and_cdf(monkeypatch):
    monkeypatch.setattr(verify, "hyp_pmf", lambda params, t: hyp_pmf(params, t - 1))
    result = run_suite("hypergeom", m_max=3, budget=2)
    pattern = re.compile(r"pmf\((\d+),(\d+),(\d+);(-?\d+)\) = (\S+) != (\S+)")
    pmf_messages = [m for m in map(pattern.fullmatch, result.violations) if m]
    assert pmf_messages
    for match in pmf_messages:
        *shape, actual, expected = match.groups()
        p, s, d, t = map(int, shape)
        assert Fraction(actual) == hyp_pmf(HypParams(p, s, d), t - 1)
        assert Fraction(expected) == pmf_by_enumeration(p, s, d, t) != Fraction(actual)

    monkeypatch.undo()
    monkeypatch.setattr(verify, "hyp_cdf", lambda params, t: hyp_cdf(params, t + 1))
    result = run_suite("hypergeom", m_max=3, budget=2)
    assert any(message.endswith("!= enumerated cumulative") for message in result.violations)
    # The counting block's messages come after the enumeration's, past the
    # ones a suite keeps, so its block runs alone.
    checked, bad = _checks(verify._hyp_counting_block(0, 5, 4))
    assert checked and bad
    pattern = re.compile(
        r"m=(\d+) k=(\d+) t=(\d+) \|A\|=(\d+): (\d+) committees reach the "
        r"target but the distribution predicts (\S+)"
    )
    for message in bad:
        *counts, predicted = pattern.fullmatch(message).groups()
        m, k, t, size, reached = map(int, counts)
        predicted = Fraction(predicted)
        assert reached == sum(comb(size, o) * comb(m - size, k - o) for o in range(t, k + 1))
        assert predicted == (1 - hyp_cdf(HypParams(m, size, k), t)) * comb(m, k) != reached


def test_hypergeom_reports_one_check_per_probe_with_both_its_failures(monkeypatch):
    monkeypatch.setattr(verify, "hyp_pmf", lambda params, t: hyp_pmf(params, t - 1))
    monkeypatch.setattr(verify, "hyp_cdf", lambda params, t: hyp_cdf(params, t + 1))
    expected = []
    probes = [(s, d, t) for s in range(3) for d in range(3) for t in range(-1, d + 2)]
    for s, d, t in probes:
        params = HypParams(2, s, d)
        pmf = pmf_by_enumeration(2, s, d, t)
        cdf = sum((pmf_by_enumeration(2, s, d, u) for u in range(t + 1)), Fraction(0))
        failures = []
        if hyp_pmf(params, t - 1) != pmf:
            failures.append(f"pmf(2,{s},{d};{t}) = {hyp_pmf(params, t - 1)} != {pmf}")
        if hyp_cdf(params, t + 1) != cdf:
            failures.append(f"cdf(2,{s},{d};{t}) != enumerated cumulative")
        if failures:
            expected.append("; ".join(failures))
    assert any("; " in message for message in expected)
    assert _checks(verify._hyp_enum_block(2)) == (len(probes), expected)


def test_hypergeom_sum_block_catches_an_asymmetric_pmf(monkeypatch):
    # Reversed over its support whenever successes exceed draws: each mass still sums to 1.
    def asymmetric(params, t):
        flip = params.successes > params.draws
        return hyp_pmf(params, params.draws - t if flip else t)

    monkeypatch.setattr(verify, "hyp_pmf", asymmetric)
    expected = [
        f"symmetry broken at (3,{s},{d};{t})"
        for s in range(4)
        for d in range(4)
        for t in range(4)
        if asymmetric(HypParams(3, s, d), t) != asymmetric(HypParams(3, d, s), t)
    ]
    assert expected
    assert _checks(verify._hyp_sum_block(3)) == (4 * 4 * 5, expected)
    assert "symmetry broken at (3,3,1;0)" in expected  # pmf(3,3,1;0) reads pmf(3,3,1;1) = 1


def test_run_suite_counts_every_check_and_keeps_the_first_violations(monkeypatch):
    # Two blocks of 4 * MAX_VIOLATIONS_KEPT checks, every other one a violation.
    def block(label):
        for i in range(4 * MAX_VIOLATIONS_KEPT):
            yield i % 2 and f"block {label} check {i}"

    def build(n_max, m_max, budget, seed):
        return [block(1), block(2)]

    monkeypatch.setitem(_SUITES, "opt", (build, None, None, None, None))
    result = run_suite("opt")
    assert result.checked == 8 * MAX_VIOLATIONS_KEPT
    assert result.failed == 4 * MAX_VIOLATIONS_KEPT
    assert result.violations == tuple(f"block 1 check {i}" for i in range(1, 2 * MAX_VIOLATIONS_KEPT, 2))
    assert not result.passed
    monkeypatch.setitem(_SUITES, "opt", (lambda *sizes: [], None, None, None, None))
    assert run_suite("opt") == verify.VerifyResult("opt", 0, 0, ())


def test_every_block_is_a_generator_that_returns_nothing():
    # A block yields its checks; run_suite alone counts them and keeps the violations.
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.endswith("_block")]
    assert blocks
    for block in blocks:
        nodes = list(ast.walk(block))
        assert any(isinstance(node, ast.Yield) for node in nodes), block.name
        assert not any(isinstance(node, ast.Return) and node.value for node in nodes), block.name


def test_pvc_suite_catches_a_planted_full_core(monkeypatch):
    monkeypatch.setattr(verify, "strong_pvc", lambda profile: frozenset(range(profile.m)))
    result = run_suite("pvc", n_max=2, m_max=3)
    assert result.violations
    pattern = re.compile(r"m=(\d+) rankings=(.*): scan and subset oracle disagree")
    for message in result.violations:
        m, rankings = pattern.fullmatch(message).groups()
        profile = RankedProfile(int(m), ast.literal_eval(rankings))
        assert strong_pvc(profile) == strong_pvc_by_subsets(profile) != frozenset(range(int(m)))


# ---------------------------------------------------------------------------
# The paper's committee separations, by brute force over every committee.
# ---------------------------------------------------------------------------

PARTY_SPLIT = re.compile(r"party split k=\d+: committee (?P<members>\[.*\]) meets the bound at every \(s, t\)")
JR_CLASH = re.compile(
    r"jr clash m=(?P<m>\d+) k=(?P<k>\d+) s=(?P<s>\S+): least audit over the JR committees "
    r"(?P<audit>\S+) does not exceed (?P<bound>\S+)"
)


def test_separations_suite_pins_its_default_count():
    # Party split k = 2..5: C(4, 2) + C(6, 3) + C(8, 4) + C(10, 5) = 348 committees;
    # JR clash: 2 checks for each of the 27 pairs with 5 <= m <= 10, 2 <= k <= m - 2.
    result = run_suite("separations")
    assert result.passed and result.checked == 348 + 2 * 27


def _check_jr_clashes(messages, jr_only):
    """Each message is a JR clash at the pairs up to m = 6, in order, whose audit the
    committee kernels give as the least over the JR committees, or over all of them."""
    clashes = [JR_CLASH.fullmatch(message) for message in messages]
    pairs = [(int(c["m"]), int(c["k"])) for c in clashes if c]
    assert len(pairs) == len(messages) and pairs == [(5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]
    for c in clashes:
        m, k, s = int(c["m"]), int(c["k"]), Fraction(c["s"])
        inst = gen_jr_hard(m, k)
        committees = [Committee(w) for w in combinations(range(m), k)]
        committees = [w for w in committees if not jr_only or jr_check(inst, w).satisfied]
        assert s == Fraction(m - k, m)
        assert Fraction(c["audit"]) == min(empirical_fvr_committee(inst, w, s, 1) for w in committees)
    return clashes


def test_separations_suite_catches_a_bound_of_one(monkeypatch):
    monkeypatch.setattr(verify, "multiwinner_bound", lambda m, s, k, t: Fraction(1))
    violations = run_suite("separations", m_max=6).violations
    splits = [list(w) for k in (2, 3) for w in combinations(range(2 * k), k)]
    assert [ast.literal_eval(PARTY_SPLIT.fullmatch(v)["members"]) for v in violations[:26]] == splits
    assert {c["bound"] for c in _check_jr_clashes(violations[26:], jr_only=True)} == {"1"}


def test_separations_suite_catches_a_jr_test_that_accepts_every_committee(monkeypatch):
    monkeypatch.setattr(verify, "jr_by_sets", lambda inst, members: JrResult(satisfied=True))
    for c in _check_jr_clashes(run_suite("separations", m_max=6).violations, jr_only=False):
        assert Fraction(c["bound"]) == multiwinner_bound(int(c["m"]), Fraction(c["s"]), int(c["k"]), 1)


def test_separations_suite_catches_a_jr_test_that_refuses_every_committee(monkeypatch):
    monkeypatch.setattr(verify, "jr_by_sets", lambda inst, members: JrResult(satisfied=False))
    assert run_suite("separations", m_max=6).violations == tuple(
        f"jr clash m={m} k={k} s={Fraction(m - k, m)}: no committee satisfies justified representation"
        for m, k in [(5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]
    )


def test_jr_clash_fails_at_m_4_and_at_k_m_minus_1():
    # Why the JR pairs start at m = 5 and stop at k = m - 2.
    for m, k in [(4, 2), *((m, m - 1) for m in range(3, 9))]:
        checked, bad = _checks(_jr_clash_block(m, k))
        assert checked == 2 and len(bad) == 1 and JR_CLASH.fullmatch(bad[0]), (m, k)


def test_separations_budget_counts_the_largest_block():
    # C(12, 6) = 924 committees: party split k = 6 and JR clash (12, 6).
    assert len(_build_separations(None, 12, 924, None)) == 5 + sum(m - 3 for m in range(5, 13))
    with pytest.raises(SizeLimitError, match="^m_max=12 would enumerate more than 923 committees in one block$"):
        _build_separations(None, 12, 923, None)
    assert _build_separations(None, 3, 1, None) == []


# ---------------------------------------------------------------------------
# The prefix oracle counts on its own, and each (instance, k, t) is scored once.
# ---------------------------------------------------------------------------


def test_prefix_oracle_is_independent_of_the_committee_kernels(monkeypatch):
    cases = []
    for m in range(2, 6):
        for n in (1, 2):
            for inst in enumerate_voter_multisets(n, m):
                for k in range(1, m):
                    for t in range(1, k + 1):
                        params = MultiParams(k, t)
                        cases.append((inst, params, sequential_picks(inst, params)))

    def refuse(*args, **kwargs):
        raise AssertionError("the prefix oracle called a committee kernel")

    for module, name in ((multi_winner, "committee_score"), (oracles, "committee_score"),
                         (multi_winner, "_penalty")):
        monkeypatch.setattr(module, name, refuse)
    for inst, params, picks in cases:
        every = conditional_expected_scores(inst, params, picks)
        assert len(every) == params.k + 1
        for j, value in enumerate(every):
            completions = [
                Committee(members)
                for members in combinations(range(inst.m), params.k)
                if set(picks[:j]) <= set(members)
            ]
            scores = [reference_committee_score(inst, c, params.t) for c in completions]
            assert value == sum(scores, Fraction(0)) / len(scores)
            assert conditional_expected_score(inst, params, picks[:j]) == value


def test_multiwinner_suite_scores_each_sequential_committee_once(monkeypatch):
    calls = 0
    original = multi_winner.committee_score

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    for module in (multi_winner, oracles, verify):
        monkeypatch.setattr(module, "committee_score", counted)
    result = run_suite("multiwinner", n_max=2, m_max=4)
    assert result.passed and result.checked == 10506
    # One call per (instance, k, t): sum over m = 2..4 of (2**m + C(2**m + 1, 2)) * C(m, 2).
    assert calls == sum((2**m + comb(2**m + 1, 2)) * comb(m, 2) for m in range(2, 5)) == 1058
