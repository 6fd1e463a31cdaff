"""Verification suites: every suite runs clean, and the pool mode is transparent."""

import ast
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from fvr import multi_winner, oracles, verify
from fvr.cli import main
from fvr.core import Committee, RankedProfile, SizeLimitError, build_instance, parse_family
from fvr.hypergeom import HypParams, hyp_cdf, hyp_pmf, multiwinner_bound
from fvr.multi_winner import MultiParams, empirical_fvr_committee, sequential_picks
from fvr.oracles import (
    conditional_expected_score,
    conditional_expected_scores,
    enumerate_voter_multisets,
    reference_committee_score,
    strong_pvc,
)
from fvr.single_winner import closed_form_fvr, empirical_fvr_point, ropt_winner, score_all
from fvr.verify import (
    _SUITES,
    SUITE_NAMES,
    _multisets_over,
    _pool_size,
    _pvc_block,
    pmf_by_enumeration,
    run_suite,
    strong_pvc_by_subsets,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_at_small_scale(suite):
    result = run_suite(suite, n_max=2, m_max=3, seed=1)
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
        checked, bad = _pvc_block(1, 8, 1, 0)
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

    assert len(_build_hypergeom(None, 12, None, None)) == 13 + 17 + 1
    with pytest.raises(SizeLimitError, match="m_max=13 would enumerate more than 1000000 subsets"):
        _build_hypergeom(None, 13, None, None)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_worker_pool_is_semantically_transparent():
    sequential = run_suite("multiwinner", jobs=1, n_max=2, m_max=3)
    pooled = run_suite("multiwinner", jobs=2, n_max=2, m_max=3)
    assert sequential.checked == pooled.checked
    assert sequential.violations == pooled.violations


def test_pool_size_is_clamped_by_jobs_tasks_and_cpus():
    assert _pool_size(1, 10, 8) == 1
    assert _pool_size(64, 10, 8) == 8
    assert _pool_size(64, 3, 8) == 3
    assert _pool_size(4, 10, None) == 1
    assert _pool_size(4, 0, 8) == 1


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
        ("pvc", 4, 4, 1000),
        # The suites' defaults, and the largest pvc sweep of one candidate.
        *((suite, None, None, None) for suite in SUITE_NAMES),
        ("pvc", 19, 1, None),
    ],
)
def test_budgets_admit_the_sweeps_in_use(suite, n_max, m_max, budget):
    assert _SUITES[suite](n_max, m_max, budget, 0)


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
        assert bound == closed_form_fvr(family, s).value < audit


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
    checked, bad = verify._hyp_counting_block(0, 5, 4)
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
