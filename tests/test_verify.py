"""Verification suites: every suite runs clean, and the pool mode is transparent."""

import time
import tracemalloc
from math import comb

import pytest

from fvr.cli import main
from fvr.core import SizeLimitError
from fvr.verify import (
    _SUITES,
    SUITE_NAMES,
    _multisets_over,
    _pool_size,
    _pvc_block,
    run_suite,
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
    # m_max=12 enumerates 745,472 subsets and m_max=13 1,720,320; the budget is 10**6.
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
        # m * (2**n - 1) = 1,048,575 voter groups for the subset oracle.
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
