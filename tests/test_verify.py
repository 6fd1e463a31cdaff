"""Verification suites: every suite runs clean, and the pool mode is transparent."""

import tracemalloc

import pytest

from fvr.verify import SUITE_NAMES, _pool_size, _pvc_block, run_suite


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
