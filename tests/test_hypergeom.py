"""Hypergeometric distribution against direct subset counting."""

import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from fvr.core import ValidationError
from fvr.hypergeom import (
    CACHE_SIZE,
    HypParams,
    _cdf,
    hyp_cdf,
    hyp_pmf,
    miss_prob,
    multiwinner_bound,
)
from fvr.oracles import gen_random_instance
from fvr.verify import run_suite


def pmf_oracle(population, successes, draws, t):
    """Count draws with exactly t successes, subset by subset."""
    good = set(range(successes))
    hits = sum(
        1
        for chosen in combinations(range(population), draws)
        if len(good.intersection(chosen)) == t
    )
    return Fraction(hits, comb(population, draws))


def test_pmf_examples():
    assert hyp_pmf(HypParams(4, 2, 2), 0) == Fraction(1, 6) == pmf_oracle(4, 2, 2, 0)
    assert hyp_pmf(HypParams(4, 2, 2), -1) == 0
    assert hyp_pmf(HypParams(1, 0, 0), 0) == 1


def test_pmf_out_of_support_is_zero():
    params = HypParams(6, 2, 3)
    assert hyp_pmf(params, 3) == 0  # more successes than exist
    assert hyp_pmf(params, 4) == 0  # more than the draw size
    assert hyp_pmf(HypParams(6, 5, 4), 0) == 0  # cannot avoid successes entirely


def test_cdf_examples():
    assert hyp_cdf(HypParams(4, 2, 2), 0) == Fraction(1, 6)
    assert hyp_cdf(HypParams(3, 2, 1), 0) == Fraction(1, 3)
    assert hyp_cdf(HypParams(7, 4, 3), 3) == 1
    assert hyp_cdf(HypParams(7, 4, 3), -2) == 0


def test_pmf_and_cdf_match_enumeration_small():
    for population in range(7):
        for successes in range(population + 1):
            for draws in range(population + 1):
                params = HypParams(population, successes, draws)
                running = Fraction(0)
                for t in range(draws + 1):
                    expected = pmf_oracle(population, successes, draws, t)
                    assert hyp_pmf(params, t) == expected
                    running += expected
                    assert hyp_cdf(params, t) == running


def test_pmf_sums_to_one_and_is_symmetric():
    for population in range(10):
        for successes in range(population + 1):
            for draws in range(population + 1):
                params = HypParams(population, successes, draws)
                assert sum(hyp_pmf(params, t) for t in range(draws + 1)) == 1
                flipped = HypParams(population, draws, successes)
                for t in range(population + 1):
                    assert hyp_pmf(params, t) == hyp_pmf(flipped, t)


def test_cdf_is_nondecreasing():
    params = HypParams(9, 4, 5)
    values = [hyp_cdf(params, t) for t in range(-1, 6)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_params_validation():
    with pytest.raises(ValidationError):
        HypParams(3, 4, 1)
    with pytest.raises(ValidationError):
        HypParams(3, 1, 4)
    with pytest.raises(ValidationError):
        HypParams(-1, 0, 0)


def test_multiwinner_bound_examples():
    assert multiwinner_bound(4, Fraction(1, 2), 2, 1) == Fraction(1, 6)
    # with k = 1 the bound is 1 - ceil(s*m)/m
    assert multiwinner_bound(4, Fraction(1, 2), 1, 1) == Fraction(1, 2)
    assert multiwinner_bound(4, Fraction(1, 2), 2, 2) == Fraction(5, 6)


def test_multiwinner_bound_validation():
    with pytest.raises(ValidationError):
        multiwinner_bound(4, Fraction(1, 2), 4, 1)
    with pytest.raises(ValidationError):
        multiwinner_bound(4, Fraction(1, 2), 2, 3)
    with pytest.raises(ValidationError):
        multiwinner_bound(4, Fraction(1, 2), 2, 0)
    with pytest.raises(ValidationError):
        multiwinner_bound(4, Fraction(3, 2), 2, 1)


def test_miss_prob_is_the_cdf_below_the_target():
    for m in range(7):
        for size in range(m + 1):
            for k in range(m + 1):
                for t in range(-1, k + 3):
                    assert miss_prob(m, size, k, t) == hyp_cdf(HypParams(m, size, k), t - 1)


@pytest.mark.parametrize(
    "args",
    [(4, 5, 2), (4, 2, 5), (4, -1, 2), (4, 2, -1), (-1, 0, 0), (4, True, 2), (4.0, 2, 2), (4, 2, "2")],
)
def test_miss_prob_rejects_what_hyp_params_rejects(args):
    with pytest.raises(ValidationError) as expected:
        HypParams(*args)
    with pytest.raises(ValidationError) as actual:
        miss_prob(*args, 1)
    assert str(actual.value) == str(expected.value)


def committee_reach_counts(inst, i, k):
    """For voter i, how many k-committees contain at least t approved members."""
    approved = inst.approvals[i]
    histogram = [0] * (k + 1)
    for members in combinations(range(inst.m), k):
        histogram[len(approved.intersection(members))] += 1
    return histogram


def test_random_committee_counting_identity():
    # A voter approving size candidates reaches target t on exactly a
    # (1 - cdf(m, size, k; t-1)) share of all k-committees.
    for seed in range(6):
        inst = gen_random_instance(4, 6, seed=seed)
        for i in range(inst.n):
            size = len(inst.approvals[i])
            for k in range(1, inst.m):
                histogram = committee_reach_counts(inst, i, k)
                reached = comb(inst.m, k)
                for t in range(1, k + 1):
                    reached -= histogram[t - 1]
                    expected = (1 - hyp_cdf(HypParams(inst.m, size, k), t - 1)) * comb(inst.m, k)
                    assert reached == expected


def test_bound_converges_to_binomial_limit():
    # At fixed k and t the bound approaches the binomial value as m grows;
    # no rate is asserted, only that the gap shrinks monotonically here.
    s, k, t = Fraction(1, 3), 3, 2
    binomial = sum(
        comb(k, j) * s**j * (1 - s) ** (k - j) for j in range(t)
    )
    gaps = [abs(multiwinner_bound(m, s, k, t) - binomial) for m in (9, 18, 36, 72, 144)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 8


def test_caches_are_bounded_and_the_largest_sweep_evicts_nothing():
    # _cdf is the package's one process-wide cache.
    cached = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "fvr" or name.startswith("fvr.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == ["fvr.hypergeom._cdf"]
    assert _cdf.cache_info().maxsize == CACHE_SIZE == 1 << 16
    # Every cached value is a pure function of its key, so clearing is invisible.
    _cdf.cache_clear()
    assert run_suite("hypergeom", m_max=12).passed
    info = _cdf.cache_info()
    assert info.currsize == info.misses == 3185 < info.maxsize
