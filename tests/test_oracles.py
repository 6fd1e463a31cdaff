"""Generators, exhaustive enumeration, and the ranked-ballot veto core."""

import ast
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvr
from fvr.core import (
    CANDIDATE_LIMIT,
    POWER_LIMIT,
    VIEW_LIMIT,
    Committee,
    Constant,
    Optimal,
    Power,
    RankedProfile,
    SizeLimitError,
    Table,
    ValidationError,
    build_instance,
    decode_rows,
    flexibility,
    flexibility_grid,
)
from fvr.hypergeom import multiwinner_bound
from fvr.multi_winner import COMMITTEE_LIMIT, MultiParams, empirical_fvr_committee
from fvr.oracles import (
    APPROVAL_LIMIT,
    _built,
    _gap_instance,
    enumerate_instances,
    enumerate_voter_multisets,
    gen_approval_gap,
    gen_jr_hard,
    gen_party_split,
    gen_power_gap,
    gen_random_instance,
    gen_spread,
    gen_symmetric,
    gen_weight_gap,
    generator_names,
    run_generator,
    strong_pvc,
)
from fvr.single_winner import empirical_fvr_point, ropt_winner, winner
from fvr.verify import strong_pvc_by_subsets

HALF = Fraction(1, 2)


def test_gen_spread_trace():
    inst = gen_spread(3, 4, 2)
    assert [sorted(A) for A in inst.approvals] == [[0, 1], [2, 3], [0, 1]]


def test_gen_spread_degenerate_sizes():
    assert all(not A for A in gen_spread(3, 4, 0).approvals)
    assert all(A == frozenset(range(4)) for A in gen_spread(2, 4, 4).approvals)
    with pytest.raises(ValidationError):
        gen_spread(2, 4, 5)


def greedy_spread(n, m, per_voter):
    """The turn-taking definition: each voter takes the ``per_voter``
    least-approved candidates, lowest index first on ties."""
    counts = [0] * m
    rows = []
    for _ in range(n):
        picks = sorted(range(m), key=lambda c: (counts[c], c))[:per_voter]
        for c in picks:
            counts[c] += 1
        rows.append(frozenset(picks))
    return tuple(rows)


@given(st.integers(1, 15), st.integers(1, 9), st.data())
def test_gen_spread_is_the_greedy_turn_order(n, m, data):
    per_voter = data.draw(st.integers(0, m))
    assert gen_spread(n, m, per_voter).approvals == greedy_spread(n, m, per_voter)


@settings(max_examples=60)
@given(st.integers(1, 12), st.integers(1, 8), st.data())
def test_gen_spread_balance(n, m, data):
    per_voter = data.draw(st.integers(0, m))
    inst = gen_spread(n, m, per_voter)
    counts = [sum(1 for A in inst.approvals if c in A) for c in range(m)]
    assert max(counts) <= ceil(Fraction(n * per_voter, m))
    if (n * per_voter) % m == 0:
        assert max(counts) - min(counts) <= 1
    assert all(len(A) == per_voter for A in inst.approvals)


def test_gen_approval_gap_example():
    inst, special = gen_approval_gap(12, 10, HALF, Fraction(7, 12))
    assert special == 0
    approvals = [sum(1 for A in inst.approvals if c in A) for c in range(10)]
    assert approvals[0] == 5
    assert max(approvals[1:]) <= 4
    assert winner(inst, Constant()) == 0
    assert empirical_fvr_point(inst, 0, HALF) == Fraction(7, 12)
    # the flexibility-weighted optimal rule dodges the trap: it picks a
    # candidate the flexible bloc approves
    alt = ropt_winner(inst)
    assert alt != 0
    assert any(alt in A for A in inst.approvals[:7])


def test_gen_approval_gap_validation():
    with pytest.raises(ValidationError):
        gen_approval_gap(12, 10, HALF, Fraction(2, 3))  # r at the guarantee, not below
    with pytest.raises(ValidationError):
        gen_approval_gap(12, 10, HALF, 0)  # bloc would be empty
    # the minimal bloc is a single voter
    inst, _ = gen_approval_gap(12, 10, HALF, Fraction(1, 100))
    assert sum(1 for A in inst.approvals if 0 not in A) == 1


def test_gen_power_gap_example():
    inst, special = gen_power_gap(40, 20, HALF, Fraction(9, 20), 1)
    assert special == 0
    assert winner(inst, Power(1)) == 0
    bloc = [A for A in inst.approvals if 0 not in A]
    assert len(bloc) == 18
    assert all(len(A) == 10 for A in bloc)
    audit = empirical_fvr_point(inst, 0, HALF)
    assert audit == Fraction(18, 40) <= HALF


def test_gen_power_gap_validation():
    with pytest.raises(ValidationError):
        gen_power_gap(40, 20, HALF, HALF, 1)  # r must stay below the guarantee


def test_gen_weight_gap_example():
    table = Table({Fraction(1, 4): 1, HALF: 1})
    inst, special = gen_weight_gap(table, Fraction(1, 4), HALF, 200)
    assert special == 0
    assert inst.m == 4
    bloc = [A for A in inst.approvals if 0 not in A]
    assert len(bloc) == 116  # floor(3/5 * 200) - 4
    assert all(len(A) == 2 for A in bloc)
    assert winner(inst, table) == 0
    assert empirical_fvr_point(inst, 0, HALF) == Fraction(116, 200)


def test_gen_weight_gap_optimal_family_respects_optimal_bound():
    table = Table({Fraction(1, 4): Fraction(4, 3), HALF: 2, Fraction(3, 4): 4})
    inst, special = gen_weight_gap(table, Fraction(1, 4), Fraction(3, 4), 400)
    chosen = winner(inst, table)
    assert chosen == special
    audit = empirical_fvr_point(inst, chosen, Fraction(3, 4))
    assert audit <= 1 - Fraction(3, 4)


def test_gen_weight_gap_validation():
    table = Table({Fraction(1, 4): 0, HALF: 1})
    with pytest.raises(ValidationError):
        gen_weight_gap(table, Fraction(1, 4), HALF, 200)  # zero weight at f
    with pytest.raises(ValidationError):
        gen_weight_gap(Table({Fraction(1, 4): 1, HALF: 1}), Fraction(1, 4), HALF, 5)


def test_gen_symmetric():
    inst = gen_symmetric(3, 2)
    assert [sorted(A) for A in inst.approvals] == [[0, 1], [0, 2], [1, 2]]
    assert gen_symmetric(4, 2).n == 6
    lone = gen_symmetric(3, 0)
    assert lone.n == 1 and not lone.approvals[0]
    with pytest.raises(SizeLimitError):
        gen_symmetric(30, 15)


def test_gen_party_split():
    inst = gen_party_split(2)
    assert [sorted(A) for A in inst.approvals] == [[0, 1], [2, 3]]
    assert all(flexibility(inst, i) == HALF for i in range(inst.n))
    assert gen_party_split(3, reps=4).n == 8
    with pytest.raises(ValidationError):
        gen_party_split(1)
    bound = multiwinner_bound(4, HALF, 2, 1)
    audit = empirical_fvr_committee(inst, Committee((0, 1)), HALF, 1)
    assert bound == Fraction(1, 6) < HALF == audit


def test_gen_symmetric_is_every_subset_in_lexicographic_order():
    for m in range(1, 8):
        for per_voter in range(m + 1):
            expected = tuple(map(frozenset, combinations(range(m), per_voter)))
            assert gen_symmetric(m, per_voter).approvals == expected


def test_gen_party_split_is_two_slates_repeated():
    for k in range(2, 7):
        for reps in range(1, 5):
            slates = (frozenset(range(k)), frozenset(range(k, 2 * k)))
            inst = gen_party_split(k, reps)
            assert (inst.m, inst.approvals) == (2 * k, slates * reps)


def test_gen_jr_hard_is_the_party_groups_then_the_pool_minus_each_candidate():
    for k in range(2, 7):
        for m in range(k + 1, 11):
            group = m - k + 1
            parties = tuple(frozenset({j}) for j in range(k - 1) for _ in range(group))
            pool = frozenset(range(k - 1, m))
            assert gen_jr_hard(m, k).approvals == parties + tuple(pool - {c} for c in sorted(pool))


def gap_by_sets(m, bloc, per_bloc, rest, per_rest):
    """The bloc's spread and the rest's spread over candidates 1..m-1, with
    candidate 0 added to each rest voter."""
    shifted = [frozenset(c + 1 for c in A) for A in greedy_spread(bloc, m - 1, per_bloc)]
    return tuple(shifted) + tuple(
        frozenset({0, *(c + 1 for c in A)}) for A in greedy_spread(rest, m - 1, per_rest)
    )


def test_the_gap_construction_is_two_shifted_spreads():
    for m in range(2, 7):
        for bloc, rest in product(range(4), range(1, 4)):
            for per_bloc, per_rest in product(range(m), repeat=2):
                inst, special = _gap_instance(m, bloc, per_bloc, rest, per_rest)
                assert special == 0 and inst.m == m
                assert inst.approvals == gap_by_sets(m, bloc, per_bloc, rest, per_rest)


GAP_SHARES = [Fraction(1, 4), Fraction(1, 3), HALF, Fraction(3, 5), Fraction(2, 3)]


def test_each_gap_generator_is_its_bloc_spread_then_its_rest_spread():
    built = 0
    for n, m in product(range(2, 10), range(2, 8)):
        for s, r in product(GAP_SHARES[:4], GAP_SHARES):
            bloc = ceil(r * n)
            cases = [(gen_approval_gap, (n, m, s, r), 0)] + [
                # The rest approve the largest k in 1..m-1 maximizing (m-k)*k^p, found by brute force.
                (gen_power_gap, (n, m, s, r, p), max(range(1, m), key=lambda k: ((m - k) * k**p, k)) - 1)
                for p in (1, 2, 3)
            ]
            for generator, args, per_rest in cases:
                try:
                    inst, _ = generator(*args)
                except ValidationError:
                    continue
                built += 1
                assert inst.approvals == gap_by_sets(m, bloc, ceil(s * m), n - bloc, per_rest)
    for w in (Constant(), Power(2), Optimal(), Table({Fraction(1, 4): 1, HALF: 2, Fraction(3, 4): 1})):
        for f, fprime in product([Fraction(1, 4), HALF, Fraction(3, 4)], repeat=2):
            for n in (10, 25, 60):
                try:
                    inst, _ = gen_weight_gap(w, f, fprime, n)
                except ValidationError:
                    continue
                built += 1
                m = lcm(f.denominator, fprime.denominator)
                wf, wfp = (Fraction(*w.ratio(x.numerator, x.denominator)) for x in (f, fprime))
                bloc = floor((1 - f) * wf / ((1 - f) * wf + fprime * wfp) * n) - m
                assert inst.approvals == gap_by_sets(m, bloc, int(fprime * m), n - bloc, int(f * m) - 1)
    assert built > 300


def test_each_gap_generator_returns_a_special_candidate_that_wins():
    returned = 0
    for n, m in product(range(2, 10), range(2, 8)):
        for s, r in product(GAP_SHARES[:4], GAP_SHARES):
            cases = [(Constant(), lambda: gen_approval_gap(n, m, s, r))] + [
                (Power(p), lambda p=p: gen_power_gap(n, m, s, r, p)) for p in (1, 2, 3)
            ]
            for family, build in cases:
                try:
                    inst, special = build()
                except ValidationError:
                    continue
                returned += 1
                assert winner(inst, family) == special == 0
    # 604 approval, 335 power:1, 327 power:2 and 305 power:3 instances.
    assert returned >= 1571


def test_gen_power_gap_builds_when_m_is_at_most_p():
    # The rest approve m-1 candidates, the special one included, not all m.
    for m, p in ((2, 2), (2, 3), (3, 3)):
        inst, special = gen_power_gap(9, m, HALF, Fraction(1, 4), p)
        assert winner(inst, Power(p)) == special == 0
        assert {len(A) for A in inst.approvals if 0 in A} == {m - 1}


def test_a_gap_whose_special_candidate_loses_is_refused():
    # B = grid_theoretical_fvr(Constant(), 1/2, 200) = 199/299, so a bloc of at
    # most floor(B * 1200) = 798 voters; r = 329/494 puts 800 in it.
    with pytest.raises(ValidationError) as excinfo:
        gen_approval_gap(1200, 200, HALF, Fraction(329, 494))
    assert str(excinfo.value) == (
        "the special candidate does not win with a flexible bloc of 800; the Constant() "
        "bound over m=200 candidates allows a bloc of at most 798 of n=1200"
    )
    inst, special = gen_approval_gap(1200, 200, HALF, Fraction(798, 1200))
    assert winner(inst, Constant()) == special


def test_a_gap_lost_within_the_bound_is_worded_as_the_spreads_rounding():
    # B = grid_theoretical_fvr(Power(1), 1/4, 3) = 2/3 allows a bloc of floor(2/3 * 2) = 1,
    # but the rest voter's second approval lands on the bloc voter's candidate 1, which
    # scores 1/3 + 2/3 against candidate 0's 2/3.
    with pytest.raises(ValidationError) as excinfo:
        gen_power_gap(2, 3, Fraction(1, 4), Fraction(1, 4), 1)
    assert str(excinfo.value) == (
        "the special candidate does not win with a flexible bloc of 1; the bloc is within the "
        "Power(p=1) bound over m=3 candidates, so the loss is the spreads' rounding at n=2 and m=3"
    )


def test_generators_build_at_the_voter_limit():
    for build in (lambda: gen_spread(COMMITTEE_LIMIT, 1, 0), lambda: gen_party_split(2, COMMITTEE_LIMIT // 2)):
        start = time.perf_counter()
        inst = build()
        assert time.perf_counter() - start < 1
        assert inst.n == COMMITTEE_LIMIT


def test_generators_reject_voter_counts_over_the_limit():
    over = f"{COMMITTEE_LIMIT + 2} voters exceed the limit {COMMITTEE_LIMIT}"
    with pytest.raises(SizeLimitError, match=over):
        gen_party_split(2, reps=COMMITTEE_LIMIT // 2 + 1)
    with pytest.raises(SizeLimitError, match=over):
        gen_random_instance(COMMITTEE_LIMIT + 2, 3)


def test_generator_budgets_admit_their_limits(monkeypatch):
    # One call per limit, each at its limit and the other sizes small.
    assert _built(1, COMMITTEE_LIMIT, 0, lambda: [0] * COMMITTEE_LIMIT).n == COMMITTEE_LIMIT
    assert _built(CANDIDATE_LIMIT, 1, 0, lambda: [0]).m == CANDIDATE_LIMIT
    assert _built(2, 1, APPROVAL_LIMIT, lambda: [1]).n == 1
    # 4 voters over 2 candidates: views of 4 * (2 + 3) = 20 characters.
    monkeypatch.setattr(fvr.core, "VIEW_LIMIT", 20)
    assert _built(2, 4, 0, lambda: [0] * 4).n == 4


@pytest.mark.parametrize(
    "build, message",
    [
        # The candidate count, before any row is built.
        (lambda: gen_spread(1, CANDIDATE_LIMIT + 1, 0), f"m must be at most {CANDIDATE_LIMIT}"),
        (lambda: gen_symmetric(10**9, 5 * 10**8), f"m must be at most {CANDIDATE_LIMIT}"),
        (lambda: gen_party_split(CANDIDATE_LIMIT // 2 + 1), f"m must be at most {CANDIDATE_LIMIT}"),
        (lambda: gen_jr_hard(CANDIDATE_LIMIT + 1, CANDIDATE_LIMIT - 1), "m must be at most"),
        (lambda: gen_approval_gap(10, CANDIDATE_LIMIT + 1, HALF, Fraction(1, 2)), "m must be at most"),
        (lambda: gen_power_gap(10, CANDIDATE_LIMIT + 1, HALF, Fraction(1, 10), 2), "m must be at most"),
        # lcm(101, 103) = 10403 candidates.
        (
            lambda: gen_weight_gap(
                Table({Fraction(1, 101): 1, Fraction(1, 103): 1}),
                Fraction(1, 101), Fraction(1, 103), 1000,
            ),
            f"m must be at most {CANDIDATE_LIMIT}, got the lcm of 101 and 103",
        ),
        # The approvals, the sum of |A| over voters.
        (lambda: gen_spread(1001, 1000, 1000), "1001000 approvals exceed the limit"),
        # C(22, 7) = 170544 voters (within their limit) of 7 approvals each.
        (lambda: gen_symmetric(22, 7), "1193808 approvals exceed the limit"),
        (lambda: gen_party_split(10, reps=50_001), "1000020 approvals exceed the limit"),
        # (m - k + 1) * (m - 1) = 1001 * 1001.
        (lambda: gen_jr_hard(1002, 2), "1002001 approvals exceed the limit"),
        # n*m, the most approvals uniform rows can hold.
        (lambda: gen_random_instance(1001, 1000), "1001000 approvals exceed the limit"),
    ],
)
def test_generators_reject_sizes_over_their_budgets_at_once(build, message):
    with pytest.raises(SizeLimitError, match=message):
        build()


@pytest.mark.parametrize(
    "build, n, m",
    [
        (lambda: gen_spread(5, 2, 1), 5, 2),
        (lambda: gen_approval_gap(5, 2, HALF, HALF), 5, 2),
        (lambda: gen_power_gap(5, 2, HALF, Fraction(1, 3), 1), 5, 2),
        (lambda: gen_weight_gap(Constant(), HALF, HALF, 5), 5, 2),
        (lambda: gen_symmetric(4, 1), 4, 4),
        (lambda: gen_jr_hard(3, 2), 4, 3),
    ],
    ids=["spread", "approval_gap", "power_gap", "weight_gap", "symmetric", "jr_hard"],
)
def test_generators_refuse_views_over_the_limit_before_any_mask(monkeypatch, build, n, m):
    monkeypatch.setattr(fvr.core, "VIEW_LIMIT", 20)

    def unreachable(cls, m, masks):
        raise AssertionError("masks built over the view limit")

    monkeypatch.setattr(fvr.core.Instance, "from_masks", classmethod(unreachable))
    message = f"^{n} voters over {m} candidates need views of {n * (m + 3)} characters, over the limit 20$"
    with pytest.raises(SizeLimitError, match=message):
        build()


def test_gen_jr_hard_refuses_over_budget_views_before_its_masks():
    # 9981 groups of 20 voters over 10000 candidates: within the voter and approval
    # limits, but their views would take 199620 * 10003 characters.  Its masks
    # alone would take over 100 MB.
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="^199620 voters over 10000 candidates need views of 1996798860 "):
            gen_jr_hard(10_000, 9981)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def voters_over(n):
    return f"{n} voters exceed the limit {COMMITTEE_LIMIT}"


def m_over(m):
    return f"m must be at most {CANDIDATE_LIMIT}, got {m}"


def approvals_over(total):
    return f"{total} approvals exceed the limit {APPROVAL_LIMIT}"


def views_over(n, m):
    return f"{n} voters over {m} candidates need views of {n * (m + 3)} characters, over the limit {VIEW_LIMIT}"


N_OVER, M_OVER = COMMITTEE_LIMIT + 1, CANDIDATE_LIMIT + 1
# Wide and shallow: COMMITTEE_LIMIT voters over 500 candidates need 100,600,000 characters.
WIDE = views_over(COMMITTEE_LIMIT, 500)
# For each registered generator, one over-budget call per budget it can reach, at
# the real limits: (budget, parameters, the whole message).  Each gap generator's
# approvals count both spreads and candidate 0's: the approval_gap, power_gap and
# weight_gap approval cases keep each spread within the limit on its own.
OVER_BUDGET = {
    "spread": [
        ("voters", {"n": N_OVER, "m": 1, "L": 0}, voters_over(N_OVER)),
        ("m", {"n": 1, "m": M_OVER, "L": 0}, m_over(M_OVER)),
        ("approvals", {"n": 1001, "m": 1000, "L": 1000}, approvals_over(1_001_000)),
        ("views", {"n": COMMITTEE_LIMIT, "m": 500, "L": 0}, WIDE),
    ],
    "approval_gap": [
        ("voters", {"n": N_OVER, "m": 2, "s": HALF, "r": HALF}, voters_over(N_OVER)),
        ("m", {"n": 10, "m": M_OVER, "s": HALF, "r": HALF}, m_over(M_OVER)),
        # 2000 * 500 bloc approvals, at the limit, and 2000 bullet votes for candidate 0.
        ("approvals", {"n": 4000, "m": 1000, "s": HALF, "r": HALF}, approvals_over(1_002_000)),
        # One bloc voter of 1 approval and 199,999 bullet votes.
        ("views", {"n": COMMITTEE_LIMIT, "m": 500, "s": Fraction(1, 500), "r": Fraction(1, COMMITTEE_LIMIT)}, WIDE),
    ],
    "power_gap": [
        ("voters", {"n": N_OVER, "m": 2, "s": HALF, "r": Fraction(1, 10), "p": 1}, voters_over(N_OVER)),
        ("m", {"n": 10, "m": M_OVER, "s": HALF, "r": Fraction(1, 10), "p": 2}, m_over(M_OVER)),
        # 980 * 550 + 1020 * 550, and 998 * 999 + 1002 * 999.
        ("approvals", {"n": 2000, "m": 1100, "s": HALF, "r": Fraction(49, 100), "p": 1}, approvals_over(1_100_000)),
        ("approvals", {"n": 2000, "m": 1998, "s": HALF, "r": Fraction(499, 1000), "p": 1}, approvals_over(1_998_000)),
        # 20 * 5000 bloc approvals and 180 * 9901: the rest's ballot size maximizing
        # (m-k)*k^100 is 9901, found by an argmax over every size.
        (
            "approvals",
            {"n": 200, "m": CANDIDATE_LIMIT, "s": HALF, "r": Fraction(1, 10), "p": POWER_LIMIT},
            approvals_over(1_882_180),
        ),
        # A bloc of 199,996 voters of 1 approval and 4 voters of 250.
        ("views", {"n": COMMITTEE_LIMIT, "m": 500, "s": Fraction(1, 500), "r": Fraction(49999, 50000), "p": 1}, WIDE),
    ],
    "weight_gap": [
        ("voters", {"w": Constant(), "f": HALF, "fprime": HALF, "n": N_OVER}, voters_over(N_OVER)),
        (
            "m",
            {"w": Constant(), "f": Fraction(1, 101), "fprime": Fraction(1, 103), "n": 1000},
            f"m must be at most {CANDIDATE_LIMIT}, got the lcm of 101 and 103",
        ),
        # 10400 * 51 + 10600 * 49 over m = 100.
        (
            "approvals",
            {"w": Constant(), "f": Fraction(49, 100), "fprime": Fraction(51, 100), "n": 21000},
            approvals_over(1_049_800),
        ),
        ("views", {"w": Constant(), "f": Fraction(1, 500), "fprime": Fraction(1, 500), "n": COMMITTEE_LIMIT}, WIDE),
    ],
    "symmetric": [
        ("voters", {"m": 22, "L": 11}, f"C(22, 11) voters exceed the limit {COMMITTEE_LIMIT}"),
        ("m", {"m": M_OVER, "L": 0}, m_over(M_OVER)),
        ("approvals", {"m": 22, "L": 7}, approvals_over(1_193_808)),
        ("views", {"m": CANDIDATE_LIMIT, "L": 1}, views_over(CANDIDATE_LIMIT, CANDIDATE_LIMIT)),
    ],
    "party_split": [
        ("voters", {"k": 2, "reps": COMMITTEE_LIMIT // 2 + 1}, voters_over(COMMITTEE_LIMIT + 2)),
        ("m", {"k": CANDIDATE_LIMIT // 2 + 1}, m_over(CANDIDATE_LIMIT + 2)),
        ("approvals", {"k": 10, "reps": 50_001}, approvals_over(1_000_020)),
    ],
    "jr_hard": [
        # 9000 groups of 31 voters.
        ("voters", {"m": 9030, "k": 9000}, voters_over(279_000)),
        ("m", {"m": M_OVER, "k": 2}, m_over(M_OVER)),
        ("approvals", {"m": 1002, "k": 2}, approvals_over(1_002_001)),
        ("views", {"m": CANDIDATE_LIMIT, "k": 9981}, views_over(199_620, CANDIDATE_LIMIT)),
    ],
    "random": [
        ("voters", {"n": N_OVER, "m": 1}, voters_over(N_OVER)),
        ("m", {"n": 1, "m": M_OVER}, m_over(M_OVER)),
        ("approvals", {"n": 1001, "m": 1000}, approvals_over(1_001_000)),
    ],
}
# Views of n*(m+3) characters stay under VIEW_LIMIT once voters and approvals pass:
# for party_split n*(m+3) = approvals*2 + 3n, and for random n*m + 3n.
UNREACHABLE = {"party_split": {"views"}, "random": {"views"}}


@pytest.mark.parametrize("name", generator_names())
def test_every_generator_refuses_each_budget_it_can_reach_before_any_mask(monkeypatch, name):
    assert name in OVER_BUDGET, f"give generator {name} an over-budget case per budget"
    cases = OVER_BUDGET[name]
    assert {budget for budget, _, _ in cases} | UNREACHABLE.get(name, set()) == {"voters", "m", "approvals", "views"}

    def unreachable(cls, m, masks):
        raise AssertionError("masks built over a budget")

    monkeypatch.setattr(fvr.core.Instance, "from_masks", classmethod(unreachable))
    for budget, params, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
                run_generator(name, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, (budget, params)


@pytest.mark.parametrize(
    "build",
    [
        # ceil(r*n) = n for an n of 5,001 digits, with r just under the guarantee at a tiny s.
        lambda: gen_approval_gap(10**5000, 10, Fraction(1, 10**6000), 1 - Fraction(1, 10**5500)),
        # ceil(s*m) = m for an m of 5,001 digits.
        lambda: gen_approval_gap(10, 10**5000, 1 - Fraction(1, 10**6000), HALF),
    ],
    ids=["bloc", "spreads"],
)
def test_gap_checks_before_the_budgets_word_a_long_size(build):
    # The gate sees n and m only after these checks, whose messages print them.
    with pytest.raises(ValidationError, match="an integer of 16610 bits"):
        build()


@pytest.mark.parametrize("build", [lambda: gen_spread(2, 4, 10**6), lambda: gen_symmetric(4, 10**6)])
def test_an_out_of_range_per_voter_count_is_named_before_the_budgets(build):
    with pytest.raises(ValidationError, match=r"per-voter approvals must be in 0\.\.4, got 1000000"):
        build()


def test_gen_weight_gap_checks_its_sizes_before_evaluating_the_weights():
    # The table has no value at f or f', so evaluating it would fail.
    table = Table({HALF: 1})
    with pytest.raises(SizeLimitError, match=f"m must be at most {CANDIDATE_LIMIT}, got the lcm"):
        gen_weight_gap(table, Fraction(1, 101), Fraction(1, 103), 1000)
    with pytest.raises(SizeLimitError, match="voters exceed the limit"):
        gen_weight_gap(table, Fraction(1, 3), Fraction(1, 2), COMMITTEE_LIMIT + 1)


def test_gen_jr_hard_structure():
    inst = gen_jr_hard(6, 2)
    assert inst.n == 10
    assert [sorted(A) for A in inst.approvals[:5]] == [[0]] * 5
    pool_rows = inst.approvals[5:]
    assert all(len(A) == 4 for A in pool_rows)
    assert all(flexibility(inst, i) == Fraction(2, 3) for i in range(5, 10))
    omitted = [set(range(1, 6)) - A for A in pool_rows]
    assert sorted(next(iter(x)) for x in omitted) == [1, 2, 3, 4, 5]
    with pytest.raises(ValidationError):
        gen_jr_hard(2, 2)


def test_gen_random_instance_is_seed_deterministic():
    a = gen_random_instance(5, 6, seed=11)
    b = gen_random_instance(5, 6, seed=11)
    c = gen_random_instance(5, 6, seed=12)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "n, m, seed", [(1, 1, 0), (7, 5, 3), (30, 8, 2), (30, 17, 4), (40, 40, 1), (3, 130, 9)]
)
def test_gen_random_instance_equals_checked_build(n, m, seed):
    """The rows, built without build_instance's per-index checks, are the ones it accepts."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(m) for _ in range(n)]
    rows = [{c for c in range(m) if mask >> c & 1} for mask in masks]
    assert gen_random_instance(n, m, seed=seed) == build_instance(m, rows)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17])
def test_mask_decoder_sets_candidate_c_for_bit_c(m):
    if m <= 9:
        masks = range(2**m)
    else:
        masks = [0, 1, 2 ** (m - 1), 2**m - 1, *random.Random(m).sample(range(2**m), 200)]
    expected = [frozenset(c for c in range(m) if mask >> c & 1) for mask in masks]
    assert decode_rows(masks, m) == expected
    if m <= 9:
        # The enumerators list each voter's sets in mask order.
        assert [inst.approvals[0] for inst in enumerate_instances(1, m)] == expected


@pytest.mark.parametrize("n", [0, -2])
def test_gen_random_instance_needs_a_voter(n):
    with pytest.raises(ValidationError, match=f"^n must be a positive integer, got {n}$"):
        gen_random_instance(n, 3)


def test_gen_random_instance_rejects_bad_counts_and_seeds():
    for n, m, seed in ((2, -1, 1), (2, 0, 1), (Fraction(3, 2), 4, 1), (2, 4, Fraction(1, 2))):
        with pytest.raises(ValidationError):
            gen_random_instance(n, m, seed=seed)


def test_enumerate_instances_counts():
    assert len(list(enumerate_instances(1, 1))) == 2
    assert len(list(enumerate_instances(2, 2))) == 16
    assert len(list(enumerate_instances(3, 3))) == 512
    with pytest.raises(SizeLimitError):
        list(enumerate_instances(10, 10))


def test_enumerate_instances_yields_distinct_valid_instances():
    seen = set(enumerate_instances(2, 2))
    assert len(seen) == 16


def test_enumerate_voter_multisets_covers_unordered_profiles():
    reps = list(enumerate_voter_multisets(2, 2))
    assert len(reps) == 10  # multisets of size 2 over 4 subsets
    canon = {tuple(sorted(tuple(sorted(A)) for A in inst.approvals)) for inst in reps}
    full = {
        tuple(sorted(tuple(sorted(A)) for A in inst.approvals))
        for inst in enumerate_instances(2, 2)
    }
    assert canon == full


def test_generator_registry():
    assert "party_split" in generator_names()
    inst, special = run_generator("party_split", {"k": 2})
    assert inst.n == 2 and special is None
    with pytest.raises(ValidationError, match="unknown generator"):
        run_generator("nope", {})
    with pytest.raises(ValidationError, match="missing"):
        run_generator("spread", {"n": 2})
    with pytest.raises(ValidationError, match="unknown parameter"):
        run_generator("party_split", {"k": 2, "zz": 1})


@pytest.mark.parametrize(
    "name, params, message",
    [
        ([], {}, r"^unknown generator \[\]; known: approval_gap, "),
        ("random", 5, "^generator parameters must be a mapping, got 5$"),
    ],
)
def test_a_bad_generator_name_or_parameter_set_is_a_validation_error(name, params, message):
    with pytest.raises(ValidationError, match=message):
        run_generator(name, params)


def test_build_ranked_profile_validation():
    RankedProfile(3, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        RankedProfile(3, [(0, 1, 1)])
    with pytest.raises(ValidationError):
        RankedProfile(3, [])


def test_strong_pvc_examples():
    # two opposed voters leave nothing unvetoed
    assert strong_pvc(RankedProfile(3, [(0, 1, 2), (2, 1, 0)])) == frozenset()
    # a single voter keeps only her favourite
    assert strong_pvc(RankedProfile(3, [(0, 1, 2)])) == {0}
    # unanimity keeps only the shared favourite
    assert strong_pvc(RankedProfile(4, [(2, 0, 1, 3)] * 5)) == {2}


def test_strong_pvc_matches_subset_oracle_exhaustively():
    # m = 4 adds 24 + 576 + 13,824 profiles.
    for m in (1, 2, 3, 4):
        perms = list(permutations(range(m)))
        for n in (1, 2, 3):
            for rankings in product(perms, repeat=n):
                profile = RankedProfile(m, rankings)
                assert strong_pvc(profile) == strong_pvc_by_subsets(profile)


def test_generator_outputs_stay_within_the_optimal_guarantee():
    # adversarial instances hurt the rules they target, never the optimal rule
    cases = [
        gen_approval_gap(12, 10, HALF, Fraction(7, 12))[0],
        gen_power_gap(40, 20, HALF, Fraction(9, 20), 1)[0],
        gen_weight_gap(Table({Fraction(1, 4): 1, HALF: 1}), Fraction(1, 4), HALF, 200)[0],
        gen_party_split(3),
        gen_jr_hard(6, 3),
        gen_symmetric(5, 2),
    ]
    for inst in cases:
        chosen = ropt_winner(inst)
        for s in flexibility_grid(inst.m):
            assert empirical_fvr_point(inst, chosen, s) <= 1 - s


def test_conditional_expected_score_validation():
    inst = build_instance(4, [{0}])
    params = MultiParams(2, 1)
    with pytest.raises(ValidationError):
        from fvr.oracles import conditional_expected_score

        conditional_expected_score(inst, params, (0, 1, 2))


def enclosing_calls(tree, where="<module>"):
    """(innermost enclosing def, call node) for every call in ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            yield where, child
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from enclosing_calls(child, child.name if scope else where)


def module_calls(name):
    path = Path(fvr.__file__).parent / f"{name}.py"
    return enclosing_calls(ast.parse(path.read_text(encoding="utf-8")))


def is_bit_list(node):
    """Whether ``node`` is a list comprehension of ``1 << ...``."""
    return (
        isinstance(node, ast.ListComp)
        and isinstance(node.elt, ast.BinOp)
        and isinstance(node.elt.op, ast.LShift)
        and isinstance(node.elt.left, ast.Constant)
        and node.elt.left.value == 1
    )


def test_generators_build_masks_and_one_helper_enumerates_subset_masks():
    # Every generated instance comes from Instance.from_masks: rows built only
    # to be checked and encoded again are a second construction path.
    builders = {
        where
        for where, call in module_calls("oracles")
        if isinstance(call.func, ast.Name) and call.func.id in {"build_instance", "Instance"}
    }
    assert builders == set()
    subset_enumerations = {
        (name, where)
        for name in ("oracles", "verify")
        for where, call in module_calls(name)
        if isinstance(call.func, ast.Name)
        and call.func.id == "combinations"
        and call.args
        and is_bit_list(call.args[0])
    }
    assert subset_enumerations == {("oracles", "_subset_masks")}
