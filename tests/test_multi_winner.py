"""Committee rules: expansion, sequential greedy, audits, and the JR check."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from fvr.core import Committee, SizeLimitError, ValidationError, build_instance, flexibility_grid
from fvr.hypergeom import multiwinner_bound
from fvr.multi_winner import (
    MultiParams,
    brute_best_committee,
    committee_score,
    empirical_fvr_committee,
    empirical_fvr_committee_curve,
    expand_instance,
    expanded_rule,
    jr_check,
    sequential_picks,
    sequential_rule,
    t_approves,
)
from fvr.oracles import (
    conditional_expected_score,
    conditional_expected_scores,
    enumerate_instances,
    gen_jr_hard,
    gen_party_split,
    gen_symmetric,
    reference_committee_score,
    reference_expanded_rule,
    reference_sequential_picks,
)
from fvr.single_winner import ropt_winner

HALF = Fraction(1, 2)
TRIO = build_instance(4, [{0, 1}, {0, 2}, {3}])


def test_t_approves():
    inst = build_instance(4, [{0, 1}])
    assert t_approves(inst, 0, Committee((0, 3)), 1)
    assert not t_approves(inst, 0, Committee((0, 3)), 2)
    assert t_approves(inst, 0, Committee((0, 1)), 2)


def test_expand_instance_rows():
    inst = build_instance(3, [{0}])
    exp = expand_instance(inst, MultiParams(2, 1))
    assert exp.committees == ((0, 1), (0, 2), (1, 2))
    assert exp.expanded.approvals[0] == frozenset({0, 1})

    exp2 = expand_instance(inst, MultiParams(2, 2))
    assert exp2.expanded.approvals[0] == frozenset()

    full = build_instance(4, [{0, 1, 2, 3}])
    exp3 = expand_instance(full, MultiParams(3, 3))
    assert exp3.expanded.approvals[0] == frozenset(range(comb(4, 3)))


@pytest.mark.parametrize(
    "rule",
    [
        expand_instance,
        expanded_rule,
        lambda inst, params: brute_best_committee(inst, params, HALF),
        conditional_expected_score,
    ],
    ids=["expand_instance", "expanded_rule", "brute_best_committee", "conditional_expected_score"],
)
def test_expand_instance_size_limit(rule):
    inst = build_instance(32, [{0}])  # C(32, 5) = 201,376 committees
    with pytest.raises(SizeLimitError, match="sequential_rule"):
        rule(inst, MultiParams(5, 1))


def test_expanded_rule_examples():
    assert expanded_rule(TRIO, MultiParams(2, 1)).members == (0, 3)
    lone = build_instance(3, [{1}])
    assert expanded_rule(lone, MultiParams(1, 1)).members == (1,)
    party = gen_party_split(2)
    assert expanded_rule(party, MultiParams(2, 2)).members == (0, 1)


def test_committee_score_examples():
    assert committee_score(TRIO, Committee((0, 3)), 1) == 0
    # voter {3} is the lone 1-disapprover; missing with one approved of four
    # under a 2-draw happens with probability 1/2, so she contributes 2
    assert committee_score(TRIO, Committee((1, 2)), 1) == 2
    happy = build_instance(3, [{0}, {0, 1}])
    assert committee_score(happy, Committee((0,)), 1) == 0


def test_sequential_rule_hand_trace():
    assert sequential_picks(TRIO, MultiParams(2, 1)) == (0, 3)
    committee = sequential_rule(TRIO, MultiParams(2, 1))
    assert committee.members == (0, 3)
    assert committee_score(TRIO, committee, 1) == 0


def test_sequential_rule_rejects_oversized_committee():
    with pytest.raises(ValidationError):
        sequential_rule(TRIO, MultiParams(4, 1))


COMMITTEE_AUDITS = {
    "committee_score": lambda c: committee_score(TRIO, c, 1),
    "jr_check": lambda c: jr_check(TRIO, c),
    "empirical_fvr_committee": lambda c: empirical_fvr_committee(TRIO, c, HALF, 1),
    "t_approves": lambda c: t_approves(TRIO, 0, c, 1),
    "empirical_fvr_committee_curve": lambda c: empirical_fvr_committee_curve(TRIO, c, 1),
    "reference_committee_score": lambda c: reference_committee_score(TRIO, c, 1),
}

PARAMS_RULES = {
    "sequential_picks": lambda p: sequential_picks(TRIO, p),
    "sequential_rule": lambda p: sequential_rule(TRIO, p),
    "expanded_rule": lambda p: expanded_rule(TRIO, p),
    "expand_instance": lambda p: expand_instance(TRIO, p),
    "brute_best_committee": lambda p: brute_best_committee(TRIO, p, HALF),
    "conditional_expected_scores": lambda p: conditional_expected_scores(TRIO, p),
    "reference_sequential_picks": lambda p: reference_sequential_picks(TRIO, p),
    "reference_expanded_rule": lambda p: reference_expanded_rule(TRIO, p),
}

# Each entry point given a plain tuple where it takes a Committee or a MultiParams.
UNTYPED_CALLS = {
    **{name: (audit, "committee must be a Committee") for name, audit in COMMITTEE_AUDITS.items()},
    **{name: (rule, "params must be a MultiParams") for name, rule in PARAMS_RULES.items()},
}


@pytest.mark.parametrize("site", UNTYPED_CALLS)
def test_a_plain_tuple_for_a_committee_or_its_params_raises_a_validation_error(site):
    call, message = UNTYPED_CALLS[site]
    with pytest.raises(ValidationError, match=rf"^{message}, got \(2, 1\)$"):
        call((2, 1))


@pytest.mark.parametrize("audit", COMMITTEE_AUDITS)
def test_committee_audits_refuse_an_empty_committee(audit):
    with pytest.raises(ValidationError, match="^committee is empty$"):
        COMMITTEE_AUDITS[audit](Committee(()))


@pytest.mark.parametrize("audit", COMMITTEE_AUDITS)
def test_committee_audits_report_the_largest_member_out_of_range(audit):
    with pytest.raises(ValidationError, match=r"^committee member must be an integer in 0\.\.3, got 6$"):
        COMMITTEE_AUDITS[audit](Committee((6, 0, 5)))


def error_text(call):
    with pytest.raises(ValidationError) as excinfo:
        call()
    return str(excinfo.value)


def test_multiwinner_bound_words_the_committee_rule_as_the_committee_rules_do():
    too_big = "committee size k=4 must be below m=4"
    assert error_text(lambda: multiwinner_bound(4, HALF, 4, 1)) == too_big
    assert error_text(lambda: sequential_rule(TRIO, MultiParams(4, 1))) == too_big
    assert error_text(lambda: MultiParams(4, 1).below(4)) == too_big
    over_k = "approval target t=3 exceeds committee size k=2"
    assert error_text(lambda: multiwinner_bound(4, HALF, 2, 3)) == over_k
    assert error_text(lambda: MultiParams(2, 3)) == over_k
    assert error_text(lambda: committee_score(TRIO, Committee((0, 1)), 3)) == over_k


def test_sequential_with_single_seat_is_the_optimal_scoring_rule():
    for m in range(2, 5):
        for inst in enumerate_instances(3, m):
            assert sequential_picks(inst, MultiParams(1, 1)) == (ropt_winner(inst),)


def test_sequential_score_bound_on_party_split():
    party = gen_party_split(2, reps=3)
    committee = sequential_rule(party, MultiParams(2, 1))
    assert committee_score(party, committee, 1) <= party.n


def test_empirical_fvr_committee_examples():
    party = gen_party_split(2)
    assert empirical_fvr_committee(party, Committee((0, 1)), HALF, 1) == HALF

    sym = gen_symmetric(3, 2)
    committee = Committee((0, 1))
    assert empirical_fvr_committee(sym, committee, Fraction(2, 3), 1) == 0
    # each of the other two voters approves exactly one member, and the
    # symmetric instance makes the share equal the theoretical bound
    audit = empirical_fvr_committee(sym, committee, Fraction(2, 3), 2)
    assert audit == Fraction(2, 3) == multiwinner_bound(3, Fraction(2, 3), 2, 2)

    served = build_instance(3, [{0}, {0, 1}])
    assert empirical_fvr_committee(served, Committee((0,)), HALF, 1) == 0


def test_symmetric_instance_audits_equal_bound_exactly():
    for m in range(2, 7):
        for per_voter in range(1, m):
            inst = gen_symmetric(m, per_voter)
            s = Fraction(per_voter, m)
            for k in range(1, m):
                for t in range(1, k + 1):
                    bound = multiwinner_bound(m, s, k, t)
                    for members in combinations(range(m), k):
                        audit = empirical_fvr_committee(inst, Committee(members), s, t)
                        assert audit == bound


def jr_oracle(inst, committee):
    """Blocking-coalition search over every voter subset."""
    members = frozenset(committee.members)
    k = len(members)
    for size in range(1, inst.n + 1):
        if size * k < inst.n:
            continue
        for group in combinations(range(inst.n), size):
            if any(inst.approvals[i] & members for i in group):
                continue
            common = frozenset.intersection(*(inst.approvals[i] for i in group))
            if common:
                return False
    return True


def test_jr_check_examples():
    hard = gen_jr_hard(6, 2)
    for c in range(1, 6):
        assert jr_check(hard, Committee((0, c))).satisfied
    for members in combinations(range(1, 6), 2):
        assert not jr_check(hard, Committee(members)).satisfied

    served = build_instance(4, [{0}, {1}, {2, 3}])
    assert jr_check(served, Committee((0, 1, 2))).satisfied

    # exactly at the n/k boundary: two voters out of four with k = 2
    inst = build_instance(6, [{5}, {5}, {0}, {1}])
    result = jr_check(inst, Committee((0, 1)))
    assert not result.satisfied
    assert result.blocking_candidate == 5
    assert result.blocking_voters == (0, 1)


def test_jr_check_matches_subset_oracle():
    for inst in enumerate_instances(3, 3):
        for k in (1, 2):
            for members in combinations(range(3), k):
                committee = Committee(members)
                assert jr_check(inst, committee).satisfied == jr_oracle(inst, committee)


def test_jr_check_matches_subset_oracle_larger_instances():
    from fvr.oracles import gen_random_instance

    for seed in range(40):
        inst = gen_random_instance(6, 5, seed=seed)
        for k in (1, 2, 3):
            for members in combinations(range(5), k):
                committee = Committee(members)
                assert jr_check(inst, committee).satisfied == jr_oracle(inst, committee)


def test_brute_best_committee_examples():
    sym = gen_symmetric(4, 2)
    assert brute_best_committee(sym, MultiParams(2, 1), HALF).members == (0, 1)

    star = build_instance(3, [{0}, {0, 1}, {0, 2}])
    assert brute_best_committee(star, MultiParams(1, 1), Fraction(1, 3)).members == (0,)

    hard = gen_jr_hard(6, 2)
    best = brute_best_committee(hard, MultiParams(2, 1), Fraction(2, 3))
    # every two-thirds-flexible voter (the pool group) reaches the target
    assert best.members == (1, 2)
    audit = empirical_fvr_committee(hard, best, Fraction(2, 3), 1)
    assert audit == 0 <= multiwinner_bound(6, Fraction(2, 3), 2, 1)


def test_brute_best_committee_meets_bound_on_sweep():
    for inst in enumerate_instances(2, 4):
        for k in range(1, 4):
            for t in range(1, k + 1):
                for s in flexibility_grid(inst.m):
                    best = brute_best_committee(inst, MultiParams(k, t), s)
                    audit = empirical_fvr_committee(inst, best, s, t)
                    assert audit <= multiwinner_bound(inst.m, s, k, t)


def test_sequential_and_expanded_meet_bound_on_small_sweep():
    for inst in enumerate_instances(2, 4):
        for k in range(1, 4):
            for t in range(1, k + 1):
                params = MultiParams(k, t)
                for committee in (sequential_rule(inst, params), expanded_rule(inst, params)):
                    assert committee_score(inst, committee, t) <= inst.n
                    for s in flexibility_grid(inst.m):
                        audit = empirical_fvr_committee(inst, committee, s, t)
                        assert audit <= multiwinner_bound(inst.m, s, k, t)


def test_expected_score_identity_and_greedy_monotonicity():
    inst = TRIO
    params = MultiParams(2, 1)
    # conditioning on nothing averages to the number of voters that can miss
    assert conditional_expected_score(inst, params, ()) == 3
    picks = sequential_picks(inst, params)
    previous = conditional_expected_score(inst, params, ())
    for j in range(1, params.k + 1):
        current = conditional_expected_score(inst, params, picks[:j])
        assert current <= previous
        previous = current
    assert previous == committee_score(inst, Committee(picks), params.t)
