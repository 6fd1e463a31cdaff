"""Generators, exhaustive enumeration, and the ranked-ballot veto core."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvr.core import (
    CANDIDATE_LIMIT,
    Committee,
    Constant,
    Power,
    SizeLimitError,
    Table,
    ValidationError,
    build_instance,
    decode_rows,
    build_ranked_profile,
    flexibility,
    flexibility_grid,
)
from fvr.hypergeom import multiwinner_bound
from fvr.multi_winner import COMMITTEE_LIMIT, MultiParams, empirical_fvr_committee
from fvr.oracles import (
    APPROVAL_LIMIT,
    _check_budget,
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


def test_generators_reject_voter_counts_over_the_limit():
    # Exactly at the limit passes the check; actually building that many
    # rows is too slow and too large for a unit test.
    _check_budget(COMMITTEE_LIMIT)
    over = f"{COMMITTEE_LIMIT + 2} voters exceed the limit {COMMITTEE_LIMIT}"
    with pytest.raises(SizeLimitError, match=over):
        gen_party_split(2, reps=COMMITTEE_LIMIT // 2 + 1)
    with pytest.raises(SizeLimitError, match=over):
        gen_random_instance(COMMITTEE_LIMIT + 2, 3)


def test_generator_budgets_admit_their_limits():
    _check_budget(COMMITTEE_LIMIT, CANDIDATE_LIMIT, APPROVAL_LIMIT)


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


def test_build_ranked_profile_validation():
    build_ranked_profile(3, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        build_ranked_profile(3, [(0, 1, 1)])
    with pytest.raises(ValidationError):
        build_ranked_profile(3, [])


def test_strong_pvc_examples():
    # two opposed voters leave nothing unvetoed
    assert strong_pvc(build_ranked_profile(3, [(0, 1, 2), (2, 1, 0)])) == frozenset()
    # a single voter keeps only her favourite
    assert strong_pvc(build_ranked_profile(3, [(0, 1, 2)])) == {0}
    # unanimity keeps only the shared favourite
    assert strong_pvc(build_ranked_profile(4, [(2, 0, 1, 3)] * 5)) == {2}


def test_strong_pvc_matches_subset_oracle_exhaustively():
    for m in (1, 2, 3):
        perms = list(permutations(range(m)))
        for n in (1, 2, 3):
            for rankings in product(perms, repeat=n):
                profile = build_ranked_profile(m, rankings)
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
