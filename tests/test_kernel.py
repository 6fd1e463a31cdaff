"""The class-count kernels against the per-approval reference loops they replace.

Every fast path must return exactly the same values as its reference:
the same Fractions, the same winner, the same picks.  The integer kernels
(winner pick, point audits, committee penalty, veto cutoffs, open-interval
check) are also held to their Fraction definitions, written out here.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvr.core import (
    AuditCurve,
    Committee,
    Constant,
    Optimal,
    Power,
    RankedProfile,
    Table,
    Threshold,
    ValidationError,
    as_frac,
    build_instance,
    flexibility_grid,
    open_unit,
)
from fvr.hypergeom import miss_prob
from fvr.multi_winner import (
    MultiParams,
    brute_best_committee,
    committee_score,
    empirical_fvr_committee,
    empirical_fvr_committee_curve,
    expanded_rule,
    sequential_picks,
)
from fvr.oracles import (
    enumerate_voter_multisets,
    reference_committee_score,
    reference_expanded_rule,
    reference_score_all,
    reference_sequential_picks,
    strong_pvc,
)
from fvr.single_winner import (
    empirical_fvr_curve,
    empirical_fvr_point,
    flexible_counts,
    group_audit_curve,
    score_all,
    weighted_counts,
    winner,
)
from fvr.verify import strong_pvc_by_subsets

unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
    lambda f: 0 < f < 1
)


@st.composite
def instances(draw, m_max=7, n_max=8):
    """Small profiles that often hold empty and full approval sets."""
    m = draw(st.integers(1, m_max))
    everyone = frozenset(range(m))
    row = st.one_of(
        st.just(frozenset()), st.just(everyone), st.frozensets(st.integers(0, m - 1))
    )
    return build_instance(m, draw(st.lists(row, min_size=1, max_size=n_max)))


@st.composite
def tables(draw, m):
    """A table covering every flexibility i/m, with some zero weights."""
    weights = {
        Fraction(i, m): draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3), Fraction(5, 7)]))
        for i in range(1, m)
    }
    if not any(weights.values()):
        weights[Fraction(1, m)] = Fraction(3, 2)
    return Table(weights)


def families(m):
    """One strategy per weight family; the table family needs m > 1."""
    return {
        "constant": st.just(Constant()),
        "optimal": unit_interval.filter(lambda c: c != 1).map(Optimal)
        | st.integers(2, 9).map(Optimal),
        "power": st.integers(1, 4).map(Power),
        "threshold": unit_interval.map(Threshold),
        **({"table": tables(m)} if m > 1 else {}),
    }


@st.composite
def weight_functions(draw, m):
    return draw(st.one_of(list(families(m).values())))


@given(st.data())
def test_score_all_and_winner_match_reference_loop(data):
    inst = data.draw(instances())
    w = data.draw(weight_functions(inst.m))
    expected = reference_score_all(inst, w)
    assert score_all(inst, w) == expected
    best = max(expected)
    assert winner(inst, w) == expected.index(best)


@given(instances())
def test_audit_curve_matches_point_audit_at_every_grid_threshold(inst):
    grid = flexibility_grid(inst.m)
    for a in range(inst.m):
        curve = empirical_fvr_curve(inst, a)
        expected = tuple(empirical_fvr_point(inst, a, s) for s in grid)
        assert tuple(curve.value_at(s) for s in grid) == expected
        assert curve.values_on_grid(inst.m) == expected


@given(st.data())
def test_committee_audit_curve_and_score_match_reference(data):
    inst = data.draw(instances())
    members = data.draw(st.frozensets(st.integers(0, inst.m - 1), min_size=1))
    committee = Committee(tuple(members))
    t = data.draw(st.integers(1, committee.k))
    grid = flexibility_grid(inst.m)
    curve = empirical_fvr_committee_curve(inst, committee, t)
    expected = tuple(empirical_fvr_committee(inst, committee, s, t) for s in grid)
    assert tuple(curve.value_at(s) for s in grid) == expected
    assert curve.values_on_grid(inst.m) == expected
    assert committee_score(inst, committee, t) == reference_committee_score(inst, committee, t)


@st.composite
def committee_cases(draw, n_max=8):
    inst = draw(instances(n_max=n_max).filter(lambda inst: inst.m >= 2))
    k = draw(st.integers(1, inst.m - 1))
    return inst, MultiParams(k, draw(st.integers(1, k)))


# After candidate 2 is picked, voter {0, 1} approves every candidate left.
@example((build_instance(3, [{0, 1}, {0, 2}, {1, 2}, {0, 2}, {1, 2}]), MultiParams(2, 2)))
@given(committee_cases())
def test_sequential_picks_match_reference_loop(case):
    inst, params = case
    t = params.t
    picks = sequential_picks(inst, params)
    assert picks == reference_sequential_picks(inst, params)
    committee = Committee(picks)
    assert committee_score(inst, committee, t) == reference_committee_score(inst, committee, t)


def test_sequential_picks_match_reference_loop_on_every_small_profile():
    # Every voter multiset with n <= 2 and m <= 5, for every (k, t): 6,658 cases.
    cases = 0
    for m in range(2, 6):
        for n in (1, 2):
            for inst in enumerate_voter_multisets(n, m):
                for k in range(1, m):
                    for t in range(1, k + 1):
                        params = MultiParams(k, t)
                        assert sequential_picks(inst, params) == reference_sequential_picks(inst, params)
                        cases += 1
    assert cases == 6658


def best_committee_by_sets(inst, params, s):
    """The committee t-approved by the most s-flexible voters, over the approval
    sets and frozensets; the first in lexicographic order among equals."""
    flexible = [A for A in inst.approvals if len(A) >= s * inst.m]
    best, best_count = None, -1
    for members in combinations(range(inst.m), params.k):
        count = sum(1 for A in flexible if len(A & frozenset(members)) >= params.t)
        if count > best_count:
            best, best_count = members, count
    return Committee(best)


# Duplicate voters, and an exact tie between {0, 1} and {2, 3}.
@example((build_instance(4, [{0, 1}, {2, 3}, {0, 1}, {2, 3}]), MultiParams(2, 2)), Fraction(1, 2))
# An empty voter, a full voter, and voters with fewer than t approvals.
@example((build_instance(5, [set(), set(range(5)), {3}, {1, 4}, {1, 4}]), MultiParams(3, 2)), Fraction(2, 5))
@given(committee_cases(), unit_interval)
def test_brute_best_committee_matches_its_set_definition(case, s):
    inst, params = case
    assert brute_best_committee(inst, params, s) == best_committee_by_sets(inst, params, s)


# Duplicate voters, and an exact tie between {0, 1} and {2, 3}.
@example((build_instance(4, [{0, 1}, {2, 3}, {0, 1}, {2, 3}]), MultiParams(2, 2)))
# An empty voter, a full voter, and voters with fewer than t approvals.
@example((build_instance(5, [set(), set(range(5)), {3}, {1, 4}, {1, 4}]), MultiParams(3, 2)))
# Nobody carries weight: every committee scores 0.
@example((build_instance(3, [set(), {0, 1, 2}]), MultiParams(1, 1)))
@given(committee_cases(n_max=12))
def test_expanded_rule_matches_explicit_expansion(case):
    inst, params = case
    assert expanded_rule(inst, params) == reference_expanded_rule(inst, params)


@given(committee_cases(n_max=12))
def test_expanded_rule_is_lowest_lex_argmin_of_committee_score(case):
    inst, params = case
    # Equal scores fall back to comparing the member tuples lexicographically.
    _, first = min(
        (committee_score(inst, Committee(members), params.t), members)
        for members in combinations(range(inst.m), params.k)
    )
    assert expanded_rule(inst, params).members == first


# ---------------------------------------------------------------------------
# Integer kernels against their Fraction definitions.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["constant", "optimal", "power", "threshold", "table"])
@given(data=st.data())
def test_winner_is_the_argmax_of_the_fraction_scores(family, data):
    inst = data.draw(instances().filter(lambda inst: inst.m > 1))
    w = data.draw(families(inst.m)[family])
    scores = score_all(inst, w)
    assert winner(inst, w) == max(range(inst.m), key=scores.__getitem__)


@st.composite
def thresholds(draw, m):
    """A threshold in (0, 1), often one with s*m integral (a voter exactly at it)."""
    on_grid = st.integers(1, m - 1).map(lambda i: Fraction(i, m)) if m > 1 else unit_interval
    return draw(st.one_of(on_grid, unit_interval))


def flexible(approved, s, m):
    return Fraction(len(approved), m) >= s


@st.composite
def voter_groups(draw):
    """A profile and a group of its voters, as a bitset or as the complement
    ``~bitset`` of the rest (the form the audits pass for disapprovers)."""
    inst = draw(instances())
    group = draw(st.integers(0, 2**inst.n - 1))
    return inst, draw(st.sampled_from([group, ~group]))


@given(voter_groups())
def test_flexible_counts_match_a_count_over_the_approval_sets(case):
    inst, voters = case
    members = [A for i, A in enumerate(inst.approvals) if voters >> i & 1]
    expected = [sum(1 for A in members if len(A) >= need) for need in range(inst.m + 2)]
    assert flexible_counts(inst, voters) == expected


VOTERS = 10
voter_sets = st.frozensets(st.integers(0, VOTERS - 1))


def as_bitset(voters):
    return sum(1 << i for i in voters)


@given(
    sets=st.lists(st.tuples(voter_sets, st.booleans()), max_size=6),
    classes=st.lists(st.tuples(st.integers(1, 2**70), voter_sets), max_size=5),
)
@example(sets=[(frozenset(), True), (frozenset({0, 3}), False)], classes=[])
def test_weighted_counts_sums_unit_times_overlap_over_python_sets(sets, classes):
    # A set drawn with True is passed as the complement ~bitset of its voters.
    everyone = frozenset(range(VOTERS))
    passed = [~as_bitset(voters) if complement else as_bitset(voters) for voters, complement in sets]
    expected = [
        sum(unit * len((everyone - voters if complement else voters) & group) for unit, group in classes)
        for voters, complement in sets
    ]
    assert weighted_counts(passed, [(unit, as_bitset(group)) for unit, group in classes]) == expected


def suffix_loop_curve(inst, voters):
    """The audit curve as one loop over the approval sizes, largest first,
    summing the group's count per size."""
    breakpoints = []
    count = 0
    for size, group in reversed(inst.size_masks.items()):
        hits = (voters & group).bit_count()
        if size and hits:
            count += hits
            breakpoints.append((Fraction(size, inst.m), Fraction(count, inst.n)))
    breakpoints.reverse()
    return AuditCurve(tuple(breakpoints))


@given(voter_groups())
def test_group_audit_curve_matches_the_suffix_loop(case):
    inst, voters = case
    assert group_audit_curve(inst, voters) == suffix_loop_curve(inst, voters)


@st.composite
def committees(draw, inst):
    return Committee(tuple(draw(st.frozensets(st.integers(0, inst.m - 1), min_size=1))))


@st.composite
def audit_cases(draw):
    inst = draw(instances())
    a = draw(st.integers(0, inst.m - 1))
    return inst, draw(thresholds(inst.m)), a, draw(committees(inst))


# s*m = 2 is integral and voter {0, 1} sits exactly at the threshold.
@example((build_instance(4, [{0, 1}, {2, 3}, {1, 2, 3}, set()]), Fraction(1, 2), 1, Committee((0,))))
@given(audit_cases())
def test_point_audits_match_their_fraction_definitions(case):
    inst, s, a, committee = case
    expected = Fraction(
        sum(1 for A in inst.approvals if flexible(A, s, inst.m) and a not in A), inst.n
    )
    assert empirical_fvr_point(inst, a, s) == expected
    members = set(committee.members)
    for t in range(1, committee.k + 1):
        short = sum(1 for A in inst.approvals if flexible(A, s, inst.m) and len(A & members) < t)
        assert empirical_fvr_committee(inst, committee, s, t) == Fraction(short, inst.n)


def fraction_committee_score(inst, committee, t):
    """Sum over voters left short of 1/miss, one Fraction addition per voter."""
    members = set(committee.members)
    total = Fraction(0)
    for approved in inst.approvals:
        if len(approved & members) < t:
            miss = miss_prob(inst.m, len(approved), committee.k, t)
            if miss:
                total += 1 / miss
    return total


@st.composite
def penalty_cases(draw):
    inst = draw(instances())
    committee = draw(committees(inst))
    return inst, committee, draw(st.integers(1, committee.k))


# Nobody is left short: the penalty is 0.
@example((build_instance(4, [{0, 1}, {0, 2, 3}]), Committee((0,)), 1))
# The voters left short are certain to miss (miss probability 1); the full one is not short.
@example((build_instance(4, [set(), {0, 1, 2, 3}, {3}]), Committee((0, 1)), 2))
@given(penalty_cases())
def test_committee_score_matches_its_fraction_definition(case):
    inst, committee, t = case
    assert committee_score(inst, committee, t) == fraction_committee_score(inst, committee, t)


@st.composite
def ranked_profiles(draw):
    m = draw(st.integers(1, 5))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=5))
    return RankedProfile(m, rankings)


@given(ranked_profiles())
def test_strong_pvc_matches_the_subset_oracle(profile):
    assert strong_pvc(profile) == strong_pvc_by_subsets(profile)


def fraction_open_unit(x, what):
    """The open-interval check with Fraction comparisons."""
    value = as_frac(x)
    if not 0 < value < 1:
        raise ValidationError(f"{what} {value} lies outside (0,1)")
    return value


def outcome(check, x):
    try:
        return check(x, "threshold")
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "x", [0, 1, Fraction(-1, 2), Fraction(3, 2), "1/2", True, "0", "-1/3", Fraction(1, 3)]
)
def test_open_unit_matches_its_fraction_definition_at_the_edges(x):
    assert outcome(open_unit, x) == outcome(fraction_open_unit, x)


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10))
def test_open_unit_matches_its_fraction_definition(x):
    assert outcome(open_unit, x) == outcome(fraction_open_unit, x)
