"""The class-count kernels against the per-approval reference loops they replace.

Every fast path must return exactly the same values as its reference:
the same Fractions, the same winner, the same picks.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

from fvr.core import (
    Committee,
    Constant,
    Optimal,
    Power,
    Table,
    Threshold,
    build_instance,
    flexibility_grid,
)
from fvr.multi_winner import (
    MultiParams,
    committee_score,
    empirical_fvr_committee,
    empirical_fvr_committee_curve,
    expanded_rule,
    sequential_picks,
)
from fvr.oracles import (
    reference_committee_score,
    reference_expanded_rule,
    reference_score_all,
    reference_sequential_picks,
)
from fvr.single_winner import empirical_fvr_curve, empirical_fvr_point, score_all, winner

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


@st.composite
def weight_functions(draw, m):
    families = [
        st.just(Constant()),
        unit_interval.filter(lambda c: c != 1).map(Optimal)
        | st.integers(2, 9).map(Optimal),
        st.integers(1, 4).map(Power),
        unit_interval.map(Threshold),
    ]
    if m > 1:
        families.append(tables(m))
    return draw(st.one_of(families))


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
