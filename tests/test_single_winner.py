"""Single-winner scoring rules, audits, and guarantee formulas."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvr.core import (
    CANDIDATE_LIMIT,
    Constant,
    Optimal,
    Power,
    SizeLimitError,
    Table,
    Threshold,
    ValidationError,
    build_instance,
    eval_weight,
    flexibility_grid,
)
from fvr.oracles import enumerate_instances
from fvr.single_winner import (
    closed_form_fvr,
    empirical_fvr_curve,
    empirical_fvr_point,
    grid_theoretical_fvr,
    is_optimal_weight_table,
    ropt_winner,
    score_all,
    winner,
)

INTRO = build_instance(4, [{1, 2}, {1, 3}, {2, 3}])
HALF = Fraction(1, 2)


def test_score_all_intro():
    assert score_all(INTRO, Constant()) == (0, 2, 2, 2)
    assert score_all(INTRO, Optimal(1)) == (0, 4, 4, 4)


def test_score_all_skips_voters_at_flexibility_one():
    inst = build_instance(3, [{0, 1, 2}, {0, 1, 2}])
    for family in (Constant(), Optimal(1), Power(2), Threshold(HALF)):
        assert score_all(inst, family) == (0, 0, 0)


def test_score_all_table_miss_propagates():
    with pytest.raises(ValidationError, match="1/2"):
        score_all(INTRO, Table({Fraction(1, 4): 1}))


def test_winner_tie_break_is_lowest_index():
    assert winner(INTRO, Optimal(1)) == 1
    assert winner(INTRO, Constant()) == 1


def test_winner_single_voter():
    inst = build_instance(3, [{2}])
    for family in (Constant(), Optimal(1), Power(1), Threshold(Fraction(1, 3))):
        assert winner(inst, family) == 2


def test_ropt_ignores_voters_approving_everything():
    inst = build_instance(3, [{0, 1, 2}, {0}])
    assert ropt_winner(inst) == 0


def test_empirical_fvr_point_examples():
    assert empirical_fvr_point(INTRO, 1, HALF) == Fraction(1, 3)
    assert empirical_fvr_point(INTRO, 0, HALF) == 1
    liked = build_instance(3, [{0, 1}, {0}])
    assert empirical_fvr_point(liked, 0, Fraction(2, 3)) == 0


def test_empirical_fvr_point_validation():
    with pytest.raises(ValidationError):
        empirical_fvr_point(INTRO, 4, HALF)
    with pytest.raises(ValidationError):
        empirical_fvr_point(INTRO, 0, Fraction(1))


def test_empirical_fvr_curve_examples():
    curve = empirical_fvr_curve(INTRO, 1)
    assert curve.breakpoints == ((HALF, Fraction(1, 3)),)
    assert curve.value_at(Fraction(1, 4)) == Fraction(1, 3)
    assert curve.value_at(Fraction(3, 4)) == 0

    liked = build_instance(2, [{0}, {0, 1}])
    assert empirical_fvr_curve(liked, 0).breakpoints == ()

    # disapprovers of candidate 0 at flexibilities 1/4 and 3/4, out of n = 4
    inst = build_instance(4, [{1}, {1, 2, 3}, {0}, {0, 1}])
    curve = empirical_fvr_curve(inst, 0)
    assert curve.value_at(Fraction(1, 8)) == Fraction(2, 4)
    assert curve.value_at(HALF) == Fraction(1, 4)
    assert curve.value_at(Fraction(7, 8)) == 0


@settings(max_examples=60)
@given(st.data())
def test_curve_matches_pointwise_audit(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.frozensets(st.integers(0, m - 1))) for _ in range(n)]
    inst = build_instance(m, rows)
    a = data.draw(st.integers(0, m - 1))
    curve = empirical_fvr_curve(inst, a)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for _ in range(25):
        s = Fraction(rng.randint(1, 99), 100)
        assert curve.value_at(s) == empirical_fvr_point(inst, a, s)


def test_closed_form_values():
    assert closed_form_fvr(Constant(), HALF) == Fraction(2, 3)
    assert closed_form_fvr(Power(1), HALF) == HALF
    assert closed_form_fvr(Power(2), Fraction(2, 3)) == Fraction(1, 3)
    assert closed_form_fvr(Power(2), HALF) == Fraction(32, 59)
    assert closed_form_fvr(Optimal(5), Fraction(1, 4)) == Fraction(3, 4)
    assert closed_form_fvr(Threshold(HALF), HALF) == HALF
    assert closed_form_fvr(Threshold(HALF), Fraction(3, 4)) == Fraction(2, 5)
    assert closed_form_fvr(Threshold(HALF), Fraction(1, 4)) == 1


@pytest.mark.parametrize(
    "family",
    [Constant(), Threshold(HALF), Power(2), Optimal(1), Table({Fraction(1, 4): 2, HALF: 1, Fraction(3, 4): 1})],
    ids=["constant", "threshold", "power", "optimal", "table"],
)
def test_bounds_are_plain_fractions(family):
    # Exactly Fraction, even where the guarantee is 0 or 1, so callers compare it directly.
    for s in (Fraction(1, 5), HALF, Fraction(9, 10)):
        assert type(closed_form_fvr(family, s)) is Fraction
        assert type(grid_theoretical_fvr(family, s, 4)) is Fraction


def test_table_guarantee_is_zero_when_no_entry_reaches_s():
    table = Table({Fraction(1, 4): 2, HALF: 1})
    # rho = max(3/4 * 2, 1/2 * 1) = 3/2; phi = min(1/4 * 2, 1/2 * 1) = 1/2 at s <= 1/4
    assert table.guarantee(Fraction(1, 4)) == Fraction(3, 4)
    assert table.guarantee(HALF) == Fraction(3, 4)
    assert closed_form_fvr(table, Fraction(3, 5)) == table.guarantee(Fraction(3, 5)) == 0


def test_grid_theoretical_examples():
    assert grid_theoretical_fvr(Constant(), HALF, 10) == Fraction(9, 14)

    # the optimal family pins rho = c, so the grid value is 1 - s whenever s is on the grid
    assert grid_theoretical_fvr(Optimal(1), HALF, 8) == HALF
    assert grid_theoretical_fvr(Optimal(3), Fraction(2, 5), 10) == Fraction(3, 5)

    # cutoff above s: no weight at or above s on the grid, so the guarantee degrades to 1
    assert grid_theoretical_fvr(Threshold(HALF), Fraction(1, 4), 4) == 1
    assert closed_form_fvr(Threshold(HALF), Fraction(1, 4)) == 1


def test_grid_theoretical_is_zero_above_top_grid_point():
    # s beyond (m-1)/m: every s-flexible voter approves all m candidates
    for m in range(2, 9):
        for family in (Constant(), Optimal(1), Power(2), Threshold(HALF)):
            assert grid_theoretical_fvr(family, Fraction(m * 2 - 1, m * 2), m) == 0
    assert grid_theoretical_fvr(Constant(), Fraction(9, 10), 4) == 0
    assert grid_theoretical_fvr(Constant(), Fraction(3, 4), 4) == HALF  # at the top point


def test_grid_resolution_is_at_most_the_candidate_limit():
    assert 0 < grid_theoretical_fvr(Constant(), HALF, CANDIDATE_LIMIT) <= closed_form_fvr(Constant(), HALF)
    with pytest.raises(SizeLimitError, match=f"^grid resolution must be at most {CANDIDATE_LIMIT}, got "):
        grid_theoretical_fvr(Constant(), HALF, CANDIDATE_LIMIT + 1)


def test_grid_theoretical_trivial_weight_rejected():
    with pytest.raises(ValidationError, match="trivial"):
        grid_theoretical_fvr(Threshold(Fraction(9, 10)), HALF, 4)


def test_grid_convergence_to_closed_form_along_refinements():
    s = Fraction(1, 2)
    target = closed_form_fvr(Constant(), s)
    values = [grid_theoretical_fvr(Constant(), s, s.denominator * j) for j in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v <= target for v in values)
    assert target - values[-1] < Fraction(1, 30)


@pytest.mark.parametrize(
    "family",
    [Constant(), Optimal(1), Power(1), Power(2), Power(3)]
    + [Threshold(s0) for s0 in (Fraction(1, 3), HALF, Fraction(3, 5))],
    ids=repr,
)
def test_grid_bound_approaches_the_closed_form_from_below(family):
    # Along grids m = d*j holding s (and s0), the finite-m bound never exceeds
    # the closed form, and the gap is at most 1/m.
    for s in (Fraction(1, 5), Fraction(1, 3), HALF, Fraction(3, 5), Fraction(4, 5)):
        closed = closed_form_fvr(family, s)
        d = s.denominator * getattr(family, "s0", 1).denominator
        for j in (1, 2, 3, 5, 8):
            m = d * j
            gap = closed - grid_theoretical_fvr(family, s, m)
            assert 0 <= gap <= Fraction(1, m), (s, m)


def test_grid_theoretical_is_the_guarantee_of_the_tabulated_weights():
    for family in (Constant(), Optimal(2), Power(2), Threshold(Fraction(2, 5))):
        for m in range(2, 12):
            table = Table([(f, eval_weight(family, f)) for f in flexibility_grid(m)])
            for i in range(1, 25):
                s = Fraction(i, 25)
                assert grid_theoretical_fvr(family, s, m) == table.guarantee(s)


def test_full_grid_table_meets_one_minus_s_everywhere_iff_optimal():
    rng = random.Random(5)
    seen = set()
    for m in range(2, 9):
        grid = flexibility_grid(m)
        for _ in range(150):
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            weights = [c / (1 - f) for f in grid]  # the 1/(1-f) family, scaled
            if rng.random() < 0.5:  # then change one entry, or all of them
                if rng.random() < 0.5:
                    weights[rng.randrange(len(grid))] = Fraction(rng.randint(0, 6), rng.randint(1, 3))
                else:
                    weights = [Fraction(rng.randint(0, 4)) for _ in grid]
            if not any(weights):
                continue
            table = Table(zip(grid, weights))
            optimal = is_optimal_weight_table(table)
            assert all(table.guarantee(s) == 1 - s for s in grid) == optimal
            seen.add(optimal)
    assert seen == {False, True}


def test_is_optimal_weight_table():
    assert is_optimal_weight_table(
        Table({Fraction(1, 4): Fraction(4, 3), HALF: 2, Fraction(3, 4): 4})
    )
    assert not is_optimal_weight_table(Table({HALF: 1, Fraction(3, 4): 1}))
    assert is_optimal_weight_table(Table({HALF: 2}))


def small_sweep(n_max=3, m_max=3):
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            yield from enumerate_instances(n, m)


def test_winner_is_scale_invariant():
    # scoring by c*w picks the same winner as scoring by w
    flexes = lambda inst: {
        Fraction(len(A), inst.m) for A in inst.approvals if 0 < len(A) < inst.m
    }
    for inst in small_sweep():
        fs = flexes(inst)
        if not fs:
            continue
        base = Table({f: f + 1 for f in fs})  # arbitrary positive, distinct weights
        scaled = Table({f: (f + 1) * Fraction(7, 3) for f in fs})
        assert winner(inst, base) == winner(inst, scaled)


def test_guarantees_on_exhaustive_small_sweep():
    rules = [
        (Constant(), lambda s: 1 / (1 + s)),
        (Power(1), lambda s: closed_form_fvr(Power(1), s)),
        (Power(2), lambda s: closed_form_fvr(Power(2), s)),
        (Power(3), lambda s: closed_form_fvr(Power(3), s)),
        (Optimal(1), lambda s: 1 - s),
    ]
    for inst in small_sweep():
        grid = flexibility_grid(inst.m)
        for family, bound in rules:
            chosen = winner(inst, family)
            for s in grid:
                assert empirical_fvr_point(inst, chosen, s) <= bound(s)
        for s in grid:
            chosen = winner(inst, Threshold(s))
            assert empirical_fvr_point(inst, chosen, s) <= 1 - s


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_guarantees_on_random_larger_instances(data):
    m = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(1, 6))
    rows = [data.draw(st.frozensets(st.integers(0, m - 1))) for _ in range(n)]
    inst = build_instance(m, rows)
    s = data.draw(st.sampled_from(flexibility_grid(m)))
    assert empirical_fvr_point(inst, ropt_winner(inst), s) <= 1 - s
    assert empirical_fvr_point(inst, winner(inst, Constant()), s) <= 1 / (1 + s)
    assert empirical_fvr_point(inst, winner(inst, Threshold(s)), s) <= 1 - s
    p = data.draw(st.integers(1, 3))
    bound = closed_form_fvr(Power(p), s)
    assert empirical_fvr_point(inst, winner(inst, Power(p)), s) <= bound
