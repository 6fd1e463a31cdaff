"""Core types: exact arithmetic, instance validation, weight families."""

import ast
import re
import time
import tracemalloc
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fvr
from fvr import core
from fvr.core import (
    CANDIDATE_LIMIT,
    COMMITTEE_LIMIT,
    NUMERAL_LIMIT,
    AuditCurve,
    Committee,
    Constant,
    Instance,
    Optimal,
    Power,
    RankedProfile,
    SizeLimitError,
    Table,
    Threshold,
    ValidationError,
    as_frac,
    build_instance,
    comb_over,
    eval_weight,
    flexibility,
    flexibility_grid,
    index_in,
    int_at_least,
    open_unit,
    parse_family,
    shown,
)
from fvr.formats import serialize_instance, serialize_ranked
from fvr.hypergeom import HypParams, hyp_cdf, hyp_pmf, multiwinner_bound
from fvr.multi_winner import (
    MultiParams,
    committee_score,
    empirical_fvr_committee,
    expand_instance,
    expanded_rule,
    jr_check,
    sequential_picks,
    sequential_rule,
    t_approves,
)
from fvr.oracles import (
    conditional_expected_score,
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
    reference_score_all,
    run_generator,
    strong_pvc,
)
from fvr.single_winner import (
    closed_form_fvr,
    empirical_fvr_curve,
    empirical_fvr_point,
    grid_theoretical_fvr,
    score_all,
    winner,
)
from fvr.verify import jr_by_sets, run_suite, strong_pvc_by_subsets

INTRO = build_instance(4, [{1, 2}, {1, 3}, {2, 3}])

nonzero = st.integers(-10**12, 10**12).filter(bool)
anyint = st.integers(-10**12, 10**12)


@given(anyint, nonzero, anyint, nonzero)
def test_fraction_addition_matches_cross_multiplication(a, b, c, d):
    # independent oracle: a/b + c/d = (ad + cb)/(bd), compared via integers
    result = Fraction(a, b) + Fraction(c, d)
    assert result.numerator * (b * d) == (a * d + c * b) * result.denominator


@given(anyint, nonzero)
def test_fraction_lowest_terms_and_positive_denominator(a, b):
    x = Fraction(a, b)
    assert x.denominator > 0
    assert gcd(abs(x.numerator), x.denominator) == 1


@given(anyint, nonzero, anyint, nonzero, anyint, nonzero)
def test_fraction_addition_associative(a, b, c, d, e, f):
    x, y, z = Fraction(a, b), Fraction(c, d), Fraction(e, f)
    assert (x + y) + z == x + (y + z)


def test_as_frac_rejects_floats():
    with pytest.raises(ValidationError):
        as_frac(0.5)
    assert as_frac("1/2") == Fraction(1, 2)
    assert as_frac(3) == 3


@pytest.mark.parametrize("text", ["1e3", "1E-2", "2.5e1", "1e-10000000", "1/2e1"])
def test_as_frac_rejects_exponent_notation(text):
    with pytest.raises(ValidationError, match="exponent notation"):
        as_frac(text)


def test_as_frac_reads_ratios_integers_and_decimals():
    assert [as_frac(t) for t in ("7/12", "-3", "0.25", " 1/3 ")] == [
        Fraction(7, 12), Fraction(-3), Fraction(1, 4), Fraction(1, 3)
    ]
    with pytest.raises(ValidationError, match=f"over {NUMERAL_LIMIT} characters"):
        as_frac("0." + "1" * NUMERAL_LIMIT)


@pytest.mark.parametrize("w", [None, "approval", 1, Fraction(1, 2), Committee((0,))])
def test_a_non_family_is_not_a_weight_function_anywhere(w):
    message = f"not a weight function: {w!r}"
    for call in (
        lambda: score_all(INTRO, w),
        lambda: eval_weight(w, Fraction(1, 2)),
        lambda: closed_form_fvr(w, Fraction(1, 2)),
    ):
        with pytest.raises(ValidationError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_build_instance_intro():
    assert INTRO.m == 4
    assert INTRO.n == 3
    assert INTRO.approvals[0] == frozenset({1, 2})


def test_build_instance_empty_approval_set_is_legal():
    inst = build_instance(1, [set()])
    assert flexibility(inst, 0) == 0


def test_build_instance_rejects_out_of_range_index():
    with pytest.raises(ValidationError, match="voter 0.*3"):
        build_instance(3, [{0, 3}])


def test_build_instance_rejects_zero_candidates_and_zero_voters():
    with pytest.raises(ValidationError):
        build_instance(0, [set()])
    with pytest.raises(ValidationError):
        build_instance(2, [])


@pytest.mark.parametrize(
    "build", [lambda: Instance(3, []), lambda: Instance.from_masks(3, [])], ids=["Instance", "from_masks"]
)
def test_every_constructor_refuses_an_instance_without_voters(build):
    with pytest.raises(ValidationError, match="^need at least one voter$"):
        build()


@pytest.mark.parametrize(
    "rankings, message",
    [
        ((), "^need at least one voter$"),
        (((0, 1),), r"^voter 0: ranking \(0, 1\) is not a permutation of 0\.\.2$"),
        (((0, 1, 2), (0, 1, 1)), r"^voter 1: ranking \(0, 1, 1\) is not a permutation of 0\.\.2$"),
        (((0, 1, 2), (0, 1, 2, 0)), r"^voter 1: ranking \(0, 1, 2, 0\) is not a permutation"),
        (((0.0, True, 2),), r"^voter 0: ranking entry must be an integer in 0\.\.2, got 0\.0$"),
        (((0, "a", 1),), r"^voter 0: ranking entry must be an integer in 0\.\.2, got 'a'$"),
    ],
)
def test_ranked_profile_refuses_an_empty_profile_and_non_permutations(rankings, message):
    with pytest.raises(ValidationError, match=message):
        RankedProfile(3, rankings)


def test_ranked_profile_stores_its_rankings_as_tuples():
    profile = RankedProfile(2, [[1, 0], (0, 1)])
    assert profile.rankings == ((1, 0), (0, 1))
    assert profile == RankedProfile(2, iter([(1, 0), [0, 1]]))


def test_flexibility_examples():
    assert flexibility(INTRO, 0) == Fraction(1, 2)
    full = build_instance(3, [{0, 1, 2}])
    assert flexibility(full, 0) == 1
    # |A| = 4 out of m = 10, reduced; cross-checked by counting mask bits
    mask = 0b0110110000
    approved = {c for c in range(10) if mask >> c & 1}
    assert bin(mask).count("1") == 4
    inst = build_instance(10, [approved])
    assert flexibility(inst, 0) == Fraction(2, 5)


def test_flexibility_rejects_bad_voter():
    with pytest.raises(ValidationError):
        flexibility(INTRO, 3)


@st.composite
def instance_and_permutation(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    rows = [draw(st.frozensets(st.integers(0, m - 1))) for _ in range(n)]
    perm = draw(st.permutations(range(m)))
    return build_instance(m, rows), perm


@given(instance_and_permutation())
def test_flexibility_invariant_under_candidate_relabeling(case):
    inst, perm = case
    relabeled = build_instance(inst.m, [{perm[a] for a in A} for A in inst.approvals])
    for i in range(inst.n):
        assert flexibility(inst, i) == flexibility(relabeled, i)


def test_eval_weight_examples():
    assert eval_weight(Optimal(1), Fraction(1, 2)) == 2
    # exact rational power, checked by repeated multiplication
    f = Fraction(2, 5)
    assert eval_weight(Power(2), f) == f * f == Fraction(4, 25)
    assert eval_weight(Threshold(Fraction(1, 2)), Fraction(1, 3)) == 0
    assert eval_weight(Constant(), Fraction(9, 10)) == 1
    assert eval_weight(Table({Fraction(1, 3): Fraction(5)}), Fraction(1, 3)) == 5


def test_eval_weight_rejects_endpoint_flexibilities():
    for f in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValidationError):
            eval_weight(Constant(), f)


def test_eval_weight_table_miss_names_the_flexibility():
    table = Table({Fraction(1, 2): 1})
    with pytest.raises(ValidationError, match="1/3"):
        eval_weight(table, Fraction(1, 3))


@given(st.integers(1, 40), st.integers(2, 41), st.integers(1, 9))
def test_optimal_family_identity(num, den, c):
    # (1 - f) * w(f) is constant: the defining property of the optimal family
    if num >= den:
        num = den - 1
    f = Fraction(num, den)
    assert eval_weight(Optimal(c), f) * (1 - f) == c


@given(st.integers(2, 30).flatmap(lambda m: st.tuples(st.integers(1, m - 1), st.just(m))),
       st.fractions(0, 1).filter(lambda x: 0 < x < 1), st.integers(1, 4), st.integers(1, 9))
def test_ratio_is_each_family_at_size_over_m(case, s0, p, c):
    # The int pair need not be reduced; its value is the family's definition
    # at f = size/m, written here in Fractions.
    size, m = case
    f = Fraction(size, m)
    table = Table({f: Fraction(c, p)})
    expected = {
        Constant(): Fraction(1),
        Threshold(s0): Fraction(int(f >= s0)),
        Power(p): f**p,
        Optimal(c): c / (1 - f),
        table: Fraction(c, p),
    }
    for w, value in expected.items():
        num, den = w.ratio(size, m)
        assert den > 0 and Fraction(num, den) == value == eval_weight(w, f)
    with pytest.raises(ValidationError, match=f"no entry for flexibility {f}"):
        Table({Fraction(1, m + 1): 1}).ratio(size, m)


def test_weight_family_validation():
    with pytest.raises(ValidationError):
        Threshold(Fraction(0))
    with pytest.raises(ValidationError):
        Threshold(1)
    with pytest.raises(ValidationError):
        Power(0)
    with pytest.raises(ValidationError):
        Optimal(0)
    with pytest.raises(ValidationError):
        Table({})
    with pytest.raises(ValidationError):
        Table({Fraction(1, 2): 0})  # trivial
    with pytest.raises(ValidationError):
        Table({Fraction(3, 2): 1})  # key outside (0,1)
    with pytest.raises(ValidationError):
        Table({Fraction(1, 2): -1})


def test_table_equality_and_lookup():
    a = Table({Fraction(1, 2): 1, Fraction(1, 4): 2})
    b = Table([(Fraction(1, 4), 2), (Fraction(1, 2), 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_flexibility_grid():
    assert flexibility_grid(4) == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    assert flexibility_grid(1) == ()
    assert len(flexibility_grid(CANDIDATE_LIMIT)) == CANDIDATE_LIMIT - 1


def test_committee_normalizes_members():
    c = Committee((3, 0, 3))
    assert c.members == (0, 3)
    assert c.k == 2
    assert 3 in c and 1 not in c
    assert list(Committee((2, 0))) == [0, 2]


def test_audit_curve_evaluation_and_validation():
    curve = AuditCurve(((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))))
    assert curve.value_at(Fraction(1, 8)) == Fraction(1, 2)
    assert curve.value_at(Fraction(1, 4)) == Fraction(1, 2)
    assert curve.value_at(Fraction(1, 2)) == Fraction(1, 4)
    assert curve.value_at(Fraction(7, 8)) == 0
    with pytest.raises(ValidationError):
        AuditCurve(((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))))
    with pytest.raises(ValidationError):
        AuditCurve(((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))))


WEIGHT_TABLE = Table({Fraction(1, 4): 1, Fraction(1, 2): 1})
CURVE = AuditCurve(((Fraction(1, 2), Fraction(1, 3)),))

# Every integer input, with a value just below its bound (seeds and the probe t
# of hyp_pmf/hyp_cdf take any int, so theirs is a non-int).  Each also refuses a bool and a Fraction, which is
# what ``fvr gen --param L=1/2`` passes.  Each goes through core.int_at_least,
# or core.index_in for an index, so each raises a "must be ... integer" message.
INTEGER_SITES = {
    "build_instance m": (lambda x: build_instance(x, [set()]), 0),
    "build_instance index": (lambda x: build_instance(3, [{x}]), -1),
    "build_ranked_profile m": (lambda x: RankedProfile(x, [[0]]), 0),
    "RankedProfile m": (lambda x: RankedProfile(x, ((0,),)), 0),
    "Power": (Power, 0),
    "Committee": (lambda x: Committee((x,)), -1),
    "MultiParams k": (lambda x: MultiParams(x, 1), 0),
    "MultiParams t": (lambda x: MultiParams(2, x), 0),
    "committee_score t": (lambda x: committee_score(INTRO, Committee((1, 2)), x), 0),
    "HypParams population": (lambda x: HypParams(x, 0, 0), -1),
    "HypParams successes": (lambda x: HypParams(3, x, 0), -1),
    "HypParams draws": (lambda x: HypParams(3, 0, x), -1),
    "hyp_pmf t": (lambda x: hyp_pmf(HypParams(5, 2, 3), x), "x"),
    "hyp_cdf t": (lambda x: hyp_cdf(HypParams(5, 2, 3), x), "x"),
    "multiwinner_bound m": (lambda x: multiwinner_bound(x, "1/2", 1, 1), 1),
    "multiwinner_bound k": (lambda x: multiwinner_bound(5, "1/2", x, 1), 0),
    "multiwinner_bound t": (lambda x: multiwinner_bound(5, "1/2", 2, x), 0),
    "grid_theoretical_fvr": (lambda x: grid_theoretical_fvr(Constant(), Fraction(1, 2), x), 1),
    "AuditCurve.values_on_grid m": (lambda x: CURVE.values_on_grid(x), 0),
    "flexibility_grid m": (flexibility_grid, 0),
    "gen_party_split k": (gen_party_split, 1),
    "gen_party_split reps": (lambda x: gen_party_split(2, x), 0),
    "gen_jr_hard k": (lambda x: gen_jr_hard(6, x), 1),
    "gen_jr_hard m": (lambda x: gen_jr_hard(x, 2), -1),
    "gen_spread n": (lambda x: gen_spread(x, 4, 1), 0),
    "gen_spread m": (lambda x: gen_spread(2, x, 0), 0),
    "gen_spread per_voter": (lambda x: gen_spread(2, 4, x), -1),
    "gen_approval_gap n": (lambda x: gen_approval_gap(x, 10, Fraction(1, 2), Fraction(1, 2)), 1),
    "gen_approval_gap m": (lambda x: gen_approval_gap(12, x, Fraction(1, 2), Fraction(1, 2)), 1),
    "gen_power_gap n": (lambda x: gen_power_gap(x, 20, Fraction(1, 2), Fraction(9, 20), 1), 1),
    "gen_power_gap m": (lambda x: gen_power_gap(40, x, Fraction(1, 2), Fraction(9, 20), 1), 1),
    "gen_weight_gap n": (lambda x: gen_weight_gap(WEIGHT_TABLE, Fraction(1, 4), Fraction(1, 2), x), 0),
    "gen_symmetric m": (lambda x: gen_symmetric(x, 0), 0),
    "gen_symmetric per_voter": (lambda x: gen_symmetric(4, x), -1),
    "gen_random_instance n": (lambda x: gen_random_instance(x, 3), 0),
    "gen_random_instance m": (lambda x: gen_random_instance(2, x), 0),
    "gen_random_instance seed": (lambda x: gen_random_instance(2, 3, x), "x"),
    "enumerate_instances n": (lambda x: enumerate_instances(x, 2), 0),  # no voters: refused at the call
    "enumerate_instances m": (lambda x: enumerate_instances(2, x), 0),
    "enumerate_voter_multisets n": (lambda x: enumerate_voter_multisets(x, 2), 0),
    "enumerate_voter_multisets m": (lambda x: enumerate_voter_multisets(2, x), 0),
    "enumerate_instances budget": (lambda x: enumerate_instances(2, 2, budget=x), 0),
    "enumerate_voter_multisets budget": (lambda x: enumerate_voter_multisets(2, 2, budget=x), 0),
    "conditional_expected_score": (
        lambda x: conditional_expected_score(INTRO, MultiParams(1, 1), (x,)),
        -1,
    ),
    "run_suite n_max": (lambda x: run_suite("opt", n_max=x), 0),
    "run_suite m_max": (lambda x: run_suite("opt", m_max=x), 0),
    "run_suite budget": (lambda x: run_suite("opt", budget=x), 0),
    "run_suite seed": (lambda x: run_suite("pvc", seed=x), "x"),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("bad", ["bool", "fraction", "string", "below"])
def test_integer_inputs_reject_bools_and_values_below_their_bound(site, bad):
    call, below = INTEGER_SITES[site]
    value = {"bool": True, "fraction": Fraction(1, 2), "string": "x", "below": below}[bad]
    message = rf"must be (a nonnegative|a positive|an) integer.*, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_instance_m_is_bounded_by_the_committee_limit():
    # expand_instance makes each of up to COMMITTEE_LIMIT committees a candidate.
    assert Instance.from_masks(COMMITTEE_LIMIT, [1]).m == Instance(COMMITTEE_LIMIT, [[0]]).m
    message = f"^m must be at most {COMMITTEE_LIMIT}, got {COMMITTEE_LIMIT + 1}$"
    for build in (lambda m: Instance(m, [[0]]), lambda m: Instance.from_masks(m, [1])):
        with pytest.raises(SizeLimitError, match=message):
            build(COMMITTEE_LIMIT + 1)


def test_an_upper_bound_is_checked_after_the_type_and_the_lower_bound():
    assert int_at_least(10, "m", 1, 10) == 10
    with pytest.raises(SizeLimitError, match="^m must be at most 10, got 11$"):
        int_at_least(11, "m", 1, 10)
    with pytest.raises(SizeLimitError, match=f"^m must be at most 10, got an integer of {HUGE.bit_length()} bits$"):
        int_at_least(HUGE, "m", 1, 10)
    for bad in (0, True, "x"):
        with pytest.raises(ValidationError, match="^m must be a positive integer, got ") as info:
            int_at_least(bad, "m", 1, 10)
        assert type(info.value) is ValidationError


def test_instance_views_are_bounded_by_the_view_limit(monkeypatch):
    # 4 voters over 2 candidates write a row string of 4 * (2 + 3) = 20 characters.
    monkeypatch.setattr(core, "VIEW_LIMIT", 20)
    rows, masks = [[0], [1], [0, 1], []], [1, 2, 3, 0]
    for inst in (Instance(2, rows), Instance.from_masks(2, masks)):
        assert inst.columns == (0b0101, 0b0110) and inst.size_masks == {0: 0b1000, 1: 0b0011, 2: 0b0100}

    def unreachable(m, masks):
        raise AssertionError("views built over the limit")

    monkeypatch.setattr(core, "_kernel_views", unreachable)
    message = "^5 voters over 2 candidates need views of 25 characters, over the limit 20$"
    with pytest.raises(SizeLimitError, match=message):
        Instance(2, [*rows, [0]])
    with pytest.raises(SizeLimitError, match=message):
        Instance.from_masks(2, [*masks, 1])


def test_seeds_take_any_int():
    assert gen_random_instance(2, 3, -5).n == 2
    assert run_suite("pvc", n_max=2, m_max=2, seed=-5).passed


# Every collection input given in the wrong shape (a scalar where a collection
# belongs, or a pair of the wrong length), with the ValidationError it raises.
SHAPE_SITES = {
    "Instance rows": (lambda: Instance(2, 5), r"^approvals must be rows of candidate indices \(.*\)$"),
    "Instance row": (lambda: Instance(2, [5]), r"^approvals must be rows of candidate indices \(.*\)$"),
    "RankedProfile rows": (lambda: RankedProfile(2, 5), r"^rankings must be rows of candidate indices \(.*\)$"),
    "RankedProfile row": (lambda: RankedProfile(2, [5]), r"^rankings must be rows of candidate indices \(.*\)$"),
    "Committee": (lambda: Committee(5), r"^committee must hold candidate indices, got 5$"),
    "AuditCurve": (lambda: AuditCurve(5), r"^curve must hold \(s, value\) pairs, got 5$"),
    "AuditCurve pair": (lambda: AuditCurve([(1,)]), r"^curve must hold \(s, value\) pairs, got \[\(1,\)\]$"),
    "Table": (lambda: Table(5), r"^table must hold \(flexibility, weight\) pairs, got 5$"),
    "Table pair": (lambda: Table([1]), r"^table must hold \(flexibility, weight\) pairs, got \[1\]$"),
    "conditional_expected_score partial": (
        lambda: conditional_expected_score(INTRO, MultiParams(1, 1), 5),
        r"^partial committee must hold candidate indices, got 5$",
    ),
    "parse_family": (lambda: parse_family(5), r"^a rule spec must be a string, got 5$"),
}


@pytest.mark.parametrize("site", SHAPE_SITES)
def test_collection_inputs_of_the_wrong_shape_raise_a_validation_error(site):
    call, message = SHAPE_SITES[site]
    with pytest.raises(ValidationError, match=message):
        call()


# Every public entry point given a plain tuple where a record belongs, with the
# record it names; (1, 2) has none of the attributes the entry points read.
RECORD_SITES = {
    "hyp_pmf": (lambda x: hyp_pmf(x, 1), "params must be a HypParams"),
    "hyp_cdf": (lambda x: hyp_cdf(x, 1), "params must be a HypParams"),
    "score_all": (lambda x: score_all(x, Constant()), "instance must be an Instance"),
    "winner": (lambda x: winner(x, Constant()), "instance must be an Instance"),
    "empirical_fvr_point": (lambda x: empirical_fvr_point(x, 0, "1/2"), "instance must be an Instance"),
    "empirical_fvr_curve": (lambda x: empirical_fvr_curve(x, 0), "instance must be an Instance"),
    "sequential_picks": (lambda x: sequential_picks(x, MultiParams(2, 1)), "instance must be an Instance"),
    "expanded_rule": (lambda x: expanded_rule(x, MultiParams(2, 1)), "instance must be an Instance"),
    "committee_score": (lambda x: committee_score(x, Committee((0, 1)), 1), "instance must be an Instance"),
    "jr_check": (lambda x: jr_check(x, Committee((0, 1))), "instance must be an Instance"),
    "empirical_fvr_committee": (
        lambda x: empirical_fvr_committee(x, Committee((0, 1)), "1/2", 1),
        "instance must be an Instance",
    ),
    "strong_pvc": (strong_pvc, "profile must be a RankedProfile"),
    "flexibility": (lambda x: flexibility(x, 0), "instance must be an Instance"),
    "serialize_instance": (serialize_instance, "instance must be an Instance"),
    "serialize_ranked": (serialize_ranked, "profile must be a RankedProfile"),
    "reference_score_all": (lambda x: reference_score_all(x, Constant()), "instance must be an Instance"),
    "strong_pvc_by_subsets": (strong_pvc_by_subsets, "profile must be a RankedProfile"),
    "jr_by_sets": (lambda x: jr_by_sets(x, frozenset({0})), "instance must be an Instance"),
}


@pytest.mark.parametrize("site", RECORD_SITES)
def test_a_non_record_argument_raises_a_validation_error(site):
    call, message = RECORD_SITES[site]
    with pytest.raises(ValidationError, match=rf"^{message}, got \(1, 2\)$"):
        call((1, 2))


def test_audit_curve_stores_its_breakpoints_as_a_tuple():
    curve = AuditCurve([[Fraction(1, 2), Fraction(1, 3)]])
    assert curve == CURVE and hash(curve) == hash(CURVE)


# Every AuditCurve breakpoint read through as_frac: a string exactly, and a
# float or a bool, as s or as value, refused as a rational.
CURVE_VALUE_SITES = {
    "strings": ([("1/2", "1/3")], None),
    "float value": ([(Fraction(1, 2), 0.25)], r"^refusing float 0\.25: pass an exact value"),
    "bool value": ([(Fraction(1, 2), True)], r"^expected a rational number, got True$"),
    "bool s": ([(True, Fraction(1, 2))], r"^expected a rational number, got True$"),
}


@pytest.mark.parametrize("site", CURVE_VALUE_SITES)
def test_audit_curve_reads_each_breakpoint_as_a_rational(site):
    breakpoints, message = CURVE_VALUE_SITES[site]
    if message is None:
        curve = AuditCurve(breakpoints)
        assert curve == CURVE and curve.breakpoints == ((Fraction(1, 2), Fraction(1, 3)),)
    else:
        with pytest.raises(ValidationError, match=message):
            AuditCurve(breakpoints)


# Every index input, with the number of things it indexes.  A float, a bool,
# -1 and that number each raise a ValidationError naming the value; a
# committee member is first checked by Committee itself.
INDEX_SITES = {
    "empirical_fvr_point candidate": (lambda x: empirical_fvr_point(INTRO, x, "1/2"), 4),
    "empirical_fvr_curve candidate": (lambda x: empirical_fvr_curve(INTRO, x), 4),
    "flexibility voter": (lambda x: flexibility(INTRO, x), 3),
    "t_approves voter": (lambda x: t_approves(INTRO, x, Committee((1, 2)), 1), 3),
    "t_approves member": (lambda x: t_approves(INTRO, 0, Committee((1, x)), 1), 4),
    "committee_score member": (lambda x: committee_score(INTRO, Committee((x,)), 1), 4),
    "empirical_fvr_committee member": (
        lambda x: empirical_fvr_committee(INTRO, Committee((x,)), "1/2", 1),
        4,
    ),
    "jr_check member": (lambda x: jr_check(INTRO, Committee((x,))), 4),
    "conditional_expected_score member": (
        lambda x: conditional_expected_score(INTRO, MultiParams(1, 1), (x,)),
        4,
    ),
    "Instance candidate": (lambda x: Instance(4, [{0}, {x}]), 4),
    "RankedProfile entry": (lambda x: RankedProfile(2, ((0, 1), (x, 0))), 2),
}


@pytest.mark.parametrize("site", INDEX_SITES)
@pytest.mark.parametrize("bad", ["float", "bool", "negative", "size"])
def test_index_inputs_reject_floats_bools_and_values_out_of_range(site, bad):
    call, size = INDEX_SITES[site]
    value = {"float": 1.0, "bool": True, "negative": -1, "size": size}[bad]
    with pytest.raises(ValidationError, match=rf", got {re.escape(repr(value))}$"):
        call(value)


def bool_tests(tree, where="<module>"):
    """The innermost enclosing def or class of each ``isinstance(..., bool)`` call."""
    for child in ast.iter_child_nodes(tree):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "isinstance"
            and len(child.args) == 2
            and any(isinstance(node, ast.Name) and node.id == "bool" for node in ast.walk(child.args[1]))
        ):
            yield where
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from bool_tests(child, child.name if scope else where)


def test_only_the_integer_and_rational_validators_tell_bools_from_ints():
    # A second place that refuses bools is a second integer validator: every
    # integer goes through core.int_at_least, and as_frac refuses a bool as a
    # rational.
    found = {
        (path.stem, where)
        for path in Path(fvr.__file__).parent.glob("*.py")
        for where in bool_tests(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert ("core", "int_at_least") in found
    assert found <= {("core", "int_at_least"), ("core", "as_frac")}


# Every size input, with a value above its budget (far above, but for the grids,
# which build one Fraction per grid point).  Each is refused at the call with
# SizeLimitError, before anything of that size is built, and its message prints
# no count built from the sizes (such a count may be too long to print).
OVERSIZED_SITES = {
    "flexibility_grid": (flexibility_grid, CANDIDATE_LIMIT + 1),
    "AuditCurve.values_on_grid": (lambda x: CURVE.values_on_grid(x), CANDIDATE_LIMIT + 1),
    "enumerate_instances m": (lambda x: enumerate_instances(10, x), 2000),
    "enumerate_instances n": (lambda x: enumerate_instances(x, 2), 10**9),
    "enumerate_voter_multisets m, n=400": (lambda x: enumerate_voter_multisets(400, x), 8000),
    "enumerate_voter_multisets m, n=200": (lambda x: enumerate_voter_multisets(200, x), 2000),
    "enumerate_voter_multisets m, n=3": (lambda x: enumerate_voter_multisets(3, x), 64),
    "enumerate_voter_multisets n": (lambda x: enumerate_voter_multisets(x, 2), 10**9),
    "grid_theoretical_fvr": (lambda x: grid_theoretical_fvr(Power(100), Fraction(1, 3), x), 10**6),
    "run_suite hypergeom budget": (lambda x: run_suite("hypergeom", budget=x), 10**12),
    "run_suite hypergeom m_max": (lambda x: run_suite("hypergeom", m_max=x), 40),
    "run_suite sweep n_max": (lambda x: run_suite("opt", n_max=x), 10**9),
    "run_suite sweep m_max": (lambda x: run_suite("opt", m_max=x), 10**9),
    "run_suite multiwinner m_max": (lambda x: run_suite("multiwinner", m_max=x), 10**9),
    "run_suite pvc n_max": (lambda x: run_suite("pvc", n_max=x), 10**9),
    "run_suite pvc m_max": (lambda x: run_suite("pvc", m_max=x), 10**12),
    "expand_instance": (lambda x: expand_instance(build_instance(x, [{0}]), MultiParams(x // 2, 1)), 20_000),
    "run_generator random n": (lambda x: run_generator("random", {"n": x, "m": 3}), 10**9),
    "run_generator random m": (lambda x: run_generator("random", {"n": 1, "m": x}), 10**9),
    "run_generator symmetric m": (lambda x: run_generator("symmetric", {"m": x, "L": 2}), 10**9),
    "run_generator symmetric L": (lambda x: run_generator("symmetric", {"m": 10_000, "L": x}), 5_000),
    "run_generator party_split k": (lambda x: run_generator("party_split", {"k": x}), 10**9),
    "run_generator party_split reps": (
        lambda x: run_generator("party_split", {"k": 2, "reps": x}),
        10**12,
    ),
}


@pytest.mark.parametrize("budget", [0, 1, 5, 36, 1000])
def test_comb_over_is_the_binomial_comparison(budget):
    for total in range(30):
        for chosen in range(total + 1):
            assert comb_over(total, chosen, budget) == (comb(total, chosen) > budget)


@pytest.mark.parametrize("site", OVERSIZED_SITES)
def test_size_inputs_far_over_budget_raise_at_once_with_a_short_message(site):
    call, value = OVERSIZED_SITES[site]
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as excinfo:
        call(value)
    assert time.perf_counter() - start < 1
    assert len(str(excinfo.value)) < 200


def test_gen_jr_hard_keeps_its_relational_check():
    with pytest.raises(ValidationError, match="need m > k"):
        gen_jr_hard(2, 2)


# An integer far too long to print: repr() refuses over 4300 digits.
HUGE = 10**5000
LONG = "y" * 10**6
TRIO = Instance(3, [[0], [1, 2]])

# Every call that words an integer of over NUMERAL_LIMIT digits in its error,
# with the error it raises (SizeLimitError where the integer is a size): the
# message describes the integer by its bit length instead of failing to print it,
# a string of over NUMERAL_LIMIT characters by its length, and any other value
# whose text runs that long by its type and the length of that text.
HUGE_SITES = {
    "int_at_least": (lambda: int_at_least(-HUGE, "n", 1), ValidationError),
    "index_in": (lambda: index_in(HUGE, 3, "x"), ValidationError),
    "MultiParams k": (lambda: MultiParams(-HUGE, 1), ValidationError),
    "MultiParams t over k": (lambda: MultiParams(HUGE, HUGE + 1), ValidationError),
    "sequential_rule k": (lambda: sequential_rule(TRIO, MultiParams(HUGE, 1)), ValidationError),
    "expanded_rule k": (lambda: expanded_rule(TRIO, MultiParams(HUGE, 1)), ValidationError),
    "committee_score t": (lambda: committee_score(TRIO, Committee((0,)), HUGE), ValidationError),
    "jr_check member": (lambda: jr_check(TRIO, Committee((HUGE,))), ValidationError),
    "committee_score largest member": (lambda: committee_score(TRIO, Committee((0, HUGE)), 1), ValidationError),
    "t_approves voter": (lambda: t_approves(TRIO, HUGE, Committee((0,)), 1), ValidationError),
    "conditional_expected_score member": (
        lambda: conditional_expected_score(TRIO, MultiParams(1, 1), (HUGE,)),
        ValidationError,
    ),
    "Instance index": (lambda: Instance(2, [[HUGE]]), ValidationError),
    "Instance m": (lambda: Instance(-HUGE, [[0]]), ValidationError),
    "RankedProfile entry": (lambda: RankedProfile(2, [(0, HUGE)]), ValidationError),
    "Power": (lambda: Power(HUGE), SizeLimitError),
    "Threshold": (lambda: Threshold(HUGE), ValidationError),
    "open_unit": (lambda: open_unit(HUGE), ValidationError),
    "Optimal": (lambda: Optimal(-HUGE), ValidationError),
    "Table weight": (lambda: Table({Fraction(1, 2): -HUGE}), ValidationError),
    "AuditCurve value": (lambda: AuditCurve([(Fraction(1, 2), HUGE)]), ValidationError),
    "HypParams successes": (lambda: HypParams(5, HUGE, 1), ValidationError),
    "HypParams population": (lambda: HypParams(-HUGE, 1, 1), ValidationError),
    "multiwinner_bound k": (lambda: multiwinner_bound(5, "1/2", HUGE, 1), ValidationError),
    "gen_spread per_voter": (lambda: gen_spread(2, 4, HUGE), ValidationError),
    "gen_spread n": (lambda: gen_spread(HUGE, 4, 1), SizeLimitError),
    "gen_jr_hard m": (lambda: gen_jr_hard(HUGE, 2), SizeLimitError),
    "gen_jr_hard k": (lambda: gen_jr_hard(5, HUGE), ValidationError),
    "gen_party_split k": (lambda: gen_party_split(HUGE), SizeLimitError),
    "gen_symmetric per_voter": (lambda: gen_symmetric(5, HUGE), ValidationError),
    "gen_random_instance m": (lambda: gen_random_instance(1, HUGE), SizeLimitError),
    "empirical_fvr_point candidate": (lambda: empirical_fvr_point(TRIO, HUGE, "1/2"), ValidationError),
    "flexibility voter": (lambda: flexibility(TRIO, HUGE), ValidationError),
    "grid_theoretical_fvr": (lambda: grid_theoretical_fvr(Constant(), "1/2", HUGE), SizeLimitError),
    "enumerate_instances n": (lambda: enumerate_instances(HUGE, 2), SizeLimitError),
    "enumerate_voter_multisets m": (lambda: enumerate_voter_multisets(2, HUGE), SizeLimitError),
    "run_suite n_max": (lambda: run_suite("opt", n_max=HUGE), SizeLimitError),
    # The shape errors, and the other messages that print a caller's value.
    "Committee shape": (lambda: Committee(HUGE), ValidationError),
    "AuditCurve shape": (lambda: AuditCurve(HUGE), ValidationError),
    "Table shape": (lambda: Table(HUGE), ValidationError),
    "conditional_expected_score partial": (
        lambda: conditional_expected_score(TRIO, MultiParams(1, 1), HUGE),
        ValidationError,
    ),
    "AuditCurve breakpoint": (
        lambda: AuditCurve([(Fraction(1, 2), 0), (Fraction(1, HUGE), 0)]),
        ValidationError,
    ),
    "Table duplicate": (lambda: Table([(Fraction(1, HUGE), 1), (Fraction(1, HUGE), 2)]), ValidationError),
    "HypParams draws": (lambda: HypParams(5, 1, HUGE), ValidationError),
    "multiwinner_bound t": (lambda: multiwinner_bound(5, "1/2", 2, HUGE), ValidationError),
    "multiwinner_bound t over k": (lambda: multiwinner_bound(HUGE + 1, "1/2", HUGE, HUGE + 1), ValidationError),
    # Each constructor refuses such an m before it builds anything that grows with m.
    "Instance m over the limit": (lambda: Instance(HUGE, [[0]]), SizeLimitError),
    "Instance.from_masks m": (lambda: Instance.from_masks(HUGE, [1]), SizeLimitError),
    "RankedProfile m": (lambda: RankedProfile(HUGE, [[0]]), ValidationError),
    # A profile whose views would run over VIEW_LIMIT characters, before they are built.
    "Instance.from_masks views": (lambda: Instance.from_masks(COMMITTEE_LIMIT, [0] * 500), SizeLimitError),
    # A collection holding such an integer is named by its type.
    "Committee member list": (lambda: Committee([[HUGE]]), ValidationError),
    "Table pair list": (lambda: Table([HUGE]), ValidationError),
    "gen_approval_gap r": (lambda: gen_approval_gap(10, 10, "1/2", HUGE), ValidationError),
    "gen_weight_gap f": (lambda: gen_weight_gap(Constant(), Fraction(1, HUGE), "1/2", 10), SizeLimitError),
    "enumerate_voter_multisets budget": (
        lambda: enumerate_voter_multisets(2, 2, budget=-HUGE),
        ValidationError,
    ),
    "run_suite hypergeom m_max": (lambda: run_suite("hypergeom", m_max=HUGE), SizeLimitError),
    "run_suite hypergeom budget": (lambda: run_suite("hypergeom", budget=HUGE), SizeLimitError),
    "run_suite pvc n_max": (lambda: run_suite("pvc", n_max=HUGE), SizeLimitError),
    "parse_family": (lambda: parse_family(HUGE), ValidationError),
    "eval_weight family": (lambda: eval_weight(HUGE, "1/2"), ValidationError),
    "AuditCurve value list": (lambda: AuditCurve([(Fraction(1, 2), [HUGE])]), ValidationError),
    "run_generator name": (lambda: run_generator(HUGE, {}), ValidationError),
    "run_suite name": (lambda: run_suite(HUGE), ValidationError),
    "as_frac string": (lambda: as_frac(LONG), ValidationError),
    "Threshold string": (lambda: Threshold(LONG), ValidationError),
    "parse_family string": (lambda: parse_family(LONG), ValidationError),
    "parse_family power string": (lambda: parse_family("power:" + LONG), ValidationError),
    "run_suite name string": (lambda: run_suite(LONG), ValidationError),
    "run_generator name string": (lambda: run_generator(LONG, {}), ValidationError),
    # A collection whose text runs over NUMERAL_LIMIT characters is named by its type and that length.
    "Table string list": (lambda: Table([LONG]), ValidationError),
    "AuditCurve string list": (lambda: AuditCurve([LONG]), ValidationError),
    "Table repeated string list": (lambda: Table([LONG] * 50), ValidationError),
}


@pytest.mark.parametrize("site", HUGE_SITES)
def test_an_integer_too_long_to_print_is_worded_by_its_size(site):
    call, error = HUGE_SITES[site]
    start = time.perf_counter()
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert time.perf_counter() - start < 1
    message = str(excinfo.value)
    assert type(excinfo.value) is error
    assert len(message) < 200 and re.search(r"\d+ bits|\d+-bit|too long to print|\d+ characters", message), message


def test_a_long_string_in_a_list_is_not_printed_to_be_capped():
    # 50 references to one 1 MB string: the text is given up past NUMERAL_LIMIT characters.
    value = [LONG] * 50
    tracemalloc.start()
    try:
        message = shown(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == f"a list printed in over {NUMERAL_LIMIT} characters"
    assert peak < 100_000


RECURSIVE_LIST: list = [1]
RECURSIVE_LIST.append(RECURSIVE_LIST)
RECURSIVE_DICT: dict = {"a": ("b",)}
RECURSIVE_DICT["self"] = [RECURSIVE_DICT]


@pytest.mark.parametrize(
    "value",
    [
        (), (1,), (1, "2"), [], {}, set(), frozenset(), {3}, frozenset({1, 2}), {1: (2,), "k": None},
        ["it's", "\n\x00\u00e9\U0001f600", b"x", Fraction(1, 3), 10**40, 1.5, True],
        [("x" * (NUMERAL_LIMIT - 7),)],  # exactly NUMERAL_LIMIT characters
        RECURSIVE_LIST, RECURSIVE_DICT, (RECURSIVE_LIST, [RECURSIVE_DICT]),
    ],
)
def test_a_container_whose_text_fits_is_shown_as_repr_prints_it(value):
    assert shown(value) == shown(value, str) == repr(value)


def test_a_container_one_character_over_is_worded_by_its_type():
    assert shown([("x" * (NUMERAL_LIMIT - 6),)]) == f"a list printed in over {NUMERAL_LIMIT} characters"


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "build, message",
    [
        (Table, "table must hold (flexibility, weight) pairs, got a list nested too deep to print"),
        (Committee, "candidate index must be a nonnegative integer, got a list nested too deep to print"),
        (AuditCurve, "curve must hold (s, value) pairs, got a list nested too deep to print"),
    ],
)
def test_a_list_nested_past_the_recursion_limit_is_worded_by_its_type(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build(_nested(3000))
    assert type(excinfo.value) is ValidationError
    assert str(excinfo.value) == message
    assert shown(_nested(100)) == repr(_nested(100))  # a nesting that fits is printed as before
