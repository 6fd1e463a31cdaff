"""Core types: exact arithmetic, instance validation, weight families."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvr.core import (
    AuditCurve,
    Committee,
    Constant,
    Optimal,
    Power,
    Table,
    Threshold,
    ValidationError,
    as_frac,
    build_instance,
    build_ranked_profile,
    eval_weight,
    flexibility,
    flexibility_grid,
    weight_ratio,
)
from fvr.hypergeom import HypParams
from fvr.multi_winner import MultiParams
from fvr.oracles import conditional_expected_score, gen_jr_hard, gen_party_split
from fvr.single_winner import grid_theoretical_fvr
from fvr.verify import run_suite

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
def test_weight_ratio_is_each_family_at_size_over_m(case, s0, p, c):
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
        num, den = weight_ratio(w, size, m)
        assert den > 0 and Fraction(num, den) == value == eval_weight(w, f)
    with pytest.raises(ValidationError, match=f"no entry for flexibility {f}"):
        weight_ratio(Table({Fraction(1, m + 1): 1}), size, m)


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


def test_committee_normalizes_members():
    c = Committee((3, 0, 3))
    assert c.members == (0, 3)
    assert c.k == 2
    assert 3 in c and 1 not in c


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


# Every integer input, with a value just below its bound; each goes through
# core.int_at_least, so each raises its "must be ... integer" message.
INTEGER_SITES = {
    "build_instance m": (lambda x: build_instance(x, [set()]), 0),
    "build_instance index": (lambda x: build_instance(3, [{x}]), -1),
    "build_ranked_profile m": (lambda x: build_ranked_profile(x, [[0]]), 0),
    "Power": (Power, 0),
    "Committee": (lambda x: Committee((x,)), -1),
    "MultiParams k": (lambda x: MultiParams(x, 1), 0),
    "MultiParams t": (lambda x: MultiParams(2, x), 0),
    "HypParams population": (lambda x: HypParams(x, 0, 0), -1),
    "HypParams successes": (lambda x: HypParams(3, x, 0), -1),
    "HypParams draws": (lambda x: HypParams(3, 0, x), -1),
    "grid_theoretical_fvr": (lambda x: grid_theoretical_fvr(Constant(), Fraction(1, 2), x), 1),
    "gen_party_split k": (gen_party_split, 1),
    "gen_party_split reps": (lambda x: gen_party_split(2, x), 0),
    "gen_jr_hard k": (lambda x: gen_jr_hard(6, x), 1),
    "gen_jr_hard m": (lambda x: gen_jr_hard(x, 2), -1),
    "conditional_expected_score": (
        lambda x: conditional_expected_score(INTRO, MultiParams(1, 1), (x,)),
        -1,
    ),
    "run_suite jobs": (lambda x: run_suite("opt", jobs=x), 0),
    "run_suite n_max": (lambda x: run_suite("opt", n_max=x), 0),
    "run_suite m_max": (lambda x: run_suite("opt", m_max=x), 0),
    "run_suite budget": (lambda x: run_suite("opt", budget=x), 0),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("bad", ["bool", "below"])
def test_integer_inputs_reject_bools_and_values_below_their_bound(site, bad):
    call, below = INTEGER_SITES[site]
    value = True if bad == "bool" else below
    message = rf"must be (a nonnegative|a positive|an) integer.*, got {value!r}$"
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_gen_jr_hard_keeps_its_relational_check():
    with pytest.raises(ValidationError, match="need m > k"):
        gen_jr_hard(2, 2)
