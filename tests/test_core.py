"""Core types: exact arithmetic, instance validation, weight families."""

import ast
import re
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fvr
from fvr.core import (
    NUMERAL_LIMIT,
    AuditCurve,
    Committee,
    Constant,
    Instance,
    Optimal,
    Power,
    SizeLimitError,
    Table,
    Threshold,
    ValidationError,
    as_frac,
    build_instance,
    build_ranked_profile,
    comb_over,
    eval_weight,
    flexibility,
    flexibility_grid,
)
from fvr.hypergeom import HypParams
from fvr.multi_winner import (
    MultiParams,
    committee_score,
    empirical_fvr_committee,
    expand_instance,
    jr_check,
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
    run_generator,
)
from fvr.single_winner import (
    closed_form_fvr,
    empirical_fvr_curve,
    empirical_fvr_point,
    grid_theoretical_fvr,
    score_all,
)
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


WEIGHT_TABLE = Table({Fraction(1, 4): 1, Fraction(1, 2): 1})

# Every integer input, with a value just below its bound (seeds take any int,
# so theirs is a non-int).  Each also refuses a bool and a Fraction, which is
# what ``fvr gen --param L=1/2`` passes.  Each goes through core.int_at_least,
# or core.index_in for an index, so each raises a "must be ... integer" message.
INTEGER_SITES = {
    "build_instance m": (lambda x: build_instance(x, [set()]), 0),
    "build_instance index": (lambda x: build_instance(3, [{x}]), -1),
    "build_ranked_profile m": (lambda x: build_ranked_profile(x, [[0]]), 0),
    "Power": (Power, 0),
    "Committee": (lambda x: Committee((x,)), -1),
    "MultiParams k": (lambda x: MultiParams(x, 1), 0),
    "MultiParams t": (lambda x: MultiParams(2, x), 0),
    "committee_score t": (lambda x: committee_score(INTRO, Committee((1, 2)), x), 0),
    "HypParams population": (lambda x: HypParams(x, 0, 0), -1),
    "HypParams successes": (lambda x: HypParams(3, x, 0), -1),
    "HypParams draws": (lambda x: HypParams(3, 0, x), -1),
    "grid_theoretical_fvr": (lambda x: grid_theoretical_fvr(Constant(), Fraction(1, 2), x), 1),
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
    "conditional_expected_score": (
        lambda x: conditional_expected_score(INTRO, MultiParams(1, 1), (x,)),
        -1,
    ),
    "run_suite jobs": (lambda x: run_suite("opt", jobs=x), 0),
    "run_suite n_max": (lambda x: run_suite("opt", n_max=x), 0),
    "run_suite m_max": (lambda x: run_suite("opt", m_max=x), 0),
    "run_suite budget": (lambda x: run_suite("opt", budget=x), 0),
    "run_suite seed": (lambda x: run_suite("pvc", seed=x), "x"),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("bad", ["bool", "fraction", "below"])
def test_integer_inputs_reject_bools_and_values_below_their_bound(site, bad):
    call, below = INTEGER_SITES[site]
    value = {"bool": True, "fraction": Fraction(1, 2), "below": below}[bad]
    message = rf"must be (a nonnegative|a positive|an) integer.*, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_seeds_take_any_int():
    assert gen_random_instance(2, 3, -5).n == 2
    assert run_suite("pvc", n_max=2, m_max=2, seed=-5).passed


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


# Every size input, with a value far above its budget.  Each is refused at the
# call with SizeLimitError, before anything of that size is built, and its
# message prints no count built from the sizes (such a count may be too long
# to print).
OVERSIZED_SITES = {
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
