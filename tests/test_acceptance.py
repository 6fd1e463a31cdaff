"""Acceptance gate: one test per criterion, each at its pinned exact tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Everything compares exact rationals; the only tolerances are the
two stated decimal margins (0.05 for the adversarial gap demonstrations,
0.01 for the characterization search), handled as exact fractions.
"""

import random
from fractions import Fraction
from itertools import combinations, count
from math import comb

from fvr.core import (
    Committee,
    Constant,
    Optimal,
    Power,
    RankedProfile,
    Table,
    Threshold,
)
from fvr.hypergeom import multiwinner_bound
from fvr.multi_winner import empirical_fvr_committee, jr_check
from fvr.oracles import (
    gen_approval_gap,
    gen_jr_hard,
    gen_party_split,
    gen_power_gap,
    gen_weight_gap,
    strong_pvc,
)
from fvr.single_winner import (
    closed_form_fvr,
    empirical_fvr_point,
    is_optimal_weight_table,
    winner,
)
from fvr.verify import run_suite

F = Fraction
HALF = F(1, 2)


def _report(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


# -------------------------------------------------------------------------
# 1. Closed-form guarantee values, exact at every hundredth.
# -------------------------------------------------------------------------


def test_criterion_1_closed_forms_exact():
    for i in range(1, 100):
        s = F(i, 100)
        assert closed_form_fvr(Constant(), s) == 1 / (1 + s)
        for p in (1, 2, 3):
            expected = 1 / (1 + (s * (1 + p)) ** (1 + p) / F(p**p))
            assert closed_form_fvr(Power(p), s) == expected
        assert closed_form_fvr(Optimal(1), s) == 1 - s
        assert closed_form_fvr(Threshold(s), s) == 1 - s
    # tangency points where a power curve touches the optimal line exactly
    assert closed_form_fvr(Power(1), HALF) == HALF
    assert closed_form_fvr(Power(2), F(2, 3)) == F(1, 3)
    # and strictly above it elsewhere
    assert closed_form_fvr(Power(1), F(1, 4)) > F(3, 4)
    assert closed_form_fvr(Power(2), HALF) > HALF
    _report(1, "closed forms exact on the hundredths grid")


# -------------------------------------------------------------------------
# 2. Exhaustive single-winner guarantees, n <= 4, m <= 4, zero violations.
#
# The sweeps enumerate one representative per profile-up-to-voter-order:
# winners and audit counts are invariant under permuting voters, so this
# covers every ordered profile.
# -------------------------------------------------------------------------


def test_criterion_2_exhaustive_single_winner_guarantees():
    totals = 0
    for suite in ("threshold", "approval", "power", "opt"):
        result = run_suite(suite, n_max=4, m_max=4)
        assert result.violations == (), result.violations[:3]
        totals += result.checked
    assert totals > 90_000
    _report(2, f"single-winner guarantees, {totals} audits, zero violations")


# -------------------------------------------------------------------------
# 3. Adversarial tightness at the stated 0.05 margin.
# -------------------------------------------------------------------------


def test_criterion_3_approval_gap_pinned_parameters():
    """Pinned parameters (n=1200, m=200, s=1/2, r=329/494), as stated.

    Known infeasible: ceil(r*n) = 800 bloc voters spread 800*100 = 80000
    approvals over 199 candidates, so some spread candidate collects
    ceil(80000/199) = 403 approvals while the special candidate gets only
    the remaining 400 bullet votes.  The approval winner is therefore a
    spread candidate whose audit is about 1/3, not 2/3.  The construction
    demonstrably works at the same scale for any bloc of at most 798
    voters (see the companion test below); at 800 it cannot.
    """
    inst, special = gen_approval_gap(1200, 200, HALF, F(329, 494))
    chosen = winner(inst, Constant())
    audit = empirical_fvr_point(inst, chosen, HALF)
    assert abs(audit - F(2, 3)) <= F(1, 20) and audit > HALF, (
        f"approval winner is candidate {chosen} (special was {special}) with audit "
        f"{audit} ~= {float(audit):.4f}; the special candidate's 400 approvals lose "
        f"to the best spread candidate's 403, so the intended gap does not appear"
    )
    _report(3, "approval gap at pinned parameters")


def test_criterion_3_approval_gap_feasible_parameters():
    # same sizes, bloc share 798/1200: the special candidate ties the best
    # spread candidate at 402 approvals and wins on the index tie-break
    inst, special = gen_approval_gap(1200, 200, HALF, F(133, 200))
    chosen = winner(inst, Constant())
    assert chosen == special
    audit = empirical_fvr_point(inst, chosen, HALF)
    assert audit == F(798, 1200)
    assert abs(audit - F(2, 3)) <= F(1, 20)
    assert audit > 1 - HALF
    # README "Examples": the opt winner's audit on the same instance is 33/100
    opt_winner = winner(inst, Optimal())
    assert empirical_fvr_point(inst, opt_winner, HALF) == F(33, 100)
    _report(3, "approval gap demonstrated at feasible parameters")


def test_criterion_3_power_gap():
    inst, special = gen_power_gap(400, 40, HALF, F(19, 40), 1)
    chosen = winner(inst, Power(1))
    assert chosen == special
    audit = empirical_fvr_point(inst, chosen, HALF)
    bound = closed_form_fvr(Power(1), HALF)
    assert bound == HALF
    assert abs(audit - bound) <= F(1, 20)
    _report(3, "single-power gap within 0.05 of its guarantee")


def test_criterion_3_weight_gap():
    table = Table({F(1, 4): 1, HALF: 1})
    inst, special = gen_weight_gap(table, F(1, 4), HALF, 200)
    chosen = winner(inst, table)
    assert chosen == special
    audit = empirical_fvr_point(inst, chosen, HALF)
    gap_target = (F(3, 4) * 1) / (F(3, 4) * 1 + HALF * 1)
    assert gap_target == F(3, 5)
    assert abs(audit - gap_target) <= F(1, 20)
    _report(3, "general-weight gap within 0.05 of its target ratio")


# -------------------------------------------------------------------------
# 4. Hypergeometric exactness against subset enumeration.
# -------------------------------------------------------------------------


def test_criterion_4_hypergeometric_exactness():
    result = run_suite("hypergeom", m_max=8, budget=200, seed=7)
    assert result.violations == (), result.violations[:3]
    assert result.checked > 10_000
    _report(4, f"hypergeometric exactness, {result.checked} checks")


# -------------------------------------------------------------------------
# 5. Multi-winner guarantees: penalty cap, greedy monotonicity, audits.
# -------------------------------------------------------------------------


def test_criterion_5_multiwinner_guarantees():
    result = run_suite("multiwinner", n_max=3, m_max=5)
    assert result.violations == (), result.violations[:3]
    assert result.checked > 500_000
    _report(5, f"multi-winner guarantees, {result.checked} checks, zero violations")


# -------------------------------------------------------------------------
# 6. Reduction: single-seat committee rules equal the optimal scoring rule.
# -------------------------------------------------------------------------


def test_criterion_6_single_seat_reduction():
    result = run_suite("reduction", n_max=4, m_max=4)
    assert result.violations == (), result.violations[:3]
    assert result.checked > 10_000
    _report(6, f"single-seat reduction, {result.checked} comparisons")


# -------------------------------------------------------------------------
# 7. Impossibility demonstrations, exact comparisons.
# -------------------------------------------------------------------------


def test_criterion_7_impossibility_demonstrations():
    # no rule can serve full-slate approval and per-seat coverage at once
    for k in (2, 3):
        inst = gen_party_split(k)
        m = 2 * k
        slates = [
            members
            for members in combinations(range(m), k)
            if any(len(A.intersection(members)) >= k for A in inst.approvals)
        ]
        assert slates == [tuple(range(k)), tuple(range(k, 2 * k))]
        bound = multiwinner_bound(m, HALF, k, 1)
        assert bound == F(1, comb(2 * k, k))
        for members in slates:
            audit = empirical_fvr_committee(inst, Committee(members), HALF, 1)
            assert audit == HALF > bound

    # justified representation forces audits above the attainable bound
    for k in (2, 3):
        m = next(candidate for candidate in count(k + 1) if comb(candidate, k) > k * candidate)
        assert m == 6
        inst = gen_jr_hard(m, k)
        s = F(m - k, m)
        bound = multiwinner_bound(m, s, k, 1)
        assert bound == F(1, comb(m, k))
        floor_share = F(1, k * m)
        assert floor_share > bound
        passing = [
            members
            for members in combinations(range(m), k)
            if jr_check(inst, Committee(members)).satisfied
        ]
        assert passing, "justified representation must be satisfiable here"
        for members in passing:
            audit = empirical_fvr_committee(inst, Committee(members), s, 1)
            assert audit >= floor_share
    _report(7, "party-split and representation impossibilities")


# -------------------------------------------------------------------------
# 8. Strong proportional veto core against the subset oracle.
# -------------------------------------------------------------------------


def test_criterion_8_veto_core():
    two_voters = RankedProfile(3, [(0, 1, 2), (2, 1, 0)])
    assert strong_pvc(two_voters) == frozenset()
    result = run_suite("pvc", n_max=4, m_max=4, budget=2000, seed=0)
    assert result.violations == (), result.violations[:3]
    assert result.checked > 5_000
    _report(8, f"veto core vs subset oracle, {result.checked} profiles")


# -------------------------------------------------------------------------
# 9. Characterization: only the 1/(1-f) scale family resists the
#    general-weight adversarial search.
# -------------------------------------------------------------------------

KEY_POOL = sorted({F(a, b) for b in range(2, 7) for a in range(1, b)})
SEARCH_N = 600
MARGIN = F(1, 100)


def _random_table(rng: random.Random, optimal: bool) -> Table:
    keys = rng.sample(KEY_POOL, 3)
    c = F(rng.randint(1, 5), rng.randint(1, 3))
    entries = {f: c / (1 - f) for f in keys}
    if not optimal:
        victim = rng.choice(keys)
        if rng.random() < 0.25:
            entries[victim] = F(0)
        else:
            entries[victim] *= rng.choice([F(2), F(3), F(1, 2), F(1, 3)])
    return Table(entries)


def _search_violation(table: Table):
    """Try every ordered key pair, largest predicted gap first; return the
    first (f, f') whose generated instance audits above 1 - f' + MARGIN."""
    keys = [f for f, _ in table.entries]
    weights = dict(table.entries)
    pairs = []
    for f in keys:
        if weights[f] == 0:
            continue
        a = (1 - f) * weights[f]
        for fp in keys:
            if fp == f:
                continue
            g = a / (a + fp * weights[fp])
            pairs.append((g - (1 - fp), f, fp))
    pairs.sort(reverse=True)
    for _, f, fp in pairs:
        inst, _special = gen_weight_gap(table, f, fp, SEARCH_N)
        audit = empirical_fvr_point(inst, winner(inst, table), fp)
        if audit > 1 - fp + MARGIN:
            return f, fp
    return None


def test_criterion_9_characterization_search():
    rng = random.Random(90125)
    failing = [_random_table(rng, optimal=False) for _ in range(50)]
    passing = [_random_table(rng, optimal=True) for _ in range(50)]
    for table in failing:
        assert not is_optimal_weight_table(table)
        found = _search_violation(table)
        assert found is not None, f"no violating pair found for {table}"
    for table in passing:
        assert is_optimal_weight_table(table)
        assert _search_violation(table) is None, f"false violation for {table}"
    _report(9, "characterization search separates the optimal family")
