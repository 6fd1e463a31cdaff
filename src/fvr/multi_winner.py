"""Committee selection rules, committee audits, and the justified-representation check.

Two rules achieve the hypergeometric optimum for a fixed approval target t:
an expansion that reruns the optimal single-winner rule over all k-subsets,
and a greedy sequential rule that derandomizes the same averaging argument
one seat at a time in polynomial time.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import (
    AuditCurve,
    Committee,
    Frac,
    Instance,
    SizeLimitError,
    ValidationError,
    comb_over,
    encode_row,
    index_in,
    int_at_least,
    open_unit,
    record,
    select,
)
from .hypergeom import miss_prob
from .single_winner import argmax, common_units, group_audit, group_audit_curve, weighted_counts

__all__ = [
    "COMMITTEE_LIMIT",
    "MultiParams",
    "ExpandedInstance",
    "t_approves",
    "expand_instance",
    "expanded_rule",
    "committee_score",
    "sequential_picks",
    "sequential_rule",
    "empirical_fvr_committee",
    "empirical_fvr_committee_curve",
    "JrResult",
    "jr_check",
    "brute_best_committee",
]

# Cap on how many committees an exhaustive construction may touch, and on
# how many voters a generator may build.
COMMITTEE_LIMIT = 200_000


@record
class MultiParams:
    """Committee size k and per-voter approval target t (1 <= t <= k)."""

    k: int
    t: int

    def __post_init__(self) -> None:
        for name, v in (("k", self.k), ("t", self.t)):
            int_at_least(v, name, 1)
        if self.t > self.k:
            raise ValidationError(f"approval target t={self.t} exceeds committee size k={self.k}")


def _check_k(inst: Instance, k: int) -> None:
    if k >= inst.m:
        raise ValidationError(f"committee size k={k} must be below m={inst.m}")


def _check_committee(inst: Instance, committee: Committee, t: int) -> frozenset[int]:
    members = frozenset(committee.members)
    if not members:
        raise ValidationError("committee is empty")
    for a in members:
        index_in(a, inst.m, "committee member")
    if int_at_least(t, "t", 1) > len(members):
        raise ValidationError(f"need 1 <= t <= {len(members)}, got t={t}")
    return members


def t_approves(inst: Instance, i: int, committee: Committee, t: int) -> bool:
    """Whether voter ``i`` approves at least ``t`` members of the committee."""
    members = _check_committee(inst, committee, t)
    approved = inst.masks[index_in(i, inst.n, "voter")]
    return (approved & encode_row(members, inst.m)).bit_count() >= t


@record
class ExpandedInstance:
    """A single-winner instance whose candidates are all k-committees.

    ``committees`` lists the k-subsets in lexicographic order; voter i
    approves committee-candidate j exactly when she t-approves
    ``committees[j]`` in the base instance.
    """

    base: Instance
    params: MultiParams
    committees: tuple[tuple[int, ...], ...]
    expanded: Instance


def _check_expansion(inst: Instance, params: MultiParams) -> int:
    """The number of k-committees, once k < m and the count is within ``COMMITTEE_LIMIT``."""
    _check_k(inst, params.k)
    if comb_over(inst.m, params.k, COMMITTEE_LIMIT):
        raise SizeLimitError(
            f"expansion needs more than {COMMITTEE_LIMIT} committee-candidates; "
            "use sequential_rule instead"
        )
    return comb(inst.m, params.k)


def expand_instance(inst: Instance, params: MultiParams) -> ExpandedInstance:
    """Build the committee-as-candidate instance for (k, t).

    This is the explicit construction: one row entry per (voter, committee
    she t-approves).  :func:`expanded_rule` picks the same committee without
    building it, and ``fvr.oracles.reference_expanded_rule`` runs the
    optimal single-winner rule on it as the reference.
    """
    total = _check_expansion(inst, params)
    committees = tuple(combinations(range(inst.m), params.k))
    rows = []
    for approved in inst.approvals:
        rows.append(
            frozenset(
                j
                for j, members in enumerate(committees)
                if len(approved.intersection(members)) >= params.t
            )
        )
    expanded = Instance(total, tuple(rows))
    return ExpandedInstance(base=inst, params=params, committees=committees, expanded=expanded)


def _reaching(columns: Sequence[int], members: Collection[int], t: int) -> int:
    """The voters approving at least ``t`` of ``members``, as a voter bitset.

    A bit-sliced counter: ``at_least[c]`` holds the voters approving at
    least c of the members seen so far (``at_least[0]`` is -1, every bit
    set), so each member costs t ANDs and ORs of n-bit ints.
    """
    at_least = [-1] + [0] * t
    for a in members:
        approved_a = columns[a]
        for c in range(t, 0, -1):
            at_least[c] |= at_least[c - 1] & approved_a
    return at_least[t]


def _penalty(inst: Instance, k: int, t: int) -> tuple[list[tuple[int, int, int]], int]:
    """The committee penalty for (k, t) as int units over one scale.

    A voter approving ``size`` candidates who is left below t on a
    k-committee costs 1/miss_prob(m, size, k, t), the reciprocal of the
    probability that a uniformly random k-committee leaves her below t, so
    a random committee costs n in expectation.  For each approval size
    present whose miss probability p/q is positive, the table holds
    ``(size, voters, unit)``: the voters of that size as a bitset, and
    unit = q*(scale/p), so each of them costs exactly unit/scale.  Voters
    with miss probability 0 reach t on every committee: their cost is
    undefined, and no committee leaves them short.
    """
    classes, ratios = [], []
    for size, voters in inst.size_masks.items():
        miss = miss_prob(inst.m, size, k, t)
        if miss:
            classes.append((size, voters))
            ratios.append((miss.denominator, miss.numerator))
    units, scale = common_units(ratios)
    return [(size, voters, unit) for (size, voters), unit in zip(classes, units)], scale


def _charge(table: list[tuple[int, int, int]], short: int) -> int:
    """The penalty times the table's scale of a committee leaving ``short`` below t.

    ``short`` is a voter bitset, or the complement ``~reached`` of the
    voters reaching t, as it is only ANDed with each size's voters.
    """
    return sum(unit * (short & voters).bit_count() for _, voters, unit in table)


def _short_voters(inst: Instance, committee: Committee, t: int) -> tuple[int, int]:
    """The committee's size k and its voters below t (as for :func:`_charge`), once it is valid."""
    members = _check_committee(inst, committee, t)
    return len(members), ~_reaching(inst.columns, members, t)


def expanded_rule(inst: Instance, params: MultiParams) -> Committee:
    """The optimal single-winner rule's winner over all k-committees.

    In the expanded instance (:func:`expand_instance`) a voter's flexibility
    is the share of committees she t-approves, so her 1/(1-f) weight is
    1/miss_prob, the cost :func:`_penalty` charges when she is left short.
    A committee's score there is the total weight minus its penalty, so the
    winner is the lowest-index (lexicographic) committee of least penalty,
    the one minimising :func:`committee_score`.  Voters with miss
    probability 1 are short on every committee and add the same constant
    to each, as voters approving no committee add nothing to any score.

    The expansion is never built.  Per committee, the bit-sliced counter
    :func:`_reaching` finds the voters approving at least t members among
    the instance's cached voter bitsets, and :func:`_charge` sums the int
    penalty of the rest.  Cost: O(C(m,k) * (k*t + sizes)) big-int
    operations on n-bit ints.
    """
    _check_expansion(inst, params)
    k, t = params.k, params.t
    table, _ = _penalty(inst, k, t)
    columns = inst.columns
    return Committee(
        min(
            combinations(range(inst.m), k),
            key=lambda members: _charge(table, ~_reaching(columns, members, t)),
        )
    )


def committee_score(inst: Instance, committee: Committee, t: int) -> Frac:
    """Penalty of a committee: the summed cost (:func:`_penalty`) of the
    voters it leaves below their approval target t, as one Fraction.

    A random committee scores n in expectation, so any committee scoring at
    most n meets the hypergeometric guarantee.
    """
    k, short = _short_voters(inst, committee, t)
    table, scale = _penalty(inst, k, t)
    return Fraction(_charge(table, short), scale)


def sequential_picks(inst: Instance, params: MultiParams) -> tuple[int, ...]:
    """Greedy seat-by-seat committee construction, in pick order.

    At each step every voter gets a weight equal to the probability that a
    random completion of the current partial committee would put her
    exactly one approved member short of her target, normalized by her
    overall probability of missing the target; the candidate with the
    largest weighted approval joins (lowest index on ties).  The returned
    order is what the step-by-step averaging argument reasons about;
    :func:`sequential_rule` wraps it as a committee.

    The weight depends only on a voter's class (approval size, overlap with
    the picks so far), so it is evaluated once per class, and each class is
    a voter bitset whose approvals are counted by popcount
    (:func:`weighted_counts`).  At pick j, for a voter with r approved
    candidates left who needs x = t-1-overlap more of them besides the next
    pick, the weight is C(r-1, x) * C(m-j-r, k-j-x) / C(m-j-1, k-j) divided
    by her miss probability.  The denominator is the same for every class
    and the reciprocal miss probabilities are the int units of
    :func:`_penalty`, so C(r-1, x) * C(m-j-r, k-j-x) * unit is an int weight
    with the same argmax.  After each pick, a class's voters who approve it
    (its bitset AND the pick's column) move up one overlap.
    """
    _check_k(inst, params.k)
    m, k, t = inst.m, params.k, params.t
    columns = inst.columns
    table, _ = _penalty(inst, k, t)
    unit = {size: u for size, _, u in table}
    # Only voters who approve someone and can miss the target ever carry weight.
    classes = {(size, 0): voters for size, voters, _ in table if size}
    chosen: list[int] = []
    for j in range(1, k + 1):
        weighted = []
        for (size, overlap), voters in classes.items():
            remaining = size - overlap
            needed = t - 1 - overlap
            if remaining > m - j:
                # She approves every candidate still available, so her weight
                # would raise all of them equally; the argmax cannot move.
                continue
            if needed > k - j:
                continue  # too few seats left to reach the target: weight 0
            # Defined by construction: 1 <= remaining <= m - j, 0 <= needed <= k - j.
            weight = comb(remaining - 1, needed) * comb(m - j - remaining, k - j - needed)
            weighted.append((weight * unit[size], voters))
        best = argmax(weighted_counts(columns, weighted), skip=chosen)
        chosen.append(best)
        if j < k:
            # Voters approving ``best`` move up one overlap.  Those who then
            # reach the target, or have no approved candidate left, weigh 0
            # at every later pick and are dropped.
            regrouped: dict[tuple[int, int], int] = {}
            for (size, overlap), voters in classes.items():
                moved = voters & columns[best]
                if voters != moved:
                    key = (size, overlap)
                    regrouped[key] = regrouped.get(key, 0) | (voters ^ moved)
                if moved and overlap + 1 < min(t, size):
                    key = (size, overlap + 1)
                    regrouped[key] = regrouped.get(key, 0) | moved
            classes = regrouped
    return tuple(chosen)


def sequential_rule(inst: Instance, params: MultiParams) -> Committee:
    """The committee built by :func:`sequential_picks`; always scores at most n."""
    return Committee(sequential_picks(inst, params))


def empirical_fvr_committee(inst: Instance, committee: Committee, s: object, t: int) -> Frac:
    """Share of voters that are s-flexible yet approve fewer than ``t`` members."""
    sv = open_unit(s)
    return group_audit(inst, _short_voters(inst, committee, t)[1], sv)


def empirical_fvr_committee_curve(inst: Instance, committee: Committee, t: int) -> AuditCurve:
    """The committee audit as a step function of the threshold s.

    Equals :func:`empirical_fvr_committee` at every s.
    """
    return group_audit_curve(inst, _short_voters(inst, committee, t)[1])


@record
class JrResult:
    """Outcome of a justified-representation check, with a witness on failure.

    On failure, ``blocking_candidate`` is the lowest-index commonly approved
    candidate of a large, fully unrepresented voter group, and
    ``blocking_voters`` lists that group.
    """

    satisfied: bool
    blocking_candidate: int | None = None
    blocking_voters: tuple[int, ...] = ()


def jr_check(inst: Instance, committee: Committee) -> JrResult:
    """Justified representation: no n/k-sized group sharing an approved
    candidate may end up with zero approved committee members.

    The n/k comparison is exact (no integer division).
    """
    members = _check_committee(inst, committee, 1)
    k, n = len(members), inst.n
    unrepresented = ~_reaching(inst.columns, members, 1)
    for c, approvers in enumerate(inst.columns):
        group = approvers & unrepresented
        if group.bit_count() * k >= n:
            voters = tuple(select(range(n), group))
            return JrResult(satisfied=False, blocking_candidate=c, blocking_voters=voters)
    return JrResult(satisfied=True)


def brute_best_committee(inst: Instance, params: MultiParams, s: object) -> Committee:
    """Exhaustively pick the committee t-approved by the most s-flexible voters.

    Lexicographic tie-break.  This is the threshold-tailored rule whose
    audit meets the hypergeometric bound exactly.
    """
    sv = open_unit(s)
    _check_expansion(inst, params)
    threshold_size = sv * inst.m
    flexible = [A for A in inst.approvals if len(A) >= threshold_size]
    best: tuple[int, ...] | None = None
    best_count = -1
    for members in combinations(range(inst.m), params.k):
        mset = frozenset(members)
        count = sum(1 for A in flexible if len(A & mset) >= params.t)
        if count > best_count:
            best, best_count = members, count
    assert best is not None
    return Committee(best)
