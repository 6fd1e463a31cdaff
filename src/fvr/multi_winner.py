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
    COMMITTEE_LIMIT,
    AuditCurve,
    Committee,
    Frac,
    Instance,
    MultiParams,
    SizeLimitError,
    ValidationError,
    comb_over,
    flexible_size,
    index_in,
    of_type,
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


def _check_committee(inst: Instance, committee: Committee, t: int) -> tuple[int, ...]:
    """The committee's members, once ``inst`` is an :class:`Instance`, the committee a
    nonempty :class:`Committee` whose largest member is a candidate of ``inst``, and
    1 <= t <= its size;
    :class:`Committee` keeps them sorted, distinct and nonnegative."""
    of_type(inst, Instance, "instance")
    members = of_type(committee, Committee, "committee").members
    if not members:
        raise ValidationError("committee is empty")
    index_in(members[-1], inst.m, "committee member")
    if not (type(t) is int and 1 <= t <= len(members)):
        MultiParams(len(members), t)  # words the failure
    return members


def _check_params(inst: Instance, params: MultiParams) -> MultiParams:
    """``params``, once ``inst`` is an :class:`Instance` and ``params`` a :class:`MultiParams`
    with k below ``inst.m``."""
    of_type(inst, Instance, "instance")
    return of_type(params, MultiParams, "params").below(inst.m)


def t_approves(inst: Instance, i: int, committee: Committee, t: int) -> bool:
    """Whether voter ``i`` approves at least ``t`` members of the committee: her bit
    in :func:`_reaching`'s counter, as every committee rule reads it."""
    members = _check_committee(inst, committee, t)
    return bool(_reaching(inst.columns, members, t) >> index_in(i, inst.n, "voter") & 1)


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
    k = _check_params(inst, params).k
    if comb_over(inst.m, k, COMMITTEE_LIMIT):
        raise SizeLimitError(
            f"expansion needs more than {COMMITTEE_LIMIT} committee-candidates; "
            "use sequential_rule instead"
        )
    return comb(inst.m, k)


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


def _advance(at_least: list[int], approvers: int) -> None:
    """One step of the bit-sliced counter ``at_least``, where ``at_least[c]`` holds
    the voters approving at least c of the members counted so far (``at_least[0]``
    is -1, every bit set): count one more member, approved by ``approvers``."""
    for c in range(len(at_least) - 1, 0, -1):
        at_least[c] |= at_least[c - 1] & approvers


def _reaching(columns: Sequence[int], members: Collection[int], t: int) -> int:
    """The voters approving at least ``t`` of ``members``, as a voter bitset:
    the counter up to t after one :func:`_advance` per member."""
    at_least = [-1] + [0] * t
    for a in members:
        _advance(at_least, columns[a])
    return at_least[t]


def _penalty(inst: Instance, k: int, t: int) -> tuple[list[int], list[tuple[int, int]], int]:
    """The committee penalty for (k, t) as int units over one scale.

    A voter approving ``size`` candidates who is left below t on a
    k-committee costs 1/miss_prob(m, size, k, t), the reciprocal of the
    probability that a uniformly random k-committee leaves her below t, so
    a random committee costs n in expectation.  For each approval size
    present whose miss probability p/q is positive, ``sizes`` holds the size
    and ``classes`` the pair ``(unit, voters)``, as :func:`weighted_counts`
    reads it: the voters of that size as a bitset, and unit = q*(scale/p),
    so each of them costs exactly unit/scale.  Voters with miss probability
    0 reach t on every committee: their cost is undefined, and no committee
    leaves them short.
    """
    sizes, ratios = [], []
    for size in inst.size_masks:
        miss = miss_prob(inst.m, size, k, t)
        if miss:
            sizes.append(size)
            ratios.append((miss.denominator, miss.numerator))
    units, scale = common_units(ratios)
    return sizes, list(zip(units, map(inst.size_masks.__getitem__, sizes))), scale


def _short_voters(inst: Instance, committee: Committee, t: int) -> tuple[int, int]:
    """The committee's size k and its voters below t, as the complement ``~reached``
    of the voters reaching t (a voter set for :func:`weighted_counts`), once it is valid."""
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
    the instance's voter bitsets, and :func:`weighted_counts` sums the int
    penalty of the rest over :func:`_penalty`'s classes.  Cost:
    O(C(m,k) * (k*t + sizes)) big-int operations on n-bit ints.
    """
    _check_expansion(inst, params)
    k, t = params.k, params.t
    _, classes, _ = _penalty(inst, k, t)
    columns = inst.columns
    return Committee(
        min(
            combinations(range(inst.m), k),
            key=lambda members: weighted_counts((~_reaching(columns, members, t),), classes)[0],
        )
    )


def committee_score(inst: Instance, committee: Committee, t: int) -> Frac:
    """Penalty of a committee: the summed cost (:func:`_penalty`) of the
    voters it leaves below their approval target t, as one Fraction.

    A random committee scores n in expectation, so any committee scoring at
    most n meets the hypergeometric guarantee.
    """
    k, short = _short_voters(inst, committee, t)
    _, classes, scale = _penalty(inst, k, t)
    return Fraction(weighted_counts((short,), classes)[0], scale)


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
    (:func:`weighted_counts`).  The picks :func:`_advance` a counter, so the
    voters of overlap o among a size's voters are those in ``at_least[o]``
    and not in ``at_least[o+1]``.  At pick j, for a voter with r approved
    candidates left who needs x = t-1-o more of them besides the next
    pick, the weight is C(r-1, x) * C(m-j-r, k-j-x) / C(m-j-1, k-j) divided
    by her miss probability.  The denominator is the same for every class
    and the reciprocal miss probabilities are the int units of
    :func:`_penalty`, so C(r-1, x) * C(m-j-r, k-j-x) * unit is an int weight
    with the same argmax.
    """
    k, t = _check_params(inst, params).k, params.t
    m, columns = inst.m, inst.columns
    sizes, classes, _ = _penalty(inst, k, t)
    at_least = [-1] + [0] * t
    chosen: list[int] = []
    for j in range(1, k + 1):
        weighted = []
        for size, (unit, voters) in zip(sizes, classes):
            # Voters at the target, or with no approved candidate left, weigh 0.
            for overlap in range(min(t, size, j)):
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
                group = voters & at_least[overlap] & ~at_least[overlap + 1]
                if weight and group:
                    weighted.append((weight * unit, group))
        best = argmax(weighted_counts(columns, weighted), skip=chosen)
        chosen.append(best)
        _advance(at_least, columns[best])
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
    for c, count in enumerate(weighted_counts(inst.columns, [(1, unrepresented)])):
        if count * k >= n:
            voters = tuple(select(range(n), inst.columns[c] & unrepresented))
            return JrResult(satisfied=False, blocking_candidate=c, blocking_voters=voters)
    return JrResult(satisfied=True)


def brute_best_committee(inst: Instance, params: MultiParams, s: object) -> Committee:
    """Exhaustively pick the committee t-approved by the most s-flexible voters.

    Lexicographic tie-break.  This is the threshold-tailored rule whose
    audit meets the hypergeometric bound exactly.
    """
    sv = open_unit(s)
    _check_expansion(inst, params)
    need = flexible_size(sv, inst.m)
    # The size masks are disjoint, so their sum is their union.
    flexible = sum(voters for size, voters in inst.size_masks.items() if size >= need)
    columns, t, classes = inst.columns, params.t, [(1, flexible)]
    return Committee(
        max(
            combinations(range(inst.m), params.k),
            key=lambda members: weighted_counts((_reaching(columns, members, t),), classes)[0],
        )
    )
