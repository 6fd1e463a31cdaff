"""Committee selection rules, committee audits, and the justified-representation check.

Two rules achieve the hypergeometric optimum for a fixed approval target t:
an expansion that reruns the optimal single-winner rule over all k-subsets,
and a greedy sequential rule that derandomizes the same averaging argument
one seat at a time in polynomial time.
"""

from __future__ import annotations

from collections.abc import Iterable
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
    flexible_size,
    int_at_least,
    open_unit,
    record,
)
from .hypergeom import miss_prob
from .single_winner import argmax, audit_curve, common_units, unit_counts

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
        if a >= inst.m:
            raise ValidationError(f"committee member {a} outside 0..{inst.m - 1}")
    if not 1 <= t <= len(members):
        raise ValidationError(f"need 1 <= t <= {len(members)}, got t={t}")
    return members


def t_approves(inst: Instance, i: int, committee: Committee, t: int) -> bool:
    """Whether voter ``i`` approves at least ``t`` members of the committee."""
    members = _check_committee(inst, committee, t)
    if not 0 <= i < inst.n:
        raise ValidationError(f"no voter {i}: instance has {inst.n} voters")
    return len(inst.approvals[i] & members) >= t


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
    total = comb(inst.m, params.k)
    if total > COMMITTEE_LIMIT:
        raise SizeLimitError(
            f"expansion needs {total} committee-candidates (limit {COMMITTEE_LIMIT}); "
            "use sequential_rule instead"
        )
    return total


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
    # Indices are by construction within range; skip per-index revalidation.
    expanded = Instance(total, tuple(rows))
    return ExpandedInstance(base=inst, params=params, committees=committees, expanded=expanded)


def _bitset(voters: Iterable[int], n: int) -> int:
    """The int whose bit i is set for each listed voter i, built in O(n)."""
    digits = bytearray(b"0") * n
    for i in voters:
        digits[n - 1 - i] = ord("1")
    return int(digits, 2)


def expanded_rule(inst: Instance, params: MultiParams) -> Committee:
    """The optimal single-winner rule's winner over all k-committees.

    In the expanded instance (:func:`expand_instance`) a voter's flexibility
    is the share of committees she t-approves, so her 1/(1-f) weight is
    1/miss_prob, the reciprocal of the probability that a uniformly random
    k-committee leaves her below t.  That is the weight
    :func:`committee_score` charges when she is left short, so the winner is
    the lowest-index (lexicographic) committee minimising
    :func:`committee_score`.

    The expansion is never built.  Each candidate's approvers and each
    approval size's voters are int bitsets; per committee, a bit-sliced
    counter finds the voters approving at least t members, and each size
    class adds its int weight (over one common denominator) per such voter.
    Sizes whose miss probability is 0 or 1 raise every committee equally
    and are skipped, as the single-winner rule skips voters approving all
    or no committees.  Cost: O(C(m,k) * (k*t + sizes)) big-int operations
    on n-bit ints; memory O(m*n) bits.
    """
    _check_expansion(inst, params)
    m, n, k, t = inst.m, inst.n, params.k, params.t
    voters_of: list[list[int]] = [[] for _ in range(m)]
    by_size: dict[int, list[int]] = {}
    for i, approved in enumerate(inst.approvals):
        for a in approved:
            voters_of[a].append(i)
        by_size.setdefault(len(approved), []).append(i)
    approvers = [_bitset(voters, n) for voters in voters_of]
    misses, masks = [], []
    for size, voters in by_size.items():
        miss = miss_prob(m, size, k, t)
        if 0 < miss.numerator < miss.denominator:
            misses.append(miss)
            masks.append(_bitset(voters, n))
    units, _ = common_units([(miss.denominator, miss.numerator) for miss in misses])
    classes = list(zip(units, masks))
    everyone = (1 << n) - 1
    best: tuple[int, ...] = ()
    best_score = -1
    for members in combinations(range(m), k):
        # at_least[c]: voters approving at least c of the members seen so far.
        at_least = [everyone] + [0] * t
        for a in members:
            approved_a = approvers[a]
            for c in range(t, 0, -1):
                at_least[c] |= at_least[c - 1] & approved_a
        reached = at_least[t]
        score = sum(unit * (reached & mask).bit_count() for unit, mask in classes)
        if score > best_score:
            best, best_score = members, score
    return Committee(best)


def committee_score(inst: Instance, committee: Committee, t: int) -> Frac:
    """Penalty of a committee: each voter left below her approval target adds
    the reciprocal of the probability that a uniformly random committee of
    the same size would leave her below it.

    A random committee scores n in expectation, so any committee scoring at
    most n meets the hypergeometric guarantee.  Voters certain to reach the
    target on every committee have reciprocal weight undefined (probability
    0) and are skipped; such voters can never be in the penalized group.
    The probability depends only on the approval size, so it is computed
    once per size of the voters left short; the sizes' reciprocals are
    summed as ints over one denominator, and one Fraction is built.
    """
    members = _check_committee(inst, committee, t)
    k = len(members)
    short: dict[int, int] = {}
    for approved in inst.approvals:
        if len(approved & members) < t:
            size = len(approved)
            short[size] = short.get(size, 0) + 1
    counts, misses = [], []
    for size, count in short.items():
        miss = miss_prob(inst.m, size, k, t)
        if miss:
            counts.append(count)
            misses.append(miss)
    units, scale = common_units([(miss.denominator, miss.numerator) for miss in misses])
    return Fraction(sum(c * u for c, u in zip(counts, units)), scale)


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
    the picks so far), so it is evaluated once per class and each class's
    approvals are counted as plain ints.  At pick j, for a voter with r
    approved candidates left who needs x = t-1-overlap more of them besides
    the next pick, the weight is C(r-1, x) * C(m-j-r, k-j-x) / C(m-j-1, k-j)
    divided by her miss probability.  The denominator is the same for every
    class and the reciprocal miss probabilities are int units over one
    denominator, so C(r-1, x) * C(m-j-r, k-j-x) * unit is an int weight
    with the same argmax.
    """
    _check_k(inst, params.k)
    m, k, t = inst.m, params.k, params.t
    miss = {size: miss_prob(m, size, k, t) for size in {len(A) for A in inst.approvals}}
    # Only voters who approve someone and can miss the target ever carry weight.
    sizes = [size for size, p in miss.items() if size and p]
    units, _ = common_units([(miss[size].denominator, miss[size].numerator) for size in sizes])
    unit = dict(zip(sizes, units))
    classes: dict[tuple[int, int], list[frozenset[int]]] = {}
    for approved in inst.approvals:
        if len(approved) in unit:
            classes.setdefault((len(approved), 0), []).append(approved)
    chosen: list[int] = []
    for j in range(1, k + 1):
        weighted = []
        for (size, overlap), rows in classes.items():
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
            weighted.append((weight * unit[size], rows))
        counts = unit_counts(m, weighted)
        best = argmax(counts, skip=chosen)
        chosen.append(best)
        if j < k:
            classes = _advance(classes, best, t)
    return tuple(chosen)


def _advance(
    classes: dict[tuple[int, int], list[frozenset[int]]], best: int, t: int
) -> dict[tuple[int, int], list[frozenset[int]]]:
    """Regroup voters after ``best`` is picked.

    Voters approving ``best`` move up one overlap.  Those who then reach the
    target, or have no approved candidate left, weigh 0 at every later pick
    and are dropped.
    """
    regrouped: dict[tuple[int, int], list[frozenset[int]]] = {}
    for (size, overlap), rows in classes.items():
        stay = [A for A in rows if best not in A]
        if stay:
            regrouped.setdefault((size, overlap), []).extend(stay)
        if len(stay) < len(rows) and overlap + 1 < min(t, size):
            moved = [A for A in rows if best in A]
            regrouped.setdefault((size, overlap + 1), []).extend(moved)
    return regrouped


def sequential_rule(inst: Instance, params: MultiParams) -> Committee:
    """The committee built by :func:`sequential_picks`; always scores at most n."""
    return Committee(sequential_picks(inst, params))


def empirical_fvr_committee(inst: Instance, committee: Committee, s: object, t: int) -> Frac:
    """Share of voters that are s-flexible yet approve fewer than ``t`` members."""
    sv = open_unit(s)
    members = _check_committee(inst, committee, t)
    need = flexible_size(sv, inst.m)
    hits = sum(
        1 for approved in inst.approvals if len(approved) >= need and len(approved & members) < t
    )
    return Fraction(hits, inst.n)


def empirical_fvr_committee_curve(inst: Instance, committee: Committee, t: int) -> AuditCurve:
    """The committee audit as a step function of the threshold s.

    Equals :func:`empirical_fvr_committee` at every s, from one pass over
    the voters.
    """
    members = _check_committee(inst, committee, t)
    sizes = (len(approved) for approved in inst.approvals if len(approved & members) < t)
    return audit_curve(sizes, inst.m, inst.n)


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
    k = len(members)
    unrepresented = [i for i in range(inst.n) if not inst.approvals[i] & members]
    for c in range(inst.m):
        group = tuple(i for i in unrepresented if c in inst.approvals[i])
        if len(group) * k >= inst.n:
            return JrResult(satisfied=False, blocking_candidate=c, blocking_voters=group)
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
