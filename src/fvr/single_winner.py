"""Scoring rules, winner selection, and worst-case guarantees for
single-winner approval elections.

The audit quantity used throughout: for a chosen candidate ``a`` and a
flexibility threshold ``s``, the share of voters that are s-flexible yet
disapprove ``a``.  A rule's guarantee at ``s`` is the largest share any
instance can force on it; lower is stronger, and no rule can beat ``1 - s``.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .core import (
    CANDIDATE_LIMIT,
    AuditCurve,
    Frac,
    Instance,
    Optimal,
    Table,
    WeightFn,
    as_family,
    eval_weight,
    flexibility_grid,
    flexible_size,
    index_in,
    int_at_least,
    of_type,
    open_unit,
)

__all__ = [
    "ScoreVector",
    "score_all",
    "winner",
    "ropt_winner",
    "empirical_fvr_point",
    "empirical_fvr_curve",
    "closed_form_fvr",
    "grid_theoretical_fvr",
    "is_optimal_weight_table",
]

ScoreVector = tuple[Frac, ...]


def common_units(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Exact ratios as integer numerators over one denominator.

    ``ratios`` holds ``(numerator, denominator)`` pairs with positive
    denominators.  ``scale`` is the lcm of the denominators, and ratio ``i``
    equals exactly ``units[i] / scale``, so sums and comparisons of ratios
    become sums and comparisons of ints.
    """
    scale = lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios], scale


def weighted_counts(columns: Sequence[int], classes: Iterable[tuple[int, int]]) -> list[int]:
    """Per-candidate sums of int weights over classes of voters.

    ``classes`` yields ``(unit, voters)`` pairs, ``voters`` a voter bitset;
    each of those voters adds ``unit`` to every candidate she approves, so
    ``counts[a]`` is the sum of unit * popcount(columns[a] & voters).
    Zero units are skipped.  Cost: one AND and one popcount of n-bit ints
    per (candidate, class).
    """
    classes = [(unit, voters) for unit, voters in classes if unit]
    counts = []
    for column in columns:
        total = 0
        for unit, voters in classes:
            total += unit * (column & voters).bit_count()
        counts.append(total)
    return counts


def flexible_counts(inst: Instance, voters: int) -> list[int]:
    """How many voters in ``voters`` approve at least ``need`` candidates, at index
    need = 0..m+1.  ``voters`` is a voter bitset, or the complement ``~bitset`` of a
    group, as it is only ANDed with each size's voters.  Cost: one AND and one
    popcount per approval size present, then a suffix sum."""
    hits = [0] * (inst.m + 2)  # hits[size]: the voters approving exactly ``size``
    for size, group in inst.size_masks.items():
        hits[size] = (voters & group).bit_count()
    return list(accumulate(reversed(hits)))[::-1]


def group_audit(inst: Instance, voters: int, s: Frac) -> Frac:
    """Share of all n voters that lie in ``voters`` and are s-flexible, for a checked s:
    the :func:`flexible_counts` entry at ceil(s*m) approvals, over n."""
    return Fraction(flexible_counts(inst, voters)[flexible_size(s, inst.m)], inst.n)


def group_audit_curve(inst: Instance, voters: int) -> AuditCurve:
    """:func:`group_audit` as a step function of the threshold s.

    A breakpoint sits at s = size/m for each size 1..m where the
    :func:`flexible_counts` list drops (some voter in the group approves
    exactly ``size`` candidates), with value that entry over n; the first
    step's value is also the limit as s approaches 0.
    """
    counts = flexible_counts(inst, voters)
    steps = [size for size in range(1, inst.m + 1) if counts[size] > counts[size + 1]]
    return AuditCurve(tuple((Fraction(size, inst.m), Fraction(counts[size], inst.n)) for size in steps))


def argmax(values: Sequence[object], skip: Container[int] = ()) -> int:
    """The lowest index holding the largest value, ignoring indices in ``skip``."""
    return max((a for a in range(len(values)) if a not in skip), key=values.__getitem__)


def score_all(inst: Instance, w: WeightFn) -> ScoreVector:
    """Per-candidate scores: each voter adds her weight to every candidate she approves.

    Voters approving nothing contribute no score; voters approving
    everything would raise all scores equally, so they are skipped and the
    weight function is never evaluated at flexibility 0 or 1.  The weight
    depends only on the approval size, so it is evaluated once per size,
    as an int unit over one common denominator (:func:`common_units`), and
    candidate a scores the sum over sizes of unit * |approvers of a of that size|.
    """
    m, groups, ratio = of_type(inst, Instance, "instance").m, inst.size_masks, as_family(w).ratio
    sizes = [size for size in groups if 0 < size < m]
    units, scale = common_units([ratio(size, m) for size in sizes])
    counts = weighted_counts(inst.columns, zip(units, map(groups.__getitem__, sizes)))
    return tuple(Fraction(c, scale) for c in counts)


def winner(inst: Instance, w: WeightFn) -> int:
    """The lowest-index candidate with maximal score (deterministic tie-break)."""
    return argmax(score_all(inst, w))


def ropt_winner(inst: Instance) -> int:
    """Winner under the 1/(1-f) weighting, optimal at every threshold at once."""
    return winner(inst, Optimal())


def _disapprovers(inst: Instance, a: int) -> int:
    """The voters disapproving candidate ``a`` (as for :func:`group_audit`), once ``inst``
    and ``a`` are valid."""
    return ~of_type(inst, Instance, "instance").columns[index_in(a, inst.m, "candidate")]


def empirical_fvr_point(inst: Instance, a: int, s: object) -> Frac:
    """Share of voters that are s-flexible yet disapprove candidate ``a``.

    The representation condition at level r holds for this outcome and
    threshold exactly when the returned share is at most r.
    """
    sv = open_unit(s)
    return group_audit(inst, _disapprovers(inst, a), sv)


def empirical_fvr_curve(inst: Instance, a: int) -> AuditCurve:
    """The audit of candidate ``a`` as a step function of the threshold s."""
    return group_audit_curve(inst, _disapprovers(inst, a))


def closed_form_fvr(family: WeightFn, s: object) -> Frac:
    """Exact guarantee of a weight family at threshold ``s`` (its ``guarantee``); for a
    :class:`Table`, rho/(rho+phi) over its entries, as :func:`grid_theoretical_fvr` uses."""
    return as_family(family).guarantee(open_unit(s))


def grid_theoretical_fvr(w: WeightFn, s: object, grid_m: int) -> Frac:
    """Guarantee of a weight function over instances of ``grid_m`` candidates.

    The weights at the flexibilities {1/grid_m, ..., (grid_m-1)/grid_m}
    form a :class:`Table`, whose ``guarantee`` is rho/(rho+phi) over them:
    0 when no grid point reaches s.  The closed forms take rho and phi over
    all of (0,1); the grid value is at most the closed form and converges to
    it as the grid refines through denominators of s.  The grid stands for
    the m of an instance, so ``grid_m`` is at most ``CANDIDATE_LIMIT``.
    """
    sv = open_unit(s)
    int_at_least(grid_m, "grid resolution", 2, CANDIDATE_LIMIT)
    return Table([(f, eval_weight(w, f)) for f in flexibility_grid(grid_m)]).guarantee(sv)


def is_optimal_weight_table(w: Table) -> bool:
    """Whether the table samples the 1/(1-f) scale family.

    True exactly when (1-f)*w(f) is the same positive constant for every
    entry -- the condition characterizing weight functions whose rule is
    optimal at every threshold simultaneously.
    """
    products = {(1 - f) * wv for f, wv in w.entries}
    if len(products) != 1:
        return False
    return next(iter(products)) > 0
