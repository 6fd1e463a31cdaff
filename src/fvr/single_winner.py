"""Scoring rules, winner selection, and worst-case guarantees for
single-winner approval elections.

The audit quantity used throughout: for a chosen candidate ``a`` and a
flexibility threshold ``s``, the share of voters that are s-flexible yet
disapprove ``a``.  A rule's guarantee at ``s`` is the largest share any
instance can force on it; lower is stronger, and no rule can beat ``1 - s``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterable, Sequence
from fractions import Fraction
from math import lcm

from .core import (
    AuditCurve,
    Constant,
    Frac,
    Instance,
    Optimal,
    Power,
    Table,
    Threshold,
    ValidationError,
    WeightFn,
    eval_weight,
    flexibility_grid,
    flexible_size,
    int_at_least,
    open_unit,
    record,
    weight_ratio,
)

__all__ = [
    "ScoreVector",
    "score_all",
    "winner",
    "ropt_winner",
    "empirical_fvr_point",
    "empirical_fvr_curve",
    "FvrBound",
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


def weighted_counts(
    m: int, classes: Iterable[tuple[tuple[int, int], Iterable[frozenset[int]]]]
) -> tuple[list[int], int]:
    """Exact weighted approval counts as integer numerators over one denominator.

    ``classes`` yields ``(weight, rows)`` pairs in which every row carries the
    same weight, given as a ``(numerator, denominator)`` pair of ints.  Each
    weight becomes an int numerator over ``scale`` (:func:`common_units`),
    and each approval adds that int, so candidate ``a`` scores exactly
    ``counts[a] / scale``.  Zero-weight classes are never visited.
    """
    classes = list(classes)
    units, scale = common_units([ratio for ratio, _ in classes])
    return unit_counts(m, zip(units, (rows for _, rows in classes))), scale


def unit_counts(m: int, classes: Iterable[tuple[int, Iterable[frozenset[int]]]]) -> list[int]:
    """Per-candidate sums of int weights: each row of a ``(unit, rows)`` class
    adds ``unit`` to every candidate it approves.  Zero units are skipped."""
    counts = [0] * m
    for unit, rows in classes:
        if unit:
            for approved in rows:
                for a in approved:
                    counts[a] += unit
    return counts


def _size_classes(
    inst: Instance, w: WeightFn
) -> list[tuple[tuple[int, int], list[frozenset[int]]]]:
    """Voters grouped by approval size, with the weight each size carries.

    Sizes 0 and m are left out: those voters approve nobody or everybody, so
    the weight function is never evaluated at flexibility 0 or 1.  Weights
    are evaluated once per size, in order of first appearance.
    """
    by_size: dict[int, list[frozenset[int]]] = {}
    for approved in inst.approvals:
        by_size.setdefault(len(approved), []).append(approved)
    return [
        (weight_ratio(w, size, inst.m), rows)
        for size, rows in by_size.items()
        if 0 < size < inst.m
    ]


def argmax(values: Sequence[object], skip: Container[int] = ()) -> int:
    """The lowest index holding the largest value, ignoring indices in ``skip``."""
    return max((a for a in range(len(values)) if a not in skip), key=values.__getitem__)


def score_all(inst: Instance, w: WeightFn) -> ScoreVector:
    """Per-candidate scores: each voter adds her weight to every candidate she approves.

    Voters approving nothing contribute no score; voters approving
    everything would raise all scores equally, so they are skipped and the
    weight function is never evaluated at flexibility 0 or 1.
    """
    counts, scale = weighted_counts(inst.m, _size_classes(inst, w))
    return tuple(Fraction(c, scale) for c in counts)


def winner(inst: Instance, w: WeightFn) -> int:
    """The lowest-index candidate with maximal score (deterministic tie-break)."""
    return argmax(score_all(inst, w))


def ropt_winner(inst: Instance) -> int:
    """Winner under the 1/(1-f) weighting, optimal at every threshold at once."""
    return winner(inst, Optimal(Fraction(1)))


def empirical_fvr_point(inst: Instance, a: int, s: object) -> Frac:
    """Share of voters that are s-flexible yet disapprove candidate ``a``.

    The representation condition at level r holds for this outcome and
    threshold exactly when the returned share is at most r.
    """
    sv = open_unit(s)
    if not 0 <= a < inst.m:
        raise ValidationError(f"no candidate {a}: instance has m={inst.m}")
    need = flexible_size(sv, inst.m)
    hits = sum(1 for approved in inst.approvals if len(approved) >= need and a not in approved)
    return Fraction(hits, inst.n)


def audit_curve(sizes: Iterable[int], m: int, n: int) -> AuditCurve:
    """The audit step function of a group of voters, from their approval sizes.

    The curve at s is the share of all n voters that lie in the group and
    are s-flexible.  One histogram pass and suffix sums: O(len(sizes) + m).
    """
    histogram = Counter(sizes)
    breakpoints = []
    count = 0
    for size in range(m, 0, -1):
        if histogram[size]:
            count += histogram[size]
            breakpoints.append((Fraction(size, m), Fraction(count, n)))
    breakpoints.reverse()
    return AuditCurve(tuple(breakpoints))


def empirical_fvr_curve(inst: Instance, a: int) -> AuditCurve:
    """The audit of candidate ``a`` as a step function of the threshold s.

    Breakpoints sit exactly at the distinct positive flexibilities of the
    voters disapproving ``a``; the first step's value is also the limit as
    s approaches 0.
    """
    if not 0 <= a < inst.m:
        raise ValidationError(f"no candidate {a}: instance has m={inst.m}")
    sizes = (len(approved) for approved in inst.approvals if a not in approved)
    return audit_curve(sizes, inst.m, inst.n)


@record
class FvrBound:
    """A guarantee value at threshold ``s``.

    ``kind`` records how it was computed: "closed_form" for the named
    families, or "grid" for the finite-grid evaluation (with ``grid_m`` the
    grid resolution) -- the two must never be confused, since grid values
    only converge to the closed forms as the grid refines.
    """

    s: Frac
    value: Frac
    kind: str
    grid_m: int | None = None


def closed_form_fvr(family: WeightFn, s: object) -> FvrBound:
    """Exact guarantee of a built-in weight family at threshold ``s``.

    Constant scoring gives 1/(1+s); the p-power family gives
    1/(1 + (s(1+p))^(1+p) / p^p); the 1/(1-f) family gives 1-s; a hard
    cutoff at s0 gives 1-s0 once s reaches s0 and nothing (1) below it.
    """
    sv = open_unit(s)
    if isinstance(family, Constant):
        value = 1 / (1 + sv)
    elif isinstance(family, Power):
        p = family.p
        value = 1 / (1 + (sv * (p + 1)) ** (p + 1) / Fraction(p**p))
    elif isinstance(family, Optimal):
        value = 1 - sv
    elif isinstance(family, Threshold):
        value = (1 - family.s0) if sv >= family.s0 else Fraction(1)
    elif isinstance(family, Table):
        raise ValidationError(
            "no closed form for table weights; evaluate with grid_theoretical_fvr"
        )
    else:
        raise ValidationError(f"not a weight function: {family!r}")
    return FvrBound(s=sv, value=value, kind="closed_form")


def grid_theoretical_fvr(w: WeightFn, s: object, grid_m: int) -> FvrBound:
    """Guarantee of an arbitrary weight function, evaluated on a finite grid.

    Over the flexibilities {1/grid_m, ..., (grid_m-1)/grid_m}, computes
    rho = max (1-f)*w(f) and phi = min over grid f >= s of f*w(f), and
    returns rho / (rho + phi).  If no grid point reaches s, phi falls back
    to the largest grid point.  The true guarantee takes rho and phi over
    all rationals in (0,1); the grid value is exact for the grid and
    converges to the closed forms as the grid refines through denominators
    of s.
    """
    sv = open_unit(s)
    int_at_least(grid_m, "grid resolution", 2)
    grid = flexibility_grid(grid_m)
    values = {f: eval_weight(w, f) for f in grid}
    rho = max((1 - f) * values[f] for f in grid)
    if rho == 0:
        raise ValidationError(
            f"weight function is trivial on the {grid_m}-point grid: w(f) > 0 must hold somewhere"
        )
    at_or_above = [f for f in grid if f >= sv]
    if at_or_above:
        phi = min(f * values[f] for f in at_or_above)
    else:
        top = grid[-1]
        phi = top * values[top]
    return FvrBound(s=sv, value=rho / (rho + phi), kind="grid", grid_m=grid_m)


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
