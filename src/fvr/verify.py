"""Named verification suites: exhaustive sweeps and oracle comparisons.

Each suite replays a guarantee or identity against brute force over a
bounded universe and reports the number of checks and any violations.
Suites are pure and deterministic: ``run_suite`` runs a suite's blocks in
order, in one process.

Each block is a generator that yields one item per check: a false value
when the check passes, or its violation message when it fails, built only
then (``failed and f"..."``).  ``run_suite`` alone counts the checks and
keeps the first ``MAX_VIOLATIONS_KEPT`` messages, so no block holds a counter
or a list of violations.

Suite parameters (all optional; ``_SUITES`` holds each suite's defaults):

- ``n_max``/``m_max``: sweep ceilings for voters/candidates (for the
  ``hypergeom`` suite, ``m_max`` is the largest population compared against
  subset enumeration).
- ``budget``: cap on enumeration size; for ``hypergeom`` the number of
  random instances for the committee-counting identity (at most 656 at
  ``m_max`` >= 6), for ``pvc`` the number of sampled profiles per shape.
- ``seed``: seed for sampled checks.

For ``separations``, ``m_max`` bounds the candidates of both constructions
and ``budget`` the committees of one block; ``n_max`` and ``seed`` are unused.

``n_max``, ``m_max`` and ``budget`` must be positive integers when given,
and ``seed`` any integer.

Each oracle walks its universe once, counts in ints and calls none of the
kernels it checks: a sweep reads one ``flexible_counts`` list per winner or
committee and holds its entry at ceil(s*m), the s-flexible voters it fails, to
the exact bound p/q as hits*q <= p*n; the prefix oracle scores every
k-committee once for all prefixes of the sequential picks; ``hypergeom``
reads every probe of (p, s, d) as an int count from one histogram of the
C(p, d) draws; ``strong_pvc_by_subsets`` tries each voter group once.  Those
checks build a ``Fraction`` only to word a violation.

Every suite checks its size budget before it builds or runs any block, and
raises ``SizeLimitError`` when its largest block would exceed it: the voter
multisets of one sweep block (``oracles._multisets_over``), the ``hypergeom``
subset probes and counting pairs, the (candidate, voter group) pairs of
the ``pvc`` subset oracle (the last three against ``ENUMERATION_BUDGET``), or
the committees of one ``separations`` block.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, permutations, product
from math import comb, lcm
from operator import and_

from .core import (
    Committee,
    Frac,
    Instance,
    MultiParams,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    comb_over,
    flexibility_grid,
    flexible_size,
    int_at_least,
    of_type,
    parse_family,
    record,
    shown,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf, miss_prob, multiwinner_bound
from .multi_winner import (
    JrResult,
    _short_voters,
    committee_score,
    expanded_rule,
    sequential_picks,
)
from .oracles import (
    ENUMERATION_BUDGET,
    _multisets_over,
    _subset_masks,
    conditional_expected_scores,
    enumerate_voter_multisets,
    gen_jr_hard,
    gen_party_split,
    strong_pvc,
)
from .single_winner import _disapprovers, flexible_counts, grid_theoretical_fvr, ropt_winner, winner

__all__ = [
    "VerifyResult",
    "SUITE_NAMES",
    "run_suite",
    "pmf_by_enumeration",
    "strong_pvc_by_subsets",
    "jr_by_sets",
]

MAX_VIOLATIONS_KEPT = 50


@record
class VerifyResult:
    """A suite's check count and its first ``MAX_VIOLATIONS_KEPT`` violation messages."""

    suite: str
    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _overlaps(population: int, successes: int, draws: int) -> list[int]:
    """How many of the C(population, draws) draws hold each count 0..draws of
    the first ``successes`` items, enumerating the draws once."""
    counts = [0] * (draws + 1)
    for chosen in combinations(range(population), draws):
        counts[bisect_left(chosen, successes)] += 1  # ``chosen`` is sorted
    return counts


def pmf_by_enumeration(population: int, successes: int, draws: int, t: int) -> Frac:
    """Hypergeometric mass by counting subsets directly."""
    hits = _overlaps(population, successes, draws)[t] if 0 <= t <= draws else 0
    return Fraction(hits, comb(population, draws))


def strong_pvc_by_subsets(profile: RankedProfile) -> frozenset[int]:
    """Veto-core membership by trying every voter group explicitly, each once: a
    group of g voters vetoes the AND of its members' bitmasks of the candidates
    ranked at or past the cutoff m - ceil(m*g/n) + 1."""
    m, n = of_type(profile, RankedProfile, "profile").m, profile.n
    bits = [[1 << a for a in ranking] for ranking in profile.rankings]
    vetoed = 0
    for size in range(1, n + 1):
        cutoff = m + (m * size) // -n + 1  # (m*g) // -n is -ceil(m*g/n)
        past = [sum(row[cutoff:]) for row in bits]
        for group in combinations(past, size):
            vetoed |= reduce(and_, group)
    return frozenset(a for a in range(m) if not vetoed >> a & 1)


def _short_flexible(approvals: Iterable[frozenset[int]], members: frozenset[int], need: int, t: int) -> int:
    """The voters approving at least ``need`` candidates but fewer than t members,
    counted from the approval sets: a committee's audit hits at ceil(s*m) = ``need``."""
    return sum(1 for A in approvals if len(A) >= need and len(A & members) < t)


def jr_by_sets(inst: Instance, members: frozenset[int]) -> JrResult:
    """Justified representation over the approval sets: the lowest candidate
    approved by at least n/k voters who approve no member, with those voters."""
    of_type(inst, Instance, "instance")
    unrepresented = [i for i in range(inst.n) if not inst.approvals[i] & members]
    for c in range(inst.m):
        group = tuple(i for i in unrepresented if c in inst.approvals[i])
        if len(group) * len(members) >= inst.n:
            return JrResult(satisfied=False, blocking_candidate=c, blocking_voters=group)
    return JrResult(satisfied=True)


def _off(value: Frac, count: int, total: int) -> bool:
    """Whether ``value`` differs from count/total, compared in ints."""
    return value.numerator * total != count * value.denominator


# ---------------------------------------------------------------------------
# Block runners
# ---------------------------------------------------------------------------


def _profile(inst: Instance) -> list[list[int]]:
    """The approval sets as sorted lists, for a violation message; decoded only then."""
    return [sorted(A) for A in inst.approvals]


def _thresholds(m: int, bounds: Iterable[tuple[Frac, Frac]]) -> list[tuple]:
    """(s, bound, ceil(s*m), p, q) per (s, bound = p/q): hits/n > p/q exactly when hits*q > p*n."""
    return [(s, b, flexible_size(s, m), b.numerator, b.denominator) for s, b in bounds]


def _single_winner_block(suite: str, n: int, m: int, budget: int) -> Iterator[str | bool]:
    grid = flexibility_grid(m)
    # (rule spec, thresholds to audit its winner at); a threshold rule is
    # tailored to one s, so each s gets its own rule.
    rules = {
        "opt": [("opt", grid)],
        "approval": [("approval", grid)],
        "power": [(f"power:{p}", grid) for p in (1, 2, 3)],
        "threshold": [(f"threshold:{s}", (s,)) for s in grid],
    }[suite]
    bounded = []
    for label, thresholds in rules:
        family = parse_family(label)
        bounds = _thresholds(m, ((s, grid_theoretical_fvr(family, s, m)) for s in thresholds))
        bounded.append((label, family, bounds))
    for inst in enumerate_voter_multisets(n, m, budget):
        audited: dict[int, list[int]] = {}  # rules often share a winner: count it once
        for label, family, bounds in bounded:
            a = winner(inst, family)
            if a not in audited:
                audited[a] = flexible_counts(inst, _disapprovers(inst, a))
            counts = audited[a]
            for s, bound, need, p, q in bounds:
                yield counts[need] * q > p * n and (
                    f"{label} n={n} m={m} approvals={_profile(inst)} "
                    f"s={s}: audit {Fraction(counts[need], n)} exceeds {bound}"
                )


def _multiwinner_block(n: int, m: int, budget: int) -> Iterator[str | bool]:
    # The bounds depend on (k, t, s) only, not on the instance.
    bounds = {
        (k, t): _thresholds(m, ((s, multiwinner_bound(m, s, k, t)) for s in flexibility_grid(m)))
        for k in range(1, m)
        for t in range(1, k + 1)
    }
    for inst in enumerate_voter_multisets(n, m, budget):
        for k in range(1, m):
            for t in range(1, k + 1):
                params = MultiParams(k, t)
                picks = sequential_picks(inst, params)
                seq_committee = Committee(picks)
                score = committee_score(inst, seq_committee, t)
                yield score > n and (
                    f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: "
                    f"sequential committee {picks} scores {score} > n"
                )
                expected = conditional_expected_scores(inst, params, picks)
                includable = sum(1 for A in inst.approvals if miss_prob(m, len(A), k, t))
                yield expected[0] != includable and (
                    f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: average penalty "
                    f"over all committees is {expected[0]}, not the {includable} includable voters"
                )
                for j in range(1, k + 1):
                    yield expected[j] > expected[j - 1] and (
                        f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: conditional "
                        f"expectation rose from {expected[j - 1]} to {expected[j]} at pick {j}"
                    )
                committees = (("seq", seq_committee), ("expanded", expanded_rule(inst, params)))
                counted = [
                    (name, flexible_counts(inst, _short_voters(inst, c, t)[1])) for name, c in committees
                ]
                for s, bound, need, p, q in bounds[k, t]:
                    for name, counts in counted:
                        yield counts[need] * q > p * n and (
                            f"{name} n={n} m={m} k={k} t={t} s={s} approvals={_profile(inst)}: "
                            f"audit {Fraction(counts[need], n)} exceeds {bound}"
                        )


def _reduction_block(n: int, m: int, budget: int) -> Iterator[str | bool]:
    params = MultiParams(1, 1)
    for inst in enumerate_voter_multisets(n, m, budget):
        expected = ropt_winner(inst)
        seq, exp = sequential_picks(inst, params), expanded_rule(inst, params).members
        for rule, members in (("sequential", seq), ("expanded", exp)):
            yield members != (expected,) and (
                f"n={n} m={m} approvals={_profile(inst)}: "
                f"{rule} gave {members}, single-winner rule gives {expected}"
            )


def _hyp_enum_block(population: int) -> Iterator[str | bool]:
    """One check per probe t of (population, s, d), covering its pmf and its cdf; when
    both fail, one message joins the two with ``"; "``."""
    for successes in range(population + 1):
        for draws in range(population + 1):
            params = HypParams(population, successes, draws)
            counts, total = _overlaps(population, successes, draws), comb(population, draws)
            running = 0
            for t in range(-1, draws + 2):
                hits = counts[t] if 0 <= t <= draws else 0
                running += hits
                actual = hyp_pmf(params, t)
                pmf = _off(actual, hits, total) and (
                    f"pmf({population},{successes},{draws};{t}) = {actual} != {Fraction(hits, total)}"
                )
                cdf = _off(hyp_cdf(params, t), running, total) and (
                    f"cdf({population},{successes},{draws};{t}) != enumerated cumulative"
                )
                yield (pmf or cdf) and "; ".join(filter(None, (pmf, cdf)))


def _hyp_sum_block(population: int) -> Iterator[str | bool]:
    # Each mass function of the population, computed once: masses[s][d][t] = pmf(p, s, d; t).
    support = range(population + 1)
    masses = [[[hyp_pmf(HypParams(population, s, d), t) for t in support] for d in support] for s in support]
    for successes in support:
        for draws in support:
            pmf = masses[successes][draws][: draws + 1]
            scale = lcm(*(value.denominator for value in pmf))  # C(p, d) or a divisor of it
            yield sum(value.numerator * (scale // value.denominator) for value in pmf) != scale and (
                f"pmf over ({population},{successes},{draws}) sums to {sum(pmf)}"
            )
            for t in support:
                yield masses[successes][draws][t] != masses[draws][successes][t] and (
                    f"symmetry broken at ({population},{successes},{draws};{t})"
                )


def _hyp_counting_block(seed: int, count: int, m_max: int) -> Iterator[str | bool]:
    rng = random.Random(seed)
    # Every k-committee of m candidates as a bitmask, enumerated once per block.
    committees = {
        (m, k): list(_subset_masks(m, k))
        for m in range(2, m_max + 1)
        for k in range(1, m)
    }
    for _ in range(count):
        m = rng.randint(2, m_max)
        for _ in range(rng.randint(1, 6)):  # voters, each approving a random subset
            approved = sum(rng.getrandbits(1) << c for c in range(m))
            size = approved.bit_count()
            for k in range(1, m):
                histogram = [0] * (k + 1)
                for committee in committees[m, k]:
                    histogram[(approved & committee).bit_count()] += 1
                total = reached = comb(m, k)
                for t in range(1, k + 1):
                    reached -= histogram[t - 1]
                    miss = hyp_cdf(HypParams(m, size, k), t - 1)
                    yield _off(miss, total - reached, total) and (
                        f"m={m} k={k} t={t} |A|={size}: {reached} committees reach the "
                        f"target but the distribution predicts {(1 - miss) * total}"
                    )


def _pvc_block(n: int, m: int, sample: int, seed: int) -> Iterator[str | bool]:
    if _all_profiles(n, m, sample) is not None:
        profiles = product(permutations(range(m)), repeat=n)
    else:
        rng = random.Random(seed)
        profiles = [tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(sample)]
    for rankings in profiles:
        profile = RankedProfile(m, rankings)
        yield strong_pvc(profile) != strong_pvc_by_subsets(profile) and (
            f"m={m} rankings={rankings}: scan and subset oracle disagree"
        )


def _all_profiles(n: int, m: int, sample: int) -> int | None:
    """m!**n, the count of ranked profiles of shape (n, m), if at most ``sample``, else None.

    Built one factor at a time, so a large m stops as soon as it is over.
    """
    count = 1
    for size in range(2, m + 1):
        count *= size**n
        if count > sample:
            return None
    return count


def _party_split_block(k: int) -> Iterator[str | bool]:
    """One check per k-committee of ``gen_party_split(k)``: its audit exceeds
    ``multiwinner_bound`` at some grid pair (s, t), so no committee is optimal
    for every approval target t."""
    inst = gen_party_split(k)
    m, n, approvals = inst.m, inst.n, inst.approvals
    bounds = {
        t: _thresholds(m, ((s, multiwinner_bound(m, s, k, t)) for s in flexibility_grid(m)))
        for t in range(1, k + 1)
    }
    for members in map(frozenset, combinations(range(m), k)):
        yield not any(
            _short_flexible(approvals, members, need, t) * q > p * n
            for t, rows in bounds.items()
            for _, _, need, p, q in rows
        ) and f"party split k={k}: committee {sorted(members)} meets the bound at every (s, t)"


def _jr_clash_block(m: int, k: int) -> Iterator[str | bool]:
    """Two checks on ``gen_jr_hard(m, k)`` at t = 1 and s = (m-k)/m: the least
    audit over the committees that satisfy justified representation exceeds
    ``multiwinner_bound``, and the least over all committees meets it."""
    inst = gen_jr_hard(m, k)
    n, approvals = inst.n, inst.approvals
    s = Fraction(m - k, m)
    bound = multiwinner_bound(m, s, k, 1)
    p, q = bound.numerator, bound.denominator
    audits = [
        (_short_flexible(approvals, members, m - k, 1), members)
        for members in map(frozenset, combinations(range(m), k))
    ]
    least = min(hits for hits, _ in audits)
    least_jr = min((hits for hits, members in audits if jr_by_sets(inst, members).satisfied), default=None)
    label = f"jr clash m={m} k={k} s={s}"
    if least_jr is None:
        yield f"{label}: no committee satisfies justified representation"
    else:
        yield least_jr * q <= p * n and (
            f"{label}: least audit over the JR committees {Fraction(least_jr, n)} does not exceed {bound}"
        )
    yield least * q > p * n and f"{label}: least audit {Fraction(least, n)} exceeds {bound}"


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------


def _sweep(block: Callable[..., Iterator[str | bool]], *lead):
    """Suite builder: one ``block(*lead, n, m, budget)`` per (n, m) of the sweep.

    A block with one candidate has no threshold and no committee to check,
    so m starts at 2.  The multiset count grows with both n and m, so the
    largest block decides the budget, checked before any block is built.
    """

    def build(n_max, m_max, budget, seed):
        if m_max > 1 and _multisets_over(n_max, m_max, budget):
            raise SizeLimitError(
                f"n_max={shown(n_max)}, m_max={shown(m_max)} would enumerate more than "
                f"{shown(budget)} voter multisets in one block"
            )
        return [
            block(*lead, n, m, budget)
            for m in range(2, m_max + 1)
            for n in range(1, n_max + 1)
        ]

    return build


def _build_hypergeom(n_max, enum_max, counting_samples, seed):
    # _hyp_enum_block(p) enumerates the C(p, d) draws once per (s, d) and reads
    # its d + 2 probes t from their histogram.  The budget charges each subset
    # once per probe, as pmf_by_enumeration costs probe by probe:
    # (p + 1) * sum over d of (d + 2) * C(p, d).
    subsets = 0
    for p in range(enum_max + 1):
        subsets += (p + 1) * sum((d + 2) * comb(p, d) for d in range(p + 1))
        if subsets > ENUMERATION_BUDGET:
            raise SizeLimitError(
                f"m_max={shown(enum_max)} would enumerate more than {ENUMERATION_BUDGET} subsets"
            )
    # Each sample of _hyp_counting_block tests up to 6 voters against every
    # committee of at most counting_m candidates, 6 * (2**counting_m - 2) pairs.
    counting_m = min(enum_max + 2, 8)
    if counting_samples * 6 * (2**counting_m - 2) > ENUMERATION_BUDGET:
        raise SizeLimitError(
            f"budget={shown(counting_samples)} would test more than {ENUMERATION_BUDGET} "
            "(voter, committee) pairs"
        )
    return [
        *map(_hyp_enum_block, range(enum_max + 1)),
        *map(_hyp_sum_block, range(enum_max + 5)),
        _hyp_counting_block(seed, counting_samples, counting_m),
    ]


def _build_pvc(n_max, m_max, sample, seed):
    # strong_pvc_by_subsets tries each of the 2**n - 1 voter groups once per
    # profile on m-bit candidate masks, m * (2**n - 1) (candidate, group)
    # pairs, and the largest block tries the most.  An n whose 2**n - 1 alone
    # exceeds the budget is refused before 2**n is built.
    if (
        n_max > ENUMERATION_BUDGET.bit_length()
        or m_max * (2**n_max - 1) * (_all_profiles(n_max, m_max, sample) or sample)
        > ENUMERATION_BUDGET
    ):
        raise SizeLimitError(
            f"n_max={shown(n_max)}, m_max={shown(m_max)} would test more than {ENUMERATION_BUDGET} "
            "(candidate, voter group) pairs in one block's subset oracle"
        )
    return [
        _pvc_block(n, m, sample, seed + 31 * (n * 17 + m))
        for m in range(1, m_max + 1)
        for n in range(1, n_max + 1)
    ]


def _build_separations(n_max, m_max, budget, seed):
    # Party split k enumerates C(2k, k) committees and JR clash (m, k) C(m, k),
    # so the largest block, if m_max >= 4 makes any, enumerates C(m_max, m_max // 2).
    if m_max >= 4 and comb_over(m_max, m_max // 2, budget):
        raise SizeLimitError(
            f"m_max={shown(m_max)} would enumerate more than {shown(budget)} committees in one block"
        )
    # JR clash starts at m = 5: at m = 4 the least JR audit equals the bound,
    # and at k = m - 1 it never exceeds it.
    return [
        *map(_party_split_block, range(2, m_max // 2 + 1)),
        *(_jr_clash_block(m, k) for m in range(5, m_max + 1) for k in range(2, m - 1)),
    ]


# Each suite's builder and its defaults for n_max, m_max, budget and seed; a
# builder takes all four and returns its blocks, none of them started.
_SUITES = {
    "opt": (_sweep(_single_winner_block, "opt"), 3, 3, ENUMERATION_BUDGET, None),
    "threshold": (_sweep(_single_winner_block, "threshold"), 3, 3, ENUMERATION_BUDGET, None),
    "approval": (_sweep(_single_winner_block, "approval"), 3, 3, ENUMERATION_BUDGET, None),
    "power": (_sweep(_single_winner_block, "power"), 3, 3, ENUMERATION_BUDGET, None),
    "multiwinner": (_sweep(_multiwinner_block), 2, 4, ENUMERATION_BUDGET, None),
    "reduction": (_sweep(_reduction_block), 3, 3, ENUMERATION_BUDGET, None),
    "hypergeom": (_build_hypergeom, None, 6, 50, 0),
    "pvc": (_build_pvc, 3, 3, 300, 0),
    "separations": (_build_separations, None, 10, ENUMERATION_BUDGET, None),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str,
    n_max: int | None = None,
    m_max: int | None = None,
    budget: int | None = None,
    seed: int | None = None,
) -> VerifyResult:
    """Run a named suite, its blocks in order."""
    if not isinstance(name, str) or name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ValidationError(f"unknown suite {shown(name)}; known: {known}")
    builder, *defaults = _SUITES[name]
    # None selects the suite's default; any other size must be a positive int,
    # and a seed any int.
    given = zip(("n_max", "m_max", "budget", "seed"), (n_max, m_max, budget, seed), (1, 1, 1, None), defaults)
    args = [default if value is None else int_at_least(value, key, low) for key, value, low, default in given]
    checked, violations = 0, []
    for checked, failure in enumerate(chain.from_iterable(builder(*args)), 1):
        if failure and len(violations) < MAX_VIOLATIONS_KEPT:
            violations.append(failure)
    return VerifyResult(name, checked, tuple(violations))
