"""Named verification suites: exhaustive sweeps and oracle comparisons.

Each suite replays a guarantee or identity against brute force over a
bounded universe and reports the number of checks and any violations.
Suites are pure and deterministic; blocks of work are independent, so they
can run on a process pool, with results collected before printing to keep
output deterministic.

Suite parameter conventions (all optional, suite-specific defaults):

- ``n_max``/``m_max``: sweep ceilings for voters/candidates (for the
  ``hypergeom`` suite, ``m_max`` is the largest population compared against
  subset enumeration).
- ``budget``: cap on enumeration size; for ``hypergeom`` the number of
  random instances for the committee-counting identity (at most 656 at
  ``m_max`` >= 6), for ``pvc`` the number of sampled profiles per shape.
- ``seed``: seed for sampled checks.

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
subset probes and counting pairs, or the (candidate, voter group) pairs of
the ``pvc`` subset oracle (the last three against ``ENUMERATION_BUDGET``).
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import comb, lcm
from operator import and_

from .core import (
    Committee,
    Frac,
    Instance,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    flexibility_grid,
    flexible_size,
    int_at_least,
    parse_family,
    record,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf, miss_prob, multiwinner_bound
from .multi_winner import (
    MultiParams,
    _short_voters,
    committee_score,
    expanded_rule,
    sequential_picks,
)
from .oracles import (
    ENUMERATION_BUDGET,
    _multisets_over,
    conditional_expected_scores,
    enumerate_voter_multisets,
    strong_pvc,
)
from .single_winner import _disapprovers, closed_form_fvr, flexible_counts, ropt_winner, winner

__all__ = [
    "VerifyResult",
    "SUITE_NAMES",
    "run_suite",
    "pmf_by_enumeration",
    "strong_pvc_by_subsets",
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
    m, n = profile.m, profile.n
    bits = [[1 << a for a in ranking] for ranking in profile.rankings]
    vetoed = 0
    for size in range(1, n + 1):
        cutoff = m + (m * size) // -n + 1  # (m*g) // -n is -ceil(m*g/n)
        past = [sum(row[cutoff:]) for row in bits]
        for group in combinations(past, size):
            vetoed |= reduce(and_, group)
    return frozenset(a for a in range(m) if not vetoed >> a & 1)


def _off(value: Frac, count: int, total: int) -> bool:
    """Whether ``value`` differs from count/total, compared in ints."""
    return value.numerator * total != count * value.denominator


# ---------------------------------------------------------------------------
# Block runners (top-level, so a task naming one pickles by reference)
# ---------------------------------------------------------------------------


def _profile(inst: Instance) -> list[list[int]]:
    """The approval sets as sorted lists, for a violation message; decoded only then."""
    return [sorted(A) for A in inst.approvals]


def _thresholds(m: int, bounds: Iterable[tuple[Frac, Frac]]) -> list[tuple]:
    """(s, bound, ceil(s*m), p, q) per (s, bound = p/q): hits/n > p/q exactly when hits*q > p*n."""
    return [(s, b, flexible_size(s, m), b.numerator, b.denominator) for s, b in bounds]


def _single_winner_block(suite: str, n: int, m: int, budget: int) -> tuple[int, list[str]]:
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
        bounds = _thresholds(m, ((s, closed_form_fvr(family, s).value) for s in thresholds))
        bounded.append((label, family, bounds))
    checked = 0
    bad: list[str] = []
    for inst in enumerate_voter_multisets(n, m, budget):
        audited: dict[int, list[int]] = {}  # rules often share a winner: count it once
        for label, family, bounds in bounded:
            a = winner(inst, family)
            if a not in audited:
                audited[a] = flexible_counts(inst, _disapprovers(inst, a))
            counts = audited[a]
            for s, bound, need, p, q in bounds:
                checked += 1
                if counts[need] * q > p * n:
                    bad.append(
                        f"{label} n={n} m={m} approvals={_profile(inst)} "
                        f"s={s}: audit {Fraction(counts[need], n)} exceeds {bound}"
                    )
    return checked, bad


def _multiwinner_block(n: int, m: int, budget: int) -> tuple[int, list[str]]:
    # The bounds depend on (k, t, s) only, not on the instance.
    bounds = {
        (k, t): _thresholds(m, ((s, multiwinner_bound(m, s, k, t)) for s in flexibility_grid(m)))
        for k in range(1, m)
        for t in range(1, k + 1)
    }
    checked = 0
    bad: list[str] = []
    for inst in enumerate_voter_multisets(n, m, budget):
        for k in range(1, m):
            for t in range(1, k + 1):
                params = MultiParams(k, t)
                picks = sequential_picks(inst, params)
                seq_committee = Committee(picks)
                score = committee_score(inst, seq_committee, t)
                checked += 1
                if score > n:
                    bad.append(
                        f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: "
                        f"sequential committee {picks} scores {score} > n"
                    )
                expected = conditional_expected_scores(inst, params, picks)
                includable = sum(1 for A in inst.approvals if miss_prob(m, len(A), k, t))
                checked += 1
                if expected[0] != includable:
                    bad.append(
                        f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: average penalty "
                        f"over all committees is {expected[0]}, not the {includable} includable voters"
                    )
                for j in range(1, k + 1):
                    checked += 1
                    if expected[j] > expected[j - 1]:
                        bad.append(
                            f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: conditional "
                            f"expectation rose from {expected[j - 1]} to {expected[j]} at pick {j}"
                        )
                committees = (("seq", seq_committee), ("expanded", expanded_rule(inst, params)))
                counted = [
                    (name, flexible_counts(inst, _short_voters(inst, c, t)[1])) for name, c in committees
                ]
                for s, bound, need, p, q in bounds[k, t]:
                    for name, counts in counted:
                        checked += 1
                        if counts[need] * q > p * n:
                            bad.append(
                                f"{name} n={n} m={m} k={k} t={t} s={s} approvals={_profile(inst)}: "
                                f"audit {Fraction(counts[need], n)} exceeds {bound}"
                            )
    return checked, bad


def _reduction_block(n: int, m: int, budget: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    params = MultiParams(1, 1)
    for inst in enumerate_voter_multisets(n, m, budget):
        expected = ropt_winner(inst)
        seq = sequential_picks(inst, params)
        exp = expanded_rule(inst, params)
        checked += 2
        if seq != (expected,):
            bad.append(f"n={n} m={m} approvals={_profile(inst)}: "
                       f"sequential gave {seq}, single-winner rule gives {expected}")
        if exp.members != (expected,):
            bad.append(f"n={n} m={m} approvals={_profile(inst)}: "
                       f"expanded gave {exp.members}, single-winner rule gives {expected}")
    return checked, bad


def _hyp_enum_block(population: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    for successes in range(population + 1):
        for draws in range(population + 1):
            params = HypParams(population, successes, draws)
            counts, total = _overlaps(population, successes, draws), comb(population, draws)
            running = 0
            for t in range(-1, draws + 2):
                hits = counts[t] if 0 <= t <= draws else 0
                running += hits
                actual = hyp_pmf(params, t)
                checked += 1
                if _off(actual, hits, total):
                    expected = Fraction(hits, total)
                    bad.append(f"pmf({population},{successes},{draws};{t}) = {actual} != {expected}")
                if _off(hyp_cdf(params, t), running, total):
                    bad.append(f"cdf({population},{successes},{draws};{t}) != enumerated cumulative")
    return checked, bad


def _hyp_sum_block(population: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    for successes in range(population + 1):
        for draws in range(population + 1):
            params = HypParams(population, successes, draws)
            pmf = [hyp_pmf(params, t) for t in range(draws + 1)]
            scale = lcm(*(value.denominator for value in pmf))  # C(p, d) or a divisor of it
            checked += 1
            if sum(value.numerator * (scale // value.denominator) for value in pmf) != scale:
                bad.append(f"pmf over ({population},{successes},{draws}) sums to {sum(pmf)}")
            flipped = HypParams(population, draws, successes)
            for t in range(population + 1):
                checked += 1
                if hyp_pmf(params, t) != hyp_pmf(flipped, t):
                    bad.append(f"symmetry broken at ({population},{successes},{draws};{t})")
    return checked, bad


def _hyp_counting_block(seed: int, count: int, m_max: int) -> tuple[int, list[str]]:
    rng = random.Random(seed)
    checked = 0
    bad: list[str] = []
    # Every k-committee of m candidates as a bitmask, enumerated once per block.
    committees = {
        (m, k): [sum(chosen) for chosen in combinations([1 << c for c in range(m)], k)]
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
                    checked += 1
                    if _off(miss, total - reached, total):
                        bad.append(
                            f"m={m} k={k} t={t} |A|={size}: {reached} committees reach the "
                            f"target but the distribution predicts {(1 - miss) * total}"
                        )
    return checked, bad


def _pvc_block(n: int, m: int, sample: int, seed: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    if _all_profiles(n, m, sample) is not None:
        profiles = product(permutations(range(m)), repeat=n)
    else:
        rng = random.Random(seed)
        profiles = [tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(sample)]
    for rankings in profiles:
        profile = RankedProfile(m, rankings)
        checked += 1
        if strong_pvc(profile) != strong_pvc_by_subsets(profile):
            bad.append(f"m={m} rankings={rankings}: scan and subset oracle disagree")
    return checked, bad


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


def _dispatch(task: tuple) -> tuple[int, list[str]]:
    block, args = task
    return block(*args)


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------


def _sweep(block: Callable[..., tuple[int, list[str]]], n_default: int, m_default: int, *lead):
    """Suite builder: one ``block(*lead, n, m, budget)`` task per (n, m) of the sweep.

    A block with one candidate has no threshold and no committee to check,
    so m starts at 2.  The multiset count grows with both n and m, so the
    largest block decides the budget, checked before any task is built.
    """

    def build(n_max, m_max, budget, seed):
        n_max = n_max or n_default
        m_max = m_max or m_default
        budget = budget or 10**6
        if m_max > 1 and _multisets_over(n_max, m_max, budget):
            raise SizeLimitError(
                f"n_max={n_max}, m_max={m_max} would enumerate more than {budget} "
                "voter multisets in one block"
            )
        return [
            (block, (*lead, n, m, budget))
            for m in range(2, m_max + 1)
            for n in range(1, n_max + 1)
        ]

    return build


def _build_hypergeom(n_max, m_max, budget, seed):
    enum_max = m_max or 6
    counting_samples = budget or 50
    seed = seed if seed is not None else 0
    # _hyp_enum_block(p) enumerates the C(p, d) draws once per (s, d) and reads
    # its d + 2 probes t from their histogram.  The budget charges each subset
    # once per probe, as pmf_by_enumeration costs probe by probe:
    # (p + 1) * sum over d of (d + 2) * C(p, d).
    subsets = 0
    for p in range(enum_max + 1):
        subsets += (p + 1) * sum((d + 2) * comb(p, d) for d in range(p + 1))
        if subsets > ENUMERATION_BUDGET:
            raise SizeLimitError(
                f"m_max={enum_max} would enumerate more than {ENUMERATION_BUDGET} subsets"
            )
    # Each sample of _hyp_counting_block tests up to 6 voters against every
    # committee of at most counting_m candidates, 6 * (2**counting_m - 2) pairs.
    counting_m = min(enum_max + 2, 8)
    if counting_samples * 6 * (2**counting_m - 2) > ENUMERATION_BUDGET:
        raise SizeLimitError(
            f"budget={counting_samples} would test more than {ENUMERATION_BUDGET} "
            "(voter, committee) pairs"
        )
    return [
        *((_hyp_enum_block, (p,)) for p in range(enum_max + 1)),
        *((_hyp_sum_block, (p,)) for p in range(enum_max + 5)),
        (_hyp_counting_block, (seed, counting_samples, counting_m)),
    ]


def _build_pvc(n_max, m_max, budget, seed):
    n_max = n_max or 3
    m_max = m_max or 3
    sample = budget or 300
    seed = seed if seed is not None else 0
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
            f"n_max={n_max}, m_max={m_max} would test more than {ENUMERATION_BUDGET} "
            "(candidate, voter group) pairs in one block's subset oracle"
        )
    return [
        (_pvc_block, (n, m, sample, seed + 31 * (n * 17 + m)))
        for m in range(1, m_max + 1)
        for n in range(1, n_max + 1)
    ]


_SUITES = {
    "opt": _sweep(_single_winner_block, 3, 3, "opt"),
    "threshold": _sweep(_single_winner_block, 3, 3, "threshold"),
    "approval": _sweep(_single_winner_block, 3, 3, "approval"),
    "power": _sweep(_single_winner_block, 3, 3, "power"),
    "multiwinner": _sweep(_multiwinner_block, 2, 4),
    "reduction": _sweep(_reduction_block, 3, 3),
    "hypergeom": _build_hypergeom,
    "pvc": _build_pvc,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def _pool_size(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes to start: no more than requested, tasks to run, or CPUs."""
    return max(1, min(jobs, tasks, cpus or 1))


def run_suite(
    name: str,
    jobs: int = 1,
    n_max: int | None = None,
    m_max: int | None = None,
    budget: int | None = None,
    seed: int | None = None,
) -> VerifyResult:
    """Run a named suite, optionally spreading its blocks over ``jobs`` processes."""
    try:
        builder = _SUITES[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ValidationError(f"unknown suite {name!r}; known: {known}") from None
    int_at_least(jobs, "jobs", 1)
    # None selects the suite's default; any other size must be usable, so the
    # builders' ``or`` defaults never see a 0, and a seed may be any int.
    given = (("n_max", n_max, 1), ("m_max", m_max, 1), ("budget", budget, 1), ("seed", seed, None))
    for key, value, low in given:
        if value is not None:
            int_at_least(value, key, low)
    tasks = builder(n_max, m_max, budget, seed)
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(_dispatch, tasks)
    else:
        outcomes = [_dispatch(task) for task in tasks]
    checked = sum(c for c, _ in outcomes)
    violations = tuple(v for _, vs in outcomes for v in vs)[:MAX_VIOLATIONS_KEPT]
    return VerifyResult(name, checked, violations)
