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
  random instances for the committee-counting identity, for ``pvc`` the
  number of sampled profiles per shape.
- ``seed``: seed for sampled checks.

``n_max``, ``m_max`` and ``budget`` must be positive integers when given.

Every suite checks its size budget before it builds or runs any block, and
raises ``SizeLimitError`` when its largest block would exceed it: the voter
multisets of one sweep block, the ``hypergeom`` subsets, or the voter groups
that the ``pvc`` subset oracle tries (against ``ENUMERATION_BUDGET``).
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, comb

from .core import (
    Committee,
    Frac,
    Instance,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    build_instance,
    flexibility_grid,
    int_at_least,
    parse_family,
    record,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf, miss_prob, multiwinner_bound
from .multi_winner import (
    MultiParams,
    committee_score,
    empirical_fvr_committee,
    expanded_rule,
    sequential_picks,
)
from .oracles import (
    ENUMERATION_BUDGET,
    conditional_expected_score,
    enumerate_voter_multisets,
    strong_pvc,
)
from .single_winner import closed_form_fvr, empirical_fvr_point, ropt_winner, winner

__all__ = [
    "VerifyResult",
    "SUITE_NAMES",
    "run_suite",
    "pmf_by_enumeration",
    "strong_pvc_by_subsets",
]

MAX_VIOLATIONS_KEPT = 50


@record(frozen=False)
class VerifyResult:
    suite: str
    checked: int
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def pmf_by_enumeration(population: int, successes: int, draws: int, t: int) -> Frac:
    """Hypergeometric mass by counting subsets directly."""
    good = set(range(successes))
    hits = sum(
        1 for chosen in combinations(range(population), draws) if len(good.intersection(chosen)) == t
    )
    return Fraction(hits, comb(population, draws))


def strong_pvc_by_subsets(profile: RankedProfile) -> frozenset[int]:
    """Veto-core membership by enumerating every voter group explicitly."""
    m, n = profile.m, profile.n
    positions = [{a: pos for pos, a in enumerate(ranking)} for ranking in profile.rankings]
    vetoed: set[int] = set()
    for a in range(m):
        done = False
        for size in range(1, n + 1):
            cutoff = m - ceil(Fraction(m * size, n)) + 1
            for group in combinations(range(n), size):
                if all(positions[i][a] >= cutoff for i in group):
                    vetoed.add(a)
                    done = True
                    break
            if done:
                break
    return frozenset(range(m)) - vetoed


# ---------------------------------------------------------------------------
# Block runners (top-level, so a task naming one pickles by reference)
# ---------------------------------------------------------------------------


def _profile(inst: Instance) -> list[list[int]]:
    """The approval sets as sorted lists, for a violation message; decoded only then."""
    return [sorted(A) for A in inst.approvals]


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
        bounded.append((label, family, [(s, closed_form_fvr(family, s).value) for s in thresholds]))
    checked = 0
    bad: list[str] = []
    for inst in enumerate_voter_multisets(n, m, budget):
        for label, family, bounds in bounded:
            chosen = winner(inst, family)
            for s, bound in bounds:
                audit = empirical_fvr_point(inst, chosen, s)
                checked += 1
                if audit > bound:
                    bad.append(
                        f"{label} n={n} m={m} approvals={_profile(inst)} "
                        f"s={s}: audit {audit} exceeds {bound}"
                    )
    return checked, bad


def _multiwinner_block(n: int, m: int, budget: int) -> tuple[int, list[str]]:
    # The bounds depend on (k, t, s) only, not on the instance.
    bounds = {
        (k, t): [(s, multiwinner_bound(m, s, k, t)) for s in flexibility_grid(m)]
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
                previous = conditional_expected_score(inst, params, ())
                includable = sum(1 for A in inst.approvals if miss_prob(m, len(A), k, t) > 0)
                checked += 1
                if previous != includable:
                    bad.append(
                        f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: average penalty "
                        f"over all committees is {previous}, not the {includable} includable voters"
                    )
                for j in range(1, k + 1):
                    current = conditional_expected_score(inst, params, picks[:j])
                    checked += 1
                    if current > previous:
                        bad.append(
                            f"n={n} m={m} k={k} t={t} approvals={_profile(inst)}: conditional "
                            f"expectation rose from {previous} to {current} at pick {j}"
                        )
                    previous = current
                exp_committee = expanded_rule(inst, params)
                for s, bound in bounds[k, t]:
                    for name, committee in (("seq", seq_committee), ("expanded", exp_committee)):
                        audit = empirical_fvr_committee(inst, committee, s, t)
                        checked += 1
                        if audit > bound:
                            bad.append(
                                f"{name} n={n} m={m} k={k} t={t} s={s} "
                                f"approvals={_profile(inst)}: audit {audit} exceeds {bound}"
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
            running = Fraction(0)
            for t in range(-1, draws + 2):
                expected = pmf_by_enumeration(population, successes, draws, t) if t >= 0 else Fraction(0)
                actual = hyp_pmf(params, t)
                checked += 1
                if actual != expected:
                    bad.append(f"pmf({population},{successes},{draws};{t}) = {actual} != {expected}")
                running += expected
                if hyp_cdf(params, t) != (running if t >= 0 else Fraction(0)):
                    bad.append(f"cdf({population},{successes},{draws};{t}) != enumerated cumulative")
    return checked, bad


def _hyp_sum_block(population: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    for successes in range(population + 1):
        for draws in range(population + 1):
            params = HypParams(population, successes, draws)
            total = sum(hyp_pmf(params, t) for t in range(draws + 1))
            checked += 1
            if total != 1:
                bad.append(f"pmf over ({population},{successes},{draws}) sums to {total}")
            flipped = HypParams(population, draws, successes)
            for t in range(population + 1):
                checked += 1
                if hyp_pmf(params, t) != hyp_pmf(flipped, t):
                    bad.append(
                        f"symmetry broken at ({population},{successes},{draws};{t})"
                    )
    return checked, bad


def _hyp_counting_block(seed: int, count: int, m_max: int) -> tuple[int, list[str]]:
    rng = random.Random(seed)
    checked = 0
    bad: list[str] = []
    for _ in range(count):
        m = rng.randint(2, m_max)
        n = rng.randint(1, 6)
        inst = build_instance(
            m, [{c for c in range(m) if rng.getrandbits(1)} for _ in range(n)]
        )
        for approved in inst.approvals:
            size = len(approved)
            for k in range(1, m):
                histogram = [0] * (k + 1)
                for members in combinations(range(m), k):
                    histogram[len(approved.intersection(members))] += 1
                reached = comb(m, k)
                for t in range(1, k + 1):
                    reached -= histogram[t - 1]
                    expected = (1 - hyp_cdf(HypParams(m, size, k), t - 1)) * comb(m, k)
                    checked += 1
                    if reached != expected:
                        bad.append(
                            f"m={m} k={k} t={t} |A|={size}: {reached} committees reach the "
                            f"target but the distribution predicts {expected}"
                        )
    return checked, bad


def _pvc_block(n: int, m: int, sample: int, seed: int) -> tuple[int, list[str]]:
    checked = 0
    bad: list[str] = []
    if _all_profiles(n, m, sample) is not None:
        profiles = product(permutations(range(m)), repeat=n)
    else:
        rng = random.Random(seed)
        profiles = [
            tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(sample)
        ]
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


def _multisets_over(n: int, m: int, budget: int) -> bool:
    """Whether the C(2**m + n - 1, n) voter multisets of shape (n, m) exceed ``budget``.

    The count is at least 2**m, so a large m is refused before 2**m is
    built.  Otherwise it is C(cells + n, k) with cells = 2**m - 1 and
    k = min(n, cells), built as C(cells + n - k + j, j) for j = 1..k; each
    step at least doubles it, so the loop stops within
    ``budget.bit_length() + 1`` steps.
    """
    if m >= budget.bit_length():
        return True
    cells = 2**m - 1
    k = min(n, cells)
    count = 1
    for j in range(1, k + 1):
        count = count * (cells + n - k + j) // j
        if count > budget:
            return True
    return False


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
    # _hyp_enum_block(p) enumerates the C(p, d) draws once per probe t >= 0:
    # (p + 1) * sum over d of (d + 2) * C(p, d) subsets.
    subsets = 0
    for p in range(enum_max + 1):
        subsets += (p + 1) * sum((d + 2) * comb(p, d) for d in range(p + 1))
        if subsets > ENUMERATION_BUDGET:
            raise SizeLimitError(
                f"m_max={enum_max} would enumerate more than {ENUMERATION_BUDGET} subsets"
            )
    return [
        *((_hyp_enum_block, (p,)) for p in range(enum_max + 1)),
        *((_hyp_sum_block, (p,)) for p in range(enum_max + 5)),
        (_hyp_counting_block, (seed, counting_samples, min(enum_max + 2, 8))),
    ]


def _build_pvc(n_max, m_max, budget, seed):
    n_max = n_max or 3
    m_max = m_max or 3
    sample = budget or 300
    seed = seed if seed is not None else 0
    # strong_pvc_by_subsets tries up to m * (2**n - 1) voter groups per
    # profile, and the largest block tries the most.  An n whose 2**n - 1
    # alone exceeds the budget is refused before 2**n is built.
    if (
        n_max > ENUMERATION_BUDGET.bit_length()
        or m_max * (2**n_max - 1) * (_all_profiles(n_max, m_max, sample) or sample)
        > ENUMERATION_BUDGET
    ):
        raise SizeLimitError(
            f"n_max={n_max}, m_max={m_max} would try more than {ENUMERATION_BUDGET} "
            "voter groups in one block's subset oracle"
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
    # None selects the suite's default; any other value must be a usable size,
    # so the builders' ``or`` defaults never see a 0.
    for key, value in (("n_max", n_max), ("m_max", m_max), ("budget", budget)):
        if value is not None:
            int_at_least(value, key, 1)
    tasks = builder(n_max, m_max, budget, seed)
    workers = _pool_size(jobs, len(tasks), os.cpu_count())
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(_dispatch, tasks)
    else:
        outcomes = [_dispatch(task) for task in tasks]
    checked = sum(c for c, _ in outcomes)
    violations = [v for _, vs in outcomes for v in vs][:MAX_VIOLATIONS_KEPT]
    return VerifyResult(name, checked, violations)
