"""Adversarial instance generators, exhaustive enumeration, and brute-force oracles.

The generators realize the worst-case constructions behind each guarantee
at explicit finite sizes, so tests can demonstrate tightness instead of
taking limits.  Several return a distinguished "special" candidate that the
construction is engineered around.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import ceil, comb, floor, lcm
from typing import Callable, Iterator, Mapping

from .core import (
    CANDIDATE_LIMIT,
    Committee,
    Constant,
    Frac,
    Instance,
    Power,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    WeightFn,
    as_frac,
    build_instance,
    comb_over,
    eval_weight,
    index_in,
    int_at_least,
    open_unit,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf
from .multi_winner import (
    COMMITTEE_LIMIT,
    MultiParams,
    _check_committee,
    _check_expansion,
    _check_k,
    committee_score,
    expand_instance,
)
from .single_winner import ScoreVector, ropt_winner

__all__ = [
    "DEFAULT_SEED",
    "ENUMERATION_BUDGET",
    "APPROVAL_LIMIT",
    "run_generator",
    "generator_names",
    "gen_spread",
    "gen_approval_gap",
    "gen_power_gap",
    "gen_weight_gap",
    "gen_symmetric",
    "gen_party_split",
    "gen_jr_hard",
    "gen_random_instance",
    "enumerate_instances",
    "enumerate_voter_multisets",
    "conditional_expected_score",
    "conditional_expected_scores",
    "reference_score_all",
    "reference_committee_score",
    "reference_sequential_picks",
    "reference_expanded_rule",
    "strong_pvc",
    "committee_score",  # re-exported: perfbench/tests reads the kernel from this module
]

# Seed used by the uniform-approval generator when none is given, so that
# "random" fixtures are reproducible byte for byte.
DEFAULT_SEED = 2718

ENUMERATION_BUDGET = 10**6

# Cap on the approvals (the sum of |A| over voters) that a generator may
# build; time, memory and the size of the file ``fvr gen`` writes grow with it.
APPROVAL_LIMIT = 10**6


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_spread(n: int, m: int, per_voter: int) -> Instance:
    """Voters take turns approving the ``per_voter`` least-approved candidates.

    Ties break toward the lowest index.  The greedy turn order keeps all
    approval counts within one of each other, so no candidate ends up with
    more than ceil(n*per_voter/m) approvals.

    The greedy turns are a window sliding round the candidates: after i
    voters, the least-approved candidates in (count, index) order are
    i*per_voter mod m, then onward cyclically, so voter i approves the
    ``per_voter`` candidates from there.  Cost: O(n*per_voter).
    """
    int_at_least(n, "n", 1)
    int_at_least(m, "m", 1)
    if int_at_least(per_voter, "per-voter approvals") > m:
        raise ValidationError(f"per-voter approvals must be in 0..{m}, got {per_voter}")
    _check_budget(n, m, n * per_voter)
    window = range(per_voter)
    rows = [[(i * per_voter + j) % m for j in window] for i in range(n)]
    return build_instance(m, rows)


def _gap_instance(
    m: int, bloc: int, per_bloc: int, rest: int, per_rest: int
) -> tuple[Instance, int]:
    """A gap construction and its special candidate 0: ``bloc`` voters spread
    ``per_bloc`` approvals over candidates 1..m-1 as :func:`gen_spread` does, then
    ``rest`` voters each approve 0 plus ``per_rest`` others, spread the same way."""
    masks = [mask << 1 for mask in gen_spread(bloc, m - 1, per_bloc).masks] if bloc else []
    masks += [mask << 1 | 1 for mask in gen_spread(rest, m - 1, per_rest).masks]
    return Instance.from_masks(m, masks), 0


def _family_gap(
    family: WeightFn, per_rest: Callable[[int], int], n: int, m: int, s: object, r: object
) -> tuple[Instance, int]:
    """Instance pushing the audit at threshold s of the rule weighted by ``family``
    toward r, below the family's guarantee at s.

    A flexible bloc of ceil(r*n) voters spreads ceil(s*m) approvals evenly
    over all candidates except a special one; everyone else approves it plus
    ``per_rest(m)`` others.  When the sizes work out, the special candidate
    wins while the whole bloc is s-flexible and disapproves it.  Returns the
    instance and the special candidate (index 0).
    """
    int_at_least(n, "n", 2)
    int_at_least(m, "m", 2)
    _check_budget(n, m)
    sv, rv = open_unit(s), as_frac(r)
    if not 0 < rv < family.guarantee(sv):
        raise ValidationError(f"need 0 < r < the {family} guarantee at s={sv}, got r={rv}")
    bloc = ceil(rv * n)
    if not 1 <= bloc < n:
        raise ValidationError(f"flexible bloc of size {bloc} must satisfy 1 <= size < n={n}")
    per_bloc, rest = ceil(sv * m), per_rest(m)
    if per_bloc > m - 1 or not 0 <= rest <= m - 1:
        raise ValidationError(
            f"infeasible spreads: bloc approves {per_bloc}, others approve {rest}, "
            f"of {m - 1} non-special candidates"
        )
    return _gap_instance(m, bloc, per_bloc, n - bloc, rest)


def gen_approval_gap(n: int, m: int, s: object, r: object) -> tuple[Instance, int]:
    """:func:`_family_gap` for the approval rule: everyone outside the bloc
    bullet-votes the special candidate."""
    return _family_gap(Constant(), lambda m: 0, n, m, s, r)


def gen_power_gap(n: int, m: int, s: object, r: object, p: int) -> tuple[Instance, int]:
    """:func:`_family_gap` for the p-power rule: everyone outside the bloc approves
    ceil(p*m/(1+p)) candidates, the special one included, putting their
    flexibility at the point maximizing f^p*(1-f)."""
    return _family_gap(Power(p), lambda m: ceil(Fraction(p, p + 1) * m) - 1, n, m, s, r)


def gen_weight_gap(w: WeightFn, f: object, fprime: object, n: int) -> tuple[Instance, int]:
    """Instance pushing an arbitrary scoring rule's audit toward
    g = (1-f)w(f) / ((1-f)w(f) + f'w(f')).

    Uses the least m making both m*f and m*f' integral.  A bloc of
    floor(g*n) - m voters approves m*f' non-special candidates (flexibility
    f', disapproving the special candidate); the rest approve the special
    candidate plus m*f - 1 others (flexibility f).  The special candidate
    wins under the rule weighted by ``w`` for every valid n, so the audit
    at threshold f' is the bloc share, which approaches g from below.
    Returns the instance and the special candidate (index 0).
    """
    int_at_least(n, "n", 1)
    fv, fpv = as_frac(f), as_frac(fprime)
    m = lcm(fv.denominator, fpv.denominator)
    _check_budget(n)
    # m, like g below, is built from two inputs and may be too long to print.
    if m > CANDIDATE_LIMIT:
        raise SizeLimitError(
            f"m must be at most {CANDIDATE_LIMIT}, got the lcm of {fv.denominator} "
            f"and {fpv.denominator}"
        )
    wf = eval_weight(w, fv)
    if wf == 0:
        raise ValidationError(f"need w(f) > 0 at f={fv}")
    wfp = eval_weight(w, fpv)
    gap = ((1 - fv) * wf) / ((1 - fv) * wf + fpv * wfp)
    bloc = floor(gap * n) - m
    if bloc < 0:
        raise ValidationError(
            f"n={n} too small: need floor(g*n) >= m={m}, "
            "with g = (1-f)w(f) / ((1-f)w(f) + f'w(f'))"
        )
    return _gap_instance(m, bloc, int(fpv * m), n - bloc, int(fv * m) - 1)


def gen_symmetric(m: int, per_voter: int) -> Instance:
    """One voter per ``per_voter``-subset of the candidates, in lexicographic order.

    Fully symmetric, so every committee of a given size is t-disapproved by
    exactly the same number of voters.
    """
    int_at_least(m, "m", 1)
    if int_at_least(per_voter, "per-voter approvals") > m:
        raise ValidationError(f"per-voter approvals must be in 0..{m}, got {per_voter}")
    _check_budget(0, m)  # before C(m, per_voter), which is slow for a huge m
    if comb_over(m, per_voter, COMMITTEE_LIMIT):  # C(m, m/2) may be too long to print
        raise SizeLimitError(f"C({m}, {per_voter}) voters exceed the limit {COMMITTEE_LIMIT}")
    voters = comb(m, per_voter)
    _check_budget(voters, approvals=voters * per_voter)
    return build_instance(m, combinations(range(m), per_voter))


def _check_budget(voters: int, m: int = 0, approvals: int = 0) -> None:
    """Reject a generator's sizes before it builds any row.

    In this order: at most ``COMMITTEE_LIMIT`` voters, ``CANDIDATE_LIMIT``
    candidates and ``APPROVAL_LIMIT`` approvals in all.
    """
    if voters > COMMITTEE_LIMIT:
        raise SizeLimitError(f"{voters} voters exceed the limit {COMMITTEE_LIMIT}")
    if m > CANDIDATE_LIMIT:
        raise SizeLimitError(f"m must be at most {CANDIDATE_LIMIT}, got {m}")
    if approvals > APPROVAL_LIMIT:
        raise SizeLimitError(f"{approvals} approvals exceed the limit {APPROVAL_LIMIT}")


def gen_party_split(k: int, reps: int = 1) -> Instance:
    """Two disjoint slates of k candidates, each backed by half the voters.

    The minimal two-voter version, optionally replicated ``reps`` times, up
    to ``COMMITTEE_LIMIT`` voters in all.  Every voter is 1/2-flexible; the
    instance separates optimality targets at different per-committee
    approval counts.
    """
    int_at_least(k, "slate size k", 2)
    # reps first: 2 * reps may be a numeral too long to print.
    if int_at_least(reps, "replication factor", 1) > COMMITTEE_LIMIT:
        raise SizeLimitError(f"replication factor {reps} would build more than {COMMITTEE_LIMIT} voters")
    _check_budget(2 * reps, 2 * k, 2 * reps * k)
    first = set(range(k))
    second = set(range(k, 2 * k))
    return build_instance(2 * k, [first, second] * reps)


def gen_jr_hard(m: int, k: int) -> Instance:
    """Instance where justified representation forces a near-worst audit.

    Candidates split into k-1 singleton-party candidates and a shared pool
    of m-k+1; there are k voter groups of size m-k+1.  Group j < k
    bullet-votes its party candidate; the last group's voters each approve
    the whole pool minus one distinct candidate.  Any committee satisfying
    justified representation must seat every party candidate, leaving one
    pool seat that some highly flexible pool voter disapproves.
    """
    int_at_least(k, "k", 2)
    if int_at_least(m, "m") <= k:
        raise ValidationError(f"need m > k, got m={m!r}, k={k!r}")
    group = m - k + 1
    # k-1 party groups bullet-vote; group pool voters approve group-1 each.
    # m first, so that the voter count k*group is short enough to print.
    _check_budget(0, m)
    _check_budget(k * group, m, group * (m - 1))
    rows: list[set[int]] = []
    for j in range(k - 1):
        rows.extend({j} for _ in range(group))
    pool = list(range(k - 1, m))
    for skip in pool:
        rows.append(set(pool) - {skip})
    return build_instance(m, rows)


def gen_random_instance(n: int, m: int, seed: int = DEFAULT_SEED) -> Instance:
    """Seeded uniform profile: each of n <= ``COMMITTEE_LIMIT`` voters
    approves a uniformly random subset of m <= ``CANDIDATE_LIMIT`` candidates.

    n*m, the most approvals the rows can hold, is at most ``APPROVAL_LIMIT``.
    """
    int_at_least(n, "n", 1)
    int_at_least(m, "m", 1)
    int_at_least(seed, "seed", None)
    _check_budget(n, m, n * m)
    rng = random.Random(seed)
    # Bit 2**c of a voter's mask is set when she approves candidate c.
    return Instance.from_masks(m, [rng.getrandbits(m) for _ in range(n)])


# ---------------------------------------------------------------------------
# Named generator registry (used by the CLI).
# ---------------------------------------------------------------------------


def _generators() -> dict[str, tuple[Callable, tuple[str, ...], dict[str, object]]]:
    """Generator by name: (function, required parameters, optional parameters
    with defaults), each passed positionally in that order.

    Built per call, so a call reaches whatever the module attribute names at
    that time, such as a wrapper that a tracer or a test put in its place.
    """
    return {
        "spread": (gen_spread, ("n", "m", "L"), {}),
        "approval_gap": (gen_approval_gap, ("n", "m", "s", "r"), {}),
        "power_gap": (gen_power_gap, ("n", "m", "s", "r", "p"), {}),
        "weight_gap": (gen_weight_gap, ("w", "f", "fprime", "n"), {}),
        "symmetric": (gen_symmetric, ("m", "L"), {}),
        "party_split": (gen_party_split, ("k",), {"reps": 1}),
        "jr_hard": (gen_jr_hard, ("m", "k"), {}),
        "random": (gen_random_instance, ("n", "m"), {"seed": DEFAULT_SEED}),
    }


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_generators()))


def run_generator(name: str, params: Mapping[str, object]) -> tuple[Instance, int | None]:
    """Build the named instance; returns (instance, special candidate or None)."""
    try:
        generator, required, optional = _generators()[name]
    except KeyError:
        known = ", ".join(generator_names())
        raise ValidationError(f"unknown generator {name!r}; known: {known}") from None
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown parameter(s) for {name}: {sorted(unknown)}")
    missing = [key for key in required if key not in params]
    if missing:
        raise ValidationError(f"missing parameter(s) for {name}: {missing}")
    result = generator(
        *(params[key] for key in required),
        *(params.get(key, default) for key, default in optional.items()),
    )
    return result if isinstance(result, tuple) else (result, None)


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_instances(n: int, m: int, budget: int = ENUMERATION_BUDGET) -> Iterator[Instance]:
    """Every approval profile with n voters and m candidates, exactly once.

    Canonical order: each voter's set is indexed by its bitmask (candidate
    c contributes 2**c), and profiles tick through like an odometer with
    the last voter's set varying fastest.  The budget is checked at the call:
    (2**m)**n > budget exactly when m*n >= budget.bit_length().
    """
    if int_at_least(n, "n", 1) * int_at_least(m, "m", 1) >= budget.bit_length():
        raise SizeLimitError(f"n={n}, m={m} would enumerate more than {budget} profiles")
    return (Instance.from_masks(m, masks) for masks in product(range(2**m), repeat=n))


def _multisets_over(n: int, m: int, budget: int) -> bool:
    """Whether the C(2**m + n - 1, n) >= 2**m voter multisets of shape (n >= 1, m)
    exceed ``budget``; a large m is refused before 2**m is built."""
    return m >= budget.bit_length() or comb_over(2**m + n - 1, n, budget)


def enumerate_voter_multisets(
    n: int, m: int, budget: int = ENUMERATION_BUDGET
) -> Iterator[Instance]:
    """One representative per profile-up-to-voter-order, n >= 1 (budget checked at the call).

    Winners, committee rules, and audit counts are all invariant under
    permuting voters, so sweeping these representatives checks every
    ordered profile while enumerating far fewer instances.
    """
    if _multisets_over(int_at_least(n, "n", 1), int_at_least(m, "m", 1), budget):
        raise SizeLimitError(f"n={n}, m={m} would enumerate more than {budget} voter multisets")
    return (Instance.from_masks(m, masks) for masks in combinations_with_replacement(range(2**m), n))


def conditional_expected_scores(inst: Instance, params: MultiParams, picks: object = ()) -> list[Frac]:
    """Average committee penalty over the k-committees containing each prefix of ``picks``.

    Entry j is, summed over the voters whose miss probability
    miss = hyp_cdf(m, |A|, k; t-1) is positive, her share of the C(m-j, k-j)
    completions of picks[:j] that leave her below t, over miss (repeated picks
    count once).  With no picks it is the number of such voters, a full
    committee gives its :func:`reference_committee_score`, and the sequential
    rule's picks never raise it.  One pass over the C(m, k) committees
    counts every prefix, as ints over one scale; only ``hyp_cdf`` and the
    approval sets are read, never the committee kernels.
    """
    _check_expansion(inst, params)
    picks = tuple(dict.fromkeys(picks))
    for a in picks:
        index_in(a, inst.m, "partial committee member")
    m, k, t = inst.m, params.k, params.t
    if len(picks) > k:
        raise ValidationError(f"partial committee has {len(picks)} members, more than k={k}")
    misses = [(A, miss) for A in inst.approvals if (miss := hyp_cdf(HypParams(m, len(A), k), t - 1))]
    scale = lcm(*(miss.numerator for _, miss in misses))
    # Each voter who can miss t: her approvals as a mask, and scale / miss.
    costs = [(sum(1 << a for a in A), miss.denominator * scale // miss.numerator) for A, miss in misses]
    # short[j]: the cost of the voters left short, summed over the committees
    # whose longest prefix of ``picks`` is picks[:j].
    short = [0] * (len(picks) + 1)
    for members in combinations([1 << a for a in range(m)], k):
        committee = sum(members)
        j = next((j for j, a in enumerate(picks) if not committee >> a & 1), len(picks))
        short[j] += sum(cost for approved, cost in costs if (approved & committee).bit_count() < t)
    return [Fraction(sum(short[j:]), scale * comb(m - j, k - j)) for j in range(len(picks) + 1)]


def conditional_expected_score(inst: Instance, params: MultiParams, partial: object = ()) -> Frac:
    """Average committee penalty over the k-committees containing ``partial``."""
    return conditional_expected_scores(inst, params, partial)[-1]


# ---------------------------------------------------------------------------
# Reference loops: one exact Fraction addition per approval.  The class-count
# kernels in single_winner and multi_winner must agree with these exactly.
# ---------------------------------------------------------------------------


def reference_score_all(inst: Instance, w: WeightFn) -> ScoreVector:
    """:func:`fvr.single_winner.score_all`, adding each voter's weight one approval at a time."""
    scores = [Fraction(0)] * inst.m
    weight_by_size: dict[int, Frac] = {}
    for approved in inst.approvals:
        size = len(approved)
        if size == 0 or size == inst.m:
            continue
        wv = weight_by_size.get(size)
        if wv is None:
            wv = eval_weight(w, Fraction(size, inst.m))
            weight_by_size[size] = wv
        if wv == 0:
            continue
        for a in approved:
            scores[a] += wv
    return tuple(scores)


def reference_committee_score(inst: Instance, committee: Committee, t: int) -> Frac:
    """:func:`fvr.multi_winner.committee_score`, one reciprocal per voter left short."""
    members = _check_committee(inst, committee, t)
    k = len(members)
    total = Fraction(0)
    for approved in inst.approvals:
        if len(approved & members) >= t:
            continue
        miss_prob = hyp_cdf(HypParams(inst.m, len(approved), k), t - 1)
        if miss_prob == 0:
            continue
        total += 1 / miss_prob
    return total


def reference_sequential_picks(inst: Instance, params: MultiParams) -> tuple[int, ...]:
    """:func:`fvr.multi_winner.sequential_picks`, weighing every voter at every pick."""
    _check_k(inst, params.k)
    m, k, t, n = inst.m, params.k, params.t, inst.n
    miss_prob = [hyp_cdf(HypParams(m, len(A), k), t - 1) for A in inst.approvals]
    chosen: list[int] = []
    chosen_set: set[int] = set()
    overlap = [0] * n
    for j in range(1, k + 1):
        scores = [Fraction(0)] * m
        for i, approved in enumerate(inst.approvals):
            remaining = len(approved) - overlap[i]
            if remaining == 0 or miss_prob[i] == 0:
                continue
            if remaining > m - j:
                continue
            weight = (
                hyp_pmf(HypParams(m - j - 1, remaining - 1, k - j), t - 1 - overlap[i])
                / miss_prob[i]
            )
            if weight == 0:
                continue
            for a in approved:
                if a not in chosen_set:
                    scores[a] += weight
        best = None
        for a in range(m):
            if a in chosen_set:
                continue
            if best is None or scores[a] > scores[best]:
                best = a
        assert best is not None
        chosen.append(best)
        chosen_set.add(best)
        for i, approved in enumerate(inst.approvals):
            if best in approved:
                overlap[i] += 1
    return tuple(chosen)


def reference_expanded_rule(inst: Instance, params: MultiParams) -> Committee:
    """:func:`fvr.multi_winner.expanded_rule`, running the optimal single-winner
    rule on the explicitly built committee-as-candidate instance."""
    exp = expand_instance(inst, params)
    return Committee(exp.committees[ropt_winner(exp.expanded)])


# ---------------------------------------------------------------------------
# Strong proportional veto core (ranked ballots)
# ---------------------------------------------------------------------------


def strong_pvc(profile: RankedProfile) -> frozenset[int]:
    """Candidates not weakly vetoed by any voter group.

    A group of g voters weakly vetoes candidate ``a`` when every member
    prefers at least m - ceil(m*g/n) + 1 candidates to ``a``.  Only the
    count of voters past the positional cutoff matters, so such a group
    exists exactly when the g-th largest position of ``a`` reaches the
    cutoff; checking that for every g is equivalent to enumerating
    subsets.  May be empty.
    """
    m, n = profile.m, profile.n
    positions = [{a: pos for pos, a in enumerate(ranking)} for ranking in profile.rankings]
    # m - ceil(m*g/n) + 1 for g = 1..n in ints, as (m*g) // -n is -ceil(m*g/n).
    cutoffs = [m + (m * g) // -n + 1 for g in range(1, n + 1)]
    surviving = set(range(m))
    for a in range(m):
        column = sorted((pos[a] for pos in positions), reverse=True)
        if any(pos >= cutoff for pos, cutoff in zip(column, cutoffs)):
            surviving.discard(a)
    return frozenset(surviving)
