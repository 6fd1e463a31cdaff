"""Adversarial instance generators, exhaustive enumeration, and brute-force oracles.

The generators realize the worst-case constructions behind each guarantee
at explicit finite sizes, so tests can demonstrate tightness instead of
taking limits.  Several return a distinguished "special" candidate that the
construction is engineered around.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, cycle, islice, product
from math import ceil, comb, floor, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    CANDIDATE_LIMIT,
    Committee,
    Constant,
    Frac,
    Instance,
    MultiParams,
    Power,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    WeightFn,
    as_frac,
    check_views,
    comb_over,
    eval_weight,
    index_in,
    int_at_least,
    of_type,
    open_unit,
    shown,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf
from .multi_winner import (
    COMMITTEE_LIMIT,
    _check_committee,
    _check_expansion,
    _check_params,
    committee_score,
    expand_instance,
)
from .single_winner import ScoreVector, grid_theoretical_fvr, ropt_winner, winner

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

# Cap on the approvals, the sum of |A| over all voters (candidate 0's too in a gap construction),
# that a generator may build; time, memory and the size of the file ``fvr gen`` writes grow with it.
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
    i*per_voter mod m, then onward cyclically, so voter i's mask is the window
    2**per_voter - 1 rotated left by i*per_voter mod m within m bits.  The
    masks repeat every m/gcd(m, per_voter) voters.
    """
    int_at_least(n, "n", 1)
    _per_voter(per_voter, int_at_least(m, "m", 1))
    return _built(m, n, n * per_voter, lambda: _spread_masks(n, m, per_voter))


def _spread_masks(n: int, m: int, per_voter: int) -> Iterator[int]:
    """The masks of :func:`gen_spread`, for sizes it has checked."""
    full, window = (1 << m) - 1, (1 << per_voter) - 1
    starts = (i * per_voter % m for i in range(m // gcd(m, per_voter)))
    turns = ((window << r | window >> (m - r)) & full for r in starts)
    return islice(cycle(turns), n)


def _gap_instance(
    m: int, bloc: int, per_bloc: int, rest: int, per_rest: int
) -> tuple[Instance, int]:
    """A gap construction and its special candidate 0: ``bloc`` voters spread
    ``per_bloc`` approvals over candidates 1..m-1 as :func:`gen_spread` does, then
    ``rest`` voters each approve 0 plus ``per_rest`` others, spread the same way.
    The budgets count bloc + rest voters and bloc*per_bloc + rest*(per_rest + 1) approvals."""
    def masks() -> Iterator[int]:
        yield from (mask << 1 for mask in _spread_masks(bloc, m - 1, per_bloc))
        yield from (mask << 1 | 1 for mask in _spread_masks(rest, m - 1, per_rest))

    return _built(m, bloc + rest, bloc * per_bloc + rest * (per_rest + 1), masks), 0


def _approver_size(w: WeightFn, m: int) -> int:
    """The largest k in 1..m-1 maximizing (m-k)*w(k/m): the ballot size whose flexibility
    f = k/m maximizes (1-f)*w(f), the rho of the guarantee rho/(rho+phi) over m candidates.
    Compared exactly by cross-multiplying ``w.ratio``; O(m) calls of it."""
    best, top, bottom = 1, 0, 1
    for k in range(1, m):
        num, den = w.ratio(k, m)
        if (m - k) * num * bottom >= top * den:
            best, top, bottom = k, (m - k) * num, den
    return best


def _family_gap(family: WeightFn, n: int, m: int, s: object, r: object) -> tuple[Instance, int]:
    """Instance pushing the audit at threshold s of the rule weighted by ``family``
    toward r, below the family's guarantee at s.

    A flexible bloc of ceil(r*n) voters spreads ceil(s*m) approvals evenly
    over all candidates except a special one; everyone else approves it plus
    k-1 others, spread the same way, where k is the ballot size maximizing
    (m-k)*w(k/m) (:func:`_approver_size`), the flexibility behind the family's
    guarantee.  The special candidate wins while the whole bloc is s-flexible
    and disapproves it.  A bloc it does not win against is refused: when the
    bloc is over floor(B*n), with B the family's guarantee over m candidates
    (:func:`grid_theoretical_fvr`), the refusal names that largest bloc;
    otherwise it names the spreads' rounding at this n and m.  Returns the
    instance and the special candidate (index 0).
    """
    int_at_least(n, "n", 2)
    int_at_least(m, "m", 2)
    sv, rv = open_unit(s), as_frac(r)
    if not 0 < rv < family.guarantee(sv):
        raise ValidationError(f"need 0 < r < the {family} guarantee at s={shown(sv, str)}, got r={shown(rv, str)}")
    bloc = ceil(rv * n)
    if not 1 <= bloc < n:
        raise ValidationError(f"flexible bloc of size {shown(bloc)} must satisfy 1 <= size < n={shown(n)}")
    per_bloc = ceil(sv * m)
    if per_bloc > m - 1:
        raise ValidationError(
            f"infeasible spread: bloc approves {shown(per_bloc)} of {shown(m - 1)} non-special candidates"
        )
    int_at_least(m, "m", 2, CANDIDATE_LIMIT)  # before the O(m) argmax
    inst, special = _gap_instance(m, bloc, per_bloc, n - bloc, _approver_size(family, m) - 1)
    if winner(inst, family) != special:
        most = floor(grid_theoretical_fvr(family, sv, m) * n)
        why = (
            f"the {family} bound over m={m} candidates allows a bloc of at most {most} of n={n}"
            if bloc > most
            else f"the bloc is within the {family} bound over m={m} candidates, so the loss is the "
            f"spreads' rounding at n={n} and m={m}"
        )
        raise ValidationError(f"the special candidate does not win with a flexible bloc of {bloc}; {why}")
    return inst, special


def gen_approval_gap(n: int, m: int, s: object, r: object) -> tuple[Instance, int]:
    """:func:`_family_gap` for the approval rule: (m-k)*1 is largest at k = 1, so
    everyone outside the bloc bullet-votes the special candidate."""
    return _family_gap(Constant(), n, m, s, r)


def gen_power_gap(n: int, m: int, s: object, r: object, p: int) -> tuple[Instance, int]:
    """:func:`_family_gap` for the p-power rule: everyone outside the bloc approves
    k candidates, the special one included, with k in 1..m-1 maximizing (m-k)*k^p:
    the floor or the ceiling of p*m/(p+1), where (1-f)*f^p peaks, and m-1 when m <= p."""
    return _family_gap(Power(p), n, m, s, r)


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
    _check_voters(int_at_least(n, "n", 1))
    fv, fpv = as_frac(f), as_frac(fprime)
    m = lcm(fv.denominator, fpv.denominator)
    if m > CANDIDATE_LIMIT:
        raise SizeLimitError(
            f"m must be at most {CANDIDATE_LIMIT}, got the lcm of {shown(fv.denominator)} "
            f"and {shown(fpv.denominator)}"
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
    _per_voter(per_voter, int_at_least(m, "m", 1, CANDIDATE_LIMIT))  # m before the slow C(m, per_voter)
    if comb_over(m, per_voter, COMMITTEE_LIMIT):  # C(m, m/2) may be too long to print
        raise SizeLimitError(f"C({m}, {per_voter}) voters exceed the limit {COMMITTEE_LIMIT}")
    voters = comb(m, per_voter)
    return _built(m, voters, voters * per_voter, lambda: _subset_masks(m, per_voter))


def _subset_masks(m: int, k: int) -> Iterator[int]:
    """The mask of every k-subset of candidates 0..m-1, in lexicographic order."""
    return map(sum, combinations([1 << a for a in range(m)], k))


def _per_voter(per_voter: object, m: int) -> None:
    """Refuse approvals per generated voter that are not an int in 0..m."""
    if int_at_least(per_voter, "per-voter approvals") > m:
        raise ValidationError(f"per-voter approvals must be in 0..{m}, got {shown(per_voter)}")


def _check_voters(n: int) -> None:
    """Refuse more than ``COMMITTEE_LIMIT`` generated voters; n is an int already checked."""
    if n > COMMITTEE_LIMIT:
        raise SizeLimitError(f"{shown(n)} voters exceed the limit {COMMITTEE_LIMIT}")


def _built(m: int, n: int, approvals: int, masks: Callable[[], Iterable[int]]) -> Instance:
    """``Instance.from_masks(m, masks())`` once the sizes pass; every generator returns through
    here.  In this order: at most ``COMMITTEE_LIMIT`` voters, m in 1..``CANDIDATE_LIMIT``, at most
    ``APPROVAL_LIMIT`` approvals, then :func:`check_views` on the n*(m+3)-character row string of
    the views.  ``masks`` is called only then, so a refused size builds no mask."""
    _check_voters(n)
    int_at_least(m, "m", 1, CANDIDATE_LIMIT)
    if approvals > APPROVAL_LIMIT:
        raise SizeLimitError(f"{shown(approvals)} approvals exceed the limit {APPROVAL_LIMIT}")
    check_views(n, m)
    return Instance.from_masks(m, masks())


def gen_party_split(k: int, reps: int = 1) -> Instance:
    """Two disjoint slates of k candidates, each backed by half the voters.

    The minimal two-voter version, optionally replicated ``reps`` times, up
    to ``COMMITTEE_LIMIT`` voters in all.  Every voter is 1/2-flexible; the
    instance separates optimality targets at different per-committee
    approval counts.
    """
    int_at_least(k, "slate size k", 2)
    if int_at_least(reps, "replication factor", 1) > COMMITTEE_LIMIT:
        raise SizeLimitError(f"replication factor {shown(reps)} would build more than {COMMITTEE_LIMIT} voters")
    return _built(2 * k, 2 * reps, 2 * reps * k, lambda: [(1 << k) - 1, (1 << 2 * k) - (1 << k)] * reps)


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
    # m is bounded first, so its message precedes the voter count's (pinned by test_cli).
    if int_at_least(m, "m", 0, CANDIDATE_LIMIT) <= k:
        raise ValidationError(f"need m > k, got m={shown(m)}, k={shown(k)}")
    group = m - k + 1
    # k-1 party groups bullet-vote; group pool voters approve group-1 each; built only within budget.
    pool = (1 << m) - (1 << (k - 1))  # candidates k-1..m-1
    party = (mask for j in range(k - 1) for mask in [1 << j] * group)  # one int per party
    rows = (pool ^ (1 << skip) for skip in range(k - 1, m))
    return _built(m, k * group, group * (m - 1), lambda: chain(party, rows))


def gen_random_instance(n: int, m: int, seed: int = DEFAULT_SEED) -> Instance:
    """Seeded uniform profile: each of n <= ``COMMITTEE_LIMIT`` voters
    approves a uniformly random subset of m <= ``CANDIDATE_LIMIT`` candidates.

    n*m, the most approvals the rows can hold, is at most ``APPROVAL_LIMIT``.
    """
    int_at_least(n, "n", 1)
    int_at_least(m, "m", 1)
    int_at_least(seed, "seed", None)
    rng = random.Random(seed)
    # Bit 2**c of a voter's mask is set when she approves candidate c.
    return _built(m, n, n * m, lambda: [rng.getrandbits(m) for _ in range(n)])


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
    generators = _generators()
    if not isinstance(name, str) or name not in generators:
        known = ", ".join(generator_names())
        raise ValidationError(f"unknown generator {shown(name)}; known: {known}")
    if not isinstance(params, Mapping):
        raise ValidationError(f"generator parameters must be a mapping, got {shown(params)}")
    generator, required, optional = generators[name]
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
    if int_at_least(n, "n", 1) * int_at_least(m, "m", 1) >= int_at_least(budget, "budget", 1).bit_length():
        raise SizeLimitError(f"n={shown(n)}, m={shown(m)} would enumerate more than {shown(budget)} profiles")
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
    if _multisets_over(int_at_least(n, "n", 1), int_at_least(m, "m", 1), int_at_least(budget, "budget", 1)):
        raise SizeLimitError(f"n={shown(n)}, m={shown(m)} would enumerate more than {shown(budget)} voter multisets")
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
    try:
        picks = tuple(dict.fromkeys(picks))
    except TypeError:
        raise ValidationError(f"partial committee must hold candidate indices, got {shown(picks)}") from None
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
    for committee in _subset_masks(m, k):
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
    scores = [Fraction(0)] * of_type(inst, Instance, "instance").m
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
    members = frozenset(_check_committee(inst, committee, t))
    k = len(members)
    total = Fraction(0)
    for approved in inst.approvals:
        if len(approved & members) >= t:
            continue
        miss_prob = hyp_cdf(HypParams(inst.m, len(approved), k), t - 1)
        total += 1 / miss_prob
    return total


def reference_sequential_picks(inst: Instance, params: MultiParams) -> tuple[int, ...]:
    """:func:`fvr.multi_winner.sequential_picks`, weighing every voter at every pick."""
    k, t, m, n = _check_params(inst, params).k, params.t, inst.m, inst.n
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
    prefers at least m - ceil(m*g/n) + 1 candidates to ``a``.  Such a group
    exists exactly when, at some depth d in 1..m-1, the x_d voters who rank
    ``a`` outside their top d satisfy x_d*m > (m-d)*n: the FVR check of the
    ballots truncated to their top d.  One pass over the first m-1 choices
    of every voter keeps each count in an int, so the cost is O(n*m).  May
    be empty.
    """
    m, n = of_type(profile, RankedProfile, "profile").m, profile.n
    inside = [0] * m  # voters ranking a within their top d
    kept = set(range(m))
    for d, choices in zip(range(1, m), zip(*profile.rankings)):
        for a in choices:
            inside[a] += 1
        kept = {a for a in kept if (n - inside[a]) * m <= (m - d) * n}
    return frozenset(kept)
