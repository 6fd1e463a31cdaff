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
    Frac,
    Instance,
    Power,
    RankedProfile,
    SizeLimitError,
    ValidationError,
    WeightFn,
    as_frac,
    build_instance,
    eval_weight,
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
from .single_winner import ScoreVector, closed_form_fvr, ropt_winner

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
    "reference_score_all",
    "reference_committee_score",
    "reference_sequential_picks",
    "reference_expanded_rule",
    "strong_pvc",
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


def _require_ints(**values: object) -> None:
    """Reject a non-integer count or seed, such as ``--param L=1/2`` on the command line."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value}")


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
    _require_ints(n=n, m=m, per_voter=per_voter)
    int_at_least(m, "m", 1)
    if not 0 <= per_voter <= m:
        raise ValidationError(f"per-voter approvals must be in 0..{m}, got {per_voter}")
    _check_budget(n, m, n * per_voter)
    window = range(per_voter)
    rows = [[(i * per_voter + j) % m for j in window] for i in range(n)]
    return build_instance(m, rows)


def _shift(inst: Instance) -> list[set[int]]:
    return [{a + 1 for a in approved} for approved in inst.approvals]


def gen_approval_gap(n: int, m: int, s: object, r: object) -> tuple[Instance, int]:
    """Instance pushing the approval rule's audit at threshold s toward r.

    A flexible bloc of ceil(r*n) voters spreads ceil(s*m) approvals evenly
    over all candidates except a special one; everyone else bullet-votes
    the special candidate.  When the sizes work out, the special candidate
    wins on approvals while the whole bloc is s-flexible and disapproves
    it.  Returns the instance and the special candidate (index 0).
    """
    _require_ints(n=n, m=m)
    _check_budget(n, m)
    sv, rv = open_unit(s), as_frac(r)
    if not Frac(0) < rv < 1 / (1 + sv):
        raise ValidationError(f"need 0 < r < 1/(1+s) = {1 / (1 + sv)}, got r={rv}")
    bloc = ceil(rv * n)
    if not 1 <= bloc < n:
        raise ValidationError(f"flexible bloc of size {bloc} must satisfy 1 <= size < n={n}")
    per_voter = ceil(sv * m)
    if per_voter > m - 1:
        raise ValidationError(
            f"bloc voters need ceil(s*m) = {per_voter} <= m-1 = {m - 1} non-special candidates"
        )
    rows = _shift(gen_spread(bloc, m - 1, per_voter))
    rows.extend({0} for _ in range(n - bloc))
    return build_instance(m, rows), 0


def gen_power_gap(n: int, m: int, s: object, r: object, p: int) -> tuple[Instance, int]:
    """Instance pushing the p-power rule's audit at threshold s toward r.

    As in :func:`gen_approval_gap`, a bloc of ceil(r*n) voters spreads
    ceil(s*m) approvals over the non-special candidates.  The remaining
    voters approve the special candidate plus ceil(p*m/(1+p)) - 1 others,
    spread evenly, putting their flexibility at the point maximizing
    f^p*(1-f).  Returns the instance and the special candidate (index 0).
    """
    _require_ints(n=n, m=m)
    _check_budget(n, m)
    sv, rv = as_frac(s), as_frac(r)
    bound = closed_form_fvr(Power(p), sv).value
    if not Frac(0) < rv < bound:
        raise ValidationError(f"need 0 < r < {bound} (the p={p} guarantee at s={sv}), got r={rv}")
    bloc = ceil(rv * n)
    if not 1 <= bloc < n:
        raise ValidationError(f"flexible bloc of size {bloc} must satisfy 1 <= size < n={n}")
    per_bloc = ceil(sv * m)
    per_rest = ceil(Fraction(p, p + 1) * m) - 1
    if per_bloc > m - 1 or per_rest > m - 1 or per_rest < 0:
        raise ValidationError(
            f"infeasible spreads: bloc approves {per_bloc}, others approve {per_rest}, "
            f"of {m - 1} non-special candidates"
        )
    rows = _shift(gen_spread(bloc, m - 1, per_bloc))
    for shifted in _shift(gen_spread(n - bloc, m - 1, per_rest)):
        rows.append(shifted | {0})
    return build_instance(m, rows), 0


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
    _require_ints(n=n)
    fv, fpv = as_frac(f), as_frac(fprime)
    m = lcm(fv.denominator, fpv.denominator)
    _check_budget(n, m)
    wf = eval_weight(w, fv)
    if wf == 0:
        raise ValidationError(f"need w(f) > 0 at f={fv}")
    wfp = eval_weight(w, fpv)
    ell = int(fv * m)
    ell_prime = int(fpv * m)
    gap = ((1 - fv) * wf) / ((1 - fv) * wf + fpv * wfp)
    bloc = floor(gap * n) - m
    if bloc < 0:
        raise ValidationError(
            f"n={n} too small: need floor(g*n) >= m, with g={gap} and m={m}"
        )
    rows = _shift(gen_spread(bloc, m - 1, ell_prime)) if bloc else []
    for shifted in _shift(gen_spread(n - bloc, m - 1, ell - 1)):
        rows.append(shifted | {0})
    return build_instance(m, rows), 0


def gen_symmetric(m: int, per_voter: int) -> Instance:
    """One voter per ``per_voter``-subset of the candidates, in lexicographic order.

    Fully symmetric, so every committee of a given size is t-disapproved by
    exactly the same number of voters.
    """
    _require_ints(m=m, per_voter=per_voter)
    if not 0 <= per_voter <= m:
        raise ValidationError(f"per-voter approvals must be in 0..{m}, got {per_voter}")
    _check_budget(0, m)  # before comb(m, per_voter), which is slow for a huge m
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
    int_at_least(reps, "replication factor", 1)
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
    approves a uniformly random subset of m <= ``CANDIDATE_LIMIT`` candidates."""
    _require_ints(n=n, m=m, seed=seed)
    int_at_least(m, "m", 1)
    _check_budget(n, m)
    if n < 1:
        raise ValidationError("need at least one voter")
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        mask = rng.getrandbits(m)
        rows.append(frozenset(c for c in range(m) if mask >> c & 1))
    # Every index is in 0..m-1 by construction, so build_instance's checks are skipped.
    return Instance(m, tuple(rows))


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


def _all_subsets(m: int) -> list[frozenset[int]]:
    return [frozenset(c for c in range(m) if mask >> c & 1) for mask in range(2**m)]


def enumerate_instances(n: int, m: int, budget: int = ENUMERATION_BUDGET) -> Iterator[Instance]:
    """Every approval profile with n voters and m candidates, exactly once.

    Canonical order: each voter's set is indexed by its bitmask (candidate
    c contributes 2**c), and profiles tick through like an odometer with
    the last voter's set varying fastest.
    """
    total = (2**m) ** n
    if total > budget:
        raise SizeLimitError(f"{total} profiles exceed the budget {budget}")
    subsets = _all_subsets(m)
    for rows in product(subsets, repeat=n):
        yield Instance(m, rows)


def enumerate_voter_multisets(
    n: int, m: int, budget: int = ENUMERATION_BUDGET
) -> Iterator[Instance]:
    """One representative per profile-up-to-voter-order.

    Winners, committee rules, and audit counts are all invariant under
    permuting voters, so sweeping these representatives checks every
    ordered profile while enumerating far fewer instances.
    """
    total = comb(2**m + n - 1, n)
    if total > budget:
        raise SizeLimitError(f"{total} voter multisets exceed the budget {budget}")
    subsets = _all_subsets(m)
    for rows in combinations_with_replacement(subsets, n):
        yield Instance(m, rows)


def conditional_expected_score(inst: Instance, params: MultiParams, partial: object = ()) -> Frac:
    """Average committee penalty over all k-committees containing ``partial``.

    With an empty prefix this equals the number of voters that can miss
    their approval target at all; pinning a full committee reproduces its
    exact penalty.  The sequential rule's picks drive this quantity
    monotonically downward.
    """
    _check_expansion(inst, params)
    base = tuple(sorted(set(partial)))
    for a in base:
        if int_at_least(a, "partial committee member") >= inst.m:
            raise ValidationError(f"partial committee member {a!r} outside 0..{inst.m - 1}")
    if len(base) > params.k:
        raise ValidationError(f"partial committee has {len(base)} members, more than k={params.k}")
    rest = [a for a in range(inst.m) if a not in base]
    need = params.k - len(base)
    total = Fraction(0)
    count = 0
    for extra in combinations(rest, need):
        total += committee_score(inst, Committee(base + extra), params.t)
        count += 1
    return total / count


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
