"""Exact hypergeometric distribution, plus the random-committee bound built on it.

The distribution of the overlap between a voter's approval set and a
uniformly random fixed-size committee is hypergeometric; every multi-winner
guarantee in this package reduces to its cumulative function.  All values
are exact rationals computed with arbitrary-precision binomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .core import Frac, ValidationError, flexible_size, int_at_least, open_unit, record

__all__ = ["HypParams", "hyp_pmf", "hyp_cdf", "miss_prob", "multiwinner_bound"]


@record
class HypParams:
    """Population size, number of successes in it, and draw size."""

    population: int
    successes: int
    draws: int

    def __post_init__(self) -> None:
        p, k, d = self.population, self.successes, self.draws
        if type(p) is type(k) is type(d) is int and 0 <= k <= p and 0 <= d <= p:
            return  # valid: the checks below only word what is wrong
        for name, v in (("population", p), ("successes", k), ("draws", d)):
            int_at_least(v, name)
        if k > p:
            raise ValidationError(f"successes {k} cannot exceed population {p}")
        if d > p:
            raise ValidationError(f"draws {d} cannot exceed population {p}")


@lru_cache(maxsize=None)
def _pmf(population: int, successes: int, draws: int, t: int) -> Frac:
    if t < 0 or t > draws or t > successes or draws - t > population - successes:
        return Fraction(0)
    return Fraction(
        comb(successes, t) * comb(population - successes, draws - t),
        comb(population, draws),
    )


@lru_cache(maxsize=None)
def _cdf(population: int, successes: int, draws: int, upper: int) -> Frac:
    # The favourable draws for t = 0..upper, summed as ints over their common
    # count of all draws; ``upper`` <= min(successes, draws), so every term is
    # a valid binomial product (0 where draws - t exceeds the failures).
    failures = population - successes
    favourable = sum(comb(successes, t) * comb(failures, draws - t) for t in range(upper + 1))
    return Fraction(favourable, comb(population, draws))


def hyp_pmf(params: HypParams, t: int) -> Frac:
    """Probability of drawing exactly ``t`` successes.

    Any integer ``t`` is accepted; arguments outside the support return 0.
    Callers rely on that: the reference loop of the sequential committee
    rule probes the mass function at shifted arguments that go negative
    once a voter is already satisfied, and those probes must vanish rather
    than fail.
    """
    return _pmf(params.population, params.successes, params.draws, t)


def hyp_cdf(params: HypParams, t: int) -> Frac:
    """Probability of drawing at most ``t`` successes (0 for t < 0, 1 at full support)."""
    if t < 0:
        return Fraction(0)
    upper = min(t, params.successes, params.draws)
    return _cdf(params.population, params.successes, params.draws, upper)


def miss_prob(m: int, size: int, k: int, t: int) -> Frac:
    """Probability that a uniformly random k-committee out of m candidates
    contains fewer than ``t`` members of a voter's ``size``-candidate approval set.

    Equals ``hyp_cdf(HypParams(m, size, k), t - 1)``.  The committee kernels
    call it in their loops, so valid arguments pass one chain of plain
    checks; a ``HypParams`` is built only to report invalid ones.
    """
    if not (type(m) is type(size) is type(k) is int and 0 <= size <= m and 0 <= k <= m):
        HypParams(m, size, k)
    if t < 1:
        return Fraction(0)
    return _cdf(m, size, k, min(t - 1, size, k))


def multiwinner_bound(m: int, s: object, k: int, t: int) -> Frac:
    """Best achievable worst-case share of s-flexible voters left t-unserved.

    Equals the probability that a uniformly random k-committee out of m
    candidates contains fewer than ``t`` members of a ceil(s*m)-candidate
    approval set.  No committee rule can beat it, and both committee rules
    in this package meet it.
    """
    sv = open_unit(s)
    if not 1 <= k < m:
        raise ValidationError(f"need 1 <= k < m, got k={k}, m={m}")
    if not 1 <= t <= k:
        raise ValidationError(f"need 1 <= t <= k, got t={t}, k={k}")
    return miss_prob(m, flexible_size(sv, m), k, t)
