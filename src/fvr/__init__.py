"""Exact-arithmetic toolkit for flexibility-weighted approval voting.

A voter's flexibility is the share of candidates she approves.  This
package implements scoring rules weighted by flexibility, committee rules
with per-voter approval targets, exact empirical audits of how many
flexible voters an outcome leaves out, the matching theoretical guarantees,
adversarial instance generators that realize the worst cases, and
brute-force oracles to verify all of it.
"""

from .core import (
    AuditCurve,
    Committee,
    Constant,
    Frac,
    Instance,
    Optimal,
    Power,
    RankedProfile,
    SizeLimitError,
    Table,
    Threshold,
    ValidationError,
    WeightFn,
    as_frac,
    build_instance,
    build_ranked_profile,
    eval_weight,
    flexibility,
    flexibility_grid,
)
from .hypergeom import HypParams, hyp_cdf, hyp_pmf, multiwinner_bound
from .single_winner import (
    FvrBound,
    ScoreVector,
    closed_form_fvr,
    empirical_fvr_curve,
    empirical_fvr_point,
    grid_theoretical_fvr,
    is_optimal_weight_table,
    ropt_winner,
    score_all,
    winner,
)
from .multi_winner import (
    COMMITTEE_LIMIT,
    ExpandedInstance,
    JrResult,
    MultiParams,
    brute_best_committee,
    committee_score,
    empirical_fvr_committee,
    empirical_fvr_committee_curve,
    expand_instance,
    expanded_rule,
    jr_check,
    sequential_picks,
    sequential_rule,
    t_approves,
)
from .oracles import (
    DEFAULT_SEED,
    conditional_expected_score,
    enumerate_instances,
    enumerate_voter_multisets,
    gen_approval_gap,
    gen_jr_hard,
    gen_party_split,
    gen_power_gap,
    gen_random_instance,
    gen_spread,
    gen_symmetric,
    gen_weight_gap,
    generator_names,
    run_generator,
    strong_pvc,
)

__version__ = "0.1.0"
