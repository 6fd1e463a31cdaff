"""Exact-arithmetic toolkit for flexibility-weighted approval voting.

A voter's flexibility is the share of candidates she approves.  This
package implements scoring rules weighted by flexibility, committee rules
with per-voter approval targets, exact empirical audits of how many
flexible voters an outcome leaves out, the matching theoretical guarantees,
adversarial instance generators that realize the worst cases, and
brute-force oracles to verify all of it.

``import fvr`` loads none of the submodules: each public name below is
imported from its submodule on first use (PEP 562), so ``from fvr import X``
loads only X's module and what that module imports.
"""

from importlib import import_module as _import_module

# Each submodule and the public names it defines; _MODULE_OF inverts it.
_EXPORTS = {
    "core": (
        "AuditCurve",
        "Committee",
        "Constant",
        "Frac",
        "Instance",
        "MultiParams",
        "Optimal",
        "Power",
        "RankedProfile",
        "SizeLimitError",
        "Table",
        "Threshold",
        "ValidationError",
        "WeightFn",
        "as_frac",
        "build_instance",
        "eval_weight",
        "flexibility",
        "flexibility_grid",
    ),
    "hypergeom": ("HypParams", "hyp_cdf", "hyp_pmf", "multiwinner_bound"),
    "single_winner": (
        "ScoreVector",
        "closed_form_fvr",
        "empirical_fvr_curve",
        "empirical_fvr_point",
        "grid_theoretical_fvr",
        "is_optimal_weight_table",
        "ropt_winner",
        "score_all",
        "winner",
    ),
    "multi_winner": (
        "COMMITTEE_LIMIT",
        "ExpandedInstance",
        "JrResult",
        "brute_best_committee",
        "committee_score",
        "empirical_fvr_committee",
        "empirical_fvr_committee_curve",
        "expand_instance",
        "expanded_rule",
        "jr_check",
        "sequential_picks",
        "sequential_rule",
        "t_approves",
    ),
    "oracles": (
        "DEFAULT_SEED",
        "conditional_expected_score",
        "enumerate_instances",
        "enumerate_voter_multisets",
        "gen_approval_gap",
        "gen_jr_hard",
        "gen_party_split",
        "gen_power_gap",
        "gen_random_instance",
        "gen_spread",
        "gen_symmetric",
        "gen_weight_gap",
        "generator_names",
        "run_generator",
        "strong_pvc",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "formats", "verify"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Import the submodule that defines ``name`` on its first use, and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _SUBMODULES:
            return _import_module(f"{__name__}.{name}")  # the import binds it here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
