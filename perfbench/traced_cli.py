"""Run the fvr command line with its public functions traced from outside.

Usage::

    PYTHONPATH=src python perfbench/traced_cli.py TRACE.json <fvr arguments...>

Behaves like ``python -m fvr.cli <fvr arguments...>`` (same stdout, same
exit code) and, when the command ends, writes the spans and per-function
totals of the run to TRACE.json.  Nothing under ``src/`` is modified: the
functions named in :data:`TRACED` are wrapped by rebinding every ``fvr.*``
module attribute that refers to them.
"""

from __future__ import annotations

import sys
from types import ModuleType

from tracing import Tracer, rebind

import fvr
import fvr.cli

# Module -> public functions whose calls become spans.
TRACED = {
    "formats": ("parse_instance", "serialize_instance"),
    "core": ("build_instance", "eval_weight"),
    "single_winner": ("score_all", "winner", "empirical_fvr_point", "closed_form_fvr"),
    "hypergeom": ("hyp_cdf", "hyp_pmf", "multiwinner_bound"),
    "multi_winner": (
        "sequential_picks",
        "committee_score",
        "expand_instance",
        "expanded_rule",
        "empirical_fvr_committee",
    ),
    "oracles": ("gen_random_instance", "conditional_expected_score", "strong_pvc"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
BYTES_PARSED = "formats.bytes_parsed"
INSTANCES = "oracles.enumerate_voter_multisets.instances"


def fvr_modules() -> list[ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "fvr" or name.startswith("fvr.")]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every function in :data:`TRACED`; returns what :func:`tracing.restore` undoes."""
    modules = fvr_modules()
    changed = []
    for module_name, names in TRACED.items():
        module = sys.modules[f"fvr.{module_name}"]
        for name in names:
            original = getattr(module, name)
            changed += rebind(original, tracer.wrap(f"{module_name}.{name}", original), modules)

    parse = fvr.formats.parse_instance

    def parse_counted(text, *args, **kwargs):
        tracer.count(BYTES_PARSED, len(text.encode("utf-8")))
        return parse(text, *args, **kwargs)

    changed += rebind(parse, parse_counted, modules)
    enumerate_multisets = fvr.oracles.enumerate_voter_multisets
    changed += rebind(
        enumerate_multisets, tracer.count_items(INSTANCES, enumerate_multisets), modules
    )
    return changed


def cache_stats() -> dict[str, int]:
    """Summed ``cache_info()`` of the memoized functions in ``fvr.hypergeom``."""
    stats = {"caches": 0, "hits": 0, "misses": 0, "entries": 0}
    for value in vars(fvr.hypergeom).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            stats["caches"] += 1
            stats["hits"] += ci.hits
            stats["misses"] += ci.misses
            stats["entries"] += ci.currsize
    return stats


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return fvr.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(out, " ".join(cli_args), {"hypergeom_caches": cache_stats()})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
