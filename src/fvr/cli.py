"""Command-line interface: solve instances, emit guarantee curves, generate
adversarial instances, run verification suites, and compute veto cores.

All comparisons happen on exact rationals; decimals in the output are
display-only renderings of the exact values next to them (12 significant
digits).  Identical inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 a verification suite found violations, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .core import (
    Constant,
    Frac,
    Optimal,
    Power,
    Table,
    Threshold,
    ValidationError,
    WeightFn,
    as_frac,
    flexibility_grid,
    is_numeral,
)
from .formats import ParseError, parse_instance, parse_ranked, serialize_instance
from .multi_winner import (
    MultiParams,
    committee_score,
    empirical_fvr_committee_curve,
    expanded_rule,
    sequential_rule,
)
from .oracles import generator_names, run_generator, strong_pvc
from .single_winner import argmax, closed_form_fvr, empirical_fvr_curve, score_all
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]


def frac_str(x: Frac) -> str:
    return f"{x.numerator}/{x.denominator}"


def dec_str(x: Frac) -> str:
    """Correctly rounded decimal rendering at 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _render(x: Frac) -> str:
    return f"{frac_str(x)} = {dec_str(x)}"


def _parse_rule(text: str) -> tuple[str, object]:
    if text == "approval":
        return "single", Constant()
    if text == "opt":
        return "single", Optimal(Fraction(1))
    if text.startswith("threshold:"):
        return "single", Threshold(as_frac(text.partition(":")[2]))
    if text.startswith("power:"):
        raw = text.partition(":")[2]
        if not is_numeral(raw):
            raise ValidationError(f"power rule needs an integer exponent, got {raw!r}")
        return "single", Power(int(raw))
    if text in ("seq", "expanded"):
        return "multi", text
    raise ValidationError(
        f"unknown rule {text!r}; expected approval, threshold:<s>, power:<p>, opt, seq, expanded"
    )


def _write_out(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload, encoding="utf-8")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst, k_file, t_file = parse_instance(Path(args.file).read_text(encoding="utf-8"))
    kind, payload = _parse_rule(args.rule)
    lines = [f"rule: {args.rule}", f"m: {inst.m}", f"n: {inst.n}"]
    if kind == "single":
        scores = score_all(inst, payload)
        chosen = argmax(scores)
        audit = empirical_fvr_curve(inst, chosen)
        lines.append(f"winner: {chosen}")
        lines.append("scores:")
        for a, sc in enumerate(scores):
            lines.append(f"  {a}: {_render(sc)}")
        lines.append("audit (share of s-flexible voters disapproving the winner):")
    else:
        k = args.k if args.k is not None else k_file
        t = args.t if args.t is not None else t_file
        if k is None or t is None:
            raise ValidationError(f"rule {args.rule!r} needs k and t (from flags or the file)")
        params = MultiParams(k, t)
        rule = sequential_rule if payload == "seq" else expanded_rule
        committee = rule(inst, params)
        audit = empirical_fvr_committee_curve(inst, committee, t)
        lines.append(f"k: {k}")
        lines.append(f"t: {t}")
        lines.append("committee: " + " ".join(str(a) for a in committee.members))
        lines.append(f"committee score: {_render(committee_score(inst, committee, t))}")
        lines.append(f"score cap (n): {inst.n}")
        lines.append("audit (share of s-flexible voters below the approval target):")
    for s, value in zip(flexibility_grid(inst.m), audit.values_on_grid(inst.m)):
        lines.append(f"  s={frac_str(s)}: {_render(value)}")
    print("\n".join(lines))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    names = [token.strip() for token in args.rules.split(",") if token.strip()]
    if not names:
        raise ValidationError("no rules given")
    families: list[tuple[str, WeightFn]] = []
    for name in names:
        kind, payload = _parse_rule(name)
        if kind != "single":
            raise ValidationError(f"rule {name!r} has no closed-form guarantee curve")
        families.append((name, payload))
    if args.s_grid < 1:
        raise ValidationError(f"--s-grid must be at least 1, got {args.s_grid}")
    header = ["s", "s_dec", "optimal", "optimal_dec"]
    for name, _ in families:
        header.extend((name, f"{name}_dec"))
    rows = [",".join(header)]
    for i in range(1, 2 * args.s_grid):
        s = Fraction(i, 2 * args.s_grid)
        cells = [frac_str(s), dec_str(s), frac_str(1 - s), dec_str(1 - s)]
        for _, family in families:
            value = closed_form_fvr(family, s).value
            cells.extend((frac_str(value), dec_str(value)))
        rows.append(",".join(cells))
    _write_out(args.out, "\n".join(rows) + "\n")
    return 0


def _parse_param_value(key: str, raw: str) -> object:
    if key == "w":
        entries = []
        for piece in raw.split(","):
            flex, sep, weight = piece.partition(":")
            if not sep:
                raise ValidationError(f"table entries look like f:w, got {piece!r}")
            entries.append((flex, weight))
        return Table(entries)
    if is_numeral(raw.removeprefix("-")):
        return int(raw)
    return as_frac(raw)


def _cmd_gen(args: argparse.Namespace) -> int:
    params: dict[str, object] = {}
    for item in args.param or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValidationError(f"--param expects key=value, got {item!r}")
        params[key] = _parse_param_value(key, raw)
    if args.seed is not None:
        params["seed"] = args.seed
    inst, _special = run_generator(args.name, params)
    _write_out(args.out, serialize_instance(inst))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(
        args.suite,
        jobs=args.jobs,
        n_max=args.n_max,
        m_max=args.m_max,
        budget=args.budget,
        seed=args.seed,
    )
    print(f"suite {result.suite}: {result.checked} checks, {len(result.violations)} violations")
    for violation in result.violations[:10]:
        print(f"  {violation}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_pvc(args: argparse.Namespace) -> int:
    profile = parse_ranked(Path(args.file).read_text(encoding="utf-8"))
    core = strong_pvc(profile)
    print("EMPTY" if not core else " ".join(str(a) for a in sorted(core)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvr",
        description="Exact-arithmetic tools for flexibility-weighted approval voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="pick a winner or committee and audit it")
    solve.add_argument("file", help="instance file (version-1 text format)")
    solve.add_argument(
        "--rule",
        required=True,
        help="approval | threshold:<s> | power:<p> | opt | seq | expanded",
    )
    solve.add_argument("--k", type=int, help="committee size (multi-winner rules)")
    solve.add_argument("--t", type=int, help="per-voter approval target (multi-winner rules)")
    solve.set_defaults(func=_cmd_solve)

    curve = sub.add_parser("curve", help="emit guarantee curves as CSV")
    curve.add_argument("--rules", required=True, help="comma-separated closed-form rules")
    curve.add_argument(
        "--s-grid",
        type=int,
        default=50,
        help="grid density g: thresholds i/(2g) for i in 1..2g-1 (default 50)",
    )
    curve.add_argument("--out", help="output path (default: stdout)")
    curve.set_defaults(func=_cmd_curve)

    gen = sub.add_parser("gen", help="write a generated instance file")
    gen.add_argument("name", choices=generator_names(), help="generator name")
    gen.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="generator parameter; fractions like r=7/12, tables like w=1/4:1,1/2:1",
    )
    gen.add_argument("--seed", type=int, help="seed for the random generator")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="run a named invariant suite")
    verify.add_argument("suite", choices=SUITE_NAMES, help="suite name")
    verify.add_argument("--n-max", type=int, help="sweep ceiling on voters")
    verify.add_argument("--m-max", type=int, help="sweep ceiling on candidates / population")
    verify.add_argument("--budget", type=int, help="enumeration or sampling budget")
    verify.add_argument("--seed", type=int, help="seed for sampled checks")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    verify.set_defaults(func=_cmd_verify)

    pvc = sub.add_parser("pvc", help="strong proportional veto core of a ranked profile")
    pvc.add_argument("file", help="ranked-profile file (version-1 text format)")
    pvc.set_defaults(func=_cmd_pvc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
