"""Command-line interface: solve instances, emit guarantee curves, generate
adversarial instances, run verification suites, and compute veto cores.

All comparisons happen on exact rationals; decimals in the output are
display-only renderings of the exact values next to them (12 significant
digits).  Identical inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 a verification suite found violations, 2 usage or
parse errors.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NoReturn

from .core import (
    CANDIDATE_LIMIT,
    Committee,
    Frac,
    Instance,
    MultiParams,
    SizeLimitError,
    Table,
    ValidationError,
    WeightFn,
    as_frac,
    flexibility_grid,
    is_numeral,
    parse_family,
)
from .formats import ParseError, parse_instance, parse_ranked, serialize_instance
from .multi_winner import (
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


def _committee_rule(text: str) -> Callable[[Instance, MultiParams], Committee] | None:
    """The committee rule named ``text``, or None for a weight family.  The dict is built
    per call, so a rebound module attribute is the rule returned."""
    return {"seq": sequential_rule, "expanded": expanded_rule}.get(text)


def _write_out(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload, encoding="utf-8")


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; a byte that is not UTF-8 is a
    ParseError at its line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call, so exc.object holds all of
        # it.  bytes.splitlines ends lines where read_text does, at \n, \r\n or \r,
        # and the bad byte, which is neither, ends the slice inside its own line.
        line = len(exc.object[: exc.start + 1].splitlines())
        raise ParseError(line, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 text") from None


def _cmd_solve(args: SimpleNamespace) -> int:
    inst, k_file, t_file = parse_instance(_read_text(args.file))
    rule = _committee_rule(args.rule)
    lines = [f"rule: {args.rule}", f"m: {inst.m}", f"n: {inst.n}"]
    if rule is None:
        scores = score_all(inst, parse_family(args.rule))
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
        committee = rule(inst, MultiParams(k, t))
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


def _cmd_curve(args: SimpleNamespace) -> int:
    names = [token.strip() for token in args.rules.split(",") if token.strip()]
    if not names:
        raise ValidationError("no rules given")
    families: list[tuple[str, WeightFn]] = []
    for name in names:
        if _committee_rule(name) is not None:
            raise ValidationError(f"rule {name!r} has no closed-form guarantee curve")
        families.append((name, parse_family(name)))
    # The 2g-1 rows are built before any is written, so g has a budget.
    if args.s_grid < 1:
        raise ValidationError(f"--s-grid must be at least 1, got {args.s_grid}")
    if args.s_grid > CANDIDATE_LIMIT:
        raise SizeLimitError(f"--s-grid must be at most {CANDIDATE_LIMIT}, got {args.s_grid}")
    header = ["s", "s_dec", "optimal", "optimal_dec"]
    for name, _ in families:
        header.extend((name, f"{name}_dec"))
    rows = [",".join(header)]
    for i in range(1, 2 * args.s_grid):
        s = Fraction(i, 2 * args.s_grid)
        cells = [frac_str(s), dec_str(s), frac_str(1 - s), dec_str(1 - s)]
        for _, family in families:
            value = closed_form_fvr(family, s)
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


def _cmd_gen(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    # Suites run in one process; --jobs stays only so existing command lines run.
    if args.jobs != 1:
        raise ValidationError(f"--jobs must be 1, got {args.jobs}")
    result = run_suite(
        args.suite,
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


def _cmd_pvc(args: SimpleNamespace) -> int:
    profile = parse_ranked(_read_text(args.file))
    core = strong_pvc(profile)
    print("EMPTY" if not core else " ".join(str(a) for a in sorted(core)))
    return 0


REQUIRED = object()

# One entry per subcommand: (handler, summary, positionals, flags).  A
# positional is (name, help, choices or None).  A flag is (name, kind,
# default, metavar, help), where kind is int, str or list (a str that may
# repeat, kept in order) and a default of REQUIRED makes the flag mandatory.
# _parse_args and the help text read this table and nothing else.
COMMANDS = {
    "solve": (
        _cmd_solve,
        "pick a winner or committee and audit it",
        (("file", "instance file (version-1 text format)", None),),
        (
            ("--rule", str, REQUIRED, "RULE", "approval|threshold:<s>|power:<p>|opt|seq|expanded"),
            ("--k", int, None, "K", "committee size (multi-winner rules)"),
            ("--t", int, None, "T", "per-voter approval target (multi-winner rules)"),
        ),
    ),
    "curve": (
        _cmd_curve,
        "emit guarantee curves as CSV",
        (),
        (
            ("--rules", str, REQUIRED, "RULES", "comma-separated closed-form rules"),
            ("--s-grid", int, 50, "G", "grid density g: thresholds i/(2g) for i in 1..2g-1"),
            ("--out", str, None, "PATH", "output path (default: stdout)"),
        ),
    ),
    "gen": (
        _cmd_gen,
        "write a generated instance file",
        (("name", "generator name", generator_names()),),
        (
            ("--param", list, None, "KEY=VALUE", "generator parameter: r=7/12, w=1/4:1,1/2:1"),
            ("--seed", int, None, "SEED", "seed for the random generator"),
            ("--out", str, None, "PATH", "output path (default: stdout)"),
        ),
    ),
    "verify": (
        _cmd_verify,
        "run a named invariant suite",
        (("suite", "suite name", SUITE_NAMES),),
        (
            ("--n-max", int, None, "N", "sweep ceiling on voters"),
            ("--m-max", int, None, "M", "sweep ceiling on candidates / population"),
            ("--budget", int, None, "B", "enumeration or sampling budget"),
            ("--seed", int, None, "SEED", "seed for sampled checks"),
            ("--jobs", int, 1, "J", "must be 1; kept for existing command lines"),
        ),
    ),
    "pvc": (
        _cmd_pvc,
        "strong proportional veto core of a ranked profile",
        (("file", "ranked-profile file (version-1 text format)", None),),
        (),
    ),
}
HELP = ("-h", "--help")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _help(command: str | None) -> str:
    """Help text for ``fvr --help`` or ``fvr COMMAND --help``; its first line is the usage."""
    if command is None:
        usage = ["COMMAND", "[ARGS...]"]
        summary = "Exact-arithmetic tools for flexibility-weighted approval voting."
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
        footer = (
            "Run 'fvr COMMAND --help' for its arguments.  Exit codes: 0 success,\n"
            "1 a suite found violations, 2 usage or parse errors."
        )
    else:
        _, summary, positionals, flags = COMMANDS[command]
        usage = [command]
        rows = []
        for name, text, choices in positionals:
            usage.append(name.upper())
            rows.append((name.upper(), f"{text}: {', '.join(choices)}" if choices else text))
        for flag, kind, default, metavar, text in flags:
            word = f"{flag} {metavar}"
            usage.append(word if default is REQUIRED else f"[{word}]" + "..." * (kind is list))
            if default is not None:
                text += " (required)" if default is REQUIRED else f" (default {default})"
            rows.append((word, text))
        footer = "Flags take --flag value or --flag=value; integers are ASCII digits."
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    body = [f"  {left.ljust(width)}  {right}" for left, right in rows]
    return "\n".join([" ".join(["usage: fvr", *usage]), "", summary, "", *body, "", footer, ""])


def _usage_error(command: str | None, message: str) -> NoReturn:
    usage = _help(command).partition("\n")[0]
    sys.stderr.write(f"error: {message}\n{usage}\n")
    raise SystemExit(2)


def _is_flag(arg: str) -> bool:
    """Whether ``arg`` is a flag: it starts with '-' and is neither '-' nor a negative number."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdecimal()


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` against :data:`COMMANDS`.

    The command comes first; its positionals and flags follow in any order,
    each flag as ``--flag value`` or ``--flag=value``; a repeated flag keeps
    the last value unless its kind is list.  ``--`` makes every later
    argument a positional.  An integer flag takes an optional '-' and ASCII
    digits.  ``-h``/``--help`` prints help and exits 0; a usage error prints
    an ``error:`` line and the usage and exits 2.
    """
    if argv[:1] and argv[0] in HELP:
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        _usage_error(None, f"{got}; choose from " + ", ".join(COMMANDS))
    command, *rest = argv
    handler, _, positionals, flags = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _, _ in flags}
    values: dict[str, object] = {"command": command, "func": handler}
    for flag, _, default, _, _ in flags:
        values[_dest(flag)] = None if default is REQUIRED else default
    given: list[str] = []
    args = iter(rest)
    for arg in args:
        if arg == "--":
            given.extend(args)
        elif arg in HELP:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        elif not _is_flag(arg):
            given.append(arg)
        else:
            flag, eq, value = arg.partition("=")
            if flag not in kinds:
                _usage_error(command, f"unknown flag {flag}")
            if not eq:
                value = next(args, None)
                if value is None or _is_flag(value):
                    _usage_error(command, f"{flag} needs a value")
            dest, kind = _dest(flag), kinds[flag]
            if kind is int:
                if not is_numeral(value.removeprefix("-")):
                    _usage_error(command, f"{flag} must be an integer, got {value!r}")
                value = int(value)
            elif kind is list:
                value = [*(values[dest] or ()), value]
            values[dest] = value
    if len(given) > len(positionals):
        _usage_error(command, f"unexpected argument {given[len(positionals)]!r}")
    if len(given) < len(positionals):
        _usage_error(command, f"missing {positionals[len(given)][0].upper()}")
    for (name, text, choices), value in zip(positionals, given):
        if choices is not None and value not in choices:
            _usage_error(command, f"unknown {text} {value!r}; choose from " + ", ".join(choices))
        values[name] = value
    for flag, _, default, _, _ in flags:
        if default is REQUIRED and values[_dest(flag)] is None:
            _usage_error(command, f"missing {flag}")
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
