"""The table-driven argv parser of ``fvr.cli``: equal to the argparse parser it
replaced on every valid command line in use, and total on arbitrary argv."""

import argparse
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvr.cli as cli
from fvr.core import build_instance
from fvr.oracles import generator_names
from fvr.verify import SUITE_NAMES, VerifyResult

ROOT = Path(__file__).resolve().parents[1]


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``fvr.cli`` used before its table-driven one."""
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
    solve.set_defaults(func=cli._cmd_solve)

    curve = sub.add_parser("curve", help="emit guarantee curves as CSV")
    curve.add_argument("--rules", required=True, help="comma-separated closed-form rules")
    curve.add_argument(
        "--s-grid",
        type=int,
        default=50,
        help="grid density g: thresholds i/(2g) for i in 1..2g-1 (default 50)",
    )
    curve.add_argument("--out", help="output path (default: stdout)")
    curve.set_defaults(func=cli._cmd_curve)

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
    gen.set_defaults(func=cli._cmd_gen)

    verify = sub.add_parser("verify", help="run a named invariant suite")
    verify.add_argument("suite", choices=SUITE_NAMES, help="suite name")
    verify.add_argument("--n-max", type=int, help="sweep ceiling on voters")
    verify.add_argument("--m-max", type=int, help="sweep ceiling on candidates / population")
    verify.add_argument("--budget", type=int, help="enumeration or sampling budget")
    verify.add_argument("--seed", type=int, help="seed for sampled checks")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    verify.set_defaults(func=cli._cmd_verify)

    pvc = sub.add_parser("pvc", help="strong proportional veto core of a ranked profile")
    pvc.add_argument("file", help="ranked-profile file (version-1 text format)")
    pvc.set_defaults(func=cli._cmd_pvc)

    return parser


# The valid command lines of tests/test_cli.py, one per distinct shape.
TEST_CLI_ARGV = [
    ["solve", "intro.fvr", "--rule", "opt"],
    ["solve", "intro.fvr", "--rule", "threshold:1/2"],
    ["solve", "party.fvr", "--rule", "seq"],
    ["solve", "wide.fvr", "--rule", "expanded", "--k", "20", "--t", "1"],
    ["solve", "intro.fvr", "--rule", "borda"],
    ["solve", "intro.fvr", "--rule", "power:²"],
    ["curve", "--rules", "approval,power:1,power:2", "--s-grid", "1"],
    ["curve", "--rules", "approval,power:3,opt", "--s-grid", "7"],
    ["curve", "--rules", "approval,power:1", "--s-grid", "25", "--out", "curve.csv"],
    ["gen", "party_split", "--param", "k=2"],
    ["gen", "approval_gap", "--param", "n=12", "--param", "m=10", "--param", "s=1/2",
     "--param", "r=7/12"],
    ["gen", "weight_gap", "--param", "w=1/4:1,1/2:1", "--param", "f=1/4",
     "--param", "fprime=1/2", "--param", "n=200"],
    ["gen", "spread", "--param", "n=2"],
    ["gen", "spread", "--param", "n=--5", "--param", "m=4", "--param", "L=2"],
    ["gen", "party_split", "--param=k=2", "--param=reps=100001"],
    ["gen", "random", "--param=n=5", "--param=m=0"],
    ["gen", "random", "--param", "n=4", "--param", "m=5", "--seed", "3"],
    ["gen", "random", "--param", "n=200", "--param", "m=14", "--seed", "5", "--out", "r.fvr"],
    ["verify", "opt", "--n-max", "2", "--m-max", "3"],
    ["verify", "hypergeom", "--m-max", "4", "--budget", "5"],
    ["verify", "opt", "--n-max", "1", "--m-max", "2", "--jobs", "-1"],
    ["verify", "opt", "--n-max", "-1"],
    ["verify", "hypergeom", "--m-max", "-2"],
    ["verify", "pvc", "--budget", "0"],
    ["verify", "opt"],
    ["pvc", "profile.fvrr"],
]


# Command lines of README.md's "Examples" whose shape no test above runs.
README_ARGV = [
    ["curve", "--rules", "approval,power:1,power:2,power:3,opt", "--s-grid", "50",
     "--out", "guarantee_curves.csv"],
    ["gen", "approval_gap", "--param", "n=1200", "--param", "m=200", "--param", "s=1/2",
     "--param", "r=133/200", "--out", "gap.fvr"],
]


def perfbench_argv(module) -> list[list[str]]:
    """Every command line in perfbench's workload table, with its set-up ``gen`` calls."""
    argvs = []
    for workload in module.WORKLOADS.values():
        for f in workload.files:
            argvs.append(module.Run.gen_args(SimpleNamespace(seed=1), f, Path(f"{f.name}.txt")))
        for call in workload.calls:
            argvs.append([("1" if a == "{seed}" else "file.txt") if a[:1] == "{" else a for a in call.args])
    return argvs


def reference_values(argv) -> dict:
    try:
        return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        pytest.fail(f"argparse rejected {argv!r} with exit {exc.code}")


def test_parser_matches_reference_on_every_valid_argv_in_use(perfbench_run):
    bench = perfbench_argv(perfbench_run)
    assert any(argv[0] == "verify" for argv in bench) and any(argv[0] == "gen" for argv in bench)
    for argv in TEST_CLI_ARGV + README_ARGV + bench:
        assert vars(cli._parse_args(argv)) == reference_values(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--rule", "opt", "--", "-x.fvr"],
        ["solve", "--rule=seq", "--k=-2", "--t", "-0", "x.fvr"],
        ["solve", "x.fvr", "--rule", "opt", "--rule", "approval"],
        ["curve", "--out", "-", "--rules", "opt", "--s-grid=3"],
        ["gen", "--param", "n=-1", "spread", "--param=w=1/2:1", "--seed", "007"],
        ["verify", "--jobs", "2", "pvc", "--seed", "-5"],
    ],
)
def test_parser_matches_reference_on_each_flag_form(argv):
    assert vars(cli._parse_args(argv)) == reference_values(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.fvr", "--rul", "opt"],  # prefix abbreviations are gone
        ["verify", "opt", "--n-max", "٣"],
        ["verify", "opt", "--n-max", "1_0"],
        ["verify", "opt", "--n-max", " 3"],
        ["verify", "opt", "--n-max", "+3"],
    ],
)
def test_parser_rejects_what_argparse_accepted(capsys, argv):
    assert reference_values(argv)
    with pytest.raises(SystemExit) as excinfo:
        cli._parse_args(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


TINY = "fvr 1\nm 3\nn 2\n0 1\n2\nk 2\nt 1\n"
RANKED = "fvr-ranked 1\nm 3\nn 2\n0 1 2\n2 1 0\n"
ODD = ["-1", "0", "٣", "", "1_0", " 3", "x", "-", "--", "-h", "--rul", "--bogus", "-x"]
VALUES = {
    "--rule": ["opt", "approval", "power:2", "threshold:1/2", "seq", "expanded", "borda"],
    "--rules": ["opt,approval", "power:1,power:2", "seq", ""],
    "--param": ["k=2", "n=3", "m=3", "L=1", "reps=1", "w=1/2:1", "bad", "=1", "seed=1"],
    **dict.fromkeys(
        ("--k", "--t", "--s-grid", "--seed", "--n-max", "--m-max", "--budget", "--jobs"),
        ["1", "2", "3", "-1", "0"],
    ),
}


@st.composite
def argvs(draw, files, outs):
    """A command with, most of the time, its positional and some of its flags
    (``--flag value`` or ``--flag=value``), plus a little noise, in any order."""
    command = draw(st.sampled_from([*cli.COMMANDS, "nope", "-h"]))
    flags = [flag for flag, *_ in cli.COMMANDS[command][3]] if command in cli.COMMANDS else []
    positionals = {
        "solve": files, "pvc": files, "gen": [*generator_names(), "nope"],
        "verify": [*SUITE_NAMES, "nope"],
    }.get(command, [])
    pieces = []
    if positionals and draw(st.integers(0, 9)):
        pieces.append([draw(st.sampled_from(positionals))])
    for flag in flags:
        if draw(st.integers(0, 2)):
            value = draw(st.sampled_from(VALUES.get(flag, outs)))
            pieces.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        odd = draw(st.sampled_from(ODD))
        flag = draw(st.sampled_from(flags or ["--bogus"]))
        pieces.append(draw(st.sampled_from([[odd], [flag], [flag, odd], [f"{flag}={odd}"]])))
    return [command, *(arg for piece in draw(st.permutations(pieces)) for arg in piece)]


def fake_run_suite(name, **_):
    return VerifyResult(name, 1, ("fabricated",) if name == "pvc" else ())


def fake_run_generator(name, params):
    return build_instance(3, [{0}, {1, 2}]), None


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Input paths for ``solve``/``pvc`` (tiny files, a missing one, a directory) and outputs."""
    root = tmp_path_factory.mktemp("argv")
    (root / "tiny.fvr").write_text(TINY, encoding="utf-8")
    (root / "tiny.fvrr").write_text(RANKED, encoding="utf-8")
    files = [str(root / name) for name in ("tiny.fvr", "tiny.fvrr", "missing.fvr")] + [str(root)]
    return files, [str(root / "out.txt"), str(root)]


@settings(max_examples=400)
@given(data=st.data())
def test_argv_fuzz_ends_with_0_1_or_2(fuzz_paths, data):
    argv = data.draw(argvs(*fuzz_paths), label="argv")
    try:
        parsed = cli._parse_args(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2)
        return
    # Whatever the new parser accepts, argparse accepted with the same values,
    # except where argparse drops a "--" that is a value (--rule=-- gives
    # rule == []) or rejects a trailing "--"; the table parser keeps it.
    if not any(arg == "--" or arg.endswith("=--") for arg in argv):
        assert vars(parsed) == reference_values(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_suite", fake_run_suite)
        mp.setattr(cli, "run_generator", fake_run_generator)
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
