"""CLI behaviour: output contracts, determinism, exit codes."""

import hashlib
import time
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvr import oracles
from fvr.cli import dec_str, main
from fvr.core import CANDIDATE_LIMIT, NUMERAL_LIMIT, POWER_LIMIT, build_instance
from fvr.formats import parse_instance, serialize_instance
from fvr.multi_winner import COMMITTEE_LIMIT, MultiParams
from fvr.oracles import reference_expanded_rule

INTRO_TEXT = "fvr 1\nm 4\nn 3\n1 2\n1 3\n2 3\n"
PARTY_TEXT = "fvr 1\nm 4\nn 2\n0 1\n2 3\nk 2\nt 1\n"
RANKED_TEXT = "fvr-ranked 1\nm 3\nn 2\n0 1 2\n2 1 0\n"


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.fvr"
    path.write_text(INTRO_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dec_str_is_twelve_significant_digits():
    assert dec_str(Fraction(1, 2)) == "0.5"
    assert dec_str(Fraction(1, 3)) == "0.333333333333"
    assert dec_str(Fraction(32, 59)) == "0.542372881356"
    assert dec_str(Fraction(0, 1)) == "0"


def test_solve_opt(capsys, intro_file):
    code, out, _ = run(capsys, "solve", intro_file, "--rule", "opt")
    assert code == 0
    lines = out.splitlines()
    assert "winner: 1" in lines
    assert "  1: 4/1 = 4" in lines
    assert "  s=1/2: 1/3 = 0.333333333333" in lines


def test_solve_threshold_rule(capsys, intro_file):
    code, out, _ = run(capsys, "solve", intro_file, "--rule", "threshold:1/2")
    assert code == 0
    assert "winner: 1" in out.splitlines()


def test_solve_seq_reads_k_and_t_from_file(capsys, tmp_path):
    path = tmp_path / "party.fvr"
    path.write_text(PARTY_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(path), "--rule", "seq")
    assert code == 0
    lines = out.splitlines()
    committee = next(line for line in lines if line.startswith("committee: "))
    score = next(line for line in lines if line.startswith("committee score: "))
    assert committee == "committee: 0 2"
    assert score == "committee score: 0/1 = 0"
    assert "score cap (n): 2" in lines


def test_solve_multi_requires_k_and_t(capsys, intro_file):
    code, _, err = run(capsys, "solve", intro_file, "--rule", "seq")
    assert code == 2
    assert "needs k and t" in err


def test_solve_expanded_over_limit_recommends_seq(capsys, tmp_path):
    inst = build_instance(40, [{0}])
    path = tmp_path / "wide.fvr"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path), "--rule", "expanded", "--k", "20", "--t", "1")
    assert code == 2
    assert "sequential_rule" in err


def test_solve_rejects_unknown_rule(capsys, intro_file):
    code, _, err = run(capsys, "solve", intro_file, "--rule", "borda")
    assert code == 2
    assert "unknown rule" in err


def test_solve_rejects_non_ascii_power_exponent(capsys, intro_file):
    code, _, err = run(capsys, "solve", intro_file, "--rule", "power:\u00b2")
    assert code == 2
    assert "integer exponent" in err


def test_largest_power_exponent_solves_and_the_next_exits_2(capsys, tmp_path):
    # At m = 400 a power score is an int over 400**p: 261 digits at the limit.
    path = tmp_path / "wide.fvr"
    path.write_text(serialize_instance(oracles.gen_random_instance(20, 400, seed=5)))
    code, out, err = run(capsys, "solve", str(path), "--rule", f"power:{POWER_LIMIT}")
    assert (code, err) == (0, "")
    assert out.startswith(f"rule: power:{POWER_LIMIT}\nm: 400\nn: 20\nwinner: ")
    for argv in (
        ("solve", str(path), "--rule", f"power:{POWER_LIMIT + 1}"),
        ("curve", "--rules", f"approval,power:{POWER_LIMIT + 1}"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: power exponent must be at most {POWER_LIMIT}, got {POWER_LIMIT + 1}\n"


def test_curve_at_both_budgets_prints_every_row(capsys):
    # The largest exponent on the finest grid: the curve's largest values.
    code, out, err = run(
        capsys, "curve", "--rules", f"power:{POWER_LIMIT}", "--s-grid", str(CANDIDATE_LIMIT)
    )
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 2 * CANDIDATE_LIMIT
    s, _, optimal, _, value, _ = rows[-1].split(",")
    assert (s, optimal) == ("19999/20000", "1/20000")
    assert 0 < Fraction(value) < 1


@pytest.mark.parametrize("grid", [0, CANDIDATE_LIMIT + 1])
def test_curve_grid_outside_its_budget_exits_2(capsys, grid):
    code, out, err = run(capsys, "curve", "--rules", "opt", "--s-grid", str(grid))
    assert (code, out) == (2, "")
    bound = "at least 1" if grid < 1 else f"at most {CANDIDATE_LIMIT}"
    assert err == f"error: --s-grid must be {bound}, got {grid}\n"


def test_solve_reports_parse_error_position(capsys, tmp_path):
    path = tmp_path / "bad.fvr"
    path.write_text("fvr 1\nm 2\nn 1\n0 0\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path), "--rule", "opt")
    assert code == 2
    assert "line 4" in err


def test_curve_single_midpoint_row(capsys):
    code, out, _ = run(capsys, "curve", "--rules", "approval,power:1,power:2", "--s-grid", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "s,s_dec,optimal,optimal_dec,approval,approval_dec,"
        "power:1,power:1_dec,power:2,power:2_dec"
    )
    assert lines[1] == "1/2,0.5,1/2,0.5,2/3,0.666666666667,1/2,0.5,32/59,0.542372881356"
    assert len(lines) == 2


def test_curve_grid_three_contains_tangency_rows(capsys):
    code, out, _ = run(capsys, "curve", "--rules", "power:1,power:2", "--s-grid", "3")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
    assert len(rows) == 5
    # at s = 1/2 the single-power curve touches the optimal line
    assert rows["1/2"][4] == "1/2" == rows["1/2"][2]
    # at s = 2/3 the squared-power curve touches the optimal line
    assert rows["2/3"][6] == "1/3" == rows["2/3"][2]


def test_curve_decimals_agree_with_fractions(capsys):
    code, out, _ = run(capsys, "curve", "--rules", "approval,power:3,opt", "--s-grid", "7")
    assert code == 0
    header, *rows = out.splitlines()
    for row in rows:
        cells = row.split(",")
        for frac_cell, dec_cell in zip(cells[::2], cells[1::2]):
            value = Fraction(frac_cell)
            assert dec_str(value) == dec_cell
            assert abs(Decimal(dec_cell) - Decimal(value.numerator) / Decimal(value.denominator)) <= Decimal("1e-11")


def test_curve_rejects_multiwinner_rules(capsys):
    code, _, err = run(capsys, "curve", "--rules", "seq", "--s-grid", "1")
    assert code == 2
    assert "closed-form" in err


def test_curve_writes_file_and_is_deterministic(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    argv = ["curve", "--rules", "approval,power:1", "--s-grid", "25", "--out", str(out_path)]
    assert main(list(argv)) == 0
    first = out_path.read_bytes()
    assert main(list(argv)) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()


def test_gen_party_split_file(capsys):
    code, out, _ = run(capsys, "gen", "party_split", "--param", "k=2")
    assert code == 0
    assert out == "fvr 1\nm 4\nn 2\n0 1\n2 3\n"


def test_gen_with_fraction_and_table_params(capsys):
    code, out, _ = run(
        capsys, "gen", "approval_gap",
        "--param", "n=12", "--param", "m=10", "--param", "s=1/2", "--param", "r=7/12",
    )
    assert code == 0
    assert out.startswith("fvr 1\nm 10\nn 12\n")
    code, out, _ = run(
        capsys, "gen", "weight_gap",
        "--param", "w=1/4:1,1/2:1", "--param", "f=1/4", "--param", "fprime=1/2", "--param", "n=200",
    )
    assert code == 0
    assert out.startswith("fvr 1\nm 4\nn 200\n")


def test_gen_unknown_name_exits_2_listing_choices(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "nope"])
    assert excinfo.value.code == 2
    assert "party_split" in capsys.readouterr().err


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run(capsys, "gen", "spread", "--param", "n=2")
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("param", ["L=1/2", "n=3/2", "m=\u00b2", "n=--5"])
def test_gen_rejects_non_integer_counts(capsys, param):
    params = {"n": "3", "m": "4", "L": "2"}
    key, _, value = param.partition("=")
    params[key] = value
    argv = ["gen", "spread"]
    for item in params.items():
        argv += ["--param", "=".join(item)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_gen_rejects_duplicate_table_flexibility(capsys):
    code, out, err = run(
        capsys, "gen", "weight_gap",
        "--param", "w=1/4:1,1/4:3,1/2:1", "--param", "f=1/4", "--param", "fprime=1/2",
        "--param", "n=200",
    )
    assert code == 2
    assert out == ""
    assert err == "error: duplicate table flexibility 1/4\n"


def test_gen_rejects_a_table_entry_without_a_colon(capsys):
    code, out, err = run(
        capsys, "gen", "weight_gap",
        "--param", "w=1/2", "--param", "f=1/4", "--param", "fprime=1/2", "--param", "n=200",
    )
    assert (code, out, err) == (2, "", "error: table entries look like f:w, got '1/2'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("party_split", "k=2", f"reps={COMMITTEE_LIMIT // 2 + 1}"),
        ("random", f"n={COMMITTEE_LIMIT + 1}", "m=1"),
    ],
)
def test_gen_over_voter_budget_exits_2(capsys, argv):
    name, *params = argv
    code, out, err = run(capsys, "gen", name, *(f"--param={p}" for p in params))
    assert code == 2
    assert out == ""
    assert "voters exceed the limit" in err


@pytest.mark.parametrize(
    "name, params",
    [("random", ("n=5", "m=0")), ("spread", ("n=3", "m=0", "L=0"))],
)
def test_gen_zero_candidates_exits_2_with_one_wording(capsys, name, params):
    code, out, err = run(capsys, "gen", name, *(f"--param={p}" for p in params))
    assert (code, out) == (2, "")
    assert err == "error: m must be a positive integer, got 0\n"


def test_gen_random_over_candidate_budget_exits_2(capsys):
    m = CANDIDATE_LIMIT + 1
    code, out, err = run(capsys, "gen", "random", "--param=n=1", f"--param=m={m}")
    assert (code, out) == (2, "")
    assert err == f"error: m must be at most {CANDIDATE_LIMIT}, got {m}\n"


def test_gen_random_over_approval_budget_exits_2_at_once(capsys, monkeypatch):
    # Each count is at its own limit, but n*m would be 2*10^9 approvals.  Should
    # the budget be missed, the test fails before any row is drawn.
    class Tripwire:
        def __init__(self, seed):
            pass

        def getrandbits(self, m):
            raise AssertionError(f"rows built for m={m}")

    monkeypatch.setattr(oracles, "random", SimpleNamespace(Random=Tripwire))
    code, out, err = run(capsys, "gen", "random", "--param=n=200000", f"--param=m={CANDIDATE_LIMIT}")
    assert (code, out) == (2, "")
    assert err == "error: 2000000000 approvals exceed the limit 1000000\n"


@pytest.mark.parametrize(
    "name, params, m",
    [
        ("symmetric", ("m=20000", "L=0"), 20000),
        ("spread", ("n=1", f"m={CANDIDATE_LIMIT + 1}", "L=0"), CANDIDATE_LIMIT + 1),
        ("jr_hard", (f"m={CANDIDATE_LIMIT + 1}", "k=2"), CANDIDATE_LIMIT + 1),
        ("party_split", (f"k={CANDIDATE_LIMIT // 2 + 1}",), CANDIDATE_LIMIT + 2),
    ],
)
def test_every_generator_over_candidate_budget_exits_2_at_once(capsys, name, params, m):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", name, *(f"--param={p}" for p in params))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: m must be at most {CANDIDATE_LIMIT}, got {m}\n"


def test_solve_with_huge_m_exits_2_before_allocating(capsys, tmp_path):
    path = tmp_path / "huge.fvr"
    path.write_text("fvr 1\nm 5000000\nn 1\n0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", str(path), "--rule", "opt")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: line 2: m must be at most {CANDIDATE_LIMIT}, got 5000000\n"


def test_gen_random_respects_seed_flag(capsys):
    code_a, out_a, _ = run(capsys, "gen", "random", "--param", "n=4", "--param", "m=5", "--seed", "3")
    code_b, out_b, _ = run(capsys, "gen", "random", "--param", "n=4", "--param", "m=5", "--seed", "3")
    code_c, out_c, _ = run(capsys, "gen", "random", "--param", "n=4", "--param", "m=5", "--seed", "4")
    assert code_a == code_b == code_c == 0
    assert out_a == out_b != out_c


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "opt", "--n-max", "2", "--m-max", "3")
    assert code == 0
    assert "0 violations" in out
    assert out.rstrip().endswith("PASS")


def test_verify_reports_checked_pairs(capsys):
    code, out, _ = run(capsys, "verify", "hypergeom", "--m-max", "4", "--budget", "5")
    assert code == 0
    checked = int(out.split()[2])
    assert checked > 100


def test_verify_jobs_1_is_accepted_and_changes_nothing(capsys):
    args = ("verify", "opt", "--n-max", "2", "--m-max", "3")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert run(capsys, *args, "--jobs", "1") == (0, out, "")


@pytest.mark.parametrize("jobs", ["2", "0", "-1"])
def test_verify_rejects_jobs_other_than_1(capsys, jobs):
    code, out, err = run(capsys, "verify", "opt", "--n-max", "1", "--m-max", "2", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: --jobs must be 1, got {jobs}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("opt", "--n-max", "-1"),
        ("opt", "--n-max", "0"),
        ("hypergeom", "--m-max", "-2"),
        ("pvc", "--budget", "0"),
    ],
)
def test_verify_rejects_nonpositive_sweep_sizes(capsys, argv):
    suite, flag, value = argv
    code, out, err = run(capsys, "verify", suite, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag[2:].replace('-', '_')} must be a positive integer, got {value}\n"


def test_verify_hypergeom_over_enumeration_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "hypergeom", "--m-max", "40")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: m_max=40 would enumerate more than 1000000 subsets\n"


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nope"])
    assert excinfo.value.code == 2


def test_verify_exits_1_on_violations(capsys, monkeypatch):
    import fvr.cli as cli_module
    from fvr.verify import VerifyResult

    def fake_run_suite(name, **_):
        return VerifyResult(name, 3, ("fabricated counterexample",))

    monkeypatch.setattr(cli_module, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, "verify", "opt")
    assert code == 1
    assert "1 violations" in out
    assert "fabricated counterexample" in out
    assert out.rstrip().endswith("FAIL")


def test_pvc_empty_core(capsys, tmp_path):
    path = tmp_path / "profile.fvrr"
    path.write_text(RANKED_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "pvc", str(path))
    assert code == 0
    assert out == "EMPTY\n"


def test_pvc_nonempty_core(capsys, tmp_path):
    path = tmp_path / "one.fvrr"
    path.write_text("fvr-ranked 1\nm 3\nn 1\n1 0 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "pvc", str(path))
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_pvc_keeps_a_candidate_that_meets_the_veto_bound_with_equality(capsys, tmp_path, end):
    # m = n = 2: one voter ranks each candidate outside its top 1, and
    # x_1 * m = 2 = (m - 1) * n, so neither is vetoed.
    path = tmp_path / "opposed.fvrr"
    path.write_bytes(end.join(["fvr-ranked 1", "m 2", "n 2", "0 1", "1 0", ""]).encode())
    code, out, _ = run(capsys, "pvc", str(path))
    assert (code, out) == (0, "0 1\n")


@pytest.mark.parametrize(
    "text, argv",
    [(INTRO_TEXT, ("solve", "{file}", "--rule", "opt")), (RANKED_TEXT, ("pvc", "{file}"))],
    ids=["solve", "pvc"],
)
def test_a_file_that_is_not_utf8_is_one_error_and_exit_2(capsys, tmp_path, text, argv):
    lines = text.encode().split(b"\n")
    lines[3] = b"\xff" + lines[3]
    path = tmp_path / "input.txt"
    path.write_bytes(b"\n".join(lines))
    code, out, err = run(capsys, *(arg.format(file=path) for arg in argv))
    assert (code, out, err) == (2, "", "error: line 4: byte 0xff is not UTF-8 text\n")


def spliced(text):
    """``text`` as bytes, with up to 3 bytes cut at one place and up to 6 arbitrary bytes put there."""
    data = text.encode()
    return st.tuples(st.integers(0, len(data)), st.integers(0, 3), st.binary(max_size=6)).map(
        lambda cut: data[: cut[0]] + cut[2] + data[cut[0] + cut[1] :]
    )


@settings(max_examples=200, deadline=None)
@given(spliced(PARTY_TEXT), spliced(RANKED_TEXT))
def test_a_damaged_file_exits_0_or_2(tmp_path_factory, instance, ranked):
    path = tmp_path_factory.getbasetemp() / "damaged.txt"
    for data, argv in [
        (instance, ("solve", "--rule", "opt")),
        (instance, ("solve", "--rule", "seq", "--k", "2", "--t", "1")),
        (ranked, ("pvc",)),
    ]:
        path.write_bytes(data)
        assert main([argv[0], str(path), *argv[1:]]) in (0, 2)


def test_solve_output_is_deterministic(capsys, intro_file):
    _, first, _ = run(capsys, "solve", intro_file, "--rule", "expanded", "--k", "2", "--t", "1")
    _, second, _ = run(capsys, "solve", intro_file, "--rule", "expanded", "--k", "2", "--t", "1")
    assert first == second
    assert "committee: 1 2" in first or "committee:" in first


def test_solve_expanded_matches_reference_and_is_deterministic(capsys, tmp_path):
    path = tmp_path / "random.fvr"
    code, _, _ = run(
        capsys, "gen", "random", "--param", "n=200", "--param", "m=14", "--seed", "5",
        "--out", str(path),
    )
    assert code == 0
    argv = ("solve", str(path), "--rule", "expanded", "--k", "5", "--t", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    _, second, _ = run(capsys, *argv)
    assert first == second
    inst, _, _ = parse_instance(path.read_text(encoding="utf-8"))
    expected = reference_expanded_rule(inst, MultiParams(5, 2))
    committee = "committee: " + " ".join(str(a) for a in expected.members)
    assert committee in first.splitlines()


@pytest.mark.parametrize("value", ["٣", "1_0", " 3"])
def test_integer_flags_take_ascii_digits_only(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "opt", "--n-max", value, "--m-max", "2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n-max must be an integer, got {value!r}\n")


OVER = COMMITTEE_LIMIT + 1


@pytest.mark.parametrize(
    "name, params",
    [
        ("spread", (f"n={OVER}", "m=3", "L=1")),
        ("approval_gap", (f"n={OVER}", "m=10", "s=1/2", "r=1/2")),
        ("power_gap", (f"n={OVER}", "m=10", "s=1/2", "r=1/10", "p=2")),
        ("weight_gap", ("w=1/4:1,1/2:1", "f=1/4", "fprime=1/2", f"n={OVER}")),
        # k * (m - k + 1) voters: 100 * 9901, with m within its own limit
        ("jr_hard", ("m=10000", "k=100")),
    ],
)
def test_gen_over_voter_budget_exits_2_at_once(capsys, name, params):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", name, *(f"--param={p}" for p in params))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "voters exceed the limit" in err


def test_gen_voter_budget_admits_the_limit(capsys):
    code, out, _ = run(capsys, "gen", "spread", f"--param=n={COMMITTEE_LIMIT}", "--param=m=1", "--param=L=0")
    assert code == 0 and out.startswith(f"fvr 1\nm 1\nn {COMMITTEE_LIMIT}\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["solve", "--help"], ["gen", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    command = argv[0] if argv[0] in ("solve", "gen") else "COMMAND"
    assert out.startswith(f"usage: fvr {command}")
    if command == "gen":
        assert "party_split" in out


LONG = "1" * (NUMERAL_LIMIT + 1)  # more digits than int() reads by default


def run_to_exit(capsys, *argv):
    """``run``, also for a usage error, which ends in SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "text, argv",
    [
        (f"fvr 1\nm 4\nn {LONG}\n", ("solve", "{file}", "--rule", "opt")),
        (f"fvr 1\nm 4\nn 1\n{LONG}\n", ("solve", "{file}", "--rule", "opt")),
        (f"fvr-ranked 1\nm 3\nn 1\n0 {LONG} 2\n", ("pvc", "{file}")),
        (None, ("verify", "opt", "--n-max", LONG)),
        (INTRO_TEXT, ("solve", "{file}", "--rule", f"power:{LONG}")),
        (None, ("gen", "spread", f"--param=n={LONG}", "--param=m=3", "--param=L=1")),
    ],
    ids=["count-line", "voter-line", "ranked-line", "integer-flag", "power", "param"],
)
def test_an_overlong_numeral_is_one_error_and_exit_2(capsys, tmp_path, text, argv):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_to_exit(capsys, *(arg.format(file=path) for arg in argv))
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.splitlines()[0]]


FOURS = "4" * 4000
THREES = "3" * 4001


@pytest.mark.parametrize(
    "params",
    [
        # g multiplies the two weights: over 4,300 digits.
        (f"w=1/4:{FOURS},1/2:1/{FOURS}", "f=1/4", "fprime=1/2", "n=3"),
        # m is the lcm of the two denominators: over 4,300 digits.
        ("w=1/4:1", f"f=1/{FOURS}", f"fprime=1/{THREES}", "n=3"),
    ],
    ids=["g", "m"],
)
def test_gen_weight_gap_value_built_from_two_inputs_is_not_printed(capsys, params):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "weight_gap", *(f"--param={p}" for p in params))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_jr_hard_checks_m_before_printing_its_voter_count(capsys):
    code, out, err = run(capsys, "gen", "jr_hard", f"--param=m={'9' * 4000}", f"--param=k={'9' * 3999}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: m must be at most {CANDIDATE_LIMIT}, got 999") and err.count("\n") == 1


def test_gen_party_split_checks_reps_before_doubling_it(capsys):
    # 2 * reps would have 4,301 digits, past what str() prints.
    reps = "9" * NUMERAL_LIMIT
    code, out, err = run(capsys, "gen", "party_split", "--param=k=2", f"--param=reps={reps}")
    assert (code, out) == (2, "")
    assert err == f"error: replication factor {reps} would build more than {COMMITTEE_LIMIT} voters\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{file}", "--rule", "threshold:1e-10000000"),
        ("curve", "--rules", "threshold:1e-100000"),
    ],
)
def test_exponent_notation_exits_2_at_once(capsys, intro_file, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *(arg.format(file=intro_file) for arg in argv))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exponent notation" in err


# SHA-256 of each gap generator's output at one valid parameter set: the
# three generators share one row construction, which must keep these bytes.
GAP_DIGESTS = [
    (
        ("approval_gap", "n=12", "m=10", "s=1/2", "r=7/12"),
        "791adc5aaabd7b5ba09b2f78982c04d661d39c5b9f6b7822eab0f13bef587228",
    ),
    (
        ("power_gap", "n=40", "m=20", "s=1/2", "r=9/20", "p=2"),
        "1b742cd87f20318c5ab4b97816e65ad0f9e0a8e184cf5a89807248ed8155dcac",
    ),
    (
        ("weight_gap", "w=1/4:1,1/2:1", "f=1/4", "fprime=1/2", "n=200"),
        "482e676f2b4323b46653c640ce2ac6b8fefdb471d4fcbf5573af5fe146e4d350",
    ),
]


@pytest.mark.parametrize("argv, digest", GAP_DIGESTS, ids=[a[0] for a, _ in GAP_DIGESTS])
def test_gap_generator_output_is_pinned(capsys, argv, digest):
    name, *params = argv
    code, out, _ = run(capsys, "gen", name, *(f"--param={p}" for p in params))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
