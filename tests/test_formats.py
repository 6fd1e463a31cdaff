"""Instance and ranked-profile file formats: round trips and diagnostics."""

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvr.core import (
    CANDIDATE_LIMIT,
    NUMERAL_LIMIT,
    Instance,
    RankedProfile,
    ValidationError,
    build_instance,
)
from fvr.formats import (
    ParseError,
    _parse_index_line,
    parse_instance,
    parse_ranked,
    serialize_instance,
    serialize_ranked,
)

INTRO = build_instance(4, [{1, 2}, {1, 3}, {2, 3}])
INTRO_TEXT = "fvr 1\nm 4\nn 3\n1 2\n1 3\n2 3\n"


def test_an_index_numeral_of_the_longest_length_parses():
    inst, _, _ = parse_instance(f"fvr 1\nm 4\nn 1\n{'0' * (NUMERAL_LIMIT - 1)}1\n")
    assert inst.approvals == (frozenset({1}),)
    with pytest.raises(ParseError, match="not a candidate index"):
        parse_instance(f"fvr 1\nm 4\nn 1\n{'0' * NUMERAL_LIMIT}1\n")


def test_serialize_intro_canonical():
    assert serialize_instance(INTRO) == INTRO_TEXT


def test_parse_intro():
    inst, k, t = parse_instance(INTRO_TEXT)
    assert inst == INTRO
    assert k is None and t is None


def test_round_trip_with_k_and_t():
    text = serialize_instance(INTRO, k=2, t=1)
    assert text.endswith("k 2\nt 1\n")
    inst, k, t = parse_instance(text)
    assert (inst, k, t) == (INTRO, 2, 1)


def test_round_trip_with_k_only():
    inst, k, t = parse_instance(serialize_instance(INTRO, k=3))
    assert (inst, k, t) == (INTRO, 3, None)


def test_serialize_t_without_k_rejected():
    with pytest.raises(ValidationError):
        serialize_instance(INTRO, t=1)


def test_empty_approval_line_round_trips():
    inst = build_instance(2, [set(), {0}])
    text = serialize_instance(inst)
    assert text == "fvr 1\nm 2\nn 2\n\n0\n"
    parsed, _, _ = parse_instance(text)
    assert parsed == inst


def test_parse_accepts_missing_final_newline():
    inst, _, _ = parse_instance(INTRO_TEXT.rstrip("\n"))
    assert inst == INTRO


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("fvr 2\nm 1\nn 1\n\n", 1, "header"),
        ("fvr 1\nm x\nn 1\n\n", 2, "m"),
        ("fvr 1\nm 2\nn 0\n", 3, "at least 1"),
        ("fvr 1\nm 2\nn 2\n0\n", 5, "voter lines"),
        ("fvr 1\nm 2\nn 1\n0 0\n", 4, "duplicate index 0"),
        ("fvr 1\nm 2\nn 1\n1 0\n", 4, "strictly increasing"),
        ("fvr 1\nm 2\nn 1\n0 2\n", 4, "out of range"),
        ("fvr 1\nm 2\nn 1\n0  1\n", 4, "empty token"),
        ("fvr 1\nm 2\nn 1\n0\nt 1\n", 5, "without a preceding 'k'"),
        ("fvr 1\nm 2\nn 1\n0\nk 1\nt 1\nx\n", 7, "unexpected extra line"),
        ("fvr 1\nm 2\nn 1\nhello\n", 4, "not a candidate index"),
        ("fvr 1\nm \u00b2\nn 1\n\n", 2, "m"),
        ("fvr 1\nm 2\nn 1\n0 \u00b2\n", 4, "not a candidate index"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_instance(text)
    assert excinfo.value.line == line
    assert fragment in str(excinfo.value)


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as excinfo:
        parse_instance("fvr 1\nm 9\nn 1\n0 3 9\n")
    assert excinfo.value.line == 4
    assert excinfo.value.column == 5


def error_position(exc):
    return exc.line, exc.column, exc.reason


VOTER_LINES = st.one_of(
    st.text(alphabet="0123456789 \u00b2\u0663\rx", max_size=12),
    st.lists(st.integers(0, 40), max_size=6).map(lambda xs: " ".join(map(str, xs))),
)


@given(VOTER_LINES, st.integers(1, 30))
@example("", 3)
@example("0 1 2", 3)
@example("0 1 3", 3)  # index == m
@example("3", 3)
@example("007 8", 9)
@example("07", 8)
@example("0 07", 8)
@example("1 1", 3)  # duplicate
@example("0 2 2", 3)
@example("2 1", 3)  # descending pair
@example("0 2 1", 3)
@example("0  1", 3)  # empty token
@example(" 0", 3)
@example("0 ", 3)  # trailing space
@example("0 1\r", 3)
@example("\r", 3)
@example("1 \u00b2", 3)
@example("\u0663", 5)
@example("0 \u0663", 5)
def test_voter_line_fast_path_matches_per_token_parse(line, m):
    """Every voter line parses to the same instance, or fails at the same
    place with the same text, as the per-token check alone gives."""
    text = f"fvr 1\nm {m}\nn 1\n{line}\n"
    try:
        expected = frozenset(_parse_index_line(line, 4, m, strictly_increasing=True))
    except ParseError as exc:
        with pytest.raises(ParseError) as excinfo:
            parse_instance(text)
        assert error_position(excinfo.value) == error_position(exc)
    else:
        assert parse_instance(text) == (build_instance(m, [expected]), None, None)


@pytest.mark.parametrize(
    "parse, header, row",
    [(parse_instance, "fvr 1", "0"), (parse_ranked, "fvr-ranked 1", "0")],
)
def test_candidate_count_over_the_limit_is_a_parse_error_on_line_2(parse, header, row):
    with pytest.raises(ParseError) as excinfo:
        parse(f"{header}\nm {CANDIDATE_LIMIT + 1}\nn 1\n{row}\n")
    assert error_position(excinfo.value) == (
        2,
        None,
        f"m must be at most {CANDIDATE_LIMIT}, got {CANDIDATE_LIMIT + 1}",
    )


def test_candidate_count_at_the_limit_parses():
    inst, _, _ = parse_instance(f"fvr 1\nm {CANDIDATE_LIMIT}\nn 1\n{CANDIDATE_LIMIT - 1}\n")
    assert inst.m == CANDIDATE_LIMIT
    ranking = " ".join(map(str, range(CANDIDATE_LIMIT)))
    assert parse_ranked(f"fvr-ranked 1\nm {CANDIDATE_LIMIT}\nn 1\n{ranking}\n").m == CANDIDATE_LIMIT


def test_token_map_holds_only_the_tokens_a_file_uses():
    # An eager map of every numeral "0".."m-1" to its bit peaks at 7.7 MB on this
    # file (CPython 3.11.7).
    text = f"fvr 1\nm {CANDIDATE_LIMIT}\nn 1\n0 {CANDIDATE_LIMIT // 2} {CANDIDATE_LIMIT - 1}\n"
    tracemalloc.start()
    try:
        inst, _, _ = parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.approvals == (frozenset({0, CANDIDATE_LIMIT // 2, CANDIDATE_LIMIT - 1}),)
    assert peak < 1_000_000



def test_only_the_token_map_accepts_voter_lines(monkeypatch):
    """Leading zeros and the empty line are read by the map alone; the
    per-token check is reached only to word an invalid line's error."""

    def refuse(*args, **kwargs):
        raise AssertionError("the per-token check was asked to accept a line")

    monkeypatch.setattr("fvr.formats._parse_index_line", refuse)
    inst, _, _ = parse_instance("fvr 1\nm 9\nn 3\n07\n007 8\n\n")
    assert inst == build_instance(9, [{7}, {7, 8}, set()])


def test_leading_zero_spellings_add_no_bits_to_the_token_map():
    # 300 spellings of the top index, each with its own 1.3 kB bit, peak at
    # 0.59 MB; looked up through the one canonical bit, at 0.12 MB (CPython 3.11.7).
    top = CANDIDATE_LIMIT - 1
    line = " ".join("0" * zeros + str(top) for zeros in range(1, 301))
    text = f"fvr 1\nm {CANDIDATE_LIMIT}\nn 1\n{line}\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as excinfo:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert error_position(excinfo.value) == (4, 7, f"duplicate index {top}")
    assert peak < 300_000

@given(st.data())
def test_instance_round_trip(data):
    m = data.draw(st.sampled_from((1, 2, 6, 9, 10, 11, 99, 100, 101, 300)) | st.integers(1, 300))
    n = data.draw(st.integers(1, 5))
    rows = [data.draw(st.frozensets(st.integers(0, m - 1), max_size=min(m, 40))) for _ in range(n)]
    inst = build_instance(m, rows)
    parsed, k, t = parse_instance(serialize_instance(inst))
    assert parsed == inst and k is None and t is None


@given(st.data())
def test_ranked_round_trip_any_size(data):
    m = data.draw(st.sampled_from((1, 2, 10, 11, 100, 101, 300)) | st.integers(1, 300))
    n = data.draw(st.integers(1, 3))
    rankings = [data.draw(st.permutations(range(m))) for _ in range(n)]
    profile = RankedProfile(m, rankings)
    assert parse_ranked(serialize_ranked(profile)) == profile


def test_ranked_round_trip():
    profile = RankedProfile(3, [(0, 1, 2), (2, 1, 0)])
    text = serialize_ranked(profile)
    assert text == "fvr-ranked 1\nm 3\nn 2\n0 1 2\n2 1 0\n"
    assert parse_ranked(text) == profile


@pytest.mark.parametrize(
    "text, line",
    [
        ("fvr 1\nm 3\nn 1\n0 1 2\n", 1),
        ("fvr-ranked 1\nm 3\nn 1\n0 1 1\n", 4),
        ("fvr-ranked 1\nm 3\nn 1\n0 1\n", 4),
        ("fvr-ranked 1\nm 3\nn 2\n0 1 2\n", 5),
    ],
)
def test_ranked_parse_errors(text, line):
    with pytest.raises(ParseError) as excinfo:
        parse_ranked(text)
    assert excinfo.value.line == line


# Whole files: a header (right, wrong or absent), then short lines mixing the
# count keys, numerals, spaces, stray carriage returns and a non-ASCII digit.
FILE_LINES = st.lists(
    st.one_of(
        st.text(alphabet="mnkt 0123456789\r٣", max_size=8),
        st.sampled_from(["m 3", "n 1", "n 2", "k 2", "t 1", "0 1 2", "2 1 0", "", "0"]),
    ),
    max_size=7,
)
FILES = st.tuples(st.sampled_from(["fvr 1", "fvr-ranked 1", "fvr 2", ""]), FILE_LINES).map(
    lambda parts: "\n".join([parts[0], *parts[1]])
) | st.text(max_size=30)


@given(FILES)
@example("fvr 1\nm 3\nn 2\n0 1\n2\nk 2\nt 1\n")
@example("fvr-ranked 1\nm 3\nn 2\n0 1 2\n2 1 0")
@example("fvr 1\nm 3\nn 1\n0 1\nt 1")
@example("fvr-ranked 1\nm 2\nn 1\n1 0 \n")
def test_any_text_parses_or_is_a_parse_error(text):
    """Both parsers turn any text into their record or a ParseError, nothing else,
    and what they accept serializes to text that parses back to it."""
    try:
        inst, k, t = parse_instance(text)
    except ParseError:
        pass
    else:
        assert type(inst) is Instance
        assert parse_instance(serialize_instance(inst, k, t)) == (inst, k, t)
    try:
        profile = parse_ranked(text)
    except ParseError:
        pass
    else:
        assert type(profile) is RankedProfile
        assert parse_ranked(serialize_ranked(profile)) == profile
