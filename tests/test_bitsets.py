"""Instances stored as one int mask per voter, and the voter bitsets cached on them.

``Instance.from_masks`` must give the very instance ``build_instance`` gives
for the decoded sets: equal, with the same hash, ``repr`` and pickle.  The
cached views (one voter bitset per candidate and one per approval size)
must match a count made voter by voter, and the kernels read only those
views, never the decoded approval sets.
"""

import ast
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fvr
from fvr.core import (
    Committee,
    Instance,
    Optimal,
    ValidationError,
    build_instance,
    decode_rows,
    encode_row,
)
from fvr.formats import parse_instance, serialize_instance
from fvr.multi_winner import (
    COMMITTEE_LIMIT,
    MultiParams,
    brute_best_committee,
    committee_score,
    empirical_fvr_committee,
    empirical_fvr_committee_curve,
    expanded_rule,
    jr_check,
    sequential_picks,
    t_approves,
)
from fvr.single_winner import empirical_fvr_curve, empirical_fvr_point, score_all, winner
from fvr.verify import jr_by_sets


@st.composite
def masked_profiles(draw, m_max=70, n_max=12):
    """(m, masks): masks below 2**m, often empty or full."""
    m = draw(st.integers(1, m_max))
    mask = st.integers(0, 2**m - 1) | st.sampled_from([0, 2**m - 1])
    return m, draw(st.lists(mask, min_size=1, max_size=n_max))


def sets_of(m, masks):
    return [{a for a in range(m) if mask >> a & 1} for mask in masks]


@given(masked_profiles())
@example((1, [0]))
@example((3, [7, 0, 5]))
def test_from_masks_is_build_instance_of_the_decoded_sets(case):
    m, masks = case
    inst = Instance.from_masks(m, masks)
    # A frozenset's repr lists its items in hash-table order, which depends on
    # how it was built, so the rows passed on are the decoded frozensets.
    built = build_instance(m, decode_rows(masks, m))
    assert inst == built and built == inst
    assert inst == build_instance(m, sets_of(m, masks))
    assert hash(inst) == hash(built) == hash((m, built.approvals))
    assert repr(inst) == repr(built)
    assert inst.masks == built.masks == tuple(masks)
    assert inst.approvals == tuple(map(frozenset, sets_of(m, masks)))
    assert inst.n == built.n == len(masks)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(inst, protocol))
        assert type(copy) is Instance and copy == built and repr(copy) == repr(built)


# Shapes are n voters x m candidates: the corners 1x1, 1x64 and 64x1 and the
# 64-cell shapes 8x8, 4x16 and 16x4, next to larger profiles.
@given(masked_profiles())
@example((1, [1]))  # 1x1
@example((64, [2**63 | 2**31 | 1]))  # 1x64
@example((1, [1, 0, 0, 1] * 16))  # 64x1
@example((4, [3, 5, 14]))
@example((8, [255, 0, 1, 128, 170, 85, 7, 9]))  # 8x8
@example((16, [65535, 0, 32769, 21845]))  # 4x16
@example((4, list(range(16))))  # 16x4
@example((13, [8191, 0, 4096, 1, 5461]))
def test_cached_views_match_a_count_per_voter(case):
    m, masks = case
    inst = Instance.from_masks(m, masks)
    assert len(inst.columns) == m
    for a, column in enumerate(inst.columns):
        assert column == sum(1 << i for i, mask in enumerate(masks) if mask >> a & 1)
    sizes = [bin(mask).count("1") for mask in masks]
    assert list(inst.size_masks) == sorted(set(sizes))
    for size, voters in inst.size_masks.items():
        assert voters == sum(1 << i for i, s in enumerate(sizes) if s == size)


@given(masked_profiles())
def test_parse_inverts_serialize(case):
    inst = Instance.from_masks(*case)
    assert parse_instance(serialize_instance(inst)) == (inst, None, None)


@given(masked_profiles())
def test_codec_round_trip(case):
    m, masks = case
    rows = decode_rows(masks, m)
    assert rows == [frozenset(row) for row in sets_of(m, masks)]
    assert [encode_row(row, m) for row in rows] == masks


def test_encoder_takes_rows_as_wide_as_the_committee_limit():
    m = COMMITTEE_LIMIT
    assert encode_row({0, 7, m - 1}, m) == 1 | 1 << 7 | 1 << (m - 1)
    assert decode_rows([1 << (m - 1)], m) == [frozenset({m - 1})]


def test_direct_construction_freezes_each_row():
    inst = Instance(3, [{0}, [2, 1], ()])
    assert inst.approvals == (frozenset({0}), frozenset({1, 2}), frozenset())
    assert inst.masks == (1, 6, 0)
    assert inst == Instance(m=3, approvals=inst.approvals)


def test_equality_compares_the_candidate_count_as_well():
    # Equal masks over different candidate sets are different elections.
    assert Instance.from_masks(3, [1, 6]) != Instance.from_masks(4, [1, 6])
    assert build_instance(3, [{0}]) != build_instance(4, [{0}])


@pytest.mark.parametrize(
    "m, rows, message",
    [
        (3, [[-1]], r"voter 0: candidate index must be an integer in 0\.\.2, got -1"),
        (3, [[0], [5]], r"voter 1: candidate index must be an integer in 0\.\.2, got 5"),
        (3, [[3]], r"voter 0: candidate index must be an integer in 0\.\.2, got 3"),
        (3, [[True]], "got True"),
        (3, [[1.0]], "got 1.0"),
        (3, [["1"]], "got '1'"),
        (0, [[]], "m must be a positive integer, got 0"),
    ],
)
def test_direct_construction_rejects_bad_indices(m, rows, message):
    with pytest.raises(ValidationError, match=message):
        Instance(m, rows)


@st.composite
def index_profiles(draw):
    m = draw(st.integers(1, 9))
    return m, draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=8))


@given(index_profiles())
def test_direct_construction_is_build_instance(case):
    m, rows = case
    inst = Instance(m, rows)
    assert inst == build_instance(m, rows)
    assert hash(inst) == hash(build_instance(m, rows))


def test_kernels_never_decode_the_approvals():
    # An empty voter and a full one, among others; the kernels read only the
    # masks and the cached voter bitsets.
    inst = Instance.from_masks(5, [0, 0b11111, 0b00011, 0b10100, 0b01001, 0b00011])
    half = Fraction(1, 2)
    for family in (Optimal(), Optimal(2)):
        score_all(inst, family)
        winner(inst, family)
    empirical_fvr_point(inst, 1, half)
    empirical_fvr_curve(inst, 1)
    params = MultiParams(3, 2)
    expanded_rule(inst, params)
    committee = Committee(sequential_picks(inst, params))
    committee_score(inst, committee, 2)
    empirical_fvr_committee(inst, committee, half, 2)
    empirical_fvr_committee_curve(inst, committee, 2)
    jr_check(inst, committee)
    t_approves(inst, 3, committee, 2)
    brute_best_committee(inst, params, half)
    # The approvals slot is set on the first decode.
    assert not hasattr(inst, "_approvals")


def approvals_readers(tree, where="<module>"):
    """The innermost enclosing def of each read of an ``.approvals`` attribute."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Attribute) and child.attr == "approvals":
            yield where
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from approvals_readers(child, child.name if scope else where)


def test_only_the_explicit_expansion_reads_the_approval_sets():
    # The rules and audits run on the masks and the cached voter bitsets; a
    # new read of ``approvals`` in them is a voter loop over frozensets.
    package = Path(fvr.__file__).parent
    found = {
        (name, where)
        for name in ("single_winner", "multi_winner")
        for where in approvals_readers(ast.parse((package / f"{name}.py").read_text(encoding="utf-8")))
    }
    assert found == {("multi_winner", "expand_instance")}


@given(masked_profiles(m_max=12), st.data())
def test_jr_check_and_t_approves_match_their_set_definitions(case, data):
    m, masks = case
    inst = Instance.from_masks(m, masks)
    members = frozenset(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    committee = Committee(tuple(members))
    assert jr_check(inst, committee) == jr_by_sets(inst, members)
    for t in range(1, len(members) + 1):
        for i, approved in enumerate(inst.approvals):
            assert t_approves(inst, i, committee, t) == (len(approved & members) >= t)
