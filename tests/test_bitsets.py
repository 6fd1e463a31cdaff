"""Instances stored as one int mask per voter, and the voter bitsets cached on them.

``Instance.from_masks`` must give the very instance ``build_instance`` gives
for the decoded sets: equal, with the same hash, ``repr`` and pickle.  The
cached views (one voter bitset per candidate and one per approval size)
must match a count made voter by voter.
"""

import pickle

from hypothesis import example, given
from hypothesis import strategies as st

from fvr.core import Instance, build_instance, decode_rows, encode_row
from fvr.formats import parse_instance, serialize_instance
from fvr.multi_winner import COMMITTEE_LIMIT


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


@given(masked_profiles())
@example((4, [3, 5, 14]))  # at most 64 cells: built voter by voter
@example((8, [255, 0, 1, 128, 170, 85, 7, 9]))
@example((13, [8191, 0, 4096, 1, 5461]))  # more: built from the row-major string
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
