"""Plain-text file formats for approval instances and ranked profiles.

Both formats are versioned, line-oriented, diffable, and round-trip
losslessly: parsing a serialized document reproduces the original object,
and serialization is canonical (sorted indices, single spaces, one trailing
newline), so identical inputs yield byte-identical files.

Approval instance (version 1)::

    fvr 1
    m 4
    n 3
    1 2
    1 3
    2 3

followed optionally by ``k <int>`` and then ``t <int>`` lines.  Each voter
line holds strictly increasing candidate indices; an empty line is an empty
approval set.

Ranked profile (version 1)::

    fvr-ranked 1
    m 3
    n 2
    0 1 2
    2 1 0

where each voter line is a permutation of 0..m-1, most preferred first.

In both formats ``m`` is at most ``fvr.core.CANDIDATE_LIMIT``; a larger
value is rejected before anything is built for it.
"""

from __future__ import annotations

from .core import (
    CANDIDATE_LIMIT,
    Instance,
    RankedProfile,
    ValidationError,
    is_numeral,
    of_type,
    select,
)

__all__ = [
    "ParseError",
    "parse_instance",
    "serialize_instance",
    "parse_ranked",
    "serialize_ranked",
]

INSTANCE_HEADER = "fvr 1"
RANKED_HEADER = "fvr-ranked 1"


class ParseError(ValueError):
    """A parse failure with a 1-based line (and, where useful, column) position."""

    def __init__(self, line: int, message: str, column: int | None = None):
        self.line = line
        self.column = column
        self.reason = message
        location = f"line {line}"
        if column is not None:
            location += f", column {column}"
        super().__init__(f"{location}: {message}")


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_count(lines: list[str], index: int, key: str, limit: int | None = None) -> int:
    if index >= len(lines):
        raise ParseError(index + 1, f"missing '{key} <int>' line")
    parts = lines[index].split(" ")
    if len(parts) != 2 or parts[0] != key or not is_numeral(parts[1]):
        raise ParseError(index + 1, f"expected '{key} <int>', got {lines[index]!r}")
    value = int(parts[1])
    if value < 1:
        raise ParseError(index + 1, f"{key} must be at least 1, got {value}")
    if limit is not None and value > limit:
        raise ParseError(index + 1, f"{key} must be at most {limit}, got {value}")
    return value


def _parse_index_line(line: str, line_no: int, m: int, *, strictly_increasing: bool) -> list[int]:
    indices: list[int] = []
    column = 1
    prev: int | None = None
    if line == "":
        return indices
    for token in line.split(" "):
        if token == "":
            raise ParseError(line_no, "empty token (stray space?)", column)
        if not is_numeral(token):
            raise ParseError(line_no, f"not a candidate index: {token!r}", column)
        value = int(token)
        if value >= m:
            raise ParseError(line_no, f"index {value} out of range (m = {m})", column)
        if strictly_increasing and prev is not None:
            if value == prev:
                raise ParseError(line_no, f"duplicate index {value}", column)
            if value < prev:
                raise ParseError(
                    line_no, f"indices must be strictly increasing ({value} after {prev})", column
                )
        indices.append(value)
        prev = value
        column += len(token) + 1
    return indices


class _BitOf(dict):
    """The numeral of an index a < m, leading zeros allowed (``"7"``, ``"07"``)
    -> its bit ``1 << a``.  Each canonical numeral ``str(a)`` is stored the
    first time it is looked up, so the map holds only the indices a file uses;
    another spelling is looked up through it and not stored.  Any other token
    ("", "m", an index >= m) raises ``KeyError``."""

    def __init__(self, m: int):
        self.m = m

    def __missing__(self, token: str) -> int:
        a = int(token) if is_numeral(token) else self.m
        if a >= self.m:
            raise KeyError(token)
        if token == str(a):
            self[token] = 1 << a
        return self[str(a)]


def parse_instance(text: str) -> tuple[Instance, int | None, int | None]:
    """Parse an approval-instance document; returns (instance, k, t)."""
    lines = _lines(text)
    if not lines or lines[0] != INSTANCE_HEADER:
        got = lines[0] if lines else ""
        raise ParseError(1, f"expected header {INSTANCE_HEADER!r}, got {got!r}")
    m = _parse_count(lines, 1, "m", CANDIDATE_LIMIT)
    n = _parse_count(lines, 2, "n")
    if len(lines) < 3 + n:
        raise ParseError(len(lines) + 1, f"expected {n} voter lines, found {len(lines) - 3}")
    # Each token is looked up among the index numerals (``_BitOf``), and its bit
    # is summed into the voter's mask; the line is valid when the bits are
    # distinct (as many set bits as tokens) and increase, and "" is the empty
    # ballot.  Any other line (a token not in the map, such as "m" or the "" of
    # a stray space; a repeat; a descent) gets the per-token check's error.
    bit_of = _BitOf(m).__getitem__
    masks = []
    for i in range(n):
        line = lines[3 + i]
        try:
            bits = list(map(bit_of, line.split(" "))) if line else []
        except KeyError:
            pass
        else:
            mask = sum(bits)
            if mask.bit_count() == len(bits) and sorted(bits) == bits:
                masks.append(mask)
                continue
        _parse_index_line(line, 4 + i, m, strictly_increasing=True)
        raise ParseError(4 + i, "not a voter line")
    k: int | None = None
    t: int | None = None
    extra = 3 + n
    if extra < len(lines) and lines[extra].startswith("k "):
        k = _parse_count(lines, extra, "k")
        extra += 1
    if extra < len(lines) and lines[extra].startswith("t "):
        if k is None:
            raise ParseError(extra + 1, "found a 't' line without a preceding 'k' line")
        t = _parse_count(lines, extra, "t")
        extra += 1
    if extra < len(lines):
        raise ParseError(extra + 1, f"unexpected extra line {lines[extra]!r}")
    # Every index was checked above; build_instance would check them again.
    return Instance.from_masks(m, masks), k, t


def serialize_instance(inst: Instance, k: int | None = None, t: int | None = None) -> str:
    """Canonical serialization: sorted indices, single spaces, trailing newline."""
    of_type(inst, Instance, "instance")
    if t is not None and k is None:
        raise ValidationError("cannot serialize t without k")
    parts = [INSTANCE_HEADER, f"m {inst.m}", f"n {inst.n}"]
    # One numeral per candidate, not one str() per approval, picked by each mask's bits.
    numerals = [str(a) for a in range(inst.m)]
    parts.extend(" ".join(select(numerals, mask)) for mask in inst.masks)
    if k is not None:
        parts.append(f"k {k}")
    if t is not None:
        parts.append(f"t {t}")
    return "\n".join(parts) + "\n"


def parse_ranked(text: str) -> RankedProfile:
    """Parse a ranked-profile document."""
    lines = _lines(text)
    if not lines or lines[0] != RANKED_HEADER:
        got = lines[0] if lines else ""
        raise ParseError(1, f"expected header {RANKED_HEADER!r}, got {got!r}")
    m = _parse_count(lines, 1, "m", CANDIDATE_LIMIT)
    n = _parse_count(lines, 2, "n")
    if len(lines) != 3 + n:
        raise ParseError(
            min(len(lines), 3 + n) + 1,
            f"expected exactly {n} ranking lines, found {len(lines) - 3}",
        )
    rankings = []
    for i in range(n):
        row = _parse_index_line(lines[3 + i], 4 + i, m, strictly_increasing=False)
        if sorted(row) != list(range(m)):
            raise ParseError(4 + i, f"not a permutation of 0..{m - 1}: {lines[3 + i]!r}")
        rankings.append(tuple(row))
    return RankedProfile(m, tuple(rankings))


def serialize_ranked(profile: RankedProfile) -> str:
    """Canonical serialization of a ranked profile."""
    of_type(profile, RankedProfile, "profile")
    parts = [RANKED_HEADER, f"m {profile.m}", f"n {profile.n}"]
    numeral = [str(a) for a in range(profile.m)].__getitem__
    parts.extend(" ".join(map(numeral, ranking)) for ranking in profile.rankings)
    return "\n".join(parts) + "\n"
