"""Core domain model: approval instances, voter flexibility, and the
weight-function families that drive every scoring rule in this package.

Everything is exact.  Scores, audit shares, probabilities, and bounds are
all `fractions.Fraction` values; floats never enter a computation (the CLI
renders decimals for display only).  All types are immutable after
construction and all operations are pure, so everything here is safe to
use from multiple threads without coordination.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from typing import TypeVar

Frac = Fraction
_T = TypeVar("_T")

__all__ = [
    "Frac",
    "ValidationError",
    "SizeLimitError",
    "FrozenRecordError",
    "record",
    "CANDIDATE_LIMIT",
    "COMMITTEE_LIMIT",
    "POWER_LIMIT",
    "NUMERAL_LIMIT",
    "VIEW_LIMIT",
    "check_views",
    "as_frac",
    "open_unit",
    "int_at_least",
    "index_in",
    "shown",
    "comb_over",
    "is_numeral",
    "select",
    "decode_rows",
    "encode_row",
    "Instance",
    "build_instance",
    "RankedProfile",
    "flexibility",
    "flexible_size",
    "flexibility_grid",
    "Constant",
    "Threshold",
    "Power",
    "Optimal",
    "Table",
    "WeightFn",
    "as_family",
    "of_type",
    "parse_family",
    "eval_weight",
    "Committee",
    "MultiParams",
    "AuditCurve",
]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class SizeLimitError(ValidationError):
    """Raised when an enumeration would exceed its configured size budget."""


# Cap on the candidate count of a parsed file or a generated random instance:
# output and per-candidate state grow with m (the largest m in use is 400).
CANDIDATE_LIMIT = 10_000

# Cap on how many committees an exhaustive construction may touch, and on
# how many voters a generator may build.  It also caps the m of an
# ``Instance``, since ``multi_winner.expand_instance`` makes each of up to
# this many committees a candidate.
COMMITTEE_LIMIT = 200_000

# Cap on the exponent p of the power family f**p.  A score under it is an int
# over m**p, and the closed-form guarantee at s = i/d has terms up to
# p**p * d**(p+1); with m and d (2 * the curve grid) at most 2 * CANDIDATE_LIMIT,
# every value ``fvr solve`` and ``fvr curve`` print then has at most about
# 100*log10(100) + 101*log10(20000) + 7 < 650 digits per numerator or
# denominator (7 for a voter count up to 10**7), far inside Python's
# 4300-digit limit on int-to-str conversion, and each term costs microseconds.
POWER_LIMIT = 100

# Cap on the characters of a numeral read from text: by default ``int`` refuses
# to read a longer digit string or to print an int of more digits, so an error
# message words such an int by its size (:func:`shown`).
NUMERAL_LIMIT = 4300

# Cap on n*(m+3), the length of the row string an ``Instance`` builds its views from, however sparse.
VIEW_LIMIT = 10**8


class FrozenRecordError(AttributeError):
    """Raised on assignment to (or deletion of) a field of a frozen record."""


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Class decorator: a frozen record over the class's annotated fields, in order.

    Adds what ``@dataclass(frozen=True)`` would: ``__init__`` (positional or
    keyword arguments, class-level defaults, then ``__post_init__`` if
    defined), ``__eq__`` (same class, equal field tuples), ``__repr__`` as
    ``Name(field=value, ...)``, ``__hash__`` of the field tuple, and
    read-only fields: assigning or deleting one raises
    :class:`FrozenRecordError`, so ``__post_init__`` normalises a field
    through ``object.__setattr__``.  Instances keep a ``__dict__``, so they
    pickle.  ``dataclasses`` is not used because importing it pulls in
    ``inspect`` and half a dozen more modules, which cost more start-up time
    than the rest of this package when no bytecode is cached.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_default_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(f", {f}=_default_{f}" if f in cls.__dict__ else f", {f}" for f in fields)
    body = [f"    _set(self, {f!r}, {f})" for f in fields]
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")

    def as_tuple(obj: str) -> str:
        return "(" + "".join(f"{obj}.{f}," for f in fields) + ")"

    mine, theirs = as_tuple("self"), as_tuple("other")
    fields_shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = "\n".join([
        f"def __init__(self{params}):",
        *(body or ["    pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {theirs}",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash({mine})",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({fields_shown})'",
    ])
    namespace = {"_set": object.__setattr__, **defaults}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = fields
    return cls


def as_frac(x: object) -> Frac:
    """Coerce an int, Fraction, or fraction string to an exact rational.

    Floats are rejected: silently converting them would smuggle binary
    rounding error into a library whose whole point is exactness.  So are strings
    over ``NUMERAL_LIMIT`` characters and exponent notation, as in '1e-10000000'.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"expected a rational number, got {shown(x)}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if len(x) > NUMERAL_LIMIT or "e" in x.lower():
                raise ValueError(f"over {NUMERAL_LIMIT} characters, or exponent notation")
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {shown(x)} ({exc})") from None
    if isinstance(x, float):
        raise ValidationError(
            f"refusing float {x!r}: pass an exact value such as Fraction(1, 2) or '1/2'"
        )
    raise ValidationError(f"expected a rational number, got {shown(x)}")


def open_unit(x: object, what: str = "threshold") -> Frac:
    """``as_frac(x)``, checked to lie strictly inside (0, 1); ``what`` names it in the error."""
    value = as_frac(x)
    # A Fraction's denominator is positive, so this is 0 < value < 1 in ints.
    if not 0 < value.numerator < value.denominator:
        raise ValidationError(f"{what} {shown(value, str)} lies outside (0,1)")
    return value


def int_at_least(x: object, what: str, low: int | None = 0, high: int | None = None) -> int:
    """``x``, checked to be an int (not a bool) of at least ``low``, or any int when
    ``low`` is None (a seed), and at most ``high`` when given; ``what`` names it."""
    if isinstance(x, bool) or not isinstance(x, int) or (low is not None and x < low):
        kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        kind = kinds.get(low, f"an integer >= {low}")
        raise ValidationError(f"{what} must be {kind}, got {shown(x)}")
    if high is not None and x > high:
        raise SizeLimitError(f"{what} must be at most {high}, got {shown(x)}")
    return x


def index_in(x: object, size: int, what: str) -> int:
    """``x``, checked to be an int (not a bool) in 0..size-1; ``what`` names it.  Hot loops
    inline the test ``type(x) is int and 0 <= x < size`` and call this only on a failure."""
    if type(x) is int and 0 <= x < size:
        return x
    raise ValidationError(f"{what} must be an integer in 0..{size - 1}, got {shown(x)}")


# The least int of over NUMERAL_LIMIT digits: ``str`` refuses to print it.
_UNPRINTABLE = 10**NUMERAL_LIMIT

# What ``repr`` puts around the items of a non-empty builtin container, and
# what it prints for a container met again inside itself.
_BRACKETS = {
    list: ("[", "]", "[...]"),
    tuple: ("(", ")", "(...)"),
    dict: ("{", "}", "{...}"),
    set: ("{", "}", "set(...)"),
    frozenset: ("frozenset({", "})", "frozenset(...)"),
}


def _repr_within(x: object, room: int, active: tuple[int, ...] = ()) -> str | None:
    """``repr(x)`` if it runs to at most ``room`` characters, else None.  A str or
    a builtin container is printed item by item and given up once past ``room``,
    so it costs about ``room`` characters however long its full text would be;
    ``active`` holds the ids of the containers being printed around ``x``."""
    kind = type(x)
    if kind is str and len(x) + 2 > room:
        return None
    if kind not in _BRACKETS or not x:
        printed = repr(x)
    elif id(x) in active:
        printed = _BRACKETS[kind][2]
    else:
        opening, closing, _ = _BRACKETS[kind]
        inner = (*active, id(x))
        # Each item is charged its text and a ", " after it; the last is not followed by one.
        left = room - len(opening) - len(closing) + 2
        parts = []
        for item in x.items() if kind is dict else x:
            texts = []
            for y in item if kind is dict else (item,):
                text = _repr_within(y, left - 2, inner)
                if text is None:
                    return None
                texts.append(text)
                left -= len(text) + 2
            parts.append(": ".join(texts))
        printed = opening + ", ".join(parts) + "," * (kind is tuple and len(parts) == 1) + closing
    return printed if len(printed) <= room else None


def shown(x: object, text: Callable[[object], str] = repr) -> str:
    """``text(x)`` for an error message, except that an int of over ``NUMERAL_LIMIT``
    digits, or a Fraction with such a numerator or denominator, which ``str``
    refuses to print, is worded by its bit length instead; it is never converted.
    A string of over ``NUMERAL_LIMIT`` characters is worded by its length, and
    a collection holding such an int by its type.  Any other value whose text
    runs over ``NUMERAL_LIMIT`` characters, or nests past the recursion limit,
    is worded by its type; a str or a builtin container is printed only that
    far (:func:`_repr_within`)."""
    if isinstance(x, str) and len(x) > NUMERAL_LIMIT:
        return f"a string of {len(x)} characters"
    if isinstance(x, int) and abs(x) >= _UNPRINTABLE:
        return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"
    if isinstance(x, Fraction) and max(abs(x.numerator), x.denominator) >= _UNPRINTABLE:
        return (
            f"{'a negative' if x < 0 else 'a'} fraction with a {x.numerator.bit_length()}-bit "
            f"numerator and a {x.denominator.bit_length()}-bit denominator"
        )
    try:
        # A builtin container's str is its repr.
        printed = _repr_within(x, NUMERAL_LIMIT) if text is repr or type(x) in _BRACKETS else text(x)
    except ValueError:  # raised by the repr of an int of over NUMERAL_LIMIT digits inside x
        return f"a {type(x).__name__} too long to print"
    except RecursionError:
        return f"a {type(x).__name__} nested too deep to print"
    if printed is None or len(printed) > NUMERAL_LIMIT:
        return f"a {type(x).__name__} printed in over {NUMERAL_LIMIT} characters"
    return printed


def comb_over(total: int, chosen: int, budget: int) -> bool:
    """Whether C(total, chosen) > ``budget`` (0 <= chosen <= total), built stepwise as
    C(total - k + j, j) for j = 1..k = min(chosen, total - chosen); each step at least
    doubles it, so the loop stops within ``budget.bit_length() + 1`` steps."""
    k = min(chosen, total - chosen)
    count = 1
    for j in range(1, k + 1):
        count = count * (total - k + j) // j
        if count > budget:
            return True
    return count > budget


def is_numeral(text: str) -> bool:
    """Whether ``text`` is a plain decimal numeral, ``[0-9]+`` of at most
    ``NUMERAL_LIMIT`` digits, that ``int`` accepts.

    ``str.isdigit`` alone also passes digits such as '²', which ``int`` rejects.
    """
    return text.isascii() and text.isdigit() and len(text) <= NUMERAL_LIMIT


# Maps the digits of a binary numeral to the bytes 0 and 1, for compress().
_BITS = bytes.maketrans(b"01", b"\0\1")


def select(items: Sequence[_T], mask: int) -> Iterator[_T]:
    """The items at the set bits of ``mask``, in order: item c when bit 2**c is set.

    The mask's binary numeral, reversed so that digit c is bit c, becomes
    0/1 flags for ``compress``, all in C-level passes.  The numeral has no
    leading zeros, so it may be shorter than ``items``; ``compress`` stops
    at its end.
    """
    return compress(items, bin(mask)[:1:-1].encode().translate(_BITS))


def decode_rows(masks: Iterable[int], m: int) -> list[frozenset[int]]:
    """The approval set of each mask < 2**m: candidate c is in it when bit 2**c is set."""
    candidates = range(m)
    return [frozenset(select(candidates, mask)) for mask in masks]


def encode_row(row: Iterable[int], m: int) -> int:
    """The mask of an approval set over candidates 0..m-1: bit 2**a for each a in it.

    One digit per candidate, so the cost is linear in m, where summing
    ``1 << a`` would cost |row|*m.  Indices must lie in 0..m-1.
    """
    digits = bytearray(b"0") * m
    for a in row:
        digits[~a] = 49  # ord("1"); digit ~a, counted from the right, is bit a
    return int(digits, 2)


class Instance:
    """An approval election: candidates 0..m-1 and one approval set per voter.

    Stored as one int mask per voter, ``masks[i]`` (bit 2**a set when voter
    i approves candidate a).  ``approvals``, one frozenset per voter, is a
    view decoded on first use.  The kernels read two more views, built
    at construction: ``columns``, one voter bitset per candidate (bit
    2**i set when voter i approves her), and ``size_masks``, one voter bitset
    per approval size in increasing order.  Equality, hashing, ``repr`` and
    pickling are those of a frozen record with fields ``m`` and ``approvals``.

    An instance has at least one voter: both constructors refuse an empty
    profile, so every audit's share over the n voters is defined.  Both
    check that m is an int in 1..``COMMITTEE_LIMIT`` before any row is
    built; the constructor also checks that every index is an int in
    0..m-1 (:func:`index_in`), while :meth:`from_masks` trusts its masks to
    lie below 2**m.  Both then refuse n*(m+3) over ``VIEW_LIMIT`` before the
    views are built.
    """

    __slots__ = ("m", "masks", "n", "columns", "size_masks", "_approvals")
    __match_args__ = ("m", "approvals")
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, m: int, approvals: Iterable[Iterable[int]]):
        int_at_least(m, "m", 1, COMMITTEE_LIMIT)
        try:
            rows = tuple(map(frozenset, approvals))
        except TypeError as exc:
            raise ValidationError(f"approvals must be rows of candidate indices ({exc})") from None
        for i, row in enumerate(rows):
            for a in row:
                if not (type(a) is int and 0 <= a < m):
                    index_in(a, m, f"voter {i}: candidate index")
        _fill(self, m, tuple(encode_row(row, m) for row in rows))
        _set(self, "_approvals", rows)

    @classmethod
    def from_masks(cls, m: int, masks: Iterable[int]) -> Instance:
        """The instance whose voter i approves the candidates at the set bits of
        ``masks[i]``; each mask must be below 2**m."""
        inst = object.__new__(cls)
        _fill(inst, int_at_least(m, "m", 1, COMMITTEE_LIMIT), tuple(masks))
        return inst

    @property
    def approvals(self) -> tuple[frozenset[int], ...]:
        try:
            return self._approvals
        except AttributeError:  # left unset until first read
            _set(self, "_approvals", tuple(decode_rows(self.masks, self.m)))
            return self._approvals

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.m == other.m and self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.approvals))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(m={self.m!r}, approvals={self.approvals!r})"

    def __reduce__(self) -> tuple:
        return self.__class__.from_masks, (self.m, self.masks)


_set = object.__setattr__


def check_views(n: int, m: int) -> None:
    """Refuse n voters over m candidates whose views would run over ``VIEW_LIMIT``: they are
    built from a row string of n*(m+3) characters (:func:`_kernel_views`).  Generators call
    it before they build any mask."""
    if n * (m + 3) > VIEW_LIMIT:
        raise SizeLimitError(
            f"{n} voters over {m} candidates need views of {n * (m + 3)} characters, over the limit {VIEW_LIMIT}"
        )


def _fill(inst: Instance, m: int, masks: tuple[int, ...]) -> None:
    if not masks:
        raise ValidationError("need at least one voter")
    n = len(masks)
    check_views(n, m)
    _set(inst, "m", m)
    _set(inst, "masks", masks)
    _set(inst, "n", n)
    columns, size_masks = _kernel_views(m, masks)
    _set(inst, "columns", columns)
    _set(inst, "size_masks", size_masks)


def _kernel_views(m: int, masks: tuple[int, ...]) -> tuple[tuple[int, ...], dict[int, int]]:
    """The columns and size masks of an instance (see :class:`Instance`).

    Columns: each mask, with bit 2**m added so that its binary numeral
    always has m digits after the '0b1' prefix, is written out, last voter
    first, into one row-major string of rows of width m+3.  The digit of
    candidate a in a row sits at offset m+2-a, so every (m+3)-th character
    from there is column a, with voter 0 last (the lowest bit).  Sizes: the
    columns are summed as a bit-sliced binary counter, ``planes[b]`` holding
    the voters whose approval count has bit 2**b set; a size's voters are
    those whose planes spell it.  Cost: O(n*m) characters in C-level
    passes, then O(m) big-int operations for the counter and O(log m) per
    size, at every n and m.  On CPython 3.11, by ``timeit``, 4 voters over
    4 candidates take about 4.4 us and 8 over 8 about 7.9 us.
    """
    width = m + 3
    rows = "".join(map(bin, map((1 << m).__or__, reversed(masks))))
    columns = tuple([int(rows[offset::width], 2) for offset in range(m + 2, 2, -1)])
    planes: list[int] = []
    for carry in columns:
        b = 0
        while carry:
            if b == len(planes):
                planes.append(carry)
                break
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
            b += 1
    everyone = (1 << len(masks)) - 1
    size_masks = {}
    for size in sorted(set(map(int.bit_count, masks))):
        voters = everyone
        for b, plane in enumerate(planes):
            voters &= plane if size >> b & 1 else ~plane
        size_masks[size] = voters
    return columns, size_masks


def build_instance(m: int, approvals: Iterable[Iterable[int]]) -> Instance:
    """Validate and freeze an approval profile of at least one voter.

    Voter order is preserved.  Each approval set is deduplicated; indices
    must lie in ``0..m-1``.  :class:`Instance` checks both.
    """
    return Instance(m, approvals)


@record
class RankedProfile:
    """Strict rankings, best first: at least one voter, each ranking a permutation of the
    ints 0..m-1, stored as a tuple.  :func:`index_in` words an entry that is not one of them."""

    m: int
    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = int_at_least(self.m, "m", 1)
        try:
            rows = tuple(map(tuple, self.rankings))
        except TypeError as exc:
            raise ValidationError(f"rankings must be rows of candidate indices ({exc})") from None
        if not rows:
            raise ValidationError("need at least one voter")
        # Once every entry is an int in 0..m-1, m distinct entries are a permutation.
        for i, row in enumerate(rows):
            for a in row:
                if not (type(a) is int and 0 <= a < m):
                    index_in(a, m, f"voter {i}: ranking entry")
            if len(row) != m or len(set(row)) != m:
                raise ValidationError(
                    f"voter {i}: ranking {shown(row)} is not a permutation of 0..{shown(m - 1)}"
                )
        _set(self, "rankings", rows)

    @property
    def n(self) -> int:
        return len(self.rankings)


def flexibility(inst: Instance, i: int) -> Frac:
    """The share of all candidates voter ``i`` approves, in lowest terms."""
    return Frac(of_type(inst, Instance, "instance").masks[index_in(i, inst.n, "voter")].bit_count(), inst.m)


def flexible_size(s: Frac, m: int) -> int:
    """ceil(s*m), in ints: the fewest approvals that make a voter s-flexible.

    A voter approving ``size`` of ``m`` candidates is s-flexible exactly when
    ``size >= flexible_size(s, m)``, since ``size`` is an integer.
    """
    return -(-s.numerator * m // s.denominator)


def flexibility_grid(m: int) -> tuple[Frac, ...]:
    """Every flexibility value strictly inside (0, 1) that ``m`` candidates allow,
    for 1 <= m <= ``CANDIDATE_LIMIT``."""
    return tuple(Frac(i, m) for i in range(1, int_at_least(m, "m", 1, CANDIDATE_LIMIT)))


# ---------------------------------------------------------------------------
# Weight functions.
#
# A weight function maps a voter's flexibility (in (0,1)) to a nonnegative
# weight; a scoring rule gives each candidate the summed weight of her
# approvers.  Voters at flexibility 0 approve nobody and voters at
# flexibility 1 raise every candidate equally, so scoring never evaluates a
# weight at the endpoints.
#
# Each family defines ``ratio(size, m)``, its weight at f = size/m for
# 0 < size < m as an int pair (numerator, denominator > 0) that need not be in
# lowest terms, so that scoring adds weights as ints over one denominator;
# and ``guarantee(s)``, its rule's worst-case audit at a threshold s in (0,1).
# ---------------------------------------------------------------------------


@record
class Constant:
    """w(f) = 1: plain approval counting."""

    def ratio(self, size: int, m: int) -> tuple[int, int]:
        return 1, 1

    def guarantee(self, s: Frac) -> Frac:
        return 1 / (1 + s)


@record
class Threshold:
    """w(f) = 1 if f >= s0 else 0: counts only voters at least s0-flexible."""

    s0: Frac

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", open_unit(self.s0, "threshold cutoff"))

    def ratio(self, size: int, m: int) -> tuple[int, int]:
        return int(size * self.s0.denominator >= self.s0.numerator * m), 1

    def guarantee(self, s: Frac) -> Frac:
        return (1 - self.s0) / (1 - self.s0 + s) if s >= self.s0 else Fraction(1)


@record
class Power:
    """w(f) = f**p for an integer exponent 1 <= p <= ``POWER_LIMIT`` (kept integral for exactness)."""

    p: int

    def __post_init__(self) -> None:
        int_at_least(self.p, "power exponent", 1, POWER_LIMIT)

    def ratio(self, size: int, m: int) -> tuple[int, int]:
        return size**self.p, m**self.p

    def guarantee(self, s: Frac) -> Frac:
        p = self.p
        return 1 / (1 + (s * (p + 1)) ** (p + 1) / Fraction(p**p))


@record
class Optimal:
    """w(f) = c / (1 - f).

    The one scale family for which (1-f)*w(f) is the same constant at every
    flexibility; scoring with it guarantees a worst-case disapproval share
    of 1-s at every threshold s simultaneously.
    """

    c: Frac = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", as_frac(self.c))
        if self.c <= 0:
            raise ValidationError(f"scale must be positive, got {shown(self.c, str)}")

    def ratio(self, size: int, m: int) -> tuple[int, int]:
        # c / (1 - size/m) = c * m / (m - size)
        return self.c.numerator * m, self.c.denominator * (m - size)

    def guarantee(self, s: Frac) -> Frac:
        return 1 - s


@record
class Table:
    """Finite weight table: an explicit nonnegative weight per listed flexibility.

    Built from a mapping or an iterable of ``(flexibility, weight)`` pairs,
    stored as ``entries``, those pairs as Fractions sorted by flexibility.
    Must be nontrivial (at least one positive weight).  Evaluation outside
    the listed flexibilities is an error.  ``guarantee(s)`` is rho/(rho+phi)
    over the entries, with rho = max (1-f)*w(f) and phi = min of f*w(f) over
    the entries with f >= s; it is 0 when no entry reaches s, as only voters
    approving every candidate are then s-flexible.
    """

    entries: tuple[tuple[Frac, Frac], ...]

    def __post_init__(self) -> None:
        weights = self.entries
        items = weights.items() if isinstance(weights, Mapping) else weights
        try:
            pairs = [(key, value) for key, value in items]
        except (TypeError, ValueError):
            raise ValidationError(f"table must hold (flexibility, weight) pairs, got {shown(weights)}") from None
        by_flex: dict[Frac, Frac] = {}
        for key, value in pairs:
            f = open_unit(key, "table flexibility")
            wv = as_frac(value)
            if wv < 0:
                raise ValidationError(f"table weight for flexibility {shown(f, str)} is negative: {shown(wv, str)}")
            if f in by_flex:
                raise ValidationError(f"duplicate table flexibility {shown(f, str)}")
            by_flex[f] = wv
        if not by_flex:
            raise ValidationError("weight table is empty")
        if not any(by_flex.values()):
            raise ValidationError("weight table is trivial: some flexibility needs w(f) > 0")
        object.__setattr__(self, "entries", tuple(sorted(by_flex.items())))
        object.__setattr__(self, "_by_flex", by_flex)

    def ratio(self, size: int, m: int) -> tuple[int, int]:
        flex = Fraction(size, m)
        try:
            return self._by_flex[flex].as_integer_ratio()
        except KeyError:
            raise ValidationError(f"weight table has no entry for flexibility {flex}") from None

    def guarantee(self, s: Frac) -> Frac:
        rho = max((1 - f) * wv for f, wv in self.entries)
        phi = min((f * wv for f, wv in self.entries if f >= s), default=None)
        return Fraction(0) if phi is None else rho / (rho + phi)


WeightFn = Constant | Threshold | Power | Optimal | Table


def as_family(w: object) -> WeightFn:
    """``w``, checked to be a weight function of one of the families above."""
    if not isinstance(w, WeightFn):
        raise ValidationError(f"not a weight function: {shown(w)}")
    return w


def of_type(x: object, cls: type[_T], what: str) -> _T:
    """``x``, checked to be a ``cls`` (a record such as :class:`Instance`); ``what`` names it."""
    if not isinstance(x, cls):
        name = cls.__name__
        raise ValidationError(f"{what} must be {'an' if name[0] in 'AEIOU' else 'a'} {name}, got {shown(x)}")
    return x


def parse_family(spec: str) -> WeightFn:
    """The weight function a rule spec names: approval, opt, threshold:<s0> or power:<p>."""
    if not isinstance(spec, str):
        raise ValidationError(f"a rule spec must be a string, got {shown(spec)}")
    if spec == "approval":
        return Constant()
    if spec == "opt":
        return Optimal()
    name, colon, arg = spec.partition(":")
    if colon and name == "threshold":
        return Threshold(arg)
    if colon and name == "power":
        if not is_numeral(arg):
            raise ValidationError(f"power rule needs an integer exponent, got {shown(arg)}")
        return Power(int(arg))
    raise ValidationError(
        f"unknown rule {shown(spec)}; expected approval, threshold:<s>, power:<p>, opt"
    )


def eval_weight(w: WeightFn, f: object) -> Frac:
    """Evaluate a weight function at a flexibility in (0, 1)."""
    flex = open_unit(f, "flexibility")
    return Fraction(*as_family(w).ratio(flex.numerator, flex.denominator))


@record
class Committee:
    """A set of distinct candidate indices, stored sorted."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        # Each member is checked before duplicates merge, as 1.0 and True equal 1.
        try:
            members = tuple(self.members)
        except TypeError:
            raise ValidationError(f"committee must hold candidate indices, got {shown(self.members)}") from None
        for a in members:
            int_at_least(a, "candidate index")
        object.__setattr__(self, "members", tuple(sorted(set(members))))

    @property
    def k(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, a: object) -> bool:
        return a in self.members


@record
class MultiParams:
    """Committee size k and per-voter approval target t (1 <= t <= k).

    The committee rules and the hypergeometric bound also need k < m for an
    instance of m candidates: :meth:`below` checks it.
    """

    k: int
    t: int

    def __post_init__(self) -> None:
        for name, v in (("k", self.k), ("t", self.t)):
            int_at_least(v, name, 1)
        if self.t > self.k:
            raise ValidationError(f"approval target t={shown(self.t)} exceeds committee size k={shown(self.k)}")

    def below(self, m: int) -> MultiParams:
        """These params, once k < m: a k-committee of m candidates leaves one out."""
        if self.k >= m:
            raise ValidationError(f"committee size k={shown(self.k)} must be below m={shown(m)}")
        return self


@record
class AuditCurve:
    """A non-increasing step function of the flexibility threshold s.

    ``breakpoints`` is a sorted tuple of ``(s_j, value_j)`` pairs meaning
    the curve equals ``value_j`` on the interval ``(s_{j-1}, s_j]`` (with
    ``s_0 = 0``) and drops to 0 beyond the last breakpoint.  Each s and
    value is read by :func:`as_frac`.
    """

    breakpoints: tuple[tuple[Frac, Frac], ...]

    def __post_init__(self) -> None:
        try:
            pairs = tuple((s, v) for s, v in self.breakpoints)
        except (TypeError, ValueError):
            raise ValidationError(f"curve must hold (s, value) pairs, got {shown(self.breakpoints)}") from None
        pairs = tuple((as_frac(s), as_frac(v)) for s, v in pairs)
        prev_s = Frac(0)
        prev_v = Frac(1)
        for s, v in pairs:
            if not prev_s < s <= 1:
                raise ValidationError(f"breakpoint {shown(s, str)} out of order or outside (0,1]")
            if not Frac(0) <= v <= 1 or v > prev_v:
                raise ValidationError(f"curve values must be non-increasing within [0,1], got {shown(v, str)}")
            prev_s, prev_v = s, v
        _set(self, "breakpoints", pairs)

    def value_at(self, s: object) -> Frac:
        """Evaluate the step function at any s in (0, 1)."""
        sv = open_unit(s)
        # (sv,) sorts before every breakpoint (sv, value) and after those of a smaller s.
        idx = bisect_left(self.breakpoints, (sv,))
        if idx == len(self.breakpoints):
            return Fraction(0)
        return self.breakpoints[idx][1]

    def values_on_grid(self, m: int) -> tuple[Frac, ...]:
        """The curve at every threshold of ``flexibility_grid(m)``, in one merge walk."""
        values = []
        j = 0
        for s in flexibility_grid(m):
            while j < len(self.breakpoints) and self.breakpoints[j][0] < s:
                j += 1
            values.append(self.breakpoints[j][1] if j < len(self.breakpoints) else Fraction(0))
        return tuple(values)
