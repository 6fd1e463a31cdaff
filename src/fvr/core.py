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
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

Frac = Fraction

__all__ = [
    "Frac",
    "ValidationError",
    "SizeLimitError",
    "FrozenRecordError",
    "record",
    "CANDIDATE_LIMIT",
    "as_frac",
    "open_unit",
    "int_at_least",
    "is_numeral",
    "Instance",
    "build_instance",
    "RankedProfile",
    "build_ranked_profile",
    "flexibility",
    "flexibility_grid",
    "Constant",
    "Threshold",
    "Power",
    "Optimal",
    "Table",
    "WeightFn",
    "eval_weight",
    "Committee",
    "AuditCurve",
]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class SizeLimitError(ValidationError):
    """Raised when an enumeration would exceed its configured size budget."""


# Cap on the candidate count of a parsed file or a generated random instance:
# output and per-candidate state grow with m (the largest m in use is 400).
CANDIDATE_LIMIT = 10_000


class FrozenRecordError(AttributeError):
    """Raised on assignment to (or deletion of) a field of a frozen record."""


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = True):
    """Class decorator: a plain record over the class's annotated fields, in order.

    Adds what ``@dataclass(frozen=...)`` would: ``__init__`` (positional or
    keyword arguments, class-level defaults, then ``__post_init__`` if
    defined), ``__eq__`` (same class, equal field tuples), ``__repr__`` as
    ``Name(field=value, ...)``, and, when frozen, ``__hash__`` of the field
    tuple and read-only fields.  Instances keep a ``__dict__``, so they
    pickle.  ``dataclasses`` is not used because importing it pulls in
    ``inspect`` and half a dozen more modules, which cost more start-up time
    than the rest of this package when no bytecode is cached.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_default_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(f", {f}=_default_{f}" if f in cls.__dict__ else f", {f}" for f in fields)
    body = [f"    _set(self, {f!r}, {f})" for f in fields]
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")

    def as_tuple(obj: str) -> str:
        return "(" + "".join(f"{obj}.{f}," for f in fields) + ")"

    mine, theirs = as_tuple("self"), as_tuple("other")
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
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
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
    ])
    namespace = {"_set": object.__setattr__, **defaults}
    exec(source, namespace)
    methods = {name: namespace[name] for name in ("__init__", "__eq__", "__hash__", "__repr__")}
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if not frozen:
        cls.__hash__ = None  # equal mutable records must not share a hash
    cls.__match_args__ = fields
    return cls


def as_frac(x: object) -> Frac:
    """Coerce an int, Fraction, or fraction string to an exact rational.

    Floats are rejected: silently converting them would smuggle binary
    rounding error into a library whose whole point is exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {x!r} ({exc})") from None
    if isinstance(x, float):
        raise ValidationError(
            f"refusing float {x!r}: pass an exact value such as Fraction(1, 2) or '1/2'"
        )
    raise ValidationError(f"expected a rational number, got {x!r}")


def open_unit(x: object, what: str = "threshold") -> Frac:
    """``as_frac(x)``, checked to lie strictly inside (0, 1); ``what`` names it in the error."""
    value = as_frac(x)
    if not 0 < value < 1:
        raise ValidationError(f"{what} {value} lies outside (0,1)")
    return value


def int_at_least(x: object, what: str, low: int = 0) -> int:
    """``x``, checked to be an int (not a bool) of at least ``low``; ``what`` names it."""
    if isinstance(x, bool) or not isinstance(x, int) or x < low:
        kinds = {0: "a nonnegative integer", 1: "a positive integer"}
        kind = kinds.get(low, f"an integer >= {low}")
        raise ValidationError(f"{what} must be {kind}, got {x!r}")
    return x


def is_numeral(text: str) -> bool:
    """Whether ``text`` is a plain decimal numeral, ``[0-9]+``, that ``int`` accepts.

    ``str.isdigit`` alone also passes digits such as '²', which ``int`` rejects.
    """
    return text.isascii() and text.isdigit()


@record
class Instance:
    """An approval election: candidates 0..m-1 and one approval set per voter.

    Construct through :func:`build_instance` or ``fvr.formats.parse_instance``,
    which validate the indices.
    """

    m: int
    approvals: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.approvals)


def build_instance(m: int, approvals: Iterable[Iterable[int]]) -> Instance:
    """Validate and freeze an approval profile.

    Voter order is preserved.  Each approval set is deduplicated; indices
    must lie in ``0..m-1``.
    """
    int_at_least(m, "m", 1)
    rows: list[frozenset[int]] = []
    for i, approved in enumerate(approvals):
        row = frozenset(approved)
        what = f"voter {i}: candidate index"
        for a in row:
            if int_at_least(a, what) >= m:
                raise ValidationError(
                    f"voter {i} approves candidate {a}, outside the range 0..{m - 1}"
                )
        rows.append(row)
    if not rows:
        raise ValidationError("need at least one voter")
    return Instance(m, tuple(rows))


@record
class RankedProfile:
    """Strict rankings: one permutation of 0..m-1 per voter, best first."""

    m: int
    rankings: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rankings)


def build_ranked_profile(m: int, rankings: object) -> RankedProfile:
    """Validate and freeze a ranked profile."""
    int_at_least(m, "m", 1)
    rows = []
    for i, ranking in enumerate(rankings):
        row = tuple(ranking)
        if sorted(row) != list(range(m)):
            raise ValidationError(f"voter {i}: ranking {row!r} is not a permutation of 0..{m - 1}")
        rows.append(row)
    if not rows:
        raise ValidationError("need at least one voter")
    return RankedProfile(m, tuple(rows))


def flexibility(inst: Instance, i: int) -> Frac:
    """The share of all candidates voter ``i`` approves, in lowest terms."""
    if not 0 <= i < inst.n:
        raise ValidationError(f"no voter {i}: instance has {inst.n} voters")
    return Frac(len(inst.approvals[i]), inst.m)


def flexibility_grid(m: int) -> tuple[Frac, ...]:
    """Every flexibility value strictly inside (0, 1) that ``m`` candidates allow."""
    return tuple(Frac(i, m) for i in range(1, m))


# ---------------------------------------------------------------------------
# Weight functions.
#
# A weight function maps a voter's flexibility (in (0,1)) to a nonnegative
# weight; a scoring rule gives each candidate the summed weight of her
# approvers.  Voters at flexibility 0 approve nobody and voters at
# flexibility 1 raise every candidate equally, so scoring never evaluates a
# weight at the endpoints.
# ---------------------------------------------------------------------------


@record
class Constant:
    """w(f) = 1: plain approval counting."""


@record
class Threshold:
    """w(f) = 1 if f >= s0 else 0: counts only voters at least s0-flexible."""

    s0: Frac

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", open_unit(self.s0, "threshold cutoff"))


@record
class Power:
    """w(f) = f**p for an integer exponent p >= 1 (kept integral for exactness)."""

    p: int

    def __post_init__(self) -> None:
        int_at_least(self.p, "power exponent", 1)


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
            raise ValidationError(f"scale must be positive, got {self.c}")


class Table:
    """Finite weight table: an explicit nonnegative weight per listed flexibility.

    Must be nontrivial (at least one positive weight).  Evaluation outside
    the listed flexibilities is an error.
    """

    __slots__ = ("entries", "_by_flex")

    entries: tuple[tuple[Frac, Frac], ...]

    def __init__(self, weights: Mapping[object, object] | Iterable[tuple[object, object]]):
        items = weights.items() if isinstance(weights, Mapping) else weights
        pairs: list[tuple[Frac, Frac]] = []
        seen: set[Frac] = set()
        for key, value in items:
            f = open_unit(key, "table flexibility")
            wv = as_frac(value)
            if wv < 0:
                raise ValidationError(f"table weight for flexibility {f} is negative: {wv}")
            if f in seen:
                raise ValidationError(f"duplicate table flexibility {f}")
            seen.add(f)
            pairs.append((f, wv))
        if not pairs:
            raise ValidationError("weight table is empty")
        if all(wv == 0 for _, wv in pairs):
            raise ValidationError("weight table is trivial: some flexibility needs w(f) > 0")
        self.entries = tuple(sorted(pairs))
        self._by_flex = dict(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Table) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("Table", self.entries))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}: {w}" for f, w in self.entries)
        return f"Table({{{inner}}})"


WeightFn = Union[Constant, Threshold, Power, Optimal, Table]


def eval_weight(w: WeightFn, f: object) -> Frac:
    """Evaluate a weight function at a flexibility in (0, 1)."""
    flex = open_unit(f, "flexibility")
    if isinstance(w, Constant):
        return Fraction(1)
    if isinstance(w, Threshold):
        return Fraction(1) if flex >= w.s0 else Fraction(0)
    if isinstance(w, Power):
        return flex**w.p
    if isinstance(w, Optimal):
        return w.c / (1 - flex)
    if isinstance(w, Table):
        try:
            return w._by_flex[flex]
        except KeyError:
            raise ValidationError(f"weight table has no entry for flexibility {flex}") from None
    raise ValidationError(f"not a weight function: {w!r}")


@record
class Committee:
    """A set of distinct candidate indices, stored sorted."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(sorted(set(self.members)))
        for a in ms:
            int_at_least(a, "candidate index")
        object.__setattr__(self, "members", ms)

    @property
    def k(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, a: object) -> bool:
        return a in self.members


@record
class AuditCurve:
    """A non-increasing step function of the flexibility threshold s.

    ``breakpoints`` is a sorted tuple of ``(s_j, value_j)`` pairs meaning
    the curve equals ``value_j`` on the interval ``(s_{j-1}, s_j]`` (with
    ``s_0 = 0``) and drops to 0 beyond the last breakpoint.
    """

    breakpoints: tuple[tuple[Frac, Frac], ...]

    def __post_init__(self) -> None:
        prev_s = Frac(0)
        prev_v = Frac(1)
        for s, v in self.breakpoints:
            if not prev_s < s <= 1:
                raise ValidationError(f"breakpoint {s} out of order or outside (0,1]")
            if not Frac(0) <= v <= 1 or v > prev_v:
                raise ValidationError(f"curve values must be non-increasing within [0,1], got {v}")
            prev_s, prev_v = s, v

    def value_at(self, s: object) -> Frac:
        """Evaluate the step function at any s in (0, 1)."""
        sv = open_unit(s)
        keys = [bp_s for bp_s, _ in self.breakpoints]
        idx = bisect_left(keys, sv)
        if idx == len(keys):
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
