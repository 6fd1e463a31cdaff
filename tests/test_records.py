"""The record classes: the dataclass contract without importing ``dataclasses``."""

import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fvr.core import (
    AuditCurve,
    Committee,
    Constant,
    FrozenRecordError,
    Instance,
    Optimal,
    Power,
    RankedProfile,
    Table,
    Threshold,
    build_instance,
)
from fvr.hypergeom import HypParams
from fvr.multi_winner import ExpandedInstance, JrResult, MultiParams, expand_instance
from fvr.single_winner import FvrBound
from fvr.verify import VerifyResult

ROOT = Path(__file__).resolve().parents[1]
HALF = Fraction(1, 2)
BASE = build_instance(3, [{0}, {1, 2}])
EXPANSION = expand_instance(BASE, MultiParams(2, 1))

# (record class, field values as stored, once any __post_init__ has run).
CASES = [
    (Instance, (3, (frozenset({0}), frozenset({1, 2})))),
    (RankedProfile, (2, ((0, 1), (1, 0)))),
    (Constant, ()),
    (Threshold, (HALF,)),
    (Power, (2,)),
    (Optimal, (Fraction(3, 2),)),
    (Table, (((Fraction(1, 4), Fraction(2)), (HALF, Fraction(0))),)),
    (Committee, ((0, 2),)),
    (AuditCurve, (((HALF, Fraction(1, 3)), (Fraction(1), Fraction(0))),)),
    (HypParams, (5, 2, 3)),
    (FvrBound, (HALF, HALF, "grid", 4)),
    (MultiParams, (3, 2)),
    (ExpandedInstance, (BASE, MultiParams(2, 1), EXPANSION.committees, EXPANSION.expanded)),
    (JrResult, (False, 1, (0, 2))),
    (VerifyResult, ("opt", 3, ("a violation",))),
]
IDS = [cls.__name__ for cls, _ in CASES]


def dataclass_twin(cls, values):
    """The same fields as a frozen ``@dataclass``, as the class was declared before records."""
    twin = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin(*values)


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_record_construction_equality_and_repr(cls, values):
    fields = cls.__match_args__
    assert len(fields) == len(values)
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == rec
    twin = dataclass_twin(cls, values)
    assert repr(rec) == repr(twin)
    assert rec != twin  # equality needs the same class, as with dataclasses


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_record_hash_and_assignment(cls, values):
    rec = cls(*values)
    name = cls.__match_args__[0] if cls.__match_args__ else "extra"
    assert hash(rec) == hash(dataclass_twin(cls, values)) == hash(cls(*values))
    with pytest.raises(FrozenRecordError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert tuple(getattr(rec, f) for f in cls.__match_args__) == values


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_record_pickle_round_trip(cls, values):
    rec = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(rec, protocol))
        assert type(copy) is cls
        assert copy == rec


def test_record_defaults_and_post_init():
    assert Optimal() == Optimal(Fraction(1)) == Optimal(c=1)
    assert repr(Optimal()) == "Optimal(c=Fraction(1, 1))"
    assert JrResult(True) == JrResult(True, None, ())
    assert repr(JrResult(satisfied=True)) == (
        "JrResult(satisfied=True, blocking_candidate=None, blocking_voters=())"
    )
    assert FvrBound(HALF, HALF, "closed_form").grid_m is None
    assert Threshold("1/2").s0 == HALF
    assert Committee((2, 0, 2)).members == (0, 2)
    assert repr(HypParams(5, 2, 3)) == "HypParams(population=5, successes=2, draws=3)"
    assert HypParams(5, 2, 3) != HypParams(5, 3, 2)
    assert Committee((0, 1)) != Committee((0, 2))
    with pytest.raises(TypeError):
        HypParams(5, 2)
    with pytest.raises(TypeError):
        MultiParams(2, 1, 1)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def imported_modules(stderr):
    return {line.rpartition("|")[2].strip() for line in stderr.splitlines() if "|" in line}


# Stdlib modules that start-up once paid for on every call: dataclasses and
# inspect (the records), argparse, and gettext and locale, which argparse loads.
HEAVY_MODULES = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("invocation", ["import", "opt", "seq", "verify", "help"])
def test_cli_loads_neither_dataclasses_nor_inspect(tmp_path, invocation):
    path = tmp_path / "party.fvr"
    path.write_text("fvr 1\nm 4\nn 2\n0 1\n2 3\nk 2\nt 1\n", encoding="utf-8")
    args = {
        "import": ("-c", "import fvr.cli"),
        "opt": ("-m", "fvr.cli", "solve", str(path), "--rule", "opt"),
        "seq": ("-m", "fvr.cli", "solve", str(path), "--rule", "seq"),
        "verify": ("-m", "fvr.cli", "verify", "opt", "--n-max", "1", "--m-max", "2"),
        "help": ("-m", "fvr.cli", "--help"),
    }[invocation]
    result = run_python(*args)
    assert result.returncode == 0, result.stderr
    modules = imported_modules(result.stderr)
    assert "fvr.core" in modules
    assert not HEAVY_MODULES & modules
