"""Shared test configuration."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

# Every run draws the same examples, and no run replays failures saved by an
# earlier one, so a Tier-1 result can be reproduced exactly.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def perfbench_run():
    """``perfbench/run.py`` loaded as a module, for its workload table and checks.

    Loading it runs nothing and writes nothing under ``perfbench/``.
    """
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
