"""Shared test configuration."""

from hypothesis import settings

# Every run draws the same examples, and no run replays failures saved by an
# earlier one, so a Tier-1 result can be reproduced exactly.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
