"""Shared pytest fixtures and helpers for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

# Tier-1 draws the same examples on every run: a property test is green
# because its examples pass, not because this run's draw missed the bad
# one.  ``pytest --hypothesis-profile=explore`` (the nightly job) draws
# fresh random examples instead, more of them where a test does not pin
# its own ``max_examples``.  Loaded here, before any test module builds
# its ``settings(...)``, so every suite inherits the profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=500)
settings.load_profile("tier1")


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def network(sim: Simulator) -> SimNetwork:
    return SimNetwork(sim, latency=ConstantLatency(1.0))
