"""Smoke benchmark of the caching operating-point engine.

Replays repeated decision epochs over a frozen ``rush_hour`` system state —
the always-on DNN plus the full camera wave, exactly what the manager faces
every 500 ms during the rush — under a warm and a cold
:class:`RuntimeManager`, and asserts the warm decision path is at least
twice as fast.  The cold manager gets a fresh :class:`OperatingPointCache`
before every epoch, so each of its decisions enumerates, fronts and ranks
from scratch.  In practice the gap is close to an order of magnitude (a
cache hit replaces a full grid enumeration plus Pareto pass), so the 2x
floor leaves plenty of headroom for CI jitter while still failing loudly if
the cache stops being consulted.
"""

from __future__ import annotations

import time

import pytest

from repro.rtm.cache import OperatingPointCache
from repro.rtm.manager import RuntimeManager
from repro.rtm.state import AppRuntimeState, SystemState
from repro.workloads.scenarios import build_scenario
from repro.workloads.tasks import DNNApplication

EPOCHS = 5


def _rush_hour_state() -> SystemState:
    """The rush-hour DNN population on a fresh platform, pre-placement."""
    scenario = build_scenario("rush_hour", seed=0)
    soc = scenario.build_platform()
    apps = {
        app.app_id: AppRuntimeState(application=app)
        for app in scenario.applications
        if isinstance(app, DNNApplication)
    }
    return SystemState(time_ms=0.0, soc=soc, apps=apps)


def _run_epochs(manager: RuntimeManager, state: SystemState, cold=False, epochs=EPOCHS):
    """``(seconds, last decision)`` of ``epochs`` decisions over ``state``."""
    start = time.perf_counter()
    for _ in range(epochs):
        if cold:
            manager.set_operating_point_cache(OperatingPointCache())
        decision = manager.decide(state)
    return time.perf_counter() - start, decision


@pytest.mark.smoke
def test_bench_warm_decisions_at_least_twice_as_fast(benchmark):
    state = _rush_hour_state()
    cold = RuntimeManager()
    warm = RuntimeManager()

    cold_s, cold_decision = _run_epochs(cold, state, cold=True)
    # Warm the cache outside the timed region: steady-state epochs are what a
    # long scenario repeats hundreds of times.
    _run_epochs(warm, state, epochs=1)
    warm_s, warm_decision = benchmark.pedantic(
        _run_epochs, args=(warm, state), rounds=1, iterations=1
    )

    assert warm.cache_stats().hits > 0, "warm manager never hit its cache"
    # Apps of one epoch share enumerations, but no selection outlives it.
    assert cold.cache_stats().selection_hits == 0, "cold manager kept a cache across epochs"

    # Identical decisions first — a fast-but-different decision path would be
    # a bug, not an optimisation.
    warm_points = {
        app_id: decision.point for app_id, decision in warm_decision.allocation.decisions.items()
    }
    cold_points = {
        app_id: decision.point for app_id, decision in cold_decision.allocation.decisions.items()
    }
    assert warm_points == cold_points

    assert warm_s * 2.0 <= cold_s, (
        f"warm epochs ({warm_s:.3f}s for {EPOCHS}) are not 2x faster than "
        f"cold ({cold_s:.3f}s)"
    )
