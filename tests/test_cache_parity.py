"""The operating-point cache against a stand-in that memoises nothing.

Every decision of a runtime manager goes through its operating-point cache.
The cache's reference is therefore the test-only stand-in
``reference_kernels.UnmemoisedOperatingPoints``: the cache's interface with
every answer computed afresh.  For every registry scenario under each
RTM-family manager at seed 0, and the seeded ``thermal_stress``,
``multi_app_contention`` and ``rush_hour`` cases at seed 1, a cached run and
a stand-in run must produce bit-for-bit identical traces on every execution
backend (the process backend with two workers).  A cache key that misses an
input the decision reads serves a stale answer and fails this comparison.

The baselines never touch the cache, so they need no oracle.
"""

from __future__ import annotations

import pytest

from repro.experiments import MANAGER_REGISTRY, grid_specs, make_manager, run_many
from repro.rtm.manager import RuntimeManager
from repro.workloads.scenarios import SCENARIO_REGISTRY, scenario_is_seeded
from tests.reference_kernels import unmemoised_operating_points

RTM_MANAGERS = [
    name for name in sorted(MANAGER_REGISTRY) if isinstance(make_manager(name), RuntimeManager)
]
SEED_1_SCENARIOS = [
    name
    for name in ("thermal_stress", "multi_app_contention", "rush_hour")
    if scenario_is_seeded(name)
]
PARITY_SPECS = [
    *grid_specs(sorted(SCENARIO_REGISTRY), RTM_MANAGERS, [0]),
    *grid_specs(SEED_1_SCENARIOS, RTM_MANAGERS, [1]),
]
BACKENDS = {"serial": {}, "process": {"workers": 2}, "batched": {}}


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def parity_batches(request):
    """``(cached, stand-in)`` batches of the parity grid on one backend."""
    options = BACKENDS[request.param]
    cached = run_many(PARITY_SPECS, backend=request.param, **options)
    with unmemoised_operating_points():
        reference = run_many(PARITY_SPECS, backend=request.param, **options)
    assert not cached.errors, cached.errors
    assert not reference.errors, reference.errors
    return cached, reference


class TestCacheMatchesTheStandIn:
    def test_traces_are_bit_for_bit_identical(self, parity_batches):
        cached, reference = parity_batches
        assert list(cached.traces) == list(reference.traces)
        mismatches = [
            label
            for label, trace in cached.traces.items()
            if trace.fingerprint() != reference.traces[label].fingerprint()
        ]
        assert not mismatches, f"the cache changed behaviour for: {mismatches}"

    def test_aggregates_are_identical(self, parity_batches):
        cached, reference = parity_batches
        assert cached.violation_rates() == reference.violation_rates()
        assert cached.energies_mj() == reference.energies_mj()
        assert cached.mean_accuracies() == reference.mean_accuracies()

    def test_every_reference_run_used_the_stand_in(self, parity_batches):
        # The stand-in serves nothing, so its runs count no lookups; a run
        # that kept a real cache (a worker the patch did not reach) would.
        _, reference = parity_batches
        assert {
            label: trace.cache_counters()
            for label, trace in reference.traces.items()
            if trace.cache_counters() != {"hits": 0, "misses": 0}
        } == {}

    def test_backends_agree_with_the_serial_registry_grid(
        self, parity_batches, registry_grid_cached
    ):
        cached, _ = parity_batches
        for label, trace in registry_grid_cached.traces.items():
            if label in cached.traces:
                assert cached.traces[label].fingerprint() == trace.fingerprint(), label


def test_cached_runs_actually_used_the_cache(registry_grid_cached):
    # The RTM-family managers enumerate operating points every epoch, so any
    # non-trivial scenario must show cache hits; the baselines never
    # enumerate and must report zero lookups.
    rtm_counters = registry_grid_cached.traces["rush_hour/rtm/seed0"].cache_counters()
    assert rtm_counters["hits"] > rtm_counters["misses"] > 0
    baseline = registry_grid_cached.traces["rush_hour/governor_only/seed0"]
    assert baseline.cache_counters() == {"hits": 0, "misses": 0}
