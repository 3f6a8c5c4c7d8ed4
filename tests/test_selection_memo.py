"""The operating-point cache's per-application selection memo.

With a cache attached, the allocator memoises each application's chosen
operating point by value: the per-cluster enumeration query keys, the
policy's and the requirements' cache keys and the power cap.  An uncached
manager (``use_op_cache=False``) runs none of the cache's memos, so it is
this memo's independent reference; the unmemoised reference simulator of
``tests/reference_engine.py`` uses the memo too whenever its manager has a
cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import (
    build_fault_plan_from_spec,
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
)
from repro.rtm.cache import OperatingPointCache
from repro.rtm.multi_app import MultiAppAllocator
from repro.rtm.policies import MaxAccuracyUnderBudget, MinEnergyUnderConstraints
from repro.rtm.state import AppRuntimeState, Mapping, SystemState, UnmapApplication
from repro.sim.engine import SharedSimulationStores, simulate_scenario
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import make_dnn_application

SCENARIOS = [
    "multi_app_contention",
    "thermal_stress",  # throttles, so the power-cap path runs
    "diurnal",
    "chaos_rush_hour_core_failure",
]
MANAGER_VARIANTS = {
    "rtm": {},
    "rtm_no_task_mapping": {"rtm": {"enable_task_mapping": False}},
    "rtm_no_dvfs": {"rtm": {"enable_dvfs": False}},
    "rtm_no_dnn_scaling": {"rtm": {"enable_dnn_scaling": False}},
    "rtm_min_energy": {"policy": "min_energy"},
}


def _run_keeping_manager(spec: ExperimentSpec):
    """What ``run(spec)`` does, returning the manager too for its statistics."""
    manager = build_manager_from_spec(spec)
    trace = simulate_scenario(
        build_scenario_from_spec(spec),
        manager,
        config=build_simulator_config(spec),
        fault_plan=build_fault_plan_from_spec(spec),
    )
    return trace, manager


class TestCachedRunsMatchUncachedManagers:
    @pytest.mark.parametrize("variant", sorted(MANAGER_VARIANTS))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fingerprints_match_and_selections_hit(self, scenario, variant):
        spec = ExperimentSpec(
            scenario=scenario, manager="rtm", seed=0, **MANAGER_VARIANTS[variant]
        )
        cached, manager = _run_keeping_manager(spec)
        uncached, reference = _run_keeping_manager(dataclasses.replace(spec, use_op_cache=False))
        assert reference.cache is None
        assert manager.cache_stats().selection_hits > 0
        assert cached.fingerprint() == uncached.fingerprint()


# ----------------------------------------------------------------- unit level


class _SpyPolicy(MaxAccuracyUnderBudget):
    """The built-in max-accuracy policy, counting its ``select_table`` calls.

    Keyed by value like the registry policy, so the memo applies to it.
    """

    def __init__(self) -> None:
        self.calls = 0

    def cache_key(self):
        return ("policy", "spy_max_accuracy")

    def select_table(self, table, requirements, power_cap_mw=None):
        self.calls += 1
        return super().select_table(table, requirements, power_cap_mw)


class _StrictPolicy(_SpyPolicy):
    """Chooses nothing when no point meets every requirement."""

    def cache_key(self):
        return ("policy", "spy_strict")

    def select_table(self, table, requirements, power_cap_mw=None):
        chosen = super().select_table(table, requirements, power_cap_mw)
        if chosen is None or not self.feasible_points([chosen], requirements, power_cap_mw):
            return None
        return chosen


class _UnkeyedPolicy(_SpyPolicy):
    """Declares no value key, so its selections must never be memoised."""

    def cache_key(self):
        return None


def _state(soc, trained_dnn, requirements=None, mapping=None, power_cap_mw=None):
    application = make_dnn_application(
        "dnn", trained_dnn, requirements or Requirements(target_fps=5.0, priority=5)
    )
    return SystemState(
        time_ms=0.0,
        soc=soc,
        apps={"dnn": AppRuntimeState(application=application, mapping=mapping)},
        power_cap_mw=power_cap_mw,
    )


def _allocator(energy_model, policy, cache, **knobs):
    return MultiAppAllocator(policy, energy_model, cache=cache, **knobs)


class TestSelectionMemo:
    def test_repeated_allocation_selects_once(self, xu3, trained_dnn, energy_model):
        policy = _SpyPolicy()
        cache = OperatingPointCache()
        allocator = _allocator(energy_model, policy, cache)
        state = _state(xu3, trained_dnn)
        first = allocator.allocate(state)
        hits_before = cache.stats.hits
        second = allocator.allocate(state)
        assert policy.calls == 1
        assert second.actions == first.actions
        assert second.decision_for("dnn").point == first.decision_for("dnn").point
        assert (cache.stats.selection_hits, cache.stats.selection_misses) == (1, 1)
        # A selection served whole counts as exactly one hit.
        assert cache.stats.hits == hits_before + 1
        assert cache.stats.as_dict()["selection_hits"] == 1
        assert cache.stats.as_dict()["selection_misses"] == 1

    def test_a_hit_records_the_home_cluster(self, xu3, trained_dnn, energy_model):
        # Without the mapping knob the home cluster is a decision input, so a
        # memoised selection must leave the same affinity behind.
        cache = OperatingPointCache()
        state = _state(xu3, trained_dnn)
        _allocator(energy_model, _SpyPolicy(), cache, allow_task_mapping=False).allocate(state)
        allocator = _allocator(energy_model, _SpyPolicy(), cache, allow_task_mapping=False)
        result = allocator.allocate(state)
        assert cache.stats.selection_hits == 1
        assert allocator._home_cluster == {"dnn": result.decision_for("dnn").point.cluster_name}

    def test_no_choice_is_memoised_and_still_unmaps(self, xu3, trained_dnn, energy_model):
        policy = _StrictPolicy()
        cache = OperatingPointCache()
        allocator = _allocator(energy_model, policy, cache)
        state = _state(
            xu3,
            trained_dnn,
            requirements=Requirements(max_latency_ms=1e-3, priority=5),
            mapping=Mapping("a15", cores=1),
        )
        for _ in range(2):
            result = allocator.allocate(state)
            assert result.decision_for("dnn").point is None
            assert result.actions == [UnmapApplication(app_id="dnn")]
        assert policy.calls == 1
        assert cache.stats.selection_hits == 1

    @pytest.mark.parametrize(
        "change", ["temperature_bucket", "online_core", "power_cap", "pinned_frequency"]
    )
    def test_changing_one_input_misses(self, change, xu3, trained_dnn, energy_model):
        knobs = {"allow_dvfs": False} if change == "pinned_frequency" else {}
        cache = OperatingPointCache()
        allocator = _allocator(energy_model, _SpyPolicy(), cache, **knobs)
        state = _state(xu3, trained_dnn, power_cap_mw=4000.0)
        allocator.allocate(state)
        allocator.allocate(state)
        assert (cache.stats.selection_hits, cache.stats.selection_misses) == (1, 1)

        if change == "temperature_bucket":
            xu3.thermal.temperature_c += 10.0
        elif change == "online_core":
            xu3.cluster("a15").cores[-1].set_online(False)
        elif change == "power_cap":
            state = dataclasses.replace(state, power_cap_mw=3000.0)
        else:
            a15 = xu3.cluster("a15")
            a15.set_frequency(
                next(f for f in a15.available_frequencies() if f != a15.frequency_mhz)
            )
        changed = allocator.allocate(state)
        assert (cache.stats.selection_hits, cache.stats.selection_misses) == (1, 2)
        uncached = _allocator(energy_model, _SpyPolicy(), None, **knobs).allocate(state)
        assert changed.actions == uncached.actions

    def test_policies_sharing_a_cache_select_separately(self, xu3, trained_dnn, energy_model):
        cache = OperatingPointCache()
        state = _state(xu3, trained_dnn)
        _allocator(energy_model, MaxAccuracyUnderBudget(), cache).allocate(state)
        by_energy = _allocator(energy_model, MinEnergyUnderConstraints(), cache).allocate(state)
        assert (cache.stats.selection_hits, cache.stats.selection_misses) == (0, 2)
        reference = _allocator(energy_model, MinEnergyUnderConstraints(), None).allocate(state)
        assert by_energy.actions == reference.actions

    def test_caches_over_shared_stores_share_selections(self, xu3, trained_dnn, energy_model):
        state = _state(xu3, trained_dnn)
        stores = SharedSimulationStores()
        shared = OperatingPointCache(stores)
        allocator = _allocator(energy_model, _SpyPolicy(), shared)
        allocator.allocate(state)
        assert stores.stats()["selections"] == 1
        allocator.allocate(state)
        assert (shared.stats.selection_hits, shared.stats.selection_misses) == (1, 1)
        # Another replica's cache over the same stores is served too.
        replica = OperatingPointCache(stores)
        _allocator(energy_model, _SpyPolicy(), replica).allocate(state)
        assert replica.stats.selection_hits == 1

    def test_unkeyed_policy_never_hits(self, xu3, trained_dnn, energy_model):
        policy = _UnkeyedPolicy()
        cache = OperatingPointCache()
        allocator = _allocator(energy_model, policy, cache)
        state = _state(xu3, trained_dnn)
        first = allocator.allocate(state)
        second = allocator.allocate(state)
        assert policy.calls == 2
        assert second.actions == first.actions
        assert (cache.stats.selection_hits, cache.stats.selection_misses) == (0, 0)
        assert cache.stats.hits > 0  # the enumeration memo still serves it
