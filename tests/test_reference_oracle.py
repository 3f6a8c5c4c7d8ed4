"""Lone runs are memoised; the test-only ReferenceSimulator is their oracle.

``run(spec)`` and every other single-run entry point execute the memoised
:class:`~repro.sim.engine.Simulator` on private stores.
:class:`~tests.reference_engine.ReferenceSimulator` shares none of its
simulator-level memos (no decision, cost or power memo, and a cache that
flushes on structural change), so equal fingerprints here check those memos
against independent code rather than against themselves.  Both paths'
managers memoise selections inside their operating-point cache; that memo's
reference is the uncached manager (``tests/test_selection_memo.py``).
"""

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.runner import (
    build_fault_plan_from_spec,
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
    run,
)
from repro.rtm.manager import RuntimeManager
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.workloads import SCENARIO_REGISTRY
from repro.workloads.scenarios import build_scenario
from tests.reference_engine import ReferenceSimulator


def _reference_fingerprint(spec: ExperimentSpec) -> str:
    simulator = ReferenceSimulator(
        build_scenario_from_spec(spec),
        build_manager_from_spec(spec),
        config=build_simulator_config(spec),
        fault_plan=build_fault_plan_from_spec(spec),
    )
    return simulator.run().fingerprint()


class TestLoneRunsMatchTheReferenceSimulator:
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_REGISTRY))
    def test_registry_scenario_under_rtm(self, scenario):
        spec = ExperimentSpec(scenario=scenario, manager="rtm", seed=0)
        assert run(spec).trace.fingerprint() == _reference_fingerprint(spec)

    def test_pinned_home_clusters_replay_from_private_stores(self, monkeypatch):
        # Without the mapping knob the allocator reads each application's
        # home cluster, so the decision memo's home keying is exercised.
        created = []

        class RecordingStores(engine.SharedSimulationStores):
            def __init__(self) -> None:
                super().__init__()
                created.append(self)

        monkeypatch.setattr(engine, "SharedSimulationStores", RecordingStores)
        spec = ExperimentSpec(
            scenario="diurnal", manager="rtm", seed=0, rtm={"enable_task_mapping": False}
        )
        fingerprint = run(spec).trace.fingerprint()
        assert len(created) == 1
        assert created[0].decision_hits > 0
        assert fingerprint == _reference_fingerprint(spec)


class TestDecisionSignatureKeysLiveHomesOnly:
    def _state_after_departures(self):
        # rush_hour's cameras arrive from 8 s and all depart at 25 s; only
        # the always-on navigation DNN is resident at 27 s.
        manager = RuntimeManager()
        simulator = Simulator(build_scenario("rush_hour", seed=0), manager)
        simulator.advance_to(27_000.0)
        return manager, simulator._system_state()

    def test_signature_equals_a_fresh_managers_with_the_same_live_homes(self):
        manager, state = self._state_after_departures()
        homes = manager.allocator._home_cluster
        assert len(homes) > len(state.apps)  # departed apps kept their homes
        fresh = RuntimeManager()
        fresh.allocator._home_cluster.update(
            (app_id, homes[app_id]) for app_id in state.apps if app_id in homes
        )
        assert manager.decision_signature(state) == fresh.decision_signature(state)

    def test_home_component_holds_at_most_the_live_apps(self):
        manager, state = self._state_after_departures()
        home_component = manager.decision_signature(state)[-1]
        assert 0 < len(home_component) <= len(state.apps)
