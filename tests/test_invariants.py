"""Property-based simulation invariants across the whole scenario registry.

The scenario space now grows by composition and fuzzing faster than anyone
can eyeball individual traces, so these tests pin down what must hold for
*every* simulation, whatever the workload and manager:

* event/job times are ordered (release <= start <= finish, monotone samples);
* job accounting conserves: released jobs are completed, dropped, or (at
  most one per application) still in flight at the horizon;
* physical quantities are non-negative and accuracies are percentages;
* a (spec, seed) pair is deterministic: rerunning yields the identical
  fingerprint;
* the operating-point cache never changes behaviour, including on fuzzed
  scenarios nobody hand-shaped;
* two metamorphic relations the lock-step engine relies on: slicing a run
  with ``Simulator.advance_to`` at arbitrary cut points leaves its
  fingerprint unchanged, and so does a fault scheduled after the horizon.

The full suite sweeps the session-scoped registry grid (every scenario x
manager at seed 0).  The ``smoke``-marked subset runs a handful of fresh
simulations end to end — cheap enough for the CI invariants step — and the
hypothesis block samples seeded scenario constructions without simulating.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, make_manager, run
from repro.sim.engine import Simulator
from repro.sim.faults import CoreFailure, FaultPlan, FrequencyCap
from repro.sim.trace import SimulationTrace
from repro.workloads import ScenarioFuzzer, build_scenario, perturb, scale
from tests.reference_kernels import unmemoised_operating_points

#: Invariant-suite hypothesis profile: scenario construction is fast but not
#: free (each build trains the simulated DNN), so bound the sample count and
#: drop the per-example deadline (the first build pays one-off import costs).
SAMPLING = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------------ checkers


def assert_times_ordered(trace: SimulationTrace, label: str) -> None:
    """Per-job ordering plus monotone decision/power-sample timelines."""
    for job in trace.jobs:
        assert job.release_ms <= job.start_ms <= job.finish_ms, (label, job)
        if not job.dropped:
            assert job.finish_ms - job.start_ms == pytest.approx(job.latency_ms), (label, job)
    decision_times = [decision.time_ms for decision in trace.decisions]
    assert decision_times == sorted(decision_times), label
    sample_times = [sample.time_ms for sample in trace.power_samples]
    assert all(b > a for a, b in zip(sample_times, sample_times[1:])), label


def assert_job_conservation(trace: SimulationTrace, label: str) -> None:
    """Released jobs are conserved: completed + dropped + at most 1 in flight.

    Every release (or drop) takes the next per-application job index, and
    each indexed job is recorded exactly once — unless it was still running
    when the scenario ended or its application departed, which can strand at
    most one job per application (the simulator runs one inference at a time
    per application).
    """
    for app_id in trace.app_ids():
        indexes = [job.job_index for job in trace.jobs_for(app_id)]
        assert len(indexes) == len(set(indexes)), (label, app_id, "duplicate job index")
        assert min(indexes) >= 1, (label, app_id)
        in_flight = max(indexes) - len(indexes)
        assert in_flight in (0, 1), (label, app_id, f"{in_flight} jobs unaccounted for")
        completed = len(trace.completed_jobs(app_id))
        dropped = len([job for job in trace.jobs_for(app_id) if job.dropped])
        assert max(indexes) == completed + dropped + in_flight, (label, app_id)


def assert_physical_quantities(trace: SimulationTrace, label: str) -> None:
    """Energies, latencies and powers non-negative; accuracies are percentages."""
    for job in trace.jobs:
        assert job.latency_ms >= 0.0, (label, job)
        assert job.energy_mj >= 0.0, (label, job)
        assert 0.0 <= job.accuracy_percent <= 100.0, (label, job)
        assert job.cores >= 0, (label, job)
        assert job.frequency_mhz >= 0.0, (label, job)
    for sample in trace.power_samples:
        assert sample.power_mw >= 0.0, (label, sample)
        assert 0.0 < sample.temperature_c < 200.0, (label, sample)


def assert_all_invariants(trace: SimulationTrace, label: str) -> None:
    assert_times_ordered(trace, label)
    assert_job_conservation(trace, label)
    assert_physical_quantities(trace, label)


# ------------------------------------------------- full registry x managers


class TestRegistryGridInvariants:
    """Every registry scenario under every manager satisfies the invariants."""

    def test_event_times_ordered(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_times_ordered(trace, label)

    def test_job_count_conservation(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_job_conservation(trace, label)

    def test_physical_quantities_sane(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_physical_quantities(trace, label)

    def test_every_trace_produced_jobs(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert trace.jobs, f"{label} simulated no jobs at all"

    def test_fault_records_only_under_fault_plans(self, registry_grid_cached):
        """Fault records appear exactly on the chaos scenarios, time-ordered.

        The registry grid includes the ``chaos_*`` scenarios, so this pins
        both directions: fault-free scenarios must not record faults (their
        fingerprints predate the subsystem), and every chaos trace must
        carry its injections, inside the horizon, in schedule order.
        """
        from repro.sim.faults import FAULT_EVENT_KINDS

        for label, trace in registry_grid_cached.traces.items():
            if label.startswith("chaos_"):
                assert trace.faults, f"{label} injected no faults"
                assert all(fault.time_ms >= 0.0 for fault in trace.faults), label
                # Timeline events (core failures, caps, sensor faults) fire in
                # schedule order inside the horizon.  Crash-model records are
                # exempt: they are written at job start with their *projected*
                # crash/retry timestamps, which interleave across apps.
                timeline = [
                    fault.time_ms
                    for fault in trace.faults
                    if fault.kind in FAULT_EVENT_KINDS
                ]
                assert timeline == sorted(timeline), label
                assert all(t <= trace.duration_ms for t in timeline), label
            else:
                assert not trace.faults, f"{label} recorded unexpected faults"

    def test_crashed_jobs_are_conserved_drops(self, registry_grid_cached):
        """Jobs lost to transient crashes stay inside job conservation."""
        for label, trace in registry_grid_cached.traces.items():
            for job in trace.crashed_jobs():
                assert job.dropped, (label, job)
            assert len(trace.crashed_jobs()) == len(trace.faults_of_kind("job_lost")), label


# -------------------------------------------------------- fuzzed cache parity


class TestFuzzedCacheParity:
    """The cache equals its unmemoised stand-in, on scenarios nobody hand-shaped."""

    @pytest.mark.parametrize("seed", [5, 9])
    def test_fingerprints_match_and_invariants_hold(self, seed):
        spec = ExperimentSpec(scenario="fuzzed", seed=seed)
        cached = run(spec)
        with unmemoised_operating_points():
            reference = run(spec)
        assert cached.trace.fingerprint() == reference.trace.fingerprint()
        assert_all_invariants(cached.trace, f"fuzzed/seed{seed}")


# --------------------------------------------------- metamorphic relations
#
# The lock-step engine advances every replica in decision-interval strides
# and must reproduce each replica's lone run, which holds only if slicing a
# run's timeline changes nothing; a fault past the horizon must be inert.

METAMORPHIC_CASES = [
    (scenario, manager)
    for scenario in (
        "steady",
        "rush_hour",
        "fig2",
        "chaos_double_fault",
        "chaos_bursty_transient_crashes",
    )
    for manager in ("rtm", "governor_only")
]

#: Power/thermal sample period of the default simulator config (ms).
SAMPLE_GRID_MS = 100.0


def _simulator(scenario_name: str, manager: str, fault_plan=None) -> Simulator:
    return Simulator(
        build_scenario(scenario_name, seed=0), make_manager(manager), fault_plan=fault_plan
    )


_WHOLE_RUNS = {}


def _whole_run_fingerprint(scenario_name: str, manager: str) -> str:
    key = (scenario_name, manager)
    if key not in _WHOLE_RUNS:
        _WHOLE_RUNS[key] = _simulator(scenario_name, manager).run().fingerprint()
    return _WHOLE_RUNS[key]


class TestMetamorphicRelations:
    @pytest.mark.parametrize("scenario_name, manager", METAMORPHIC_CASES)
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_slicing_with_advance_to_keeps_the_fingerprint(self, scenario_name, manager, data):
        simulator = _simulator(scenario_name, manager)
        duration_ms = simulator.scenario.duration_ms
        steps = int(duration_ms // SAMPLE_GRID_MS)
        cut = st.one_of(
            st.integers(min_value=0, max_value=steps).map(lambda k: k * SAMPLE_GRID_MS),
            st.floats(min_value=0.0, max_value=duration_ms),
            st.floats(min_value=duration_ms, max_value=2.0 * duration_ms),
        )
        cuts = data.draw(st.lists(cut, min_size=1, max_size=6), label="cuts")
        # The first cut is repeated: advancing to the current time is a no-op.
        for time_ms in sorted(cuts + cuts[:1]):
            simulator.advance_to(time_ms)
        simulator.advance_to(duration_ms)
        assert simulator.trace.fingerprint() == _whole_run_fingerprint(scenario_name, manager)

    @pytest.mark.parametrize("scenario_name, manager", METAMORPHIC_CASES)
    def test_a_fault_after_the_horizon_changes_nothing(self, scenario_name, manager):
        scenario = build_scenario(scenario_name, seed=0)
        duration_ms = scenario.duration_ms
        cluster = scenario.build_platform().cluster_names[0]
        own = scenario.fault_plan or FaultPlan()
        late = FaultPlan(
            events=own.events
            + (
                CoreFailure(time_ms=duration_ms + SAMPLE_GRID_MS, cluster=cluster),
                FrequencyCap(time_ms=2.0 * duration_ms, cluster=cluster, max_frequency_mhz=200.0),
            ),
            job_crashes=own.job_crashes,
        )
        fingerprint = _simulator(scenario_name, manager, fault_plan=late).run().fingerprint()
        assert fingerprint == _whole_run_fingerprint(scenario_name, manager)


# ------------------------------------------------------------- smoke subset
#
# Fresh end-to-end runs small enough for the CI invariants step
# (pytest tests/test_invariants.py -m smoke): no session grid, a handful of
# short simulations.


@pytest.mark.smoke
class TestSmokeInvariants:
    SPECS = (
        ExperimentSpec(scenario="steady", manager="rtm"),
        ExperimentSpec(scenario="fuzzed", manager="governor_only", seed=3),
        ExperimentSpec(scenario="compose", manager="rtm", seed=1),
    )

    def test_invariants_on_fresh_runs(self):
        for spec in self.SPECS:
            assert_all_invariants(run(spec).trace, spec.label)

    def test_fingerprint_deterministic_for_fixed_seed(self):
        spec = ExperimentSpec(scenario="fuzzed", manager="governor_only", seed=3)
        assert run(spec).trace.fingerprint() == run(spec).trace.fingerprint()

    def test_fuzzed_cache_parity_smoke(self):
        spec = ExperimentSpec(scenario="fuzzed", seed=1)
        cached = run(spec)
        with unmemoised_operating_points():
            reference = run(spec)
        assert cached.trace.fingerprint() == reference.trace.fingerprint()


# --------------------------------------------- seeded construction sampling
#
# Hypothesis samples scenario *constructions* (no simulation): whatever the
# seed, composed and fuzzed workloads must come out structurally valid, and
# equal seeds must reproduce them exactly.


def _shape(scenario):
    return [
        (app.app_id, app.arrival_time_ms, app.departure_time_ms, app.requirements)
        for app in scenario.applications
    ]


class TestSeededConstructionProperties:
    @SAMPLING
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_fuzzed_scenarios_are_valid_and_reproducible(self, seed):
        scenario = ScenarioFuzzer(seed=seed).scenario()
        ids = [app.app_id for app in scenario.applications]
        assert len(ids) == len(set(ids))
        assert scenario.duration_ms > 0
        assert scenario.applications
        for app in scenario.applications:
            assert app.arrival_time_ms >= 0.0
            if app.departure_time_ms is not None:
                assert app.departure_time_ms > app.arrival_time_ms
        assert _shape(ScenarioFuzzer(seed=seed).scenario()) == _shape(scenario)

    @SAMPLING
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        factor=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_scale_preserves_event_counts_and_order(self, seed, factor):
        base = build_scenario("bursty", seed=seed % 16)
        scaled = scale(base, arrival_factor=factor)
        assert len(scaled.events()) == len(base.events())
        assert [event.app_id for event in scaled.events()] == [
            event.app_id for event in base.events()
        ]

    @SAMPLING
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_perturb_keeps_scenarios_valid(self, seed):
        base = build_scenario("multi_app_contention", seed=seed % 16)
        jittered = perturb(base, seed=seed)
        assert len(jittered.applications) == len(base.applications)
        for app in jittered.applications:
            assert app.arrival_time_ms >= 0.0
            if app.departure_time_ms is not None:
                assert app.departure_time_ms > app.arrival_time_ms
