"""Tests for simulator internals: accounting, penalties, preemption, actions."""

import gc
import weakref

import pytest

from repro.dnn.dynamic import DynamicDNN
from repro.dnn.training import IncrementalTrainer
from repro.dnn.zoo import cifar_group_cnn, make_dynamic_cifar_dnn
from repro.experiments.managers import make_manager
from repro.platforms.thermal import ThermalParams
from repro.rtm.manager import RuntimeManager
from repro.rtm.state import (
    MapApplication,
    SetConfiguration,
    SetCoresOnline,
    SetFrequency,
    UnmapApplication,
)
from repro.sim.engine import SharedSimulationStores, Simulator, SimulatorConfig, _DNNRuntime
from repro.sim.faults import FaultPlan, JobCrashProfile
from repro.workloads.requirements import MetricSample, Requirements
from repro.workloads.scenarios import Scenario
from repro.workloads.tasks import (
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)
from tests.reference_engine import ReferenceSimulator


def dnn_scenario(trained_dnn, extra_apps=(), duration_ms=3000.0, fps=5.0, **req):
    app = make_dnn_application(
        "dnn1", trained_dnn, Requirements(target_fps=fps, priority=3, **req)
    )
    return Scenario(
        name="unit",
        platform_name="odroid_xu3",
        applications=[app, *extra_apps],
        duration_ms=duration_ms,
    )


class _ScriptedManager:
    """A manager that issues a fixed action script on its first decision."""

    def __init__(self, actions):
        self._actions = list(actions)
        self.calls = 0

    def decide(self, state):
        self.calls += 1
        actions = self._actions if self.calls == 1 else []

        class _Decision:
            pass

        decision = _Decision()
        decision.actions = actions
        return decision


class TestScriptedActions:
    def test_map_and_configure_actions_are_applied(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=2000.0)
        manager = _ScriptedManager(
            [
                MapApplication(app_id="dnn1", cluster_name="a7", cores=2),
                SetConfiguration(app_id="dnn1", configuration=0.5),
                SetFrequency(cluster_name="a7", frequency_mhz=1000.0),
            ]
        )
        simulator = Simulator(scenario, manager)
        trace = simulator.run()
        jobs = trace.completed_jobs("dnn1")
        assert jobs
        assert all(job.cluster == "a7" for job in jobs)
        assert all(job.cores == 2 for job in jobs)
        assert all(job.configuration == pytest.approx(0.5) for job in jobs)
        assert all(job.frequency_mhz == pytest.approx(1000.0) for job in jobs)
        # The cores are genuinely reserved on the platform.
        assert len(simulator.soc.cluster("a7").cores_reserved_by("dnn1")) == 2

    def test_unknown_cluster_in_action_is_ignored(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=1000.0)
        manager = _ScriptedManager(
            [
                SetFrequency(cluster_name="npu", frequency_mhz=1000.0),
                MapApplication(app_id="dnn1", cluster_name="npu", cores=1),
            ]
        )
        trace = Simulator(scenario, manager).run()
        # The bogus actions are dropped; the DNN stays unmapped and its jobs drop.
        assert all(job.dropped for job in trace.jobs_for("dnn1"))

    def test_migration_penalty_charged_once(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=4000.0, fps=2.0)
        config = SimulatorConfig(migration_penalty_ms=50.0, decision_interval_ms=1000.0)

        class _MigratingManager:
            """Maps to the GPU first, then migrates to the A15 at the next call."""

            def __init__(self):
                self.calls = 0

            def decide(self, state):
                self.calls += 1

                class _Decision:
                    actions = []

                decision = _Decision()
                if self.calls == 1:
                    decision.actions = [MapApplication(app_id="dnn1", cluster_name="mali_gpu", cores=1)]
                elif self.calls == 2:
                    decision.actions = [MapApplication(app_id="dnn1", cluster_name="a15", cores=1)]
                else:
                    decision.actions = []
                return decision

        trace = Simulator(scenario, _MigratingManager(), config=config).run()
        a15_jobs = [job for job in trace.completed_jobs("dnn1") if job.cluster == "a15"]
        assert len(a15_jobs) >= 2
        # The first job after migration carries the 50 ms penalty.
        assert a15_jobs[0].latency_ms > a15_jobs[1].latency_ms + 40.0

    def test_configuration_switch_overhead_charged(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=2.0)

        class _SwitchingManager:
            def __init__(self):
                self.calls = 0

            def decide(self, state):
                self.calls += 1

                class _Decision:
                    actions = []

                decision = _Decision()
                if self.calls == 1:
                    decision.actions = [
                        MapApplication(app_id="dnn1", cluster_name="a15", cores=1),
                        SetConfiguration(app_id="dnn1", configuration=1.0),
                    ]
                elif self.calls == 2:
                    decision.actions = [SetConfiguration(app_id="dnn1", configuration=0.5)]
                else:
                    decision.actions = []
                return decision

        config = SimulatorConfig(decision_interval_ms=600.0)
        trace = Simulator(scenario, _SwitchingManager(), config=config).run()
        half_jobs = [j for j in trace.completed_jobs("dnn1") if j.configuration == pytest.approx(0.5)]
        assert len(half_jobs) >= 2
        # The switch overhead (1 ms by default) lands on the first 50 % job.
        assert half_jobs[0].latency_ms > half_jobs[1].latency_ms


class _SteppedManager:
    """Issues ``steps[n]`` at its ``n``-th decision and records ``read(state)``
    at every decision."""

    def __init__(self, steps, read):
        self._steps = list(steps)
        self._read = read
        self.readings = []

    def decide(self, state):
        call = len(self.readings)
        self.readings.append(self._read(state))

        class _Decision:
            actions = self._steps[call] if call < len(self._steps) else []

        return _Decision()


MAP_DNN_ON_A15 = MapApplication(app_id="dnn1", cluster_name="a15", cores=1)


class TestFig5Boundary:
    """Fig 5's knobs and monitors at the manager's one boundary.

    Every decision reads a ``SystemState`` (the monitors) and returns
    ``Action`` objects (the knobs), which the simulator applies to the
    platform and the applications before the next decision reads them back.
    """

    @pytest.mark.parametrize("cluster_name", ["a15", "a7", "mali_gpu"])
    def test_frequency_knob_of_every_cluster(self, trained_dnn, xu3, cluster_name):
        default = xu3.cluster(cluster_name).frequency_mhz
        frequency = xu3.cluster(cluster_name).available_frequencies()[1]
        assert frequency != default
        manager = _SteppedManager(
            [[SetFrequency(cluster_name=cluster_name, frequency_mhz=frequency)]],
            read=lambda state: state.soc.cluster(cluster_name).frequency_mhz,
        )
        Simulator(dnn_scenario(trained_dnn, duration_ms=1000.0), manager).run()
        assert manager.readings == [default, frequency, frequency]

    def test_online_cores_knob_powers_cores_down_and_up(self, trained_dnn):
        manager = _SteppedManager(
            [
                [SetCoresOnline(cluster_name="a15", online_cores=2)],
                [SetCoresOnline(cluster_name="a15", online_cores=4)],
            ],
            read=lambda state: len(state.soc.cluster("a15").online_cores),
        )
        Simulator(dnn_scenario(trained_dnn, duration_ms=1000.0), manager).run()
        assert manager.readings == [4, 2, 4]

    def test_configuration_knob_moves_the_accuracy_monitor(self, trained_dnn):
        model_before = dict(vars(trained_dnn.dynamic_dnn))
        manager = _SteppedManager(
            [
                [MAP_DNN_ON_A15, SetConfiguration(app_id="dnn1", configuration=1.0)],
                [SetConfiguration(app_id="dnn1", configuration=0.25)],
            ],
            read=lambda state: state.app("dnn1").last_sample.accuracy_percent,
        )
        Simulator(dnn_scenario(trained_dnn, duration_ms=1500.0), manager).run()
        assert trained_dnn.top1(0.25) == pytest.approx(56.0)
        assert manager.readings == [
            None, trained_dnn.top1(1.0), trained_dnn.top1(0.25), trained_dnn.top1(0.25)
        ]
        # The simulator switched its own width, not the model.
        assert vars(trained_dnn.dynamic_dnn) == model_before

    def test_unmapping_stops_the_application(self, trained_dnn):
        manager = _SteppedManager(
            [[MAP_DNN_ON_A15], [UnmapApplication(app_id="dnn1")]],
            read=lambda state: state.app("dnn1").mapping,
        )
        simulator = Simulator(dnn_scenario(trained_dnn, duration_ms=2000.0), manager)
        trace = simulator.run()
        first, mapped, *unmapped = manager.readings
        assert first is None
        assert (mapped.cluster_name, mapped.cores) == ("a15", 1)
        assert unmapped and all(mapping is None for mapping in unmapped)
        jobs = trace.jobs_for("dnn1")
        assert all(not job.dropped for job in jobs if job.release_ms < 500.0)
        late = [job for job in jobs if job.release_ms > 500.0]
        assert late and all(job.violations == ("unmapped",) for job in late)
        assert simulator.soc.cluster("a15").cores_reserved_by("dnn1") == []

    def test_decisions_read_the_device_monitors(self, trained_dnn):
        manager = _SteppedManager(
            [[MAP_DNN_ON_A15]],
            read=lambda state: (
                state.soc,
                state.time_ms,
                state.soc.thermal.temperature_c,
                state.throttling,
            ),
        )
        simulator = Simulator(dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0), manager)
        # A low threshold, so the run crosses it and the flag reads both ways.
        simulator.soc.thermal.params = ThermalParams(
            throttle_threshold_c=26.0, throttle_release_c=25.5
        )
        samples = simulator.run().power_samples
        checked = 0
        for soc, time_ms, temperature_c, throttling in manager.readings:
            assert soc is simulator.soc
            earlier = [sample for sample in samples if sample.time_ms < time_ms]
            if earlier:
                # The monitors hold the latest thermal sample: the last one
                # before the decision, or one taken at the same instant.
                latest = [earlier[-1]] + [s for s in samples if s.time_ms == time_ms]
                assert (temperature_c, throttling) in [
                    (sample.temperature_c, sample.throttling) for sample in latest
                ]
                checked += 1
        assert checked >= 5
        assert manager.readings[-1][2] > manager.readings[0][2]  # the load heats the SoC
        assert {reading[3] for reading in manager.readings} == {False, True}

    def test_decisions_read_the_application_monitors(self, trained_dnn):
        manager = _SteppedManager(
            [[MAP_DNN_ON_A15]],
            read=lambda state: (
                state.time_ms,
                state.app("dnn1").jobs_completed,
                state.app("dnn1").last_sample,
            ),
        )
        trace = Simulator(dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0), manager).run()
        jobs = trace.completed_jobs("dnn1")
        for time_ms, jobs_completed, sample in manager.readings:
            done = [job for job in jobs if job.finish_ms <= time_ms]
            assert jobs_completed == len(done)
            if not done:
                assert sample == MetricSample()
                continue
            last = done[-1]
            assert (sample.latency_ms, sample.energy_mj, sample.accuracy_percent) == (
                last.latency_ms,
                last.energy_mj,
                last.accuracy_percent,
            )
        assert manager.readings[-1][1] == len(jobs) > 0


def _switch_penalties(trace, app_id):
    """``(configuration, penalty_ms)`` of each completed job of ``app_id``.

    A job's latency is its operating point's (temperature-independent)
    latency plus any penalty charged to it; the penalty is read off as the
    excess over the app's cheapest job at the same operating point.
    """
    jobs = trace.completed_jobs(app_id)

    def point(job):
        return (job.configuration, job.cluster, job.cores, job.frequency_mhz)

    floor = {}
    for job in jobs:
        floor[point(job)] = min(floor.get(point(job), job.latency_ms), job.latency_ms)
    return [(job.configuration, job.latency_ms - floor[point(job)]) for job in jobs]


class TestConfigurationSwitching:
    """The simulator keeps each co-scaling group's width — the apps of one
    simulation that share a ``DynamicDNN`` object — starting at the full
    model; only a change of that width costs ``switching_overhead_ms``."""

    @pytest.fixture(scope="class")
    def slow_switch(self):
        """A trained model with a switching overhead no job could hide."""
        return IncrementalTrainer().train(
            DynamicDNN(cifar_group_cnn(), switching_overhead_ms=7.0)
        )

    def _run(self, trained, steps, apps=("dnn1",)):
        scenario = Scenario(
            name="unit",
            platform_name="odroid_xu3",
            applications=[
                make_dnn_application(
                    app_id, trained, Requirements(target_fps=4.0, priority=3)
                )
                for app_id in apps
            ],
            duration_ms=2000.0,
        )
        manager = _SteppedManager(steps, read=lambda state: None)
        return Simulator(scenario, manager).run()

    def test_a_width_change_charges_the_next_job_once(self, slow_switch):
        trace = self._run(
            slow_switch, [[MAP_DNN_ON_A15], [SetConfiguration(app_id="dnn1", configuration=0.5)]]
        )
        penalties = _switch_penalties(trace, "dnn1")
        half = [penalty for configuration, penalty in penalties if configuration == 0.5]
        assert len(half) >= 2
        assert half[0] == pytest.approx(7.0)
        assert [penalty for _, penalty in penalties if penalty] == [half[0]]

    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_reselecting_the_current_width_charges_nothing(self, slow_switch, width):
        select = SetConfiguration(app_id="dnn1", configuration=width)
        trace = self._run(slow_switch, [[MAP_DNN_ON_A15, select], [select], [select]])
        penalties = _switch_penalties(trace, "dnn1")
        assert {configuration for configuration, _ in penalties} == {width}
        charged = [penalty for _, penalty in penalties if penalty]
        # The full model is every group's starting width: selecting it is free.
        assert charged == ([] if width == 1.0 else [pytest.approx(7.0)])

    def test_apps_sharing_a_model_switch_together_and_pay_once(self, slow_switch):
        trace = self._run(
            slow_switch,
            [
                [],  # dnn1's arrival: dnn2 has not arrived yet
                [MAP_DNN_ON_A15, MapApplication(app_id="dnn2", cluster_name="a7", cores=1)],
                [
                    SetConfiguration(app_id="dnn1", configuration=0.5),
                    SetConfiguration(app_id="dnn2", configuration=0.5),
                ],
                # dnn2 is remapped: its new mapping carries its group's width.
                [MapApplication(app_id="dnn2", cluster_name="a15", cores=1)],
            ],
            apps=("dnn1", "dnn2"),
        )
        charged = {
            app_id: [p for _, p in _switch_penalties(trace, app_id) if p]
            for app_id in ("dnn1", "dnn2")
        }
        assert charged["dnn1"] == [pytest.approx(7.0)]
        # dnn2 pays only the migration penalty of its remap, never a switch.
        assert charged["dnn2"] == [pytest.approx(SimulatorConfig().migration_penalty_ms)]
        late = [job for job in trace.completed_jobs("dnn2") if job.cluster == "a15"]
        assert late and all(job.configuration == 0.5 for job in late)

    def test_the_width_snaps_to_a_configuration_key(self):
        # With three increments the keys are rounded (0.333333), while the
        # configuration's own fraction is not (1/3).
        trained = IncrementalTrainer().train(DynamicDNN(cifar_group_cnn(), num_increments=3))
        trace = self._run(
            trained, [[MAP_DNN_ON_A15, SetConfiguration(app_id="dnn1", configuration=0.3)]]
        )
        widths = {job.configuration for job in trace.completed_jobs("dnn1")}
        assert widths == {trained.configurations[0]} == {0.333333}
        assert trained.dynamic_dnn.configuration(0.3).fraction != 0.333333


class TestGenericApplications:
    def test_arvr_preempts_dnn_from_gpu(self, trained_dnn):
        arvr = make_arvr_application("arvr", arrival_time_ms=1000.0, priority=9)
        scenario = dnn_scenario(trained_dnn, extra_apps=[arvr], duration_ms=3000.0, fps=10.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        gpu = simulator.soc.cluster("mali_gpu")
        # At the end of the run the AR/VR application owns the GPU core.
        assert gpu.cores_reserved_by("arvr")

    def test_arvr_raises_gpu_frequency_to_its_floor(self, trained_dnn):
        arvr = make_arvr_application("arvr", arrival_time_ms=500.0, gpu_min_frequency_mhz=600.0)
        scenario = dnn_scenario(trained_dnn, extra_apps=[arvr], duration_ms=1500.0)

        class _IdleManager:
            def decide(self, state):
                class _Decision:
                    actions = []

                return _Decision()

        simulator = Simulator(scenario, _IdleManager())
        simulator.soc.cluster("mali_gpu").set_frequency(177.0)
        simulator.run()
        assert simulator.soc.cluster("mali_gpu").frequency_mhz >= 600.0

    def test_background_task_occupies_cpu_cores(self, trained_dnn):
        background = make_background_application(
            "bg", cores=2, arrival_time_ms=0.0, departure_time_ms=2000.0
        )
        scenario = dnn_scenario(trained_dnn, extra_apps=[background], duration_ms=3000.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        # After the background task departs its cores are free again.
        assert not any(
            core.reserved_by == "bg" for core in simulator.soc.all_cores
        )

    def test_memory_accounting_follows_arrivals_and_departures(self, trained_dnn):
        background = make_background_application(
            "bg", cores=1, arrival_time_ms=0.0, departure_time_ms=1000.0
        )
        scenario = dnn_scenario(trained_dnn, extra_apps=[background], duration_ms=2000.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        # Only the DNN (which never departs) still holds memory at the end.
        dnn_footprint = scenario.application("dnn1").memory_footprint_mb
        assert simulator.soc.allocated_memory_mb == pytest.approx(dnn_footprint)


def _memoised_replica(scenario, manager):
    return Simulator(scenario, manager, stores=SharedSimulationStores())


@pytest.mark.parametrize("engine", [ReferenceSimulator, _memoised_replica])
class TestReArrival:
    """An app that departs with a job in flight and arrives again before that
    job ends (the fleet's eviction and migration path) starts afresh: the old
    residency's completion, crash and release events are dropped."""

    def _run(self, trained_dnn, engine, fault_plan=None):
        scenario = Scenario(
            name="rearrival",
            platform_name="odroid_xu3",
            applications=[],
            duration_ms=2000.0,
            fault_plan=fault_plan,
        )
        simulator = engine(scenario, make_manager("rtm"))

        def arrival(time_ms):
            return make_dnn_application(
                "dnn1", trained_dnn, Requirements(target_fps=2.0), arrival_time_ms=time_ms
            )

        simulator.inject_arrival(arrival(0.0), 0.0)
        simulator.inject_departure("dnn1", 5.0)
        simulator.inject_arrival(arrival(10.0), 10.0)
        return simulator.run().jobs_for("dnn1")

    def _assert_one_fresh_residency(self, jobs):
        assert [job.release_ms for job in jobs] == [10.0, 510.0, 1010.0, 1510.0]
        assert [job.job_index for job in jobs] == [1, 2, 3, 4]
        for job in jobs:
            assert job.start_ms == job.release_ms
            assert job.finish_ms == pytest.approx(job.start_ms + job.latency_ms)
        for earlier, later in zip(jobs, jobs[1:]):
            assert earlier.finish_ms <= later.start_ms

    def test_in_flight_job_of_the_departed_residency_is_dropped(self, trained_dnn, engine):
        self._assert_one_fresh_residency(self._run(trained_dnn, engine))

    def test_lost_job_of_the_departed_residency_is_dropped(self, trained_dnn, engine):
        # Every attempt of the first residency's job crashes; its loss lands
        # after the re-arrival and must not be booked on the new residency.
        crashes = JobCrashProfile(probability=1.0, max_retries=0, end_ms=5.0)
        jobs = self._run(trained_dnn, engine, FaultPlan(job_crashes=crashes))
        self._assert_one_fresh_residency(jobs)
        assert not any(job.dropped for job in jobs)

    def test_departed_runtime_is_freed_without_the_collector(self, trained_dnn, engine):
        """Batches and fleets run with the cyclic collector suspended, so the
        departed residency's bookkeeping must be freed by reference counts."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            existing = [o for o in gc.get_objects() if type(o) is _DNNRuntime]
            self._run(trained_dnn, engine)
            fresh = [
                o
                for o in gc.get_objects()
                if type(o) is _DNNRuntime and all(o is not e for e in existing)
            ]
        finally:
            if was_enabled:
                gc.enable()
        # Only the second residency's runtime is left, inside the simulator's
        # own (live until collected) reference cycle.
        assert len(fresh) == 1


class TestInjectedApplicationMemos:
    def test_a_reused_id_is_not_served_a_departed_applications_memos(self):
        """An injected application is freed once it departs, so a later
        arrival can reuse its ``id()``; the job network and accuracy memos
        must not serve it the departed application's entries."""

        def run(engine):
            models = [IncrementalTrainer().train(make_dynamic_cifar_dnn(n)) for n in (4, 2)]
            requirements = Requirements(target_fps=10.0)
            scenario = Scenario(
                name="id_reuse", platform_name="odroid_xu3", applications=[], duration_ms=26000.0
            )
            simulator = engine(scenario, make_manager("rtm"))
            for index in range(50):
                time_ms = index * 500.0
                application = make_dnn_application(
                    f"app{index}", models[index % 2], requirements, arrival_time_ms=time_ms
                )
                simulator.inject_arrival(application, time_ms)
                simulator.inject_departure(application.app_id, time_ms + 400.0)
                simulator.advance_to(time_ms + 400.0)
                gc.collect()
                # The last reference to the departed application goes right
                # before its successor is built, which then tends to get its
                # memory, and so its id().
                del application
            return simulator.run().fingerprint()

        assert run(Simulator) == run(ReferenceSimulator)

    def test_memo_entries_pin_their_application(self, trained_dnn):
        """Whether the allocator reuses a freed id() is chance, so the test
        above may miss a regression; the pin that rules it out is checked
        directly: a memoised application outlives its departure."""
        scenario = Scenario(
            name="pin", platform_name="odroid_xu3", applications=[], duration_ms=2000.0
        )
        simulator = Simulator(scenario, make_manager("rtm"))
        application = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=10.0))
        pinned = weakref.ref(application)
        simulator.inject_arrival(application, 0.0)
        simulator.inject_departure("dnn1", 400.0)
        del application
        simulator.advance_to(1000.0)
        gc.collect()
        assert pinned() is not None


class TestPowerIntegration:
    def test_interval_power_reflects_load(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0)
        simulator = Simulator(scenario, RuntimeManager())
        trace = simulator.run()
        idle_power = simulator.soc.idle_power_mw()
        # With a 20 fps DNN running, the mean sampled power must exceed the
        # idle floor (the busy-time integration must see the jobs even though
        # the sampling period is a multiple of the job period).
        assert trace.mean_power_mw() > idle_power * 1.02

    def test_utilisations_exposed_to_manager(self, trained_dnn):
        seen = {}

        class _SpyManager(RuntimeManager):
            def decide(self, state):
                if state.cluster_utilisations:
                    seen.update(state.cluster_utilisations)
                return super().decide(state)

        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0)
        Simulator(scenario, _SpyManager()).run()
        assert seen  # utilisation samples reached the manager
        assert all(0.0 <= value <= 1.0 for value in seen.values())
        assert max(seen.values()) > 0.0
