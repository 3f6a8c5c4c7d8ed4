"""Tests for requirements, tasks, scenarios and the workload generator."""

import numpy as np
import pytest

from repro.platforms.core import CoreType
from repro.workloads.generator import WorkloadGenerator, WorkloadGeneratorConfig
from repro.workloads.requirements import MetricSample, Requirements
from repro.workloads.scenarios import (
    SCENARIO_REGISTRY,
    ScenarioEventKind,
    fig2_scenario,
    multi_dnn_scenario,
    single_dnn_scenario,
    thermal_stress_scenario,
)
from repro.workloads.tasks import (
    DNNApplication,
    ResourceDemand,
    TaskKind,
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)


class TestRequirements:
    def test_latency_limit_from_fps(self):
        requirements = Requirements(target_fps=25.0)
        assert requirements.effective_latency_limit_ms == pytest.approx(40.0)
        assert requirements.period_ms == pytest.approx(40.0)

    def test_explicit_latency_tighter_than_fps_wins(self):
        requirements = Requirements(target_fps=10.0, max_latency_ms=50.0)
        assert requirements.effective_latency_limit_ms == pytest.approx(50.0)

    def test_check_reports_each_violated_axis(self):
        requirements = Requirements(
            max_latency_ms=100.0, max_energy_mj=50.0, min_accuracy_percent=60.0
        )
        sample = MetricSample(latency_ms=150.0, energy_mj=40.0, accuracy_percent=55.0)
        assert requirements.violated_metrics(sample) == ("latency_ms", "accuracy_percent")

    def test_satisfied_sample(self):
        requirements = Requirements(max_latency_ms=100.0, min_accuracy_percent=60.0)
        sample = MetricSample(latency_ms=80.0, accuracy_percent=70.0)
        assert requirements.violated_metrics(sample) == ()

    def test_missing_metrics_are_not_checked(self):
        requirements = Requirements(max_energy_mj=10.0)
        assert requirements.violated_metrics(MetricSample(latency_ms=5000.0)) == ()

    def test_violation_magnitude(self):
        requirements = Requirements(max_latency_ms=100.0)
        (score,) = requirements.violation_scores(latency_ms=np.array([150.0]))
        assert score == pytest.approx(0.5)

    def test_with_changes_creates_modified_copy(self):
        original = Requirements(target_fps=30.0, min_accuracy_percent=68.0)
        relaxed = original.with_changes(min_accuracy_percent=56.0)
        assert relaxed.min_accuracy_percent == 56.0
        assert relaxed.target_fps == 30.0
        assert original.min_accuracy_percent == 68.0

    def test_unconstrained_detection(self):
        assert Requirements().is_unconstrained
        assert not Requirements(target_fps=1.0).is_unconstrained

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Requirements(max_latency_ms=0.0)
        with pytest.raises(ValueError):
            Requirements(min_accuracy_percent=120.0)
        with pytest.raises(ValueError):
            Requirements(target_fps=-5.0)


class TestTasks:
    def test_dnn_application_properties(self, trained_dnn):
        app = make_dnn_application(
            "dnn1", trained_dnn, Requirements(target_fps=10.0, priority=4)
        )
        assert app.kind == TaskKind.DNN_INFERENCE
        assert app.priority == 4
        assert app.configurations == [0.25, 0.5, 0.75, 1.0]
        assert app.accuracy_of(1.0) == pytest.approx(71.2)
        assert app.period_ms() == pytest.approx(100.0)
        assert app.memory_footprint_mb == pytest.approx(
            trained_dnn.dynamic_dnn.memory_footprint_mb()
        )

    def test_dnn_application_requires_trained_model(self):
        with pytest.raises(ValueError, match="trained"):
            DNNApplication(
                app_id="x", kind=TaskKind.DNN_INFERENCE, requirements=Requirements()
            )

    def test_activity_window(self, trained_dnn):
        app = make_dnn_application(
            "dnn1",
            trained_dnn,
            Requirements(target_fps=10.0),
            arrival_time_ms=1000.0,
            departure_time_ms=5000.0,
        )
        assert not app.is_active(500.0)
        assert app.is_active(1000.0)
        assert app.is_active(4999.0)
        assert not app.is_active(5000.0)

    def test_arvr_application_demands_gpu(self):
        app = make_arvr_application("arvr", target_fps=60.0)
        assert app.kind == TaskKind.ARVR
        assert app.demand.core_type == CoreType.GPU
        assert app.demand.min_frequency_mhz is not None

    def test_background_application(self):
        app = make_background_application("bg", cores=2, core_type=CoreType.CPU_BIG)
        assert app.kind == TaskKind.BACKGROUND
        assert app.demand.cores == 2

    def test_invalid_demand(self):
        with pytest.raises(ValueError):
            ResourceDemand(core_type=CoreType.GPU, cores=0)
        with pytest.raises(ValueError):
            ResourceDemand(core_type=CoreType.GPU, utilisation=0.0)
        with pytest.raises(ValueError):
            ResourceDemand(core_type=CoreType.GPU, min_frequency_mhz=-10.0)

    def test_invalid_timing_rejected(self, trained_dnn):
        with pytest.raises(ValueError):
            make_dnn_application(
                "x",
                trained_dnn,
                Requirements(target_fps=1.0),
                arrival_time_ms=100.0,
                departure_time_ms=50.0,
            )


class TestScenarios:
    def test_fig2_timeline_structure(self, trained_dnn):
        scenario = fig2_scenario(trained_factory=lambda: trained_dnn)
        assert scenario.platform_name == "odroid_xu3"
        assert {app.app_id for app in scenario.applications} == {"dnn1", "dnn2", "arvr"}
        events = scenario.events()
        kinds = [(event.time_ms, event.kind) for event in events]
        assert (0.0, ScenarioEventKind.APP_ARRIVAL) in kinds
        assert (5000.0, ScenarioEventKind.APP_ARRIVAL) in kinds
        assert (15000.0, ScenarioEventKind.APP_ARRIVAL) in kinds
        assert (25000.0, ScenarioEventKind.REQUIREMENT_CHANGE) in kinds
        # The requirement change relaxes DNN2's accuracy floor.
        change = [e for e in events if e.kind == ScenarioEventKind.REQUIREMENT_CHANGE][0]
        assert change.app_id == "dnn2"
        assert change.new_requirements.min_accuracy_percent < scenario.application(
            "dnn2"
        ).requirements.min_accuracy_percent

    def test_events_sorted_by_time(self, trained_dnn):
        scenario = fig2_scenario(trained_factory=lambda: trained_dnn)
        times = [event.time_ms for event in scenario.events()]
        assert times == sorted(times)

    def test_build_platform_returns_fresh_soc(self, trained_dnn):
        scenario = fig2_scenario(trained_factory=lambda: trained_dnn)
        first = scenario.build_platform()
        second = scenario.build_platform()
        assert first is not second
        assert first.name == "odroid_xu3"

    def test_single_dnn_scenario(self):
        scenario = single_dnn_scenario(duration_ms=2000.0)
        assert len(scenario.applications) == 1
        assert scenario.duration_ms == 2000.0

    def test_multi_dnn_scenario_staggers_arrivals(self):
        scenario = multi_dnn_scenario(num_dnns=3, stagger_ms=1000.0)
        arrivals = [app.arrival_time_ms for app in scenario.applications]
        assert arrivals == [0.0, 1000.0, 2000.0]

    def test_thermal_stress_scenario_has_big_core_stressor(self):
        scenario = thermal_stress_scenario()
        stress = scenario.application("stress")
        assert stress.demand.core_type == CoreType.CPU_BIG
        assert stress.demand.cores == 4

    def test_unknown_application_raises(self):
        scenario = single_dnn_scenario()
        with pytest.raises(KeyError):
            scenario.application("ghost")

    def test_duplicate_app_ids_rejected(self, trained_dnn):
        from repro.workloads.scenarios import Scenario

        app = make_dnn_application("dup", trained_dnn, Requirements(target_fps=1.0))
        other = make_dnn_application("dup", trained_dnn, Requirements(target_fps=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            Scenario("bad", "odroid_xu3", [app, other], duration_ms=1000.0)

    def test_registry_contains_all_builders(self):
        # The paper's own timelines are always registered; the registry also
        # carries the synthetic scenario families (tested in
        # test_scenario_registry.py).
        assert {"fig2", "single_dnn", "multi_dnn", "thermal_stress"} <= set(SCENARIO_REGISTRY)


class TestWorkloadGenerator:
    def test_deterministic_for_seed(self, trained_dnn):
        config = WorkloadGeneratorConfig(num_dnn_apps=3, num_background_apps=1)
        a = WorkloadGenerator(config, seed=11, trained=trained_dnn).generate()
        b = WorkloadGenerator(config, seed=11, trained=trained_dnn).generate()
        assert [app.app_id for app in a.applications] == [app.app_id for app in b.applications]
        assert [app.arrival_time_ms for app in a.applications] == [
            app.arrival_time_ms for app in b.applications
        ]

    def test_different_seeds_differ(self, trained_dnn):
        config = WorkloadGeneratorConfig(num_dnn_apps=3)
        a = WorkloadGenerator(config, seed=1, trained=trained_dnn).generate()
        b = WorkloadGenerator(config, seed=2, trained=trained_dnn).generate()
        assert [app.arrival_time_ms for app in a.applications] != [
            app.arrival_time_ms for app in b.applications
        ]

    def test_counts_respected(self, trained_dnn):
        config = WorkloadGeneratorConfig(num_dnn_apps=4, num_background_apps=2)
        scenario = WorkloadGenerator(config, seed=0, trained=trained_dnn).generate()
        dnn_apps = [a for a in scenario.applications if a.kind == TaskKind.DNN_INFERENCE]
        background = [a for a in scenario.applications if a.kind == TaskKind.BACKGROUND]
        assert len(dnn_apps) == 4
        assert len(background) == 2

    def test_requirements_within_configured_ranges(self, trained_dnn):
        config = WorkloadGeneratorConfig(num_dnn_apps=5, fps_range=(5.0, 10.0))
        scenario = WorkloadGenerator(config, seed=3, trained=trained_dnn).generate()
        for app in scenario.applications:
            if app.kind == TaskKind.DNN_INFERENCE:
                assert 5.0 <= app.requirements.target_fps <= 10.0

    def test_generate_many(self, trained_dnn):
        generator = WorkloadGenerator(WorkloadGeneratorConfig(num_dnn_apps=1), seed=5, trained=trained_dnn)
        scenarios = generator.generate_many(3)
        assert len(scenarios) == 3
        assert len({s.name for s in scenarios}) == 3

    def test_generate_many_child_seed_contract(self, trained_dnn):
        # The derivation is increment-by-one and documented: child i of root
        # seed s is bit-identical to a standalone generator at seed s + i.
        config = WorkloadGeneratorConfig(num_dnn_apps=2)
        generator = WorkloadGenerator(config, seed=5, trained=trained_dnn)
        assert generator.child_seeds(3) == [5, 6, 7]
        children = generator.generate_many(3)
        for child_seed, child in zip(generator.child_seeds(3), children):
            standalone = WorkloadGenerator(config, seed=child_seed, trained=trained_dnn).generate()
            assert [a.app_id for a in child.applications] == [
                a.app_id for a in standalone.applications
            ]
            assert [a.arrival_time_ms for a in child.applications] == [
                a.arrival_time_ms for a in standalone.applications
            ]
            assert [a.requirements for a in child.applications] == [
                a.requirements for a in standalone.applications
            ]

    def test_generate_many_prefix_sharing_is_the_flip_side(self, trained_dnn):
        # Documented surprise of the increment derivation: adjacent roots and
        # differing counts share scenarios.  generate_many(n) from root s and
        # generate_many(m) from root s + 1 overlap on all but one child.
        config = WorkloadGeneratorConfig(num_dnn_apps=2)
        wide = WorkloadGenerator(config, seed=0, trained=trained_dnn).generate_many(3)
        shifted = WorkloadGenerator(config, seed=1, trained=trained_dnn).generate_many(2)
        for left, right in zip(wide[1:], shifted):
            assert left.name == right.name
            assert [a.arrival_time_ms for a in left.applications] == [
                a.arrival_time_ms for a in right.applications
            ]

    def test_generate_many_rejects_non_positive_count(self, trained_dnn):
        generator = WorkloadGenerator(seed=0, trained=trained_dnn)
        with pytest.raises(ValueError):
            generator.generate_many(0)
        with pytest.raises(ValueError):
            generator.child_seeds(-1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WorkloadGeneratorConfig(num_dnn_apps=-1)
        with pytest.raises(ValueError):
            WorkloadGeneratorConfig(duration_ms=0.0)
