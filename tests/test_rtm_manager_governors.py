"""Tests for the runtime manager, the multi-app allocator and the governors."""

import pytest

from repro.data.measurements import CASE_STUDY_BUDGETS
from repro.rtm.governors import (
    ConservativeGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    make_governor,
)
from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.rtm.multi_app import MultiAppAllocator
from repro.rtm.policies import MaxAccuracyUnderBudget, MinEnergyUnderConstraints
from repro.rtm.state import (
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetFrequency,
    SystemState,
)
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import make_arvr_application, make_dnn_application


def make_state(xu3, apps, throttling=False):
    return SystemState(
        time_ms=0.0,
        soc=xu3,
        apps={state.app_id: state for state in apps},
        throttling=throttling,
    )


class TestCaseStudySelection:
    """The Section IV case-study budgets must reproduce the paper's choices."""

    @pytest.mark.parametrize("budget,expected", sorted(CASE_STUDY_BUDGETS.items()))
    def test_budget_selects_paper_configuration(self, budget, expected, trained_dnn, xu3):
        latency_ms, energy_mj = budget
        manager = RuntimeManager()
        point = manager.select_operating_point(
            trained_dnn,
            xu3,
            Requirements(max_latency_ms=latency_ms, max_energy_mj=energy_mj),
            clusters=["a15", "a7"],
            core_counts=[1],
        )
        assert point is not None
        assert point.cluster_name == expected["cluster"]
        assert point.configuration == pytest.approx(expected["configuration"])
        # The selected point genuinely meets the budget.
        assert point.latency_ms <= latency_ms
        assert point.energy_mj <= energy_mj

    def test_explain_reports_budget_checks(self, trained_dnn, xu3):
        manager = RuntimeManager()
        requirements = Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        point = manager.select_operating_point(
            trained_dnn, xu3, requirements, clusters=["a15", "a7"], core_counts=[1]
        )
        explanation = manager.explain(point, requirements)
        assert explanation["latency_ok"] and explanation["energy_ok"]

    def test_explain_reports_every_metric_and_limit(self, trained_dnn, xu3):
        manager = RuntimeManager()
        requirements = Requirements(
            max_latency_ms=400.0, max_energy_mj=100.0, min_accuracy_percent=60.0
        )
        point = manager.select_operating_point(
            trained_dnn, xu3, requirements, clusters=["a15", "a7"], core_counts=[1]
        )
        explanation = manager.explain(point, requirements)
        assert explanation["operating_point"] == point.describe()
        assert explanation["latency_ms"] == point.latency_ms
        assert explanation["latency_limit_ms"] == 400.0
        assert explanation["energy_mj"] == point.energy_mj
        assert explanation["energy_limit_mj"] == 100.0
        assert explanation["accuracy_percent"] == point.accuracy_percent
        assert explanation["accuracy_floor_percent"] == 60.0
        assert explanation["accuracy_ok"]
        assert explanation["power_mw"] == point.power_mw
        assert explanation["power_limit_mw"] is None

    def test_explain_flags_violated_budgets(self, trained_dnn, xu3):
        manager = RuntimeManager()
        # A budget nothing can meet: the policy degrades to the least-bad
        # point, and explain() must say which checks that point fails.
        requirements = Requirements(max_latency_ms=0.001, max_energy_mj=0.001)
        point = manager.select_operating_point(
            trained_dnn, xu3, requirements, clusters=["a15", "a7"], core_counts=[1]
        )
        explanation = manager.explain(point, requirements)
        assert not explanation["latency_ok"]
        assert not explanation["energy_ok"]
        # No accuracy floor was given, so the accuracy check passes vacuously.
        assert explanation["accuracy_ok"]

    def test_explain_treats_missing_limits_as_satisfied(self, trained_dnn, xu3):
        manager = RuntimeManager()
        requirements = Requirements()
        point = manager.select_operating_point(trained_dnn, xu3, requirements)
        explanation = manager.explain(point, requirements)
        assert explanation["latency_ok"] and explanation["energy_ok"]
        assert explanation["latency_limit_ms"] is None
        assert explanation["energy_limit_mj"] is None

    def test_select_without_dvfs_uses_current_frequencies(self, trained_dnn, xu3):
        xu3.cluster("a15").set_frequency(1000.0)
        xu3.cluster("a7").set_frequency(800.0)
        manager = RuntimeManager(config=RTMConfig(enable_dvfs=False))
        point = manager.select_operating_point(
            trained_dnn,
            xu3,
            Requirements(max_latency_ms=2000.0),
            clusters=["a15", "a7"],
        )
        assert point is not None
        current = {c.name: c.frequency_mhz for c in xu3.clusters}
        assert point.frequency_mhz == current[point.cluster_name]

    def test_select_without_dvfs_tracks_frequency_changes(self, trained_dnn, xu3):
        manager = RuntimeManager(config=RTMConfig(enable_dvfs=False))
        requirements = Requirements(max_latency_ms=2000.0)
        xu3.cluster("a15").set_frequency(1800.0)
        fast = manager.select_operating_point(
            trained_dnn, xu3, requirements, clusters=["a15"]
        )
        xu3.cluster("a15").set_frequency(200.0)
        slow = manager.select_operating_point(
            trained_dnn, xu3, requirements, clusters=["a15"]
        )
        assert fast is not None and slow is not None
        assert fast.frequency_mhz == 1800.0
        assert slow.frequency_mhz == 200.0
        assert slow.latency_ms > fast.latency_ms

    def test_select_without_dnn_scaling_keeps_full_model(self, trained_dnn, xu3):
        manager = RuntimeManager(config=RTMConfig(enable_dnn_scaling=False))
        # An energy budget that would normally push the policy to compress.
        point = manager.select_operating_point(
            trained_dnn,
            xu3,
            Requirements(max_energy_mj=40.0, max_latency_ms=2000.0),
            clusters=["a15", "a7"],
        )
        assert point is not None
        assert point.configuration == 1.0

    def test_select_with_dnn_scaling_can_compress(self, trained_dnn, xu3):
        scaling = RuntimeManager().select_operating_point(
            trained_dnn,
            xu3,
            Requirements(max_latency_ms=60.0, max_energy_mj=30.0),
            clusters=["a15", "a7"],
        )
        assert scaling is not None
        assert scaling.configuration < 1.0


class TestRuntimeManagerDecide:
    def test_places_single_app_and_meets_requirements(self, trained_dnn, xu3):
        app = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [AppRuntimeState(application=app)])
        manager = RuntimeManager()
        decision = manager.decide(state)
        map_actions = [a for a in decision.actions if isinstance(a, MapApplication)]
        assert len(map_actions) == 1
        assert decision.allocation.decision_for("dnn1").placed
        assert manager.total_actions == len(decision.actions)

    def test_two_apps_do_not_overcommit_a_cluster(self, trained_dnn, xu3):
        apps = [
            AppRuntimeState(
                application=make_dnn_application(
                    f"dnn{i}", trained_dnn, Requirements(target_fps=10.0, priority=i)
                )
            )
            for i in (1, 2)
        ]
        state = make_state(xu3, apps)
        decision = RuntimeManager().decide(state)
        placements = {}
        for action in decision.actions:
            if isinstance(action, MapApplication):
                placements.setdefault(action.cluster_name, 0)
                placements[action.cluster_name] += action.cores
        for cluster_name, cores in placements.items():
            assert cores <= xu3.cluster(cluster_name).num_cores

    def test_generic_app_resources_are_respected(self, trained_dnn, xu3):
        arvr = make_arvr_application("arvr")
        arvr_state = AppRuntimeState(application=arvr, mapping=Mapping("mali_gpu", cores=1))
        xu3.cluster("mali_gpu").reserve_cores(1, "arvr")
        dnn_state = AppRuntimeState(
            application=make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        )
        state = make_state(xu3, [arvr_state, dnn_state])
        decision = RuntimeManager().decide(state)
        for action in decision.actions:
            if isinstance(action, MapApplication) and action.app_id == "dnn1":
                assert action.cluster_name != "mali_gpu"

    def test_throttling_prefers_lower_power_points(self, trained_dnn, xu3):
        app = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=2.0))
        state_cool = make_state(xu3, [AppRuntimeState(application=app)], throttling=False)
        cool_point = RuntimeManager().decide(state_cool).allocation.decision_for("dnn1").point
        state_hot = make_state(xu3, [AppRuntimeState(application=app)], throttling=True)
        hot_point = RuntimeManager().decide(state_hot).allocation.decision_for("dnn1").point
        assert hot_point.power_mw <= cool_point.power_mw + 1e-6

    def test_disabling_dnn_scaling_keeps_full_model(self, trained_dnn, xu3):
        config = RTMConfig(enable_dnn_scaling=False)
        app = make_dnn_application(
            "dnn1", trained_dnn, Requirements(target_fps=5.0, max_energy_mj=10.0)
        )
        state = make_state(xu3, [AppRuntimeState(application=app)])
        decision = RuntimeManager(config=config).decide(state)
        for action in decision.actions:
            if isinstance(action, SetConfiguration):
                assert action.configuration == 1.0

    def test_disabling_dvfs_emits_no_frequency_actions(self, trained_dnn, xu3):
        config = RTMConfig(enable_dvfs=False)
        app = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [AppRuntimeState(application=app)])
        decision = RuntimeManager(config=config).decide(state)
        assert not [a for a in decision.actions if isinstance(a, SetFrequency)]

    def test_disabling_task_mapping_keeps_current_cluster(self, trained_dnn, xu3):
        config = RTMConfig(enable_task_mapping=False)
        app = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        app_state = AppRuntimeState(application=app, mapping=Mapping("a7", cores=1))
        xu3.cluster("a7").reserve_cores(1, "dnn1")
        state = make_state(xu3, [app_state])
        decision = RuntimeManager(config=config).decide(state)
        for action in decision.actions:
            if isinstance(action, MapApplication):
                assert action.cluster_name == "a7"

    def test_policy_override_changes_choice(self, trained_dnn, xu3):
        app = make_dnn_application(
            "dnn1", trained_dnn, Requirements(target_fps=5.0, min_accuracy_percent=56.0)
        )
        state = make_state(xu3, [AppRuntimeState(application=app)])
        default_point = RuntimeManager().decide(state).allocation.decision_for("dnn1").point
        override_point = (
            RuntimeManager(policy_overrides={"dnn1": MinEnergyUnderConstraints()})
            .decide(make_state(xu3, [AppRuntimeState(application=app)]))
            .allocation.decision_for("dnn1")
            .point
        )
        assert default_point.accuracy_percent >= override_point.accuracy_percent
        assert override_point.energy_mj <= default_point.energy_mj

    def test_unplaceable_app_is_reported(self, trained_dnn, xu3):
        # Reserve every core so the DNN cannot be placed anywhere.
        for cluster in xu3.clusters:
            cluster.reserve_cores(len(cluster.free_cores), "hog")
        arvr = make_arvr_application("hog")
        hog_state = AppRuntimeState(application=arvr, mapping=Mapping("mali_gpu", cores=1))
        app = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        allocator = MultiAppAllocator(MaxAccuracyUnderBudget(), RuntimeManager().energy_model)
        # Patch generic usage to pretend everything is taken by generic apps.
        state = make_state(xu3, [hog_state, AppRuntimeState(application=app)])
        result = allocator.allocate(state)
        # With every core reserved by others the DNN may end up unplaced (no
        # free cores are offered by any cluster).
        assert "dnn1" in result.decisions

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RTMConfig(temperature_bucket_width_c=0.0)
        with pytest.raises(ValueError):
            RTMConfig(max_cores_per_app=0)


class TestGovernors:
    def test_performance_governor_targets_max(self, xu3):
        governor = PerformanceGovernor()
        cluster = xu3.cluster("a15")
        cluster.set_frequency(200.0)
        target = governor.target_frequency(cluster, utilisation=0.1, throttling=False)
        assert target == cluster.opp_table.max_frequency_mhz

    def test_performance_governor_backs_off_when_throttling(self, xu3):
        governor = PerformanceGovernor()
        cluster = xu3.cluster("a15")
        target = governor.target_frequency(cluster, utilisation=1.0, throttling=True)
        assert target < cluster.opp_table.max_frequency_mhz

    def test_powersave_governor_targets_min(self, xu3):
        governor = PowersaveGovernor()
        cluster = xu3.cluster("a15")
        assert governor.target_frequency(cluster, 1.0, False) == cluster.opp_table.min_frequency_mhz

    def test_ondemand_jumps_to_max_when_busy(self, xu3):
        governor = OndemandGovernor()
        cluster = xu3.cluster("a15")
        cluster.set_frequency(600.0)
        assert governor.target_frequency(cluster, 0.95, False) == cluster.opp_table.max_frequency_mhz

    def test_ondemand_scales_down_when_idle(self, xu3):
        governor = OndemandGovernor()
        cluster = xu3.cluster("a15")
        cluster.set_frequency(1800.0)
        target = governor.target_frequency(cluster, 0.1, False)
        assert target < 1800.0

    def test_conservative_steps_one_opp(self, xu3):
        governor = ConservativeGovernor()
        cluster = xu3.cluster("a15")
        cluster.set_frequency(1000.0)
        up = governor.target_frequency(cluster, 0.95, False)
        down = governor.target_frequency(cluster, 0.1, False)
        hold = governor.target_frequency(cluster, 0.5, False)
        assert up == 1100.0
        assert down == 900.0
        assert hold == 1000.0

    def test_decide_emits_frequency_actions(self, trained_dnn, xu3):
        governor = PerformanceGovernor()
        xu3.cluster("a15").set_frequency(200.0)
        state = make_state(xu3, [])
        actions = governor.decide(state, {"a15": 1.0})
        frequencies = {a.cluster_name: a.frequency_mhz for a in actions if isinstance(a, SetFrequency)}
        assert frequencies["a15"] == xu3.cluster("a15").opp_table.max_frequency_mhz

    def test_factory(self):
        assert isinstance(make_governor("ondemand"), OndemandGovernor)
        with pytest.raises(ValueError):
            make_governor("turbo")
