"""Tests for the RTM state/action vocabulary and the multi-application allocator."""

import pytest

from repro.rtm.multi_app import MultiAppAllocator
from repro.rtm.policies import MaxAccuracyUnderBudget
from repro.rtm.state import (
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetCoresOnline,
    SetFrequency,
    SystemState,
    UnmapApplication,
)
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import make_arvr_application, make_background_application, make_dnn_application


@pytest.fixture
def allocator(energy_model):
    return MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model)


def make_state(soc, app_states, throttling=False, power_cap_mw=None):
    return SystemState(
        time_ms=0.0,
        soc=soc,
        apps={state.app_id: state for state in app_states},
        throttling=throttling,
        power_cap_mw=power_cap_mw,
    )


class TestStateVocabulary:
    def test_mapping_validation(self):
        mapping = Mapping("a15", cores=2, configuration=0.5)
        assert mapping.cores == 2
        with pytest.raises(ValueError):
            Mapping("a15", cores=0)
        with pytest.raises(ValueError):
            Mapping("a15", configuration=0.0)

    def test_action_validation(self):
        with pytest.raises(ValueError):
            SetConfiguration(app_id="a", configuration=1.5)
        with pytest.raises(ValueError):
            SetFrequency(cluster_name="", frequency_mhz=100.0)
        with pytest.raises(ValueError):
            SetFrequency(cluster_name="a15", frequency_mhz=0.0)
        with pytest.raises(ValueError):
            MapApplication(app_id="", cluster_name="a15")
        with pytest.raises(ValueError):
            MapApplication(app_id="a", cluster_name="a15", cores=0)
        with pytest.raises(ValueError):
            UnmapApplication(app_id="")
        with pytest.raises(ValueError):
            SetCoresOnline(cluster_name="", online_cores=1)

    def test_system_state_app_queries(self, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0, priority=2))
        other = make_dnn_application("dnn2", trained_dnn, Requirements(target_fps=5.0, priority=9))
        arvr = make_arvr_application("arvr")
        state = make_state(
            xu3,
            [
                AppRuntimeState(application=dnn),
                AppRuntimeState(application=other),
                AppRuntimeState(application=arvr),
            ],
        )
        dnn_ids = [app.app_id for app in state.dnn_apps]
        assert dnn_ids == ["dnn2", "dnn1"]  # priority order
        assert [app.app_id for app in state.other_apps] == ["arvr"]
        assert state.app("dnn1").is_dnn
        with pytest.raises(KeyError):
            state.app("ghost")


class TestMultiAppAllocator:
    def test_priority_app_gets_the_accelerator(self, allocator, xu3, trained_dnn):
        low = make_dnn_application(
            "low", trained_dnn, Requirements(target_fps=10.0, priority=1)
        )
        high = make_dnn_application(
            "high", trained_dnn, Requirements(target_fps=30.0, max_latency_ms=20.0, priority=9)
        )
        state = make_state(
            xu3, [AppRuntimeState(application=low), AppRuntimeState(application=high)]
        )
        result = allocator.allocate(state)
        high_point = result.decision_for("high").point
        low_point = result.decision_for("low").point
        # Only the Mali GPU meets a 20 ms latency bound for the full model;
        # the higher-priority application gets it.
        assert high_point.cluster_name == "mali_gpu"
        assert low_point.cluster_name != "mali_gpu"

    def test_shared_cluster_frequency_is_pinned(self, allocator, xu3, trained_dnn):
        apps = [
            AppRuntimeState(
                application=make_dnn_application(
                    f"dnn{i}",
                    trained_dnn,
                    Requirements(target_fps=5.0, priority=10 - i),
                )
            )
            for i in range(3)
        ]
        state = make_state(xu3, apps)
        result = allocator.allocate(state)
        frequency_by_cluster = {}
        for decision in result.decisions.values():
            point = decision.point
            if point is None:
                continue
            previous = frequency_by_cluster.setdefault(point.cluster_name, point.frequency_mhz)
            # Applications sharing a cluster in the same round share its frequency.
            assert previous == pytest.approx(point.frequency_mhz)

    def test_generic_frequency_floor_respected(self, allocator, xu3, trained_dnn):
        arvr = make_arvr_application("arvr", gpu_min_frequency_mhz=600.0)
        arvr_state = AppRuntimeState(application=arvr, mapping=Mapping("mali_gpu", cores=1))
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [arvr_state, AppRuntimeState(application=dnn)])
        floors = allocator._frequency_floors(state)
        assert floors == {"mali_gpu": 600.0}
        result = allocator.allocate(state)
        point = result.decision_for("dnn1").point
        if point is not None and point.cluster_name == "mali_gpu":
            assert point.frequency_mhz >= 600.0

    def test_power_cap_derived_from_throttling(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        hot = make_state(xu3, [AppRuntimeState(application=dnn)], throttling=True)
        cap = allocator._power_cap_per_app(hot, num_apps=1)
        assert cap is not None and cap > 0
        cool = make_state(xu3, [AppRuntimeState(application=dnn)], throttling=False)
        assert allocator._power_cap_per_app(cool, num_apps=1) is None

    def test_explicit_power_cap_used(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(
            xu3, [AppRuntimeState(application=dnn)], power_cap_mw=2000.0
        )
        cap = allocator._power_cap_per_app(state, num_apps=2)
        assert cap is not None and cap <= 2000.0

    def test_actions_only_for_changes(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [AppRuntimeState(application=dnn)])
        first = allocator.allocate(state)
        point = first.decision_for("dnn1").point
        # Install exactly the chosen operating point, then re-allocate: no new
        # mapping or configuration actions should be emitted.
        xu3.cluster(point.cluster_name).set_frequency(point.frequency_mhz)
        xu3.cluster(point.cluster_name).reserve_cores(point.cores, "dnn1")
        mapped_state = make_state(
            xu3,
            [
                AppRuntimeState(
                    application=dnn,
                    mapping=Mapping(
                        point.cluster_name,
                        cores=point.cores,
                        configuration=point.configuration,
                    ),
                )
            ],
        )
        second = allocator.allocate(mapped_state)
        assert not [
            a
            for a in second.actions
            if isinstance(a, (MapApplication, SetConfiguration))
        ]

    def test_unplaced_app_gets_unmapped(self, energy_model, xu3, trained_dnn):
        allocator = MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model)
        # Background tasks occupy every core of every cluster.
        hogs = []
        for index, cluster in enumerate(xu3.clusters):
            hog = make_background_application(
                f"hog{index}", cores=cluster.num_cores, core_type=cluster.core_type
            )
            cluster.reserve_cores(cluster.num_cores, hog.app_id)
            hogs.append(AppRuntimeState(application=hog, mapping=Mapping(cluster.name, cluster.num_cores)))
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        dnn_state = AppRuntimeState(application=dnn, mapping=Mapping("a7", cores=1))
        state = make_state(xu3, hogs + [dnn_state])
        result = allocator.allocate(state)
        assert not result.decision_for("dnn1").placed
        assert any(isinstance(a, UnmapApplication) and a.app_id == "dnn1" for a in result.actions)
        assert result.unplaced_apps == ["dnn1"]

    def test_home_cluster_pinning_without_task_mapping(self, energy_model, xu3, trained_dnn):
        allocator = MultiAppAllocator(
            MaxAccuracyUnderBudget(), energy_model, allow_task_mapping=False
        )
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=10.0))
        state = make_state(xu3, [AppRuntimeState(application=dnn)])
        first = allocator.allocate(state)
        home = first.decision_for("dnn1").point.cluster_name
        # The home cluster is now fully occupied by someone else.
        xu3.cluster(home).reserve_cores(len(xu3.cluster(home).free_cores), "other")
        other = make_background_application("other", cores=1)
        other_state = AppRuntimeState(
            application=other, mapping=Mapping(home, cores=len(xu3.cluster(home).cores))
        )
        second = allocator.allocate(
            make_state(xu3, [AppRuntimeState(application=dnn), other_state])
        )
        # Without the mapping knob the application cannot move elsewhere.
        assert not second.decision_for("dnn1").placed

    def test_invalid_max_cores(self, energy_model):
        with pytest.raises(ValueError):
            MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model, max_cores_per_app=0)
