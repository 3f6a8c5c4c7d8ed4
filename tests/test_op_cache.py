"""Tests for the caching operating-point engine (`repro.rtm.cache`)."""

import pytest

from repro.dnn.training import IncrementalTrainer
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.perfmodel.roofline import RooflineLatencyModel
from repro.platforms.presets import odroid_xu3
from repro.rtm.cache import (
    OperatingPointCache,
    model_cache_key,
    soc_topology_key,
    temperature_bucket_c,
)
from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.rtm.operating_points import OperatingPointSpace
from repro.rtm.state import AppRuntimeState, MapApplication, Mapping, SystemState
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import make_dnn_application


class TestTemperatureBucket:
    def test_quantises_to_lower_bucket_edge(self):
        assert temperature_bucket_c(47.3) == 45.0
        assert temperature_bucket_c(45.0) == 45.0
        assert temperature_bucket_c(49.999) == 45.0
        assert temperature_bucket_c(50.0) == 50.0

    def test_width_parameter(self):
        assert temperature_bucket_c(47.3, width_c=10.0) == 40.0
        assert temperature_bucket_c(47.3, width_c=1.0) == 47.0

    def test_negative_temperatures_floor_downwards(self):
        assert temperature_bucket_c(-3.0) == -5.0

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            temperature_bucket_c(45.0, width_c=0.0)


class TestModelCacheKeys:
    def test_calibrated_models_share_keys(self):
        assert CalibratedLatencyModel().cache_key() == CalibratedLatencyModel().cache_key()

    def test_calibration_table_changes_key(self):
        default = CalibratedLatencyModel()
        trimmed = CalibratedLatencyModel(
            calibrations={
                key: value
                for key, value in default.calibrations.items()
                if key[0] == "odroid_xu3"
            }
        )
        assert default.cache_key() != trimmed.cache_key()

    def test_energy_model_key_includes_utilisation(self):
        latency = CalibratedLatencyModel()
        assert (
            EnergyModel(latency).cache_key()
            == EnergyModel(CalibratedLatencyModel()).cache_key()
        )
        assert (
            EnergyModel(latency, busy_utilisation=0.5).cache_key()
            != EnergyModel(latency).cache_key()
        )

    def test_roofline_key_is_shared(self):
        assert RooflineLatencyModel().cache_key() == ("roofline",)

    def test_unknown_models_fall_back_to_instance_identity(self):
        class Opaque:
            pass

        first, second = Opaque(), Opaque()
        assert model_cache_key(first) != model_cache_key(second)
        assert model_cache_key(first) == model_cache_key(first)

    def test_trained_dnn_keys_stable_across_retrains(self, trained_dnn):
        retrained = IncrementalTrainer().train(make_dynamic_cifar_dnn())
        assert trained_dnn.cache_key() == retrained.cache_key()
        smaller = IncrementalTrainer().train(make_dynamic_cifar_dnn(2))
        assert smaller.cache_key() != trained_dnn.cache_key()

    def test_soc_topology_key_reflects_presets(self, xu3, nano):
        assert soc_topology_key(xu3) == soc_topology_key(odroid_xu3())
        assert soc_topology_key(xu3) != soc_topology_key(nano)


class TestOperatingPointSpaceMemo:
    def test_repeated_enumeration_prices_once(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        first = space.enumerate(temperature_c=45.0)
        priced = space.points_priced
        assert priced == len(first)
        second = space.enumerate(temperature_c=45.0)
        assert space.points_priced == priced
        assert second == first

    def test_restrictions_are_views_over_the_grid(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        space.enumerate(temperature_c=45.0)
        priced = space.points_priced
        restricted = space.enumerate(
            clusters=["a15"],
            configurations=[1.0],
            core_counts=[1, 2],
            frequencies={"a15": [1800.0]},
            temperature_c=45.0,
        )
        # Every restricted point was already priced by the full enumeration.
        assert space.points_priced == priced
        assert {point.cores for point in restricted} == {1, 2}
        assert {point.frequency_mhz for point in restricted} == {1800.0}
        assert {point.configuration for point in restricted} == {1.0}

    def test_temperature_changes_reprice(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        cool = space.enumerate(clusters=["a15"], core_counts=[1], temperature_c=45.0)
        priced = space.points_priced
        hot = space.enumerate(clusters=["a15"], core_counts=[1], temperature_c=80.0)
        assert space.points_priced == 2 * priced
        assert all(h.power_mw > c.power_mw for h, c in zip(hot, cool))


class TestOperatingPointCache:
    @pytest.fixture
    def cache(self):
        return OperatingPointCache()

    def test_hit_and_miss_counting(self, cache, trained_dnn, xu3, energy_model):
        space = cache.space_for(trained_dnn, xu3, energy_model)
        cache.enumerate_table(space, temperature_c=45.0)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.enumerate_table(space, temperature_c=45.0)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        cache.enumerate_table(space, temperature_c=50.0)  # different bucket -> miss
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_space_is_memoised_per_identity(self, cache, trained_dnn, xu3, energy_model):
        space = cache.space_for(trained_dnn, xu3, energy_model)
        assert cache.space_for(trained_dnn, xu3, energy_model) is space
        assert cache.stats.spaces_built == 1
        # A different platform instance with identical topology must not be
        # priced against the old object's live state.
        other = cache.space_for(trained_dnn, odroid_xu3(), energy_model)
        assert other is not space
        assert cache.stats.spaces_built == 2

    def test_rebuilt_space_keeps_serving_its_tables(self, cache, trained_dnn, xu3, energy_model):
        space = cache.space_for(trained_dnn, xu3, energy_model)
        table = cache.enumerate_table(space, temperature_c=45.0)
        # Same key, different platform instance: the space is rebuilt over the
        # live objects, but the key is complete, so its tables still hold.
        rebuilt = cache.space_for(trained_dnn, odroid_xu3(), energy_model)
        assert rebuilt is not space
        assert cache.enumerate_table(rebuilt, temperature_c=45.0) is table
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert table.points == rebuilt.enumerate_table(temperature_c=45.0).points

    def test_online_core_count_is_part_of_the_key(
        self, cache, trained_dnn, xu3, energy_model
    ):
        space = cache.space_for(trained_dnn, xu3, energy_model)
        online = cache.enumerate_table(
            space, clusters=["a15"], core_counts=[1], temperature_c=45.0
        ).points
        xu3.cluster("a15").cores[3].set_online(False)
        offline = cache.enumerate_table(
            space, clusters=["a15"], core_counts=[1], temperature_c=45.0
        ).points
        assert cache.stats.misses == 2  # the key changed, no stale hit
        # One fewer online core draws less idle power at identical settings.
        assert offline[0].power_mw < online[0].power_mw


class TestManagerCacheIntegration:
    def test_manager_owns_a_cache_by_default(self):
        manager = RuntimeManager()
        assert manager.cache is not None
        assert manager.cache_stats() is manager.cache.stats

    def test_config_can_disable_the_cache(self):
        manager = RuntimeManager(config=RTMConfig(enable_op_cache=False))
        assert manager.cache is None
        assert manager.cache_stats() is None

    def test_set_operating_point_cache_detaches(self):
        manager = RuntimeManager()
        manager.set_operating_point_cache(None)
        assert manager.cache is None
        assert manager.allocator.cache is None

    def test_cached_and_uncached_selection_agree(self, trained_dnn, xu3):
        requirements = Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        cached = RuntimeManager().select_operating_point(trained_dnn, xu3, requirements)
        uncached = RuntimeManager(
            config=RTMConfig(enable_op_cache=False)
        ).select_operating_point(trained_dnn, xu3, requirements)
        assert cached == uncached

    def test_repeated_selection_hits_the_cache(self, trained_dnn, xu3):
        manager = RuntimeManager()
        first = manager.select_operating_point(
            trained_dnn, xu3, Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        )
        second = manager.select_operating_point(
            trained_dnn, xu3, Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        )
        assert first == second
        stats = manager.cache_stats()
        assert stats is not None and stats.hits >= 1

    def test_decide_tracks_structural_change_without_flushing(self, trained_dnn, xu3):
        """Cores going offline, a thermal-bucket crossing, an unmapped app and
        recovery all change the keys the decision path asks for, so a cache
        that never flushes decides like an uncached manager at every step."""
        apps = {}
        for app_id, fps, priority in (("dnn1", 5.0, 3), ("dnn2", 10.0, 2)):
            requirements = Requirements(
                target_fps=fps, min_accuracy_percent=55.0, priority=priority
            )
            application = make_dnn_application(app_id, trained_dnn, requirements)
            apps[app_id] = AppRuntimeState(application=application)
        state = SystemState(time_ms=0.0, soc=xu3, apps=apps)
        cached = RuntimeManager()
        uncached = RuntimeManager(config=RTMConfig(enable_op_cache=False))

        def decide():
            actions = cached.decide(state).actions
            assert actions == uncached.decide(state).actions
            for action in actions:
                if isinstance(action, MapApplication):
                    state.apps[action.app_id].mapping = Mapping(action.cluster_name, action.cores)
            return {
                action.app_id: action.cluster_name
                for action in actions
                if isinstance(action, MapApplication)
            }

        assert decide()["dnn2"] == "a7"
        a7 = xu3.cluster("a7")
        for core in a7.cores[2:]:
            core.set_online(False)
        assert decide()["dnn2"] != "a7"
        xu3.thermal.temperature_c += 20.0
        decide()
        state.apps["dnn1"].mapping = None
        assert "dnn1" in decide()
        for core in a7.cores:
            core.set_online(True)
        xu3.thermal.temperature_c -= 20.0
        selection_hits = cached.cache_stats().selection_hits
        assert decide()["dnn2"] == "a7"
        # The recovered platform is served from the first epoch's entries.
        assert cached.cache_stats().selection_hits > selection_hits
