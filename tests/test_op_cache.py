"""Tests for the caching operating-point engine (`repro.rtm.cache`)."""

from unittest import mock

import pytest

from repro.dnn.training import IncrementalTrainer
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.perfmodel import calibrated
from repro.perfmodel.calibrated import CalibratedLatencyModel, ClusterCalibration
from repro.perfmodel.energy import EnergyModel
from repro.perfmodel.roofline import RooflineLatencyModel
from repro.platforms.presets import odroid_xu3
from repro.rtm.cache import (
    DECISION_MAXIMISE,
    DECISION_OBJECTIVES,
    OperatingPointCache,
    model_cache_key,
    temperature_bucket_c,
)
from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.rtm.operating_points import OperatingPointSpace
from repro.rtm.state import AppRuntimeState, MapApplication, Mapping, SystemState
from repro.sim.engine import SharedSimulationStores
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import make_dnn_application
from tests.reference_kernels import UnmemoisedOperatingPoints


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

    def test_calibration_table_is_read_only_and_equal_tables_share_a_key(self):
        model = CalibratedLatencyModel()
        key = next(iter(model.calibrations))
        with pytest.raises(TypeError):
            model.calibrations[key] = ClusterCalibration(1.0, 0.0)
        with pytest.raises(AttributeError):
            model.calibrations = {}
        reordered = CalibratedLatencyModel(
            calibrations=dict(reversed(list(model.calibrations.items())))
        )
        assert reordered.cache_key() == model.cache_key()
        assert model.cache_key() is model.cache_key()

    def test_reference_network_is_built_at_most_once_per_process(self):
        calibrated._reference_macs.cache_clear()
        with mock.patch.object(
            calibrated, "cifar_group_cnn", wraps=calibrated.cifar_group_cnn
        ) as build:
            models = [CalibratedLatencyModel() for _ in range(3)]
            assert build.call_count == 0
            for model in models:
                model.cache_key()
                model.cache_key()
            assert len({model.cache_key() for model in models}) == 1
            assert build.call_count == 1

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
        assert xu3.topology_key() == odroid_xu3().topology_key()
        assert xu3.topology_key() != nano.topology_key()


def _fresh_front(trained_dnn, soc, energy_model, **query):
    """The front of one query priced on a fresh space, with no cache at all."""
    table = OperatingPointSpace(trained_dnn, soc, energy_model).enumerate_table(**query)
    return table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)


class TestOperatingPointSpaceMemo:
    def test_temperature_changes_reprice(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        cool = space.enumerate_table(clusters=["a15"], core_counts=[1], temperature_c=45.0).points
        priced = space.points_priced
        hot = space.enumerate_table(clusters=["a15"], core_counts=[1], temperature_c=80.0).points
        assert space.points_priced == 2 * priced
        assert all(h.power_mw > c.power_mw for h, c in zip(hot, cool))


class TestOperatingPointCache:
    @pytest.fixture
    def cache(self):
        return OperatingPointCache()

    @staticmethod
    def front(cache, trained_dnn, soc, energy_model, **restrictions):
        query = dict(trained=trained_dnn, soc=soc, energy_model=energy_model, **restrictions)
        return cache.front_for(cache.query_key(**query), **query)

    def test_hit_and_miss_counting(self, cache, trained_dnn, xu3, energy_model):
        self.front(cache, trained_dnn, xu3, energy_model, temperature_c=45.0)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        self.front(cache, trained_dnn, xu3, energy_model, temperature_c=45.0)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        # A different bucket is a different key: a miss.
        self.front(cache, trained_dnn, xu3, energy_model, temperature_c=50.0)
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        assert cache.stats.hit_rate == pytest.approx(1 / 3)
        assert (cache.stats.pareto_hits, cache.stats.pareto_misses) == (1, 2)

    def test_rebuilt_space_keeps_serving_its_tables(self, cache, trained_dnn, xu3, energy_model):
        front = self.front(cache, trained_dnn, xu3, energy_model, temperature_c=45.0)
        # Same topology, different platform instance: the key is complete, so
        # the memoised front still holds for it.
        other = odroid_xu3()
        assert self.front(cache, trained_dnn, other, energy_model, temperature_c=45.0) is front
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        fresh = _fresh_front(trained_dnn, other, energy_model, temperature_c=45.0)
        assert front.points == fresh.points

    def test_online_core_count_is_part_of_the_key(
        self, cache, trained_dnn, xu3, energy_model
    ):
        query = dict(clusters=["a15"], core_counts=[1], temperature_c=45.0)
        online = self.front(cache, trained_dnn, xu3, energy_model, **query)
        xu3.cluster("a15").cores[3].set_online(False)
        offline = self.front(cache, trained_dnn, xu3, energy_model, **query)
        assert cache.stats.misses == 2  # the key changed, no stale hit
        assert offline.points == _fresh_front(trained_dnn, xu3, energy_model, **query).points
        # One fewer online core draws less idle power at identical settings,
        # so the least power either front offers falls too.
        assert offline.power_mw.min() < online.power_mw.min()

    def test_caches_over_one_store_share_their_fronts(self, trained_dnn, xu3, energy_model):
        stores = SharedSimulationStores()
        first, second = OperatingPointCache(stores), OperatingPointCache(stores)
        front = self.front(first, trained_dnn, xu3, energy_model, temperature_c=45.0)
        assert self.front(second, trained_dnn, xu3, energy_model, temperature_c=45.0) is front
        # Statistics and the priced count stay per cache.
        assert (second.stats.hits, second.stats.misses) == (1, 0)
        assert first.points_priced > 0 and second.points_priced == 0
        assert stores.stats()["pareto_tables"] == 1

    def test_points_priced_counts_the_points_priced(
        self, cache, trained_dnn, xu3, energy_model
    ):
        rows = 0
        for core_counts in ([1, 2], [1, 2, 3]):
            query = dict(clusters=["a15"], core_counts=core_counts, temperature_c=45.0)
            self.front(cache, trained_dnn, xu3, energy_model, **query)
            space = OperatingPointSpace(trained_dnn, xu3, energy_model)
            rows += len(space.enumerate_table(**query))
        # The second query's key differs, so it is priced whole, the points it
        # shares with the first one included.
        assert cache.stats.misses == 2
        assert cache.points_priced == rows


class TestManagerCacheIntegration:
    def test_manager_owns_a_cache_by_default(self):
        manager = RuntimeManager()
        assert isinstance(manager.cache, OperatingPointCache)
        assert manager.allocator.cache is manager.cache
        assert manager.cache_stats() is manager.cache.stats

    def test_set_operating_point_cache_reaches_the_allocator(self):
        manager = RuntimeManager()
        shared = OperatingPointCache()
        manager.set_operating_point_cache(shared)
        assert manager.cache is shared and manager.allocator.cache is shared

    def test_cached_selection_matches_the_stand_in(self, trained_dnn, xu3):
        requirements = Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        cached = RuntimeManager().select_operating_point(trained_dnn, xu3, requirements)
        reference = RuntimeManager(cache=UnmemoisedOperatingPoints())
        assert cached == reference.select_operating_point(trained_dnn, xu3, requirements)

    def test_selection_without_dvfs_keeps_each_cluster_at_its_frequency(
        self, trained_dnn, xu3
    ):
        config = RTMConfig(enable_dvfs=False)
        cached = RuntimeManager(config=config)
        reference = RuntimeManager(config=config, cache=UnmemoisedOperatingPoints())
        requirements = Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        for a15, a7 in ((1800.0, 1300.0), (600.0, 500.0), (1800.0, 1300.0)):
            xu3.cluster("a15").set_frequency(a15)
            xu3.cluster("a7").set_frequency(a7)
            point = cached.select_operating_point(trained_dnn, xu3, requirements)
            assert point == reference.select_operating_point(trained_dnn, xu3, requirements)
            assert point.frequency_mhz == xu3.cluster(point.cluster_name).frequency_mhz
        # The pinned frequencies are part of the key: the second setting is a
        # miss, and the first one's front serves again when it returns.
        stats = cached.cache_stats()
        assert (stats.hits, stats.misses) == (1, 2)

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
        assert stats.hits >= 1

    def test_points_priced_counts_the_evaluations_of_replaced_spaces(self, trained_dnn):
        manager = RuntimeManager()
        counts = []
        for _ in range(2):
            manager.select_operating_point(
                trained_dnn, odroid_xu3(), Requirements(target_fps=10)
            )
            counts.append(manager.cache.points_priced)
        # The second platform instance asks the first one's query, which the
        # front memo serves: nothing new is priced.
        stats = manager.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_decide_tracks_structural_change_without_flushing(self, trained_dnn, xu3):
        """Cores going offline, a thermal-bucket crossing, an unmapped app and
        recovery all change the keys the decision path asks for, so a cache
        that never flushes decides like the unmemoised stand-in at every step."""
        apps = {}
        for app_id, fps, priority in (("dnn1", 5.0, 3), ("dnn2", 10.0, 2)):
            requirements = Requirements(
                target_fps=fps, min_accuracy_percent=55.0, priority=priority
            )
            application = make_dnn_application(app_id, trained_dnn, requirements)
            apps[app_id] = AppRuntimeState(application=application)
        state = SystemState(time_ms=0.0, soc=xu3, apps=apps)
        cached = RuntimeManager()
        reference = RuntimeManager(cache=UnmemoisedOperatingPoints())

        def decide():
            actions = cached.decide(state).actions
            assert actions == reference.decide(state).actions
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
