"""Tests for the cluster and SoC composition layers and the presets."""

import pytest

from repro.platforms.cluster import Cluster, ClusterPerformanceParams
from repro.platforms.core import CoreType
from repro.platforms.dvfs import FrequencyDomain, make_opp_table
from repro.platforms.presets import (
    PLATFORM_REGISTRY,
    a13_like,
    build_preset,
    jetson_nano,
    kirin990_like,
    odroid_xu3,
)
from repro.platforms.soc import MemorySpec, Soc


def make_cluster(name="cpu", cores=4):
    return Cluster(
        name=name,
        core_type=CoreType.CPU_BIG,
        num_cores=cores,
        opp_table=make_opp_table([400.0, 800.0, 1200.0]),
    )


class TestCluster:
    def test_cores_created_with_cluster_name(self):
        cluster = make_cluster()
        assert cluster.num_cores == 4
        assert all(core.cluster_name == "cpu" for core in cluster.cores)
        assert cluster.core("cpu-2").core_id == "cpu-2"

    def test_unknown_core_raises(self):
        with pytest.raises(KeyError):
            make_cluster().core("cpu-9")

    def test_frequency_defaults_to_max_and_can_change(self):
        cluster = make_cluster()
        assert cluster.frequency_mhz == 1200.0
        cluster.set_frequency(400.0)
        assert cluster.frequency_mhz == 400.0
        assert cluster.voltage_v == cluster.opp_table.voltage_at(400.0)

    def test_reserve_and_release_cores(self):
        cluster = make_cluster()
        granted = cluster.reserve_cores(2, "dnn1")
        assert len(granted) == 2
        assert len(cluster.free_cores) == 2
        assert len(cluster.cores_reserved_by("dnn1")) == 2
        released = cluster.release_owner("dnn1")
        assert released == 2
        assert len(cluster.free_cores) == 4

    def test_reserve_more_than_free_raises(self):
        cluster = make_cluster(cores=2)
        cluster.reserve_cores(2, "a")
        with pytest.raises(RuntimeError, match="free cores"):
            cluster.reserve_cores(1, "b")

    def test_peak_macs_scales_with_cores_and_frequency(self):
        cluster = make_cluster()
        single = cluster.peak_macs_per_second(1)
        quad = cluster.peak_macs_per_second(4)
        assert quad > single
        cluster.set_frequency(400.0)
        assert cluster.peak_macs_per_second(1) < single

    def test_power_increases_with_utilisation(self):
        cluster = make_cluster()
        assert cluster.power_mw([1.0]) > cluster.power_mw([])

    def test_shared_frequency_domain(self):
        table = make_opp_table([400.0, 800.0])
        domain = FrequencyDomain("shared", table)
        a = Cluster("a", CoreType.CPU_BIG, 2, frequency_domain=domain)
        b = Cluster("b", CoreType.CPU_LITTLE, 2, frequency_domain=domain)
        a.set_frequency(400.0)
        assert b.frequency_mhz == 400.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Cluster("x", CoreType.CPU_BIG, 0, opp_table=make_opp_table([400.0]))
        with pytest.raises(ValueError):
            Cluster("x", CoreType.CPU_BIG, 1)  # neither opp_table nor domain
        with pytest.raises(ValueError):
            ClusterPerformanceParams(macs_per_cycle_per_core=0.0)
        with pytest.raises(ValueError):
            ClusterPerformanceParams(macs_per_cycle_per_core=1.0, parallel_efficiency=1.5)

    def test_snapshot_fields(self):
        snapshot = make_cluster().snapshot()
        assert snapshot["name"] == "cpu"
        assert snapshot["num_cores"] == 4
        assert snapshot["frequency_mhz"] == 1200.0


class TestSoc:
    def test_cluster_lookup(self, xu3):
        assert set(xu3.cluster_names) == {"a15", "a7", "mali_gpu"}
        assert xu3.cluster("a15").core_type == CoreType.CPU_BIG
        with pytest.raises(KeyError):
            xu3.cluster("npu")

    def test_clusters_of_type(self, xu3):
        assert [c.name for c in xu3.clusters_of_type(CoreType.GPU)] == ["mali_gpu"]
        assert xu3.has_gpu
        assert not xu3.has_npu

    def test_all_cores_and_core_lookup(self, xu3):
        assert len(xu3.all_cores) == 9  # 4 + 4 + 1
        assert xu3.core("a7-3").cluster_name == "a7"
        with pytest.raises(KeyError):
            xu3.core("missing-0")

    def test_release_owner_spans_clusters(self, xu3):
        xu3.cluster("a15").reserve_cores(2, "app")
        xu3.cluster("a7").reserve_cores(1, "app")
        assert xu3.release_owner("app") == 3

    def test_memory_accounting(self, xu3):
        free_before = xu3.free_memory_mb
        xu3.allocate_memory(100.0)
        assert xu3.free_memory_mb == pytest.approx(free_before - 100.0)
        xu3.free_memory(100.0)
        assert xu3.free_memory_mb == pytest.approx(free_before)

    def test_memory_overcommit_raises(self, xu3):
        with pytest.raises(MemoryError):
            xu3.allocate_memory(xu3.memory.capacity_mb + 1.0)

    def test_total_power_increases_with_load(self, xu3):
        idle = xu3.idle_power_mw()
        busy = xu3.total_power_mw({"a15": [1.0, 1.0, 1.0, 1.0]})
        assert busy > idle > 0.0

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Soc("x", [make_cluster("c"), make_cluster("c")])

    def test_invalid_memory_spec(self):
        with pytest.raises(ValueError):
            MemorySpec(capacity_mb=0.0)

    def test_snapshot_contains_thermal_state(self, xu3):
        snapshot = xu3.snapshot()
        assert snapshot["name"] == "odroid_xu3"
        assert "temperature_c" in snapshot
        assert set(snapshot["clusters"]) == set(xu3.cluster_names)


class TestPresets:
    def test_registry_builds_every_preset(self):
        for name in PLATFORM_REGISTRY:
            soc = build_preset(name)
            assert soc.name == name
            assert soc.clusters

    def test_unknown_preset_raises_keyerror_listing_names(self):
        with pytest.raises(KeyError, match="unknown platform preset 'pixel9000'.*odroid_xu3"):
            build_preset("pixel9000")

    def test_near_miss_preset_gets_a_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'jetson_nano'"):
            build_preset("jetson_nanoo")

    def test_preset_summaries_expose_topology(self):
        from repro.platforms import preset_summaries

        summaries = preset_summaries()
        assert set(summaries) == set(PLATFORM_REGISTRY)
        xu3 = summaries["odroid_xu3"]
        assert xu3["calibrated"] is True
        assert xu3["total_cores"] == 9  # 4x A15 + 4x A7 + Mali
        assert xu3["clusters"]["a15"] == {"core_type": "cpu_big", "num_cores": 4}
        assert summaries["kirin990_like"]["calibrated"] is False
        for info in summaries.values():
            assert info["summary"]
            assert info["total_cores"] == sum(
                payload["num_cores"] for payload in info["clusters"].values()
            )

    def test_odroid_xu3_matches_fig4_frequency_grids(self):
        soc = odroid_xu3()
        assert len(soc.cluster("a15").available_frequencies()) == 17
        assert len(soc.cluster("a7").available_frequencies()) == 12
        assert soc.cluster("a15").num_cores == 4
        assert soc.cluster("a7").num_cores == 4

    def test_jetson_nano_has_gpu_and_a57(self):
        soc = jetson_nano()
        assert soc.has_gpu
        assert soc.cluster("a57").num_cores == 4

    def test_flagship_presets_match_section2_descriptions(self):
        kirin = kirin990_like()
        # Kirin 990: 8 CPU cores of three types, GPU, tri-core NPU.
        cpu_cores = sum(c.num_cores for c in kirin.clusters if c.core_type.is_cpu)
        assert cpu_cores == 8
        assert kirin.has_npu
        assert kirin.cluster("npu").num_cores == 3

        a13 = a13_like()
        # A13: 6 CPU cores of two types, GPU, 8-core NPU.
        cpu_cores = sum(c.num_cores for c in a13.clusters if c.core_type.is_cpu)
        assert cpu_cores == 6
        assert a13.cluster("npu").num_cores == 8

    def test_big_cluster_outperforms_little_at_same_frequency(self):
        soc = odroid_xu3()
        a15, a7 = soc.cluster("a15"), soc.cluster("a7")
        a15.set_frequency(1000.0)
        a7.set_frequency(1000.0)
        assert a15.peak_macs_per_second(1) > a7.peak_macs_per_second(1)
        # ... but also draws more power.
        assert a15.power_mw([1.0]) > a7.power_mw([1.0])
