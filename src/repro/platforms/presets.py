"""Preset platform models for the boards and SoCs the paper discusses.

Two presets are calibrated against the paper's measurements:

* :func:`odroid_xu3` — the board used for Fig 4 and the Odroid half of
  Table I.  Exynos 5422: quad Cortex-A15 (200 MHz – 1.8 GHz, 17 OPPs), quad
  Cortex-A7 (200 MHz – 1.3 GHz, 12 OPPs), Mali-T628 GPU, 2 GB DRAM.
* :func:`jetson_nano` — the board used for the Jetson half of Table I.
  Quad Cortex-A57 plus a 128-core Maxwell GPU.

Two further presets model the flagship SoCs named in Section II, used by the
design-time mapping benchmark (Fig 1):

* :func:`kirin990_like` — 8 CPU cores of three types, 16-core GPU, tri-core NPU.
* :func:`a13_like` — 6 CPU cores of two types, quad-core GPU, 8-core NPU.

Power-model calibration (least-squares fit against Table I, see
``repro.data.measurements``):

====== ===========================  ==============
cluster C_eff (mW / MHz / V^2)       static (mW)
====== ===========================  ==============
A15     0.62                          225
A7      0.13                          52
A57     0.68                          312
Nano GPU 2.36                         100
====== ===========================  ==============

Performance calibration uses the measured latency-vs-frequency curves of the
paper's CIFAR-10 network (about 58 M MACs per inference in our structural
model); ``macs_per_cycle_per_core`` is chosen so the roofline latency model
reproduces Table I within a few percent.
"""

from __future__ import annotations

from typing import Dict

from repro.platforms.cluster import Cluster, ClusterPerformanceParams
from repro.platforms.core import CoreType
from repro.platforms.dvfs import make_opp_table
from repro.platforms.power import PowerModelParams
from repro.platforms.soc import MemorySpec, Soc
from repro.platforms.thermal import ThermalParams
from repro.registry import Registry

__all__ = [
    "odroid_xu3",
    "jetson_nano",
    "kirin990_like",
    "a13_like",
    "generic_quad",
    "PLATFORM_REGISTRY",
    "build_preset",
    "preset_summaries",
]

#: MAC count of the reference CIFAR-10 network used for calibration.  The
#: perfmodel scales other networks by their MAC ratio relative to this.
_REFERENCE_MACS = 58.0e6


def odroid_xu3() -> Soc:
    """Build the Odroid XU3 platform model used in Fig 4 and Table I."""
    a15_freqs = [float(f) for f in range(200, 1801, 100)]  # 17 OPPs
    a7_freqs = [float(f) for f in range(200, 1301, 100)]  # 12 OPPs

    # Calibration: Table I gives the A15 at 1.8 GHz a latency of 117 ms for the
    # reference network running single-threaded.  117 ms at 1.8 GHz implies
    # 58e6 / (0.117 * 1.8e9) ~= 0.275 MACs/cycle achieved.
    a15 = Cluster(
        name="a15",
        core_type=CoreType.CPU_BIG,
        num_cores=4,
        opp_table=make_opp_table(a15_freqs, voltage_min_v=0.90, voltage_max_v=1.2625),
        power_params=PowerModelParams(
            ceff_mw_per_mhz_v2=0.62,
            static_mw=225.0,
            nominal_voltage_v=1.0,
        ),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.283,
            memory_bandwidth_gbps=7.5,
            parallel_efficiency=0.80,
            fixed_overhead_ms=4.0,
        ),
    )
    # A7 at 1.3 GHz: 280 ms -> 58e6 / (0.280 * 1.3e9) ~= 0.16 MACs/cycle.
    a7 = Cluster(
        name="a7",
        core_type=CoreType.CPU_LITTLE,
        num_cores=4,
        opp_table=make_opp_table(a7_freqs, voltage_min_v=0.90, voltage_max_v=1.20),
        power_params=PowerModelParams(
            ceff_mw_per_mhz_v2=0.13,
            static_mw=52.0,
            nominal_voltage_v=1.0,
        ),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.163,
            memory_bandwidth_gbps=4.0,
            parallel_efficiency=0.78,
            fixed_overhead_ms=7.0,
        ),
    )
    mali = Cluster(
        name="mali_gpu",
        core_type=CoreType.GPU,
        num_cores=1,
        opp_table=make_opp_table([177.0, 266.0, 350.0, 420.0, 480.0, 543.0, 600.0],
                                 voltage_min_v=0.90, voltage_max_v=1.10),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=3.0, static_mw=150.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=24.0,
            memory_bandwidth_gbps=7.5,
            parallel_efficiency=1.0,
            fixed_overhead_ms=3.0,
        ),
    )
    return Soc(
        name="odroid_xu3",
        clusters=[a15, a7, mali],
        memory=MemorySpec(capacity_mb=2048.0, bandwidth_gbps=14.9),
        thermal_params=ThermalParams(
            thermal_resistance_c_per_w=8.5,
            thermal_capacitance_j_per_c=1.0,
            ambient_c=25.0,
            throttle_threshold_c=80.0,
            throttle_release_c=74.0,
        ),
    )


def jetson_nano() -> Soc:
    """Build the Jetson Nano platform model used in Table I."""
    a57_freqs = [float(f) for f in (102.0, 204.0, 307.0, 403.0, 518.0, 614.0,
                                    710.0, 825.0, 921.0, 1036.0, 1132.0, 1224.0,
                                    1326.0, 1428.0)]
    gpu_freqs = [float(f) for f in (76.8, 153.6, 230.4, 307.2, 384.0, 460.8,
                                    537.6, 614.4, 691.2, 768.0, 844.8, 921.6)]

    # A57 at 1.43 GHz: 46.9 ms -> 58e6 / (0.0469 * 1.43e9) ~= 0.865 MACs/cycle.
    a57 = Cluster(
        name="a57",
        core_type=CoreType.CPU_BIG,
        num_cores=4,
        opp_table=make_opp_table(a57_freqs, voltage_min_v=0.82, voltage_max_v=1.12),
        power_params=PowerModelParams(
            ceff_mw_per_mhz_v2=0.68,
            static_mw=312.0,
            nominal_voltage_v=1.0,
        ),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.868,
            memory_bandwidth_gbps=12.0,
            parallel_efficiency=0.82,
            fixed_overhead_ms=2.5,
        ),
    )
    # GPU at 921.6 MHz: 4.93 ms -> 58e6 / (0.00493 * 0.9216e9) ~= 12.8
    # MACs/cycle achieved across the 128 CUDA cores (modelled as one core).
    gpu = Cluster(
        name="gpu",
        core_type=CoreType.GPU,
        num_cores=1,
        opp_table=make_opp_table(gpu_freqs, voltage_min_v=0.85, voltage_max_v=1.05),
        power_params=PowerModelParams(
            ceff_mw_per_mhz_v2=2.36,
            static_mw=100.0,
            nominal_voltage_v=1.0,
        ),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=14.6,
            memory_bandwidth_gbps=20.0,
            parallel_efficiency=1.0,
            fixed_overhead_ms=0.6,
        ),
    )
    return Soc(
        name="jetson_nano",
        clusters=[a57, gpu],
        memory=MemorySpec(capacity_mb=4096.0, bandwidth_gbps=25.6),
        thermal_params=ThermalParams(
            thermal_resistance_c_per_w=5.0,
            thermal_capacitance_j_per_c=6.0,
            ambient_c=25.0,
            throttle_threshold_c=97.0,
            throttle_release_c=90.0,
        ),
    )


def kirin990_like() -> Soc:
    """A flagship SoC model resembling the Huawei Kirin 990 5G (Section II).

    Eight CPU cores of three types (2 big + 2 mid + 4 LITTLE), a 16-core GPU
    and a tri-core NPU.  Coefficients are representative, not calibrated — the
    preset exists for the design-time mapping study (Fig 1), which only needs
    plausible relative capabilities.
    """
    big = Cluster(
        name="big",
        core_type=CoreType.CPU_BIG,
        num_cores=2,
        opp_table=make_opp_table([float(f) for f in range(600, 2601, 200)],
                                 voltage_min_v=0.70, voltage_max_v=1.05),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.55, static_mw=180.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=1.6, memory_bandwidth_gbps=20.0,
            parallel_efficiency=0.85, fixed_overhead_ms=1.5),
    )
    mid = Cluster(
        name="mid",
        core_type=CoreType.CPU_MID,
        num_cores=2,
        opp_table=make_opp_table([float(f) for f in range(600, 2401, 200)],
                                 voltage_min_v=0.68, voltage_max_v=1.00),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.35, static_mw=120.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=1.1, memory_bandwidth_gbps=16.0,
            parallel_efficiency=0.85, fixed_overhead_ms=1.8),
    )
    little = Cluster(
        name="little",
        core_type=CoreType.CPU_LITTLE,
        num_cores=4,
        opp_table=make_opp_table([float(f) for f in range(400, 2001, 200)],
                                 voltage_min_v=0.65, voltage_max_v=0.95),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.12, static_mw=60.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.45, memory_bandwidth_gbps=10.0,
            parallel_efficiency=0.80, fixed_overhead_ms=2.5),
    )
    gpu = Cluster(
        name="gpu",
        core_type=CoreType.GPU,
        num_cores=1,
        opp_table=make_opp_table([200.0, 400.0, 600.0, 700.0, 800.0],
                                 voltage_min_v=0.70, voltage_max_v=0.95),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=3.0, static_mw=150.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=60.0, memory_bandwidth_gbps=30.0,
            parallel_efficiency=1.0, fixed_overhead_ms=0.8),
    )
    npu = Cluster(
        name="npu",
        core_type=CoreType.NPU,
        num_cores=3,
        opp_table=make_opp_table([300.0, 500.0, 700.0, 900.0],
                                 voltage_min_v=0.70, voltage_max_v=0.95),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=2.0, static_mw=80.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=512.0, memory_bandwidth_gbps=40.0,
            parallel_efficiency=0.9, fixed_overhead_ms=0.4),
    )
    return Soc(
        name="kirin990_like",
        clusters=[big, mid, little, gpu, npu],
        memory=MemorySpec(capacity_mb=8192.0, bandwidth_gbps=34.1),
        thermal_params=ThermalParams(
            thermal_resistance_c_per_w=6.0,
            thermal_capacitance_j_per_c=4.0,
            throttle_threshold_c=80.0,
            throttle_release_c=73.0,
        ),
    )


def a13_like() -> Soc:
    """A flagship SoC model resembling the Apple A13 Bionic (Section II).

    Six CPU cores of two types (2 big + 4 LITTLE), a quad-core GPU and an
    eight-core NPU.  Representative, not calibrated (see :func:`kirin990_like`).
    """
    big = Cluster(
        name="big",
        core_type=CoreType.CPU_BIG,
        num_cores=2,
        opp_table=make_opp_table([float(f) for f in range(600, 2701, 300)],
                                 voltage_min_v=0.70, voltage_max_v=1.05),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.60, static_mw=200.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=2.2, memory_bandwidth_gbps=25.0,
            parallel_efficiency=0.88, fixed_overhead_ms=1.2),
    )
    little = Cluster(
        name="little",
        core_type=CoreType.CPU_LITTLE,
        num_cores=4,
        opp_table=make_opp_table([float(f) for f in range(400, 1801, 200)],
                                 voltage_min_v=0.62, voltage_max_v=0.92),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.10, static_mw=50.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.6, memory_bandwidth_gbps=12.0,
            parallel_efficiency=0.82, fixed_overhead_ms=2.0),
    )
    gpu = Cluster(
        name="gpu",
        core_type=CoreType.GPU,
        num_cores=1,
        opp_table=make_opp_table([300.0, 500.0, 700.0, 900.0, 1100.0],
                                 voltage_min_v=0.70, voltage_max_v=0.95),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=2.8, static_mw=140.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=48.0, memory_bandwidth_gbps=34.0,
            parallel_efficiency=1.0, fixed_overhead_ms=0.7),
    )
    npu = Cluster(
        name="npu",
        core_type=CoreType.NPU,
        num_cores=8,
        opp_table=make_opp_table([300.0, 600.0, 900.0, 1200.0],
                                 voltage_min_v=0.70, voltage_max_v=0.95),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=1.5, static_mw=70.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=256.0, memory_bandwidth_gbps=42.0,
            parallel_efficiency=0.92, fixed_overhead_ms=0.3),
    )
    return Soc(
        name="a13_like",
        clusters=[big, little, gpu, npu],
        memory=MemorySpec(capacity_mb=4096.0, bandwidth_gbps=34.1),
        thermal_params=ThermalParams(
            thermal_resistance_c_per_w=7.0,
            thermal_capacitance_j_per_c=3.5,
            throttle_threshold_c=78.0,
            throttle_release_c=71.0,
        ),
    )


def generic_quad() -> Soc:
    """A small generic quad-core CPU platform, used in unit tests and examples."""
    cpu = Cluster(
        name="cpu",
        core_type=CoreType.CPU_BIG,
        num_cores=4,
        opp_table=make_opp_table([400.0, 800.0, 1200.0, 1600.0],
                                 voltage_min_v=0.85, voltage_max_v=1.15),
        power_params=PowerModelParams(ceff_mw_per_mhz_v2=0.4, static_mw=150.0),
        performance=ClusterPerformanceParams(
            macs_per_cycle_per_core=0.5, memory_bandwidth_gbps=8.0,
            parallel_efficiency=0.85, fixed_overhead_ms=2.0),
    )
    return Soc(name="generic_quad", clusters=[cpu])


#: Registry of preset builders by name (calibrated = fitted against the
#: paper's measurements, as opposed to the representative flagship models).
PLATFORM_REGISTRY: Registry[Soc] = Registry("platform preset")
PLATFORM_REGISTRY.register("odroid_xu3", odroid_xu3, calibrated=True)
PLATFORM_REGISTRY.register("jetson_nano", jetson_nano, calibrated=True)
PLATFORM_REGISTRY.register("kirin990_like", kirin990_like, calibrated=False)
PLATFORM_REGISTRY.register("a13_like", a13_like, calibrated=False)
PLATFORM_REGISTRY.register("generic_quad", generic_quad, calibrated=False)


def build_preset(name: str) -> Soc:
    """Build a preset platform by name.

    Raises
    ------
    KeyError
        If the name is not a known preset; the message lists the available
        preset names (and suggests the closest match for near-misses).
    """
    return PLATFORM_REGISTRY.get(name)()


def preset_summaries() -> Dict[str, Dict[str, object]]:
    """Topology metadata of every preset, keyed by name.

    Builds each preset once and reports its cluster layout (name, core type
    and core count per cluster), total core count and one-line description —
    the payload of ``repro-experiments platforms list``.
    """
    summaries: Dict[str, Dict[str, object]] = {}
    for entry in PLATFORM_REGISTRY.list():
        soc = entry.factory()
        summaries[entry.name] = {
            "summary": entry.summary,
            "calibrated": bool(entry.metadata.get("calibrated")),
            "clusters": {
                cluster.name: {
                    "core_type": cluster.core_type.value,
                    "num_cores": cluster.num_cores,
                }
                for cluster in soc.clusters
            },
            "total_cores": sum(cluster.num_cores for cluster in soc.clusters),
        }
    return summaries
