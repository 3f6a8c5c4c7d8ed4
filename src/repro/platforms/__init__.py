"""Heterogeneous embedded platform models.

This subpackage is the hardware substrate of the reproduction: core and
cluster descriptors, DVFS operating-point tables, a calibrated power model, a
lumped-RC thermal model, and SoC presets for the boards and SoCs named in the
paper (Odroid XU3, Jetson Nano, Kirin 990-like, A13 Bionic-like).
"""

from repro.platforms.cluster import Cluster, ClusterPerformanceParams
from repro.platforms.core import Core, CoreType
from repro.platforms.dvfs import (
    FrequencyDomain,
    OperatingPerformancePoint,
    OPPTable,
    make_opp_table,
)
from repro.platforms.power import ClusterPowerModel, PowerModelParams, dynamic_power_mw, static_power_mw
from repro.platforms.presets import (
    PLATFORM_REGISTRY,
    a13_like,
    build_preset,
    generic_quad,
    jetson_nano,
    kirin990_like,
    odroid_xu3,
    preset_summaries,
)
from repro.platforms.soc import MemorySpec, Soc
from repro.platforms.thermal import ThermalModel, ThermalParams

__all__ = [
    "Cluster",
    "ClusterPerformanceParams",
    "Core",
    "CoreType",
    "FrequencyDomain",
    "OperatingPerformancePoint",
    "OPPTable",
    "make_opp_table",
    "ClusterPowerModel",
    "PowerModelParams",
    "dynamic_power_mw",
    "static_power_mw",
    "MemorySpec",
    "Soc",
    "ThermalModel",
    "ThermalParams",
    "PLATFORM_REGISTRY",
    "build_preset",
    "preset_summaries",
    "odroid_xu3",
    "jetson_nano",
    "kirin990_like",
    "a13_like",
    "generic_quad",
]
