"""Runtime resource management for embedded machine learning.

This subpackage is the paper's primary contribution: a runtime manager that
steers dynamic DNNs (application knob), task mapping and DVFS (device knobs)
so that every application keeps meeting its latency, energy, power and
accuracy requirements as the available resources change.  Its Fig 5 boundary
is :mod:`repro.rtm.state`: the manager reads a :class:`SystemState` (the
monitors) and returns :class:`Action` objects (the knob settings) for the
simulator to apply.
"""

from repro.rtm.cache import (
    DECISION_MAXIMISE,
    DECISION_OBJECTIVES,
    DEFAULT_TEMPERATURE_BUCKET_C,
    CacheStats,
    OperatingPointCache,
    model_cache_key,
    temperature_bucket_c,
)
from repro.rtm.governors import (
    GOVERNOR_REGISTRY,
    ConservativeGovernor,
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    make_governor,
)
from repro.rtm.manager import RTMConfig, RTMDecision, RuntimeManager
from repro.rtm.multi_app import AllocationDecision, AllocationResult, MultiAppAllocator
from repro.rtm.operating_points import (
    OperatingPoint,
    OperatingPointSpace,
    OperatingPointTable,
    pareto_mask,
)
from repro.rtm.policies import (
    POLICY_REGISTRY,
    MaxAccuracyUnderBudget,
    MaxConfidenceUnderBudget,
    MinEnergyUnderConstraints,
    MinLatencyUnderPowerCap,
    SelectionPolicy,
    make_policy,
)
from repro.rtm.state import (
    Action,
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetCoresOnline,
    SetFrequency,
    SystemState,
    UnmapApplication,
)

__all__ = [
    "DECISION_MAXIMISE",
    "DECISION_OBJECTIVES",
    "DEFAULT_TEMPERATURE_BUCKET_C",
    "CacheStats",
    "OperatingPointCache",
    "model_cache_key",
    "temperature_bucket_c",
    "GOVERNOR_REGISTRY",
    "ConservativeGovernor",
    "Governor",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "make_governor",
    "RTMConfig",
    "RTMDecision",
    "RuntimeManager",
    "AllocationDecision",
    "AllocationResult",
    "MultiAppAllocator",
    "OperatingPoint",
    "OperatingPointSpace",
    "OperatingPointTable",
    "pareto_mask",
    "POLICY_REGISTRY",
    "MaxAccuracyUnderBudget",
    "MaxConfidenceUnderBudget",
    "MinEnergyUnderConstraints",
    "MinLatencyUnderPowerCap",
    "SelectionPolicy",
    "make_policy",
    "Action",
    "AppRuntimeState",
    "MapApplication",
    "Mapping",
    "SetConfiguration",
    "SetCoresOnline",
    "SetFrequency",
    "SystemState",
    "UnmapApplication",
]
