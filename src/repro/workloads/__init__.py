"""Workload and scenario models.

Applications (DNN inference, AR/VR, background tasks), their performance
requirements, the paper's Fig 2 runtime timeline, random scenario generators,
the scenario composition algebra (:mod:`repro.workloads.compose`), streaming
arrival-trace record/replay (:mod:`repro.workloads.traces`), the diurnal
population-traffic generator (:mod:`repro.workloads.diurnal`) and the seeded
scenario fuzzer (:mod:`repro.workloads.fuzzer`).

Importing this package populates the scenario registry with every named
scenario: the hand-written paper timelines, the generator-backed synthetic
families, the named composites, the ``trace`` replay scenario and the
``fuzzed`` scenario.
"""

import repro.workloads.chaos  # noqa: F401  (registers the chaos_* scenarios)
from repro.workloads.compose import COMPOSE_OPS, mix, perturb, scale, splice, with_platform
from repro.workloads.diurnal import (
    DiurnalConfig,
    DiurnalTraffic,
    config_for_arrivals,
    write_diurnal_trace,
)
from repro.workloads.fuzzer import ScenarioFuzzer
from repro.workloads.generator import WorkloadGenerator, WorkloadGeneratorConfig
from repro.workloads.requirements import MetricSample, Requirements
from repro.workloads.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    ScenarioEvent,
    ScenarioEventKind,
    accepted_scenario_params,
    build_scenario,
    fig2_scenario,
    multi_dnn_scenario,
    register_scenario,
    scenario_is_seeded,
    scenario_summaries,
    single_dnn_scenario,
    thermal_stress_scenario,
)
from repro.workloads.tasks import (
    Application,
    DNNApplication,
    GenericApplication,
    ResourceDemand,
    TaskKind,
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)
from repro.workloads.traces import (
    ArrivalTrace,
    TraceFormatError,
    TraceHeader,
    TraceStats,
    TraceStream,
    TraceWriter,
    compute_trace_stats,
    scenario_from_records,
)

__all__ = [
    "WorkloadGenerator",
    "WorkloadGeneratorConfig",
    "MetricSample",
    "Requirements",
    "SCENARIO_REGISTRY",
    "Scenario",
    "ScenarioEvent",
    "ScenarioEventKind",
    "accepted_scenario_params",
    "build_scenario",
    "register_scenario",
    "scenario_is_seeded",
    "scenario_summaries",
    "fig2_scenario",
    "multi_dnn_scenario",
    "single_dnn_scenario",
    "thermal_stress_scenario",
    "COMPOSE_OPS",
    "mix",
    "scale",
    "splice",
    "with_platform",
    "perturb",
    "ArrivalTrace",
    "TraceFormatError",
    "TraceHeader",
    "TraceStats",
    "TraceStream",
    "TraceWriter",
    "compute_trace_stats",
    "scenario_from_records",
    "DiurnalConfig",
    "DiurnalTraffic",
    "config_for_arrivals",
    "write_diurnal_trace",
    "ScenarioFuzzer",
    "Application",
    "DNNApplication",
    "GenericApplication",
    "ResourceDemand",
    "TaskKind",
    "make_arvr_application",
    "make_background_application",
    "make_dnn_application",
]
