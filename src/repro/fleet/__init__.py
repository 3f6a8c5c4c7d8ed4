"""Fleet orchestration: thousands of devices under one global orchestrator.

The ROADMAP's "millions of users" north-star, level two: per-device runtime
managers (the paper's RTM) keep governing their own SoC, while a global
orchestrator places every arriving application on a device via a pluggable
:class:`~repro.fleet.policies.PlacementPolicy` and periodically evicts and
migrates applications off overloaded, degraded or dying devices — the
descheduler idiom, driven by per-epoch telemetry sampled from the device
simulators the repo already has.

Entry points: :func:`~repro.fleet.orchestrator.run_fleet` executes one
:class:`~repro.fleet.spec.FleetSpec` (serial or batched backend);
``repro-experiments fleet run|sweep|bench`` are the CLI faces.
"""

from repro.fleet.bench import (
    BENCH_KIND_FLEET,
    DEFAULT_FLEET_BENCH_PATH,
    FleetBenchResult,
    run_fleet_bench,
)
from repro.fleet.orchestrator import (
    FLEET_BACKENDS,
    FleetOrchestrator,
    FleetResult,
    MigrationRecord,
    run_fleet,
)
from repro.fleet.policies import (
    FLEET_POLICY_REGISTRY,
    DeviceTelemetry,
    PlacementPolicy,
    make_fleet_policy,
)
from repro.fleet.scenarios import (
    FLEET_SCENARIO_REGISTRY,
    DeviceChurnEvent,
    FleetAppTemplate,
    FleetScenario,
    build_fleet_scenario,
    fleet_scenario_summaries,
    register_fleet_scenario,
)
from repro.fleet.spec import (
    FleetSpec,
    FleetSpecError,
    dump_fleet_specs,
    fleet_specs_to_toml,
    load_fleet_specs,
)

__all__ = [
    "BENCH_KIND_FLEET",
    "DEFAULT_FLEET_BENCH_PATH",
    "FLEET_BACKENDS",
    "FLEET_POLICY_REGISTRY",
    "FLEET_SCENARIO_REGISTRY",
    "DeviceChurnEvent",
    "DeviceTelemetry",
    "FleetAppTemplate",
    "FleetBenchResult",
    "FleetOrchestrator",
    "FleetResult",
    "FleetScenario",
    "FleetSpec",
    "FleetSpecError",
    "MigrationRecord",
    "PlacementPolicy",
    "build_fleet_scenario",
    "dump_fleet_specs",
    "fleet_scenario_summaries",
    "fleet_specs_to_toml",
    "load_fleet_specs",
    "make_fleet_policy",
    "register_fleet_scenario",
    "run_fleet",
    "run_fleet_bench",
]
