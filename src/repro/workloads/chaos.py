"""Chaos scenarios: registry workloads with declarative fault plans attached.

Each ``chaos_*`` scenario wraps one of the standard registry workloads and
attaches a :class:`~repro.sim.faults.FaultPlan` — core failures the RTM must
degrade around, firmware DVFS caps, lying thermal sensors, and seeded
transient job crashes.  The plans are plain data, so the scenarios join the
golden-fingerprint lattice like any other registry entry: the same chaos
scenario produces bit-identical traces on the serial, process, and batched
backends, and a behavioural change under faults shows up as golden drift.

Cluster names differ across platform presets, so the builders resolve their
fault targets from the preset itself: the *primary CPU cluster* is the first
cluster of the preset (the big CPU in every shipped preset) and the
*accelerator* is the last (``mali_gpu`` / ``gpu`` / ``npu``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.platforms.presets import build_preset

# NOTE: repro.sim.faults is imported lazily inside the builders.  Importing
# it at module level would pull in the whole repro.sim package (the engine)
# while repro.workloads is still initialising — a cycle, because the engine
# imports repro.rtm.state which imports repro.workloads.requirements.
from repro.workloads.scenarios import (
    Scenario,
    bursty_scenario,
    multi_dnn_scenario,
    overload_scenario,
    register_scenario,
    rush_hour_scenario,
    thermal_stress_scenario,
)

__all__ = [
    "chaos_rush_hour_core_failure",
    "chaos_flaky_npu",
    "chaos_thermal_sensor_dropout",
    "chaos_overload_freq_cap",
    "chaos_bursty_transient_crashes",
    "chaos_double_fault",
]


def _primary_cpu_cluster(platform_name: str):
    """The preset's big CPU cluster (first cluster in every shipped preset)."""
    return build_preset(platform_name).clusters[0]


def _accelerator_cluster(platform_name: str):
    """The preset's accelerator cluster (last: ``mali_gpu``/``gpu``/``npu``)."""
    return build_preset(platform_name).clusters[-1]


def _with_plan(base: Scenario, name: str, description: str, plan: FaultPlan) -> Scenario:
    """A copy of ``base`` carrying ``plan`` (``replace`` re-runs validation)."""
    return replace(base, name=name, description=description, fault_plan=plan)


@register_scenario("chaos_rush_hour_core_failure")
def chaos_rush_hour_core_failure(
    seed: int = 0, platform_name: str = "odroid_xu3"
) -> Scenario:
    """Rush hour with two big-CPU cores dying mid-wave and recovering late.

    At t=10 s — with the arrival wave in full swing — two cores of the
    primary CPU cluster fail outside the RTM's control; they come back at
    t=20 s.  Exercises the RTM's remapping onto the surviving cores at the
    fault-triggered decision, and back once they return.
    """
    from repro.sim.faults import CoreFailure, CoreRecovery, FaultPlan

    cpu = _primary_cpu_cluster(platform_name)
    plan = FaultPlan(
        events=(
            CoreFailure(time_ms=10000.0, cluster=cpu.name, cores=2),
            CoreRecovery(time_ms=20000.0, cluster=cpu.name, cores=2),
        )
    )
    return _with_plan(
        rush_hour_scenario(seed=seed, platform_name=platform_name),
        name=f"chaos_rush_hour_core_failure_seed{seed}",
        description="Rush hour with 2 big-CPU cores failing at t=10s, back at t=20s.",
        plan=plan,
    )


@register_scenario("chaos_flaky_npu", seeded=False)
def chaos_flaky_npu(seed: int = 0, platform_name: str = "odroid_xu3") -> Scenario:
    """Staggered DNNs on a platform whose accelerator keeps dropping out.

    The accelerator cluster (``mali_gpu``/``gpu``/``npu`` depending on the
    preset) fails completely twice — t=5-12 s and t=15-18 s — so every DNN
    mapped to it must be remapped to CPU clusters and (optionally) migrated
    back when the device returns.
    """
    from repro.sim.faults import CoreFailure, CoreRecovery, FaultPlan

    accelerator = _accelerator_cluster(platform_name)
    plan = FaultPlan(
        events=(
            CoreFailure(time_ms=5000.0, cluster=accelerator.name, cores=accelerator.num_cores),
            CoreRecovery(time_ms=12000.0, cluster=accelerator.name, cores=accelerator.num_cores),
            CoreFailure(time_ms=15000.0, cluster=accelerator.name, cores=accelerator.num_cores),
            CoreRecovery(time_ms=18000.0, cluster=accelerator.name, cores=accelerator.num_cores),
        )
    )
    return _with_plan(
        multi_dnn_scenario(num_dnns=3, platform_name=platform_name),
        name="chaos_flaky_npu",
        description="Three DNNs with the accelerator cluster dropping out twice.",
        plan=plan,
    )


@register_scenario("chaos_thermal_sensor_dropout", seeded=False)
def chaos_thermal_sensor_dropout(
    seed: int = 0, platform_name: str = "odroid_xu3"
) -> Scenario:
    """Thermal stress steered by a lying, then stuck, thermal sensor.

    The sensor first reads 6 C cold (t=3 s) — delaying throttling while the
    true temperature climbs — then freezes entirely at t=8 s and recovers at
    t=15 s.  The physics integrates the true temperature throughout; only
    what the governor and RTM observe is wrong.
    """
    from repro.sim.faults import FaultPlan, SensorBias, SensorDropout, SensorRestore

    plan = FaultPlan(
        events=(
            SensorBias(time_ms=3000.0, bias_c=-6.0),
            SensorDropout(time_ms=8000.0),
            SensorBias(time_ms=15000.0, bias_c=0.0),
            SensorRestore(time_ms=15000.0),
        )
    )
    return _with_plan(
        thermal_stress_scenario(platform_name=platform_name),
        name="chaos_thermal_sensor_dropout",
        description="Thermal stress with a cold-biased then frozen thermal sensor.",
        plan=plan,
    )


@register_scenario("chaos_overload_freq_cap")
def chaos_overload_freq_cap(seed: int = 0, platform_name: str = "odroid_xu3") -> Scenario:
    """Overload with a firmware DVFS cap pinning the big CPU to ~60% speed.

    From t=5 s to t=15 s every frequency request on the primary CPU cluster
    is clamped to the highest operating point at or below 60% of its
    maximum — overload, minus the headroom the manager would normally spend
    its way out with.
    """
    from repro.sim.faults import FaultPlan, FrequencyCap, FrequencyCapRelease

    cpu = _primary_cpu_cluster(platform_name)
    cap_mhz = 0.6 * cpu.opp_table.max_frequency_mhz
    plan = FaultPlan(
        events=(
            FrequencyCap(time_ms=5000.0, cluster=cpu.name, max_frequency_mhz=cap_mhz),
            FrequencyCapRelease(time_ms=15000.0, cluster=cpu.name),
        )
    )
    return _with_plan(
        overload_scenario(seed=seed, platform_name=platform_name),
        name=f"chaos_overload_freq_cap_seed{seed}",
        description="Overload with the big CPU firmware-capped to ~60% for 10s.",
        plan=plan,
    )


@register_scenario("chaos_bursty_transient_crashes")
def chaos_bursty_transient_crashes(
    seed: int = 0, platform_name: str = "odroid_xu3"
) -> Scenario:
    """The bursty workload with seeded transient job crashes and retries.

    Every job attempt crashes with probability 0.12 (pure hash of
    ``(seed, app, job, attempt)``, so identical on every backend); crashed
    attempts retry up to twice with exponential backoff, and jobs that
    exhaust their retries are dropped and accounted as ``crashed``.
    """
    from repro.sim.faults import FaultPlan, JobCrashProfile

    plan = FaultPlan(
        job_crashes=JobCrashProfile(probability=0.12, seed=seed, max_retries=2)
    )
    return _with_plan(
        bursty_scenario(seed=seed, platform_name=platform_name),
        name=f"chaos_bursty_transient_crashes_seed{seed}",
        description="Bursty arrivals with p=0.12 transient job crashes and retries.",
        plan=plan,
    )


@register_scenario("chaos_double_fault")
def chaos_double_fault(seed: int = 0, platform_name: str = "odroid_xu3") -> Scenario:
    """Rush hour under compound faults: core loss, a DVFS cap, and sensor bias.

    At t=9 s one big-CPU core fails *and* the cluster is firmware-capped to
    ~70% of its maximum; at t=12 s the thermal sensor starts reading 8 C hot
    (throttling early).  Everything clears at t=22 s.  The compound case the
    single-fault scenarios cannot cover: degradations that interact.
    """
    from repro.sim.faults import (
        CoreFailure,
        CoreRecovery,
        FaultPlan,
        FrequencyCap,
        FrequencyCapRelease,
        SensorBias,
    )

    cpu = _primary_cpu_cluster(platform_name)
    cap_mhz = 0.7 * cpu.opp_table.max_frequency_mhz
    plan = FaultPlan(
        events=(
            CoreFailure(time_ms=9000.0, cluster=cpu.name, cores=1),
            FrequencyCap(time_ms=9000.0, cluster=cpu.name, max_frequency_mhz=cap_mhz),
            SensorBias(time_ms=12000.0, bias_c=8.0),
            CoreRecovery(time_ms=22000.0, cluster=cpu.name, cores=1),
            FrequencyCapRelease(time_ms=22000.0, cluster=cpu.name),
            SensorBias(time_ms=22000.0, bias_c=0.0),
        )
    )
    return _with_plan(
        rush_hour_scenario(seed=seed, platform_name=platform_name),
        name=f"chaos_double_fault_seed{seed}",
        description="Rush hour with simultaneous core loss, DVFS cap, and hot sensor bias.",
        plan=plan,
    )
