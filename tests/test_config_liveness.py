"""Every configuration field changes behaviour: no option is dead.

For each field of :class:`~repro.rtm.manager.RTMConfig` and
:class:`~repro.sim.engine.SimulatorConfig`, one non-default value must change
the fingerprint of a named short scenario.  A field added without a probe
fails here, and so does a field that the code stopped reading, since a spec
that sets it would otherwise be silently ignored.

``RTMConfig.enable_op_cache`` is the one exemption: its contract is to change
nothing, which ``tests/test_cache_parity.py`` checks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.platforms.core import CoreType
from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.sim.engine import SimulatorConfig, simulate_scenario
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import Scenario, build_scenario
from repro.workloads.tasks import (
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)

EXEMPT = {"RTMConfig.enable_op_cache"}


def _best_effort_behind_generic_apps(trained) -> Scenario:
    """A best-effort DNN (no target fps) arrives while generic apps hold every
    core, so it is released unmapped and retried until they leave."""
    return Scenario(
        name="best_effort_behind_generic_apps",
        platform_name="odroid_xu3",
        applications=[
            make_background_application(
                "big", cores=4, core_type=CoreType.CPU_BIG, departure_time_ms=1500.0
            ),
            make_background_application("little", cores=4, departure_time_ms=1500.0),
            make_arvr_application("arvr", departure_time_ms=1500.0),
            make_dnn_application("dnn1", trained, Requirements(), arrival_time_ms=100.0),
        ],
        duration_ms=2000.0,
    )


#: Field -> (non-default value, scenario whose fingerprint it must change).
PROBES = {
    "RTMConfig.enable_dnn_scaling": (False, "overload"),
    "RTMConfig.enable_dvfs": (False, "thermal_stress"),
    "RTMConfig.enable_task_mapping": (False, "overload"),
    "RTMConfig.max_cores_per_app": (1, "overload"),
    "RTMConfig.temperature_bucket_width_c": (1.0, "thermal_stress"),
    "SimulatorConfig.decision_interval_ms": (250.0, "overload"),
    "SimulatorConfig.thermal_sample_interval_ms": (50.0, "thermal_stress"),
    "SimulatorConfig.migration_penalty_ms": (200.0, "overload"),
    "SimulatorConfig.max_backlog": (0, "overload"),
    "SimulatorConfig.busy_utilisation": (0.5, "thermal_stress"),
    "SimulatorConfig.retry_interval_ms": (37.0, "best_effort_behind_generic_apps"),
}

FIELDS = {
    f"{config_cls.__name__}.{config_field.name}": (config_cls, config_field)
    for config_cls in (RTMConfig, SimulatorConfig)
    for config_field in dataclasses.fields(config_cls)
}


def _fingerprint(trained, scenario_name: str, rtm=None, simulator=None) -> str:
    if scenario_name == "best_effort_behind_generic_apps":
        scenario = _best_effort_behind_generic_apps(trained)
    else:
        scenario = build_scenario(scenario_name, seed=0)
    manager = RuntimeManager(config=RTMConfig(**(rtm or {})))
    return simulate_scenario(
        scenario, manager, config=SimulatorConfig(**(simulator or {}))
    ).fingerprint()


@pytest.mark.parametrize("name", sorted(set(FIELDS) - EXEMPT))
def test_a_non_default_value_changes_the_fingerprint(name, trained_dnn):
    if name not in PROBES:
        pytest.fail(f"{name} has no liveness probe; add one to PROBES")
    config_cls, config_field = FIELDS[name]
    value, scenario_name = PROBES[name]
    assert value != config_field.default
    key = "rtm" if config_cls is RTMConfig else "simulator"
    changed = _fingerprint(trained_dnn, scenario_name, **{key: {config_field.name: value}})
    assert changed != _fingerprint(trained_dnn, scenario_name), (
        f"{name}={value!r} leaves {scenario_name} unchanged"
    )


def test_every_probe_names_a_field():
    assert set(PROBES) | EXEMPT == set(FIELDS)


class TestBestEffortRetry:
    """The retry path: an unmapped best-effort DNN is re-released every
    ``retry_interval_ms`` and each attempt is dropped until it is mapped."""

    def test_unmapped_releases_retry_at_the_interval(self, trained_dnn):
        trace = simulate_scenario(
            _best_effort_behind_generic_apps(trained_dnn),
            RuntimeManager(),
            config=SimulatorConfig(retry_interval_ms=250.0),
        )
        jobs = trace.jobs_for("dnn1")
        dropped = [job for job in jobs if job.dropped]
        assert [job.release_ms for job in dropped] == [100.0 + 250.0 * k for k in range(6)]
        assert all(job.violations == ("unmapped",) for job in dropped)
        # Once the generic apps leave, the DNN is mapped and runs back to back.
        completed = [job for job in jobs if not job.dropped]
        assert completed and completed[0].release_ms >= 1500.0
