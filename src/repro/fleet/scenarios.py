"""Fleet scenarios: device mixes, workload streams, churn and stragglers.

A :class:`FleetScenario` is to the fleet what a
:class:`~repro.workloads.scenarios.Scenario` is to one device: the complete,
deterministic description of what happens — which platform presets make up
the fleet, which applications arrive when (as templates the orchestrator
materialises on whatever device the placement policy picks), which devices
go down and come back (churn), and which devices run permanently slow
(stragglers, modelled as frequency caps through the fault-injection layer).

Builders are seeded and registered in :data:`FLEET_SCENARIO_REGISTRY`; the
workload stream scales with the fleet's device count, so the same scenario
name describes a 12-device test fleet and a 1000-device benchmark fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.registry import Registry

__all__ = [
    "FleetAppTemplate",
    "DeviceChurnEvent",
    "FleetScenario",
    "FLEET_SCENARIO_REGISTRY",
    "register_fleet_scenario",
    "build_fleet_scenario",
    "fleet_scenario_summaries",
]


@dataclass(frozen=True)
class FleetAppTemplate:
    """One application of the fleet workload stream, before placement.

    Templates carry requirement numbers, not Application objects: the
    orchestrator materialises a fresh application (with the correct
    arrival time) each time the template is placed or migrated.
    """

    app_id: str
    kind: str  # "dnn" or "background"
    arrival_ms: float
    departure_ms: Optional[float] = None
    target_fps: float = 10.0
    min_accuracy_percent: float = 60.0
    priority: int = 5
    cores: int = 1
    utilisation: float = 0.6

    def __post_init__(self) -> None:
        if self.kind not in ("dnn", "background"):
            raise ValueError(f"unknown fleet app kind {self.kind!r}")
        if self.departure_ms is not None and self.departure_ms <= self.arrival_ms:
            raise ValueError(
                f"app {self.app_id!r}: departure_ms must be after arrival_ms"
            )


@dataclass(frozen=True)
class DeviceChurnEvent:
    """One device going down (all cores fail) or coming back up."""

    time_ms: float
    device_index: int  # index into the fleet's canonical device order
    kind: str  # "down" or "up"

    def __post_init__(self) -> None:
        if self.kind not in ("down", "up"):
            raise ValueError(f"unknown churn kind {self.kind!r}")


@dataclass(frozen=True)
class FleetScenario:
    """A device mix, a workload stream, and a timeline of fleet events."""

    name: str
    devices: Tuple[Tuple[str, int], ...]  # (preset, count), sorted by preset
    duration_ms: float
    arrivals: Tuple[FleetAppTemplate, ...]
    churn: Tuple[DeviceChurnEvent, ...] = ()
    stragglers: Tuple[int, ...] = ()  # canonical device indices
    straggler_cap_fraction: float = 0.5
    description: str = ""

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        object.__setattr__(
            self, "devices", tuple(sorted((str(p), int(c)) for p, c in self.devices))
        )
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        object.__setattr__(self, "churn", tuple(self.churn))
        object.__setattr__(self, "stragglers", tuple(sorted(self.stragglers)))
        ids = [template.app_id for template in self.arrivals]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate app ids in fleet scenario {self.name!r}")

    @property
    def total_devices(self) -> int:
        return sum(count for _, count in self.devices)


#: Fleet-scenario builders, ``(seed, devices) -> FleetScenario``.
FLEET_SCENARIO_REGISTRY: Registry[FleetScenario] = Registry("fleet scenario")


def register_fleet_scenario(name: str, **metadata: object) -> Callable:
    """Decorator registering a seeded fleet-scenario builder."""
    return FLEET_SCENARIO_REGISTRY.register(name, **metadata)


def build_fleet_scenario(
    name: str, seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """Build a registered fleet scenario at ``seed``.

    ``devices`` overrides the scenario's default preset → count mix; the
    workload stream, churn and straggler draws scale with the resulting
    device count, so overrides keep the scenario's character at any size.
    """
    builder = FLEET_SCENARIO_REGISTRY.get(name)
    return builder(seed=seed, devices=devices)


def fleet_scenario_summaries() -> List[Tuple[str, str]]:
    """(name, summary) pairs for every registered fleet scenario."""
    return [(entry.name, entry.summary) for entry in FLEET_SCENARIO_REGISTRY.list()]


# ------------------------------------------------------------- stream helpers


def _mix(devices: Optional[Dict[str, int]], default: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    table = devices if devices else default
    if not table:
        raise ValueError("a fleet scenario needs at least one device")
    return tuple(sorted((str(p), int(c)) for p, c in table.items()))


def _dnn_templates(
    rng: np.random.Generator,
    count: int,
    prefix: str,
    window: Tuple[float, float],
    duration_ms: float,
    depart_fraction: float = 0.0,
) -> List[FleetAppTemplate]:
    """Seeded DNN app templates with arrivals uniform in ``window``.

    Draw order is fixed (arrival, fps, accuracy, priority, departure) so
    streams are reproducible for a given seed and count.
    """
    templates: List[FleetAppTemplate] = []
    for index in range(count):
        arrival = float(round(rng.uniform(window[0], window[1]), 1))
        fps = float(rng.choice([5.0, 8.0, 10.0, 12.0]))
        accuracy = float(rng.choice([50.0, 55.0, 60.0, 65.0]))
        priority = int(rng.integers(1, 6))
        departure: Optional[float] = None
        if depart_fraction > 0.0 and rng.random() < depart_fraction:
            departure = float(round(rng.uniform(0.75 * duration_ms, duration_ms), 1))
            departure = max(departure, arrival + 100.0)
        templates.append(
            FleetAppTemplate(
                app_id=f"{prefix}-{index:04d}",
                kind="dnn",
                arrival_ms=arrival,
                departure_ms=departure,
                target_fps=fps,
                min_accuracy_percent=accuracy,
                priority=priority,
            )
        )
    return templates


def _background_templates(
    rng: np.random.Generator,
    count: int,
    prefix: str,
    window: Tuple[float, float],
) -> List[FleetAppTemplate]:
    return [
        FleetAppTemplate(
            app_id=f"{prefix}-{index:04d}",
            kind="background",
            arrival_ms=float(round(rng.uniform(window[0], window[1]), 1)),
            cores=int(rng.integers(1, 3)),
            utilisation=float(round(rng.uniform(0.3, 0.7), 2)),
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------- scenarios


@register_fleet_scenario(
    "fleet_rush_hour_regional",
    seeded=True,
    summary="A regional rush: a burst of DNN arrivals mid-run overloads hash-placed devices.",
)
def fleet_rush_hour_regional(
    seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """The fleet analogue of ``rush_hour``: a mid-run regional arrival burst.

    A light baseline load arrives early; then, in the 25–50% window of the
    timeline, a burst of ~1.5 apps per device arrives within a quarter of
    the run.  Static hash placement piles several burst apps onto the same
    devices while others idle — exactly the imbalance the load-aware
    policies exist to avoid.
    """
    mix = _mix(devices, {"generic_quad": 8, "jetson_nano": 6, "odroid_xu3": 10})
    total = sum(count for _, count in mix)
    duration_ms = 8000.0
    rng = np.random.default_rng(seed)
    arrivals: List[FleetAppTemplate] = []
    arrivals.extend(
        _dnn_templates(rng, max(total // 2, 1), "base", (0.0, 0.25 * duration_ms), duration_ms)
    )
    arrivals.extend(
        _dnn_templates(
            rng,
            max(int(1.5 * total), 2),
            "rush",
            (0.25 * duration_ms, 0.5 * duration_ms),
            duration_ms,
            depart_fraction=0.3,
        )
    )
    arrivals.extend(
        _background_templates(rng, max(total // 4, 1), "bg", (0.0, 0.2 * duration_ms))
    )
    return FleetScenario(
        name="fleet_rush_hour_regional",
        devices=mix,
        duration_ms=duration_ms,
        arrivals=tuple(arrivals),
        description="Mid-run regional arrival burst; load-aware placement pays off.",
    )


@register_fleet_scenario(
    "fleet_device_churn",
    seeded=True,
    summary="A quarter of the fleet goes down mid-run; half of it comes back.",
)
def fleet_device_churn(
    seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """Devices fail (all cores offline) and partially recover.

    Rebalancing policies evacuate apps off dying devices; static placement
    leaves them stranded, dropping every job until recovery (if any).
    """
    mix = _mix(devices, {"generic_quad": 6, "odroid_xu3": 6})
    total = sum(count for _, count in mix)
    duration_ms = 8000.0
    rng = np.random.default_rng(seed)
    arrivals = _dnn_templates(rng, max(total, 2), "app", (0.0, 0.4 * duration_ms), duration_ms)
    down_count = max(total // 4, 1)
    down_indices = sorted(int(i) for i in rng.choice(total, size=down_count, replace=False))
    churn: List[DeviceChurnEvent] = []
    for position, device_index in enumerate(down_indices):
        down_at = float(round(rng.uniform(0.3 * duration_ms, 0.5 * duration_ms), 1))
        churn.append(DeviceChurnEvent(down_at, device_index, "down"))
        if position % 2 == 0:  # half the casualties come back
            up_at = float(round(rng.uniform(0.7 * duration_ms, 0.85 * duration_ms), 1))
            churn.append(DeviceChurnEvent(up_at, device_index, "up"))
    return FleetScenario(
        name="fleet_device_churn",
        devices=mix,
        duration_ms=duration_ms,
        arrivals=tuple(arrivals),
        churn=tuple(churn),
        description="Mid-run device failures with partial recovery.",
    )


@register_fleet_scenario(
    "fleet_stragglers",
    seeded=True,
    summary="A quarter of the fleet runs frequency-capped; their apps violate until moved.",
)
def fleet_stragglers(
    seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """Some devices are permanently slow (thermal paste, binning, bad PMIC).

    Stragglers carry a frequency cap on every cluster from t=0 through the
    fault-injection layer; telemetry shows their violation rates climbing
    and rebalancing policies migrate apps off them.
    """
    mix = _mix(devices, {"generic_quad": 8, "jetson_nano": 4})
    total = sum(count for _, count in mix)
    duration_ms = 6000.0
    rng = np.random.default_rng(seed)
    arrivals = _dnn_templates(
        rng, max(int(1.2 * total), 2), "app", (0.0, 0.4 * duration_ms), duration_ms
    )
    straggler_count = max(total // 4, 1)
    stragglers = tuple(
        sorted(int(i) for i in rng.choice(total, size=straggler_count, replace=False))
    )
    return FleetScenario(
        name="fleet_stragglers",
        devices=mix,
        duration_ms=duration_ms,
        arrivals=tuple(arrivals),
        stragglers=stragglers,
        straggler_cap_fraction=0.4,
        description="Permanently slow devices; placement should route around them.",
    )


@register_fleet_scenario(
    "fleet_mixed_platforms",
    seeded=True,
    summary="Every platform preset in one fleet under a steady arrival stream.",
)
def fleet_mixed_platforms(
    seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """The full heterogeneous zoo: every preset, steady mixed workload."""
    mix = _mix(
        devices,
        {
            "a13_like": 2,
            "generic_quad": 3,
            "jetson_nano": 3,
            "kirin990_like": 2,
            "odroid_xu3": 3,
        },
    )
    total = sum(count for _, count in mix)
    duration_ms = 6000.0
    rng = np.random.default_rng(seed)
    arrivals: List[FleetAppTemplate] = []
    arrivals.extend(
        _dnn_templates(rng, max(total, 2), "dnn", (0.0, 0.6 * duration_ms), duration_ms)
    )
    arrivals.extend(
        _background_templates(rng, max(total // 3, 1), "bg", (0.0, 0.5 * duration_ms))
    )
    return FleetScenario(
        name="fleet_mixed_platforms",
        devices=mix,
        duration_ms=duration_ms,
        arrivals=tuple(arrivals),
        description="Heterogeneous presets under a steady mixed stream.",
    )


@register_fleet_scenario(
    "fleet_diurnal",
    seeded=True,
    summary="A compressed diurnal day: sinusoidal load plus a flash crowd over the fleet.",
)
def fleet_diurnal(
    seed: int = 0, devices: Optional[Dict[str, int]] = None
) -> FleetScenario:
    """Population traffic on a fleet: the diurnal model's stream, placed on devices.

    One full day/night cycle is compressed into the run (the sinusoid's
    period equals the duration) with a single flash crowd, using the same
    inhomogeneous-Poisson generator that writes million-arrival trace files
    (:mod:`repro.workloads.diurnal`) — so the fleet layer sees the identical
    traffic *shape* the single-device pipeline records and replays.  The
    arrival volume scales with the device count (~1.5 apps per device).
    """
    from repro.workloads.diurnal import DiurnalConfig, DiurnalTraffic

    mix = _mix(devices, {"generic_quad": 6, "jetson_nano": 4, "odroid_xu3": 6})
    total = sum(count for _, count in mix)
    duration_ms = 8000.0
    config = DiurnalConfig(
        duration_ms=duration_ms,
        base_rate_per_s=1.5 * total / (duration_ms / 1000.0),
        diurnal_amplitude=0.6,
        period_ms=duration_ms,
        flash_crowds=1,
        flash_magnitude=3.0,
        flash_duration_fraction=0.1,
        num_archetypes=4,
        dnn_fraction=0.75,
    )
    traffic = DiurnalTraffic(config, seed=seed)
    arrivals: List[FleetAppTemplate] = []
    for _, record in traffic.iter_records():
        requirements = record.get("requirements") or {}
        if record["kind"] == "dnn_inference":
            arrivals.append(
                FleetAppTemplate(
                    app_id=str(record["app_id"]),
                    kind="dnn",
                    arrival_ms=float(record["arrival_ms"]),
                    departure_ms=float(record["departure_ms"]),
                    target_fps=float(requirements.get("target_fps", 10.0)),
                    min_accuracy_percent=float(
                        requirements.get("min_accuracy_percent", 60.0)
                    ),
                    priority=int(requirements.get("priority", 5)),
                )
            )
        else:
            demand = record.get("demand") or {}
            arrivals.append(
                FleetAppTemplate(
                    app_id=str(record["app_id"]),
                    kind="background",
                    arrival_ms=float(record["arrival_ms"]),
                    departure_ms=float(record["departure_ms"]),
                    cores=int(demand.get("cores", 1)),
                    utilisation=float(demand.get("utilisation", 0.6)),
                )
            )
    return FleetScenario(
        name="fleet_diurnal",
        devices=mix,
        duration_ms=duration_ms,
        arrivals=tuple(arrivals),
        description="Compressed day/night cycle with one flash crowd over the fleet.",
    )
