"""Fleet placement policies and the telemetry they consume.

The orchestrator samples one :class:`DeviceTelemetry` snapshot per device per
epoch (utilisation, thermal headroom, recent violation rate, online cores —
all read off state the per-device simulators already maintain) and asks a
:class:`PlacementPolicy` where to put each arriving or migrating application.

Policies are registered in :data:`FLEET_POLICY_REGISTRY` like every other
component family.  ``static`` is the no-orchestrator baseline: a pure content
hash of the app id over the whole device table, never rebalanced — the
descheduler-style policies are measured against it.

Determinism contract: policies see candidate devices in canonical order
(sorted by device id) and must break every tie on device id, so placement
never depends on device-table insertion order, wall clock or hash seeds.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.registry import Registry

__all__ = [
    "DeviceTelemetry",
    "PlacementPolicy",
    "FLEET_POLICY_REGISTRY",
    "make_fleet_policy",
]


@dataclass
class DeviceTelemetry:
    """One per-epoch telemetry snapshot of one device.

    ``assigned_apps`` counts residents plus in-flight inbound migrations and
    is updated by the orchestrator (through :meth:`set_assigned`) as it
    places apps within an epoch, so load-aware policies see their own
    placements immediately.

    ``load_score`` — apps per online core plus utilisation, the least-loaded
    key — is stored, not derived on read: it is computed when the snapshot is
    built and recomputed by :meth:`set_assigned`, the one writer of
    ``assigned_apps`` after construction.
    """

    device_id: str
    preset: str
    time_ms: float
    assigned_apps: int
    online_cores: int
    total_cores: int
    utilisation: float
    thermal_headroom_c: float
    recent_violation_rate: float
    recent_jobs: int
    eligible: bool = True
    load_score: float = field(init=False)

    def __post_init__(self) -> None:
        self.set_assigned(self.assigned_apps)

    def set_assigned(self, assigned_apps: int) -> None:
        """Set the assigned-app count and recompute ``load_score``."""
        self.assigned_apps = assigned_apps
        self.load_score = assigned_apps / max(self.online_cores, 1) + self.utilisation

    @property
    def degraded(self) -> bool:
        """True when faults have taken cores offline."""
        return self.online_cores < self.total_cores


#: The least-loaded ranking key: stored load score, ties on device id.
_LOAD_KEY = operator.attrgetter("load_score", "device_id")


class PlacementPolicy:
    """Base class for placement policies.

    ``bind`` is called once per run with the fleet's canonical device id
    list (sorted); stateful policies (round-robin cursors, hash rings) key
    off that list, never off telemetry dict order.
    """

    #: Whether the orchestrator runs the evict/rebalance loop for this policy.
    rebalances: bool = True

    def bind(self, device_ids: Sequence[str]) -> None:
        self._device_ids: List[str] = list(device_ids)

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        """Device id to place ``app_id`` on, or None when none is usable.

        ``candidates`` holds the eligible devices in canonical order.  It is
        a read-only sequence, shared by the placements of an epoch.
        """
        raise NotImplementedError


class StaticPlacement(PlacementPolicy):
    """Design-time static placement: hash the app id over the device table.

    The baseline the orchestrated policies are measured against — no
    telemetry, no health checks, no rebalancing, exactly what a fleet
    without an orchestrator does.
    """

    rebalances = False

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        if not self._device_ids:
            return None
        digest = hashlib.sha256(app_id.encode("utf-8")).hexdigest()
        return self._device_ids[int(digest, 16) % len(self._device_ids)]


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through the eligible devices in canonical order."""

    def bind(self, device_ids: Sequence[str]) -> None:
        super().bind(device_ids)
        self._cursor = 0

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        if not candidates:
            return None
        chosen = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return chosen.device_id


class LeastLoadedPlacement(PlacementPolicy):
    """Pick the device with the lowest apps-per-online-core + utilisation.

    Ranks on the stored ``(load_score, device_id)`` pair: one C-level key
    per candidate.
    """

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates, key=_LOAD_KEY).device_id


class ThermalHeadroomPlacement(PlacementPolicy):
    """Among the least-populated devices, pick the coolest.

    Occupancy (assigned app count) is the primary key — temperature is a
    lagging signal, so ranking on headroom alone piles every arrival of an
    epoch onto the one coolest board before it has had a chance to warm up.
    Headroom (bucketed to 0.5 °C) breaks occupancy ties toward the device
    furthest below its throttle threshold.
    """

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        if not candidates:
            return None
        chosen = min(
            candidates,
            key=lambda t: (
                t.assigned_apps,
                -round(t.thermal_headroom_c * 2.0) / 2.0,
                t.device_id,
            ),
        )
        return chosen.device_id


class RandomPlacement(PlacementPolicy):
    """Seeded uniform choice among the eligible devices."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def bind(self, device_ids: Sequence[str]) -> None:
        super().bind(device_ids)
        self._rng = random.Random(self.seed)

    def place(self, app_id: str, candidates: Sequence[DeviceTelemetry]) -> Optional[str]:
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))].device_id


#: Placement-policy factories selectable by name from fleet specs and the CLI.
FLEET_POLICY_REGISTRY: Registry[PlacementPolicy] = Registry("fleet policy")
FLEET_POLICY_REGISTRY.register(
    "static",
    StaticPlacement,
    rebalances=False,
    summary="Hash app ids over the device table; never rebalances (baseline).",
)
FLEET_POLICY_REGISTRY.register(
    "round_robin",
    RoundRobinPlacement,
    rebalances=True,
    summary="Cycle arrivals through the eligible devices in canonical order.",
)
FLEET_POLICY_REGISTRY.register(
    "least_loaded",
    LeastLoadedPlacement,
    rebalances=True,
    summary="Place on the device with the fewest apps per online core.",
)
FLEET_POLICY_REGISTRY.register(
    "thermal_headroom",
    ThermalHeadroomPlacement,
    rebalances=True,
    summary="Place on the device furthest below its throttle threshold.",
)
FLEET_POLICY_REGISTRY.register(
    "random",
    RandomPlacement,
    rebalances=True,
    summary="Seeded uniform choice among the eligible devices.",
)


def make_fleet_policy(name: str, params: Optional[dict] = None) -> PlacementPolicy:
    """Instantiate a registered placement policy by name.

    ``params`` are forwarded to the policy constructor (only ``random``
    accepts any today: its ``seed``).  Raises ``KeyError`` with suggestions
    for unknown names, :class:`TypeError`-derived errors for bad params.
    """
    factory = FLEET_POLICY_REGISTRY.get(name)
    policy = factory(**dict(params or {}))
    policy.rebalances = bool(FLEET_POLICY_REGISTRY.metadata(name).get("rebalances", True))
    return policy
