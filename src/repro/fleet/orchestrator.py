"""The global fleet orchestrator: placement, telemetry, eviction, migration.

One :class:`FleetOrchestrator` drives N per-device simulations (each an
existing :class:`~repro.sim.engine.Simulator` / manager pair on a
:data:`~repro.platforms.presets.PLATFORM_REGISTRY` preset) in lock-step
epochs.  Per epoch it:

1. applies churn (failed devices are evacuated and excluded from placement),
2. injects scheduled departures and places newly arriving applications on a
   device chosen by the spec's :class:`~repro.fleet.policies.PlacementPolicy`,
3. advances every device simulator to the epoch boundary (canonical order),
4. samples per-device telemetry off state the simulators already maintain,
5. evicts one application per overloaded or degraded device and migrates it
   — an injected departure on the source plus a delayed injected arrival on
   the target, ``migration_latency_ms`` later — under a fleet-wide per-epoch
   cap.

Determinism: devices are created, advanced and inspected in canonical order
(sorted preset, then index), policies tie-break on device id, and all
injections go through the event queue's (time, priority, sequence) ordering —
so the fleet fingerprint is independent of device-table insertion order and
bit-identical between the two execution backends: ``batched`` (the default)
shares one set of memo stores fleet-wide, exactly like
:class:`~repro.sim.batched.BatchedEngine`, and ``serial`` gives every device
private stores, as a lone run has.

Memory: building the devices and running the fleet suspend the cyclic garbage
collector (:func:`~repro.sim.batched.gc_suspended`) on both backends, as a
batch does.  Every device simulator is a reference cycle that stays live for
the whole run, so a collection during either phase scans all N of them and
frees none; the collector's prior state is restored on return or raise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.dnn.training import IncrementalTrainer, TrainedDynamicDNN
from repro.dnn.zoo import make_dynamic_cifar_dnn
from repro.experiments.managers import make_manager
from repro.fleet.policies import DeviceTelemetry, PlacementPolicy, make_fleet_policy
from repro.fleet.scenarios import FleetAppTemplate, FleetScenario, build_fleet_scenario
from repro.fleet.spec import FleetSpec
from repro.platforms.presets import build_preset
from repro.sim.batched import gc_suspended
from repro.sim.engine import SharedSimulationStores, Simulator
from repro.sim.faults import CoreFailure, CoreRecovery, FaultPlan, FrequencyCap
from repro.sim.trace import SimulationTrace, fingerprints
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import Scenario
from repro.workloads.tasks import make_background_application, make_dnn_application

__all__ = [
    "FLEET_BACKENDS",
    "FleetOrchestrator",
    "FleetResult",
    "MigrationRecord",
    "run_fleet",
]

#: Execution backends a fleet can run on: memo stores private to each device
#: or shared fleet-wide.
FLEET_BACKENDS = ("serial", "batched")

#: Devices with fewer recent jobs than this are never flagged as overloaded
#: (a violation rate over two jobs is noise, not load).
_MIN_JOBS_FOR_EVICTION = 4


@dataclass(frozen=True)
class MigrationRecord:
    """One app moved (or evacuated) from a source device to a target."""

    time_ms: float
    app_id: str
    source: str
    target: str
    reason: str  # "overload", "degraded", or "churn"
    arrival_ms: float  # time_ms + migration latency

    def to_dict(self) -> Dict[str, object]:
        return {
            "time_ms": self.time_ms,
            "app_id": self.app_id,
            "source": self.source,
            "target": self.target,
            "reason": self.reason,
            "arrival_ms": self.arrival_ms,
        }


@dataclass
class _AppState:
    """Orchestrator-side bookkeeping for one workload-stream application."""

    template: FleetAppTemplate
    status: str = "pending"  # pending | resident | migrating | departed | rejected
    device_id: Optional[str] = None  # current (or last) host
    target_id: Optional[str] = None  # migration target while migrating
    pending_arrival_ms: Optional[float] = None
    migrations: int = 0


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    ``traces`` holds the full per-device traces (dropped from the store
    payload, which keeps only the aggregates and the migration log).
    """

    spec: FleetSpec
    backend: str
    device_ids: List[str]
    device_metrics: Dict[str, Dict[str, object]]
    migrations: List[MigrationRecord]
    app_counts: Dict[str, int]
    traces: Dict[str, SimulationTrace] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.spec.label

    def fleet_id(self) -> str:
        return self.spec.fleet_id()

    # ------------------------------------------------------------ aggregates

    def total_jobs(self) -> int:
        return sum(int(m["jobs"]) for m in self.device_metrics.values())

    def violation_rate(self) -> float:
        """Fleet-wide fraction of jobs that violated a requirement or dropped."""
        jobs = self.total_jobs()
        bad = sum(int(m["bad_jobs"]) for m in self.device_metrics.values())
        return bad / jobs if jobs else 0.0

    def total_energy_mj(self) -> float:
        return float(sum(float(m["energy_mj"]) for m in self.device_metrics.values()))

    def fingerprint(self) -> str:
        """Order-independent digest of the whole fleet run.

        sha256 (16 hex) over the sorted (device id, per-device trace
        fingerprint) pairs, the migration log and the app accounting —
        independent of device-table insertion order, identical between
        serial and batched execution.
        """
        digest = hashlib.sha256()
        for device_id in sorted(self.device_metrics):
            fingerprint = self.device_metrics[device_id]["fingerprint"]
            digest.update(f"{device_id}:{fingerprint}\n".encode("utf-8"))
        for record in self.migrations:
            digest.update(
                (
                    f"{round(record.time_ms, 6)}:{record.app_id}:{record.source}:"
                    f"{record.target}:{record.reason}:{round(record.arrival_ms, 6)}\n"
                ).encode("utf-8")
            )
        for key in sorted(self.app_counts):
            digest.update(f"{key}={self.app_counts[key]}\n".encode("utf-8"))
        return digest.hexdigest()[:16]

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready aggregate document (what the results store keeps)."""
        return {
            "fleet_id": self.fleet_id(),
            "label": self.label,
            "spec": self.spec.to_dict(),
            "backend": self.backend,
            "devices": len(self.device_ids),
            "fingerprint": self.fingerprint(),
            "violation_rate": self.violation_rate(),
            "total_jobs": self.total_jobs(),
            "total_energy_mj": self.total_energy_mj(),
            "migrations": [record.to_dict() for record in self.migrations],
            "app_counts": dict(self.app_counts),
            "device_metrics": {
                device_id: dict(metrics)
                for device_id, metrics in sorted(self.device_metrics.items())
            },
        }


class FleetOrchestrator:
    """Drive one fleet run: N device simulators under one placement policy."""

    def __init__(
        self,
        spec: FleetSpec,
        backend: str = "batched",
        trained: Optional[TrainedDynamicDNN] = None,
    ) -> None:
        if backend not in FLEET_BACKENDS:
            raise ValueError(
                f"unknown fleet backend {backend!r}; available: {', '.join(FLEET_BACKENDS)}"
            )
        self.spec = spec.validate()
        self.backend = backend
        self.scenario: FleetScenario = build_fleet_scenario(
            spec.scenario, seed=spec.seed, devices=spec.devices or None
        )
        # One trained model for the whole fleet (the WorkloadGenerator
        # idiom) saves N-1 simulated training runs.  Models are values: each
        # device's simulator keeps its own width, so the DNN apps of one
        # device co-scale and devices share nothing.
        self._trained = trained if trained is not None else (
            IncrementalTrainer().train(make_dynamic_cifar_dnn())
        )
        self.policy: PlacementPolicy = make_fleet_policy(
            spec.policy, spec.policy_params
        )
        self._stores: Optional[SharedSimulationStores] = (
            SharedSimulationStores() if backend == "batched" else None
        )
        with gc_suspended():
            self._build_devices()

    # ---------------------------------------------------------- construction

    def _build_devices(self) -> None:
        """Create the canonical device list and one simulator per device."""
        scenario = self.scenario
        width = max(4, len(str(scenario.total_devices)))
        self.device_ids: List[str] = []
        self._preset_of: Dict[str, str] = {}
        for preset, count in scenario.devices:  # already sorted by preset
            for index in range(count):
                device_id = f"{preset}-{index:0{width}d}"
                self.device_ids.append(device_id)
                self._preset_of[device_id] = preset

        # Per-device fault timelines from the fleet scenario: stragglers are
        # frequency caps from t=0; churn is all-cores failure/recovery.
        cluster_shapes: Dict[str, List[Tuple[str, int, float]]] = {}
        for preset, _ in scenario.devices:
            if preset not in cluster_shapes:
                soc = build_preset(preset)
                cluster_shapes[preset] = [
                    (c.name, c.num_cores, c.opp_table.max_frequency_mhz)
                    for c in soc.clusters
                ]
        fault_events: Dict[str, List[object]] = {d: [] for d in self.device_ids}
        for device_index in scenario.stragglers:
            device_id = self.device_ids[device_index]
            for name, _, max_mhz in cluster_shapes[self._preset_of[device_id]]:
                fault_events[device_id].append(
                    FrequencyCap(
                        time_ms=0.0,
                        cluster=name,
                        max_frequency_mhz=scenario.straggler_cap_fraction * max_mhz,
                    )
                )
        for event in scenario.churn:
            device_id = self.device_ids[event.device_index]
            cls = CoreFailure if event.kind == "down" else CoreRecovery
            for name, cores, _ in cluster_shapes[self._preset_of[device_id]]:
                fault_events[device_id].append(
                    cls(time_ms=event.time_ms, cluster=name, cores=cores)
                )

        self.simulators: Dict[str, Simulator] = {}
        for device_id in self.device_ids:
            preset = self._preset_of[device_id]
            device_scenario = Scenario(
                name=f"{scenario.name}:{device_id}",
                platform_name=preset,
                applications=[],
                duration_ms=scenario.duration_ms,
                fault_plan=(
                    FaultPlan(events=tuple(fault_events[device_id]))
                    if fault_events[device_id]
                    else None
                ),
            )
            manager = make_manager(self.spec.manager)
            simulator = Simulator(device_scenario, manager, stores=self._stores)
            simulator.prime()
            self.simulators[device_id] = simulator

        self.policy.bind(self.device_ids)
        self._eligible: Dict[str, bool] = {d: True for d in self.device_ids}
        self._assigned: Dict[str, int] = {d: 0 for d in self.device_ids}
        self._job_cursor: Dict[str, int] = {d: 0 for d in self.device_ids}
        self._total_cores: Dict[str, int] = {
            d: sum(c.num_cores for c in self.simulators[d].soc.clusters)
            for d in self.device_ids
        }
        self._telemetry: Dict[str, DeviceTelemetry] = {
            d: self._sample_device(d, 0.0)[0] for d in self.device_ids
        }
        self._refresh_candidates()
        # In app-id order, which _resident_on relies on; every other reader
        # sorts for itself or is order-free.
        self._apps: Dict[str, _AppState] = {
            t.app_id: _AppState(template=t)
            for t in sorted(self.scenario.arrivals, key=lambda t: t.app_id)
        }
        self.migrations: List[MigrationRecord] = []
        self._rejected = 0

    # -------------------------------------------------------------- telemetry

    def _sample_device(self, device_id: str, time_ms: float) -> Tuple[DeviceTelemetry, Dict[str, int]]:
        """One telemetry snapshot plus this window's per-app violation counts."""
        simulator = self.simulators[device_id]
        jobs = simulator.trace.jobs
        window_jobs = jobs[self._job_cursor[device_id]:]
        self._job_cursor[device_id] = len(jobs)
        bad_by_app: Dict[str, int] = {}
        bad = 0
        for job in window_jobs:
            if not job.met_requirements:
                bad += 1
                bad_by_app[job.app_id] = bad_by_app.get(job.app_id, 0) + 1
        utilisations = simulator._last_utilisations
        utilisation = (
            sum(utilisations.values()) / len(utilisations) if utilisations else 0.0
        )
        thermal = simulator.soc.thermal
        telemetry = DeviceTelemetry(
            device_id=device_id,
            preset=self._preset_of[device_id],
            time_ms=time_ms,
            assigned_apps=self._assigned[device_id],
            online_cores=sum(
                len(cluster.online_cores) for cluster in simulator.soc.clusters
            ),
            total_cores=self._total_cores[device_id],
            utilisation=utilisation,
            thermal_headroom_c=thermal.params.throttle_threshold_c - thermal.temperature_c,
            recent_violation_rate=bad / len(window_jobs) if window_jobs else 0.0,
            recent_jobs=len(window_jobs),
            eligible=self._eligible[device_id],
        )
        return telemetry, bad_by_app

    def _adjust_assigned(self, device_id: str, delta: int) -> None:
        """Keep the assigned-app count and the live telemetry snapshot in
        sync, so load-aware policies see placements made earlier in the same
        epoch window."""
        self._assigned[device_id] += delta
        self._telemetry[device_id].set_assigned(self._assigned[device_id])

    def _refresh_candidates(self) -> None:
        """Rebuild the eligible snapshots, canonical order, as one tuple.

        Called whenever the set changes: after each telemetry resample (which
        replaces every snapshot object) and when churn flips a device's
        eligibility.  In between, placements update the snapshots in place.
        """
        self._eligible_telemetry: Tuple[DeviceTelemetry, ...] = tuple(
            self._telemetry[d] for d in self.device_ids if self._eligible[d]
        )

    def _candidates(self, exclude: Collection[str] = ()) -> Sequence[DeviceTelemetry]:
        """Eligible devices in canonical order, minus ``exclude``.

        Without exclusions this is the shared tuple itself, not a copy.
        """
        if not exclude:
            return self._eligible_telemetry
        return [t for t in self._eligible_telemetry if t.device_id not in exclude]

    # -------------------------------------------------------------- placement

    def _materialise(self, template: FleetAppTemplate, arrival_ms: float):
        if template.kind == "dnn":
            return make_dnn_application(
                template.app_id,
                self._trained,
                Requirements(
                    target_fps=template.target_fps,
                    min_accuracy_percent=template.min_accuracy_percent,
                    priority=template.priority,
                ),
                arrival_time_ms=arrival_ms,
            )
        return make_background_application(
            template.app_id,
            cores=template.cores,
            utilisation=template.utilisation,
            arrival_time_ms=arrival_ms,
        )

    def _place_new(self, state: _AppState) -> None:
        template = state.template
        target = self.policy.place(template.app_id, self._candidates())
        if target is None:
            state.status = "rejected"
            self._rejected += 1
            return
        self.simulators[target].inject_arrival(
            self._materialise(template, template.arrival_ms), template.arrival_ms
        )
        state.status = "resident"
        state.device_id = target
        self._adjust_assigned(target, +1)

    def _migrate(self, state: _AppState, time_ms: float, target: str, reason: str) -> None:
        source = state.device_id
        assert source is not None
        arrival_ms = time_ms + self.spec.migration_latency_ms
        self.simulators[source].inject_departure(state.template.app_id, time_ms)
        self.simulators[target].inject_arrival(
            self._materialise(state.template, arrival_ms), arrival_ms
        )
        self._adjust_assigned(source, -1)
        self._adjust_assigned(target, +1)
        state.status = "migrating"
        state.target_id = target
        state.pending_arrival_ms = arrival_ms
        state.migrations += 1
        self.migrations.append(
            MigrationRecord(
                time_ms=time_ms,
                app_id=state.template.app_id,
                source=source,
                target=target,
                reason=reason,
                arrival_ms=arrival_ms,
            )
        )

    def _depart(self, state: _AppState, time_ms: float) -> None:
        if state.status == "resident":
            assert state.device_id is not None
            self.simulators[state.device_id].inject_departure(
                state.template.app_id, time_ms
            )
            self._adjust_assigned(state.device_id, -1)
        elif state.status == "migrating":
            # The app leaves the fleet mid-migration: cancel on the target
            # once (if ever) it lands there.  The injected departure is a
            # no-op when the arrival never fires (beyond the horizon).
            assert state.target_id is not None
            when = max(time_ms, state.pending_arrival_ms or time_ms)
            self.simulators[state.target_id].inject_departure(
                state.template.app_id, when
            )
            self._adjust_assigned(state.target_id, -1)
        state.status = "departed"

    # ------------------------------------------------------------------- run

    def run(self) -> FleetResult:
        """Execute the fleet run and return the aggregated result.

        The cyclic garbage collector is suspended for the run, as it is while
        the devices are built: every device simulator is a reference cycle
        that stays live until the run ends, so a collection mid-run scans
        every device and frees none.  Its prior state is restored on return
        or raise.
        """
        with gc_suspended():
            return self._run()

    def _run(self) -> FleetResult:
        spec = self.spec
        duration = self.scenario.duration_ms
        arrivals = sorted(
            self._apps.values(), key=lambda s: (s.template.arrival_ms, s.template.app_id)
        )
        departures = sorted(
            (s for s in self._apps.values() if s.template.departure_ms is not None),
            key=lambda s: (s.template.departure_ms, s.template.app_id),
        )
        churn = sorted(
            self.scenario.churn, key=lambda e: (e.time_ms, e.device_index, e.kind)
        )
        arrival_pos = departure_pos = churn_pos = 0

        now = 0.0
        while now < duration:
            window_end = min(now + spec.epoch_ms, duration)

            # 1. Churn falling in [now, window_end): update eligibility and,
            # for rebalancing policies, evacuate the dying device.
            while churn_pos < len(churn) and churn[churn_pos].time_ms < window_end:
                event = churn[churn_pos]
                churn_pos += 1
                device_id = self.device_ids[event.device_index]
                eligible = event.kind == "up"
                if self._eligible[device_id] != eligible:
                    self._eligible[device_id] = eligible
                    self._telemetry[device_id].eligible = eligible
                    self._refresh_candidates()
                if event.kind == "down" and self.policy.rebalances:
                    for state in self._resident_on(device_id):
                        target = self.policy.place(
                            state.template.app_id, self._candidates(exclude={device_id})
                        )
                        if target is not None:
                            self._migrate(state, event.time_ms, target, reason="churn")

            # 2. Scheduled departures in [now, window_end).
            while (
                departure_pos < len(departures)
                and departures[departure_pos].template.departure_ms < window_end
            ):
                state = departures[departure_pos]
                departure_pos += 1
                if state.status in ("resident", "migrating"):
                    self._depart(state, state.template.departure_ms)

            # 3. New arrivals in [now, window_end): place via the policy.
            while (
                arrival_pos < len(arrivals)
                and arrivals[arrival_pos].template.arrival_ms < window_end
            ):
                state = arrivals[arrival_pos]
                arrival_pos += 1
                if state.status == "pending":
                    self._place_new(state)

            # 4. Advance every device to the epoch boundary, canonical order.
            for device_id in self.device_ids:
                self.simulators[device_id].advance_to(window_end)

            # 5. Migrations whose delayed arrival landed become resident.
            for state in self._apps.values():
                if (
                    state.status == "migrating"
                    and state.pending_arrival_ms is not None
                    and state.pending_arrival_ms <= window_end
                ):
                    state.status = "resident"
                    state.device_id = state.target_id
                    state.target_id = None
                    state.pending_arrival_ms = None

            # 6. Telemetry at the boundary: new snapshot objects, so the
            # candidate tuple is rebuilt over them.
            bad_by_device: Dict[str, Dict[str, int]] = {}
            for device_id in self.device_ids:
                telemetry, bad_by_app = self._sample_device(device_id, window_end)
                self._telemetry[device_id] = telemetry
                bad_by_device[device_id] = bad_by_app
            self._refresh_candidates()

            # 7. Evict/rebalance off overloaded or degraded devices.
            if self.policy.rebalances and window_end < duration:
                self._rebalance(window_end, bad_by_device)

            now = window_end

        return self._collect()

    def _resident_on(self, device_id: str) -> List[_AppState]:
        """Resident, migratable (DNN) apps on a device, in app-id order."""
        return [
            state
            for state in self._apps.values()
            if state.status == "resident"
            and state.device_id == device_id
            and state.template.kind == "dnn"
        ]

    def _rebalance(self, time_ms: float, bad_by_device: Dict[str, Dict[str, int]]) -> None:
        spec = self.spec
        flagged = [
            device_id
            for device_id in self.device_ids
            if self._eligible[device_id]
            and (
                (
                    self._telemetry[device_id].recent_jobs >= _MIN_JOBS_FOR_EVICTION
                    and self._telemetry[device_id].recent_violation_rate
                    > spec.evict_violation_threshold
                )
                or self._telemetry[device_id].degraded
            )
        ]
        if not flagged:
            return
        # Targets: eligible devices that are not flagged themselves (every
        # source is flagged).  Migrations only update snapshots in place, so
        # one copy serves the whole loop.
        candidates = self._candidates(exclude=set(flagged))
        budget = spec.max_migrations_per_epoch
        for device_id in flagged:
            if budget <= 0:
                break
            horizon = time_ms + spec.migration_latency_ms + spec.epoch_ms
            victims = [
                state
                for state in self._resident_on(device_id)
                if state.template.departure_ms is None
                or state.template.departure_ms > horizon
            ]
            if not victims:
                continue
            bad_by_app = bad_by_device.get(device_id, {})
            victims.sort(
                key=lambda s: (-bad_by_app.get(s.template.app_id, 0), s.template.app_id)
            )
            victim = victims[0]
            target = self.policy.place(victim.template.app_id, candidates)
            if target is None:
                continue
            reason = "degraded" if self._telemetry[device_id].degraded else "overload"
            self._migrate(victim, time_ms, target, reason=reason)
            budget -= 1

    # --------------------------------------------------------------- results

    def _collect(self) -> FleetResult:
        device_metrics: Dict[str, Dict[str, object]] = {}
        traces: Dict[str, SimulationTrace] = {}
        inbound: Dict[str, int] = {d: 0 for d in self.device_ids}
        outbound: Dict[str, int] = {d: 0 for d in self.device_ids}
        for record in self.migrations:
            outbound[record.source] += 1
            inbound[record.target] += 1
        for device_id in self.device_ids:
            traces[device_id] = self.simulators[device_id].trace
        # One pass over every device's trace: a device's trace is too short
        # to amortise the fingerprint kernel's numpy calls on its own.
        digests = fingerprints(list(traces.values()))
        for device_id, fingerprint in zip(self.device_ids, digests):
            trace = traces[device_id]
            jobs = len(trace.jobs)
            bad = sum(1 for job in trace.jobs if not job.met_requirements)
            device_metrics[device_id] = {
                "preset": self._preset_of[device_id],
                "fingerprint": fingerprint,
                "jobs": jobs,
                "bad_jobs": bad,
                "violation_rate": bad / jobs if jobs else 0.0,
                "energy_mj": trace.total_energy_mj(),
                "migrations_in": inbound[device_id],
                "migrations_out": outbound[device_id],
            }
        statuses = [state.status for state in self._apps.values()]
        by_status = {status: statuses.count(status) for status in set(statuses)}
        arrived = len(statuses) - by_status.get("pending", 0)
        app_counts = {
            "arrived": arrived,
            "placed": arrived - self._rejected,
            "rejected": self._rejected,
            "departed": by_status.get("departed", 0),
            "resident": by_status.get("resident", 0),
            "in_migration": by_status.get("migrating", 0),
        }
        return FleetResult(
            spec=self.spec,
            backend=self.backend,
            device_ids=list(self.device_ids),
            device_metrics=device_metrics,
            migrations=list(self.migrations),
            app_counts=app_counts,
            traces=traces,
        )


def run_fleet(
    spec: FleetSpec,
    backend: str = "batched",
    trained: Optional[TrainedDynamicDNN] = None,
) -> FleetResult:
    """Run one fleet spec end to end and return its :class:`FleetResult`."""
    return FleetOrchestrator(spec, backend=backend, trained=trained).run()
