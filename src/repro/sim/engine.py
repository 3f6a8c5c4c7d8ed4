"""Discrete-event simulator for runtime scenarios.

The simulator executes a :class:`~repro.workloads.scenarios.Scenario` on a
platform model under the control of a runtime manager.  It owns everything the
RTM must not decide by itself: job release and completion, core reservations,
thermal integration, and the bookkeeping of delivered performance.

The manager is pluggable: anything with a ``decide(state) -> decision`` method
(where the decision has an ``actions`` list) can drive the platform.  The
application-aware :class:`~repro.rtm.manager.RuntimeManager` and the baseline
managers in :mod:`repro.baselines` share this interface, so the Fig 2
benchmark and the ablation study replay identical scenarios under different
management schemes.

The hot paths are memoised by value: decision epochs, job networks, costs
and accuracies, online-core counts and per-cluster power constants.  Each
memo replays the float arithmetic of the computation it replaces, so traces
are bit-identical to an unmemoised run (``tests/reference_engine.py`` keeps
those computations as the oracle).  The memos live on
:class:`SharedSimulationStores`: private to one simulator by default, or
passed as ``stores=`` to share decisions and operating points across the
replicas of a batch (:mod:`repro.sim.batched`) or the devices of a fleet
(:mod:`repro.fleet`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp
from typing import Dict, List, Optional, Protocol

from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel, InferenceCost
from repro.platforms.power import ClusterPowerModel
from repro.platforms.soc import Soc
from repro.rtm.cache import OperatingPointCache
from repro.rtm.manager import RuntimeManager
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
from repro.sim.events import EVENT_PRIORITY_STRUCTURAL, EventQueue
from repro.sim.faults import (
    CoreFailure,
    CoreRecovery,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FrequencyCap,
    FrequencyCapRelease,
    SensorBias,
    SensorDropout,
    SensorRestore,
)
from repro.sim.trace import (
    DecisionRecord,
    FaultRecord,
    JobRecord,
    PowerSample,
    SimulationTrace,
)
from repro.workloads.requirements import MetricSample
from repro.workloads.scenarios import Scenario, ScenarioEvent, ScenarioEventKind
from repro.workloads.tasks import Application, DNNApplication, GenericApplication

__all__ = [
    "ManagerProtocol",
    "SharedSimulationStores",
    "SimulatorConfig",
    "Simulator",
    "simulate_scenario",
]


class ManagerProtocol(Protocol):
    """Anything that can make resource-management decisions for the simulator."""

    def decide(self, state: SystemState) -> object:  # pragma: no cover - protocol
        """Return an object with an ``actions`` attribute (list of Action)."""
        ...


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunables of the discrete-event simulation.

    Attributes
    ----------
    decision_interval_ms:
        Period of the runtime manager's decision epochs.
    thermal_sample_interval_ms:
        Period of power/temperature sampling.
    migration_penalty_ms:
        Latency charged to the first job after an application changes cluster.
    max_backlog:
        Released-but-not-started jobs an application may queue before drops.
    busy_utilisation:
        Core utilisation assumed while an inference runs.
    retry_interval_ms:
        Release retry period for best-effort (no target fps) applications
        while they are unmapped.
    """

    decision_interval_ms: float = 500.0
    thermal_sample_interval_ms: float = 100.0
    migration_penalty_ms: float = 20.0
    max_backlog: int = 2
    busy_utilisation: float = 0.95
    retry_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.decision_interval_ms <= 0 or self.thermal_sample_interval_ms <= 0:
            raise ValueError("intervals must be positive")
        if self.migration_penalty_ms < 0:
            raise ValueError("migration_penalty_ms must be non-negative")
        if self.max_backlog < 0:
            raise ValueError("max_backlog must be non-negative")
        if not 0.0 < self.busy_utilisation <= 1.0:
            raise ValueError("busy_utilisation must be in (0, 1]")
        # A non-positive retry interval would let an unmapped best-effort
        # application reschedule itself forever at the same timestamp,
        # livelocking the event loop.
        if self.retry_interval_ms <= 0:
            raise ValueError("retry_interval_ms must be positive")


# --------------------------------------------------------------------- stores


class SharedSimulationStores:
    """Value-keyed memo stores of one or more simulators, plus their counters.

    A simulator built without ``stores=`` gets a private instance; a batch or
    a fleet passes one instance to every replica.  The three operating-point
    stores are the entry dicts of every replica manager's
    :class:`~repro.rtm.cache.OperatingPointCache`, keyed by the cache's own
    complete query keys (model cache key, platform topology key, online
    cores, temperature bucket, ...) — the selection store adds the policy and
    requirements keys and the power cap — and never flushed.  The decision
    store is keyed by (manager behaviour key, decision signature).  The cost
    counters aggregate the simulators' local job-cost memos (those key by
    per-simulator object ids, so their entries are local by construction).
    """

    def __init__(self) -> None:
        self.tables: Dict[tuple, object] = {}
        self.pareto_tables: Dict[tuple, object] = {}
        self.selections: Dict[tuple, object] = {}
        self.decisions: Dict[tuple, tuple] = {}
        #: Shared pricing model for simulators that did not supply their own:
        #: stateless, so one instance serves every replica.
        self.energy_model = EnergyModel(CalibratedLatencyModel())
        self.decision_hits = 0
        self.decision_misses = 0
        self.cost_hits = 0
        self.cost_misses = 0
        self.deduplicated_replicas = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for benchmarks and diagnostics."""
        return {
            "decision_hits": self.decision_hits,
            "decision_misses": self.decision_misses,
            "cost_hits": self.cost_hits,
            "cost_misses": self.cost_misses,
            "deduplicated_replicas": self.deduplicated_replicas,
            "tables": len(self.tables),
            "pareto_tables": len(self.pareto_tables),
            "selections": len(self.selections),
        }


@dataclass(slots=True)
class _DNNRuntime:
    """Simulator-internal bookkeeping for one DNN application.

    One runtime per residency: a re-arrival after a departure gets a fresh
    one.  Every release, completion and crash event carries the runtime that
    scheduled it and is dropped once that runtime is no longer the
    application's current one, so a departed residency's pending events
    never act on its successor.
    """

    job_index: int = 0
    busy: bool = False
    backlog: int = 0
    pending_penalty_ms: float = 0.0
    current_release_ms: float = 0.0
    current_start_ms: float = 0.0
    current_cluster: str = ""
    current_cores: int = 0
    #: The (constant) release callback of this residency, allocated once
    #: instead of once per scheduled release.
    release_cb: Optional[object] = None


class Simulator:
    """Discrete-event simulation of one scenario under one manager.

    Parameters
    ----------
    scenario:
        The workload and platform to simulate.
    manager:
        The resource manager driving the platform.
    energy_model:
        Cost estimator used to price inference jobs; defaults to the
        Table-I-calibrated model.
    config:
        Simulation tunables.
    fault_plan:
        Faults to inject during the run; defaults to the scenario's attached
        plan (``scenario.fault_plan``), if any.
    stores:
        Memo stores to share with other simulators (the replicas of a batch,
        the devices of a fleet); private ones when omitted.  A cache-bearing
        :class:`~repro.rtm.manager.RuntimeManager` has its cache replaced by
        an :class:`~repro.rtm.cache.OperatingPointCache` over them.
    """

    def __init__(
        self,
        scenario: Scenario,
        manager: ManagerProtocol,
        energy_model: Optional[EnergyModel] = None,
        config: Optional[SimulatorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        stores: Optional[SharedSimulationStores] = None,
    ) -> None:
        if stores is None:
            stores = SharedSimulationStores()
        self._stores = stores
        if isinstance(manager, RuntimeManager) and manager.cache is not None:
            manager.set_operating_point_cache(OperatingPointCache(stores))
        self.scenario = scenario
        self.manager = manager
        # Memoise pricing only for the shared default model: its latency
        # estimator is deterministic and temperature-independent, which the
        # cost-replay fast path relies on.
        self._memoise_costs = energy_model is None
        self.energy_model = energy_model or stores.energy_model
        self.config = config or SimulatorConfig()
        self.soc: Soc = scenario.build_platform()
        plan = fault_plan if fault_plan is not None else getattr(scenario, "fault_plan", None)
        if plan is not None and plan.is_empty:
            plan = None
        self.fault_plan: Optional[FaultPlan] = plan
        self._fault_injector: Optional[FaultInjector] = (
            FaultInjector(plan, self.soc) if plan is not None else None
        )
        self._crash_profile = plan.job_crashes if plan is not None else None
        self.queue = EventQueue()
        self.trace = SimulationTrace(duration_ms=scenario.duration_ms)
        self._primed = False
        self._apps: Dict[str, AppRuntimeState] = {}
        self._dnn_runtime: Dict[str, _DNNRuntime] = {}
        self._was_throttling = False
        # Busy core-time (core-milliseconds, weighted by utilisation) accrued
        # per cluster since the last thermal sample.  Integrating busy time
        # instead of sampling instantaneous state avoids aliasing between the
        # sampling period and the job periods.
        self._busy_core_ms: Dict[str, float] = {}
        self._last_sample_ms: float = 0.0
        self._last_utilisations: Dict[str, float] = {}
        memo_key_fn = getattr(manager, "decision_memo_key", None)
        self._decision_memo_key = memo_key_fn() if callable(memo_key_fn) else None
        # Simulator-local micro-memos.  Each keys the complete input set of
        # the call it replaces, by id() of objects this simulator holds alive
        # for its whole lifetime (its own clusters, and the applications and
        # networks each entry pins), so ids are stable.
        self._network_memo: Dict[tuple, tuple] = {}
        self._accuracy_memo: Dict[tuple, tuple] = {}
        self._cost_memo: Dict[tuple, tuple] = {}
        self._cluster_power_memo: Dict[tuple, tuple] = {}
        # Online-core counts per cluster, dropped whenever cores power up or
        # down (a ``SetCoresOnline`` action is the only mutation path).
        self._online_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ run

    def prime(self) -> None:
        """Schedule the scenario's events and the periodic sampler chains.

        Idempotent; called implicitly by :meth:`run`.  Exposed so that a
        lock-step driver (:mod:`repro.sim.batched`) can prime many simulators
        and interleave their execution with :meth:`advance_to`.
        """
        if self._primed:
            return
        self._primed = True
        for event in self.scenario.events():
            self.queue.schedule(
                event.time_ms,
                lambda e=event: self._handle_scenario_event(e),
                priority=EVENT_PRIORITY_STRUCTURAL,
            )
        # Fault events are scheduled after the scenario's, so equal-time
        # scenario/fault pairs replay in a fixed order (scenario first) in
        # both the serial and the batched engine.
        if self.fault_plan is not None:
            for fault in sorted(self.fault_plan.events, key=lambda f: (f.time_ms, f.kind)):
                self.queue.schedule(
                    fault.time_ms,
                    lambda f=fault: self._handle_fault_event(f),
                    priority=EVENT_PRIORITY_STRUCTURAL,
                )
        self._schedule_thermal_sample(self.config.thermal_sample_interval_ms)
        self._schedule_decision_epoch(self.config.decision_interval_ms)

    def advance_to(self, time_ms: float) -> None:
        """Run every event up to ``time_ms`` (clamped to the scenario end).

        Calling ``advance_to`` with an increasing sequence of times executes
        exactly the same events in exactly the same order as one
        ``run_until(duration)`` call — the event queue's ordering key is
        (time, priority, sequence), independent of how the timeline is
        sliced.
        """
        self.prime()
        self.queue.run_until(min(time_ms, self.scenario.duration_ms))

    def run(self) -> SimulationTrace:
        """Execute the scenario and return the trace."""
        self.prime()
        self.queue.run_until(self.scenario.duration_ms)
        return self.trace

    # ----------------------------------------------------- external injection
    #
    # Entry points for drivers that steer a simulator from outside its
    # scenario — the fleet orchestrator (:mod:`repro.fleet`) places and
    # migrates applications across many devices by injecting arrivals and
    # departures between ``advance_to`` strides.  Injected events go through
    # the same structural priority and the same arrival/departure/decision
    # path as scenario events, so traces stay on the determinism lattice.

    def inject_arrival(self, application: Application, time_ms: float) -> None:
        """Schedule an externally-placed application to arrive at ``time_ms``.

        Times in the past are clamped to the queue's current time (the event
        queue's contract); events beyond the scenario duration never execute.
        """
        self.prime()

        def _arrive(app: Application = application) -> None:
            self._on_arrival(app)
            self._run_decision(trigger=ScenarioEventKind.APP_ARRIVAL.value)

        self.queue.schedule(time_ms, _arrive, priority=EVENT_PRIORITY_STRUCTURAL)

    def inject_departure(self, app_id: str, time_ms: float) -> None:
        """Schedule an externally-requested departure (eviction) at ``time_ms``.

        A no-op at fire time when the application is not resident (it may
        have departed on its own in the meantime).  Its job in flight and its
        next release are dropped, even when the same app id arrives again
        before they fall due.
        """
        self.prime()

        def _depart() -> None:
            if app_id not in self._apps:
                return
            self._on_departure(app_id)
            self._run_decision(trigger=ScenarioEventKind.APP_DEPARTURE.value)

        self.queue.schedule(time_ms, _depart, priority=EVENT_PRIORITY_STRUCTURAL)

    # ---------------------------------------------------------------- memos
    #
    # Memoised hot paths, one method per call site that profiling showed
    # dominating the cost.  Each replays the float arithmetic of the plain
    # computation it replaces (same expressions, same accumulation order —
    # float addition is not associative), so traces are bit-identical to an
    # unmemoised run; ``tests/reference_engine.py`` overrides these methods
    # with the plain computations and serves as the oracle.

    def _job_network(self, application: DNNApplication, configuration: float):
        """The network model an inference job at ``configuration`` runs."""
        key = (id(application), configuration)
        entry = self._network_memo.get(key)
        if entry is None:
            # Pin the application: an injected one is freed after it departs,
            # and a later arrival reusing its id must not hit this entry.
            entry = self._network_memo[key] = (
                application.dynamic_dnn.model_for(configuration),
                application,
            )
        return entry[0]

    def _job_cost(self, network, cluster, mapping: Mapping) -> InferenceCost:
        """Latency/power/energy of one inference job at the current state."""
        memoise = self._memoise_costs
        cores_used = mapping.cores
        if memoise:
            online = self._online_core_count(cluster)
            key = (id(network), id(cluster), cluster.frequency_mhz, cores_used, online)
            entry = self._cost_memo.get(key)
            if entry is not None:
                self._stores.cost_hits += 1
                (
                    latency_ms, static_base, leak_coef, reference_c,
                    cores_eff, dyn_busy, idle_term, _,
                ) = entry
                # Replay of EnergyModel.cost: the latency estimate is
                # temperature-independent; only the leakage term varies, so
                # recompute the static power at the current temperature and
                # re-accumulate the per-core dynamic terms in the reference
                # order.
                total = static_base * exp(
                    leak_coef * (self.soc.thermal.temperature_c - reference_c)
                )
                for _ in range(cores_eff):
                    total += dyn_busy
                if idle_term is not None:
                    total += idle_term
                return InferenceCost(
                    latency_ms=latency_ms, power_mw=total, energy_mj=total * latency_ms / 1000.0
                )
            self._stores.cost_misses += 1
        cost = self.energy_model.cost(
            network,
            cluster,
            frequency_mhz=None,
            cores_used=cores_used,
            temperature_c=self.soc.thermal.temperature_c,
            soc_name=self.soc.name,
        )
        power_model = cluster.power_model
        if memoise and type(power_model) is ClusterPowerModel:
            params = power_model.params
            voltage = cluster.voltage_v
            frequency = cluster.frequency_mhz
            dyn_busy = power_model.core_dynamic_mw(
                voltage, frequency, self.energy_model.busy_utilisation
            )
            dyn_idle = power_model.core_dynamic_mw(voltage, frequency, 0.0)
            cores_eff = min(cores_used, cluster.num_cores)
            idle_cores = online - cores_eff
            self._cost_memo[key] = (
                cost.latency_ms,
                # static_power_mw is (static * vscale) * exp-term; only the
                # exp term is temperature-dependent.
                params.static_mw * (voltage / params.nominal_voltage_v),
                params.leakage_temp_coefficient,
                params.reference_temperature_c,
                cores_eff,
                dyn_busy,
                idle_cores * dyn_idle if idle_cores > 0 else None,
                network,  # pin: keeps the id()-keyed entry unambiguous
            )
        return cost

    def _job_accuracy(self, application: DNNApplication, configuration: float) -> float:
        """Delivered accuracy of a job that ran at ``configuration``."""
        key = (id(application), configuration)
        entry = self._accuracy_memo.get(key)
        if entry is None:
            # Pinned like the network memo's entries.
            entry = self._accuracy_memo[key] = (
                application.accuracy_of(configuration),
                application,
            )
        return entry[0]

    def _manager_decide(self, state: SystemState):
        """Run one manager decision epoch, or replay an equal earlier one.

        An epoch whose (``decision_memo_key()``, ``decision_signature(state)``)
        pair was decided before on the same stores is replayed with all its
        side effects; ``None`` from either method opts the epoch out.
        """
        memo_key = self._decision_memo_key
        if memo_key is None:
            return self.manager.decide(state)
        signature = self.manager.decision_signature(state)
        if signature is None:
            return self.manager.decide(state)
        key = (memo_key, signature)
        stores = self._stores
        entry = stores.decisions.get(key)
        if entry is not None:
            stores.decision_hits += 1
            actions, home_updates = entry
            return self.manager.replay_decision(state, actions, home_updates)
        stores.decision_misses += 1
        decision, replay = self.manager.decide_recorded(state)
        stores.decisions[key] = replay
        return decision

    def _online_core_count(self, cluster) -> int:
        """Number of powered cores in ``cluster``."""
        counts = self._online_counts
        count = counts.get(cluster.name)
        if count is None:
            count = len(cluster.online_cores)
            counts[cluster.name] = count
        return count

    # ------------------------------------------------------ scenario events

    def _handle_scenario_event(self, event: ScenarioEvent) -> None:
        if event.kind == ScenarioEventKind.APP_ARRIVAL:
            self._on_arrival(self.scenario.application(event.app_id))
        elif event.kind == ScenarioEventKind.APP_DEPARTURE:
            self._on_departure(event.app_id)
        elif event.kind == ScenarioEventKind.REQUIREMENT_CHANGE:
            self._on_requirement_change(event)
        self._run_decision(trigger=event.kind.value)

    def _on_arrival(self, application: Application) -> None:
        state = AppRuntimeState(application=application)
        self._apps[application.app_id] = state
        try:
            self.soc.allocate_memory(application.memory_footprint_mb)
        except MemoryError:
            # The platform is out of DRAM; the application still arrives but
            # the shortage shows up as contention the manager cannot fix.
            pass
        if isinstance(application, GenericApplication):
            self._place_generic(state, application)
        elif isinstance(application, DNNApplication):
            app_id = application.app_id
            runtime = self._dnn_runtime[app_id] = _DNNRuntime()
            runtime.release_cb = lambda: self._release_job(app_id, runtime)
            self.queue.schedule(self.queue.now_ms, runtime.release_cb)

    def _place_generic(self, state: AppRuntimeState, application: GenericApplication) -> None:
        """Give a non-DNN application the cores it demands, preempting DNNs if needed."""
        demand = application.demand
        candidates = self.soc.clusters_of_type(demand.core_type)
        if not candidates:
            candidates = self.soc.clusters
        cluster = max(candidates, key=lambda c: len(c.free_cores))
        shortfall = demand.cores - len(cluster.free_cores)
        if shortfall > 0:
            # Preempt DNN applications on this cluster, lowest priority first.
            victims = sorted(
                (
                    app
                    for app in self._apps.values()
                    if app.is_dnn
                    and app.mapping is not None
                    and app.mapping.cluster_name == cluster.name
                ),
                key=lambda app: app.application.priority,
            )
            for victim in victims:
                if shortfall <= 0:
                    break
                shortfall -= victim.mapping.cores if victim.mapping else 0
                self.soc.release_owner(victim.app_id)
                victim.mapping = None
        cores = min(demand.cores, len(cluster.free_cores))
        if cores > 0:
            cluster.reserve_cores(cores, application.app_id)
            state.mapping = Mapping(cluster_name=cluster.name, cores=cores)
            if demand.min_frequency_mhz is not None:
                # The application needs the shared frequency domain at or
                # above its minimum; raise it if it is currently below.
                wanted = cluster.opp_table.at_or_above(demand.min_frequency_mhz)
                if cluster.frequency_mhz < wanted.frequency_mhz:
                    cluster.set_frequency(wanted.frequency_mhz)

    def _on_departure(self, app_id: str) -> None:
        state = self._apps.pop(app_id, None)
        if state is None:
            return
        self.soc.release_owner(app_id)
        self.soc.free_memory(state.application.memory_footprint_mb)
        runtime = self._dnn_runtime.pop(app_id, None)
        if runtime is not None:
            # Its pending events are dropped from here on.  Unlinking the
            # release callback, which refers back to the runtime, lets the
            # runtime be freed without the cyclic collector (suspended while
            # batches and fleets run).
            runtime.release_cb = None

    def _on_requirement_change(self, event: ScenarioEvent) -> None:
        state = self._apps.get(event.app_id)
        if state is None or event.new_requirements is None:
            return
        state.application.requirements = event.new_requirements

    # --------------------------------------------------------- fault events

    def _handle_fault_event(self, fault: FaultEvent) -> None:
        """Apply one timeline fault, record it, and wake the manager.

        Core and frequency faults are routed through :meth:`_apply_actions`
        so the online-count and pricing memos invalidate exactly as they do
        for RTM-issued actions.
        """
        injector = self._fault_injector
        assert injector is not None
        now = self.queue.now_ms
        trace = self.trace
        if isinstance(fault, CoreFailure):
            cluster = self.soc.cluster(fault.cluster)
            online_before = len(cluster.online_cores)
            delta = injector.fail_cores(cluster, fault.cores)
            self._apply_actions(
                [SetCoresOnline(cluster_name=cluster.name, online_cores=online_before)]
            )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, float(delta)))
        elif isinstance(fault, CoreRecovery):
            cluster = self.soc.cluster(fault.cluster)
            online_before = len(cluster.online_cores)
            recovered = injector.recover_cores(cluster, fault.cores)
            self._apply_actions(
                [
                    SetCoresOnline(
                        cluster_name=cluster.name,
                        online_cores=online_before + recovered,
                    )
                ]
            )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, float(recovered)))
        elif isinstance(fault, FrequencyCap):
            cluster = self.soc.cluster(fault.cluster)
            resolved = injector.set_cap(cluster, fault.max_frequency_mhz)
            if cluster.frequency_mhz > resolved:
                self._apply_actions(
                    [SetFrequency(cluster_name=cluster.name, frequency_mhz=resolved)]
                )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, resolved))
        elif isinstance(fault, FrequencyCapRelease):
            injector.release_cap(fault.cluster)
            trace.record_fault(FaultRecord(now, fault.kind, fault.cluster))
        elif isinstance(fault, SensorBias):
            self.soc.thermal.set_sensor_bias(fault.bias_c)
            trace.record_fault(FaultRecord(now, fault.kind, "", fault.bias_c))
        elif isinstance(fault, SensorDropout):
            frozen = self.soc.thermal.freeze_sensor()
            trace.record_fault(FaultRecord(now, fault.kind, "", frozen))
        elif isinstance(fault, SensorRestore):
            self.soc.thermal.restore_sensor()
            trace.record_fault(FaultRecord(now, fault.kind))
        # The manager reacts immediately: its next decision reads the surviving
        # cores, remaps displaced apps and falls back to degraded operating
        # points.
        self._run_decision(trigger="fault")

    # ------------------------------------------------------------ decisions

    def _schedule_decision_epoch(self, time_ms: float) -> None:
        if time_ms > self.scenario.duration_ms:
            return
        self.queue.schedule(
            time_ms,
            lambda: self._decision_epoch(time_ms),
            priority=EVENT_PRIORITY_STRUCTURAL,
        )

    def _decision_epoch(self, time_ms: float) -> None:
        self._run_decision(trigger="epoch")
        self._schedule_decision_epoch(time_ms + self.config.decision_interval_ms)

    def _system_state(self) -> SystemState:
        return SystemState(
            time_ms=self.queue.now_ms,
            soc=self.soc,
            apps=dict(self._apps),
            throttling=self.soc.thermal.throttling,
            cluster_utilisations=dict(self._last_utilisations),
        )

    def _run_decision(self, trigger: str) -> None:
        state = self._system_state()
        decision = self._manager_decide(state)
        actions = list(getattr(decision, "actions", []) or [])
        self._apply_actions(actions)
        # Managers with an operating-point cache expose cumulative hit/miss
        # counters; recording them per decision makes cache behaviour
        # observable from the (picklable) trace without touching the manager.
        stats_fn = getattr(self.manager, "cache_stats", None)
        stats = stats_fn() if callable(stats_fn) else None
        self.trace.record_decision(
            DecisionRecord(
                time_ms=self.queue.now_ms,
                num_actions=len(actions),
                trigger=trigger,
                cache_hits=stats.hits if stats is not None else 0,
                cache_misses=stats.misses if stats is not None else 0,
            )
        )

    def _apply_actions(self, actions: List[Action]) -> None:
        injector = self._fault_injector
        # Release first so that applications swapping clusters do not collide.
        for action in actions:
            if isinstance(action, (MapApplication, UnmapApplication)) and action.app_id:
                self.soc.release_owner(action.app_id)
        for action in actions:
            if isinstance(action, SetFrequency):
                if self.soc.has_cluster(action.cluster_name):
                    cluster = self.soc.cluster(action.cluster_name)
                    frequency_mhz = action.frequency_mhz
                    if injector is not None:
                        # An active DVFS cap silently clamps every request.
                        frequency_mhz = injector.clamp_frequency(cluster, frequency_mhz)
                    cluster.set_frequency(frequency_mhz)
            elif isinstance(action, SetCoresOnline):
                self._online_counts.clear()
                if self.soc.has_cluster(action.cluster_name):
                    cluster = self.soc.cluster(action.cluster_name)
                    online_cores = action.online_cores
                    if injector is not None:
                        # Failed cores stay dead no matter what the RTM asks.
                        online_cores = injector.effective_online(cluster, online_cores)
                    for index, core in enumerate(cluster.cores):
                        core.set_online(index < online_cores)
            elif isinstance(action, SetConfiguration):
                self._apply_configuration(action)
            elif isinstance(action, MapApplication):
                self._apply_mapping(action)
            elif isinstance(action, UnmapApplication):
                state = self._apps.get(action.app_id or "")
                if state is not None:
                    state.mapping = None

    def _apply_configuration(self, action: SetConfiguration) -> None:
        state = self._apps.get(action.app_id or "")
        if state is None or not isinstance(state.application, DNNApplication):
            return
        application = state.application
        overhead = application.dynamic_dnn.set_configuration(action.configuration)
        runtime = self._dnn_runtime.get(application.app_id)
        if runtime is not None:
            runtime.pending_penalty_ms += overhead
        if state.mapping is not None:
            state.mapping = replace(
                state.mapping, configuration=application.dynamic_dnn.active_fraction
            )

    def _apply_mapping(self, action: MapApplication) -> None:
        state = self._apps.get(action.app_id or "")
        if state is None or not self.soc.has_cluster(action.cluster_name):
            return
        cluster = self.soc.cluster(action.cluster_name)
        cores = min(action.cores, len(cluster.free_cores))
        if cores <= 0:
            state.mapping = None
            return
        cluster.reserve_cores(cores, action.app_id)
        migrated = state.mapping is not None and state.mapping.cluster_name != action.cluster_name
        configuration = 1.0
        if isinstance(state.application, DNNApplication):
            configuration = state.application.dynamic_dnn.active_fraction
        state.mapping = Mapping(
            cluster_name=action.cluster_name,
            cores=cores,
            configuration=configuration,
        )
        runtime = self._dnn_runtime.get(action.app_id or "")
        if runtime is not None and migrated:
            runtime.pending_penalty_ms += self.config.migration_penalty_ms

    # ------------------------------------------------------------------ jobs

    def _release_job(self, app_id: str, runtime: _DNNRuntime) -> None:
        state = self._apps.get(app_id)
        if (
            state is None
            or not isinstance(state.application, DNNApplication)
            or self._dnn_runtime.get(app_id) is not runtime
        ):
            return
        application = state.application
        queue = self.queue
        now = queue.now_ms
        period = application.period_ms()
        release_cb = runtime.release_cb

        # Schedule the next release for periodic applications regardless of
        # what happens to this one.
        if period is not None:
            queue.schedule(now + period, release_cb)

        if state.mapping is None:
            self._record_dropped(state, runtime, now, reason="unmapped")
            if period is None:
                queue.schedule(now + self.config.retry_interval_ms, release_cb)
            return
        # Graceful degradation under core-failure faults: a job whose mapped
        # cluster no longer has the online cores its mapping needs is dropped
        # (reason "cores_offline") instead of crashing the run.  Remapping
        # managers recover at the fault-triggered decision; static ones keep
        # dropping until the cores return — degraded, but alive.
        mapped_cluster = self.soc.cluster(state.mapping.cluster_name)
        if self._online_core_count(mapped_cluster) < state.mapping.cores:
            self._record_dropped(state, runtime, now, reason="cores_offline")
            if period is None:
                queue.schedule(now + self.config.retry_interval_ms, release_cb)
            return
        if runtime.busy:
            if runtime.backlog >= self.config.max_backlog:
                self._record_dropped(state, runtime, now, reason="backlog")
            else:
                runtime.backlog += 1
            return
        self._start_job(state, runtime, release_ms=now)

    def _record_dropped(
        self, state: AppRuntimeState, runtime: _DNNRuntime, now: float, reason: str
    ) -> None:
        runtime.job_index += 1
        state.violation_count += 1
        # Positional for speed; field order as declared on JobRecord:
        # app_id, job_index, release/start/finish_ms, latency_ms, energy_mj,
        # configuration, accuracy_percent, cluster, cores, frequency_mhz,
        # violations, dropped.
        self.trace.record_job(
            JobRecord(
                state.app_id, runtime.job_index, now, now, now,
                0.0, 0.0, 0.0, 0.0, "", 0, 0.0, (reason,), True,
            )
        )

    def _start_job(self, state: AppRuntimeState, runtime: _DNNRuntime, release_ms: float) -> None:
        application = state.application
        assert isinstance(application, DNNApplication)
        mapping = state.mapping
        assert mapping is not None
        cluster = self.soc.cluster(mapping.cluster_name)
        network = self._job_network(application, mapping.configuration)
        cost = self._job_cost(network, cluster, mapping)
        latency_ms = cost.latency_ms + runtime.pending_penalty_ms
        runtime.pending_penalty_ms = 0.0
        runtime.busy = True
        runtime.job_index += 1
        runtime.current_release_ms = release_ms
        runtime.current_start_ms = self.queue.now_ms
        runtime.current_cluster = mapping.cluster_name
        runtime.current_cores = mapping.cores
        job_index = runtime.job_index
        start_ms = self.queue.now_ms
        energy_mj = cost.energy_mj

        # Seeded transient crashes: each attempt crashes with a fixed hashed
        # probability; retries rerun the whole job after a bounded exponential
        # backoff.  The core stays reserved (busy) across retries.
        profile = self._crash_profile
        if profile is not None and profile.applies_to(state.app_id, start_ms):
            crashes = profile.crashes_before_success(state.app_id, job_index)
            attempts = (
                profile.max_retries + 1 if crashes is None else crashes + 1
            )
            if attempts > 1 or crashes is None:
                elapsed_ms = 0.0
                for attempt in range(attempts - 1 if crashes is None else crashes):
                    elapsed_ms += latency_ms
                    self.trace.record_fault(
                        FaultRecord(
                            start_ms + elapsed_ms,
                            "job_crash",
                            state.app_id,
                            float(attempt),
                            detail=f"job {job_index}",
                        )
                    )
                    elapsed_ms += profile.backoff_ms(attempt)
                if crashes is None:
                    # Every allowed attempt crashes: the job is lost.
                    total_ms = elapsed_ms + latency_ms
                    snapshot = (
                        mapping.configuration,
                        mapping.cluster_name,
                        mapping.cores,
                        cluster.frequency_mhz,
                        energy_mj * attempts,
                        total_ms,
                    )
                    self.trace.record_fault(
                        FaultRecord(
                            start_ms + total_ms,
                            "job_lost",
                            state.app_id,
                            float(attempts),
                            detail=f"job {job_index}",
                        )
                    )
                    self.queue.schedule(
                        start_ms + total_ms,
                        lambda: self._crash_job(state.app_id, runtime, job_index, snapshot),
                    )
                    return
                latency_ms = elapsed_ms + latency_ms
                energy_mj = energy_mj * attempts

        finish_ms = start_ms + latency_ms
        # (configuration, cluster, cores, frequency_mhz, energy_mj, latency_ms)
        snapshot = (
            mapping.configuration,
            mapping.cluster_name,
            mapping.cores,
            cluster.frequency_mhz,
            energy_mj,
            latency_ms,
        )
        self.queue.schedule(
            finish_ms,
            lambda: self._complete_job(state.app_id, runtime, job_index, snapshot),
        )

    def _complete_job(
        self, app_id: str, runtime: _DNNRuntime, job_index: int, snapshot: tuple
    ) -> None:
        state = self._apps.get(app_id)
        if state is None or self._dnn_runtime.get(app_id) is not runtime:
            return
        application = state.application
        assert isinstance(application, DNNApplication)
        runtime.busy = False
        now = self.queue.now_ms
        configuration, cluster_name, cores, frequency_mhz, energy_mj, latency_ms = snapshot
        # Accrue the busy core-time of this job since the last thermal sample.
        busy_since_ms = max(runtime.current_start_ms, self._last_sample_ms)
        if now > busy_since_ms:
            self._busy_core_ms[cluster_name] = self._busy_core_ms.get(
                cluster_name, 0.0
            ) + (now - busy_since_ms) * cores * self.config.busy_utilisation
        accuracy = self._job_accuracy(application, configuration)
        period = application.period_ms()
        effective_period = max(latency_ms, period) if period is not None else latency_ms
        sample = MetricSample(
            latency_ms=latency_ms,
            energy_mj=energy_mj,
            accuracy_percent=accuracy,
            fps=1000.0 / effective_period if effective_period > 0 else None,
        )
        violations = application.requirements.violated_metrics(sample)
        state.last_sample = sample
        state.jobs_completed += 1
        if violations:
            state.violation_count += 1
        # Positional for speed; field order as in _record_dropped.
        self.trace.record_job(
            JobRecord(
                app_id, job_index, runtime.current_release_ms,
                runtime.current_start_ms, now, latency_ms, energy_mj,
                configuration, accuracy, cluster_name, cores, frequency_mhz,
                violations,
            )
        )
        if runtime.backlog > 0 and state.mapping is not None:
            runtime.backlog -= 1
            self._start_job(state, runtime, release_ms=now)
        elif period is None and state.mapping is not None:
            # Best-effort applications run back to back.
            self.queue.schedule(now, runtime.release_cb)

    def _crash_job(
        self, app_id: str, runtime: _DNNRuntime, job_index: int, snapshot: tuple
    ) -> None:
        """A job whose every retry attempt crashed: account it as dropped.

        Mirrors :meth:`_complete_job` (busy-time accrual, backlog chaining)
        but records a dropped job with reason ``"crashed"`` — the energy and
        elapsed time of the wasted attempts are kept on the record.
        """
        state = self._apps.get(app_id)
        if state is None or self._dnn_runtime.get(app_id) is not runtime:
            return
        application = state.application
        assert isinstance(application, DNNApplication)
        runtime.busy = False
        now = self.queue.now_ms
        configuration, cluster_name, cores, frequency_mhz, energy_mj, latency_ms = snapshot
        busy_since_ms = max(runtime.current_start_ms, self._last_sample_ms)
        if now > busy_since_ms:
            self._busy_core_ms[cluster_name] = self._busy_core_ms.get(
                cluster_name, 0.0
            ) + (now - busy_since_ms) * cores * self.config.busy_utilisation
        state.violation_count += 1
        self.trace.record_job(
            JobRecord(
                app_id, job_index, runtime.current_release_ms,
                runtime.current_start_ms, now, latency_ms, energy_mj,
                configuration, 0.0, cluster_name, cores, frequency_mhz,
                ("crashed",), True,
            )
        )
        period = application.period_ms()
        if runtime.backlog > 0 and state.mapping is not None:
            runtime.backlog -= 1
            self._start_job(state, runtime, release_ms=now)
        elif period is None and state.mapping is not None:
            self.queue.schedule(now, runtime.release_cb)

    # --------------------------------------------------------------- thermal

    def _accrue_interval_busy_time(self, now_ms: float) -> None:
        """Add busy core-time of still-running jobs and continuous applications."""
        busy_utilisation = self.config.busy_utilisation
        last_sample_ms = self._last_sample_ms
        busy_core_ms = self._busy_core_ms
        for state in self._apps.values():
            mapping = state.mapping
            if mapping is None:
                continue
            if state.is_dnn:
                runtime = self._dnn_runtime.get(state.app_id)
                if runtime is None or not runtime.busy:
                    continue
                busy_since_ms = max(runtime.current_start_ms, last_sample_ms)
                if now_ms > busy_since_ms:
                    cluster_name = runtime.current_cluster or mapping.cluster_name
                    busy_core_ms[cluster_name] = busy_core_ms.get(
                        cluster_name, 0.0
                    ) + (now_ms - busy_since_ms) * runtime.current_cores * busy_utilisation
            else:
                application = state.application
                assert isinstance(application, GenericApplication)
                interval = now_ms - max(last_sample_ms, application.arrival_time_ms)
                if interval > 0:
                    busy_core_ms[mapping.cluster_name] = busy_core_ms.get(
                        mapping.cluster_name, 0.0
                    ) + interval * mapping.cores * application.demand.utilisation

    def _interval_power_and_utilisation(
        self, now_ms: float
    ) -> "tuple[float, Dict[str, float]]":
        """Average power and per-cluster utilisation over the last interval.

        A fused, memoised replay of listing each cluster's per-core
        utilisations and pricing them with
        ``ClusterPowerModel.cluster_power_mw`` (static leakage, then one
        sequential addition per listed core, then the idle remainder):
        identical expressions in identical order, but the lists are never
        materialised on the fast path (a sample runs at every interval).
        """
        interval_ms = max(now_ms - self._last_sample_ms, 1e-9)
        self._accrue_interval_busy_time(now_ms)
        busy_core_ms = self._busy_core_ms
        cluster_utilisation: Dict[str, float] = {}
        temperature_c = self.soc.thermal.temperature_c
        memo = self._cluster_power_memo
        total = 0.0
        for name, cluster in self.soc._clusters.items():
            # The true online count, which can be 0 when every core of the
            # cluster has failed: work stranded on a dead cluster contributes
            # no utilisation samples (the power model rejects more samples
            # than online cores).  Fault-free this is identical to the old
            # max(count, 1) form — busy work implies reserved (online) cores.
            count = self._online_core_count(cluster)
            avg_busy_cores = busy_core_ms.get(name, 0.0) / interval_ms
            count_f = float(count)
            if avg_busy_cores > count_f:
                avg_busy_cores = count_f
            cluster_utilisation[name] = avg_busy_cores / (count if count > 0 else 1)
            full_cores = int(avg_busy_cores)
            fraction = avg_busy_cores - full_cores
            has_fraction = fraction > 1e-3 and full_cores < count
            listed = full_cores + 1 if has_fraction else full_cores
            if type(cluster.power_model) is not ClusterPowerModel or listed > count:
                # Custom power model, or more listed cores than online ones —
                # materialise the list and take the scalar path (which
                # carries the canonical validation error).
                utilisations = [1.0] * full_cores
                if has_fraction:
                    utilisations.append(fraction)
                total += cluster.power_mw(
                    core_utilisations=utilisations, temperature_c=temperature_c
                )
                continue
            key = (name, cluster.frequency_mhz)
            entry = memo.get(key)
            if entry is None:
                entry = self._cluster_power_entry(cluster)
                memo[key] = entry
            (
                static_base, dyn_full, dyn_idle, leak_coefficient,
                reference_c, idle_fraction, dyn_coefficient,
            ) = entry
            cluster_total = static_base * exp(
                leak_coefficient * (temperature_c - reference_c)
            )
            for _ in range(full_cores):
                cluster_total += dyn_full
            if has_fraction:
                cluster_total += dyn_coefficient * (
                    fraction if fraction > idle_fraction else idle_fraction
                )
            idle_cores = count - listed
            if idle_cores > 0:
                cluster_total += idle_cores * dyn_idle
            total += cluster_total
        # Running jobs continue into the next interval: the part after this
        # sample will be accrued then, so the accumulator resets here.
        self._busy_core_ms = {}
        self._last_sample_ms = now_ms
        return total, cluster_utilisation

    @staticmethod
    def _cluster_power_entry(cluster) -> tuple:
        """Memo entry of the per-cluster power constants at the current OPP."""
        params = cluster.power_model.params
        voltage = cluster.voltage_v
        frequency = cluster.frequency_mhz
        return (
            params.static_mw * (voltage / params.nominal_voltage_v),
            cluster.power_model.core_dynamic_mw(voltage, frequency, 1.0),
            cluster.power_model.core_dynamic_mw(voltage, frequency, 0.0),
            params.leakage_temp_coefficient,
            params.reference_temperature_c,
            params.idle_fraction,
            # Partial-utilisation dynamic power is ceff*V*V*f*u,
            # left-associated, so the leading product folds into one
            # coefficient without changing a bit of the result.
            params.ceff_mw_per_mhz_v2 * voltage * voltage * frequency,
        )

    def _schedule_thermal_sample(self, time_ms: float) -> None:
        if time_ms > self.scenario.duration_ms:
            return
        self.queue.schedule(
            time_ms,
            lambda: self._thermal_sample(time_ms),
            priority=EVENT_PRIORITY_STRUCTURAL,
        )

    def _thermal_sample(self, time_ms: float) -> None:
        interval_ms = time_ms - self._last_sample_ms
        power_mw, utilisations = self._interval_power_and_utilisation(time_ms)
        self._last_utilisations = utilisations
        self.soc.thermal.step(power_mw, max(interval_ms, 0.0))
        throttling = self.soc.thermal.throttling
        self.trace.record_power(
            PowerSample(
                time_ms=time_ms,
                power_mw=power_mw,
                temperature_c=self.soc.thermal.temperature_c,
                throttling=throttling,
            )
        )
        if throttling != self._was_throttling:
            self._was_throttling = throttling
            self._run_decision(trigger="thermal")
        self._schedule_thermal_sample(time_ms + self.config.thermal_sample_interval_ms)


def simulate_scenario(
    scenario: Scenario,
    manager: ManagerProtocol,
    energy_model: Optional[EnergyModel] = None,
    config: Optional[SimulatorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SimulationTrace:
    """Run one scenario on a simulator with private stores; return the trace.

    The entry point behind ``run(spec)``, the ``serial`` and ``process``
    execution backends and the CLI's single-run verbs.  A cache-bearing
    :class:`~repro.rtm.manager.RuntimeManager` has its cache replaced by one
    over those stores.
    """
    return Simulator(
        scenario, manager, energy_model=energy_model, config=config, fault_plan=fault_plan
    ).run()
