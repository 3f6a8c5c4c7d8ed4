"""Batched lock-step simulation engine.

Runs N replicas (seeds x scenarios x managers) of the discrete-event
simulator in one process, advancing them in lock-step and evaluating their
decision epochs through *shared* operating-point machinery: one
enumerate/front/price pass per distinct (platform topology, model, query)
bucket, one allocator run per distinct (manager behaviour, decision inputs)
pair, replayed into every replica that asks the same question.  This is the
batching trick of the columnar decision kernel (PR 3) lifted one level up —
from the rows of one decision to the replicas of a whole sweep.

Results are bit-identical to the plain :class:`~repro.sim.engine.Simulator`;
fingerprints are the contract.  Four properties make that sound:

* Every shared store is keyed by *value* (model cache keys, platform
  topology keys, complete decision signatures), never by replica, and cached
  decisions/costs replay the reference path's float arithmetic operation for
  operation — float addition is not associative, so replays accumulate in
  the original order rather than "equivalently".
* The operating-point cache's invalidations bound staleness and memory for a
  long-lived manager; they are not a correctness requirement (keys are
  complete).  The three shared operating-point stores (tables, fronts and
  per-application selections) therefore ignore flush requests, which is
  what turns N managers' redundant re-enumerations and re-selections into
  hits.
* Replica count and order cannot influence any replica's trace: each
  replica's event queue is private, and the shared stores hold pure
  functions of complete keys — *which* replica computed an entry first
  changes nothing about its value.
* Replicas whose complete simulation inputs are equal by value (same
  scenario content, manager configuration and simulator tunables — e.g. a
  deterministic scenario swept over seeds) are collapsed to one simulation
  whose trace is shared, exactly because equal inputs produce equal traces.

A lone run is a batch of one: :func:`~repro.sim.engine.simulate_scenario`
(behind ``run(spec)``, the ``serial`` and ``process`` execution backends and
the CLI's single-run verbs) builds one replica on private stores through
:func:`make_batched_simulator`, so repeated decision epochs, job costs and
power samples within one run replay from the memos too.  The plain
:class:`~repro.sim.engine.Simulator` stays the reference without these
simulator-level memos; its manager still memoises through its own
operating-point cache, whose reference is an uncached manager.

The module exposes :class:`BatchedEngine` (scenario/manager level); spec
level dispatch lives in :mod:`repro.experiments.backends` as the ``batched``
execution backend.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import exp
from typing import Dict, Iterator, List, Optional, Tuple

from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel, InferenceCost
from repro.platforms.power import ClusterPowerModel
from repro.rtm.cache import OperatingPointCache
from repro.rtm.manager import RuntimeManager
from repro.rtm.state import Action, SetCoresOnline
from repro.sim.engine import ManagerProtocol, Simulator, SimulatorConfig
from repro.sim.faults import FaultPlan
from repro.sim.trace import SimulationTrace
from repro.workloads.scenarios import Scenario
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = [
    "BatchedCase",
    "BatchedEngine",
    "SharedSimulationStores",
    "SharedOperatingPointCache",
    "gc_suspended",
    "make_batched_simulator",
    "scenario_content_key",
]


# --------------------------------------------------------------------- stores


class SharedSimulationStores:
    """Cross-replica value-keyed stores plus their hit/miss counters.

    One instance is shared by every replica of a batch.  All three
    operating-point stores are keyed by the cache's own complete query keys
    (model cache key, platform topology key, online cores, temperature
    bucket, ...) — the selection store adds the policy and requirements keys
    and the power cap — and the decision store by (manager behaviour key,
    decision signature).  The cost counters aggregate the replicas' local
    job-cost memos (those key by per-replica object ids, so their entries are
    local by construction).
    """

    def __init__(self) -> None:
        self.tables: OrderedDict = OrderedDict()
        self.pareto_tables: OrderedDict = OrderedDict()
        self.selections: OrderedDict = OrderedDict()
        self.decisions: Dict[tuple, tuple] = {}
        #: Shared pricing model for replicas that did not supply their own —
        #: stateless, and identical by construction to the reference default.
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


class SharedOperatingPointCache(OperatingPointCache):
    """A per-replica cache view whose entry stores are shared and never flushed.

    Each replica's manager gets its own instance (``space_for`` keeps
    per-instance ``OperatingPointSpace`` identity bookkeeping), but the three
    entry dictionaries alias the batch-wide stores.  ``invalidate`` only
    counts: entry keys are complete, so flushing is a staleness/memory bound
    for long-lived managers, not a correctness requirement — and a batch is
    short-lived by definition.
    """

    def __init__(self, stores: SharedSimulationStores, max_entries: int = 1_000_000) -> None:
        super().__init__(max_entries=max_entries)
        self._tables = stores.tables
        self._pareto_tables = stores.pareto_tables
        self._selections = stores.selections

    def invalidate(self, reason: str) -> None:
        self.stats.invalidations[reason] = self.stats.invalidations.get(reason, 0) + 1


# ------------------------------------------------------------ batched replica


class _BatchedSimulator(Simulator):
    """One replica of a batch: the reference engine with memoised hot paths.

    Every override replays the reference implementation's float arithmetic
    exactly (same expressions, same accumulation order); memo keys cover the
    complete input set of the call they replace.  Stores that key by
    ``id(...)`` pin the keyed object in the entry or key only objects the
    replica itself keeps alive, so freed-and-reused ids cannot alias.
    """

    def __init__(
        self,
        scenario: Scenario,
        manager: ManagerProtocol,
        stores: SharedSimulationStores,
        energy_model: Optional[EnergyModel] = None,
        config: Optional[SimulatorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._stores = stores
        # Memoise pricing only for the shared default model: its latency
        # estimator is deterministic and temperature-independent, which the
        # cost-replay fast path relies on.
        self._memoise_costs = energy_model is None
        super().__init__(
            scenario,
            manager,
            energy_model=energy_model or stores.energy_model,
            config=config,
            fault_plan=fault_plan,
        )
        memo_key_fn = getattr(manager, "decision_memo_key", None)
        self._decision_memo_key = memo_key_fn() if callable(memo_key_fn) else None
        # Replica-local micro-memos.  Keyed by id() of objects this replica
        # holds alive for its whole lifetime (scenario applications, trained
        # networks), so ids are stable.
        self._network_memo: Dict[tuple, object] = {}
        self._accuracy_memo: Dict[tuple, float] = {}
        self._cost_memo: Dict[tuple, tuple] = {}
        self._cluster_power_memo: Dict[tuple, tuple] = {}
        # Online-core counts per cluster, dropped whenever a decision powers
        # cores up or down (``SetCoresOnline`` is the only mutation path).
        self._online_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- the hooks

    def _job_network(self, application: DNNApplication, configuration: float):
        key = (id(application), configuration)
        network = self._network_memo.get(key)
        if network is None:
            network = application.dynamic_dnn.model_for(configuration)
            self._network_memo[key] = network
        return network

    def _job_cost(self, network, cluster, mapping):
        if not self._memoise_costs:
            return super()._job_cost(network, cluster, mapping)
        cores_used = mapping.cores
        online = self._online_core_count(cluster)
        # Networks and clusters are this replica's own long-lived objects
        # (see _network_memo / the soc), so their ids are stable memo keys.
        key = (id(network), id(cluster), cluster.frequency_mhz, cores_used, online)
        entry = self._cost_memo.get(key)
        if entry is None:
            self._stores.cost_misses += 1
            cost = super()._job_cost(network, cluster, mapping)
            power_model = cluster.power_model
            if type(power_model) is ClusterPowerModel:
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
                    # static_power_mw is (static * vscale) * exp-term; only
                    # the exp term is temperature-dependent.
                    params.static_mw * (voltage / params.nominal_voltage_v),
                    params.leakage_temp_coefficient,
                    params.reference_temperature_c,
                    cores_eff,
                    dyn_busy,
                    idle_cores * dyn_idle if idle_cores > 0 else None,
                    network,  # pin: keeps the id()-keyed entry unambiguous
                )
            return cost
        self._stores.cost_hits += 1
        latency_ms, static_base, leak_coef, reference_c, cores_eff, dyn_busy, idle_term, _ = entry
        # Replay of EnergyModel.cost: the latency estimate is
        # temperature-independent; only the leakage term varies, so recompute
        # the static power at the current temperature and re-accumulate the
        # per-core dynamic terms in the reference order.
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

    def _job_accuracy(self, application: DNNApplication, configuration: float) -> float:
        key = (id(application), configuration)
        accuracy = self._accuracy_memo.get(key)
        if accuracy is None:
            accuracy = application.accuracy_of(configuration)
            self._accuracy_memo[key] = accuracy
        return accuracy

    def _online_core_count(self, cluster) -> int:
        counts = self._online_counts
        count = counts.get(cluster.name)
        if count is None:
            count = len(cluster.online_cores)
            counts[cluster.name] = count
        return count

    def _apply_actions(self, actions: List[Action]) -> None:
        super()._apply_actions(actions)
        for action in actions:
            if isinstance(action, SetCoresOnline):
                self._online_counts.clear()
                break

    def _manager_decide(self, state):
        memo_key = self._decision_memo_key
        if memo_key is None:
            return self.manager.decide(state)
        signature = self.manager.decision_signature(state)
        if signature is None:
            return self.manager.decide(state)
        key = (memo_key, signature)
        entry = self._stores.decisions.get(key)
        if entry is not None:
            self._stores.decision_hits += 1
            actions, home_updates = entry
            return self.manager.replay_decision(state, actions, home_updates)
        self._stores.decision_misses += 1
        decision, replay = self.manager.decide_recorded(state)
        self._stores.decisions[key] = replay
        return decision

    def _interval_power_and_utilisation(self, now_ms: float):
        # Fused, memoised replay of the reference implementation and of
        # ClusterPowerModel.cluster_power_mw (static leakage, then one
        # sequential addition per listed core, then the idle remainder):
        # identical expressions in identical order, but the per-cluster
        # utilisation lists are never materialised on the fast path (a
        # thermal sample runs for every replica at every interval).
        interval_ms = max(now_ms - self._last_sample_ms, 1e-9)
        self._accrue_interval_busy_time(now_ms)
        busy_core_ms = self._busy_core_ms
        cluster_utilisation: Dict[str, float] = {}
        temperature_c = self.soc.thermal.temperature_c
        memo = self._cluster_power_memo
        total = 0.0
        for name, cluster in self.soc._clusters.items():
            # Like the reference path, the true online count can be 0 when every
            # core of the cluster has failed: stranded busy time then yields
            # no utilisation samples (the power model rejects more samples
            # than online cores).  Identical to the reference expressions.
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
                static_base,
                dyn_full,
                dyn_idle,
                leak_coefficient,
                reference_c,
                idle_fraction,
                dyn_coefficient,
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


# ------------------------------------------------------------------- the batch


def scenario_content_key(scenario: Scenario) -> Optional[tuple]:
    """Value key of everything a simulation reads from a scenario.

    Two scenarios with equal keys produce identical simulations under
    identical managers and configs; the batched engine uses the key to
    collapse duplicate replicas (e.g. a deterministic scenario swept over
    seeds).  Returns ``None`` (not keyable) for unknown application types.
    """
    applications = []
    for application in scenario.applications:
        base = (
            application.app_id,
            type(application).__name__,
            str(application.kind),
            application.priority,
            application.requirements.cache_key(),
            application.arrival_time_ms,
            application.departure_time_ms,
            application.memory_footprint_mb,
        )
        if isinstance(application, DNNApplication):
            applications.append(
                base
                + (
                    application.trained.cache_key(),
                    application.dynamic_dnn.active_fraction,
                    application.preprocessing_cores,
                )
            )
        elif isinstance(application, GenericApplication):
            demand = application.demand
            applications.append(
                base
                + (
                    (
                        demand.core_type,
                        demand.cores,
                        demand.min_frequency_mhz,
                        demand.utilisation,
                    ),
                )
            )
        else:
            return None
    events = tuple(
        (
            event.time_ms,
            event.kind.value,
            event.app_id,
            event.new_requirements.cache_key() if event.new_requirements is not None else None,
        )
        for event in scenario.events()
    )
    fault_plan = getattr(scenario, "fault_plan", None)
    return (
        scenario.platform_name,
        scenario.duration_ms,
        tuple(applications),
        events,
        fault_plan.content_key() if fault_plan is not None else None,
    )


def make_batched_simulator(
    scenario: Scenario,
    manager: ManagerProtocol,
    stores: SharedSimulationStores,
    energy_model: Optional[EnergyModel] = None,
    config: Optional[SimulatorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Simulator:
    """One memoised replica on ``stores``: the only way replicas are built.

    Attaches a :class:`SharedOperatingPointCache` to cache-bearing runtime
    managers, then builds the memoised replica.  :class:`BatchedEngine`
    builds its replicas here; so do callers that step replicas themselves —
    the fleet orchestrator (:mod:`repro.fleet`), which places and migrates
    applications between ``advance_to`` strides — and
    :func:`~repro.sim.engine.simulate_scenario`, which runs one replica on
    private stores.
    """
    if isinstance(manager, RuntimeManager) and manager.cache is not None:
        manager.set_operating_point_cache(SharedOperatingPointCache(stores))
    return _BatchedSimulator(
        scenario,
        manager,
        stores=stores,
        energy_model=energy_model,
        config=config,
        fault_plan=fault_plan,
    )


@contextmanager
def gc_suspended() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the ``with`` block.

    The state found on entry (``gc.isenabled()``) is restored on every exit,
    return or raise: a caller that had disabled the collector finds it
    disabled, and a nested suspension leaves the outer one in force.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class BatchedCase:
    """One replica of a batch.

    ``dedup_key`` is an optional value key of the *complete* simulation
    inputs (scenario content plus manager/simulator construction inputs);
    cases with equal non-``None`` keys share one simulation and one trace.
    """

    label: str
    scenario: Scenario
    manager: ManagerProtocol
    config: Optional[SimulatorConfig] = None
    energy_model: Optional[EnergyModel] = None
    fault_plan: Optional[FaultPlan] = None
    dedup_key: Optional[tuple] = field(default=None, compare=False)


class BatchedEngine:
    """Lock-step driver advancing every replica of a batch in one process.

    All replicas are primed, then advanced together in decision-interval
    strides; replicas reaching the same decision epoch in the same stride
    resolve it through the shared stores while the entries are hot.  Slicing
    the timeline cannot change any replica's trace — the event queue's
    ordering key is (time, priority, sequence) regardless of how
    ``run_until`` calls are split — so lock-stepping is purely a locality
    choice.

    Failures are isolated per replica, mirroring the process backend: a
    replica that raises is recorded in the errors mapping and the rest of
    the batch completes.
    """

    def __init__(self, stores: Optional[SharedSimulationStores] = None) -> None:
        self.stores = stores or SharedSimulationStores()

    def run(
        self, cases: List[BatchedCase], on_complete=None
    ) -> Tuple[Dict[str, SimulationTrace], Dict[str, str]]:
        """Run every case; returns (label -> trace, label -> error message).

        ``on_complete(label, trace)``, when given, fires the moment a
        replica's timeline ends — replicas finish on different lock-step
        strides, so a consumer (e.g. a results store) receives completed
        traces progressively rather than when the whole batch drains.  A
        deduplicated group fires once per member label.

        Garbage collection is suspended for the duration of the batch
        (:func:`gc_suspended`): hundreds of simultaneously-live replicas make
        cyclic-GC scans the single largest cost of a large batch, and they
        buy nothing.  Every replica is a reference cycle (the simulator is
        reachable from its own queued callbacks and its runtimes' release
        hooks), so a finished replica is freed only by the collector, never
        by reference counting, and every replica stays live until the batch
        ends anyway: a collection mid-run scans them all and frees none.
        """
        with gc_suspended():
            return self._run(cases, on_complete)

    def _run(
        self, cases: List[BatchedCase], on_complete=None
    ) -> Tuple[Dict[str, SimulationTrace], Dict[str, str]]:
        traces: Dict[str, SimulationTrace] = {}
        errors: Dict[str, str] = {}
        # Collapse duplicate replicas: equal complete inputs, equal traces.
        groups: "OrderedDict[object, List[BatchedCase]]" = OrderedDict()
        for case in cases:
            group_key = case.dedup_key if case.dedup_key is not None else ("unique", case.label)
            groups.setdefault(group_key, []).append(case)
            if len(groups[group_key]) > 1:
                self.stores.deduplicated_replicas += 1

        replicas: List[Tuple[List[str], Simulator]] = []
        for group in groups.values():
            primary = group[0]
            labels = [case.label for case in group]
            try:
                simulator = make_batched_simulator(
                    primary.scenario,
                    primary.manager,
                    self.stores,
                    energy_model=primary.energy_model,
                    config=primary.config,
                    fault_plan=primary.fault_plan,
                )
                simulator.prime()
            except Exception as exc:  # noqa: BLE001 - isolate per replica
                message = f"{type(exc).__name__}: {exc}"
                for label in labels:
                    errors[label] = message
                continue
            replicas.append((labels, simulator))

        # Advance everything in lock-step strides of the smallest decision
        # interval, so replicas sharing epoch times hit the stores together.
        active = [
            (labels, simulator, simulator.scenario.duration_ms)
            for labels, simulator in replicas
        ]
        if active:
            stride = min(simulator.config.decision_interval_ms for _, simulator, _ in active)
            now = 0.0
            while active:
                now += stride
                still_running = []
                for labels, simulator, duration_ms in active:
                    try:
                        simulator.advance_to(now)
                    except Exception as exc:  # noqa: BLE001 - isolate per replica
                        message = f"{type(exc).__name__}: {exc}"
                        for label in labels:
                            errors[label] = message
                        continue
                    if now >= duration_ms:
                        for label in labels:
                            traces[label] = simulator.trace
                            if on_complete is not None:
                                on_complete(label, simulator.trace)
                    else:
                        still_running.append((labels, simulator, duration_ms))
                active = still_running
        return traces, errors
