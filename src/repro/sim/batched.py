"""Batched lock-step simulation engine.

Runs N replicas (seeds x scenarios x managers) of the discrete-event
simulator in one process, advancing them in lock-step and evaluating their
decision epochs through *shared* operating-point machinery: one
enumerate/front/price pass per distinct (platform topology, model, query)
bucket, one allocator run per distinct (manager behaviour, decision inputs)
pair, replayed into every replica that asks the same question.  This is the
batching trick of the columnar decision kernel (PR 3) lifted one level up —
from the rows of one decision to the replicas of a whole sweep.

Every replica is a :class:`~repro.sim.engine.Simulator` built on the
batch's one :class:`~repro.sim.engine.SharedSimulationStores`.  Traces are
bit-identical to each replica's lone run (on private stores); fingerprints
are the contract.  Four properties make that sound:

* Every shared store is keyed by *value* (model cache keys, platform
  topology keys, complete decision signatures), never by replica, and cached
  decisions/costs replay the reference path's float arithmetic operation for
  operation — float addition is not associative, so replays accumulate in
  the original order rather than "equivalently".
* The operating-point cache never flushes (keys are complete), and every
  replica manager's cache keeps its tables, fronts and per-application
  selections in the three shared operating-point stores, which is what
  turns N managers' redundant re-enumerations and re-selections into hits.
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
the CLI's single-run verbs) runs the same simulator on private stores, so
repeated decision epochs, job costs and power samples within one run replay
from the memos too.

The module exposes :class:`BatchedEngine` (scenario/manager level); spec
level dispatch lives in :mod:`repro.experiments.backends` as the ``batched``
execution backend.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.perfmodel.energy import EnergyModel
from repro.sim.engine import ManagerProtocol, SharedSimulationStores, Simulator, SimulatorConfig
from repro.sim.faults import FaultPlan
from repro.sim.trace import SimulationTrace
from repro.workloads.scenarios import Scenario
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = [
    "BatchedCase",
    "BatchedEngine",
    "gc_suspended",
    "scenario_content_key",
]


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
                simulator = Simulator(
                    primary.scenario,
                    primary.manager,
                    energy_model=primary.energy_model,
                    config=primary.config,
                    fault_plan=primary.fault_plan,
                    stores=self.stores,
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
