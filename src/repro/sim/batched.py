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
are the contract.  Three properties make that sound:

* Every shared store is keyed by *value* (model cache keys, platform
  topology keys, complete decision signatures), never by replica, and cached
  decisions/costs replay the reference path's float arithmetic operation for
  operation — float addition is not associative, so replays accumulate in
  the original order rather than "equivalently".
* The operating-point cache never flushes (keys are complete), and every
  replica manager's cache keeps its Pareto fronts and per-application
  selections in the two shared operating-point stores, which is what turns
  N managers' redundant re-enumerations and re-selections into hits.
* Replica count and order cannot influence any replica's trace: each
  replica's event queue is private, and the shared stores hold pure
  functions of complete keys — *which* replica computed an entry first
  changes nothing about its value.

Every replica runs, even when its inputs equal another's: its repeated
decision epochs replay from the shared decision memo.

A lone run is a batch of one: :func:`~repro.sim.engine.simulate_scenario`
(behind ``run(spec)``, the ``serial`` and ``process`` execution backends and
the CLI's single-run verbs) runs the same simulator on private stores, so
repeated decision epochs, job costs and power samples within one run replay
from the memos too.

The module exposes :class:`BatchedEngine` (scenario/manager level); spec
level dispatch lives in :mod:`repro.experiments.backends` as the ``batched``
execution backend, which formats a replica's exception like the other
backends do.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

from repro.sim.engine import ManagerProtocol, SharedSimulationStores, Simulator, SimulatorConfig
from repro.sim.faults import FaultPlan
from repro.sim.trace import SimulationTrace
from repro.workloads.scenarios import Scenario

__all__ = [
    "BatchedCase",
    "BatchedEngine",
    "gc_suspended",
]


# ------------------------------------------------------------------- the batch


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
    """One replica of a batch."""

    label: str
    scenario: Scenario
    manager: ManagerProtocol
    config: Optional[SimulatorConfig] = None
    fault_plan: Optional[FaultPlan] = None


#: ``on_outcome(label, trace_or_exception)``: one replica's outcome.
_OnOutcome = Callable[[str, Union[SimulationTrace, Exception]], None]


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
    replica that raises is reported with its exception and the rest of the
    batch completes.
    """

    def __init__(self, stores: Optional[SharedSimulationStores] = None) -> None:
        self.stores = stores or SharedSimulationStores()

    def run(self, cases: List[BatchedCase], on_outcome: _OnOutcome) -> None:
        """Run every case, reporting each through ``on_outcome(label, outcome)``.

        ``outcome`` is the replica's :class:`SimulationTrace`, or the
        exception it raised while being built, primed or advanced.  Each
        label is reported exactly once, the moment its replica's timeline
        ends or fails — replicas finish on different lock-step strides, so a
        consumer (e.g. a results store) receives outcomes progressively
        rather than when the whole batch drains.  An exception raised by
        ``on_outcome`` itself ends the batch.

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
            self._run(cases, on_outcome)

    def _run(self, cases: List[BatchedCase], on_outcome: _OnOutcome) -> None:
        active: List[Tuple[str, Simulator, float]] = []
        for case in cases:
            try:
                simulator = Simulator(
                    case.scenario,
                    case.manager,
                    config=case.config,
                    fault_plan=case.fault_plan,
                    stores=self.stores,
                )
                simulator.prime()
            except Exception as exc:  # noqa: BLE001 - isolate per replica
                on_outcome(case.label, exc)
                continue
            active.append((case.label, simulator, simulator.scenario.duration_ms))

        # Advance everything in lock-step strides of the smallest decision
        # interval, so replicas sharing epoch times hit the stores together.
        if active:
            stride = min(simulator.config.decision_interval_ms for _, simulator, _ in active)
            now = 0.0
            while active:
                now += stride
                still_running = []
                for label, simulator, duration_ms in active:
                    try:
                        simulator.advance_to(now)
                    except Exception as exc:  # noqa: BLE001 - isolate per replica
                        on_outcome(label, exc)
                        continue
                    if now >= duration_ms:
                        on_outcome(label, simulator.trace)
                    else:
                        still_running.append((label, simulator, duration_ms))
                active = still_running
