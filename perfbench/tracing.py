"""Span tracing for the benchmark's traced run, installed from outside ``repro``.

The traced run wraps public layer entry points of the package (methods on
their classes and subclasses, module functions where callers look them up)
with span recorders, runs one workload call, and restores every original
attribute afterwards, so the untraced calls in the same process run the
unmodified program.  Nothing under ``src/`` knows about it.

A span records its name, start and end (``perf_counter_ns``), its parent span
and an identifier: the spec label, device scenario name or app id where the
wrapped call names one, else the parent's identifier, so the spans of one
spec or device share it.  Self time is computed on exit: a span's duration
minus the durations of its direct children.  Spans stay in memory until the
run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Span record fields (lists, mutated in place on exit).
NAME, START, END, PARENT, IDENT, SELF = range(6)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        #: Every ``SharedSimulationStores`` built while installed.
        self.stores: List[object] = []
        #: Managers that decided or replayed while installed, by id.
        self.managers: Dict[int, object] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._patched_queues: set = set()

    # ------------------------------------------------------------ recording

    def wrap(
        self,
        func: Callable,
        name: str,
        ident: Optional[Callable] = None,
        count: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recording one span per call.

        ``ident(args)`` names the span's identifier; ``count(args, result)``
        adds to ``counts[name]``; ``before(args)`` runs ahead of the span.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if ident is not None:
                span_ident = ident(args)
            else:
                span_ident = spans[parent[0]][IDENT] if parent is not None else None
            record = [name, 0, 0, parent[0] if parent is not None else -1, span_ident, 0]
            frame = [len(spans), 0]
            spans.append(record)
            stack.append(frame)
            start = record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = record[END] = clock()
                stack.pop()
                record[SELF] = end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if count is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + count(args, result)
            return result

        return traced

    # -------------------------------------------------------------- patching

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
        for klass in _subclasses(cls):
            raw = vars(klass).get(attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name, **hooks))
            else:
                wrapped = self.wrap(raw, name, **hooks)
            self._patches.append((klass, attr, raw))
            setattr(klass, attr, wrapped)

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap the module-level function ``module.attr``."""
        raw = getattr(module, attr)
        self._patches.append((module, attr, raw))
        setattr(module, attr, self.wrap(raw, name, **hooks))

    def _patch_queue(self, simulator) -> None:
        # Each engine picks its own event-queue class; wrap the run_until of
        # whichever one a simulator uses, the first time it is seen.
        queue_cls = type(simulator.queue)
        if queue_cls not in self._patched_queues:
            self._patched_queues.add(queue_cls)
            self.patch_method(
                queue_cls, "run_until", "sim.run_until", count=lambda args, result: result
            )

    def _remember_manager(self, args) -> None:
        self.managers[id(args[0])] = args[0]

    def install(self) -> None:
        """Wrap every traced layer boundary (see the README's span table)."""
        from repro.dnn.training import IncrementalTrainer
        from repro.experiments import runner
        from repro.fleet.orchestrator import FleetOrchestrator
        from repro.fleet.policies import PlacementPolicy
        from repro.perfmodel.energy import EnergyModel
        from repro.platforms.thermal import ThermalModel
        from repro.rtm.cache import OperatingPointCache
        from repro.rtm.manager import RuntimeManager
        from repro.rtm.policies import SelectionPolicy
        from repro.sim.batched import SharedSimulationStores
        from repro.sim.engine import Simulator
        from repro.sim.trace import SimulationTrace
        from repro.store.results import ResultsStore
        from repro.workloads import diurnal, traces

        by_label = lambda args: args[0].label  # noqa: E731
        by_scenario = lambda args: args[0].scenario.name  # noqa: E731
        remember = self._remember_manager
        patch_queue = lambda args: self._patch_queue(args[0])  # noqa: E731

        self.patch_function(runner, "run_many", "experiments.run_many")
        self.patch_function(runner, "run", "experiments.run", ident=by_label)
        self.patch_function(
            runner, "build_scenario_from_spec", "experiments.build_scenario", ident=by_label
        )
        self.patch_function(
            runner, "build_manager_from_spec", "experiments.build_manager", ident=by_label
        )
        self.patch_method(RuntimeManager, "decide", "rtm.decide", before=remember)
        self.patch_method(
            RuntimeManager, "decide_recorded", "rtm.decide_recorded", before=remember
        )
        self.patch_method(RuntimeManager, "replay_decision", "rtm.replay", before=remember)
        self.patch_method(OperatingPointCache, "enumerate_table", "rtm.enumerate")
        self.patch_method(OperatingPointCache, "pareto_table_for", "rtm.pareto")
        self.patch_method(SelectionPolicy, "select_table", "rtm.select")
        self.patch_method(EnergyModel, "cost", "perfmodel.cost")
        self.patch_method(EnergyModel, "cost_grid", "perfmodel.cost_grid")
        self.patch_method(ThermalModel, "step", "platforms.thermal_step")
        self.patch_method(
            Simulator, "advance_to", "sim.advance_to", ident=by_scenario, before=patch_queue
        )
        self.patch_method(Simulator, "run", "sim.run", ident=by_scenario, before=patch_queue)
        self.patch_method(SimulationTrace, "fingerprint", "sim.fingerprint")
        self.patch_method(
            ResultsStore, "put_result", "store.put_result", ident=lambda args: args[1].spec.label
        )
        self.patch_method(ResultsStore, "put_error", "store.put_error")
        self.patch_method(ResultsStore, "flush", "store.flush")
        self.patch_method(ResultsStore, "close", "store.close")
        self.patch_method(
            PlacementPolicy,
            "place",
            "fleet.place",
            ident=lambda args: args[1],
            count=lambda args, result: len(args[2]),
        )
        self.patch_method(
            FleetOrchestrator, "__init__", "fleet.build", ident=lambda args: args[1].label
        )
        self.patch_method(
            FleetOrchestrator, "run", "fleet.run", ident=lambda args: args[0].spec.label
        )
        self.patch_method(traces.TraceWriter, "write_application", "workloads.write_application")
        self.patch_function(diurnal, "write_diurnal_trace", "workloads.write_diurnal_trace")
        self.patch_function(
            traces,
            "compute_trace_stats",
            "workloads.compute_trace_stats",
            count=lambda args, result: result.num_applications,
        )
        self.patch_method(
            traces.ArrivalTrace,
            "stream_scenario",
            "workloads.replay_build",
            count=lambda args, result: len(result.applications),
        )
        self.patch_method(IncrementalTrainer, "train", "dnn.train")

        stores = self.stores
        original_init = SharedSimulationStores.__init__

        @functools.wraps(original_init)
        def capture_stores(store, *args, **kwargs):
            original_init(store, *args, **kwargs)
            stores.append(store)

        self._patches.append((SharedSimulationStores, "__init__", original_init))
        SharedSimulationStores.__init__ = capture_stores

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        self._patched_queues.clear()

    # ---------------------------------------------------------------- output

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (gzip) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                stream.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "ident": span[IDENT],
                            "self_ns": span[SELF],
                        }
                    )
                    + "\n"
                )


#: Layers of the traced run, in report order; a span's layer is its name's
#: prefix before the first dot.
LAYERS = (
    "experiments",
    "sim",
    "rtm",
    "perfmodel",
    "platforms",
    "store",
    "fleet",
    "workloads",
    "dnn",
)

_EVENT_LOOP_SPANS = ("sim.advance_to", "sim.run", "sim.run_until")


def _percentile_us(durations_ns: List[int], percent: float) -> float:
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    position = (len(ordered) - 1) * percent / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return (ordered[lower] * (1.0 - weight) + ordered[upper] * weight) / 1e3


def layer_metrics(
    tracer: Tracer, start_ns: int, end_ns: int, counts: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced call.

    Times named after a wrapped call (``rtm.decide_ms``, ``store.put_ms``,
    ...) are inclusive: they sum the outermost spans of that call, whose
    children (pricing inside enumeration, fingerprinting inside a store put)
    are included.  ``<layer>.self_ms`` and ``<layer>.share_pct`` sum self
    times, so they never double count; shares and ``tracing.coverage_pct``
    are taken over the timed window ``[start_ns, end_ns]`` only, while the
    other metrics also include the call's untimed preparation (the fleet
    build).  ``counts`` carries exact counts read from the call's results.
    """
    spans = tracer.spans

    def outermost(names) -> List[list]:
        chosen = []
        for span in spans:
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                chosen.append(span)
        return chosen

    def calls(*names: str) -> int:
        return len(outermost(names))

    def inclusive_ms(*names: str) -> float:
        return sum(span[END] - span[START] for span in outermost(names)) / 1e6

    def durations(name: str) -> List[int]:
        return [span[END] - span[START] for span in outermost((name,))]

    self_ns: Dict[str, int] = {}
    layer_self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for span in spans:
        if start_ns <= span[START] and span[END] <= end_ns:
            self_ns[span[NAME]] = self_ns.get(span[NAME], 0) + span[SELF]
            layer = span[NAME].split(".", 1)[0]
            layer_self_ns[layer] = layer_self_ns.get(layer, 0) + span[SELF]
    window_ns = max(end_ns - start_ns, 1)

    managers = [
        manager
        for manager in tracer.managers.values()
        if callable(getattr(manager, "cache_stats", None)) and manager.cache_stats() is not None
    ]
    hits = sum(manager.cache_stats().hits for manager in managers)
    lookups = sum(manager.cache_stats().lookups for manager in managers)
    stores = [store.stats() for store in tracer.stores]
    decision_hits = sum(s["decision_hits"] for s in stores)
    decision_lookups = decision_hits + sum(s["decision_misses"] for s in stores)
    cost_hits = sum(s["cost_hits"] for s in stores)
    cost_lookups = cost_hits + sum(s["cost_misses"] for s in stores)
    specs = calls("experiments.build_scenario")
    events = int(tracer.counts.get("sim.run_until", 0))
    event_loop_ns = sum(self_ns.get(name, 0) for name in _EVENT_LOOP_SPANS)
    placements = calls("fleet.place")
    fleet_advance_ns = sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] == "sim.advance_to"
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == "fleet.run"
    )

    def pct(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    metrics = {
        "rtm.decisions": calls("rtm.decide"),
        "rtm.replays": calls("rtm.replay"),
        "rtm.decide_ms": inclusive_ms("rtm.decide"),
        "rtm.decide_p50_us": _percentile_us(durations("rtm.decide"), 50),
        "rtm.decide_p99_us": _percentile_us(durations("rtm.decide"), 99),
        "rtm.enumerate_ms": inclusive_ms("rtm.enumerate"),
        "rtm.pareto_ms": inclusive_ms("rtm.pareto"),
        "rtm.select_ms": inclusive_ms("rtm.select"),
        "rtm.cache_hit_pct": pct(hits, lookups),
        "rtm.cache_invalidations": sum(
            manager.cache_stats().total_invalidations for manager in managers
        ),
        "rtm.points_priced": sum(manager.cache.points_priced for manager in managers),
        "sim.events": events,
        "sim.jobs": counts.get("sim.jobs", 0),
        "sim.self_ms": event_loop_ns / 1e6,
        "sim.ns_per_event": event_loop_ns / events if events else 0.0,
        "sim.decision_memo_hit_pct": pct(decision_hits, decision_lookups),
        "sim.cost_memo_hit_pct": pct(cost_hits, cost_lookups),
        "sim.fingerprint_calls": calls("sim.fingerprint"),
        "sim.fingerprint_ms": inclusive_ms("sim.fingerprint"),
        "store.rows": calls("store.put_result"),
        "store.errors": calls("store.put_error"),
        "store.put_ms": inclusive_ms("store.put_result"),
        "store.flush_wait_ms": inclusive_ms("store.flush", "store.close"),
        "fleet.placements": placements,
        "fleet.candidates_per_placement": (
            tracer.counts.get("fleet.place", 0) / placements if placements else 0.0
        ),
        "fleet.place_ms": inclusive_ms("fleet.place"),
        "fleet.place_p99_us": _percentile_us(durations("fleet.place"), 99),
        "fleet.advance_ms": fleet_advance_ns / 1e6,
        "fleet.self_ms": layer_self_ns["fleet"] / 1e6,
        "fleet.migrations": counts.get("fleet.migrations", 0),
        "fleet.rejected_pct": counts.get("fleet.rejected_pct", 0.0),
        "fleet.build_ms": inclusive_ms("fleet.build"),
        "platforms.thermal_steps": calls("platforms.thermal_step"),
        "platforms.thermal_ms": inclusive_ms("platforms.thermal_step"),
        "perfmodel.cost_calls": calls("perfmodel.cost", "perfmodel.cost_grid"),
        "perfmodel.cost_ms": inclusive_ms("perfmodel.cost", "perfmodel.cost_grid"),
        "workloads.records_written": calls("workloads.write_application"),
        "workloads.records_read": int(
            tracer.counts.get("workloads.compute_trace_stats", 0)
            + tracer.counts.get("workloads.replay_build", 0)
        ),
        "workloads.trace_bytes": counts.get("workloads.trace_bytes", 0),
        "workloads.gen_ms": self_ns.get("workloads.write_diurnal_trace", 0) / 1e6,
        "workloads.write_ms": inclusive_ms("workloads.write_application"),
        "workloads.read_ms": inclusive_ms("workloads.compute_trace_stats"),
        "workloads.replay_build_ms": inclusive_ms("workloads.replay_build"),
        "experiments.specs": specs,
        "experiments.dedup_pct": pct(sum(s["deduplicated_replicas"] for s in stores), specs),
        "experiments.build_ms": inclusive_ms(
            "experiments.build_scenario", "experiments.build_manager"
        ),
        "experiments.self_ms": layer_self_ns["experiments"] / 1e6,
        "dnn.train_calls": calls("dnn.train"),
        "dnn.train_ms": inclusive_ms("dnn.train"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share_pct"] = pct(layer_self_ns[layer], window_ns)
    metrics["tracing.coverage_pct"] = pct(sum(layer_self_ns.values()), window_ns)
    return metrics


#: Per-layer metrics that are exact counts: equal on every traced call of a
#: run and on every run at one seed.
EXACT_COUNTS = (
    "rtm.decisions",
    "rtm.replays",
    "rtm.cache_hit_pct",
    "rtm.cache_invalidations",
    "rtm.points_priced",
    "sim.events",
    "sim.jobs",
    "sim.decision_memo_hit_pct",
    "sim.cost_memo_hit_pct",
    "sim.fingerprint_calls",
    "store.rows",
    "store.errors",
    "fleet.placements",
    "fleet.candidates_per_placement",
    "fleet.migrations",
    "fleet.rejected_pct",
    "platforms.thermal_steps",
    "perfmodel.cost_calls",
    "workloads.records_written",
    "workloads.records_read",
    "workloads.trace_bytes",
    "experiments.specs",
    "experiments.dedup_pct",
    "dnn.train_calls",
)
