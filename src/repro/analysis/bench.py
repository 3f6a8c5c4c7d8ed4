"""Benchmark harnesses and the one writer and gate of every ``BENCH_*.json``.

``repro-experiments bench`` times the two numbers every performance PR is
judged on — mean ``decide()`` time per decision epoch (with the
operating-point cache enabled and disabled) and end-to-end simulation time —
for a grid of registry scenarios x managers; ``bench --backend batched``
times the lock-step batched engine against the serial reference; and
``fleet bench`` (:mod:`repro.fleet.bench`) times a large orchestrated fleet.
Each writes a ``BENCH_*.json`` file that is committed next to the code, and
CI re-runs each one and fails when a gated metric regresses more than a
configured fraction against the committed baseline, so the perf trajectory
is enforced, not just observed.

All three documents go through :func:`write_bench_file`, which builds one
envelope (``schema_version``, ``generated_by``, ``generated_at_unix``,
``host``, ``config``, ``results``, then any extra sections), and all three
gates through :func:`compare_bench`, which compares ``{case: {metric:
value}}`` maps.  The decision kernel's results are already keyed by case; a
single-pass bench gates its flat results as one case (:func:`gate_cases`).

The decision kernel's committed file may carry a ``reference`` section:
timings of an older implementation measured with this same harness (the
pre-columnar-kernel profile seeded it).  When present it is preserved across
refreshes (:func:`reference_sections`) and the report prints speedup factors
against it.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import (
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
)
from repro.experiments.spec import ExperimentSpec
from repro.ioutils import atomic_write_text
from repro.sim.engine import ManagerProtocol, Simulator

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_KIND_DECISION",
    "BENCH_KIND_BATCHED",
    "DEFAULT_BENCH_PATH",
    "DEFAULT_BATCHED_BENCH_PATH",
    "GATED_FIELDS",
    "BenchTimings",
    "BenchRegression",
    "BatchedBenchResult",
    "run_bench_spec",
    "run_bench_specs",
    "run_batched_bench",
    "reference_sections",
    "write_bench_file",
    "load_bench_file",
    "gate_cases",
    "compare_bench",
]

BENCH_SCHEMA_VERSION = 1

#: Where the committed perf trajectory of the decision kernel lives.
DEFAULT_BENCH_PATH = "BENCH_decision_kernel.json"

#: Where the committed perf trajectory of the batched engine lives.
DEFAULT_BATCHED_BENCH_PATH = "BENCH_batched_engine.json"

#: Per-case decision-kernel fields gated by :func:`compare_bench` (lower is
#: better).  End-to-end times are not gated: they carry the full simulation
#: noise of the machine, while decide() time is what the trajectory tracks.
GATED_FIELDS = ("decide_ms_per_epoch_cached", "decide_ms_per_epoch_uncached")

#: ``bench_runs``/``bench_cases`` kind tags in the results store.
BENCH_KIND_DECISION = "decision_kernel"
BENCH_KIND_BATCHED = "batched_engine"


class _TimedManager:
    """Transparent manager wrapper accumulating decide() wall time.

    It opts out of the simulator's decision memo, so ``decide()`` runs, and
    is timed, at every epoch instead of being replayed past the timer.
    """

    def __init__(self, inner: ManagerProtocol) -> None:
        self._inner = inner
        self.total_s = 0.0
        self.count = 0

    def decide(self, state):  # noqa: ANN001 - mirrors ManagerProtocol
        start = time.perf_counter()
        decision = self._inner.decide(state)
        self.total_s += time.perf_counter() - start
        self.count += 1
        return decision

    def decision_memo_key(self) -> None:
        return None

    def __getattr__(self, name: str):
        # The simulator probes optional manager attributes (cache_stats);
        # forward everything that is not timing bookkeeping.
        return getattr(self._inner, name)


@dataclass
class BenchTimings:
    """Timings of one (scenario, manager) benchmark case."""

    scenario: str
    manager: str
    decisions: int
    jobs: int
    e2e_s: float
    e2e_s_uncached: float
    decide_ms_per_epoch_cached: float
    decide_ms_per_epoch_uncached: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "decisions": self.decisions,
            "jobs": self.jobs,
            "e2e_s": self.e2e_s,
            "e2e_s_uncached": self.e2e_s_uncached,
            "decide_ms_per_epoch_cached": self.decide_ms_per_epoch_cached,
            "decide_ms_per_epoch_uncached": self.decide_ms_per_epoch_uncached,
        }

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.manager}"


@dataclass
class BenchRegression:
    """One gated metric that exceeded the allowed regression."""

    case: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.case} {self.metric}: {self.current:.4f} vs baseline "
            f"{self.baseline:.4f} ({self.ratio:.2f}x)"
        )


def _one_run(spec: ExperimentSpec) -> tuple:
    """(e2e seconds, decide ms/epoch, decisions, jobs) of one spec execution.

    The timed manager answers ``decide()`` at every epoch, and, not being a
    :class:`~repro.rtm.manager.RuntimeManager` itself, keeps its own private
    operating-point cache rather than one over the simulator's stores.
    """
    scenario = build_scenario_from_spec(spec)
    manager = _TimedManager(build_manager_from_spec(spec))
    simulator_config = build_simulator_config(spec)
    start = time.perf_counter()
    trace = Simulator(scenario, manager, config=simulator_config).run()
    e2e_s = time.perf_counter() - start
    decide_ms = manager.total_s / manager.count * 1000.0 if manager.count else 0.0
    return e2e_s, decide_ms, manager.count, len(trace.jobs)


def run_bench_spec(spec: ExperimentSpec, repeats: int = 3) -> BenchTimings:
    """Benchmark one experiment spec (cached and uncached decision path).

    The spec's ``use_op_cache`` flag is overridden both ways: every case is
    timed with the operating-point cache enabled *and* disabled, since the
    two decide()-per-epoch numbers are the benchmark's payload.  Each
    configuration runs ``repeats`` times and the best (minimum) timing is
    kept — the standard way to suppress scheduler noise when the workload is
    deterministic.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    cached_spec = dataclasses.replace(spec, use_op_cache=True)
    uncached_spec = dataclasses.replace(spec, use_op_cache=False)
    cached = [_one_run(cached_spec) for _ in range(repeats)]
    uncached = [_one_run(uncached_spec) for _ in range(repeats)]
    decisions, jobs = cached[0][2], cached[0][3]
    return BenchTimings(
        scenario=spec.scenario,
        manager=spec.manager,
        decisions=decisions,
        jobs=jobs,
        e2e_s=round(min(run[0] for run in cached), 4),
        e2e_s_uncached=round(min(run[0] for run in uncached), 4),
        decide_ms_per_epoch_cached=round(min(run[1] for run in cached), 4),
        decide_ms_per_epoch_uncached=round(min(run[1] for run in uncached), 4),
    )


def _timings_payload(timings: BenchTimings) -> Dict[str, object]:
    """Store payload of one bench case (``as_dict`` plus the case identity)."""
    return {"scenario": timings.scenario, "manager": timings.manager, **timings.as_dict()}


def _timings_from_payload(payload: Dict[str, object]) -> BenchTimings:
    return BenchTimings(**payload)  # type: ignore[arg-type]


def run_bench_specs(
    specs: Sequence[ExperimentSpec],
    repeats: int = 3,
    progress=None,
    store=None,
    resume: bool = False,
) -> List[BenchTimings]:
    """Benchmark a sequence of experiment specs.

    ``progress`` is an optional callable invoked with each finished
    :class:`BenchTimings` (the CLI prints a row per case).

    ``store`` (a :class:`~repro.store.ResultsStore`) makes the bench
    incremental the same way a sweep is: each case's timings are streamed to
    the store's ``bench_cases`` table under its spec_id as the case
    finishes, and with ``resume=True`` cases already stored are *loaded*
    instead of re-timed — an interrupted bench grid picks up where it died.
    """
    if resume and store is None:
        raise ValueError("resume=True requires a results store")
    results = []
    for spec in specs:
        spec_id = spec.spec_id()
        timings = None
        if resume:
            payload = store.get_bench_case(spec_id, BENCH_KIND_DECISION)
            if payload is not None:
                timings = _timings_from_payload(payload)
        if timings is None:
            timings = run_bench_spec(spec, repeats=repeats)
            if store is not None:
                store.put_bench_case(spec_id, BENCH_KIND_DECISION, _timings_payload(timings))
        if progress is not None:
            progress(timings)
        results.append(timings)
    return results


# ------------------------------------------------------- batched-engine bench


@dataclass
class BatchedBenchResult:
    """Timings of the lock-step batched engine against the serial reference.

    ``fingerprints_identical`` is the correctness payload: every spec's trace
    fingerprint must match between the two backends, or the comparison is
    meaningless however fast the engine ran.
    """

    specs: int
    batched_s: float
    serial_s: float
    fingerprints_identical: bool
    errors: int

    @property
    def speedup(self) -> float:
        """Serial wall time over batched wall time (higher is better)."""
        return self.serial_s / self.batched_s if self.batched_s else float("inf")

    def as_dict(self) -> Dict[str, object]:
        return {
            "specs": self.specs,
            "batched_s": self.batched_s,
            "serial_s": self.serial_s,
            "speedup": round(self.speedup, 2),
            "fingerprints_identical": self.fingerprints_identical,
            "errors": self.errors,
        }


def _time_backend(specs: Sequence[ExperimentSpec], backend: str) -> tuple:
    """(wall seconds, label -> fingerprint, error count) of one batch run."""
    from repro.experiments.runner import run_many

    start = time.perf_counter()
    batch = run_many(specs, backend=backend, validate=False)
    wall_s = time.perf_counter() - start
    fingerprints = {label: trace.fingerprint() for label, trace in batch.traces.items()}
    return wall_s, fingerprints, len(batch.errors)


def run_batched_bench(
    specs: Sequence[ExperimentSpec],
    repeats: int = 1,
    progress=None,
) -> BatchedBenchResult:
    """Time the ``batched`` backend against the ``serial`` reference.

    Each backend runs ``repeats`` times and the best wall time is kept.  The
    batched passes run *before* the serial ones: hundreds of live serial
    traces inflate allocator pressure for everything timed after them, and
    ordering batched first keeps its measurement clean (the serial reference
    is long enough to be insensitive to the leftover batched state).

    ``progress`` is an optional callable invoked with a one-line message per
    completed pass (the CLI prints them).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    batched_runs = []
    for index in range(repeats):
        run = _time_backend(specs, "batched")
        batched_runs.append(run)
        if progress is not None:
            progress(f"batched pass {index + 1}/{repeats}: {run[0]:.2f} s")
    serial_runs = []
    for index in range(repeats):
        run = _time_backend(specs, "serial")
        serial_runs.append(run)
        if progress is not None:
            progress(f"serial pass {index + 1}/{repeats}: {run[0]:.2f} s")
    batched_fingerprints = batched_runs[0][1]
    serial_fingerprints = serial_runs[0][1]
    errors = batched_runs[0][2] + serial_runs[0][2]
    return BatchedBenchResult(
        specs=len(specs),
        batched_s=round(min(run[0] for run in batched_runs), 4),
        serial_s=round(min(run[0] for run in serial_runs), 4),
        fingerprints_identical=(errors == 0 and batched_fingerprints == serial_fingerprints),
        errors=errors,
    )


def _speedups(reference: Dict[str, dict], results: Dict[str, dict]) -> Dict[str, dict]:
    speedups: Dict[str, dict] = {}
    for key, current in results.items():
        base = reference.get(key)
        if not base:
            continue
        entry = {}
        for metric in (
            "e2e_s",
            "e2e_s_uncached",
            "decide_ms_per_epoch_cached",
            "decide_ms_per_epoch_uncached",
        ):
            if base.get(metric) and current.get(metric):
                entry[metric] = round(base[metric] / current[metric], 2)
        if entry:
            speedups[key] = entry
    return speedups


def reference_sections(path: str, results: Mapping[str, dict]) -> Dict[str, object]:
    """The decision kernel's extra sections, carried over from the file at ``path``.

    An existing ``reference`` (with its ``reference_note``) is kept unchanged
    and ``speedup_vs_reference`` is recomputed against the fresh per-case
    ``results``.  Empty when the file is missing, unreadable or holds no
    reference.
    """
    try:
        existing = load_bench_file(path)
    except (OSError, ValueError):
        return {}
    reference = existing.get("reference")
    if not reference:
        return {}
    sections: Dict[str, object] = {"reference": reference}
    note = str(existing.get("reference_note", ""))
    if note:
        sections["reference_note"] = note
    sections["speedup_vs_reference"] = _speedups(reference, results)
    return sections


def write_bench_file(
    path: str,
    kind: str,
    generated_by: str,
    config: Dict[str, object],
    results: Dict[str, object],
    extra: Optional[Dict[str, object]] = None,
    store=None,
) -> Dict[str, object]:
    """Write one benchmark JSON document (and return it).

    Every ``BENCH_*.json`` shares this envelope: ``schema_version``,
    ``generated_by``, ``generated_at_unix``, ``host``, ``config`` and
    ``results``, followed by the ``extra`` top-level sections in their given
    order (the decision kernel's :func:`reference_sections`).  The write is
    atomic, and with a ``store`` the document is appended to its
    ``bench_runs`` table under ``kind``, so the committed JSON becomes a view
    over the warehouse's bench trend.
    """
    document: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": generated_by,
        "generated_at_unix": int(time.time()),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "config": config,
        "results": results,
        **(extra or {}),
    }
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=False) + "\n")
    if store is not None:
        store.put_bench_run(kind, document)
    return document


def load_bench_file(path: str) -> Dict[str, object]:
    """Load a benchmark JSON document."""
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def gate_cases(
    kind: str,
    results: Dict[str, object],
    baseline: Mapping[str, object],
    grid: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """The ``(current, baseline)`` case maps :func:`compare_bench` gates.

    Without ``grid`` the ``results`` are already keyed by case (the decision
    kernel) and meet the ``baseline`` document's results case by case.  A
    single-pass bench (batched engine, fleet) passes its ``grid`` keys: its
    flat results are one case named ``kind``, and the baseline contributes
    that case only when it measured the same grid — equal values under every
    grid key — since a different grid is not comparable.
    """
    base = baseline.get("results")
    if not isinstance(base, dict):
        base = {}
    if grid is None:
        return results, base  # type: ignore[return-value]
    same_grid = all(base.get(key) == results.get(key) for key in grid)
    return {kind: results}, ({kind: base} if same_grid else {})


def compare_bench(
    current: Mapping[str, Mapping[str, object]],
    baseline: Mapping[str, Mapping[str, object]],
    metrics: Sequence[str],
    max_regression: float = 0.25,
) -> List[BenchRegression]:
    """Gate fresh ``{case: {metric: value}}`` timings against a baseline map.

    Returns every gated ``metric`` that is more than ``max_regression``
    (fraction) slower than the baseline, for cases present in both maps.  A
    metric missing or zero in the baseline, or missing in the fresh timings,
    is not gated.
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    regressions: List[BenchRegression] = []
    for case, fresh in current.items():
        base = baseline.get(case)
        if not base:
            continue
        for metric in metrics:
            base_value = base.get(metric)
            value = fresh.get(metric)
            if not base_value or value is None:
                continue
            if value > base_value * (1.0 + max_regression):
                regressions.append(
                    BenchRegression(
                        case=case,
                        metric=metric,
                        baseline=float(base_value),
                        current=float(value),
                    )
                )
    return regressions
