"""The benchmark's four workloads, each driving one public entry point of ``repro``.

Every workload is a closed loop: one caller in one process issues a call,
waits for it, checks it, and issues the next.  A workload object goes
through these steps (see ``worker.py``):

``generate_inputs()``
    The benchmark's own input generation from ``--seed``; excluded from
    ``setup_s``.
``setup()``
    The program's set-up before the first timed call (specs, parsed
    trace, trained DNN, built fleet); included in ``setup_s``.
``prepare(index)``
    Fresh per-call state for calls after the first (a new results store,
    a newly built fleet); not timed.
``call()``
    The timed call into the library's public API.
``check(output)``
    Correctness checks, the fingerprint digest and the modelled
    (deterministic) end-to-end metrics of one call; not timed.

The library is reached through module attributes (``runner.run_many``,
``diurnal.write_diurnal_trace``, ...) so the traced run's wrappers see the
calls.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments import ExperimentSpec, runner
from repro.fleet.bench import bench_device_mix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.spec import FleetSpec
from repro.store import ResultsStore
from repro.workloads import diurnal, traces

#: The paper's manager comparison: eight seeded families plus one chaos
#: scenario, crossed with every registered manager.
SWEEP_FAMILIES = (
    "rush_hour",
    "steady",
    "overload",
    "multi_app_contention",
    "bursty",
    "battery_saver",
    "accuracy_critical",
    "mixed_criticality",
    "chaos_rush_hour_core_failure",
)
SWEEP_MANAGERS = ("rtm", "governor_only", "rtm_min_energy", "static_deployment")


@dataclass
class Outcome:
    """What one checked call produced."""

    attempted: int
    failed: int
    digest: str
    #: Modelled end-to-end metrics: exact at a fixed seed.
    modelled: Dict[str, float] = field(default_factory=dict)
    #: Units of work the call did (simulated device-seconds or records).
    work: float = 0.0
    #: Exact per-layer counts read from the call's public results.
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def job_metrics(trace_list) -> Dict[str, float]:
    """Requirements met, energy per completed job and mean accuracy.

    Dropped jobs count as missed requirements; energy and accuracy are over
    completed (not dropped) jobs.
    """
    jobs = met = completed = 0
    energy = accuracy = 0.0
    for trace in trace_list:
        for job in trace.jobs:
            jobs += 1
            if job.met_requirements:
                met += 1
            if not job.dropped:
                completed += 1
                energy += job.energy_mj
                accuracy += job.accuracy_percent
    return {
        "requirements_met_pct": 100.0 * met / jobs if jobs else 0.0,
        "energy_mj_per_job": energy / completed if completed else 0.0,
        "accuracy_pct_mean": accuracy / completed if completed else 0.0,
    }


class Workload:
    """Shared defaults; subclasses implement the five steps."""

    name = ""
    #: What ``Outcome.work`` counts, for the throughput line of the report.
    work_unit = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def generate_inputs(self) -> None:
        pass

    def setup(self) -> None:
        self.prepare(0)

    def prepare(self, index: int) -> None:
        pass

    def cleanup(self) -> None:
        gc.collect()


class SweepGrid(Workload):
    """``run_many(backend="batched")`` over the manager-comparison grid.

    Many replicas share decision work, so the batched simulator, the shared
    memos and the store's per-result ``put_result`` dominate.
    """

    name = "sweep_grid"
    work_unit = "sim device-s"

    def __init__(self, seed: int, work_dir: Path, seeds_per_family: int = 3) -> None:
        super().__init__(seed, work_dir)
        self.grid_seeds = [seed * seeds_per_family + k for k in range(seeds_per_family)]
        self.backend = "batched"
        self.store: Optional[ResultsStore] = None

    def setup(self) -> None:
        self.specs = runner.grid_specs(SWEEP_FAMILIES, SWEEP_MANAGERS, self.grid_seeds)
        super().setup()

    def prepare(self, index: int) -> None:
        self.store_path = self.work_dir / f"grid-{index}.db"
        self.store = ResultsStore(self.store_path)

    def call(self):
        batch = runner.run_many(self.specs, backend=self.backend, store=self.store)
        self.store.close()
        return batch

    def check(self, batch) -> Outcome:
        outcome = Outcome(attempted=len(self.specs), failed=0, digest="")
        with ResultsStore(self.store_path) as store:
            rows = {row.spec_id: row for row in store.results()}
        fingerprints: Dict[int, str] = {}
        lines = []
        durations = 0.0
        for spec in self.specs:
            result = batch.results.get(spec.label)
            if result is None:
                outcome.failed += 1
                outcome.problems.append(f"{spec.label}: no trace ({batch.errors.get(spec.label)})")
                continue
            trace = result.trace
            # Deduplicated replicas share one trace object.
            fingerprint = fingerprints.get(id(trace))
            if fingerprint is None:
                fingerprint = fingerprints[id(trace)] = trace.fingerprint()
            row = rows.get(spec.spec_id())
            if row is None or row.fingerprint != fingerprint:
                outcome.failed += 1
                outcome.problems.append(f"{spec.label}: store row missing or fingerprint differs")
            lines.append(f"{spec.label}:{fingerprint}")
            durations += trace.duration_ms / 1000.0
        if len(rows) != len(self.specs):
            outcome.failed += 1
            outcome.problems.append(f"store holds {len(rows)} rows for {len(self.specs)} specs")
        outcome.digest = _digest(lines)
        outcome.work = durations
        unique = {id(r.trace): r.trace for r in batch.results.values()}
        outcome.modelled = job_metrics(r.trace for r in batch.results.values())
        outcome.counts = {"sim.jobs": sum(len(t.jobs) for t in unique.values())}
        return outcome

    def cleanup(self) -> None:
        self.store = None
        for suffix in ("", "-wal", "-shm"):
            Path(f"{self.store_path}{suffix}").unlink(missing_ok=True)
        super().cleanup()


class DeviceDay(Workload):
    """``run(spec)`` replaying a compressed diurnal day on one ``odroid_xu3``.

    Nothing is shared across replicas and the device's operating-point
    cache is flushed on every departure, so the ``rtm`` decision kernel on
    the serial ``Simulator`` + ``EventQueue`` path dominates.
    """

    name = "device_day"
    work_unit = "sim device-s"

    def __init__(self, seed: int, work_dir: Path, duration_s: float = 1200.0) -> None:
        super().__init__(seed, work_dir)
        # period_ms == duration_ms compresses a whole day/night cycle into
        # the trace, so load rises, peaks and falls within one replay; 0.35
        # sessions/s of 15 s each keep about two thirds of jobs within their
        # requirements.
        self.config = diurnal.DiurnalConfig(
            duration_ms=duration_s * 1000.0,
            period_ms=duration_s * 1000.0,
            base_rate_per_s=0.35,
            mean_session_ms=15_000.0,
        )
        self.trace_path = work_dir / "device-day.jsonl.gz"

    def generate_inputs(self) -> None:
        self.records = diurnal.write_diurnal_trace(self.trace_path, self.config, seed=self.seed)

    def setup(self) -> None:
        self.spec = ExperimentSpec(
            scenario="trace",
            manager="rtm",
            platform="odroid_xu3",
            scenario_params={"path": str(self.trace_path)},
        )
        self.spec.validate()
        scenario = runner.build_scenario_from_spec(self.spec)
        self.replayed_apps = len(scenario.applications)
        super().setup()

    def call(self):
        return runner.run(self.spec)

    def check(self, result) -> Outcome:
        outcome = Outcome(attempted=1, failed=0, digest=result.trace.fingerprint())
        if self.replayed_apps != self.records:
            outcome.problems.append(
                f"replayed scenario has {self.replayed_apps} applications "
                f"for {self.records} trace records"
            )
        if not result.trace.jobs:
            outcome.problems.append("the replay produced no jobs")
        outcome.failed = 1 if outcome.problems else 0
        outcome.work = self.config.duration_ms / 1000.0
        outcome.modelled = job_metrics([result.trace])
        outcome.counts = {"sim.jobs": len(result.trace.jobs)}
        return outcome


class FleetChurn(Workload):
    """``FleetOrchestrator.run()`` over 1000 devices with device churn.

    The only workload with placement, telemetry, churn evacuation and
    per-device result fingerprinting, and the largest working set.
    """

    name = "fleet_churn"
    work_unit = "sim device-s"

    def __init__(
        self, seed: int, work_dir: Path, devices: int = 1000, backend: str = "batched"
    ) -> None:
        super().__init__(seed, work_dir)
        self.spec = FleetSpec(
            scenario="fleet_device_churn",
            policy="least_loaded",
            seed=seed,
            devices=bench_device_mix(devices),
        )
        self.backend = backend
        self.orchestrator: Optional[FleetOrchestrator] = None

    def prepare(self, index: int) -> None:
        self.orchestrator = FleetOrchestrator(self.spec, self.backend)

    def call(self):
        return self.orchestrator.run()

    def check(self, result) -> Outcome:
        outcome = Outcome(attempted=1, failed=0, digest=result.fingerprint())
        counts = result.app_counts
        if counts["arrived"] != counts["placed"] + counts["rejected"]:
            outcome.problems.append(f"arrived != placed + rejected: {counts}")
        if counts["placed"] != counts["resident"] + counts["in_migration"] + counts["departed"]:
            outcome.problems.append(f"placed != resident + in_migration + departed: {counts}")
        device_jobs = sum(len(result.traces[d].jobs) for d in result.device_ids)
        if device_jobs != result.total_jobs():
            outcome.problems.append(
                f"per-device jobs sum to {device_jobs}, total_jobs() is {result.total_jobs()}"
            )
        outcome.failed = 1 if outcome.problems else 0
        outcome.work = len(result.device_ids) * self.orchestrator.scenario.duration_ms / 1000.0
        outcome.modelled = job_metrics(result.traces.values())
        arrived = counts["arrived"]
        outcome.counts = {
            "sim.jobs": device_jobs,
            "fleet.migrations": len(result.migrations),
            "fleet.rejected_pct": 100.0 * counts["rejected"] / arrived if arrived else 0.0,
        }
        return outcome

    def cleanup(self) -> None:
        self.orchestrator = None
        super().cleanup()


class TraceIO(Workload):
    """``write_diurnal_trace`` then ``compute_trace_stats`` on a gzip trace.

    The streaming writer and reader do nearly all the work; no simulation.
    """

    name = "trace_io"
    work_unit = "records"

    def __init__(self, seed: int, work_dir: Path, arrivals: int = 20_000) -> None:
        super().__init__(seed, work_dir)
        self.config = diurnal.config_for_arrivals(arrivals)

    def prepare(self, index: int) -> None:
        self.path = self.work_dir / f"trace-{index}.jsonl.gz"

    def call(self):
        written = diurnal.write_diurnal_trace(self.path, self.config, seed=self.seed)
        stats = traces.compute_trace_stats(self.path)
        return written, stats

    def check(self, output) -> Outcome:
        written, stats = output
        payload = self.path.read_bytes()
        # An independent reader: count record lines without the trace module.
        with gzip.open(self.path, "rt", encoding="utf-8") as stream:
            file_records = sum(1 for _ in stream) - 1
        outcome = Outcome(
            attempted=written, failed=0, digest=hashlib.sha256(payload).hexdigest()[:16]
        )
        if not written == file_records == stats.num_applications:
            outcome.problems.append(
                f"records written {written}, in the file {file_records}, "
                f"read by compute_trace_stats {stats.num_applications}"
            )
            outcome.failed = written
        outcome.work = written
        outcome.modelled = {"trace_bytes_per_record": len(payload) / written if written else 0.0}
        outcome.counts = {"workloads.trace_bytes": len(payload)}
        return outcome

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)
        super().cleanup()


WORKLOADS = {cls.name: cls for cls in (SweepGrid, DeviceDay, FleetChurn, TraceIO)}


def model_error_pct() -> Dict[str, float]:
    """Calibration residual of the latency/energy model against Table I.

    Mean absolute percentage error of the modelled single-core inference
    latency and energy over the paper's ten Table I rows, priced exactly as
    ``repro-experiments table1`` prices them.  The rows are also the
    calibration targets, so this is a residual, not a held-out validation.
    """
    from repro.data.measurements import TABLE1_ROWS
    from repro.dnn.zoo import cifar_group_cnn
    from repro.perfmodel import CalibratedLatencyModel, EnergyModel
    from repro.platforms import jetson_nano, odroid_xu3

    model = EnergyModel(CalibratedLatencyModel())
    network = cifar_group_cnn()
    socs = {"odroid_xu3": odroid_xu3(), "jetson_nano": jetson_nano()}
    latency_errors, energy_errors = [], []
    for row in TABLE1_ROWS:
        cluster = socs[row.platform].cluster(row.cluster)
        table = cluster.opp_table
        frequency = (
            row.frequency_mhz
            if table.contains_frequency(row.frequency_mhz)
            else table.nearest(row.frequency_mhz).frequency_mhz
        )
        cost = model.cost(
            network, cluster, frequency_mhz=frequency, cores_used=1, soc_name=row.platform
        )
        latency_errors.append(abs(cost.latency_ms / row.execution_time_ms - 1.0) * 100.0)
        energy_errors.append(abs(cost.energy_mj / row.energy_mj - 1.0) * 100.0)
    latency = sum(latency_errors) / len(latency_errors)
    energy = sum(energy_errors) / len(energy_errors)
    return {
        "model_error_pct": (latency + energy) / 2.0,
        "model_latency_error_pct": latency,
        "model_energy_error_pct": energy,
    }
