"""Simulation trace records and summary statistics.

The simulator records every inference job, every power/temperature sample and
every manager decision.  The summaries computed here (violation rates, energy
totals, per-application latency statistics) are what the Fig 2 benchmark and
the ablation study report.

The records are :class:`typing.NamedTuple` classes: immutable, hashable and
picklable like frozen dataclasses, but built in one tuple allocation instead
of one ``object.__setattr__`` per field, and a simulation builds one per job,
sample and decision.  Being tuples, they compare equal to any tuple of the
same values, and the :mod:`dataclasses` helpers do not apply to them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

__all__ = ["JobRecord", "PowerSample", "DecisionRecord", "FaultRecord", "SimulationTrace"]


class JobRecord(NamedTuple):
    """One completed (or dropped) inference job.

    Attributes
    ----------
    app_id:
        Application the job belongs to.
    job_index:
        Per-application job counter.
    release_ms / start_ms / finish_ms:
        When the job was released, started and finished.  Dropped jobs have
        ``start_ms == finish_ms == release_ms``.
    latency_ms:
        Execution latency (0 for dropped jobs).
    energy_mj:
        Energy consumed by the job.
    configuration:
        Dynamic-DNN fraction the job ran with.
    accuracy_percent:
        Top-1 accuracy of that configuration.
    cluster / cores / frequency_mhz:
        Where the job ran.
    violations:
        Names of requirement metrics the job violated.
    dropped:
        True when the job never ran (no mapping, or backlog overflow).
    """

    app_id: str
    job_index: int
    release_ms: float
    start_ms: float
    finish_ms: float
    latency_ms: float
    energy_mj: float
    configuration: float
    accuracy_percent: float
    cluster: str
    cores: int
    frequency_mhz: float
    violations: tuple = ()
    dropped: bool = False

    @property
    def met_requirements(self) -> bool:
        """True when the job met every requirement and was not dropped."""
        return not self.violations and not self.dropped

    @property
    def response_time_ms(self) -> float:
        """Release-to-finish time (includes queueing)."""
        return self.finish_ms - self.release_ms


class PowerSample(NamedTuple):
    """One power / temperature sample."""

    time_ms: float
    power_mw: float
    temperature_c: float
    throttling: bool


class DecisionRecord(NamedTuple):
    """One runtime-manager decision epoch.

    ``cache_hits`` / ``cache_misses`` are the *cumulative* operating-point
    cache counters at the time of the decision (0 when the manager has no
    cache), so the per-epoch delta and the end-of-run totals can both be read
    off the decision list.
    """

    time_ms: float
    num_actions: int
    trigger: str
    cache_hits: int = 0
    cache_misses: int = 0


class FaultRecord(NamedTuple):
    """One injected fault, recovery, or job crash/retry/loss.

    Attributes
    ----------
    time_ms:
        When the fault took (or will take) effect.
    kind:
        Fault kind: a timeline-event kind (``core_failure``, ``freq_cap``,
        ``sensor_bias``, ...) or a crash-model kind (``job_crash``,
        ``job_retry``, ``job_lost``).
    target:
        The cluster or application the fault acted on (may be empty for
        SoC-wide faults such as sensor bias).
    value:
        Kind-specific magnitude: cores failed/recovered, cap frequency,
        bias degrees, crash attempt number.
    detail:
        Free-form note for humans (not load-bearing for determinism).
    """

    time_ms: float
    kind: str
    target: str = ""
    value: float = 0.0
    detail: str = ""


#: Records per sha256 update in :meth:`SimulationTrace.fingerprint`, and the
#: lifetime of its float memo: large enough to amortise both, small enough
#: that a trace of any length is hashed in a few MB.
_CHUNK_RECORDS = 4096

#: The values each record contributes to the fingerprint, in hashed order.
_POWER_FIELDS = attrgetter("time_ms", "power_mw", "temperature_c", "throttling")
_DECISION_FIELDS = attrgetter("time_ms", "num_actions", "trigger")
_FAULT_FIELDS = attrgetter("time_ms", "kind", "target", "value")
_JOB_ATTRIBUTES = attrgetter(
    "app_id",
    "job_index",
    "release_ms",
    "start_ms",
    "finish_ms",
    "latency_ms",
    "energy_mj",
    "configuration",
    "accuracy_percent",
    "cluster",
    "cores",
    "frequency_mhz",
)


def _job_fields(job: JobRecord) -> tuple:
    """A job's hashed values: its attributes, then its violations as one
    tuple and its dropped flag."""
    return (*_JOB_ATTRIBUTES(job), tuple(job.violations), job.dropped)


def _float_text(value: float) -> str:
    """``repr(round(value, 6))`` of a built-in float.

    In ``1e-4 <= abs(value) < 1e9`` that is ``"%.6f" % value`` without its
    trailing zeros, which costs one formatting instead of a rounding and a
    ``repr``: ``%.6f`` and ``round(value, 6)`` take the same correctly
    rounded 6-decimal digits, and that decimal has at most 15 significant
    digits, so it is what ``repr`` prints for the double it parses to.
    Outside that range ``repr`` may switch to exponent notation (or print
    nan and inf), so the expression itself is used.
    """
    if 1e-4 <= abs(value) < 1e9:
        formatted = ("%.6f" % value).rstrip("0")
        return formatted + "0" if formatted[-1] == "." else formatted
    return repr(round(value, 6))


@dataclass
class SimulationTrace:
    """Everything recorded during one simulation run."""

    jobs: List[JobRecord] = field(default_factory=list)
    power_samples: List[PowerSample] = field(default_factory=list)
    decisions: List[DecisionRecord] = field(default_factory=list)
    duration_ms: float = 0.0
    faults: List[FaultRecord] = field(default_factory=list)

    # ------------------------------------------------------------ recording

    def record_job(self, job: JobRecord) -> None:
        """Append a job record."""
        self.jobs.append(job)

    def record_power(self, sample: PowerSample) -> None:
        """Append a power sample."""
        self.power_samples.append(sample)

    def record_decision(self, decision: DecisionRecord) -> None:
        """Append a decision record."""
        self.decisions.append(decision)

    def record_fault(self, fault: FaultRecord) -> None:
        """Append a fault record."""
        self.faults.append(fault)

    # -------------------------------------------------------------- queries

    def jobs_for(self, app_id: str) -> List[JobRecord]:
        """All jobs of one application."""
        return [job for job in self.jobs if job.app_id == app_id]

    def app_ids(self) -> List[str]:
        """Applications that produced at least one job."""
        return sorted({job.app_id for job in self.jobs})

    def completed_jobs(self, app_id: Optional[str] = None) -> List[JobRecord]:
        """Jobs that actually ran (not dropped)."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return [job for job in jobs if not job.dropped]

    def violation_count(self, app_id: Optional[str] = None) -> int:
        """Number of jobs that violated at least one requirement or were dropped."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return sum(1 for job in jobs if not job.met_requirements)

    def violation_rate(self, app_id: Optional[str] = None) -> float:
        """Fraction of jobs that violated requirements (0 when no jobs ran)."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        if not jobs:
            return 0.0
        return self.violation_count(app_id) / len(jobs)

    def total_energy_mj(self, app_id: Optional[str] = None) -> float:
        """Total inference energy."""
        jobs = self.completed_jobs(app_id)
        return float(sum(job.energy_mj for job in jobs))

    def mean_latency_ms(self, app_id: Optional[str] = None) -> float:
        """Mean latency over completed jobs (0 when none completed)."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.latency_ms for job in jobs]))

    def mean_accuracy_percent(self, app_id: Optional[str] = None) -> float:
        """Mean configuration accuracy over completed jobs."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.accuracy_percent for job in jobs]))

    def mean_configuration(self, app_id: Optional[str] = None) -> float:
        """Mean dynamic-DNN fraction over completed jobs."""
        jobs = self.completed_jobs(app_id)
        if not jobs:
            return 0.0
        return float(np.mean([job.configuration for job in jobs]))

    def delivered_fps(self, app_id: str) -> float:
        """Completed jobs per second for one application."""
        jobs = self.completed_jobs(app_id)
        if not jobs or self.duration_ms <= 0:
            return 0.0
        return len(jobs) / (self.duration_ms / 1000.0)

    def peak_temperature_c(self) -> float:
        """Highest sampled temperature."""
        if not self.power_samples:
            return 0.0
        return max(sample.temperature_c for sample in self.power_samples)

    def mean_power_mw(self) -> float:
        """Mean sampled power."""
        if not self.power_samples:
            return 0.0
        return float(np.mean([sample.power_mw for sample in self.power_samples]))

    def throttling_fraction(self) -> float:
        """Fraction of samples spent thermally throttled."""
        if not self.power_samples:
            return 0.0
        return sum(1 for s in self.power_samples if s.throttling) / len(self.power_samples)

    def faults_of_kind(self, kind: str) -> List[FaultRecord]:
        """All fault records of one kind."""
        return [fault for fault in self.faults if fault.kind == kind]

    def crashed_jobs(self, app_id: Optional[str] = None) -> List[JobRecord]:
        """Jobs dropped because every retry attempt crashed."""
        jobs = self.jobs if app_id is None else self.jobs_for(app_id)
        return [job for job in jobs if job.dropped and "crashed" in job.violations]

    def cache_counters(self) -> Dict[str, int]:
        """Cumulative operating-point cache counters at the end of the run.

        Read from the last decision record (counters are cumulative), so they
        survive pickling across sweep worker processes.  All-zero when the
        manager ran without a cache.
        """
        if not self.decisions:
            return {"hits": 0, "misses": 0}
        last = self.decisions[-1]
        return {"hits": last.cache_hits, "misses": last.cache_misses}

    # ---------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Compact deterministic digest of the behavioural content of the trace.

        Covers the duration, then every job, power sample, decision (time,
        action count and trigger) and fault (time, kind, target and value).
        Cache counters are deliberately excluded: caching must not change
        behaviour, and the golden-trace regression tests assert exactly that
        by comparing fingerprints of cached and uncached runs.  Floats are
        rounded to 6 decimals so last-ulp libm differences across platforms
        cannot flip the digest.

        The hashed bytes are, record after record, ``repr`` of the record's
        tuple of values with every float ``v`` replaced by ``round(v, 6)`` (a
        job's violations are one nested tuple, left as it is).  They are fed
        to one sha256 in chunks of ``_CHUNK_RECORDS`` records, which gives
        the digest of one update per record while memory stays bounded on any
        trace.  Within a chunk each distinct non-zero built-in float is
        formatted once (:func:`_float_text`, exact by construction); every
        other value (zeros, float subclasses such as ``np.float64``, ints,
        bools and strings) is rounded and ``repr``-ed as it is.
        ``tests/test_fingerprint_encoder.py`` keeps the one-update-per-record
        encoding as the reference this one must match.
        """
        digest = hashlib.sha256()
        # Only non-zero built-in floats are memoised: 0.0 and -0.0 are one
        # key but two texts, and 1 == 1.0 == np.float64(1.0) are one key too.
        memo: Dict[float, str] = {}

        def text(value: object) -> str:
            if type(value) is float and value != 0.0:
                formatted = memo.get(value)
                if formatted is None:
                    formatted = memo[value] = _float_text(value)
                return formatted
            return repr(round(value, 6) if isinstance(value, float) else value)

        digest.update(("('duration', %s)" % text(self.duration_ms)).encode("utf-8"))
        # Fault records extend the digest only when faults were injected, so
        # every fault-free fingerprint minted before fault injection existed
        # is unchanged.
        for kind, records, fields in (
            ("job", self.jobs, _job_fields),
            ("power", self.power_samples, _POWER_FIELDS),
            ("decision", self.decisions, _DECISION_FIELDS),
            ("fault", self.faults, _FAULT_FIELDS),
        ):
            head = "('%s', " % kind
            for start in range(0, len(records), _CHUNK_RECORDS):
                memo.clear()
                chunk = records[start:start + _CHUNK_RECORDS]
                text_of_chunk = "".join(
                    [head + ", ".join(map(text, fields(record))) + ")" for record in chunk]
                )
                digest.update(text_of_chunk.encode("utf-8"))
        return digest.hexdigest()[:16]

    # -------------------------------------------------------------- summary

    def summary(self) -> Dict[str, object]:
        """Headline statistics of the run."""
        per_app = {}
        for app_id in self.app_ids():
            per_app[app_id] = {
                "jobs": len(self.jobs_for(app_id)),
                "completed": len(self.completed_jobs(app_id)),
                "violation_rate": round(self.violation_rate(app_id), 4),
                "mean_latency_ms": round(self.mean_latency_ms(app_id), 2),
                "mean_accuracy_percent": round(self.mean_accuracy_percent(app_id), 2),
                "mean_configuration": round(self.mean_configuration(app_id), 3),
                "delivered_fps": round(self.delivered_fps(app_id), 2),
                "energy_mj": round(self.total_energy_mj(app_id), 1),
            }
        return {
            "duration_ms": self.duration_ms,
            "total_jobs": len(self.jobs),
            "total_violations": self.violation_count(),
            "violation_rate": round(self.violation_rate(), 4),
            "total_energy_mj": round(self.total_energy_mj(), 1),
            "mean_power_mw": round(self.mean_power_mw(), 1),
            "peak_temperature_c": round(self.peak_temperature_c(), 1),
            "throttling_fraction": round(self.throttling_fraction(), 4),
            "decisions": len(self.decisions),
            "faults": len(self.faults),
            "cache": self.cache_counters(),
            "per_app": per_app,
        }
