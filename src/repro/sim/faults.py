"""Seeded, declarative fault injection for the simulator.

A :class:`FaultPlan` is a timeline of typed fault events plus an optional
seeded transient-crash profile.  Plans are plain data — TOML/JSON loadable,
content-hashable — so an :class:`~repro.experiments.spec.ExperimentSpec` can
carry one and keep the golden-fingerprint determinism lattice intact: the
same spec with the same plan produces bit-identical traces on the serial,
process, and batched backends.

Fault vocabulary
----------------

``core_failure`` / ``core_recovery``
    Cores drop dead (or come back) outside the RTM's control.  Failures
    claim the highest-indexed cores of a cluster; the RTM's own
    ``SetCoresOnline`` requests are capped so it cannot resurrect them.
``freq_cap`` / ``freq_cap_release``
    A DVFS ceiling: every frequency request above the cap is clamped to the
    highest operating point at or below it (a firmware thermal cap).
``sensor_bias`` / ``sensor_dropout`` / ``sensor_restore``
    The thermal sensor reads wrong: a constant bias, or a frozen (stuck)
    reading.  The physics keeps integrating the true temperature; only the
    *sensed* value — what the throttle governor and RTM observe — lies.
``job_crashes`` (plan-level profile, not a timeline event)
    Each job attempt crashes with a seeded pseudo-random probability and is
    retried with bounded exponential backoff; jobs that exhaust their
    retries are dropped and accounted as ``crashed``.

The crash decision for ``(seed, app_id, job_index, attempt)`` is a pure
hash — independent of event interleaving and replica batching — which is
what makes crash timelines reproducible across execution backends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Type, Union

from repro.errors import FaultPlanError
from repro.ioutils import read_table_file

__all__ = [
    "FaultPlanError",
    "FaultEvent",
    "CoreFailure",
    "CoreRecovery",
    "FrequencyCap",
    "FrequencyCapRelease",
    "SensorBias",
    "SensorDropout",
    "SensorRestore",
    "JobCrashProfile",
    "FaultPlan",
    "FaultInjector",
    "FAULT_EVENT_KINDS",
    "crash_roll",
]


# --------------------------------------------------------------------- events


@dataclass(frozen=True)
class FaultEvent:
    """Base class for timeline fault events.

    Attributes
    ----------
    time_ms:
        Simulation time at which the fault fires.
    """

    kind: ClassVar[str] = ""

    time_ms: float

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise FaultPlanError(f"fault time must be non-negative, got {self.time_ms}")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form with a ``kind`` discriminator."""
        data: Dict[str, object] = {"kind": self.kind}
        for spec in dataclass_fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data

    def describe(self) -> str:
        """One-line human-readable description."""
        extras = ", ".join(
            f"{spec.name}={getattr(self, spec.name)}"
            for spec in dataclass_fields(self)
            if spec.name != "time_ms"
        )
        suffix = f" ({extras})" if extras else ""
        return f"t={self.time_ms:g}ms {self.kind}{suffix}"


@dataclass(frozen=True)
class CoreFailure(FaultEvent):
    """``cores`` cores of ``cluster`` fail (highest-indexed first)."""

    kind: ClassVar[str] = "core_failure"

    cluster: str = ""
    cores: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cluster:
            raise FaultPlanError("core_failure requires a cluster name")
        if self.cores < 1:
            raise FaultPlanError("core_failure requires cores >= 1")


@dataclass(frozen=True)
class CoreRecovery(FaultEvent):
    """``cores`` previously failed cores of ``cluster`` come back."""

    kind: ClassVar[str] = "core_recovery"

    cluster: str = ""
    cores: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cluster:
            raise FaultPlanError("core_recovery requires a cluster name")
        if self.cores < 1:
            raise FaultPlanError("core_recovery requires cores >= 1")


@dataclass(frozen=True)
class FrequencyCap(FaultEvent):
    """Cap ``cluster`` at the highest OPP <= ``max_frequency_mhz``."""

    kind: ClassVar[str] = "freq_cap"

    cluster: str = ""
    max_frequency_mhz: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cluster:
            raise FaultPlanError("freq_cap requires a cluster name")
        if self.max_frequency_mhz <= 0:
            raise FaultPlanError("freq_cap requires max_frequency_mhz > 0")


@dataclass(frozen=True)
class FrequencyCapRelease(FaultEvent):
    """Remove the DVFS cap on ``cluster``."""

    kind: ClassVar[str] = "freq_cap_release"

    cluster: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cluster:
            raise FaultPlanError("freq_cap_release requires a cluster name")


@dataclass(frozen=True)
class SensorBias(FaultEvent):
    """The thermal sensor reads ``bias_c`` degrees off (0 clears the bias)."""

    kind: ClassVar[str] = "sensor_bias"

    bias_c: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(self.bias_c) > 50.0:
            raise FaultPlanError("sensor bias must be within +/-50 C")


@dataclass(frozen=True)
class SensorDropout(FaultEvent):
    """The thermal sensor freezes at its current (sensed) reading."""

    kind: ClassVar[str] = "sensor_dropout"


@dataclass(frozen=True)
class SensorRestore(FaultEvent):
    """The thermal sensor starts tracking the true temperature again."""

    kind: ClassVar[str] = "sensor_restore"


FAULT_EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        CoreFailure,
        CoreRecovery,
        FrequencyCap,
        FrequencyCapRelease,
        SensorBias,
        SensorDropout,
        SensorRestore,
    )
}


def fault_event_from_dict(data: Mapping[str, object]) -> FaultEvent:
    """Build a :class:`FaultEvent` from its ``kind``-discriminated dict form."""
    if not isinstance(data, Mapping):
        raise FaultPlanError(f"fault event must be a mapping, got {type(data).__name__}")
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = FAULT_EVENT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise FaultPlanError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_EVENT_KINDS)}"
        )
    allowed = {spec.name for spec in dataclass_fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise FaultPlanError(f"unknown keys {unknown} for fault kind {kind!r}")
    try:
        return cls(**payload)  # type: ignore[arg-type]
    except TypeError as exc:
        raise FaultPlanError(f"bad fault event {data!r}: {exc}") from None


# ------------------------------------------------------------- crash profile


def crash_roll(seed: int, app_id: str, job_index: int, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one job attempt.

    Pure function of its arguments, so crash outcomes do not depend on event
    interleaving, replica order, or which execution backend runs the spec.
    """
    token = f"{seed}:{app_id}:{job_index}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class JobCrashProfile:
    """Seeded transient job-crash model with bounded exponential backoff.

    Attributes
    ----------
    probability:
        Per-attempt crash probability in [0, 1].
    apps:
        App ids the profile applies to; empty means every DNN app.
    seed:
        Seed of the per-attempt hash (independent of the scenario seed).
    max_retries:
        Crashed attempts are retried at most this many times; a job whose
        every attempt crashes is dropped with reason ``"crashed"``.
    backoff_base_ms / backoff_factor / backoff_max_ms:
        Retry ``i`` waits ``min(base * factor**i, max)`` milliseconds.
    start_ms / end_ms:
        Only jobs started inside ``[start_ms, end_ms)`` are at risk;
        ``end_ms`` of ``None`` means until the end of the run.
    """

    probability: float = 0.0
    apps: Tuple[str, ...] = ()
    seed: int = 0
    max_retries: int = 2
    backoff_base_ms: float = 5.0
    backoff_factor: float = 2.0
    backoff_max_ms: float = 250.0
    start_ms: float = 0.0
    end_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("crash probability must be in [0, 1]")
        if self.max_retries < 0:
            raise FaultPlanError("max_retries must be non-negative")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise FaultPlanError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise FaultPlanError("backoff_factor must be >= 1")
        if self.start_ms < 0:
            raise FaultPlanError("start_ms must be non-negative")
        if self.end_ms is not None and self.end_ms < self.start_ms:
            raise FaultPlanError("end_ms must be >= start_ms")
        if not isinstance(self.apps, tuple):
            object.__setattr__(self, "apps", tuple(self.apps))

    def applies_to(self, app_id: str, start_ms: float) -> bool:
        """Whether a job of ``app_id`` starting at ``start_ms`` is at risk."""
        if self.probability <= 0.0:
            return False
        if self.apps and app_id not in self.apps:
            return False
        if start_ms < self.start_ms:
            return False
        if self.end_ms is not None and start_ms >= self.end_ms:
            return False
        return True

    def crashes_before_success(self, app_id: str, job_index: int) -> Optional[int]:
        """Number of crashed attempts before the job succeeds.

        Returns ``None`` when every allowed attempt (1 + ``max_retries``)
        crashes, i.e. the job is lost.
        """
        for attempt in range(self.max_retries + 1):
            if crash_roll(self.seed, app_id, job_index, attempt) >= self.probability:
                return attempt
        return None

    def backoff_ms(self, attempt: int) -> float:
        """Backoff before retrying after crashed attempt ``attempt``."""
        return min(
            self.backoff_base_ms * self.backoff_factor**attempt, self.backoff_max_ms
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (defaults included, ``end_ms`` omitted when None)."""
        data: Dict[str, object] = {
            "probability": self.probability,
            "apps": list(self.apps),
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_base_ms": self.backoff_base_ms,
            "backoff_factor": self.backoff_factor,
            "backoff_max_ms": self.backoff_max_ms,
            "start_ms": self.start_ms,
        }
        if self.end_ms is not None:
            data["end_ms"] = self.end_ms
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobCrashProfile":
        """Build a profile from its dict form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"job_crashes must be a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        if "apps" in payload:
            apps = payload["apps"]
            if not isinstance(apps, (list, tuple)):
                raise FaultPlanError("job_crashes.apps must be a list of app ids")
            payload["apps"] = tuple(str(app) for app in apps)
        allowed = {spec.name for spec in dataclass_fields(cls)}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise FaultPlanError(f"unknown keys {unknown} in job_crashes")
        try:
            return cls(**payload)  # type: ignore[arg-type]
        except TypeError as exc:
            raise FaultPlanError(f"bad job_crashes {data!r}: {exc}") from None


# ----------------------------------------------------------------------- plan


@dataclass(frozen=True)
class FaultPlan:
    """A declarative timeline of faults plus an optional crash profile."""

    events: Tuple[FaultEvent, ...] = ()
    job_crashes: Optional[JobCrashProfile] = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise FaultPlanError(
                    f"fault plan events must be FaultEvent, got {type(event).__name__}"
                )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.events and self.job_crashes is None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, omitting empty sections."""
        data: Dict[str, object] = {}
        if self.events:
            data["events"] = [event.to_dict() for event in self.events]
        if self.job_crashes is not None:
            data["job_crashes"] = self.job_crashes.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Build a plan from its dict form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"fault plan must be a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        raw_events = payload.pop("events", [])
        raw_crashes = payload.pop("job_crashes", None)
        if payload:
            raise FaultPlanError(f"unknown keys {sorted(payload)} in fault plan")
        if not isinstance(raw_events, (list, tuple)):
            raise FaultPlanError("fault plan 'events' must be a list")
        events = tuple(fault_event_from_dict(entry) for entry in raw_events)
        crashes = (
            JobCrashProfile.from_dict(raw_crashes) if raw_crashes is not None else None
        )
        return cls(events=events, job_crashes=crashes)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan from a TOML (``[[events]]`` tables) or JSON file."""
        return cls.from_dict(read_table_file(path, FaultPlanError, "fault plan"))

    def content_key(self) -> str:
        """Canonical string form, stable across load paths."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [event.describe() for event in sorted(self.events, key=lambda e: e.time_ms)]
        if self.job_crashes is not None:
            profile = self.job_crashes
            scope = ", ".join(profile.apps) if profile.apps else "all DNN apps"
            lines.append(
                f"job crashes: p={profile.probability:g} on {scope}, "
                f"seed={profile.seed}, max_retries={profile.max_retries}"
            )
        return "\n".join(lines) if lines else "(empty plan)"


# ------------------------------------------------------------------- injector


class FaultInjector:
    """Mutable per-run fault state: failed cores and DVFS caps.

    The simulator owns one injector per run.  Timeline events update the
    injector's state; the simulator's action-application path consults it so
    the RTM can neither resurrect failed cores nor exceed a frequency cap.
    Sensor faults act directly on the thermal model and keep no state here.
    """

    def __init__(self, plan: FaultPlan, soc) -> None:
        self.plan = plan
        self._failed: Dict[str, int] = {}
        self._caps: Dict[str, float] = {}
        self._validate(soc)

    def _validate(self, soc) -> None:
        for event in self.plan.events:
            cluster_name = getattr(event, "cluster", None)
            if cluster_name is None:
                continue
            if not soc.has_cluster(cluster_name):
                raise FaultPlanError(
                    f"fault {event.kind!r} targets unknown cluster {cluster_name!r} "
                    f"on platform {soc.name!r}"
                )

    # ------------------------------------------------------------- mutations

    def fail_cores(self, cluster, count: int) -> int:
        """Mark ``count`` more cores of ``cluster`` as failed; returns the delta."""
        before = self._failed.get(cluster.name, 0)
        after = min(before + count, cluster.num_cores)
        self._failed[cluster.name] = after
        return after - before

    def recover_cores(self, cluster, count: int) -> int:
        """Un-fail up to ``count`` cores of ``cluster``; returns how many recovered."""
        before = self._failed.get(cluster.name, 0)
        after = max(before - count, 0)
        if after:
            self._failed[cluster.name] = after
        else:
            self._failed.pop(cluster.name, None)
        return before - after

    def set_cap(self, cluster, max_frequency_mhz: float) -> float:
        """Cap ``cluster``; returns the OPP frequency the cap resolves to."""
        resolved = cluster.opp_table.at_or_below(max_frequency_mhz).frequency_mhz
        self._caps[cluster.name] = resolved
        return resolved

    def release_cap(self, cluster_name: str) -> None:
        """Remove the DVFS cap on ``cluster_name`` (no-op when absent)."""
        self._caps.pop(cluster_name, None)

    # --------------------------------------------------------------- queries

    def failed_count(self, cluster_name: str) -> int:
        """How many cores of ``cluster_name`` are currently failed."""
        return self._failed.get(cluster_name, 0)

    def cap_mhz(self, cluster_name: str) -> Optional[float]:
        """The active DVFS cap on ``cluster_name``, or ``None``."""
        return self._caps.get(cluster_name)

    def effective_online(self, cluster, requested: int) -> int:
        """Cap an online-core request by the cluster's failed cores."""
        return max(0, min(requested, cluster.num_cores - self.failed_count(cluster.name)))

    def clamp_frequency(self, cluster, frequency_mhz: float) -> float:
        """Clamp a frequency request to the active cap (identity when uncapped)."""
        cap = self._caps.get(cluster.name)
        if cap is None or frequency_mhz <= cap + 1e-9:
            return frequency_mhz
        return cluster.opp_table.at_or_below(cap).frequency_mhz
