"""Application performance requirements and violation checking.

Fig 1 of the paper frames deployment in terms of application requirements —
"1 fps, very-high accuracy", "25 fps, high accuracy", "60 fps, medium
accuracy" — and the runtime scenario of Fig 2 is driven by keeping every
application's requirements met as resources change.  This module provides the
requirement vocabulary shared by the workloads, the runtime manager and the
simulator: a :class:`Requirements` bundle over the four metric axes the paper
uses (execution time, energy, power, accuracy) plus frame rate, checked per
measurement (:meth:`Requirements.violated_metrics`) and per candidate table
(:meth:`Requirements.violation_scores`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = ["Requirements", "MetricSample"]


class MetricSample(NamedTuple):
    """One observation of an application's delivered performance.

    Attributes
    ----------
    latency_ms:
        Inference execution time in milliseconds.
    energy_mj:
        Per-inference energy in millijoules.
    power_mw:
        Average power during the inference, in milliwatts.
    accuracy_percent:
        Top-1 accuracy of the configuration that produced the inference.
    fps:
        Delivered frame rate, if the application is periodic.
    """

    latency_ms: Optional[float] = None
    energy_mj: Optional[float] = None
    power_mw: Optional[float] = None
    accuracy_percent: Optional[float] = None
    fps: Optional[float] = None


@dataclass(frozen=True)
class Requirements:
    """Performance requirements of one application.

    All limits are optional; ``None`` means "no requirement on this axis".

    Attributes
    ----------
    max_latency_ms:
        Upper bound on single-inference execution time.
    max_energy_mj:
        Upper bound on per-inference energy.
    max_power_mw:
        Upper bound on average power while the application runs.
    min_accuracy_percent:
        Lower bound on top-1 accuracy.
    target_fps:
        Desired frame rate; implies a latency bound of ``1000 / target_fps``
        when no explicit latency bound is given.
    priority:
        Larger numbers are more important; the multi-application arbiter
        serves higher-priority applications first.
    """

    max_latency_ms: Optional[float] = None
    max_energy_mj: Optional[float] = None
    max_power_mw: Optional[float] = None
    min_accuracy_percent: Optional[float] = None
    target_fps: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        for name in ("max_latency_ms", "max_energy_mj", "max_power_mw", "target_fps"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given")
        if self.min_accuracy_percent is not None and not 0.0 <= self.min_accuracy_percent <= 100.0:
            raise ValueError("min_accuracy_percent must be in [0, 100]")
        # Precomputed stable identity for cache layers that key work by
        # requirement set (e.g. decision memos): the frozen limits never
        # change, so the tuple is assembled once instead of round-tripping
        # through dataclasses.astuple (which deep-copies) per lookup.
        object.__setattr__(
            self,
            "_cache_key",
            (
                "requirements",
                self.max_latency_ms,
                self.max_energy_mj,
                self.max_power_mw,
                self.min_accuracy_percent,
                self.target_fps,
                self.priority,
            ),
        )
        # The derived limits are pure functions of the frozen fields and sit
        # on the simulator's per-job path, so compute them once here.
        period_ms = None if self.target_fps is None else 1000.0 / self.target_fps
        candidates = []
        if self.max_latency_ms is not None:
            candidates.append(self.max_latency_ms)
        if period_ms is not None:
            candidates.append(period_ms)
        object.__setattr__(self, "_period_ms", period_ms)
        object.__setattr__(
            self, "_effective_latency_limit_ms", min(candidates) if candidates else None
        )

    def cache_key(self) -> tuple:
        """Stable identity of this requirement set (precomputed, no copies)."""
        return self._cache_key  # type: ignore[attr-defined]

    # ---------------------------------------------------------------- limits

    @property
    def effective_latency_limit_ms(self) -> Optional[float]:
        """Latency bound implied by the explicit limit and/or the target fps."""
        return self._effective_latency_limit_ms  # type: ignore[attr-defined]

    @property
    def period_ms(self) -> Optional[float]:
        """Inference period implied by the target frame rate."""
        return self._period_ms  # type: ignore[attr-defined]

    @property
    def is_unconstrained(self) -> bool:
        """True when no axis carries a requirement."""
        return (
            self.max_latency_ms is None
            and self.max_energy_mj is None
            and self.max_power_mw is None
            and self.min_accuracy_percent is None
            and self.target_fps is None
        )

    # -------------------------------------------------------------- checking

    def violated_metrics(self, sample: MetricSample) -> "tuple[str, ...]":
        """Names of the requirements a measurement misses.

        Metrics missing from the sample are not checked.  Names come in the
        order latency, energy, power, accuracy, fps; a limit is missed by
        more than a relative 1e-9, the same tolerance as
        :meth:`violation_scores`.
        """
        violated = []
        latency_limit = self.effective_latency_limit_ms
        if latency_limit is not None and sample.latency_ms is not None:
            if sample.latency_ms > latency_limit * (1.0 + 1e-9):
                violated.append("latency_ms")
        if self.max_energy_mj is not None and sample.energy_mj is not None:
            if sample.energy_mj > self.max_energy_mj * (1.0 + 1e-9):
                violated.append("energy_mj")
        if self.max_power_mw is not None and sample.power_mw is not None:
            if sample.power_mw > self.max_power_mw * (1.0 + 1e-9):
                violated.append("power_mw")
        if self.min_accuracy_percent is not None and sample.accuracy_percent is not None:
            if sample.accuracy_percent < self.min_accuracy_percent * (1.0 - 1e-9):
                violated.append("accuracy_percent")
        if self.target_fps is not None and sample.fps is not None:
            if sample.fps < self.target_fps * (1.0 - 1e-9):
                violated.append("fps")
        return tuple(violated)

    def violation_scores(
        self,
        *,
        latency_ms: Optional[np.ndarray] = None,
        energy_mj: Optional[np.ndarray] = None,
        power_mw: Optional[np.ndarray] = None,
        accuracy_percent: Optional[np.ndarray] = None,
        fps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorised total normalised violation per candidate.

        Entry ``i`` sums, over the requirements row ``i`` misses (the
        comparisons of :meth:`violated_metrics`, in the same metric order),
        how far past its limit the row is as a fraction of the limit (the
        absolute value when the limit is 0).  A missing (``None``) column
        skips its check like a ``None`` sample field.  This is the scoring
        kernel of the columnar decision path; ``tests/reference_kernels.py``
        holds the per-point score it must equal bit for bit.
        """
        columns = [
            column
            for column in (latency_ms, energy_mj, power_mw, accuracy_percent, fps)
            if column is not None
        ]
        if not columns:
            raise ValueError("at least one metric column is required")
        scores = np.zeros(len(columns[0]), dtype=float)

        def past(actual: np.ndarray, limit: float, missed: np.ndarray) -> np.ndarray:
            if limit == 0:
                return np.where(missed, np.abs(actual), 0.0)
            # Only the rows that miss the limit are divided: a row that meets
            # a subnormal limit would overflow the division (and warn).
            return np.divide(
                np.abs(actual - limit), abs(limit), out=np.zeros(np.shape(actual)), where=missed
            )

        def over(actual: np.ndarray, limit: float) -> np.ndarray:
            return past(actual, limit, actual > limit * (1.0 + 1e-9))

        def under(actual: np.ndarray, limit: float) -> np.ndarray:
            return past(actual, limit, actual < limit * (1.0 - 1e-9))

        latency_limit = self.effective_latency_limit_ms
        if latency_limit is not None and latency_ms is not None:
            scores = scores + over(latency_ms, latency_limit)
        if self.max_energy_mj is not None and energy_mj is not None:
            scores = scores + over(energy_mj, self.max_energy_mj)
        if self.max_power_mw is not None and power_mw is not None:
            scores = scores + over(power_mw, self.max_power_mw)
        if self.min_accuracy_percent is not None and accuracy_percent is not None:
            scores = scores + under(accuracy_percent, self.min_accuracy_percent)
        if self.target_fps is not None and fps is not None:
            scores = scores + under(fps, self.target_fps)
        return scores

    # -------------------------------------------------------------- editing

    def with_changes(self, **changes: object) -> "Requirements":
        """A copy of this requirement set with some fields replaced.

        Used by the Fig 2(d) event where the user relaxes an application's
        accuracy requirement at runtime.
        """
        data = {
            "max_latency_ms": self.max_latency_ms,
            "max_energy_mj": self.max_energy_mj,
            "max_power_mw": self.max_power_mw,
            "min_accuracy_percent": self.min_accuracy_percent,
            "target_fps": self.target_fps,
            "priority": self.priority,
        }
        data.update(changes)
        return Requirements(**data)  # type: ignore[arg-type]
