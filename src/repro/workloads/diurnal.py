"""Seeded diurnal traffic: day-shaped arrival floods for the streaming pipeline.

The registry's generated scenarios (:mod:`repro.workloads.generator`) draw a
handful of applications — right for studying one device over seconds, useless
for the ROADMAP's "millions of users" question.  This module models the load
a *population* presents over hours: a sinusoidal day/night cycle on top of a
base arrival rate, occasional flash crowds (a push notification, a headline)
that multiply the rate for a short window, and a Zipf-like popularity split
across a small set of application archetypes (camera DNNs of different
tightness, background batch jobs).

Arrivals are an inhomogeneous Poisson process, sampled by thinning against
the peak-rate envelope in fixed-size vectorised chunks, so generation is
deterministic per seed, chronological, and O(chunk) in memory however long
the trace.  :meth:`DiurnalTraffic.iter_records` yields trace records one at
a time in exactly the shape :class:`~repro.workloads.traces.TraceWriter`
appends and :func:`~repro.workloads.traces.scenario_from_records` replays —
so a million-arrival day streams straight to disk without ever existing as
a list, and the registered ``diurnal`` scenario replays the same records
in-process (recording then replaying the trace file is bit-identical by
construction).

:func:`config_for_arrivals` sizes a config for a target arrival count; with
the phase convention used here the sinusoid never *reduces* the expected
count over a partial period, so the target is an (overwhelmingly probable)
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.workloads.scenarios import Scenario, register_scenario
from repro.workloads.traces import TraceWriter, scenario_from_records

__all__ = [
    "DiurnalConfig",
    "DiurnalTraffic",
    "config_for_arrivals",
    "write_diurnal_trace",
]

#: Candidate arrivals drawn per vectorised thinning round.  Part of the
#: deterministic contract: the random stream is consumed in fixed-size
#: chunks, so equal seeds give identical traces regardless of duration.
_CHUNK = 8192

#: Requirement profiles cycled across DNN archetypes (tight camera feed,
#: latency-bound detector, energy-budgeted ambient model).
_DNN_PROFILES: Tuple[Dict[str, object], ...] = (
    {"target_fps": 12.0, "min_accuracy_percent": 60.0, "priority": 6},
    {"max_latency_ms": 120.0, "min_accuracy_percent": 56.0, "priority": 4},
    {"target_fps": 5.0, "max_energy_mj": 90.0, "priority": 3},
)

#: Demand profiles cycled across background archetypes.
_BG_PROFILES: Tuple[Dict[str, object], ...] = (
    {"core_type": "cpu_little", "cores": 1, "utilisation": 0.35, "min_frequency_mhz": None},
    {"core_type": "cpu_big", "cores": 1, "utilisation": 0.5, "min_frequency_mhz": None},
    {"core_type": "cpu_little", "cores": 2, "utilisation": 0.6, "min_frequency_mhz": None},
)


@dataclass(frozen=True)
class DiurnalConfig:
    """Knobs of the diurnal traffic model.

    Attributes
    ----------
    duration_ms:
        Trace length.  The defaults describe a *rate shape*, so the same
        config stretches from a 30 s registry scenario to a multi-hour
        million-arrival trace by changing only this and
        ``base_rate_per_s``.
    base_rate_per_s:
        Mean arrival rate around which the day/night cycle oscillates.
    diurnal_amplitude:
        Relative swing of the sinusoid, in ``[0, 1]``: rate varies between
        ``base*(1-a)`` and ``base*(1+a)``.
    period_ms:
        Length of one day/night cycle (default 24 h).
    flash_crowds:
        Number of flash-crowd windows placed (seeded) inside the trace.
    flash_magnitude:
        Rate multiplier inside a flash-crowd window (≥ 1).
    flash_duration_fraction:
        Length of each flash window as a fraction of the trace.
    num_archetypes:
        Number of distinct application archetypes arrivals are drawn from.
    dnn_fraction:
        Fraction of archetypes that are DNN inference apps (the rest are
        background jobs); the DNN archetypes take the most-popular ranks.
    popularity_exponent:
        Zipf exponent of the archetype popularity distribution (0 = uniform).
    mean_session_ms:
        Mean of the exponential session length (arrival → departure).
    """

    duration_ms: float = 30_000.0
    base_rate_per_s: float = 0.2
    diurnal_amplitude: float = 0.6
    period_ms: float = 86_400_000.0
    flash_crowds: int = 1
    flash_magnitude: float = 3.0
    flash_duration_fraction: float = 0.05
    num_archetypes: int = 4
    dnn_fraction: float = 0.5
    popularity_exponent: float = 1.0
    mean_session_ms: float = 15_000.0

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.base_rate_per_s <= 0:
            raise ValueError("base_rate_per_s must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if self.flash_crowds < 0:
            raise ValueError("flash_crowds must be non-negative")
        if self.flash_magnitude < 1.0:
            raise ValueError("flash_magnitude must be >= 1")
        if not 0.0 < self.flash_duration_fraction < 1.0:
            raise ValueError("flash_duration_fraction must be in (0, 1)")
        if self.num_archetypes < 1:
            raise ValueError("num_archetypes must be positive")
        if not 0.0 <= self.dnn_fraction <= 1.0:
            raise ValueError("dnn_fraction must be in [0, 1]")
        if self.popularity_exponent < 0.0:
            raise ValueError("popularity_exponent must be non-negative")
        if self.mean_session_ms <= 0:
            raise ValueError("mean_session_ms must be positive")

    @property
    def num_dnn_archetypes(self) -> int:
        return int(round(self.num_archetypes * self.dnn_fraction))

    @property
    def peak_rate_per_s(self) -> float:
        """The thinning envelope: peak-of-day rate times the flash multiplier."""
        peak = self.base_rate_per_s * (1.0 + self.diurnal_amplitude)
        if self.flash_crowds > 0:
            peak *= self.flash_magnitude
        return peak


class DiurnalTraffic:
    """Deterministic arrival-record generator for one :class:`DiurnalConfig`.

    ``DiurnalTraffic(config, seed).iter_records()`` is restartable — every
    call replays the identical record stream — so the same object can write
    a trace file and build the in-process scenario that file replays to.
    """

    def __init__(self, config: Optional[DiurnalConfig] = None, seed: int = 0) -> None:
        self.config = config or DiurnalConfig()
        self.seed = seed
        # Flash windows come from their own stream so reshaping the arrival
        # draw (chunking) can never move the crowds.
        placement = np.random.default_rng([seed, 0xF1A5])
        length = self.config.flash_duration_fraction * self.config.duration_ms
        starts = np.sort(
            placement.uniform(0.0, self.config.duration_ms - length, size=self.config.flash_crowds)
        )
        self.flash_windows: Tuple[Tuple[float, float], ...] = tuple(
            (float(start), float(start + length)) for start in starts
        )

    # ------------------------------------------------------------- the model

    def rate_per_ms(self, times_ms: np.ndarray) -> np.ndarray:
        """Instantaneous arrival rate (per ms) at each time."""
        config = self.config
        rate = (config.base_rate_per_s / 1000.0) * (
            1.0 + config.diurnal_amplitude * np.sin(2.0 * np.pi * times_ms / config.period_ms)
        )
        if self.flash_windows:
            in_flash = np.zeros(times_ms.shape, dtype=bool)
            for start, end in self.flash_windows:
                in_flash |= (times_ms >= start) & (times_ms < end)
            rate = np.where(in_flash, rate * config.flash_magnitude, rate)
        return rate

    def _popularity(self) -> np.ndarray:
        ranks = np.arange(1, self.config.num_archetypes + 1, dtype=np.float64)
        weights = ranks ** (-self.config.popularity_exponent)
        return weights / weights.sum()

    # ---------------------------------------------------------------- records

    def iter_records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Yield ``("application", record)`` pairs, chronological, O(chunk) memory.

        Inhomogeneous-Poisson thinning: candidate arrivals are drawn at the
        constant envelope rate in fixed chunks of ``_CHUNK`` and accepted
        with probability ``rate(t)/envelope``.  Record shape matches the
        trace format exactly, so the stream can feed
        :meth:`~repro.workloads.traces.TraceWriter.write_application` or
        :func:`~repro.workloads.traces.scenario_from_records` unchanged.
        """
        config = self.config
        rng = np.random.default_rng([self.seed, 0xA221])
        envelope_per_ms = config.peak_rate_per_s / 1000.0
        popularity = self._popularity()
        num_dnn = config.num_dnn_archetypes
        duration = config.duration_ms
        now = 0.0
        emitted = 0
        while now < duration:
            gaps = rng.exponential(1.0 / envelope_per_ms, size=_CHUNK)
            times = now + np.cumsum(gaps)
            accept_draw = rng.random(_CHUNK)
            now = float(times[-1])
            keep = (times < duration) & (
                accept_draw * envelope_per_ms < self.rate_per_ms(times)
            )
            accepted = times[keep]
            if accepted.size == 0:
                continue
            archetypes = rng.choice(config.num_archetypes, size=accepted.size, p=popularity)
            sessions = rng.exponential(config.mean_session_ms, size=accepted.size)
            for arrival, archetype, session in zip(accepted, archetypes, sessions):
                arrival_ms = round(float(arrival), 3)
                departure_ms = round(min(arrival_ms + max(float(session), 100.0), duration), 3)
                archetype = int(archetype)
                if archetype < num_dnn:
                    profile = _DNN_PROFILES[archetype % len(_DNN_PROFILES)]
                    record: Dict[str, object] = {
                        "app_id": f"dnn_a{archetype}_{emitted:08d}",
                        "kind": "dnn_inference",
                        "arrival_ms": arrival_ms,
                        "departure_ms": departure_ms,
                        # 0.0 lets DNNApplication substitute the model's own
                        # footprint at replay, like the hand-written scenarios.
                        "memory_footprint_mb": 0.0,
                        "requirements": profile,
                        "model_ref": archetype,
                        # the CIFAR family's channel widths split into 2 or 4
                        # groups, not 3 — cycle the valid increment counts
                        "num_increments": 4 - 2 * (archetype % 2),
                        "input_size": [3, 32, 32],
                        "preprocessing_cores": 1,
                    }
                else:
                    profile = _BG_PROFILES[(archetype - num_dnn) % len(_BG_PROFILES)]
                    record = {
                        "app_id": f"bg_a{archetype}_{emitted:08d}",
                        "kind": "background",
                        "arrival_ms": arrival_ms,
                        "departure_ms": departure_ms,
                        "memory_footprint_mb": 30.0,
                        "requirements": {"priority": 0},
                        "demand": profile,
                    }
                emitted += 1
                yield "application", record


def config_for_arrivals(
    target_arrivals: int,
    duration_ms: float = 6 * 3_600_000.0,
    margin: float = 1.02,
    **overrides: object,
) -> DiurnalConfig:
    """Size a config so the trace holds at least ``target_arrivals`` arrivals.

    The base rate is computed from the target and duration *ignoring* the
    sinusoid and flash-crowd uplift — with phase 0 both only ever add
    arrivals — so ``margin`` (default 2 %, ≫ the Poisson standard deviation
    at any interesting scale) makes undershoot astronomically unlikely.
    """
    if target_arrivals <= 0:
        raise ValueError("target_arrivals must be positive")
    base_rate = margin * target_arrivals / (duration_ms / 1000.0)
    return replace(
        DiurnalConfig(**overrides),  # type: ignore[arg-type]
        duration_ms=duration_ms,
        base_rate_per_s=base_rate,
    )


def write_diurnal_trace(
    path: Union[str, Path],
    config: Optional[DiurnalConfig] = None,
    seed: int = 0,
    platform_name: str = "odroid_xu3",
) -> int:
    """Stream a diurnal trace straight to ``path``; returns the arrival count.

    Generation and writing are both incremental, so peak memory is O(chunk)
    regardless of how many million arrivals the config implies.  Compression
    follows the path suffix (``.gz``/``.zst``), like every trace writer.
    """
    traffic = DiurnalTraffic(config, seed=seed)
    with TraceWriter(
        path,
        scenario_name=f"diurnal_seed{seed}",
        platform_name=platform_name,
        duration_ms=traffic.config.duration_ms,
    ) as writer:
        for _, record in traffic.iter_records():
            writer.write_application(record)
        return writer.applications_written


@register_scenario(
    "diurnal",
    params=(
        "duration_ms",
        "base_rate_per_s",
        "diurnal_amplitude",
        "flash_crowds",
        "flash_magnitude",
        "num_archetypes",
        "dnn_fraction",
        "popularity_exponent",
    ),
)
def diurnal_scenario(
    seed: int = 0, platform_name: str = "odroid_xu3", **params: object
) -> Scenario:
    """Day-shaped population traffic: sinusoidal load, flash crowds, Zipf archetypes.

    The default config compresses the shape into a 30 s window (a handful of
    arrivals) so the scenario is cheap enough for the full manager grid; the
    exposed params stretch it to multi-hour, million-arrival runs.  Building
    the scenario replays the generator's record stream through the same
    machinery as trace files, so recording this scenario with ``trace
    record`` and replaying the file is bit-identical by construction.
    """
    config = DiurnalConfig(**params)  # type: ignore[arg-type]
    traffic = DiurnalTraffic(config, seed=seed)
    return scenario_from_records(
        traffic.iter_records(),
        source_name=f"diurnal_seed{seed}",
        platform_name=platform_name,
        duration_ms=config.duration_ms,
        name=f"diurnal_seed{seed}",
        description=(
            "Diurnal population traffic: sinusoidal day/night load with "
            f"{config.flash_crowds} flash crowd(s) over {config.num_archetypes} "
            "Zipf-weighted archetypes."
        ),
    )
