"""Roofline latency estimation for DNN inference on a cluster.

The roofline model prices one inference as the slower of its compute time and
its memory time, plus a fixed framework overhead::

    t_compute = MACs / (MACs_per_cycle * f * effective_cores)
    t_memory  = traffic_bytes / memory_bandwidth
    latency   = max(t_compute, t_memory) + fixed_overhead

It is the generic estimator used for platforms (and clusters) for which the
paper publishes no measurements; the measured boards use the anchored
estimator in :mod:`repro.perfmodel.calibrated`, which corrects the roofline
with the paper's Table I data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dnn.model import NetworkModel
from repro.platforms.cluster import Cluster

__all__ = ["LatencyBreakdown", "RooflineLatencyModel", "effective_cores"]


def effective_cores(cores_used: int, parallel_efficiency: float) -> float:
    """Effective core count after parallelisation losses.

    One core is always fully effective; each additional core contributes
    ``parallel_efficiency`` of a core.
    """
    if cores_used <= 0:
        raise ValueError("cores_used must be positive")
    return 1.0 + (cores_used - 1) * parallel_efficiency


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency estimate with its compute / memory / overhead components (ms)."""

    compute_ms: float
    memory_ms: float
    overhead_ms: float

    @property
    def total_ms(self) -> float:
        """Total predicted latency in milliseconds."""
        return max(self.compute_ms, self.memory_ms) + self.overhead_ms

    @property
    def compute_bound(self) -> bool:
        """True when the compute term dominates the memory term."""
        return self.compute_ms >= self.memory_ms


class RooflineLatencyModel:
    """Latency estimator based on a cluster's roofline."""

    def cache_key(self) -> tuple:
        """Stable identity for operating-point caches.

        The estimator is stateless — every input lives on the network and the
        cluster, both of which are part of the cache keys already — so all
        instances are interchangeable.
        """
        return ("roofline",)

    def breakdown(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
    ) -> LatencyBreakdown:
        """Latency breakdown of one inference of ``network`` on ``cluster``.

        Parameters
        ----------
        network:
            Structural DNN model.
        cluster:
            Target cluster.
        frequency_mhz:
            Frequency to evaluate at; defaults to the cluster's current
            frequency.
        cores_used:
            Number of cores the inference is parallelised over.
        """
        if frequency_mhz is None:
            frequency_mhz = cluster.frequency_mhz
        if frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        if cores_used <= 0:
            raise ValueError("cores_used must be positive")
        cores_used = min(cores_used, cluster.num_cores)
        perf = cluster.performance
        cores = effective_cores(cores_used, perf.parallel_efficiency)
        macs_per_second = perf.macs_per_cycle_per_core * frequency_mhz * 1e6 * cores
        compute_ms = network.total_macs() / macs_per_second * 1e3
        memory_ms = network.total_traffic_bytes() / (perf.memory_bandwidth_gbps * 1e9) * 1e3
        return LatencyBreakdown(
            compute_ms=compute_ms,
            memory_ms=memory_ms,
            overhead_ms=perf.fixed_overhead_ms,
        )

    def latency_ms(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
        soc_name: str | None = None,
    ) -> float:
        """Predicted latency in milliseconds (see :meth:`breakdown`).

        ``soc_name`` is accepted for the :class:`LatencyEstimator` protocol and
        ignored: the roofline reads everything from the cluster.
        """
        return self.breakdown(network, cluster, frequency_mhz, cores_used).total_ms

    def latency_grid_ms(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequencies_mhz: np.ndarray,
        core_counts: "list[int]",
        soc_name: str | None = None,
    ) -> np.ndarray:
        """Vectorised :meth:`latency_ms` over a (cores x frequency) grid.

        Entry ``[c, q]`` is bit-identical to
        ``latency_ms(network, cluster, frequencies_mhz[q], core_counts[c])``.
        """
        if np.any(frequencies_mhz <= 0):
            raise ValueError("frequency must be positive")
        if any(count <= 0 for count in core_counts):
            raise ValueError("cores_used must be positive")
        perf = cluster.performance
        clamped = np.minimum(np.asarray(core_counts, dtype=np.int64), cluster.num_cores)
        cores = 1.0 + (clamped - 1) * perf.parallel_efficiency
        macs_per_second = perf.macs_per_cycle_per_core * frequencies_mhz * 1e6
        macs_per_second = macs_per_second[None, :] * cores[:, None]
        compute_ms = network.total_macs() / macs_per_second * 1e3
        memory_ms = network.total_traffic_bytes() / (perf.memory_bandwidth_gbps * 1e9) * 1e3
        return np.maximum(compute_ms, memory_ms) + perf.fixed_overhead_ms

    def throughput_fps(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
    ) -> float:
        """Predicted sustained throughput in frames per second."""
        latency = self.latency_ms(network, cluster, frequency_mhz, cores_used)
        return 1000.0 / latency
