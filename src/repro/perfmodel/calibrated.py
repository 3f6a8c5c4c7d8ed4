"""Latency estimation anchored on the paper's measurements.

Table I gives measured latencies of the reference network on the Odroid XU3
(A15, A7) and Jetson Nano (A57, GPU) clusters at several frequencies.  The
measured latency-vs-frequency curves are very well described by::

    latency(f) = a / f + b

(a compute term inversely proportional to frequency plus a small
frequency-independent overhead).  For each calibrated cluster we fit ``(a, b)``
from two Table I anchor frequencies; the remaining Table I rows and the whole
Fig 4(a) sweep are then genuine predictions of the model.

For networks other than the reference CIFAR-10 CNN the compute term scales
with the MAC ratio; for multi-core execution it is divided by the effective
core count.  Clusters without published measurements fall back to the
roofline estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.dnn.model import NetworkModel
from repro.dnn.zoo import cifar_group_cnn
from repro.perfmodel.roofline import RooflineLatencyModel, effective_cores
from repro.platforms.cluster import Cluster

__all__ = ["ClusterCalibration", "CalibratedLatencyModel", "DEFAULT_CALIBRATIONS"]


@dataclass(frozen=True)
class ClusterCalibration:
    """Fitted ``latency = a / f + b`` curve for the reference network.

    Attributes
    ----------
    compute_ms_mhz:
        The ``a`` coefficient: compute time in ms when running at 1 MHz.
    overhead_ms:
        The ``b`` coefficient: frequency-independent overhead in ms.
    """

    compute_ms_mhz: float
    overhead_ms: float

    def latency_ms(self, frequency_mhz: float) -> float:
        """Reference-network latency at this frequency, single core."""
        if frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        return self.compute_ms_mhz / frequency_mhz + self.overhead_ms


def _fit(anchor_low: Tuple[float, float], anchor_high: Tuple[float, float]) -> ClusterCalibration:
    """Fit (a, b) through two (frequency_mhz, latency_ms) anchors."""
    (f_low, t_low), (f_high, t_high) = anchor_low, anchor_high
    a = (t_low - t_high) / (1.0 / f_low - 1.0 / f_high)
    b = max(0.0, t_high - a / f_high)
    return ClusterCalibration(compute_ms_mhz=a, overhead_ms=b)


#: Calibrations fitted from Table I (lowest and highest measured frequency of
#: each cluster).  Keyed by (SoC name, cluster name).
DEFAULT_CALIBRATIONS: Dict[Tuple[str, str], ClusterCalibration] = {
    ("odroid_xu3", "a15"): _fit((200.0, 1020.0), (1800.0, 117.0)),
    ("odroid_xu3", "a7"): _fit((200.0, 1780.0), (1300.0, 280.0)),
    ("jetson_nano", "a57"): _fit((921.0, 69.4), (1430.0, 46.9)),
    ("jetson_nano", "gpu"): _fit((614.0, 7.4), (921.0, 4.93)),
}


@cache
def _reference_macs() -> int:
    """MAC count of the Table I reference network, counted once per process."""
    return cifar_group_cnn().total_macs()


class CalibratedLatencyModel:
    """Latency model that uses Table I calibrations where available.

    The calibrations were measured with the reference CIFAR-10 CNN; other
    networks scale the compute term by their MAC ratio to it.

    Parameters
    ----------
    calibrations:
        Mapping of (SoC name, cluster name) to :class:`ClusterCalibration`.
        Defaults to the Table I fits.  The model keeps a read-only copy.
    """

    def __init__(
        self,
        calibrations: Optional[Mapping[Tuple[str, str], ClusterCalibration]] = None,
    ) -> None:
        self._calibrations: Mapping[Tuple[str, str], ClusterCalibration] = MappingProxyType(
            dict(DEFAULT_CALIBRATIONS if calibrations is None else calibrations)
        )
        self._fallback = RooflineLatencyModel()
        self._cache_key: Optional[tuple] = None

    @property
    def calibrations(self) -> Mapping[Tuple[str, str], ClusterCalibration]:
        """The calibration table, read-only, so :meth:`cache_key` stays valid."""
        return self._calibrations

    @property
    def reference_macs(self) -> int:
        """MAC count of the calibration reference network."""
        return _reference_macs()

    def calibration_for(self, soc_name: str, cluster_name: str) -> Optional[ClusterCalibration]:
        """The calibration for this cluster, or ``None`` if it is uncalibrated."""
        return self._calibrations.get((soc_name, cluster_name))

    def cache_key(self) -> tuple:
        """Stable identity of this estimator for operating-point caches.

        Two instances with the same calibration table predict identical
        latencies, so they share cache entries.  Computed on first use and
        kept: the table is read-only and the reference network fixed.
        """
        if self._cache_key is None:
            table = tuple(
                (soc, cluster, cal.compute_ms_mhz, cal.overhead_ms)
                for (soc, cluster), cal in sorted(self._calibrations.items())
            )
            self._cache_key = ("calibrated", table, self.reference_macs)
        return self._cache_key

    def latency_ms(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
        soc_name: str | None = None,
    ) -> float:
        """Predicted latency of one inference in milliseconds.

        Parameters
        ----------
        network:
            Structural DNN model (any configuration of any network).
        cluster:
            Target cluster.
        frequency_mhz:
            Frequency to evaluate at; defaults to the cluster's current one.
        cores_used:
            Number of cores the inference is parallelised across.
        soc_name:
            Name of the SoC the cluster belongs to, used to look up the
            calibration.  When omitted, the calibration is looked up by
            cluster name alone across all known SoCs.
        """
        if frequency_mhz is None:
            frequency_mhz = cluster.frequency_mhz
        if cores_used <= 0:
            raise ValueError("cores_used must be positive")
        cores_used = min(cores_used, cluster.num_cores)
        calibration = None
        if soc_name is not None:
            calibration = self.calibration_for(soc_name, cluster.name)
        else:
            for (_, cluster_name), candidate in self._calibrations.items():
                if cluster_name == cluster.name:
                    calibration = candidate
                    break
        if calibration is None:
            return self._fallback.latency_ms(network, cluster, frequency_mhz, cores_used)
        mac_ratio = network.total_macs() / self.reference_macs
        cores = effective_cores(cores_used, cluster.performance.parallel_efficiency)
        compute_ms = calibration.compute_ms_mhz * mac_ratio / frequency_mhz / cores
        return compute_ms + calibration.overhead_ms

    def latency_grid_ms(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequencies_mhz: np.ndarray,
        core_counts: "list[int]",
        soc_name: str | None = None,
    ) -> np.ndarray:
        """Vectorised :meth:`latency_ms` over a (cores x frequency) grid.

        Entry ``[c, q]`` is bit-identical to ``latency_ms(network, cluster,
        frequencies_mhz[q], core_counts[c], soc_name)``: the compute term is
        assembled with the same multiply/divide order as the scalar path, so
        the columnar operating-point kernel prices exactly the floats the
        per-point path would.
        """
        if any(count <= 0 for count in core_counts):
            raise ValueError("cores_used must be positive")
        calibration = None
        if soc_name is not None:
            calibration = self.calibration_for(soc_name, cluster.name)
        else:
            for (_, cluster_name), candidate in self._calibrations.items():
                if cluster_name == cluster.name:
                    calibration = candidate
                    break
        if calibration is None:
            return self._fallback.latency_grid_ms(network, cluster, frequencies_mhz, core_counts)
        mac_ratio = network.total_macs() / self.reference_macs
        clamped = np.minimum(np.asarray(core_counts, dtype=np.int64), cluster.num_cores)
        cores = 1.0 + (clamped - 1) * cluster.performance.parallel_efficiency
        per_frequency = calibration.compute_ms_mhz * mac_ratio / frequencies_mhz
        compute_ms = per_frequency[None, :] / cores[:, None]
        return compute_ms + calibration.overhead_ms

    def throughput_fps(
        self,
        network: NetworkModel,
        cluster: Cluster,
        frequency_mhz: float | None = None,
        cores_used: int = 1,
        soc_name: str | None = None,
    ) -> float:
        """Predicted sustained throughput in frames per second."""
        latency = self.latency_ms(network, cluster, frequency_mhz, cores_used, soc_name)
        return 1000.0 / latency
