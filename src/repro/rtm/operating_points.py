"""Operating-point space of a DNN application on a heterogeneous platform.

Section IV of the paper combines three knobs — the dynamic DNN configuration,
task mapping and DVFS — into a space of operating points in the (energy,
power, time, accuracy) space (Fig 4a).  This module enumerates that space for
a given application and platform, and provides the Pareto filter the
runtime-management policies are built on.

Enumeration is columnar: each requested (configurations x cores x
frequencies) block of a cluster is priced in a handful of vectorised
numpy operations (see :meth:`EnergyModel.cost_grid`) and materialised as an
:class:`OperatingPointTable` — a struct-of-arrays view with one numpy column
per metric and knob.  The decision path (Pareto pre-filtering, requirement
checking, policy scoring) operates on those columns directly instead of
looping over :class:`OperatingPoint` objects; the object form is materialised
lazily for callers that want it.  A space memoises nothing: the decision
path asks :class:`~repro.rtm.cache.OperatingPointCache`, which prices a query
here once and keeps its Pareto front.

The vectorised pricing replays the exact float-operation order of per-point
:meth:`EnergyModel.cost` calls, so every table entry is bit-identical to
pricing its point alone.  The per-point references — pricing, the O(n^2)
Pareto front, violation scoring and policy selection — are a test oracle,
``tests/reference_kernels.py``, which ``tests/test_columnar_kernel.py``
checks the kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.energy import EnergyModel
from repro.platforms.cluster import Cluster
from repro.platforms.soc import Soc

__all__ = [
    "OperatingPoint",
    "OperatingPointTable",
    "OperatingPointSpace",
    "pareto_mask",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One (configuration, cluster, cores, frequency) choice and its predicted cost.

    Attributes
    ----------
    cluster_name:
        Cluster the inference runs on.
    frequency_mhz:
        Cluster frequency.
    cores:
        Cores used on the cluster.
    configuration:
        Dynamic-DNN width fraction.
    latency_ms / power_mw / energy_mj:
        Predicted platform-dependent metrics (Table I columns).
    accuracy_percent / confidence_percent:
        Predicted platform-independent metrics.
    """

    cluster_name: str
    frequency_mhz: float
    cores: int
    configuration: float
    latency_ms: float
    power_mw: float
    energy_mj: float
    accuracy_percent: float
    confidence_percent: float

    @property
    def fps(self) -> float:
        """Throughput if inferences run back to back."""
        return 1000.0 / self.latency_ms

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{round(self.configuration * 100)}% model on {self.cluster_name} "
            f"x{self.cores} @ {self.frequency_mhz:.0f} MHz: "
            f"{self.latency_ms:.1f} ms, {self.energy_mj:.1f} mJ, "
            f"{self.power_mw:.0f} mW, {self.accuracy_percent:.1f}% top-1"
        )


#: Metric columns of an :class:`OperatingPointTable` (all float64).
_METRIC_COLUMNS = (
    "latency_ms",
    "power_mw",
    "energy_mj",
    "accuracy_percent",
    "confidence_percent",
    "fps",
    "frequency_mhz",
    "configuration",
)


class OperatingPointTable:
    """Struct-of-arrays view of a set of operating points.

    One numpy column per metric and knob, aligned by row; ``cluster_index``
    indexes into ``cluster_names``.  Tables are immutable (columns are marked
    read-only) and cheap to slice: restricted queries and Pareto fronts are
    served as index views (:meth:`take`) that share no per-row Python
    objects.  ``points`` / ``point`` materialise the classic
    :class:`OperatingPoint` dataclasses lazily for callers that want the
    object form; the floats are bit-identical either way.
    """

    __slots__ = (
        "latency_ms",
        "power_mw",
        "energy_mj",
        "accuracy_percent",
        "confidence_percent",
        "fps",
        "frequency_mhz",
        "configuration",
        "cores",
        "cluster_index",
        "cluster_names",
        "_points",
    )

    def __init__(
        self,
        *,
        cluster_names: Tuple[str, ...],
        cluster_index: np.ndarray,
        cores: np.ndarray,
        latency_ms: np.ndarray,
        power_mw: np.ndarray,
        energy_mj: np.ndarray,
        accuracy_percent: np.ndarray,
        confidence_percent: np.ndarray,
        fps: np.ndarray,
        frequency_mhz: np.ndarray,
        configuration: np.ndarray,
    ) -> None:
        self.cluster_names = tuple(cluster_names)
        self.cluster_index = self._freeze(np.asarray(cluster_index, dtype=np.int64))
        self.cores = self._freeze(np.asarray(cores, dtype=np.int64))
        self.latency_ms = self._freeze(np.asarray(latency_ms, dtype=float))
        self.power_mw = self._freeze(np.asarray(power_mw, dtype=float))
        self.energy_mj = self._freeze(np.asarray(energy_mj, dtype=float))
        self.accuracy_percent = self._freeze(np.asarray(accuracy_percent, dtype=float))
        self.confidence_percent = self._freeze(np.asarray(confidence_percent, dtype=float))
        self.fps = self._freeze(np.asarray(fps, dtype=float))
        self.frequency_mhz = self._freeze(np.asarray(frequency_mhz, dtype=float))
        self.configuration = self._freeze(np.asarray(configuration, dtype=float))
        self._points: Optional[Tuple[OperatingPoint, ...]] = None

    @staticmethod
    def _freeze(array: np.ndarray) -> np.ndarray:
        if array.flags.writeable and array.flags.owndata:
            array.flags.writeable = False
        return array

    # ------------------------------------------------------------ construction

    @classmethod
    def concat(cls, tables: Sequence["OperatingPointTable"]) -> "OperatingPointTable":
        """Row-wise concatenation, preserving order (cluster ids are remapped)."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        names: List[str] = []
        index_of: Dict[str, int] = {}
        index_chunks: List[np.ndarray] = []
        for table in tables:
            remap = np.empty(len(table.cluster_names), dtype=np.int64)
            for local, name in enumerate(table.cluster_names):
                index = index_of.get(name)
                if index is None:
                    index = index_of[name] = len(names)
                    names.append(name)
                remap[local] = index
            index_chunks.append(remap[table.cluster_index])
        merged = cls(
            cluster_names=tuple(names),
            cluster_index=np.concatenate(index_chunks),
            cores=np.concatenate([t.cores for t in tables]),
            latency_ms=np.concatenate([t.latency_ms for t in tables]),
            power_mw=np.concatenate([t.power_mw for t in tables]),
            energy_mj=np.concatenate([t.energy_mj for t in tables]),
            accuracy_percent=np.concatenate([t.accuracy_percent for t in tables]),
            confidence_percent=np.concatenate([t.confidence_percent for t in tables]),
            fps=np.concatenate([t.fps for t in tables]),
            frequency_mhz=np.concatenate([t.frequency_mhz for t in tables]),
            configuration=np.concatenate([t.configuration for t in tables]),
        )
        if all(t._points is not None for t in tables):
            merged._points = tuple(p for t in tables for p in t._points)  # type: ignore[union-attr]
        return merged

    @classmethod
    def empty(cls) -> "OperatingPointTable":
        """A table with zero rows."""
        zero_f = np.empty(0, dtype=float)
        table = cls(
            cluster_names=(),
            cluster_index=np.empty(0, dtype=np.int64),
            cores=np.empty(0, dtype=np.int64),
            latency_ms=zero_f,
            power_mw=zero_f,
            energy_mj=zero_f,
            accuracy_percent=zero_f,
            confidence_percent=zero_f,
            fps=zero_f,
            frequency_mhz=zero_f,
            configuration=zero_f,
        )
        table._points = ()
        return table

    # ----------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.latency_ms)

    def column(self, name: str) -> np.ndarray:
        """Column by metric/knob name (used by the Pareto machinery)."""
        if name not in _METRIC_COLUMNS and name not in ("cores", "cluster_index"):
            raise KeyError(f"unknown operating-point column {name!r}")
        return getattr(self, name)

    def take(self, indices: np.ndarray) -> "OperatingPointTable":
        """Row subset (fancy-index view) preserving order of ``indices``.

        Accepts integer indices or a boolean row mask.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            # Normalise masks: bool fancy-indexing of the lazily-materialised
            # point tuple would silently index with 0/1 instead of masking.
            indices = np.flatnonzero(indices)
        view = OperatingPointTable(
            cluster_names=self.cluster_names,
            cluster_index=self.cluster_index[indices],
            cores=self.cores[indices],
            latency_ms=self.latency_ms[indices],
            power_mw=self.power_mw[indices],
            energy_mj=self.energy_mj[indices],
            accuracy_percent=self.accuracy_percent[indices],
            confidence_percent=self.confidence_percent[indices],
            fps=self.fps[indices],
            frequency_mhz=self.frequency_mhz[indices],
            configuration=self.configuration[indices],
        )
        if self._points is not None:
            view._points = tuple(self._points[i] for i in indices.tolist())
        return view

    def point(self, row: int) -> OperatingPoint:
        """Materialise one row as an :class:`OperatingPoint`."""
        if self._points is not None:
            return self._points[row]
        return OperatingPoint(
            cluster_name=self.cluster_names[int(self.cluster_index[row])],
            frequency_mhz=float(self.frequency_mhz[row]),
            cores=int(self.cores[row]),
            configuration=float(self.configuration[row]),
            latency_ms=float(self.latency_ms[row]),
            power_mw=float(self.power_mw[row]),
            energy_mj=float(self.energy_mj[row]),
            accuracy_percent=float(self.accuracy_percent[row]),
            confidence_percent=float(self.confidence_percent[row]),
        )

    @property
    def points(self) -> List[OperatingPoint]:
        """The rows as :class:`OperatingPoint` objects (materialised lazily)."""
        if self._points is None:
            self._points = tuple(self.point(row) for row in range(len(self)))
        return list(self._points)

    # ------------------------------------------------------------------ pareto

    def objective_matrix(
        self, objectives: Sequence[str], maximise: Sequence[str]
    ) -> np.ndarray:
        """The (rows x metrics) matrix the Pareto filter runs on.

        Minimised metrics enter as-is, maximised metrics negated.
        """
        matrix = np.empty((len(self), len(objectives) + len(maximise)), dtype=float)
        for column, name in enumerate(objectives):
            matrix[:, column] = self.column(name)
        for offset, name in enumerate(maximise):
            matrix[:, len(objectives) + offset] = -self.column(name)
        return matrix

    def pareto(
        self,
        objectives: Sequence[str] = ("latency_ms", "energy_mj"),
        maximise: Sequence[str] = ("accuracy_percent",),
    ) -> "OperatingPointTable":
        """Pareto-optimal subset as a table view (row order preserved).

        For larger tables the front is computed hierarchically: rows are
        partitioned by dynamic-DNN configuration, each partition is
        pre-fronted, and the final front is taken over the survivors.  A
        hierarchical front over any partition equals the direct front
        (domination is transitive, so every dominated row is dominated by
        some member of its partition's front), while the O(n^2) domination
        broadcasts run on much smaller row sets — within one configuration
        the frequency/core sweep produces dense domination chains, so the
        partitions collapse hard before the cross-partition pass.
        """
        if len(self) < 2:
            return self
        matrix = self.objective_matrix(objectives, maximise)
        if len(self) >= 64:
            values, labels = np.unique(self.configuration, return_inverse=True)
            if len(values) > 1:
                chunks = [
                    np.flatnonzero(labels == group) for group in range(len(values))
                ]
                survivors = np.sort(
                    np.concatenate(
                        [idx[~pareto_mask(matrix[idx])] for idx in chunks]
                    )
                )
                final = ~pareto_mask(matrix[survivors])
                return self.take(survivors[final])
        return self.take(np.flatnonzero(~pareto_mask(matrix)))


def pareto_mask(matrix: np.ndarray) -> np.ndarray:
    """Domination mask of a (rows x metrics) matrix, all metrics minimised.

    ``mask[i]`` is True when some row j is no worse than row i on every
    column and strictly better on at least one.  A row identical to another
    is never "strictly better", so a point can neither dominate itself nor
    be dominated by its duplicates.
    """
    count = len(matrix)
    if count < 2:
        return np.zeros(count, dtype=bool)
    if count <= 2048:
        # no_worse[i, j] means "j is no worse than i on every column"; given
        # that, "j strictly better somewhere" is exactly "i is NOT no-worse
        # than j" (equal rows are no-worse both ways), so one matrix plus its
        # transpose covers both conditions.  It is ANDed one column at a time
        # from all-True (so a zero-column matrix dominates nothing): k
        # (n x n) comparisons cost a fraction of reducing one (n x n x k)
        # array along its short last axis.
        no_worse = np.ones((count, count), dtype=bool)
        for column in matrix.T:
            no_worse &= column[None, :] <= column[:, None]
        return (no_worse & ~no_worse.T).any(axis=1)
    # Row-at-a-time fallback bounds the broadcast to O(n) memory.
    dominated = np.zeros(count, dtype=bool)
    for index in range(count):
        row = matrix[index]
        no_worse = (matrix <= row).all(axis=1)
        strictly = (matrix < row).any(axis=1)
        dominated[index] = (no_worse & strictly).any()
    return dominated


class OperatingPointSpace:
    """Enumerate and query the operating points of one trained dynamic DNN.

    Parameters
    ----------
    trained:
        The trained dynamic DNN (configurations + accuracy profile).
    soc:
        The platform.
    energy_model:
        Estimator combining latency and power models.
    max_cores_per_cluster:
        Cap on how many cores of one cluster a single inference may use.
    """

    def __init__(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        max_cores_per_cluster: int = 4,
    ) -> None:
        if max_cores_per_cluster <= 0:
            raise ValueError("max_cores_per_cluster must be positive")
        self.trained = trained
        self.soc = soc
        self.energy_model = energy_model
        self.max_cores_per_cluster = max_cores_per_cluster
        #: Operating points priced so far.
        self.points_priced = 0

    # ------------------------------------------------------------- candidates

    def candidate_axes(
        self, cluster: Cluster
    ) -> Tuple[List[float], List[int], List[float]]:
        """Default (configurations, core counts, frequencies) of one cluster."""
        counts = list(range(1, min(cluster.num_cores, self.max_cores_per_cluster) + 1))
        return list(self.trained.configurations), counts, cluster.available_frequencies()

    def _price_block(
        self,
        cluster: Cluster,
        fractions: Sequence[float],
        counts: Sequence[int],
        frequencies: Sequence[float],
        temperature_c: float,
    ) -> OperatingPointTable:
        """Price one block in a few vectorised operations per configuration."""
        rows = len(fractions) * len(counts) * len(frequencies)
        self.points_priced += rows
        if rows == 0:
            return OperatingPointTable.empty()
        per_block = len(counts) * len(frequencies)
        latency = np.empty(rows, dtype=float)
        power = np.empty(rows, dtype=float)
        energy = np.empty(rows, dtype=float)
        accuracy = np.empty(rows, dtype=float)
        confidence = np.empty(rows, dtype=float)
        configuration = np.empty(rows, dtype=float)
        for index, fraction in enumerate(fractions):
            lat, pow_, ener = self.energy_model.cost_grid(
                self.trained.dynamic_dnn.model_for(fraction),
                cluster,
                frequencies_mhz=list(frequencies),
                core_counts=list(counts),
                temperature_c=temperature_c,
                soc_name=self.soc.name,
            )
            start = index * per_block
            stop = start + per_block
            latency[start:stop] = lat.ravel()
            power[start:stop] = pow_.ravel()
            energy[start:stop] = ener.ravel()
            accuracy[start:stop] = self.trained.top1(fraction)
            confidence[start:stop] = self.trained.confidence(fraction)
            configuration[start:stop] = fraction
        cores_column = np.tile(
            np.repeat(np.asarray(counts, dtype=np.int64), len(frequencies)), len(fractions)
        )
        frequency_column = np.tile(
            np.asarray(frequencies, dtype=float), len(fractions) * len(counts)
        )
        return OperatingPointTable(
            cluster_names=(cluster.name,),
            cluster_index=np.zeros(rows, dtype=np.int64),
            cores=cores_column,
            latency_ms=latency,
            power_mw=power,
            energy_mj=energy,
            accuracy_percent=accuracy,
            confidence_percent=confidence,
            fps=1000.0 / latency,
            frequency_mhz=frequency_column,
            configuration=configuration,
        )

    def _query_blocks(
        self,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> List[OperatingPointTable]:
        """Per-cluster priced blocks of one enumeration query."""
        cluster_names = list(clusters) if clusters is not None else self.soc.cluster_names
        blocks: List[OperatingPointTable] = []
        for cluster_name in cluster_names:
            if not self.soc.has_cluster(cluster_name):
                continue
            cluster = self.soc.cluster(cluster_name)
            default_fractions, default_counts, default_frequencies = self.candidate_axes(cluster)
            fractions = (
                list(configurations) if configurations is not None else default_fractions
            )
            if frequencies is not None and cluster_name in frequencies:
                cluster_frequencies = list(frequencies[cluster_name])
            else:
                cluster_frequencies = default_frequencies
            if core_counts is None:
                counts = default_counts
            else:
                counts = [c for c in core_counts if 1 <= c <= cluster.num_cores]
            blocks.append(
                self._price_block(cluster, fractions, counts, cluster_frequencies, temperature_c)
            )
        return blocks

    # ------------------------------------------------------------ enumeration

    def enumerate_table(
        self,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> OperatingPointTable:
        """Enumerate operating points as a struct-of-arrays table.

        Rows run cluster by cluster, then configuration, core count and
        frequency.

        Parameters
        ----------
        clusters:
            Restrict to these clusters (e.g. the ones with free cores);
            defaults to every cluster of the SoC.  Clusters the platform
            lacks are skipped.
        configurations:
            Restrict to these dynamic-DNN fractions.
        core_counts:
            Core counts to consider per cluster; defaults to 1..min(cluster
            size, ``max_cores_per_cluster``).
        frequencies:
            Optional mapping of cluster name to an iterable of frequencies;
            defaults to the whole OPP table of each cluster.  Passing a
            single-element list pins a cluster to a fixed frequency (used
            when another application already fixed the shared domain).
        temperature_c:
            Temperature used for leakage in the power prediction.
        """
        return OperatingPointTable.concat(
            self._query_blocks(clusters, configurations, core_counts, frequencies, temperature_c)
        )

    def fig4a_points(self) -> List[OperatingPoint]:
        """The Fig 4(a) sweep: single-core A15 and A7 points over all frequencies.

        Only meaningful on the Odroid XU3 preset: clusters a platform lacks
        are skipped, so on a platform with neither cluster it returns ``[]``.
        """
        return self.enumerate_table(clusters=["a15", "a7"], core_counts=[1]).points
