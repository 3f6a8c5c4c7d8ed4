"""Caching operating-point engine.

Every decision epoch the runtime manager (and, for the single-application
query, the Section IV case study) enumerates the (configuration x cluster x
cores x frequency) grid and prices every point through the energy model.
The grid is a pure function of a small set of inputs — the trained dynamic
DNN, the platform topology, the knob restrictions and the temperature used
for leakage — so long scenarios and sweeps re-derive the same tables
hundreds of times.  This module memoises that work.

Two memos cooperate:

* :class:`OperatingPointCache` memoises the Pareto *front* of each
  enumeration query.  On a miss it builds an
  :class:`~repro.rtm.operating_points.OperatingPointSpace` over the live
  platform and models, prices the query once and keeps only the front.  The
  union of an application's per-cluster fronts is fronted and memoised in
  the same store.
* The same cache memoises each application's *selection*: the operating
  point a policy chose from the decision front, keyed by the front's query
  keys, the policy, the requirements and the power cap, so a repeated
  sub-problem skips enumeration, fronting and ranking altogether.

The runtime manager quantises the enumeration temperature to a bucket
(:func:`temperature_bucket_c`) so that small thermal drift between epochs
does not defeat the cache.

The cache is the decision path's only route to the decision kernel: every
runtime manager and its allocator hold one.  Its reference, a stand-in with the same
interface that memoises nothing, lives with the test oracles
(``tests/reference_kernels.py``).

Keys are *complete*: every input that can change an enumeration result —
model identities (see the ``cache_key`` methods on the perfmodel classes and
:class:`~repro.dnn.training.TrainedDynamicDNN`), SoC topology including
per-cluster online-core counts, knob restrictions and the temperature bucket
— is part of the key.  A stale entry can therefore never be returned for a
fresh key, and the cache never flushes: cores going offline, an application
being unmapped or the SoC crossing a thermal bucket change the keys the
decision path asks for, and the entries of the old shape are served again
once it returns.  The entry stores are plain dicts, either the cache's own or
those of a store holder shared by many caches (the replicas of a batch, the
devices of a fleet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.energy import EnergyModel
from repro.platforms.soc import Soc
from repro.rtm.operating_points import (
    OperatingPoint,
    OperatingPointSpace,
    OperatingPointTable,
)

__all__ = [
    "DECISION_OBJECTIVES",
    "DECISION_MAXIMISE",
    "DEFAULT_TEMPERATURE_BUCKET_C",
    "temperature_bucket_c",
    "model_cache_key",
    "CacheStats",
    "OperatingPointCache",
]

#: Metrics minimised when pre-filtering decision candidates to a Pareto front.
#: Together with :data:`DECISION_MAXIMISE` these cover every metric any
#: registered requirement or selection policy reads, so dominated points can
#: never be selected and dropping them preserves behaviour.
DECISION_OBJECTIVES: Tuple[str, ...] = ("latency_ms", "energy_mj", "power_mw")

#: Metrics maximised when pre-filtering decision candidates.
DECISION_MAXIMISE: Tuple[str, ...] = ("accuracy_percent", "confidence_percent")

#: Default width of the leakage-temperature buckets used by the decision path.
DEFAULT_TEMPERATURE_BUCKET_C = 5.0

#: Marks a selection-memo miss (``None`` is a valid memoised choice).
_MISSING = object()


def temperature_bucket_c(
    temperature_c: float, width_c: float = DEFAULT_TEMPERATURE_BUCKET_C
) -> float:
    """Quantise a temperature to the lower edge of its bucket.

    The runtime manager prices operating points at the bucketed temperature
    (leakage changes little across a few degrees), so consecutive decision
    epochs share cache entries until the SoC actually crosses a bucket edge.
    """
    if width_c <= 0:
        raise ValueError("width_c must be positive")
    return round(math.floor(temperature_c / width_c) * width_c, 6)


def model_cache_key(model: object) -> tuple:
    """Stable identity of a model object for cache keys.

    Uses the object's ``cache_key()`` method when it has one (the perfmodel
    estimators and :class:`TrainedDynamicDNN` do); otherwise falls back to
    the instance identity, which scopes cache entries to that one object.
    An identity is unique only while its object lives, so the holder of such
    a model must keep it alive while its entries can be asked for: a runtime
    manager holds its energy model for as long as its cache.
    """
    method = getattr(model, "cache_key", None)
    if callable(method):
        return method()
    return (type(model).__qualname__, id(model))


@dataclass
class CacheStats:
    """Hit/miss statistics of one :class:`OperatingPointCache`.

    ``hits``/``misses`` count the fronts of enumeration queries, and a
    selection served whole from the selection memo counts as one more hit
    (the cache answered the query without enumerating).  ``pareto_hits`` /
    ``pareto_misses`` count every front lookup, the unions of per-cluster
    fronts included, and ``selection_hits`` / ``selection_misses``
    selection-memo lookups.  The energy-model evaluations the misses cost
    are :attr:`OperatingPointCache.points_priced`.
    """

    hits: int = 0
    misses: int = 0
    pareto_hits: int = 0
    pareto_misses: int = 0
    selection_hits: int = 0
    selection_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total enumeration-front lookups plus selections served whole."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of those lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def total_invalidations(self) -> int:
        """Always 0: the cache never flushes.

        Kept for the repository benchmark, whose traced
        ``rtm.cache_invalidations`` count reads it.
        """
        return 0


class OperatingPointCache:
    """Memoises the Pareto fronts of enumeration queries and the selections.

    Parameters
    ----------
    stores:
        Holder of the two entry dicts, read by attribute: ``pareto_tables``
        (the fronts of enumeration queries and of their unions) and
        ``selections`` (per-application choices), such as a
        :class:`~repro.sim.engine.SharedSimulationStores` that several caches
        share.  The cache keeps dicts of its own when omitted.  Statistics
        are always per cache.  Nothing is evicted: one simulation asks few
        enough distinct questions to keep every answer.
    """

    def __init__(self, stores: Optional[object] = None) -> None:
        self.stats = CacheStats()
        #: Energy-model evaluations of every query this cache priced.
        self.points_priced = 0
        # Pareto fronts (index views) per query key or union key, and the
        # chosen point (or None) per complete selection key; see
        # selection_for.
        self._fronts, self._selections = (
            ({}, {}) if stores is None else (stores.pareto_tables, stores.selections)
        )

    # ----------------------------------------------------------- enumeration

    def query_key(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        max_cores_per_cluster: int = 4,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> tuple:
        """Complete key of one enumeration query (:meth:`enumerate_table`'s arguments).

        Includes the online-core count of every requested cluster, because
        the power model charges idle power for online cores; offlining cores
        therefore changes keys (and prices) rather than silently reusing
        stale entries.
        """
        cluster_names = list(clusters) if clusters is not None else soc.cluster_names
        online = tuple(
            (name, len(soc.cluster(name).online_cores))
            for name in cluster_names
            if soc.has_cluster(name)
        )
        frequency_key: Optional[tuple] = None
        if frequencies is not None:
            frequency_key = tuple(
                (name, tuple(frequencies[name]))
                for name in sorted(frequencies)
                if name in cluster_names
            )
        return (
            model_cache_key(trained),
            soc.topology_key(),
            model_cache_key(energy_model),
            max_cores_per_cluster,
            tuple(cluster_names),
            online,
            tuple(configurations) if configurations is not None else None,
            tuple(core_counts) if core_counts is not None else None,
            frequency_key,
            temperature_c,
        )

    def enumerate_table(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        max_cores_per_cluster: int = 4,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> OperatingPointTable:
        """Price one enumeration query afresh: the miss path of :meth:`front_for`.

        The query is priced by a new
        :class:`~repro.rtm.operating_points.OperatingPointSpace` over the live
        platform and models (see
        :meth:`~repro.rtm.operating_points.OperatingPointSpace.enumerate_table`),
        and every point it prices counts into :attr:`points_priced`.
        """
        space = OperatingPointSpace(trained, soc, energy_model, max_cores_per_cluster)
        table = space.enumerate_table(
            clusters=clusters,
            configurations=configurations,
            core_counts=core_counts,
            frequencies=frequencies,
            temperature_c=temperature_c,
        )
        self.points_priced += space.points_priced
        return table

    def front_for(self, key: tuple, **query) -> OperatingPointTable:
        """Memoised Pareto front of one enumeration query.

        ``query`` holds :meth:`enumerate_table`'s arguments and ``key`` is
        their :meth:`query_key`.  Tables are immutable (read-only columns),
        so the memoised front is returned directly.  A hit counts one
        ``hits`` and one ``pareto_hits``; a miss prices the query and fronts
        it through :meth:`pareto_table_for`, counting one ``misses`` and one
        ``pareto_misses``.
        """
        front = self._fronts.get(key)
        if front is not None:
            self.stats.hits += 1
            self.stats.pareto_hits += 1
            return front
        self.stats.misses += 1
        return self.pareto_table_for(key, self.enumerate_table(**query))

    def pareto_table_for(self, key: tuple, table: OperatingPointTable) -> OperatingPointTable:
        """Memoised Pareto front of a table identified by ``key``.

        ``key`` must determine ``table``: :meth:`front_for` passes the query
        key of the enumeration that produced it, the allocator
        ``("union", query_keys)`` for the union of an application's
        per-cluster fronts.  The front minimises :data:`DECISION_OBJECTIVES`
        and maximises :data:`DECISION_MAXIMISE`.  Counts into the
        ``pareto_hits``/``pareto_misses`` statistics.
        """
        front = self._fronts.get(key)
        if front is not None:
            self.stats.pareto_hits += 1
            return front
        self.stats.pareto_misses += 1
        front = table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
        self._fronts[key] = front
        return front

    def selection_for(
        self, key: tuple, select: Callable[[], Optional[OperatingPoint]]
    ) -> Optional[OperatingPoint]:
        """Memoised selection of one application's operating point.

        ``key`` must determine the choice: callers pass the query keys of the
        per-cluster enumerations the decision front is built from, the
        policy's and the requirements' cache keys and the power cap.
        ``select`` runs on a miss; a ``None`` choice (nothing selectable) is
        memoised too.  A hit counts as one ``hits`` as well as one
        ``selection_hits``: the cache answered the whole query.
        """
        chosen = self._selections.get(key, _MISSING)
        if chosen is not _MISSING:
            self.stats.hits += 1
            self.stats.selection_hits += 1
            return chosen
        self.stats.selection_misses += 1
        chosen = select()
        self._selections[key] = chosen
        return chosen
