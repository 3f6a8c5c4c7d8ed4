"""Caching operating-point engine.

Every decision epoch the runtime manager (and, for the single-application
query, the Section IV case study) enumerates the (configuration x cluster x
cores x frequency) grid and prices every point through the energy model.
The grid is a pure function of a small set of inputs — the trained dynamic
DNN, the platform topology, the knob restrictions and the temperature used
for leakage — so long scenarios and sweeps re-derive the same tables
hundreds of times.  This module memoises that work.

Four layers cooperate:

* :class:`~repro.rtm.operating_points.OperatingPointSpace` memoises priced
  (configurations x cores x frequencies) blocks of each cluster, one
  vectorised energy-model evaluation per configuration, for the lifetime of
  the space; its ``points_priced`` counts the distinct points those blocks
  hold.
* :class:`OperatingPointCache` memoises the *spaces* themselves (so the
  block memo survives across decision epochs), the assembled point tables of
  each enumeration query, and the Pareto fronts derived from them.
* The same cache memoises each application's *selection*: the operating
  point a policy chose from the decision front, keyed by the front's query
  keys, the policy, the requirements and the power cap, so a repeated
  sub-problem skips enumeration, fronting and ranking altogether.
* The runtime manager quantises the enumeration temperature to a bucket
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
from typing import Callable, Dict, Optional, Sequence, Tuple

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
    "soc_topology_key",
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
    the instance identity, which is always safe — it just scopes cache
    entries to that one object.
    """
    method = getattr(model, "cache_key", None)
    if callable(method):
        return method()
    return (type(model).__qualname__, id(model))


def soc_topology_key(soc: Soc) -> tuple:
    """Stable key of everything about a platform that affects enumeration.

    Covers the cluster set, core counts and types, the OPP tables
    (frequency/voltage pairs), and the power and performance parameters that
    the latency/power models read.  Per-cluster *online*-core counts are
    deliberately part of the per-query key instead (they change at runtime).

    Delegates to :meth:`Soc.topology_key`, which assembles the tuple once at
    first use: the old per-call construction went through
    ``dataclasses.astuple`` (which deep-copies every field) tens of thousands
    of times per simulation and dominated the cached decision path.
    """
    return soc.topology_key()


@dataclass
class CacheStats:
    """Hit/miss statistics of one :class:`OperatingPointCache`.

    ``hits``/``misses`` count enumeration-table lookups, and a selection
    served whole from the selection memo counts as one more hit (the cache
    answered the query without enumerating).  ``pareto_hits`` /
    ``pareto_misses`` count Pareto-front lookups and ``selection_hits`` /
    ``selection_misses`` selection-memo lookups.  The energy-model
    evaluations everything above avoids are counted per space
    (:attr:`OperatingPointCache.points_priced` sums them).
    """

    hits: int = 0
    misses: int = 0
    pareto_hits: int = 0
    pareto_misses: int = 0
    selection_hits: int = 0
    selection_misses: int = 0
    spaces_built: int = 0

    @property
    def lookups(self) -> int:
        """Total enumeration-table lookups plus selections served whole."""
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

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for traces, summaries and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "pareto_hits": self.pareto_hits,
            "pareto_misses": self.pareto_misses,
            "selection_hits": self.selection_hits,
            "selection_misses": self.selection_misses,
            "spaces_built": self.spaces_built,
        }


class OperatingPointCache:
    """Memoises operating-point spaces, enumeration tables, fronts and selections.

    Parameters
    ----------
    stores:
        Holder of the three entry dicts, read by attribute: ``tables``
        (enumeration tables), ``pareto_tables`` (Pareto fronts) and
        ``selections`` (per-application choices), such as a
        :class:`~repro.sim.engine.SharedSimulationStores` that several caches
        share.  The cache keeps dicts of its own when omitted.  Spaces and
        statistics are always per cache.  Nothing is evicted: one
        simulation asks few enough distinct questions to keep every answer.
    """

    def __init__(self, stores: Optional[object] = None) -> None:
        self.stats = CacheStats()
        self._spaces: Dict[tuple, OperatingPointSpace] = {}
        # Evaluations of the spaces that space_for replaced.
        self._points_priced_replaced = 0
        # Assembled tables per enumeration query, Pareto-front tables (index
        # views) per key and the chosen point (or None) per complete
        # selection key; see selection_for.
        self._tables, self._pareto_tables, self._selections = (
            ({}, {}, {})
            if stores is None
            else (stores.tables, stores.pareto_tables, stores.selections)
        )

    # ---------------------------------------------------------------- spaces

    def space_key(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        clusters: Optional[Sequence[str]] = None,
        max_cores_per_cluster: int = 4,
    ) -> tuple:
        """Identity of one operating-point space."""
        return (
            model_cache_key(trained),
            soc_topology_key(soc),
            model_cache_key(energy_model),
            tuple(clusters) if clusters is not None else None,
            max_cores_per_cluster,
        )

    def space_for(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        energy_model: EnergyModel,
        clusters: Optional[Sequence[str]] = None,
        max_cores_per_cluster: int = 4,
    ) -> OperatingPointSpace:
        """A memoised space whose priced blocks survive across epochs.

        The space holds live references to its platform and models, so a key
        hit with *different instances* (a manager reused across simulations)
        rebuilds the space rather than pricing against the stale objects.
        The tables, fronts and selections derived under that key stay: the
        replaced space kept alive every object whose ``id()`` is part of the
        key, so the new instances can differ from the old ones only in parts
        that are keyed by value.
        """
        key = self.space_key(trained, soc, energy_model, clusters, max_cores_per_cluster)
        space = self._spaces.get(key)
        if (
            space is None
            or space.trained is not trained
            or space.soc is not soc
            or space.energy_model is not energy_model
        ):
            if space is not None:
                self._points_priced_replaced += space.points_priced
            space = OperatingPointSpace(
                trained=trained,
                soc=soc,
                energy_model=energy_model,
                clusters=clusters,
                max_cores_per_cluster=max_cores_per_cluster,
            )
            self._spaces[key] = space
            self.stats.spaces_built += 1
        return space

    # ----------------------------------------------------------- enumeration

    def query_key(
        self,
        space: OperatingPointSpace,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
    ) -> tuple:
        """Complete key of one enumeration query.

        Includes the online-core count of every requested cluster, because
        the power model charges idle power for online cores; offlining cores
        therefore changes keys (and prices) rather than silently reusing
        stale entries.
        """
        cluster_names = list(clusters) if clusters is not None else list(space.cluster_names)
        online = tuple(
            (name, len(space.soc.cluster(name).online_cores))
            for name in cluster_names
            if space.soc.has_cluster(name)
        )
        frequency_key: Optional[tuple] = None
        if frequencies is not None:
            frequency_key = tuple(
                (name, tuple(frequencies[name]))
                for name in sorted(frequencies)
                if name in cluster_names
            )
        return (
            self.space_key(
                space.trained,
                space.soc,
                space.energy_model,
                None,
                space.max_cores_per_cluster,
            ),
            tuple(cluster_names),
            online,
            tuple(configurations) if configurations is not None else None,
            tuple(core_counts) if core_counts is not None else None,
            frequency_key,
            temperature_c,
        )

    def enumerate_table(
        self,
        space: OperatingPointSpace,
        clusters: Optional[Sequence[str]] = None,
        configurations: Optional[Sequence[float]] = None,
        core_counts: Optional[Sequence[int]] = None,
        frequencies: Optional[dict] = None,
        temperature_c: float = 45.0,
        *,
        _key: Optional[tuple] = None,
    ) -> OperatingPointTable:
        """Memoised :meth:`OperatingPointSpace.enumerate_table`.

        Tables are immutable (read-only columns), so the memoised instance is
        returned directly — no defensive copy is needed.  Counts into the
        ``hits``/``misses`` statistics.  ``_key`` lets a caller that already
        built this query's :meth:`query_key` pass it instead of having it
        rebuilt.
        """
        key = _key
        if key is None:
            key = self.query_key(
                space, clusters, configurations, core_counts, frequencies, temperature_c
            )
        cached = self._tables.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        table = space.enumerate_table(
            clusters=clusters,
            configurations=configurations,
            core_counts=core_counts,
            frequencies=frequencies,
            temperature_c=temperature_c,
        )
        self._tables[key] = table
        return table

    def pareto_table_for(
        self,
        key: tuple,
        table: OperatingPointTable,
        objectives: Sequence[str] = DECISION_OBJECTIVES,
        maximise: Sequence[str] = DECISION_MAXIMISE,
    ) -> OperatingPointTable:
        """Memoised Pareto front of a table identified by ``key``.

        ``key`` must determine ``table`` (callers pass the query key — or a
        tuple of query keys for a multi-cluster union — of the enumeration
        that produced it).  Counts into the ``pareto_hits``/``pareto_misses``
        statistics.
        """
        full_key = (key, tuple(objectives), tuple(maximise))
        cached = self._pareto_tables.get(full_key)
        if cached is not None:
            self.stats.pareto_hits += 1
            return cached
        self.stats.pareto_misses += 1
        front = table.pareto(objectives=objectives, maximise=maximise)
        self._pareto_tables[full_key] = front
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

    @property
    def points_priced(self) -> int:
        """Energy-model evaluations performed by every space this cache built,
        including the ones :meth:`space_for` has since replaced."""
        return self._points_priced_replaced + sum(
            space.points_priced for space in self._spaces.values()
        )
