"""Per-point reference kernels: the oracle of the columnar decision kernel.

Every decision prices, fronts, scores and ranks whole
:class:`~repro.rtm.operating_points.OperatingPointTable` columns in numpy
(``OperatingPointSpace.enumerate_table``, ``OperatingPointTable.pareto``,
``Requirements.violation_scores``, ``SelectionPolicy.select_table``).  This
module writes each of those steps out point by point in plain Python and
shares no code with them:

* :func:`enumerate_points` prices every point alone through the scalar
  ``EnergyModel.cost``, which ``EnergyModel.cost_grid`` must match bit for
  bit;
* :func:`front` is the O(n^2) Pareto front over :func:`naive_domination`;
* :func:`violation_score` is one point's total normalised violation;
* :func:`select` is each registered policy's choice from a list of points.

:func:`table_of` builds the kernel's input table from hand-built points.
``tests/test_columnar_kernel.py`` checks the kernel against all of them.

:class:`UnmemoisedOperatingPoints` is the oracle of the operating-point
cache that sits between the decision path and the kernel: the cache's
interface with every answer computed afresh.  Inside
:func:`unmemoised_operating_points` every simulator gives its manager one,
so a run there equals the cached run only if every cache key is complete
(``tests/test_cache_parity.py``).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence
from unittest import mock

from repro.rtm.cache import DECISION_MAXIMISE, DECISION_OBJECTIVES, CacheStats
from repro.rtm.operating_points import OperatingPoint, OperatingPointSpace, OperatingPointTable
from repro.sim import engine
from repro.workloads.requirements import Requirements

__all__ = [
    "enumerate_points",
    "naive_domination",
    "front",
    "violation_score",
    "select",
    "table_of",
    "UnmemoisedOperatingPoints",
    "unmemoised_operating_points",
]


def enumerate_points(
    space,
    clusters: Optional[Sequence[str]] = None,
    configurations: Optional[Sequence[float]] = None,
    core_counts: Optional[Sequence[int]] = None,
    frequencies: Optional[Dict[str, Sequence[float]]] = None,
    temperature_c: float = 45.0,
) -> List[OperatingPoint]:
    """The rows ``space.enumerate_table(...)`` must hold, each priced alone."""
    if configurations is None:
        configurations = space.trained.configurations
    points = []
    for name in clusters if clusters is not None else space.soc.cluster_names:
        if not space.soc.has_cluster(name):
            continue
        cluster = space.soc.cluster(name)
        if core_counts is None:
            counts = range(1, min(cluster.num_cores, space.max_cores_per_cluster) + 1)
        else:
            counts = [count for count in core_counts if 1 <= count <= cluster.num_cores]
        if frequencies is not None and name in frequencies:
            cluster_frequencies = frequencies[name]
        else:
            cluster_frequencies = cluster.available_frequencies()
        for fraction in configurations:
            network = space.trained.dynamic_dnn.model_for(fraction)
            for cores in counts:
                for frequency in cluster_frequencies:
                    cost = space.energy_model.cost(
                        network,
                        cluster,
                        frequency_mhz=frequency,
                        cores_used=cores,
                        temperature_c=temperature_c,
                        soc_name=space.soc.name,
                    )
                    points.append(
                        OperatingPoint(
                            cluster_name=name,
                            frequency_mhz=frequency,
                            cores=cores,
                            configuration=fraction,
                            latency_ms=cost.latency_ms,
                            power_mw=cost.power_mw,
                            energy_mj=cost.energy_mj,
                            accuracy_percent=space.trained.top1(fraction),
                            confidence_percent=space.trained.confidence(fraction),
                        )
                    )
    return points


def naive_domination(rows: list) -> list:
    """``mask[i]``: some row is no worse than row ``i`` in every column and
    strictly better in at least one (all columns minimised)."""
    return [
        any(
            all(o <= r for o, r in zip(other, row)) and any(o < r for o, r in zip(other, row))
            for other in rows
        )
        for row in rows
    ]


def front(
    points: Sequence[OperatingPoint],
    objectives: Sequence[str] = ("latency_ms", "energy_mj"),
    maximise: Sequence[str] = ("accuracy_percent",),
) -> List[OperatingPoint]:
    """The points no other point dominates, in input order."""
    rows = [
        [getattr(point, name) for name in objectives] + [-getattr(point, name) for name in maximise]
        for point in points
    ]
    return [point for point, dominated in zip(points, naive_domination(rows)) if not dominated]


def violation_score(point: OperatingPoint, requirements: Requirements) -> float:
    """Total normalised violation of one point against the requirements.

    Sums, in the order latency, energy, power, accuracy, fps, how far past
    each missed limit the point is as a fraction of the limit.  A limit is
    missed by more than a relative 1e-9.
    """
    latency_limits = [
        limit
        for limit in (
            requirements.max_latency_ms,
            None if requirements.target_fps is None else 1000.0 / requirements.target_fps,
        )
        if limit is not None
    ]
    checks = (
        (point.latency_ms, min(latency_limits) if latency_limits else None, "max"),
        (point.energy_mj, requirements.max_energy_mj, "max"),
        (point.power_mw, requirements.max_power_mw, "max"),
        (point.accuracy_percent, requirements.min_accuracy_percent, "min"),
        (point.fps, requirements.target_fps, "min"),
    )
    score = 0.0
    for actual, limit, kind in checks:
        if limit is None:
            continue
        if kind == "max":
            missed = actual > limit * (1.0 + 1e-9)
        else:
            missed = actual < limit * (1.0 - 1e-9)
        if missed:
            score += abs(actual) if limit == 0 else abs(actual - limit) / abs(limit)
    return score


#: Each registered policy's score of a feasible point; lower is better.
OBJECTIVES = {
    "max_accuracy": lambda point: -point.accuracy_percent * 1e6 + point.energy_mj,
    "min_energy": lambda point: point.energy_mj,
    "min_latency": lambda point: point.latency_ms,
    "max_confidence": lambda point: -point.confidence_percent,
}

#: The metric a policy maximises first among feasible points.
MAXIMISED = {"max_accuracy": "accuracy_percent", "max_confidence": "confidence_percent"}


def select(
    policy_name: str,
    points: Sequence[OperatingPoint],
    requirements: Requirements,
    power_cap_mw: Optional[float] = None,
) -> Optional[OperatingPoint]:
    """The point the registered policy ``policy_name`` picks from ``points``.

    Points over the power cap are excluded.  Among the points meeting every
    requirement, a maximising policy keeps those within 1e-9 of the best
    value of its metric and takes the least energy, then the least latency;
    any other takes its least objective.  With no feasible point it takes
    the least total violation, then the least objective, from the points
    under the cap, or from all points when none is under it.  Ties go to the
    earliest point (``min`` returns the first minimum).
    """
    if not points:
        return None
    objective = OBJECTIVES[policy_name]
    under_cap = [p for p in points if power_cap_mw is None or p.power_mw <= power_cap_mw]
    feasible = [p for p in under_cap if violation_score(p, requirements) == 0.0]
    if feasible:
        metric = MAXIMISED.get(policy_name)
        if metric is None:
            return min(feasible, key=objective)
        best = max(getattr(p, metric) for p in feasible)
        top = [p for p in feasible if getattr(p, metric) >= best - 1e-9]
        return min(top, key=lambda p: (p.energy_mj, p.latency_ms))
    return min(
        under_cap or points, key=lambda p: (violation_score(p, requirements), objective(p))
    )


def table_of(points: Sequence[OperatingPoint]) -> OperatingPointTable:
    """An operating-point table holding ``points`` row for row."""
    names = tuple(dict.fromkeys(point.cluster_name for point in points))
    return OperatingPointTable(
        cluster_names=names,
        cluster_index=[names.index(point.cluster_name) for point in points],
        cores=[point.cores for point in points],
        latency_ms=[point.latency_ms for point in points],
        power_mw=[point.power_mw for point in points],
        energy_mj=[point.energy_mj for point in points],
        accuracy_percent=[point.accuracy_percent for point in points],
        confidence_percent=[point.confidence_percent for point in points],
        fps=[point.fps for point in points],
        frequency_mhz=[point.frequency_mhz for point in points],
        configuration=[point.configuration for point in points],
    )


class UnmemoisedOperatingPoints:
    """The operating-point cache's interface, memoising nothing.

    ``front_for`` prices its query on a fresh space and fronts it on every
    call; ``pareto_table_for`` and ``selection_for`` compute their answer on
    every call too, and every key is ignored.  Its statistics stay at zero:
    it serves nothing.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()

    def query_key(self, **query) -> None:
        return None

    def front_for(
        self,
        key,
        trained,
        soc,
        energy_model,
        max_cores_per_cluster=4,
        **query,
    ) -> OperatingPointTable:
        space = OperatingPointSpace(trained, soc, energy_model, max_cores_per_cluster)
        return space.enumerate_table(**query).pareto(
            objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE
        )

    def pareto_table_for(self, key, table) -> OperatingPointTable:
        return table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)

    def selection_for(self, key, select) -> Optional[OperatingPoint]:
        return select()


@contextlib.contextmanager
def unmemoised_operating_points() -> Iterator[None]:
    """Inside the block, every simulator gives its runtime manager a stand-in.

    A simulator routes its manager's decisions through an operating-point
    cache over its memo stores; here it attaches a fresh
    :class:`UnmemoisedOperatingPoints` instead.  Worker processes forked
    inside the block inherit the patch, so it holds on every execution
    backend.
    """
    with mock.patch.object(
        engine, "OperatingPointCache", lambda stores: UnmemoisedOperatingPoints()
    ):
        yield
