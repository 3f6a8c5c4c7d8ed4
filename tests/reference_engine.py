"""The unmemoised reference engine: the oracle of the memoised simulator.

:class:`ReferenceSimulator` overrides every memoised hot path of
:class:`~repro.sim.engine.Simulator` with the plain computation it replays:
it builds each job's network, prices each job and scores each job's
accuracy afresh, asks the manager at every epoch, counts online cores on
every query, and lists per-core utilisations for every power sample.  Its
manager also keeps its own private operating-point cache instead of one over
the simulator's memo stores.  Equal fingerprints between the two therefore
check the memos against independent code rather than against themselves
(``tests/test_reference_oracle.py``, ``tests/test_fleet.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.rtm.manager import RuntimeManager
from repro.rtm.state import Mapping, SystemState
from repro.sim.engine import Simulator
from repro.workloads.tasks import DNNApplication

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """The simulator with every memo replaced by the computation it replays."""

    def __init__(self, scenario, manager, *args, **kwargs) -> None:
        own_cache = manager.cache if isinstance(manager, RuntimeManager) else None
        super().__init__(scenario, manager, *args, **kwargs)
        if own_cache is not None:
            manager.set_operating_point_cache(own_cache)

    def _job_network(self, application: DNNApplication, configuration: float):
        """The network model an inference job at ``configuration`` runs."""
        return application.dynamic_dnn.model_for(configuration)

    def _job_cost(self, network, cluster, mapping: Mapping):
        """``(latency_ms, energy_mj)`` of one inference job at the current state."""
        cost = self.energy_model.cost(
            network,
            cluster,
            frequency_mhz=None,
            cores_used=mapping.cores,
            temperature_c=self.soc.thermal.temperature_c,
            soc_name=self.soc.name,
        )
        return cost.latency_ms, cost.energy_mj

    def _job_accuracy(self, application: DNNApplication, configuration: float) -> float:
        """Delivered accuracy of a job that ran at ``configuration``."""
        return application.accuracy_of(configuration)

    def _manager_decide(self, state: SystemState):
        """Run one manager decision epoch."""
        return self.manager.decide(state)

    def _online_core_count(self, cluster) -> int:
        """Number of powered cores in ``cluster``."""
        return len(cluster.online_cores)

    def _interval_power_and_utilisation(
        self, now_ms: float
    ) -> "tuple[float, Dict[str, float]]":
        """Average power and per-cluster utilisation over the last interval."""
        interval_ms = max(now_ms - self._last_sample_ms, 1e-9)
        self._accrue_interval_busy_time(now_ms)
        per_cluster_cores: Dict[str, List[float]] = {}
        cluster_utilisation: Dict[str, float] = {}
        for cluster in self.soc.clusters:
            # The true online count, which can be 0 when every core of the
            # cluster has failed: work stranded on a dead cluster contributes
            # no utilisation samples (the power model rejects more samples
            # than online cores).  Fault-free this is identical to the old
            # max(count, 1) form — busy work implies reserved (online) cores.
            online = self._online_core_count(cluster)
            avg_busy_cores = min(
                self._busy_core_ms.get(cluster.name, 0.0) / interval_ms, float(online)
            )
            cluster_utilisation[cluster.name] = avg_busy_cores / max(online, 1)
            full_cores = int(avg_busy_cores)
            fraction = avg_busy_cores - full_cores
            utilisations = [1.0] * full_cores
            if fraction > 1e-3 and full_cores < online:
                utilisations.append(fraction)
            per_cluster_cores[cluster.name] = utilisations
        power_mw = self.soc.total_power_mw(per_cluster_cores)
        # Running jobs continue into the next interval: the part after this
        # sample will be accrued then, so the accumulator resets here.
        self._busy_core_ms = {}
        self._last_sample_ms = now_ms
        return power_mw, cluster_utilisation
