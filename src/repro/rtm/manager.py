"""The runtime resource manager (the RTM layer of Fig 5).

The :class:`RuntimeManager` ties everything together: at each decision point
it reads the system state (application monitors, device monitors, thermal
state), arbitrates the platform between the active applications with the
:class:`~repro.rtm.multi_app.MultiAppAllocator`, and returns the knob changes
— dynamic-DNN configurations, task mappings, DVFS settings — needed to keep
every application's requirements satisfied within the platform's power and
thermal constraints.

It also provides :meth:`RuntimeManager.select_operating_point`, the
single-application budget query used by the Section IV case study ("for a
budget of 400 ms and 100 mJ, a 100 % model on the A7 CPU at 900 MHz offers
the highest accuracy...").
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.platforms.soc import Soc
from repro.rtm.cache import (
    DEFAULT_TEMPERATURE_BUCKET_C,
    CacheStats,
    OperatingPointCache,
    temperature_bucket_c,
)
from repro.rtm.multi_app import THROTTLE_MARGIN_C, AllocationResult, MultiAppAllocator
from repro.rtm.operating_points import OperatingPoint
from repro.rtm.policies import MaxAccuracyUnderBudget, SelectionPolicy
from repro.rtm.state import Action, SystemState
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = ["RTMConfig", "RTMDecision", "RuntimeManager"]


@dataclass(frozen=True)
class RTMConfig:
    """Configuration of the runtime manager.

    Attributes
    ----------
    enable_dnn_scaling / enable_dvfs / enable_task_mapping:
        Which knobs the manager is allowed to use (ablation switches).
    max_cores_per_app:
        Upper bound on the cores one DNN application may use.
    temperature_bucket_width_c:
        Width of the leakage-temperature buckets the decision path prices
        candidates at, and so part of every operating-point cache key.
    """

    enable_dnn_scaling: bool = True
    enable_dvfs: bool = True
    enable_task_mapping: bool = True
    max_cores_per_app: int = 4
    temperature_bucket_width_c: float = DEFAULT_TEMPERATURE_BUCKET_C

    def __post_init__(self) -> None:
        if self.max_cores_per_app <= 0:
            raise ValueError("max_cores_per_app must be positive")
        if self.temperature_bucket_width_c <= 0:
            raise ValueError("temperature_bucket_width_c must be positive")


@dataclass
class RTMDecision:
    """Result of one decision epoch."""

    time_ms: float
    actions: List[Action] = field(default_factory=list)
    allocation: Optional[AllocationResult] = None


class RuntimeManager:
    """Application-aware runtime resource manager.

    Parameters
    ----------
    policy:
        Operating-point selection policy applied per application; defaults to
        the paper's implicit policy (maximise accuracy under the budgets).
    energy_model:
        Cost estimator; defaults to the Table-I-calibrated latency model plus
        the platform power model.
    config:
        Knob-enable switches and decision-path parameters.
    policy_overrides:
        Optional per-application policies (app id -> policy) for workloads
        whose applications weight the metric axes differently.
    cache:
        The :class:`OperatingPointCache` every decision goes through; a
        fresh private one when omitted.  A simulator replaces it with one
        over its memo stores (:meth:`set_operating_point_cache`).
    """

    def __init__(
        self,
        policy: Optional[SelectionPolicy] = None,
        energy_model: Optional[EnergyModel] = None,
        config: Optional[RTMConfig] = None,
        policy_overrides: Optional[Dict[str, SelectionPolicy]] = None,
        cache: Optional[OperatingPointCache] = None,
    ) -> None:
        self.policy = policy or MaxAccuracyUnderBudget()
        self.energy_model = energy_model or EnergyModel(CalibratedLatencyModel())
        self.config = config or RTMConfig()
        self.cache = cache or OperatingPointCache()
        self.allocator = MultiAppAllocator(
            policy=self.policy,
            energy_model=self.energy_model,
            allow_task_mapping=self.config.enable_task_mapping,
            allow_dvfs=self.config.enable_dvfs,
            allow_dnn_scaling=self.config.enable_dnn_scaling,
            max_cores_per_app=self.config.max_cores_per_app,
            policy_overrides=policy_overrides,
            cache=self.cache,
            temperature_bucket_width_c=self.config.temperature_bucket_width_c,
        )

    # ----------------------------------------------------------------- cache

    def set_operating_point_cache(self, cache: OperatingPointCache) -> None:
        """Route every later decision through ``cache`` (possibly shared)."""
        self.cache = cache
        self.allocator.cache = cache

    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the operating-point cache."""
        return self.cache.stats

    # -------------------------------------------------------------- decisions

    def decide(self, state: SystemState) -> RTMDecision:
        """Run one decision epoch over a system-state snapshot.

        The returned decision's actions must be applied by the caller (the
        simulator, or a real middleware layer on silicon).  Every input is
        read afresh from ``state``: the allocator counts each cluster's
        online cores at every epoch, so a core lost to a fault is seen at the
        next decision.
        """
        allocation = self.allocator.allocate(state)
        return RTMDecision(
            time_ms=state.time_ms,
            actions=list(allocation.actions),
            allocation=allocation,
        )

    # ------------------------------------------------- table-batched path
    #
    # The simulator (:class:`~repro.sim.engine.Simulator`) memoises decision
    # epochs on its stores, which a batch or a fleet shares across replicas:
    # one decision per *distinct* (manager behaviour, decision inputs) pair,
    # replayed into every replica that asks the same question.  Three entry
    # points support this.  ``decision_memo_key`` names the manager's
    # behaviour by value; ``decision_signature`` names one epoch's complete
    # decision inputs by value; ``decide_recorded`` / ``replay_decision``
    # capture and re-apply a decision's full side effects.  Either key method
    # returning ``None`` means "not keyable by value" and disables sharing
    # for this instance — the simulator then calls :meth:`decide` directly.

    def decision_memo_key(self) -> Optional[tuple]:
        """Value key of this manager's decision behaviour, or ``None``.

        Two managers with equal keys make identical decisions on any state
        with equal :meth:`decision_signature`.  ``None`` (subclasses, or
        custom policies / latency models without a ``cache_key()``) simply
        opts this instance out of cross-replica decision sharing.
        """
        if type(self) is not RuntimeManager:
            return None
        policy_key = self.policy.cache_key()
        if policy_key is None:
            return None
        overrides = []
        for app_id, policy in sorted(self.allocator.policy_overrides.items()):
            override_key = policy.cache_key()
            if override_key is None:
                return None
            overrides.append((app_id, override_key))
        # EnergyModel.cache_key falls back to id() for latency models without
        # their own key; an id() is not a value key, so refuse to memoise.
        if not callable(getattr(self.energy_model.latency_model, "cache_key", None)):
            return None
        return (
            "rtm",
            policy_key,
            tuple(overrides),
            self.energy_model.cache_key(),
            astuple(self.config),
        )

    def decision_signature(self, state: SystemState) -> Optional[tuple]:
        """Value key of every input one decision epoch reads, or ``None``.

        Covers the platform topology, each cluster's dynamic state, every
        application's descriptor and current mapping, the leakage-temperature
        bucket, the power-cap inputs and the home-cluster affinities of the
        applications in the state — the allocator reads a home only for the
        application it is placing, so departed applications' homes are not
        inputs and keying them would grow every key with the run's history.
        ``state.time_ms`` is deliberately excluded: it is copied into the
        decision but never influences the chosen actions.  Unknown
        application types return ``None`` (epoch not keyable).
        """
        soc = state.soc
        apps = []
        for app_id, status in state.apps.items():
            application = status.application
            mapping = status.mapping
            mapping_key = (
                None
                if mapping is None
                else (
                    mapping.cluster_name,
                    mapping.cores,
                    mapping.configuration,
                    mapping.frequency_mhz,
                )
            )
            if isinstance(application, DNNApplication):
                apps.append(
                    (
                        app_id,
                        "dnn",
                        application.priority,
                        application.requirements.cache_key(),
                        application.trained.cache_key(),
                        mapping_key,
                    )
                )
            elif isinstance(application, GenericApplication):
                demand = application.demand
                apps.append(
                    (
                        app_id,
                        "generic",
                        application.priority,
                        (
                            demand.core_type,
                            demand.cores,
                            demand.min_frequency_mhz,
                            demand.utilisation,
                        ),
                        mapping_key,
                    )
                )
            else:
                return None
        clusters = tuple(
            (cluster.name, cluster.frequency_mhz, len(cluster.online_cores))
            for cluster in soc.clusters
        )
        bucket = temperature_bucket_c(
            soc.thermal.temperature_c, self.config.temperature_bucket_width_c
        )
        caps = None
        if state.throttling or state.power_cap_mw is not None:
            caps = (
                state.power_cap_mw,
                state.throttling,
                (
                    soc.thermal.sustainable_power_mw(margin_c=THROTTLE_MARGIN_C)
                    if state.throttling
                    else None
                ),
                soc.idle_power_mw(),
            )
        homes = self.allocator._home_cluster
        home = tuple((app_id, homes[app_id]) for app_id in state.apps if app_id in homes)
        return (
            soc.topology_key(),
            clusters,
            tuple(apps),
            bucket,
            state.throttling,
            caps,
            home,
        )

    def decide_recorded(
        self, state: SystemState
    ) -> Tuple[RTMDecision, Tuple[Tuple[Action, ...], Tuple[Tuple[str, str], ...]]]:
        """Run :meth:`decide` and capture a replayable record of its effects.

        Returns ``(decision, replay)`` where ``replay`` holds the issued
        actions plus the home-cluster affinities this epoch introduced —
        everything :meth:`replay_decision` needs to re-apply the decision to
        an identical state without re-running the allocator.  Only
        applications in the state can gain a home, so only theirs are
        compared.
        """
        homes = self.allocator._home_cluster
        homeless = [app_id for app_id in state.apps if app_id not in homes]
        decision = self.decide(state)
        home_delta = tuple(
            (app_id, homes[app_id]) for app_id in homeless if app_id in homes
        )
        return decision, (tuple(decision.actions), home_delta)

    def replay_decision(
        self,
        state: SystemState,
        actions: Tuple[Action, ...],
        home_updates: Tuple[Tuple[str, str], ...],
    ) -> RTMDecision:
        """Re-apply a decision captured by :meth:`decide_recorded`.

        Valid only for a state whose :meth:`decision_signature` equals the
        recorded epoch's.  Mirrors the one side effect of :meth:`decide`: the
        allocator's home-cluster affinities.  Actions are frozen dataclasses,
        shared safely across replicas.
        """
        for app_id, cluster_name in home_updates:
            self.allocator._home_cluster.setdefault(app_id, cluster_name)
        return RTMDecision(time_ms=state.time_ms, actions=list(actions))

    # --------------------------------------------------- single-app queries

    def select_operating_point(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        requirements: Requirements,
        clusters: Optional[Sequence[str]] = None,
        core_counts: Optional[Sequence[int]] = None,
        power_cap_mw: Optional[float] = None,
    ) -> Optional[OperatingPoint]:
        """Choose the best operating point for one application and a budget.

        This is the Section IV case-study query: given latency / energy /
        power / accuracy budgets, return the (configuration, cluster, cores,
        frequency) combination the policy prefers.
        """
        query = dict(
            trained=trained,
            soc=soc,
            energy_model=self.energy_model,
            max_cores_per_cluster=self.config.max_cores_per_app,
            clusters=clusters,
            configurations=None if self.config.enable_dnn_scaling else [1.0],
            core_counts=core_counts,
            # Without DVFS every cluster stays at its current frequency.
            frequencies=(
                None
                if self.config.enable_dvfs
                else {cluster.name: [cluster.frequency_mhz] for cluster in soc.clusters}
            ),
            temperature_c=temperature_bucket_c(
                soc.thermal.temperature_c, self.config.temperature_bucket_width_c
            ),
        )
        front = self.cache.front_for(self.cache.query_key(**query), **query)
        return self.policy.select_table(front, requirements, power_cap_mw=power_cap_mw)

    def explain(self, point: OperatingPoint, requirements: Requirements) -> Dict[str, object]:
        """A structured explanation of why a point satisfies (or not) a budget."""
        latency_limit = requirements.effective_latency_limit_ms
        return {
            "operating_point": point.describe(),
            "latency_ms": point.latency_ms,
            "latency_limit_ms": latency_limit,
            "latency_ok": latency_limit is None or point.latency_ms <= latency_limit,
            "energy_mj": point.energy_mj,
            "energy_limit_mj": requirements.max_energy_mj,
            "energy_ok": requirements.max_energy_mj is None
            or point.energy_mj <= requirements.max_energy_mj,
            "accuracy_percent": point.accuracy_percent,
            "accuracy_floor_percent": requirements.min_accuracy_percent,
            "accuracy_ok": requirements.min_accuracy_percent is None
            or point.accuracy_percent >= requirements.min_accuracy_percent,
            "power_mw": point.power_mw,
            "power_limit_mw": requirements.max_power_mw,
        }
