"""Static-pruning deployment baseline (Section III-B of the paper).

The design-time approach the paper argues against works like this: for each
target platform (and each assumed hardware setting — core and frequency), a
statically filter-pruned model is produced that just meets the latency budget
(Yang et al. [5]).  At runtime nothing adapts: the deployed model is fixed, so
when the assumed hardware setting is unavailable (cores taken by other
applications, lower frequency, thermal caps), the budgets are missed.  Being
robust would require deploying one model per hardware setting, which costs
memory and model-switching time (Park et al. [20]).

Two things live here:

* :func:`design_time_deployment` / :class:`StaticDeploymentPlan` — the design
  time flow of Fig 1: pick a static width per platform so that an application
  requirement is met, and report the storage cost of covering several
  hardware settings.
* :class:`StaticDeploymentManager` — a simulator-compatible manager that
  deploys each DNN at its design-time width on its design-time cluster and
  never adapts, used as the runtime baseline in the Fig 2 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnn.accuracy import AccuracyModel
from repro.dnn.model import NetworkModel
from repro.dnn.pruning import filter_prune
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.platforms.soc import Soc
from repro.rtm.state import (
    Action,
    MapApplication,
    SetConfiguration,
    SetFrequency,
    SystemState,
)
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import DNNApplication

__all__ = [
    "StaticVariant",
    "StaticDeploymentPlan",
    "design_time_deployment",
    "StaticDeploymentManager",
]


@dataclass(frozen=True)
class StaticVariant:
    """One statically pruned model variant produced at design time.

    Attributes
    ----------
    platform:
        Platform (SoC preset name) the variant targets.
    cluster_name / frequency_mhz / cores:
        The hardware setting assumed when the variant was sized.
    keep_fraction:
        Width fraction kept by filter pruning.
    model:
        The pruned structural model.
    predicted_latency_ms / predicted_energy_mj:
        Predicted cost at the assumed hardware setting.
    accuracy_percent:
        Accuracy of the pruned model (from the calibrated accuracy model).
    """

    platform: str
    cluster_name: str
    frequency_mhz: float
    cores: int
    keep_fraction: float
    model: NetworkModel
    predicted_latency_ms: float
    predicted_energy_mj: float
    accuracy_percent: float

    @property
    def storage_mb(self) -> float:
        """Parameter storage of this variant."""
        return self.model.model_size_mb()


@dataclass
class StaticDeploymentPlan:
    """The set of static variants produced for one application."""

    variants: List[StaticVariant] = field(default_factory=list)

    @property
    def total_storage_mb(self) -> float:
        """DRAM needed to store every variant simultaneously.

        This is the "significant memory storage overhead" the paper
        attributes to covering all hardware settings with static models; the
        dynamic DNN stores only its largest configuration.
        """
        return sum(variant.storage_mb for variant in self.variants)

    def variant_for(self, platform: str, cluster_name: str) -> StaticVariant:
        """The variant targeting one (platform, cluster) pair."""
        for variant in self.variants:
            if variant.platform == platform and variant.cluster_name == cluster_name:
                return variant
        raise KeyError(f"no static variant for {platform}/{cluster_name}")


def design_time_deployment(
    base_model: NetworkModel,
    soc: Soc,
    requirements: Requirements,
    clusters: Optional[List[str]] = None,
    cores: int = 1,
    accuracy_model: Optional[AccuracyModel] = None,
    energy_model: Optional[EnergyModel] = None,
    width_granularity: int = 16,
) -> StaticDeploymentPlan:
    """Size a static model per cluster of a platform (the Fig 1 design-time flow).

    For every candidate cluster the widest filter-pruned variant that meets the
    latency requirement at the cluster's *maximum* frequency is selected —
    exactly the assumption that breaks at runtime when that frequency or those
    cores are unavailable.

    Parameters
    ----------
    base_model:
        The full network to prune.
    soc:
        Target platform.
    requirements:
        Application requirements; the effective latency limit drives sizing.
    clusters:
        Candidate clusters; defaults to every cluster of the platform.
    cores:
        Cores assumed per inference.
    accuracy_model / energy_model:
        Calibrated models; defaults are the paper-calibrated ones.
    width_granularity:
        Number of candidate widths examined per cluster.
    """
    accuracy_model = accuracy_model or AccuracyModel()
    energy_model = energy_model or EnergyModel(CalibratedLatencyModel())
    latency_limit = requirements.effective_latency_limit_ms
    plan = StaticDeploymentPlan()
    cluster_names = clusters if clusters is not None else soc.cluster_names
    for cluster_name in cluster_names:
        cluster = soc.cluster(cluster_name)
        frequency = cluster.opp_table.max_frequency_mhz
        chosen_fraction = 1.0 / width_granularity
        chosen_model = filter_prune(base_model, chosen_fraction, granularity=width_granularity)
        for step in range(width_granularity, 0, -1):
            fraction = step / width_granularity
            candidate = filter_prune(base_model, fraction, granularity=width_granularity)
            latency = energy_model.latency_model.latency_ms(
                candidate, cluster, frequency_mhz=frequency, cores_used=cores, soc_name=soc.name
            )
            if latency_limit is None or latency <= latency_limit:
                chosen_fraction = fraction
                chosen_model = candidate
                break
        cost = energy_model.cost(
            chosen_model, cluster, frequency_mhz=frequency, cores_used=cores, soc_name=soc.name
        )
        plan.variants.append(
            StaticVariant(
                platform=soc.name,
                cluster_name=cluster_name,
                frequency_mhz=frequency,
                cores=cores,
                keep_fraction=chosen_fraction,
                model=chosen_model,
                predicted_latency_ms=cost.latency_ms,
                predicted_energy_mj=cost.energy_mj,
                accuracy_percent=accuracy_model.top1(chosen_fraction),
            )
        )
    return plan


@dataclass
class _StaticChoice:
    cluster_name: str
    cores: int
    configuration: float
    frequency_mhz: float


@dataclass
class _StaticDecision:
    actions: List[Action] = field(default_factory=list)


class StaticDeploymentManager:
    """Runtime baseline: deploy at a design-time operating point and never adapt.

    At an application's first appearance the manager picks, once, the
    operating point a designer would have chosen assuming the application runs
    alone: the fastest cluster that meets the latency requirement at its
    maximum frequency, with the dynamic-DNN configuration fixed to the design
    width.  Afterwards it issues no further actions: no rescaling, no
    remapping, no DVFS response to contention or thermal throttling.

    Parameters
    ----------
    energy_model:
        Cost model used for the one-off design-time choice.
    design_cores:
        Cores assumed per application at design time.
    """

    def __init__(
        self,
        energy_model: Optional[EnergyModel] = None,
        design_cores: int = 1,
    ) -> None:
        self.energy_model = energy_model or EnergyModel(CalibratedLatencyModel())
        self.design_cores = design_cores
        self._choices: Dict[str, _StaticChoice] = {}

    def _design_choice(self, application: DNNApplication, state: SystemState) -> _StaticChoice:
        requirements = application.requirements
        latency_limit = requirements.effective_latency_limit_ms
        accuracy_floor = requirements.min_accuracy_percent
        best: Optional[_StaticChoice] = None
        best_key = None
        for cluster in state.soc.clusters:
            frequency = cluster.opp_table.max_frequency_mhz
            for fraction in sorted(application.configurations, reverse=True):
                if accuracy_floor is not None and application.accuracy_of(fraction) < accuracy_floor:
                    continue
                network = application.dynamic_dnn.model_for(fraction)
                cost = self.energy_model.cost(
                    network,
                    cluster,
                    frequency_mhz=frequency,
                    cores_used=self.design_cores,
                    soc_name=state.soc.name,
                )
                if latency_limit is not None and cost.latency_ms > latency_limit:
                    continue
                key = (-fraction, cost.energy_mj)
                if best is None or key < best_key:
                    best = _StaticChoice(
                        cluster_name=cluster.name,
                        cores=self.design_cores,
                        configuration=fraction,
                        frequency_mhz=frequency,
                    )
                    best_key = key
                break  # widest feasible configuration found for this cluster
        if best is None:
            # Nothing meets the budget even in isolation: ship the smallest
            # model on the fastest cluster, as a real deployment would.
            fastest = max(
                state.soc.clusters, key=lambda c: c.peak_macs_per_second(self.design_cores)
            )
            best = _StaticChoice(
                cluster_name=fastest.name,
                cores=self.design_cores,
                configuration=min(application.configurations),
                frequency_mhz=fastest.opp_table.max_frequency_mhz,
            )
        return best

    def decide(self, state: SystemState) -> _StaticDecision:
        """(Re)place applications at their fixed design-time configuration.

        The design-time choice is made once per application.  When an
        application loses its cores (another application claimed them), the
        OS reschedules it onto the designed cluster if possible, otherwise
        onto any cluster with a free core — but always with the same static
        model and the same assumed frequency, which is exactly why this
        baseline misses its budgets under contention.
        """
        decision = _StaticDecision()
        for app_state in state.dnn_apps:
            application = app_state.application
            assert isinstance(application, DNNApplication)
            if app_state.app_id not in self._choices:
                self._choices[app_state.app_id] = self._design_choice(application, state)
            choice = self._choices[app_state.app_id]
            if app_state.mapping is None:
                target_cluster = choice.cluster_name
                if not state.soc.cluster(target_cluster).free_cores:
                    fallbacks = [c for c in state.soc.clusters if c.free_cores]
                    if fallbacks:
                        target_cluster = max(
                            fallbacks, key=lambda c: c.peak_macs_per_second(1)
                        ).name
                decision.actions.append(
                    MapApplication(
                        app_id=app_state.app_id,
                        cluster_name=target_cluster,
                        cores=choice.cores,
                    )
                )
                decision.actions.append(
                    SetConfiguration(
                        app_id=app_state.app_id, configuration=choice.configuration
                    )
                )
                decision.actions.append(
                    SetFrequency(
                        cluster_name=choice.cluster_name, frequency_mhz=choice.frequency_mhz
                    )
                )
        return decision
