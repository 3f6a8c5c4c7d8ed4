"""Governor-only baseline: hardware knobs without application awareness.

This baseline models what stock system software does today (Section V of the
paper): the OS scheduler places a newly arrived DNN on the fastest cluster
that has free cores, a cpufreq governor adjusts cluster frequencies from
utilisation, and that is all — the application's dynamic-DNN knob is never
touched, accuracy requirements are invisible, and nothing remaps a DNN when
its cluster is taken away or the SoC throttles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.rtm.governors import Governor, OndemandGovernor
from repro.rtm.state import Action, MapApplication, SetConfiguration, SystemState
from repro.workloads.tasks import DNNApplication

__all__ = ["GovernorOnlyManager"]


@dataclass
class _GovernorDecision:
    actions: List[Action] = field(default_factory=list)


class GovernorOnlyManager:
    """OS-like baseline: one-shot placement plus a DVFS governor.

    Parameters
    ----------
    governor:
        The DVFS governor to run; defaults to ondemand.
    fixed_configuration:
        The dynamic-DNN fraction every application is pinned to (1.0: the
        full model, since a hardware-only stack has no notion of scaling the
        application).
    """

    def __init__(
        self,
        governor: Optional[Governor] = None,
        fixed_configuration: float = 1.0,
    ) -> None:
        if not 0.0 < fixed_configuration <= 1.0:
            raise ValueError("fixed_configuration must be in (0, 1]")
        self.governor = governor or OndemandGovernor()
        self.fixed_configuration = fixed_configuration
        self._placed: Dict[str, str] = {}

    def _estimate_utilisations(self, state: SystemState) -> Dict[str, float]:
        """Per-cluster utilisation, as a cpufreq governor would observe it.

        The simulator provides time-averaged utilisations (the equivalent of
        the kernel's idle-time accounting); when they are absent (for example
        when the manager is queried outside a simulation) the reservation
        count is used as a fallback.
        """
        if state.cluster_utilisations:
            return dict(state.cluster_utilisations)
        utilisations: Dict[str, float] = {}
        for cluster in state.soc.clusters:
            online = len(cluster.online_cores)
            if online == 0:
                utilisations[cluster.name] = 0.0
                continue
            busy = sum(1 for core in cluster.online_cores if core.reserved_by is not None)
            utilisations[cluster.name] = busy / online
        return utilisations

    def _place(self, state: SystemState, application: DNNApplication) -> List[Action]:
        """Place a DNN on the fastest cluster that still has a free core."""
        candidates = [c for c in state.soc.clusters if c.free_cores]
        if not candidates:
            return []
        fastest = max(candidates, key=lambda c: c.peak_macs_per_second(1))
        self._placed[application.app_id] = fastest.name
        return [
            MapApplication(app_id=application.app_id, cluster_name=fastest.name, cores=1),
            SetConfiguration(
                app_id=application.app_id, configuration=self.fixed_configuration
            ),
        ]

    def decide(self, state: SystemState) -> _GovernorDecision:
        """Place unmapped applications, then let the governor set frequencies.

        Like an OS scheduler, the manager reschedules a DNN that lost its
        cores onto whatever cluster has room — but it never changes the DNN's
        configuration and never reasons about its requirements.
        """
        decision = _GovernorDecision()
        for app_state in state.dnn_apps:
            application = app_state.application
            assert isinstance(application, DNNApplication)
            if app_state.mapping is None:
                decision.actions.extend(self._place(state, application))
        decision.actions.extend(self.governor.decide(state, self._estimate_utilisations(state)))
        return decision
