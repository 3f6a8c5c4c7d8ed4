"""The unified runtime-manager registry.

Managers selectable by name from experiment specs, fleet specs and the CLI.
Each entry carries metadata the spec layer needs:

* ``configurable`` — whether the factory is :class:`RuntimeManager`-based and
  therefore accepts a selection policy, per-application policy overrides and
  :class:`~repro.rtm.manager.RTMConfig` overrides from a spec.  The baselines
  are deliberately not configurable: their whole point is a fixed strategy.
* ``default_policy`` — the policy registry name the manager uses when the
  spec does not override it (``None`` means the manager's own default).
"""

from __future__ import annotations

from repro.baselines import GovernorOnlyManager, StaticDeploymentManager
from repro.registry import Registry
from repro.rtm import MinEnergyUnderConstraints, RuntimeManager
from repro.sim.engine import ManagerProtocol

__all__ = ["MANAGER_REGISTRY", "make_manager"]


def _rtm() -> RuntimeManager:
    """The application-aware runtime manager proposed by the paper."""
    return RuntimeManager()


def _rtm_min_energy() -> RuntimeManager:
    """Runtime manager whose default policy minimises energy under constraints."""
    return RuntimeManager(policy=MinEnergyUnderConstraints())


#: Manager factories selectable by name from specs and the CLI.
MANAGER_REGISTRY: Registry[ManagerProtocol] = Registry("manager")
MANAGER_REGISTRY.register(
    "rtm",
    _rtm,
    configurable=True,
    default_policy=None,
    summary="Application-aware RTM (max-accuracy-under-budget policy).",
)
MANAGER_REGISTRY.register(
    "rtm_min_energy",
    _rtm_min_energy,
    configurable=True,
    default_policy="min_energy",
    summary="Application-aware RTM with the min-energy-under-constraints policy.",
)
MANAGER_REGISTRY.register(
    "governor_only",
    GovernorOnlyManager,
    configurable=False,
    summary="Hardware-governor baseline: DVFS only, no application awareness.",
)
MANAGER_REGISTRY.register(
    "static_deployment",
    StaticDeploymentManager,
    configurable=False,
    summary="Design-time static deployment baseline: no runtime adaptation.",
)


def make_manager(name: str) -> ManagerProtocol:
    """Instantiate a registered manager by name.

    Raises ``KeyError`` (listing the available names) for unknown managers.
    """
    return MANAGER_REGISTRY.get(name)()
