"""Typed exception hierarchy for the repro package.

Historically the platform and simulation layers raised bare
``RuntimeError``/``ValueError``.  This module introduces a common root so
callers can catch repro-specific failures without a blanket ``except
Exception``, while every concrete class keeps its legacy base for
backwards compatibility (existing ``except RuntimeError`` call sites keep
working).

Hierarchy::

    ReproError (Exception)
    ├── PlatformError   (also RuntimeError)  — hardware-model violations
    └── SimulationError (also RuntimeError)  — simulator/fault-plan failures
        └── FaultPlanError (also ValueError) — malformed fault plans
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PlatformError",
    "SimulationError",
    "FaultPlanError",
]


class ReproError(Exception):
    """Root of all repro-specific exceptions."""


class PlatformError(ReproError, RuntimeError):
    """A hardware-model invariant was violated (offline core, OPP miss, ...)."""


class SimulationError(ReproError, RuntimeError):
    """The simulator hit an unrecoverable condition."""


class FaultPlanError(SimulationError, ValueError):
    """A fault plan is malformed or references unknown targets."""
