"""Operating-point selection policies.

Given the enumerated operating points of an application and its requirements,
a policy picks the point the RTM should run the application at.  The paper's
case study (Section IV) frames this as: meet the latency and energy budgets,
then use whatever headroom remains for the platform-independent metrics —
accuracy first.  Several policies are provided because the ablation benchmark
compares them, and because different applications weight the axes differently.

All policies degrade gracefully: when no operating point satisfies every
requirement, they return the least-bad point (smallest total normalised
violation) rather than failing, which is what a real runtime must do.

Policies rank a whole :class:`OperatingPointTable` in a few numpy
operations (:meth:`SelectionPolicy.select_table`); a policy supplies only its
objective column (:meth:`SelectionPolicy.objective_values`).  The scoring
replays the per-point comparison tolerances, float arithmetic order and
first-minimum tie-breaking exactly: ``tests/reference_kernels.py`` holds that
per-point selection, and ``tests/test_columnar_kernel.py`` checks the two
agree on hypothesis-generated tables.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.registry import Registry
from repro.rtm.operating_points import OperatingPoint, OperatingPointTable
from repro.workloads.requirements import Requirements

__all__ = [
    "SelectionPolicy",
    "MaxAccuracyUnderBudget",
    "MinEnergyUnderConstraints",
    "MinLatencyUnderPowerCap",
    "MaxConfidenceUnderBudget",
    "POLICY_REGISTRY",
    "make_policy",
]


def _first_lexicographic_min(keys: Sequence[np.ndarray], mask: np.ndarray) -> int:
    """Index of the first row (in input order) minimising ``keys`` under ``mask``.

    Mirrors ``min(rows, key=lambda r: (k0[r], k1[r], ...))`` with exact float
    comparisons: filter to the exact minimum of each key in turn, then take
    the earliest surviving row.
    """
    candidates = mask
    for key in keys:
        values = key[candidates]
        candidates = candidates & (key == values.min())
    return int(np.flatnonzero(candidates)[0])


class SelectionPolicy(abc.ABC):
    """Base class of operating-point selection policies."""

    #: Registry name of the policy.
    name: str = "base"
    #: Metric column the policy maximises first among feasible points, or
    #: ``None`` to rank them by :meth:`objective_values` alone.
    maximise_column: Optional[str] = None

    def cache_key(self) -> Optional[tuple]:
        """Value key identifying this policy's selection behaviour.

        Two policies with equal keys must make identical choices on every
        input; the batched engine uses the key to share memoised decisions
        across replicas.  The built-in policies are stateless, so their
        registry name is the key.  Custom subclasses return ``None`` (not
        memoisable) unless they override this with a key covering all of
        their selection-relevant state.
        """
        if any(type(self) is factory for factory in POLICY_REGISTRY.values()):
            return ("policy", self.name)
        return None

    @abc.abstractmethod
    def objective_values(self, table: OperatingPointTable) -> np.ndarray:
        """Score of every row of a table as a *feasible* point; lower is better."""

    def select_table(
        self,
        table: OperatingPointTable,
        requirements: Requirements,
        power_cap_mw: Optional[float] = None,
    ) -> Optional[OperatingPoint]:
        """Select the best operating point of a candidate table.

        Returns ``None`` only when the table is empty.  Points over the power
        cap are excluded.  Among the points meeting every requirement, a
        policy with a :attr:`maximise_column` keeps those within 1e-9 of that
        column's best and takes the least energy, then the least latency;
        any other policy takes the least :meth:`objective_values`.  When no
        point is feasible, the point with the smallest total violation is
        returned (ties broken by :meth:`objective_values`); points over the
        cap stay excluded if any point fits under it (thermal safety wins).
        Every remaining tie goes to the earliest row.
        """
        if len(table) == 0:
            return None
        scores = requirements.violation_scores(
            latency_ms=table.latency_ms,
            energy_mj=table.energy_mj,
            power_mw=table.power_mw,
            accuracy_percent=table.accuracy_percent,
            fps=table.fps,
        )
        under_cap = (
            np.ones(len(table), dtype=bool)
            if power_cap_mw is None
            else ~(table.power_mw > power_cap_mw)
        )
        feasible = under_cap & (scores == 0.0)
        if feasible.any():
            if self.maximise_column is None:
                row = _first_lexicographic_min([self.objective_values(table)], feasible)
            else:
                column = table.column(self.maximise_column)
                top = feasible & (column >= column[feasible].max() - 1e-9)
                row = _first_lexicographic_min([table.energy_mj, table.latency_ms], top)
            return table.point(row)
        if not under_cap.any():
            under_cap = np.ones(len(table), dtype=bool)
        row = _first_lexicographic_min([scores, self.objective_values(table)], under_cap)
        return table.point(row)


class MaxAccuracyUnderBudget(SelectionPolicy):
    """Meet every budget, then maximise accuracy (ties: minimise energy).

    This is the policy the paper's case study implies: "a 100 % model on the
    A7 CPU at 900 MHz could offer the highest accuracy and lowest energy
    consumption" for a 400 ms / 100 mJ budget.
    """

    name = "max_accuracy"
    maximise_column = "accuracy_percent"

    def objective_values(self, table: OperatingPointTable) -> np.ndarray:
        # Accuracy dominates; energy breaks ties among equally accurate points.
        return -table.accuracy_percent * 1e6 + table.energy_mj


class MinEnergyUnderConstraints(SelectionPolicy):
    """Meet every requirement (including accuracy floor), then minimise energy."""

    name = "min_energy"

    def objective_values(self, table: OperatingPointTable) -> np.ndarray:
        return table.energy_mj


class MinLatencyUnderPowerCap(SelectionPolicy):
    """Meet every requirement, then minimise latency (responsiveness first)."""

    name = "min_latency"

    def objective_values(self, table: OperatingPointTable) -> np.ndarray:
        return table.latency_ms


class MaxConfidenceUnderBudget(SelectionPolicy):
    """Meet every budget, then maximise prediction confidence.

    Confidence is the second platform-independent metric the paper lists; a
    confidence-driven policy is useful when a downstream component gates on
    prediction certainty rather than raw accuracy.
    """

    name = "max_confidence"
    maximise_column = "confidence_percent"

    def objective_values(self, table: OperatingPointTable) -> np.ndarray:
        return -table.confidence_percent


#: Mapping of policy name to class, used by experiment specs, benchmarks and
#: the CLI examples.
POLICY_REGISTRY: Registry[SelectionPolicy] = Registry("policy")
for _policy_class in (
    MaxAccuracyUnderBudget,
    MinEnergyUnderConstraints,
    MinLatencyUnderPowerCap,
    MaxConfidenceUnderBudget,
):
    POLICY_REGISTRY.register(_policy_class.name, _policy_class)
del _policy_class


def make_policy(name: str) -> SelectionPolicy:
    """Instantiate a policy by registry name.

    Raises ``ValueError`` (listing the available names) for unknown policies.
    """
    if name not in POLICY_REGISTRY:
        raise ValueError(POLICY_REGISTRY.describe_unknown(name))
    return POLICY_REGISTRY[name]()
