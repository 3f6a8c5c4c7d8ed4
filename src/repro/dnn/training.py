"""Simulated incremental training (Fig 3b of the paper).

The paper's dynamic DNN is produced by *incremental training*: the channel
groups of every layer are trained one at a time, each new group learning in
the presence of the already-trained (and frozen) earlier groups.  After step
``k`` the first ``k`` groups together form a usable configuration.

We cannot train real networks offline, so this module simulates the
procedure: it walks the training steps, produces a synthetic (but plausible
and deterministic) loss curve per step, and assigns each resulting
configuration its accuracy from the calibrated
:class:`~repro.dnn.accuracy.AccuracyModel`.  The output,
:class:`TrainedDynamicDNN`, is the object the runtime layer consumes: a
dynamic DNN plus per-configuration accuracy, confidence and per-class
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.cifar import SyntheticCifar10, make_validation_set
from repro.dnn.accuracy import AccuracyModel, PerClassAccuracy
from repro.dnn.dynamic import DynamicDNN

__all__ = ["TrainingStep", "TrainingHistory", "TrainedDynamicDNN", "IncrementalTrainer"]


@dataclass(frozen=True)
class TrainingStep:
    """Record of one incremental-training step (one group).

    Attributes
    ----------
    step_index:
        1-based index of the step (equals the group being trained).
    trained_groups:
        Groups trained and usable after this step.
    frozen_groups:
        Groups that were frozen (already trained) during this step.
    epochs:
        Number of epochs simulated.
    loss_curve:
        Synthetic training loss per epoch (decreasing).
    resulting_fraction:
        Capacity fraction of the configuration available after this step.
    resulting_top1:
        Top-1 accuracy of that configuration.
    """

    step_index: int
    trained_groups: int
    frozen_groups: int
    epochs: int
    loss_curve: List[float]
    resulting_fraction: float
    resulting_top1: float


@dataclass
class TrainingHistory:
    """All steps of one incremental-training run."""

    steps: List[TrainingStep] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def final_accuracies(self) -> Dict[float, float]:
        """Mapping of configuration fraction to its accuracy after training."""
        return {step.resulting_fraction: step.resulting_top1 for step in self.steps}

    def total_epochs(self) -> int:
        """Total epochs across all steps."""
        return sum(step.epochs for step in self.steps)


@dataclass
class TrainedDynamicDNN:
    """A dynamic DNN together with its (simulated) trained accuracy profile.

    This is the hand-off object between design time and runtime: the RTM's
    application interface reads accuracy and confidence per configuration from
    here when constructing the operating-point space.
    """

    dynamic_dnn: DynamicDNN
    accuracy_model: AccuracyModel
    history: TrainingHistory
    dataset: SyntheticCifar10
    _cache_key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def configurations(self) -> List[float]:
        """Available configuration fractions."""
        return self.dynamic_dnn.configurations

    def top1(self, fraction: float) -> float:
        """Top-1 accuracy (percent) of the configuration nearest ``fraction``."""
        nearest = self.dynamic_dnn.configuration(fraction).fraction
        return self.accuracy_model.top1(nearest)

    def confidence(self, fraction: float) -> float:
        """Mean prediction confidence (percent) of the nearest configuration."""
        nearest = self.dynamic_dnn.configuration(fraction).fraction
        return self.accuracy_model.confidence(nearest)

    def per_class(self, fraction: float) -> PerClassAccuracy:
        """Per-class accuracies of the nearest configuration."""
        nearest = self.dynamic_dnn.configuration(fraction).fraction
        return self.accuracy_model.per_class(nearest, self.dataset)

    def cache_key(self) -> tuple:
        """Stable identity of this trained model for operating-point caches.

        Covers everything the operating-point machinery reads from the
        trained model: the network identity and structure (per-configuration
        MAC counts, which drive the latency predictions), the configuration
        ladder and the per-configuration accuracy/confidence profile.  Two
        deterministic training runs of the same network produce equal keys
        and therefore share cache entries.  Computed once and kept: nothing
        changes a trained model or its dynamic DNN after training (a
        simulator keeps the active width itself), so the key is the only
        attribute ever assigned later.
        """
        if self._cache_key is None:
            fractions = tuple(self.configurations)
            self._cache_key = (
                "trained_dnn",
                self.dynamic_dnn.name,
                self.dynamic_dnn.num_increments,
                fractions,
                tuple(self.dynamic_dnn.model_for(f).total_macs() for f in fractions),
                tuple(self.top1(fraction) for fraction in fractions),
                tuple(self.confidence(fraction) for fraction in fractions),
            )
        return self._cache_key

    def accuracy_table(self) -> Dict[int, float]:
        """Mapping of configuration percent (25, 50, ...) to top-1 accuracy."""
        return {
            round(fraction * 100): self.top1(fraction)
            for fraction in self.configurations
        }


class IncrementalTrainer:
    """Simulate the group-wise incremental training procedure of Fig 3(b).

    Parameters
    ----------
    accuracy_model:
        Calibrated accuracy model used to assign the accuracy each
        configuration reaches.  Defaults to the paper's Fig 4(b) calibration.
    epochs_per_step:
        Epochs simulated for each group.
    dataset:
        Validation dataset used for per-class evaluation.
    seed:
        Seed for the synthetic loss curves.
    """

    def __init__(
        self,
        accuracy_model: Optional[AccuracyModel] = None,
        epochs_per_step: int = 60,
        dataset: Optional[SyntheticCifar10] = None,
        seed: int = 7,
    ) -> None:
        if epochs_per_step <= 0:
            raise ValueError("epochs_per_step must be positive")
        self.accuracy_model = accuracy_model or AccuracyModel()
        self.epochs_per_step = epochs_per_step
        self.dataset = dataset or make_validation_set()
        self.seed = seed

    def _loss_curve(self, step_index: int, start_loss: float, final_loss: float) -> List[float]:
        """A plausible exponentially decaying loss curve for one step."""
        rng = np.random.default_rng(self.seed + step_index)
        epochs = np.arange(self.epochs_per_step, dtype=float)
        decay = np.exp(-epochs / (self.epochs_per_step / 4.0))
        curve = final_loss + (start_loss - final_loss) * decay
        noise = rng.normal(0.0, 0.01 * start_loss, size=self.epochs_per_step)
        noisy = np.maximum(curve + noise, final_loss * 0.9)
        # Enforce a monotone non-increasing envelope so the curve looks like a
        # converging training run regardless of the noise draw.
        return list(np.minimum.accumulate(noisy))

    def train(self, dynamic_dnn: DynamicDNN) -> TrainedDynamicDNN:
        """Run the simulated incremental training and return the trained model.

        Step ``k`` trains group ``k`` with groups ``1..k-1`` frozen and groups
        ``k+1..G`` ignored, exactly following the schedule in Fig 3(b).
        """
        history = TrainingHistory()
        num_groups = dynamic_dnn.num_increments
        for step_index in range(1, num_groups + 1):
            fraction = step_index / num_groups
            top1 = self.accuracy_model.top1(fraction)
            # Cross-entropy of a classifier with this accuracy is roughly
            # -log(p_correct); use it to anchor the synthetic loss curve.
            final_loss = float(-np.log(max(top1 / 100.0, 1e-3)))
            start_loss = float(-np.log(1.0 / max(self.dataset.num_classes, 2)))
            history.steps.append(
                TrainingStep(
                    step_index=step_index,
                    trained_groups=step_index,
                    frozen_groups=step_index - 1,
                    epochs=self.epochs_per_step,
                    loss_curve=self._loss_curve(step_index, start_loss, final_loss),
                    resulting_fraction=fraction,
                    resulting_top1=top1,
                )
            )
        return TrainedDynamicDNN(
            dynamic_dnn=dynamic_dnn,
            accuracy_model=self.accuracy_model,
            history=history,
            dataset=self.dataset,
        )
