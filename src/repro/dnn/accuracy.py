"""Accuracy and confidence models for dynamic-DNN configurations.

The paper's platform-independent metrics are top-1 accuracy and prediction
confidence (Table I, Fig 4b).  We do not train real networks, so accuracy is
modelled as a calibrated, monotone function of the configuration's capacity
fraction, anchored on the values the paper reports for the four-increment
CIFAR-10 network:

=============  ==============
configuration  top-1 accuracy
=============  ==============
25 %           56.0 %
50 %           62.7 %
75 %           68.8 %
100 %          71.2 %
=============  ==============

Per-class accuracies are derived from the dataset's class difficulties so
that the class-to-class variance grows as the model shrinks, reproducing the
error bars of Fig 4(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.data.cifar import SyntheticCifar10
from repro.data.measurements import (
    FIG4B_ACCURACY_BY_CONFIGURATION,
    FIG4B_ACCURACY_STDDEV_BY_CONFIGURATION,
)

__all__ = ["AccuracyModel", "PerClassAccuracy"]


@dataclass(frozen=True)
class PerClassAccuracy:
    """Per-class evaluation result of one configuration.

    Attributes
    ----------
    fraction:
        Configuration capacity fraction.
    mean_top1:
        Mean top-1 accuracy across all images, in percent.
    by_class:
        Top-1 accuracy per class name, in percent.
    stddev:
        Standard deviation across classes, in accuracy percentage points
        (this is what the Fig 4(b) error bars show).
    """

    fraction: float
    mean_top1: float
    by_class: Mapping[str, float]
    stddev: float


class AccuracyModel:
    """Calibrated capacity-fraction to accuracy mapping.

    Parameters
    ----------
    anchors:
        Mapping of capacity fraction to top-1 accuracy (percent).  Defaults to
        the paper's Fig 4(b) values.  An implicit anchor at fraction 0 with
        chance-level accuracy is always added.
    chance_level:
        Accuracy of an untrained predictor (10 % for CIFAR-10).
    anchor_stddev:
        Mapping of capacity fraction to the across-class standard deviation.
    """

    def __init__(
        self,
        anchors: Optional[Mapping[float, float]] = None,
        chance_level: float = 10.0,
        anchor_stddev: Optional[Mapping[float, float]] = None,
    ) -> None:
        source = dict(anchors) if anchors is not None else dict(FIG4B_ACCURACY_BY_CONFIGURATION)
        if not source:
            raise ValueError("at least one accuracy anchor is required")
        for fraction, accuracy in source.items():
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"anchor fraction {fraction} outside (0, 1]")
            if not 0.0 <= accuracy <= 100.0:
                raise ValueError(f"anchor accuracy {accuracy} outside [0, 100]")
        self.chance_level = float(chance_level)
        points = dict(source)
        points[0.0] = self.chance_level
        fractions = sorted(points)
        accuracies = [points[f] for f in fractions]
        for earlier, later in zip(accuracies, accuracies[1:]):
            if later < earlier:
                raise ValueError("accuracy anchors must be non-decreasing in capacity")
        self._fractions = np.asarray(fractions, dtype=float)
        self._accuracies = np.asarray(accuracies, dtype=float)
        stddev_source = (
            dict(anchor_stddev)
            if anchor_stddev is not None
            else dict(FIG4B_ACCURACY_STDDEV_BY_CONFIGURATION)
        )
        stddev_source.setdefault(0.0, max(stddev_source.values(), default=5.0))
        stddev_fracs = sorted(stddev_source)
        self._stddev_fractions = np.asarray(stddev_fracs, dtype=float)
        self._stddevs = np.asarray([stddev_source[f] for f in stddev_fracs], dtype=float)

    # ----------------------------------------------------------------- top-1

    def top1(self, fraction: float) -> float:
        """Top-1 accuracy (percent) of a configuration with this capacity fraction."""
        if not 0.0 <= fraction <= 1.0 + 1e-9:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return float(np.interp(min(fraction, 1.0), self._fractions, self._accuracies))

    def class_stddev(self, fraction: float) -> float:
        """Across-class accuracy standard deviation at this capacity fraction."""
        if not 0.0 <= fraction <= 1.0 + 1e-9:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return float(
            np.interp(min(fraction, 1.0), self._stddev_fractions, self._stddevs)
        )

    # ------------------------------------------------------------ confidence

    def confidence(self, fraction: float) -> float:
        """Mean softmax confidence of the top-1 prediction, in percent.

        Well-calibrated small models are slightly over-confident relative to
        their accuracy; we model confidence as accuracy plus a small,
        capacity-dependent over-confidence term.
        """
        accuracy = self.top1(fraction)
        overconfidence = 6.0 * (1.0 - fraction) + 2.0
        return float(min(99.0, accuracy + overconfidence))

    # ------------------------------------------------------------- per class

    def per_class(
        self, fraction: float, dataset: SyntheticCifar10
    ) -> PerClassAccuracy:
        """Per-class accuracies for a configuration evaluated on ``dataset``.

        Class accuracies are centred on :meth:`top1` and spread according to
        each class's difficulty; the spread matches :meth:`class_stddev`.
        The result is deterministic for a given dataset seed.
        """
        mean_accuracy = self.top1(fraction)
        target_stddev = self.class_stddev(fraction)
        difficulties = np.asarray(dataset.class_difficulties(), dtype=float)
        # Normalise difficulties to zero mean, unit standard deviation, then
        # scale so the class spread equals the target standard deviation.
        centred = difficulties - difficulties.mean()
        spread = centred.std()
        if spread <= 1e-12:
            offsets = np.zeros_like(centred)
        else:
            offsets = -centred / spread * target_stddev
        raw = np.clip(mean_accuracy + offsets, 0.0, 100.0)
        by_class = {
            name: float(value) for name, value in zip(dataset.class_names, raw)
        }
        return PerClassAccuracy(
            fraction=fraction,
            mean_top1=float(raw.mean()),
            by_class=by_class,
            stddev=float(raw.std()),
        )

    def evaluate_predictions(
        self, fraction: float, dataset: SyntheticCifar10, seed: int = 0
    ) -> np.ndarray:
        """Simulate per-image correctness on the validation set.

        Returns a boolean array of shape ``(dataset.num_images,)`` whose
        per-class means match :meth:`per_class` up to quantisation to whole
        images.  Used by the Fig 4(b) benchmark to compute accuracy the same
        way the paper does (over 10,000 images).
        """
        per_class = self.per_class(fraction, dataset)
        rng = np.random.default_rng(seed)
        correct = np.zeros(dataset.num_images, dtype=bool)
        for index, name in enumerate(dataset.class_names):
            start = index * dataset.images_per_class
            n_correct = int(round(per_class.by_class[name] / 100.0 * dataset.images_per_class))
            positions = rng.permutation(dataset.images_per_class)[:n_correct]
            correct[start + positions] = True
        return correct
