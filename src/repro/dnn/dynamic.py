"""Dynamic DNN: a single model exposing multiple width configurations.

This implements the application knob at the heart of the paper (Section III-C
and Fig 3): a network whose convolution channels are divided into ``G`` groups
trained incrementally, so that at runtime the later groups can be pruned (for
a latency / energy reduction) or re-enabled (for an accuracy recovery) without
retraining and without storing multiple models.

With a four-increment design the selectable configurations are the 25 %, 50 %,
75 % and 100 % models of Fig 4.  The key property versus static pruning
(Section III-B) is that all configurations share one set of weights: the
memory footprint is that of the largest configuration, and switching is a
pointer update rather than a model reload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dnn.layers import (
    BatchNorm2D,
    Conv2D,
    DepthwiseConv2D,
    FullyConnected,
    Layer,
)
from repro.dnn.model import NetworkModel

__all__ = ["scale_network_width", "DynamicDNN", "ConfigurationInfo"]


def _scaled_channels(channels: int, numerator: int, denominator: int) -> int:
    """Scale a channel count by ``numerator/denominator``, at least 1."""
    return max(1, (channels * numerator) // denominator)


def scale_network_width(
    model: NetworkModel,
    fraction: float,
    granularity: int = 4,
    name: Optional[str] = None,
) -> NetworkModel:
    """Build the sub-network that keeps a ``fraction`` of every layer's width.

    The fraction is quantised to multiples of ``1/granularity`` (the number of
    increments of the dynamic DNN), because groups are pruned whole.  Channel
    counts of convolutions, batch-norm layers and hidden fully connected
    layers scale with the fraction; the first layer's input channels (the
    image) and the final classifier's output count are preserved.

    Parameters
    ----------
    model:
        The full (100 %) network, typically already in group-convolution form.
    fraction:
        Desired width fraction in ``(0, 1]``.
    granularity:
        Number of increments; fractions snap to ``k/granularity``.
    name:
        Name of the produced model; defaults to ``"<model>@<percent>%"``.

    Returns
    -------
    NetworkModel
        A new structural model describing the active sub-network.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    active_groups = max(1, round(fraction * granularity))
    active_groups = min(active_groups, granularity)

    if name is None:
        percent = round(100.0 * active_groups / granularity)
        name = f"{model.name}@{percent}%"

    fc_indices = [index for index, _ in model.fc_layers()]
    last_fc_index = fc_indices[-1] if fc_indices else None

    new_layers: List[Layer] = []
    current_shape = model.input_shape
    for index, layer in enumerate(model.layers):
        if isinstance(layer, DepthwiseConv2D):
            channels = current_shape[0]
            new_layer: Layer = DepthwiseConv2D(
                in_channels=channels,
                out_channels=channels,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                padding=layer.padding,
                bias=layer.bias,
            )
        elif isinstance(layer, Conv2D):
            in_channels = current_shape[0]
            out_channels = _scaled_channels(layer.out_channels, active_groups, granularity)
            if layer.groups > 1:
                # Keep the per-group width and prune whole groups, exactly as
                # the runtime group-convolution pruning of Fig 3(c) does.
                group_width = layer.out_channels // layer.groups
                groups = max(1, min(layer.groups, round(layer.groups * active_groups / granularity)))
                out_channels = groups * group_width
                # The incoming channels were produced by the same number of
                # active groups upstream, so divisibility holds by construction.
                groups = min(groups, in_channels) if in_channels < groups else groups
                while in_channels % groups or out_channels % groups:
                    groups -= 1
                new_layer = Conv2D(
                    in_channels=in_channels,
                    out_channels=out_channels,
                    kernel_size=layer.kernel_size,
                    stride=layer.stride,
                    padding=layer.padding,
                    groups=max(1, groups),
                    bias=layer.bias,
                )
            else:
                new_layer = Conv2D(
                    in_channels=in_channels,
                    out_channels=out_channels,
                    kernel_size=layer.kernel_size,
                    stride=layer.stride,
                    padding=layer.padding,
                    groups=1,
                    bias=layer.bias,
                )
        elif isinstance(layer, BatchNorm2D):
            new_layer = BatchNorm2D(channels=current_shape[0])
        elif isinstance(layer, FullyConnected):
            in_features = current_shape[0]
            if index == last_fc_index:
                out_features = layer.out_features  # classifier width is fixed
            else:
                out_features = _scaled_channels(layer.out_features, active_groups, granularity)
            new_layer = FullyConnected(
                in_features=in_features,
                out_features=out_features,
                bias=layer.bias,
            )
        else:
            new_layer = layer
        new_layers.append(new_layer)
        current_shape = new_layer.output_shape(current_shape)

    return NetworkModel(
        name=name,
        input_shape=model.input_shape,
        layers=new_layers,
        bytes_per_param=model.bytes_per_param,
    )


@dataclass(frozen=True)
class ConfigurationInfo:
    """Summary of one dynamic-DNN configuration."""

    fraction: float
    model: NetworkModel
    macs: int
    params: int

    @property
    def percent(self) -> int:
        """Configuration size as an integer percentage (25, 50, 75, 100)."""
        return round(self.fraction * 100)


class DynamicDNN:
    """A dynamically scalable DNN with ``num_increments`` width configurations.

    The model is a value: it describes the configurations and never changes
    after construction.  Which width is active belongs to whoever runs the
    model — the simulator keeps one width per co-scaling group (the
    applications of one simulation that share this object), so one model
    safely serves many devices, replicas and runs.

    Parameters
    ----------
    base_model:
        The full-width network (usually in group-convolution form, see
        :func:`repro.dnn.groups.convert_to_group_convolution`).
    num_increments:
        Number of channel groups / increments; the paper's case study uses 4.
    switching_overhead_ms:
        Time charged when the active configuration changes at runtime.  The
        dynamic DNN switches by masking groups in place, so this is small —
        unlike the static-pruning baseline which reloads a different model.
    """

    def __init__(
        self,
        base_model: NetworkModel,
        num_increments: int = 4,
        switching_overhead_ms: float = 1.0,
    ) -> None:
        if num_increments <= 0:
            raise ValueError("num_increments must be positive")
        if switching_overhead_ms < 0:
            raise ValueError("switching_overhead_ms must be non-negative")
        self.base_model = base_model
        self.num_increments = num_increments
        self.switching_overhead_ms = switching_overhead_ms
        self._configurations: Dict[float, ConfigurationInfo] = {}
        for step in range(1, num_increments + 1):
            fraction = step / num_increments
            sub_model = scale_network_width(base_model, fraction, granularity=num_increments)
            self._configurations[round(fraction, 6)] = ConfigurationInfo(
                fraction=fraction,
                model=sub_model,
                macs=sub_model.total_macs(),
                params=sub_model.total_params(),
            )

    # ---------------------------------------------------------------- access

    @property
    def name(self) -> str:
        """Name of the underlying base model."""
        return self.base_model.name

    @property
    def configurations(self) -> List[float]:
        """Available width fractions, ascending (e.g. ``[0.25, 0.5, 0.75, 1.0]``)."""
        return sorted(self._configurations)

    def configuration(self, fraction: float) -> ConfigurationInfo:
        """Information about the configuration closest to ``fraction``."""
        return self._configurations[self.nearest_configuration(fraction)]

    def nearest_configuration(self, fraction: float) -> float:
        """The entry of :attr:`configurations` closest to ``fraction``."""
        if not 0.0 < fraction <= 1.0 + 1e-9:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return min(self._configurations, key=lambda key: abs(key - fraction))

    def model_for(self, fraction: float) -> NetworkModel:
        """The structural sub-network of the configuration nearest ``fraction``."""
        return self.configuration(fraction).model

    # ------------------------------------------------------------- footprint

    def memory_footprint_mb(self) -> float:
        """DRAM footprint: one copy of the full model (all groups).

        This is the paper's key storage argument: the dynamic DNN stores all
        configurations inside a single model's memory footprint, whereas the
        static-pruning baseline stores one model per configuration.
        """
        return self.base_model.model_size_mb()

    def summary(self) -> List[Tuple[int, int, int]]:
        """(percent, MACs, params) per configuration, ascending."""
        return [
            (info.percent, info.macs, info.params)
            for _, info in sorted(self._configurations.items())
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DynamicDNN(name={self.name!r}, increments={self.num_increments})"
