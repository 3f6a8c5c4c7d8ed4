"""repro: runtime resource management for embedded machine learning.

A Python reproduction of Xun et al., "Optimising Resource Management for
Embedded Machine Learning" (DATE 2020).  The package provides:

* structural DNN models and the paper's dynamic DNN (group-convolution
  pruning + incremental training) — :mod:`repro.dnn`;
* calibrated heterogeneous platform models (Odroid XU3, Jetson Nano and
  flagship-SoC presets) with DVFS, power and thermal models —
  :mod:`repro.platforms` and :mod:`repro.perfmodel`;
* workload scenarios, including the paper's Fig 2 runtime timeline —
  :mod:`repro.workloads`;
* a discrete-event simulator — :mod:`repro.sim`;
* the runtime resource manager (a ``SystemState`` in, ``Action`` objects
  out; operating-point search, policies, multi-application arbitration) —
  :mod:`repro.rtm`;
* the static-pruning and governor-only baselines — :mod:`repro.baselines`;
* the paper's published measurements — :mod:`repro.data`;
* declarative, serialisable experiment specs and their runner —
  :mod:`repro.experiments`.
"""

from repro.dnn import DynamicDNN, IncrementalTrainer, NetworkModel, make_dynamic_cifar_dnn
from repro.experiments import ExperimentSpec
from repro.experiments import run as run_experiment
from repro.experiments import run_many as run_experiments
from repro.perfmodel import CalibratedLatencyModel, EnergyModel
from repro.platforms import Soc, build_preset, jetson_nano, odroid_xu3
from repro.rtm import (
    OperatingPoint,
    OperatingPointSpace,
    RTMConfig,
    RuntimeManager,
)
from repro.sim import Simulator, simulate_scenario
from repro.workloads import Requirements, Scenario, fig2_scenario

__version__ = "1.0.0"

__all__ = [
    "DynamicDNN",
    "IncrementalTrainer",
    "NetworkModel",
    "make_dynamic_cifar_dnn",
    "ExperimentSpec",
    "run_experiment",
    "run_experiments",
    "CalibratedLatencyModel",
    "EnergyModel",
    "Soc",
    "build_preset",
    "jetson_nano",
    "odroid_xu3",
    "OperatingPoint",
    "OperatingPointSpace",
    "RTMConfig",
    "RuntimeManager",
    "Simulator",
    "simulate_scenario",
    "Requirements",
    "Scenario",
    "fig2_scenario",
    "__version__",
]
