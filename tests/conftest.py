"""Shared fixtures for the test suite.

Heavy objects (the reference network, the trained dynamic DNN, the
calibrated energy model, the validation set) are session-scoped: they are
values nothing changes, and rebuilding them per test would dominate the suite
runtime.  Fixtures that tests mutate (SoCs whose frequencies/reservations are
changed) are function-scoped.
"""

from __future__ import annotations

import gc

import pytest

from repro.data.cifar import make_validation_set
from repro.dnn.training import IncrementalTrainer, TrainedDynamicDNN
from repro.dnn.zoo import cifar_group_cnn, make_dynamic_cifar_dnn
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.platforms.presets import jetson_nano, odroid_xu3


@pytest.fixture(scope="session")
def reference_network():
    """The paper's group-convolution CIFAR-10 network (read-only)."""
    return cifar_group_cnn()


@pytest.fixture(scope="session")
def trained_dnn() -> TrainedDynamicDNN:
    """A trained four-increment dynamic DNN shared across tests.

    A value: a simulation that switches its width keeps the width itself.
    """
    return IncrementalTrainer().train(make_dynamic_cifar_dnn())


@pytest.fixture(scope="session")
def energy_model() -> EnergyModel:
    """Calibrated energy model (stateless)."""
    return EnergyModel(CalibratedLatencyModel())


@pytest.fixture(scope="session")
def validation_set():
    """Synthetic CIFAR-10 validation set."""
    return make_validation_set()


@pytest.fixture
def xu3():
    """A fresh Odroid XU3 platform model (tests may mutate it)."""
    return odroid_xu3()


@pytest.fixture
def nano():
    """A fresh Jetson Nano platform model (tests may mutate it)."""
    return jetson_nano()


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector_enabled(request):
    """Run the test with the cyclic garbage collector on, then off.

    The test receives the state it starts in and must find it unchanged
    after the code under test returns or raises; the fixture restores the
    session's state afterwards.
    """
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(scope="session")
def registry_grid_cached():
    """Traces of every registry scenario x manager at seed 0 (cache enabled).

    Session-scoped because several test modules consume the same serial
    grid: the golden-trace regression locks its fingerprints, and the parity
    tests compare it against cache-off, multi-worker and batched reruns.
    """
    from repro.experiments import MANAGER_REGISTRY, grid_specs, run_many
    from repro.workloads.scenarios import SCENARIO_REGISTRY

    batch = run_many(
        grid_specs(sorted(SCENARIO_REGISTRY), sorted(MANAGER_REGISTRY), [0]),
        backend="serial",
    )
    assert not batch.errors, batch.errors
    return batch
