"""Property-based tests (hypothesis) on core models and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.accuracy import AccuracyModel
from repro.dnn.dynamic import scale_network_width
from repro.dnn.zoo import cifar_group_cnn
from repro.platforms.dvfs import make_opp_table
from repro.platforms.power import ClusterPowerModel, PowerModelParams
from repro.platforms.thermal import ThermalModel, ThermalParams
from repro.rtm.operating_points import OperatingPoint
from repro.workloads.requirements import MetricSample, Requirements
from tests.reference_kernels import table_of

# The reference network is module-level so hypothesis examples do not rebuild it.
_REFERENCE = cifar_group_cnn()
_ACCURACY = AccuracyModel()


def kernel_front(points, objectives=("latency_ms", "energy_mj"), maximise=("accuracy_percent",)):
    """The kernel's Pareto front of hand-built points, as points."""
    return table_of(points).pareto(objectives=objectives, maximise=maximise).points


class TestAccuracyProperties:
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_monotone(self, a, b):
        low, high = sorted((a, b))
        assert _ACCURACY.top1(low) <= _ACCURACY.top1(high) + 1e-9

    @given(fraction=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_bounded(self, fraction):
        accuracy = _ACCURACY.top1(fraction)
        assert 0.0 <= accuracy <= 100.0
        assert _ACCURACY.confidence(fraction) <= 99.0


class TestWidthScalingProperties:
    @given(fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]), granularity=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_scaled_network_never_exceeds_full(self, fraction, granularity):
        scaled = scale_network_width(_REFERENCE, fraction, granularity=granularity)
        assert scaled.total_macs() <= _REFERENCE.total_macs()
        assert scaled.total_params() <= _REFERENCE.total_params()
        assert scaled.num_classes == _REFERENCE.num_classes

    @given(
        fractions=st.lists(
            st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=4, unique=True
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_macs_monotone_in_fraction(self, fractions):
        ordered = sorted(fractions)
        macs = [scale_network_width(_REFERENCE, f, granularity=4).total_macs() for f in ordered]
        assert macs == sorted(macs)


class TestPowerProperties:
    @given(
        frequency=st.floats(100.0, 3000.0),
        voltage=st.floats(0.6, 1.4),
        utilisation=st.floats(0.0, 1.0),
        temperature=st.floats(20.0, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_cluster_power_positive_and_monotone_in_utilisation(
        self, frequency, voltage, utilisation, temperature
    ):
        model = ClusterPowerModel(PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0))
        low = model.cluster_power_mw(voltage, frequency, [utilisation * 0.5], temperature, 1)
        high = model.cluster_power_mw(voltage, frequency, [utilisation], temperature, 1)
        assert 0.0 < low <= high + 1e-9

    @given(
        power=st.floats(0.0, 20000.0),
        duration=st.floats(1.0, 5000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_thermal_step_bounded_by_steady_state(self, power, duration):
        params = ThermalParams()
        model = ThermalModel(params)
        steady = model.steady_state_temperature_c(power)
        model.step(power, duration)
        # Heating from ambient can never overshoot the steady-state value,
        # and cooling can never undershoot ambient.
        assert params.ambient_c - 1e-6 <= model.temperature_c <= max(steady, params.ambient_c) + 1e-6

    @given(frequencies=st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=20, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_opp_table_voltage_monotone(self, frequencies):
        table = make_opp_table(frequencies)
        voltages = [p.voltage_v for p in table]
        assert all(b >= a - 1e-12 for a, b in zip(voltages, voltages[1:]))
        assert table.min_frequency_mhz == min(frequencies)
        assert table.max_frequency_mhz == max(frequencies)


def _point_strategy():
    return st.builds(
        OperatingPoint,
        cluster_name=st.sampled_from(["a15", "a7"]),
        frequency_mhz=st.sampled_from([200.0, 600.0, 1000.0, 1800.0]),
        cores=st.integers(1, 4),
        configuration=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        latency_ms=st.floats(1.0, 2000.0),
        power_mw=st.floats(50.0, 8000.0),
        energy_mj=st.floats(1.0, 500.0),
        accuracy_percent=st.floats(40.0, 95.0),
        confidence_percent=st.floats(40.0, 99.0),
    )


class TestParetoProperties:
    @given(points=st.lists(_point_strategy(), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_front_is_nonempty_subset_and_mutually_nondominated(self, points):
        front = kernel_front(points)
        assert front
        assert all(point in points for point in front)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b.latency_ms <= a.latency_ms
                    and b.energy_mj <= a.energy_mj
                    and b.accuracy_percent >= a.accuracy_percent
                    and (
                        b.latency_ms < a.latency_ms
                        or b.energy_mj < a.energy_mj
                        or b.accuracy_percent > a.accuracy_percent
                    )
                )
                assert not dominates

    @given(points=st.lists(_point_strategy(), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_every_excluded_point_is_dominated(self, points):
        front = kernel_front(points)
        for point in points:
            if point in front:
                continue
            assert any(
                other.latency_ms <= point.latency_ms
                and other.energy_mj <= point.energy_mj
                and other.accuracy_percent >= point.accuracy_percent
                for other in front
            )


class TestParetoAlgebraicProperties:
    """Structural laws of the Pareto front, independent of the objective set."""

    @given(points=st.lists(_point_strategy(), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, points):
        front = kernel_front(points)
        assert kernel_front(front) == front

    @given(
        points=st.lists(_point_strategy(), min_size=1, max_size=25),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_order_insensitive_as_a_set(self, points, seed):
        import random
        from dataclasses import astuple

        shuffled = list(points)
        random.Random(seed).shuffle(shuffled)
        original = kernel_front(points)
        reordered = kernel_front(shuffled)
        assert sorted(original, key=astuple) == sorted(reordered, key=astuple)

    @given(points=st.lists(_point_strategy(), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_decision_axes_front_contains_no_dominated_point(self, points):
        objectives = ("latency_ms", "energy_mj", "power_mw")
        maximise = ("accuracy_percent", "confidence_percent")
        front = kernel_front(points, objectives=objectives, maximise=maximise)
        assert front
        assert all(point in points for point in front)
        for a in front:
            for b in front:
                if a is b:
                    continue
                no_worse = all(getattr(b, m) <= getattr(a, m) for m in objectives) and all(
                    getattr(b, m) >= getattr(a, m) for m in maximise
                )
                strictly = any(getattr(b, m) < getattr(a, m) for m in objectives) or any(
                    getattr(b, m) > getattr(a, m) for m in maximise
                )
                assert not (no_worse and strictly)

    @given(points=st.lists(_point_strategy(), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_duplicates_survive_together(self, points):
        doubled = points + points
        front = kernel_front(doubled)
        # A point never dominates its exact duplicate, so every survivor's
        # duplicate survives too.
        assert len(front) % 2 == 0 if front else True


class TestRequirementsProperties:
    @given(
        latency_limit=st.floats(1.0, 1000.0),
        latency=st.floats(0.1, 2000.0),
        accuracy_floor=st.floats(0.0, 100.0),
        accuracy=st.floats(0.0, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_violated_metrics_consistent_with_violation_scores(
        self, latency_limit, latency, accuracy_floor, accuracy
    ):
        requirements = Requirements(
            max_latency_ms=latency_limit, min_accuracy_percent=accuracy_floor
        )
        sample = MetricSample(latency_ms=latency, accuracy_percent=accuracy)
        (score,) = requirements.violation_scores(
            latency_ms=np.array([latency]), accuracy_percent=np.array([accuracy])
        )
        assert bool(requirements.violated_metrics(sample)) == (score > 0.0)
        assert score >= 0.0
        assert math.isfinite(score)
