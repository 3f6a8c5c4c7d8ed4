"""Tests for the operating-point space, Pareto filtering and selection policies."""

import pytest

from repro.rtm.operating_points import OperatingPoint, OperatingPointSpace
from repro.rtm.policies import (
    POLICY_REGISTRY,
    MaxAccuracyUnderBudget,
    MaxConfidenceUnderBudget,
    MinEnergyUnderConstraints,
    MinLatencyUnderPowerCap,
    make_policy,
)
from repro.workloads.requirements import Requirements
from tests.reference_kernels import table_of


def make_point(**overrides):
    defaults = dict(
        cluster_name="a15",
        frequency_mhz=1000.0,
        cores=1,
        configuration=1.0,
        latency_ms=100.0,
        power_mw=1000.0,
        energy_mj=100.0,
        accuracy_percent=71.2,
        confidence_percent=75.0,
    )
    defaults.update(overrides)
    return OperatingPoint(**defaults)


class TestOperatingPointSpace:
    def test_enumeration_size(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.enumerate_table(clusters=["a15", "a7"], core_counts=[1]).points
        # 4 configurations x (17 A15 + 12 A7 frequencies) = 116 points.
        assert len(points) == 4 * (17 + 12)

    def test_fig4a_points_cover_both_clusters(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.fig4a_points()
        clusters = {point.cluster_name for point in points}
        assert clusters == {"a15", "a7"}
        assert all(point.cores == 1 for point in points)

    def test_accuracy_attached_from_trained_model(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.enumerate_table(
            clusters=["a7"], configurations=[0.25], core_counts=[1]
        ).points
        assert all(point.accuracy_percent == pytest.approx(56.0) for point in points)

    def test_frequency_restriction(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.enumerate_table(
            clusters=["a15"], frequencies={"a15": [1000.0]}, core_counts=[1]
        ).points
        assert {point.frequency_mhz for point in points} == {1000.0}

    def test_restrictions_select_the_requested_axes(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.enumerate_table(
            clusters=["a15"],
            configurations=[1.0],
            core_counts=[1, 2],
            frequencies={"a15": [1800.0]},
            temperature_c=45.0,
        ).points
        assert {point.cluster_name for point in points} == {"a15"}
        assert {point.cores for point in points} == {1, 2}
        assert {point.frequency_mhz for point in points} == {1800.0}
        assert {point.configuration for point in points} == {1.0}

    def test_latency_improves_with_frequency_and_cores(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        def first(cores, frequency):
            table = space.enumerate_table(
                clusters=["a15"],
                configurations=[1.0],
                core_counts=[cores],
                frequencies={"a15": [frequency]},
            )
            return table.point(0)

        slow = first(1, 200.0)
        fast = first(1, 1800.0)
        quad = first(4, 1800.0)
        assert fast.latency_ms < slow.latency_ms
        assert quad.latency_ms < fast.latency_ms

    def test_describe_mentions_key_fields(self):
        text = make_point(configuration=0.75).describe()
        assert "75%" in text
        assert "a15" in text

    def test_fig4a_points_are_empty_without_its_clusters(self, trained_dnn, nano, energy_model):
        assert OperatingPointSpace(trained_dnn, nano, energy_model).fig4a_points() == []

    def test_unknown_cluster_is_skipped(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        points = space.enumerate_table(
            clusters=["npu", "a7"], core_counts=[1], configurations=[1.0]
        ).points
        assert {point.cluster_name for point in points} == {"a7"}


class TestParetoFront:
    def test_dominated_point_removed(self):
        good = make_point(latency_ms=50.0, energy_mj=50.0)
        dominated = make_point(latency_ms=60.0, energy_mj=60.0)
        front = table_of([good, dominated]).pareto(maximise=()).points
        assert front == [good]

    def test_trade_off_points_kept(self):
        fast_hungry = make_point(latency_ms=10.0, energy_mj=200.0)
        slow_frugal = make_point(latency_ms=200.0, energy_mj=10.0)
        front = table_of([fast_hungry, slow_frugal]).pareto(maximise=()).points
        assert set(front) == {fast_hungry, slow_frugal}

    def test_accuracy_axis_respected(self):
        accurate = make_point(latency_ms=100.0, energy_mj=100.0, accuracy_percent=71.2)
        small = make_point(latency_ms=50.0, energy_mj=50.0, accuracy_percent=56.0)
        front = table_of([accurate, small]).pareto().points
        assert set(front) == {accurate, small}

    def test_fig4a_front_is_subset(self, trained_dnn, xu3, energy_model):
        space = OperatingPointSpace(trained_dnn, xu3, energy_model)
        table = space.enumerate_table(clusters=["a15", "a7"], core_counts=[1])
        points = table.points
        front = table.pareto().points
        assert 0 < len(front) <= len(points)
        front_set = {
            (p.cluster_name, p.frequency_mhz, p.configuration) for p in front
        }
        assert len(front_set) == len(front)


class TestPolicies:
    def _points(self):
        return [
            make_point(configuration=1.0, latency_ms=150.0, energy_mj=200.0, accuracy_percent=71.2),
            make_point(configuration=0.75, latency_ms=90.0, energy_mj=120.0, accuracy_percent=68.8),
            make_point(configuration=0.5, latency_ms=60.0, energy_mj=80.0, accuracy_percent=62.7,
                       confidence_percent=72.0),
            make_point(configuration=0.25, latency_ms=30.0, energy_mj=40.0, accuracy_percent=56.0,
                       confidence_percent=70.0),
        ]

    def test_max_accuracy_picks_largest_feasible(self):
        policy = MaxAccuracyUnderBudget()
        chosen = policy.select_table(
            table_of(self._points()), Requirements(max_latency_ms=100.0, max_energy_mj=130.0)
        )
        assert chosen.configuration == 0.75

    def test_min_energy_respects_accuracy_floor(self):
        policy = MinEnergyUnderConstraints()
        chosen = policy.select_table(table_of(self._points()), Requirements(min_accuracy_percent=60.0))
        assert chosen.configuration == 0.5  # smallest config above the floor

    def test_min_latency_policy(self):
        policy = MinLatencyUnderPowerCap()
        chosen = policy.select_table(table_of(self._points()), Requirements(min_accuracy_percent=55.0))
        assert chosen.configuration == 0.25

    def test_max_confidence_policy(self):
        policy = MaxConfidenceUnderBudget()
        chosen = policy.select_table(table_of(self._points()), Requirements(max_latency_ms=70.0))
        assert chosen.configuration == 0.5

    def test_feasible_filter(self):
        # Each infeasible point beats the feasible one on every policy's objective.
        points = [
            make_point(
                latency_ms=50.0, energy_mj=40.0, accuracy_percent=56.0, confidence_percent=60.0
            ),
            make_point(latency_ms=150.0, energy_mj=10.0),
            make_point(latency_ms=20.0, energy_mj=400.0),
        ]
        table = table_of(points)
        requirements = Requirements(max_latency_ms=100.0, max_energy_mj=100.0)
        scores = requirements.violation_scores(
            latency_ms=table.latency_ms, energy_mj=table.energy_mj
        )
        assert (scores == 0.0).tolist() == [True, False, False]
        for name in sorted(POLICY_REGISTRY):
            assert make_policy(name).select_table(table, requirements) == points[0]

    def test_power_cap_excludes_hot_points(self):
        points = [
            make_point(configuration=1.0, power_mw=5000.0, accuracy_percent=71.2),
            make_point(configuration=0.5, power_mw=800.0, accuracy_percent=62.7),
        ]
        policy = MaxAccuracyUnderBudget()
        chosen = policy.select_table(table_of(points), Requirements(), power_cap_mw=1000.0)
        assert chosen.configuration == 0.5

    def test_graceful_degradation_when_infeasible(self):
        points = self._points()
        # Impossible requirement: 1 ms latency.  The policy must still return
        # something (the least-bad point), not None.
        policy = MaxAccuracyUnderBudget()
        chosen = policy.select_table(table_of(points), Requirements(max_latency_ms=1.0))
        assert chosen is not None
        assert chosen.latency_ms == min(point.latency_ms for point in points)

    def test_empty_point_list_returns_none(self):
        assert MaxAccuracyUnderBudget().select_table(table_of([]), Requirements()) is None

    def test_registry_and_factory(self):
        assert set(POLICY_REGISTRY) == {"max_accuracy", "min_energy", "min_latency", "max_confidence"}
        assert isinstance(make_policy("min_energy"), MinEnergyUnderConstraints)
        with pytest.raises(ValueError):
            make_policy("does_not_exist")
