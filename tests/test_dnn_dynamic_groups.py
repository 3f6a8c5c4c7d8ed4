"""Tests for group-convolution transformation and the dynamic DNN."""

import pytest

from repro.dnn.dynamic import DynamicDNN, scale_network_width
from repro.dnn.groups import (
    convert_to_group_convolution,
    group_structure,
    max_supported_groups,
)
from repro.dnn.zoo import cifar_dense_cnn, cifar_group_cnn, tiny_mlp


class TestGroupConversion:
    def test_first_conv_stays_dense(self):
        grouped = cifar_group_cnn(num_groups=4)
        groups = group_structure(grouped)
        assert groups[0] == 1
        assert all(g == 4 for g in groups[1:])

    def test_grouping_reduces_macs_and_params(self):
        dense = cifar_dense_cnn()
        grouped = cifar_group_cnn(num_groups=4)
        assert grouped.total_macs() < dense.total_macs()
        assert grouped.total_params() < dense.total_params()

    def test_groups_of_one_is_identity(self):
        dense = cifar_dense_cnn()
        same = convert_to_group_convolution(dense, 1)
        assert same.total_macs() == dense.total_macs()

    def test_indivisible_channels_rejected(self):
        dense = cifar_dense_cnn()
        with pytest.raises(ValueError, match="divided"):
            convert_to_group_convolution(dense, 7)

    def test_max_supported_groups(self):
        assert max_supported_groups(cifar_dense_cnn()) >= 4
        assert max_supported_groups(tiny_mlp()) == 1


class TestScaleNetworkWidth:
    def test_full_fraction_preserves_model(self):
        base = cifar_group_cnn()
        scaled = scale_network_width(base, 1.0, granularity=4)
        assert scaled.total_macs() == base.total_macs()
        assert scaled.total_params() == base.total_params()

    def test_macs_scale_roughly_linearly(self):
        base = cifar_group_cnn()
        quarter = scale_network_width(base, 0.25, granularity=4)
        half = scale_network_width(base, 0.5, granularity=4)
        assert quarter.total_macs() < half.total_macs() < base.total_macs()
        # Linear-ish scaling: the 25 % model should be within [15 %, 35 %] of
        # the full MAC count (the dense first layer and classifier deviate it
        # slightly from exactly 25 %).
        ratio = quarter.total_macs() / base.total_macs()
        assert 0.15 <= ratio <= 0.35

    def test_classifier_output_width_preserved(self):
        base = cifar_group_cnn()
        for fraction in (0.25, 0.5, 0.75):
            scaled = scale_network_width(base, fraction, granularity=4)
            assert scaled.num_classes == base.num_classes

    def test_shapes_stay_consistent(self):
        base = cifar_group_cnn()
        # Construction validates shape propagation; no exception means pass.
        for fraction in (0.25, 0.5, 0.75, 1.0):
            scale_network_width(base, fraction, granularity=4)

    def test_invalid_fraction_rejected(self):
        base = cifar_group_cnn()
        with pytest.raises(ValueError):
            scale_network_width(base, 0.0)
        with pytest.raises(ValueError):
            scale_network_width(base, 1.5)


class TestDynamicDNN:
    def test_four_increments_give_expected_fractions(self, trained_dnn):
        assert trained_dnn.dynamic_dnn.configurations == [0.25, 0.5, 0.75, 1.0]
        assert trained_dnn.dynamic_dnn.num_increments == 4

    def test_macs_monotone_in_configuration(self, trained_dnn):
        dnn = trained_dnn.dynamic_dnn
        values = [dnn.configuration(f).macs for f in dnn.configurations]
        assert values == sorted(values)
        assert values[0] < values[-1]
        assert values == [dnn.model_for(f).total_macs() for f in dnn.configurations]

    def test_params_monotone_in_configuration(self, trained_dnn):
        dnn = trained_dnn.dynamic_dnn
        values = [dnn.configuration(f).params for f in dnn.configurations]
        assert values == sorted(values)
        assert values == [dnn.model_for(f).total_params() for f in dnn.configurations]

    def test_memory_footprint_is_single_model(self, trained_dnn):
        # The dynamic DNN stores every configuration inside the full model's
        # footprint (the paper's storage argument vs static pruning).
        dnn = trained_dnn.dynamic_dnn
        assert dnn.memory_footprint_mb() == pytest.approx(dnn.base_model.model_size_mb())

    def test_nearest_configuration_lookup(self, trained_dnn):
        dnn = trained_dnn.dynamic_dnn
        assert dnn.configuration(0.6).fraction == 0.5
        assert dnn.configuration(0.95).fraction == 1.0
        assert dnn.nearest_configuration(0.3) == 0.25
        with pytest.raises(ValueError):
            dnn.configuration(0.0)

    def test_summary_percentages(self, trained_dnn):
        percents = [p for p, _, _ in trained_dnn.dynamic_dnn.summary()]
        assert percents == [25, 50, 75, 100]

    def test_other_increment_counts(self):
        dnn = DynamicDNN(cifar_group_cnn(num_groups=8), num_increments=8)
        assert len(dnn.configurations) == 8
        assert dnn.configurations[0] == pytest.approx(0.125)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            DynamicDNN(cifar_group_cnn(), num_increments=0)
        with pytest.raises(ValueError):
            DynamicDNN(cifar_group_cnn(), switching_overhead_ms=-1.0)
