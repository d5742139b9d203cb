"""Unit tests for the convolution workload specification."""

import math

import pytest

from repro.workloads.conv import ConvLayerSpec, LayerKind


class TestConvLayerSpec:
    def test_output_dims_basic(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=8, w=8, r=3, s=3, stride=1, padding=1)
        assert layer.p == 8
        assert layer.q == 8

    def test_output_dims_stride(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=8, w=8, r=3, s=3, stride=2, padding=1)
        assert layer.p == 4
        assert layer.q == 4

    def test_output_dims_no_padding(self):
        layer = ConvLayerSpec("l", m=1, c=1, h=8, w=8, r=3, s=3)
        assert layer.p == 6
        assert layer.q == 6

    def test_resnet_conv1_shape(self):
        layer = ConvLayerSpec("conv1", m=64, c=3, h=224, w=224, r=7, s=7, stride=2,
                              padding=3)
        assert layer.p == 112
        assert layer.q == 112

    def test_macs(self):
        layer = ConvLayerSpec("l", m=2, c=3, h=5, w=5, r=3, s=3, stride=1, padding=1)
        assert layer.macs == 2 * 3 * 5 * 5 * 3 * 3

    def test_tensor_elem_counts(self):
        layer = ConvLayerSpec("l", m=2, c=3, h=5, w=5, r=3, s=3, stride=1, padding=1)
        assert layer.iact_elems == 3 * 5 * 5
        assert layer.weight_elems == 2 * 3 * 3 * 3
        assert layer.oact_elems == 2 * 5 * 5

    def test_dim_lookup(self):
        layer = ConvLayerSpec("l", m=2, c=3, h=5, w=7, r=3, s=1)
        assert layer.dim("M") == 2
        assert layer.dim("c") == 3
        assert layer.dim("W") == 7
        assert layer.dim("Q") == layer.q

    def test_dim_lookup_unknown_raises(self):
        layer = ConvLayerSpec("l", m=2, c=3, h=5, w=5)
        with pytest.raises(KeyError):
            layer.dim("Z")

    def test_dims_returns_all(self):
        layer = ConvLayerSpec("l", m=2, c=3, h=5, w=5)
        dims = layer.dims()
        assert set(dims) == {"N", "M", "C", "H", "W", "P", "Q", "R", "S"}

    def test_invalid_dimension_raises(self):
        with pytest.raises(ValueError):
            ConvLayerSpec("l", m=0, c=3, h=5, w=5)

    def test_negative_padding_raises(self):
        with pytest.raises(ValueError):
            ConvLayerSpec("l", m=1, c=1, h=5, w=5, padding=-1)

    def test_kernel_larger_than_padded_input_raises(self):
        # P = (2 - 5) // 1 + 1 = -2: no output rows to compute.
        with pytest.raises(ValueError, match="does not fit"):
            ConvLayerSpec("l", m=4, c=4, h=2, w=4, r=5)
        with pytest.raises(ValueError, match="does not fit"):
            ConvLayerSpec("l", m=4, c=4, h=4, w=2, s=3)
        # Padding that makes the kernel fit, and an exact fit, are fine.
        assert ConvLayerSpec("l", h=2, w=2, r=5, s=5, padding=2).p == 2
        assert ConvLayerSpec("l", h=3, w=3, r=3, s=3).q == 1

    def test_zero_bit_operands_raise(self):
        with pytest.raises(ValueError, match="bits"):
            ConvLayerSpec("l", m=4, c=4, h=4, w=4, bits=0)

    def test_depthwise_groups_default_to_channels(self):
        layer = ConvLayerSpec("dw", m=16, c=16, h=8, w=8, r=3, s=3, padding=1,
                              kind=LayerKind.DEPTHWISE)
        assert layer.groups == 16
        assert layer.is_depthwise()

    def test_depthwise_macs_exclude_cross_channel(self):
        dw = ConvLayerSpec("dw", m=16, c=16, h=8, w=8, r=3, s=3, padding=1,
                           kind=LayerKind.DEPTHWISE)
        full = ConvLayerSpec("full", m=16, c=16, h=8, w=8, r=3, s=3, padding=1)
        assert dw.macs * 16 == full.macs

    def test_groups_must_divide(self):
        with pytest.raises(ValueError):
            ConvLayerSpec("g", m=6, c=4, h=5, w=5, groups=3)

    def test_as_gemm_shape(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=6, w=6, r=3, s=3, stride=1, padding=1)
        m, k, n = layer.as_gemm_shape()
        assert m == 8
        assert k == 4 * 3 * 3
        assert n == layer.p * layer.q

    def test_gemm_shape_macs_consistent(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=6, w=6, r=3, s=3, stride=1, padding=1)
        m, k, n = layer.as_gemm_shape()
        assert m * k * n == layer.macs

    def test_arithmetic_intensity_positive(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=6, w=6, r=3, s=3)
        assert layer.arithmetic_intensity > 0

    def test_scaled_preserves_spatial(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=6, w=6, r=3, s=3)
        scaled = layer.scaled(2.0)
        assert scaled.m == 16 and scaled.c == 8
        assert scaled.h == layer.h and scaled.r == layer.r

    def test_frozen(self):
        layer = ConvLayerSpec("l", m=8, c=4, h=6, w=6)
        with pytest.raises(Exception):
            layer.m = 16

    def test_str_contains_name(self):
        layer = ConvLayerSpec("my_layer", m=8, c=4, h=6, w=6)
        assert "my_layer" in str(layer)
