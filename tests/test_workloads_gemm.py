"""Unit tests for GEMM specs and the Fig. 10 workload set."""

import pytest

from repro.workloads.conv import LayerKind
from repro.workloads.gemm import GemmSpec, fig10_workloads


class TestGemmSpec:
    def test_macs(self):
        g = GemmSpec("g", m=4, k=5, n=6)
        assert g.macs == 120

    def test_elem_counts(self):
        g = GemmSpec("g", m=4, k=5, n=6)
        assert g.input_elems == 20
        assert g.weight_elems == 30
        assert g.output_elems == 24

    def test_dim_lookup(self):
        g = GemmSpec("g", m=4, k=5, n=6)
        assert g.dim("m") == 4
        assert g.dim("K") == 5
        with pytest.raises(KeyError):
            g.dim("C")

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            GemmSpec("g", m=0, k=5, n=6)
        with pytest.raises(ValueError, match="bits"):
            GemmSpec("g", m=4, k=5, n=6, bits=0)

    def test_as_conv_preserves_macs(self):
        g = GemmSpec("g", m=4, k=5, n=6)
        conv = g.as_conv()
        assert conv.macs == g.macs
        assert conv.kind is LayerKind.FC

    def test_as_conv_dimension_mapping(self):
        g = GemmSpec("g", m=4, k=5, n=6)
        conv = g.as_conv()
        assert conv.m == 4
        assert conv.c == 5
        assert conv.p * conv.q == 6


class TestFig10Workloads:
    def test_four_workloads(self):
        assert len(fig10_workloads()) == 4

    def test_names(self):
        names = [w.name for w in fig10_workloads()]
        assert names == ["workload_A", "workload_B", "workload_C", "workload_D"]

    def test_workload_a_is_regular(self):
        a = fig10_workloads()[0]
        assert a.m % 4 == 0 and a.n % 4 == 0

    def test_workload_b_is_reduction_free(self):
        b = fig10_workloads()[1]
        assert b.k == 1

    def test_workload_d_is_reduction_heavy(self):
        d = fig10_workloads()[3]
        assert d.k > d.m and d.k > d.n
