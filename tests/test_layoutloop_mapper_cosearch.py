"""Tests for the mapper (dataflow/layout search) and the whole-model co-search
(run as a session search request, like every caller runs it)."""

import pytest

from repro.baselines.registry import eyeriss_like, nvdla_like, sigma_like
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cosearch import unique_workloads
from repro.layoutloop.mapper import Mapper
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

LAYER = ConvLayerSpec("layer", m=64, c=64, h=14, w=14, r=3, s=3, stride=1, padding=1)
SMALL_C_LAYER = ConvLayerSpec("small_c", m=64, c=3, h=32, w=32, r=3, s=3, padding=1)
GEMM = GemmSpec("gemm", m=64, k=128, n=96)


class TestMapper:
    def test_fixed_parallelism_arch_has_single_mapping(self):
        mapper = Mapper(nvdla_like())
        mappings = mapper.candidate_mappings(LAYER)
        assert len(mappings) == 1
        assert mappings[0].parallel_degree("M") == 16
        assert mappings[0].parallel_degree("C") == 16

    def test_flexible_arch_has_many_mappings(self):
        mapper = Mapper(feather_arch(), max_mappings=50)
        assert len(mapper.candidate_mappings(LAYER)) > 10

    def test_allowed_parallel_dims_respected(self):
        mapper = Mapper(eyeriss_like(), max_mappings=50)
        allowed = set(eyeriss_like().allowed_parallel_dims)
        for mapping in mapper.candidate_mappings(LAYER):
            assert all(p.dim in allowed for p in mapping.parallel)

    def test_fixed_layout_arch_single_layout(self):
        mapper = Mapper(nvdla_like())
        layouts = mapper.candidate_layouts(LAYER)
        assert len(layouts) == 1
        assert layouts[0].name == "HWC_C32"

    def test_fixed_layout_gemm_fallback(self):
        # NVDLA's conv layout does not name M/K; GEMM workloads fall back to MK_K32.
        mapper = Mapper(nvdla_like())
        layouts = mapper.candidate_layouts(GEMM)
        assert layouts[0].name == "MK_K32"

    def test_flexible_layout_arch_uses_library(self):
        mapper = Mapper(feather_arch())
        assert len(mapper.candidate_layouts(LAYER)) == 7
        assert len(mapper.candidate_layouts(GEMM)) == 3

    def test_search_returns_best_by_metric(self):
        mapper = Mapper(feather_arch(), metric="latency", max_mappings=40)
        result = mapper.search(LAYER)
        assert result.best_report is not None
        assert result.evaluated > 0
        assert result.best_value == result.best_report.total_cycles

    def test_search_cached(self):
        mapper = Mapper(feather_arch(), max_mappings=40)
        first = mapper.search(LAYER)
        second = mapper.search(LAYER)
        assert first is second

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            Mapper(feather_arch(), metric="speed")

    def test_feather_beats_nvdla_on_small_channel_layer(self):
        # NVDLA's fixed C=16 parallelism wastes PEs when C=3; FEATHER adapts.
        feather = Mapper(feather_arch(), metric="latency", max_mappings=60).search(
            SMALL_C_LAYER)
        nvdla = Mapper(nvdla_like(), metric="latency").search(SMALL_C_LAYER)
        assert feather.best_report.total_cycles < nvdla.best_report.total_cycles

    def test_gemm_search(self):
        mapper = Mapper(feather_arch(), max_mappings=40)
        result = mapper.search(GEMM)
        assert result.best_report.macs == GEMM.macs


class TestUniqueWorkloads:
    def test_dedup_counts(self):
        layers = [LAYER, LAYER, SMALL_C_LAYER]
        grouped = unique_workloads(layers)
        assert len(grouped) == 2
        assert grouped[0][1] == 2

    def test_order_preserved(self):
        grouped = unique_workloads([SMALL_C_LAYER, LAYER])
        assert grouped[0][0] is SMALL_C_LAYER

    def test_gemm_and_conv_mix(self):
        grouped = unique_workloads([LAYER, GEMM, GEMM])
        assert len(grouped) == 2


class TestCosearchAndModelEvaluation:
    def test_cosearch_layer(self):
        result = Mapper(feather_arch(), max_mappings=40).search(LAYER)
        assert result.best_layout is not None
        assert result.best_report.slowdown == 1.0

    def test_evaluate_model_aggregates(self, search_cost):
        layers = [LAYER, LAYER, SMALL_C_LAYER]
        cost = search_cost(feather_arch(), layers, model="toy",
                           max_mappings=30)
        assert cost.total_macs == sum(l.macs for l in layers)
        assert cost.total_cycles > 0
        assert 0 < cost.avg_utilization <= 1.0

    def test_evaluate_model_dedup_weighting(self, search_cost):
        once = search_cost(feather_arch(), [LAYER], max_mappings=30)
        twice = search_cost(feather_arch(), [LAYER, LAYER], max_mappings=30)
        assert twice.total_cycles == pytest.approx(2 * once.total_cycles)

    def test_feather_best_edp_among_suite(self, search_cost):
        arches = [nvdla_like(), eyeriss_like(), sigma_like(layout="HWC_C32"),
                  feather_arch()]
        costs = {arch.name: search_cost(arch, [SMALL_C_LAYER, LAYER],
                                        max_mappings=40)
                 for arch in arches}
        feather_edp = costs["FEATHER"].edp
        for name, cost in costs.items():
            assert feather_edp <= cost.edp * 1.001, f"{name} beat FEATHER on EDP"

    def test_model_cost_properties(self, search_cost):
        cost = search_cost(feather_arch(), [LAYER], max_mappings=30)
        assert cost.energy_per_mac_pj > 0
        assert cost.geomean_cycles() > 0
        assert cost.geomean_energy_per_mac() > 0
        assert cost.layouts_used()
        assert 0 <= cost.stall_fraction <= 1
        assert 0 <= cost.reorder_fraction <= 1
