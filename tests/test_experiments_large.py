"""Tests for the heavier experiments (Fig. 2, Fig. 12, Fig. 13) on reduced settings.

These use small layer subsets and mapping budgets so the whole file stays in
the tens of seconds; the benchmarks run the full-size versions.
"""

import pytest

from repro.experiments import fig2, fig12, fig13


class TestFig2:
    @pytest.fixture(scope="class")
    def results(self):
        return fig2.run(max_mappings=30, full_model_layers=4)

    def test_both_models_present(self, results):
        assert set(results) == {"resnet50", "mobilenet_v3"}

    def test_row_structure(self, results):
        rows = results["resnet50"]
        assert rows[-1].workload.endswith("full_model")
        assert len(rows) == 4  # three motivation layers + full model

    def test_theory_matches_feather(self, results):
        # The layout-blind best dataflow equals FEATHER's latency, because
        # FEATHER realises it without conflicts (the figure's green == red).
        for rows in results.values():
            for row in rows:
                assert row.theory_latency == pytest.approx(row.feather_latency,
                                                           rel=0.25)

    def test_practice_gap_exists(self, results):
        # The worst layout makes the theoretical dataflow substantially slower
        # (the paper's theory/practice gap).
        gaps = [row.practice_gap for rows in results.values() for row in rows]
        assert max(gaps) > 2.0

    def test_feather_beats_fixed_policy(self, results):
        for rows in results.values():
            full = rows[-1]
            assert full.feather_vs_fixed > 0.3  # >30% latency reduction

    def test_normalized_reference_is_one(self, results):
        row = results["resnet50"][0]
        assert row.normalized()["feather"] == 1.0


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12.run()

    def test_all_devices_present(self, result):
        assert set(result.per_device) == {"FEATHER", "Gemmini", "Xilinx DPU",
                                          "Edge TPU"}

    def test_per_layer_series_lengths_match(self, result):
        n = len(result.layers)
        assert all(len(v) == n for v in result.per_device.values())

    def test_feather_faster_than_every_baseline(self, result):
        for name, speedup in result.speedups().items():
            assert speedup > 1.0, f"FEATHER not faster than {name}"

    def test_gemmini_speedup_band(self, result):
        # Paper: 3.91x geomean; accept a generous band around it.
        assert 2.0 < result.geomean_speedup("Gemmini") < 6.0

    def test_edge_tpu_speedup_band(self, result):
        # Paper: 4.56x geomean.
        assert 2.0 < result.geomean_speedup("Edge TPU") < 8.0

    def test_throughput_normalised_to_unit_interval(self, result):
        for series in result.per_device.values():
            assert all(0 <= v <= 1.0 for v in series)


class TestFig13:
    @pytest.fixture(scope="class")
    def series(self):
        # Small subsets keep this fast; orderings are already visible.
        return fig13.run(workload_names=("bert", "resnet50"), max_mappings=25,
                         max_layers=10)

    def test_series_structure(self, series):
        assert set(series) == {"bert", "resnet50"}
        resnet = series["resnet50"]
        assert len(resnet.arch_names()) == 9
        assert resnet.normalized_latency["FEATHER"] == pytest.approx(1.0)
        assert resnet.normalized_energy_per_mac["FEATHER"] == pytest.approx(1.0)

    def test_feather_has_best_or_tied_energy(self, series):
        for chart in series.values():
            for name, value in chart.normalized_energy_per_mac.items():
                assert value >= 0.95, f"{name} beat FEATHER on energy in {chart.workload}"

    def test_feather_latency_at_or_near_best(self, series):
        for chart in series.values():
            best = min(chart.normalized_latency.values())
            assert chart.normalized_latency["FEATHER"] <= best * 1.15

    def test_nvdla_slower_than_feather_on_bert(self, series):
        bert = series["bert"]
        assert bert.normalized_latency["NVDLA-like"] > 1.2

    def test_feather_full_utilization_no_stalls(self, series):
        for chart in series.values():
            assert chart.stall_fraction["FEATHER"] == 0.0
            assert chart.reorder_fraction["FEATHER"] == 0.0

    def test_offchip_reorder_costs_energy(self, series):
        resnet = series["resnet50"]
        assert resnet.normalized_energy_per_mac["SIGMA-like (off-chip reorder)"] > 1.05

    def test_paper_reference_tables_cover_archs(self):
        for workload, table in fig13.PAPER_LATENCY.items():
            assert "FEATHER" in table
            assert all(v >= 1.0 for v in table.values())

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="alexnet"):
            fig13.run(workload_names=("alexnet",), max_mappings=4)
