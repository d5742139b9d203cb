"""Evaluation-backend layer: protocol, registry, parity and the RIR claim.

The headline assertions machine-check the paper's reorder-in-reduction
story instead of trusting a docstring: for co-searched (mapping, layout)
pairs on FEATHER the analytical model claims ``slowdown == 1.0``
(``max(lines_accessed/ports, 1)`` never binds), and the cycle-level
simulator — which measures bank conflicts independently, from the actual
StaB access stream — must agree, and must never observe oAct write
serialization.  A deliberately discordant layout shows the simulator's
conflict detection is not vacuous.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    AnalyticalBackend,
    BackendReport,
    SimulatorBackend,
    backend_names,
    create_backend,
    cross_validate_model,
    multifidelity_search,
    report_from_cost,
    seeded_conv_tensors,
    seeded_gemm_tensors,
)
from repro.backends.simulator import feather_config_for
from repro.baselines.registry import sigma_like
from repro.layout.layout import parse_layout
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cost_model import CostModel
from repro.layoutloop.mapper import Mapper
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec
from repro.workloads.micro import (
    bert_head_micro,
    micro_conv_layers,
    micro_gemm_layers,
    resnet50_head_micro,
)

ARCH44 = feather_arch(4, 4)
ARCH88 = feather_arch(8, 8)


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "analytical" in backend_names()
        assert "simulator" in backend_names()

    def test_create_by_name_and_default(self):
        assert isinstance(create_backend("analytical", ARCH44),
                          AnalyticalBackend)
        assert isinstance(create_backend("simulator", ARCH44),
                          SimulatorBackend)
        assert isinstance(create_backend(None, ARCH44), AnalyticalBackend)

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="analytical"):
            create_backend("quantum", ARCH44)

    def test_instance_passthrough_rejects_options(self):
        backend = AnalyticalBackend(ARCH44)
        assert create_backend(backend, ARCH44) is backend
        with pytest.raises(ValueError, match="reconfigure"):
            create_backend(backend, ARCH44, seed=1)


# ------------------------------------------------------- analytical parity
class TestAnalyticalBackend:
    def test_bit_identical_to_cost_model(self, small_conv_layer):
        mapper = Mapper(ARCH88, max_mappings=4)
        mapping = mapper.candidate_mappings(small_conv_layer)[0]
        layout = mapper.candidate_layouts(small_conv_layer)[0]

        direct = CostModel(ARCH88).evaluate(small_conv_layer, mapping, layout)
        via_backend = AnalyticalBackend(ARCH88).evaluate(
            small_conv_layer, mapping, layout)
        assert via_backend == report_from_cost(direct)
        for field_name in ("macs", "compute_cycles", "slowdown",
                           "stall_cycles", "total_cycles", "utilization",
                           "practical_utilization", "energy_breakdown_pj"):
            assert getattr(via_backend, field_name) == getattr(direct,
                                                               field_name)
        assert via_backend.total_energy_pj == direct.total_energy_pj
        assert via_backend.edp == direct.edp

    def test_search_model_backend_analytical_is_default_path(self,
                                                              search_cost):
        layers = micro_conv_layers()
        default = search_cost(ARCH44, layers, max_mappings=6)
        explicit = search_cost(ARCH44, layers, max_mappings=6,
                               backend="analytical")
        assert default.total_cycles == explicit.total_cycles
        assert default.total_energy_pj == explicit.total_energy_pj
        assert default.search_stats.backend == "analytical"


# ------------------------------------------------------ simulator backend
class TestSimulatorBackend:
    def test_deterministic_across_instances(self):
        conv = micro_conv_layers()[0]
        mapper = Mapper(ARCH44, max_mappings=4)
        result = mapper.search(conv)
        a = SimulatorBackend(ARCH44, seed=3).evaluate(
            conv, result.best_mapping, result.best_layout)
        b = SimulatorBackend(ARCH44, seed=3).evaluate(
            conv, result.best_mapping, result.best_layout)
        assert a == b
        assert a.extra["seed"] == 3.0

    def test_seeded_tensors_depend_on_shape_not_name(self):
        conv = micro_conv_layers()[0]
        renamed = dataclasses.replace(conv, name="other_label")
        ia, wa = seeded_conv_tensors(conv, seed=1)
        ib, wb = seeded_conv_tensors(renamed, seed=1)
        assert np.array_equal(ia, ib) and np.array_equal(wa, wb)
        ic, _ = seeded_conv_tensors(conv, seed=2)
        assert not np.array_equal(ia, ic)

    def test_seeded_gemm_tensors_shapes(self):
        gemm = GemmSpec("g", m=5, k=7, n=3)
        inputs, weights = seeded_gemm_tensors(gemm, seed=0)
        assert inputs.shape == (5, 7) and weights.shape == (3, 7)

    def test_rejects_non_rir_architecture(self):
        with pytest.raises(ValueError, match="reorder-in-reduction"):
            SimulatorBackend(sigma_like(reorder="offchip"))

    def test_rejects_non_power_of_two_width(self):
        arch = dataclasses.replace(ARCH44, pe_cols=6)
        with pytest.raises(ValueError, match="power of two"):
            feather_config_for(arch)

    def test_mac_bound_guards_against_huge_cells(self):
        big = ConvLayerSpec("big", m=64, c=64, h=56, w=56, r=3, s=3)
        backend = SimulatorBackend(ARCH44)
        mapper = Mapper(ARCH44, max_mappings=1)
        mapping = mapper.candidate_mappings(big)[0]
        layout = mapper.candidate_layouts(big)[0]
        with pytest.raises(ValueError, match="micro-cells"):
            backend.evaluate(big, mapping, layout)

    def test_report_consistency(self):
        gemm = micro_gemm_layers()[0]
        mapper = Mapper(ARCH44, max_mappings=4)
        result = mapper.search(gemm)
        report = SimulatorBackend(ARCH44).evaluate(
            gemm, result.best_mapping, result.best_layout)
        assert isinstance(report, BackendReport)
        assert report.backend == "simulator"
        assert report.macs == gemm.macs
        assert report.total_cycles == pytest.approx(
            report.compute_cycles + report.stall_cycles
            + report.reorder_cycles_exposed)
        assert 0.0 < report.practical_utilization <= 1.0
        # Energy is the analytical estimate: comparable, not simulated.
        assert report.total_energy_pj > 0
        assert report.edp == report.total_energy_pj * report.total_cycles


# -------------------------------------------------- ExecutionStats parity
class TestExecutionStatsConventions:
    def test_derived_properties_match_cost_report_vocabulary(self):
        from repro.feather.accelerator import ExecutionStats

        stats = ExecutionStats(cycles=300.0, macs=1200, num_pes=16,
                               read_slowdown=1.5, write_serialization=1.0)
        assert stats.total_cycles == 300.0
        assert stats.slowdown == 1.5
        assert stats.compute_cycles == pytest.approx(200.0)
        assert stats.stall_cycles == pytest.approx(100.0)
        assert stats.practical_utilization == stats.utilization
        assert stats.avg_utilization == stats.utilization
        assert stats.macs_per_cycle == pytest.approx(4.0)

    def test_zero_cycles_edge(self):
        from repro.feather.accelerator import ExecutionStats

        stats = ExecutionStats()
        assert stats.slowdown == 1.0
        assert stats.stall_cycles == 0.0
        assert stats.macs_per_cycle == 0.0


# ------------------------------------------------------- the RIR claim
class TestRirClaimMachineChecked:
    """Co-searched pairs never stall — analytical and simulated agree."""

    @pytest.mark.parametrize("workload,arch", [
        pytest.param(resnet50_head_micro(), ARCH88, id="resnet50-head"),
        pytest.param(bert_head_micro(), ARCH88, id="bert-head"),
        pytest.param(bert_head_micro(seq_len=16), ARCH44, id="bert-head-4x4"),
    ])
    def test_cosearched_pair_is_conflict_free_in_simulation(self, workload,
                                                           arch):
        result = Mapper(arch, max_mappings=8, seed=0).search(workload)
        # Analytical side: RIR co-switching means max(lines/ports, 1)
        # never binds — the model prices the winner stall-free.
        assert result.best_report.slowdown == 1.0
        assert result.best_report.stall_cycles == 0.0

        # Simulated side, with the simulator in the layout loop (the
        # co-switching FEATHER actually performs): across the candidate
        # layouts a concordant one must exist, the latency-best choice must
        # realise the model's claim — measured StaB read conflicts at
        # exactly 1.0 — and *no* layout may ever serialize oAct writes.
        simulator = SimulatorBackend(arch, seed=0)
        mapper = Mapper(arch, max_mappings=8, seed=0)
        reports = [simulator.evaluate(workload, result.best_mapping, layout)
                   for layout in mapper.candidate_layouts(workload)]
        assert all(r.extra["write_serialization"] == 1.0 for r in reports)
        best = min(reports, key=lambda r: r.total_cycles)
        assert best.extra["read_slowdown"] == 1.0
        assert best.slowdown == 1.0
        assert best.stall_cycles == 0.0

    def test_multifidelity_repairs_analytical_layout_tie(self):
        """On FEATHER every layout ties analytically (RIR prices them all
        stall-free), so pure-analytical co-search picks the library's first
        layout — which for the 7x7/stride-2 head conv *does* conflict in
        simulation.  Widening the multi-fidelity shortlist over the tied
        layouts lets the simulator break the tie with a genuinely
        conflict-free one."""
        from repro.backends import multifidelity_search_layer
        from repro.layout.library import conv_layout_library

        workload = resnet50_head_micro()
        top_k = len(conv_layout_library())
        result = multifidelity_search_layer(ARCH88, workload,
                                            metric="latency",
                                            max_mappings=8, top_k=top_k)
        analytical_pick = result.candidates[0]
        assert analytical_pick.simulated.extra["read_slowdown"] > 1.0
        assert result.best.simulated.extra["read_slowdown"] == 1.0
        assert not result.agreement  # verification changed the winner
        assert (result.best.simulated.total_cycles
                < analytical_pick.simulated.total_cycles)

    def test_discordant_layout_detected_by_simulator(self):
        """The agreement above is not vacuous: a layout that scatters the
        concurrently-read words across one bank's lines does stall."""
        gemm = bert_head_micro(seq_len=16)
        mapper = Mapper(ARCH44, max_mappings=8)
        mapping = mapper.search(gemm).best_mapping
        # K-major with a 1-wide intra-line block: the col_k lanes read K
        # values that live in different lines of the same bank region.
        discordant = parse_layout("KM_M1")
        simulated = SimulatorBackend(ARCH44).evaluate(gemm, mapping,
                                                      discordant)
        assert simulated.extra["read_slowdown"] > 1.0
        assert simulated.stall_cycles > 0.0


# ------------------------------------------------------- mapper + engine
class TestSearchOnSimulator:
    def test_mapper_search_on_simulator_backend(self):
        gemm = micro_gemm_layers()[0]
        mapper = Mapper(ARCH44, metric="latency", max_mappings=4,
                        backend="simulator")
        result = mapper.search(gemm)
        assert result.best_report.backend == "simulator"
        assert result.pruned == 0  # bounds are analytical-only
        assert result.best_report.total_cycles > 0

    def test_search_model_on_simulator_forces_serial(self, search_cost):
        cost = search_cost(ARCH44, micro_gemm_layers(), metric="latency",
                           max_mappings=4, workers=4, backend="simulator")
        assert cost.search_stats.workers == 1
        assert cost.search_stats.backend == "simulator"
        assert cost.total_cycles > 0

    def test_simulator_search_picks_conflict_free_layout(self, search_cost):
        cost = search_cost(ARCH44, micro_gemm_layers(), metric="latency",
                           max_mappings=4, backend="simulator")
        for choice in cost.layer_choices:
            assert choice.result.best_report.slowdown == 1.0


# ------------------------------------------------------- multi-fidelity
class TestMultiFidelity:
    def test_agrees_with_pure_analytical_on_golden_micro_cells(
            self, search_cost):
        """Acceptance: multi-fidelity returns the analytical winners on the
        golden micro-cells, each carrying simulator-verified top-k."""
        cases = [
            ("micro_convs", micro_conv_layers(), "edp", 4),
            ("micro_gemms", micro_gemm_layers(), "latency", 6),
        ]
        for name, layers, metric, budget in cases:
            analytical = search_cost(ARCH44, layers, model=name,
                                     metric=metric, max_mappings=budget)
            multi = multifidelity_search(ARCH44, layers, model_name=name,
                                         metric=metric, max_mappings=budget,
                                         top_k=3)
            assert multi.agreement, f"{name}: verification changed a winner"
            for (result, _), choice in zip(multi.layers,
                                           analytical.layer_choices):
                assert result.best.mapping.name == \
                    choice.result.best_mapping.name
                assert result.best.layout.name == \
                    choice.result.best_layout.name
                # Every shortlisted candidate carries both fidelities.
                for candidate in result.candidates:
                    assert candidate.analytical.backend == "analytical"
                    assert candidate.simulated.backend == "simulator"

    def test_shortlist_ranked_and_bounded(self):
        conv = micro_conv_layers()[0]
        from repro.backends import multifidelity_search_layer

        result = multifidelity_search_layer(ARCH44, conv, top_k=2,
                                            max_mappings=4)
        assert len(result.candidates) <= 2
        assert [c.rank for c in result.candidates] == list(
            range(len(result.candidates)))
        assert result.analytical_evaluated >= len(result.candidates)

    def test_top_k_validation(self):
        from repro.backends import multifidelity_search_layer

        with pytest.raises(ValueError, match="top_k"):
            multifidelity_search_layer(ARCH44, micro_conv_layers()[0],
                                       top_k=0)


# ------------------------------------------------------- cross-validation
class TestCrossValidation:
    def test_deltas_and_rir_claim(self):
        cost, validation = cross_validate_model(
            ARCH44, micro_gemm_layers(), model_name="micro",
            metric="latency", max_mappings=6)
        assert len(validation.cells) == len(cost.layer_choices)
        assert validation.rir_claim_holds
        for cell in validation.cells:
            assert cell.analytical_cycles > 0
            assert cell.simulated_cycles > 0
            assert cell.cycle_delta == pytest.approx(
                cell.simulated_cycles / cell.analytical_cycles - 1.0)
            assert cell.utilization_delta == pytest.approx(
                cell.simulated_utilization - cell.analytical_utilization)
        assert validation.max_abs_cycle_delta == max(
            abs(c.cycle_delta) for c in validation.cells)

    def test_analytical_side_matches_plain_search(self, search_cost):
        layers = micro_gemm_layers()
        cost, _ = cross_validate_model(ARCH44, layers, model_name="micro",
                                       metric="latency", max_mappings=6)
        plain = search_cost(ARCH44, layers, model="micro",
                            metric="latency", max_mappings=6)
        assert cost.total_cycles == plain.total_cycles
        assert cost.total_energy_pj == plain.total_energy_pj

    def test_as_dict_round_trips_through_json(self):
        import json

        _, validation = cross_validate_model(
            ARCH44, micro_gemm_layers()[:1], model_name="one",
            metric="latency", max_mappings=4)
        payload = validation.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["cells"][0]["simulated_write_serialization"] == 1.0
