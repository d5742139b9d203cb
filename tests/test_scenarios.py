"""Tests for the scenario-matrix subsystem (`repro.scenarios`).

Covers the declarative layer (matrix expansion/filter/dedup properties via
hypothesis), the record JSON round-trip, the content-addressed result
cache, seed/version embedding with worker-count determinism, the name
registries and the CLI.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.scenarios import (
    LayerRecord,
    Scenario,
    ScenarioMatrix,
    ScenarioRecord,
    SearchConfig,
    builtin_matrix,
    cell_key,
    diff_payloads,
    rerun_record,
    resolve_arch,
    resolve_workload_set,
    run_cell,
    run_matrix,
    scenario_from_record,
    slugify,
    smoke_matrix,
)
from repro.scenarios import cli
from repro.scenarios.registry import (
    parse_workload_spec,
    register_arch,
    register_workload_set,
)
from repro.scenarios.spec import default_cell_name

# The cheapest built-in cell (one unique GEMM shape on a 4x4 array): used
# wherever a test needs a real search without caring which one.
TINY = "smoke-fig10-gemms"


def tiny_scenario() -> Scenario:
    return smoke_matrix().get(TINY)


# --------------------------------------------------------------- strategies
names = st.text(alphabet=string.ascii_lowercase + "0123456789_-",
                min_size=1, max_size=8)
configs = st.builds(
    SearchConfig, name=names,
    metric=st.sampled_from(("edp", "latency", "energy")),
    max_mappings=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
    prune=st.booleans())
finite = st.floats(allow_nan=False, allow_infinity=True)


class TestMatrixProperties:
    @settings(max_examples=50, deadline=None)
    @given(ws=st.lists(names, min_size=1, max_size=4),
           ar=st.lists(names, min_size=1, max_size=4),
           cf=st.lists(configs, min_size=1, max_size=3))
    def test_cross_cardinality_and_row_major_order(self, ws, ar, cf):
        matrix = ScenarioMatrix().cross(ws, ar, cf)
        assert len(matrix) == len(ws) * len(ar) * len(cf)
        expected = [default_cell_name(w, a, c)
                    for w in ws for a in ar for c in cf]
        assert matrix.names() == expected
        # Expansion is deterministic: same inputs, same plan.
        assert ScenarioMatrix().cross(ws, ar, cf).names() == expected

    @settings(max_examples=50, deadline=None)
    @given(ws=st.lists(names, min_size=1, max_size=4),
           ar=st.lists(names, min_size=1, max_size=4),
           cf=st.lists(configs, min_size=1, max_size=2),
           pattern=names)
    def test_filter_is_idempotent_and_order_preserving(self, ws, ar, cf,
                                                       pattern):
        matrix = ScenarioMatrix().cross(ws, ar, cf)
        once = matrix.filter(pattern)
        assert once.filter(pattern).names() == once.names()
        # Survivors are exactly the matches, kept in source-plan order.
        assert once.names() == [s.name for s in matrix
                                if s.matches(pattern)]

    @settings(max_examples=50, deadline=None)
    @given(ws=st.lists(names, min_size=1, max_size=3),
           ar=st.lists(names, min_size=1, max_size=3),
           cf=st.lists(configs, min_size=1, max_size=2,
                       unique_by=lambda c: c.name))
    def test_dedup_is_idempotent_and_first_seen_stable(self, ws, ar, cf):
        # Doubling the plan guarantees duplicates exist.
        matrix = ScenarioMatrix().cross(ws, ar, cf).cross(ws, ar, cf)
        deduped = matrix.dedup()
        assert deduped.dedup().names() == deduped.names()
        assert len(set(deduped.names())) == len(deduped)
        # First-seen order: dedup of the doubled plan equals the ordered
        # unique names of the single plan (the inputs may repeat too).
        single = ScenarioMatrix().cross(ws, ar, cf).names()
        assert deduped.names() == list(dict.fromkeys(single))

    def test_dedup_unions_tags_of_name_identical_cells(self):
        config = SearchConfig(name="c")
        matrix = ScenarioMatrix(scenarios=[
            Scenario("cell", "w", "A", config, tags=("fig13",)),
            Scenario("cell", "w", "A", config, tags=("tables", "fig13")),
        ]).dedup()
        assert len(matrix) == 1
        assert matrix[0].tags == ("fig13", "tables")
        # Both contributing groups' filters keep working after the merge.
        assert matrix.filter("tables").names() == ["cell"]
        assert matrix.filter("fig13").names() == ["cell"]

    def test_dedup_rejects_name_reuse_with_different_content(self):
        matrix = ScenarioMatrix(scenarios=[
            Scenario("cell", "w", "A", SearchConfig(name="c", seed=0)),
            Scenario("cell", "w", "A", SearchConfig(name="c", seed=1)),
        ])
        with pytest.raises(ValueError, match="reused for different"):
            matrix.dedup()

    def test_builtin_tables_filter_selects_the_shared_cells(self):
        # The search-stats-table cells coincide with fig13 cells by name;
        # dedup must keep the "tables" entry point alive.
        assert len(builtin_matrix().filter("tables")) > 0

    def test_filter_matches_tags_case_insensitively(self):
        config = SearchConfig(name="c")
        matrix = ScenarioMatrix(scenarios=[
            Scenario("a", "w", "A", config, tags=("Smoke",)),
            Scenario("b", "w", "A", config, tags=("sweep",)),
        ])
        assert matrix.filter("SMOKE").names() == ["a"]
        assert matrix.filter(None).names() == ["a", "b"]

    def test_get_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ScenarioMatrix().get("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(name="bad", metric="throughput")
        with pytest.raises(ValueError):
            SearchConfig(name="bad", max_mappings=0)

    def test_builtin_matrix_names_are_unique(self):
        matrix = builtin_matrix()
        assert len(set(matrix.names())) == len(matrix)
        assert len(matrix.filter("smoke")) == 5


class TestRecordRoundTrip:
    layer_records = st.builds(
        LayerRecord, workload=names, count=st.integers(1, 64), mapping=names,
        layout=names, macs=st.integers(0, 10**12), compute_cycles=finite,
        stall_cycles=finite, reorder_cycles_exposed=finite,
        total_cycles=finite, total_energy_pj=finite, utilization=finite,
        practical_utilization=finite)
    records = st.builds(
        ScenarioRecord, scenario=names, workload_set=names, arch=names,
        config=st.fixed_dictionaries({
            "name": names, "metric": st.sampled_from(("edp", "latency")),
            "max_mappings": st.integers(1, 500),
            "seed": st.integers(0, 2**31), "prune": st.booleans()}),
        seed=st.integers(0, 2**31), key=names,
        totals=st.dictionaries(names, finite, max_size=4),
        layers=st.lists(layer_records, max_size=3),
        search=st.fixed_dictionaries({"evaluations": st.integers(0, 10**6)}),
        repro_version=names, workers=st.integers(1, 8), elapsed_s=finite)

    @settings(max_examples=50, deadline=None)
    @given(record=records)
    def test_json_round_trip_is_exact(self, record):
        clone = ScenarioRecord.from_json(record.to_json())
        assert clone == record
        assert diff_payloads(record.deterministic_payload(),
                             clone.deterministic_payload()) == []

    @settings(max_examples=50, deadline=None)
    @given(record=records)
    def test_deterministic_payload_drops_run_metadata(self, record):
        payload = record.deterministic_payload()
        for volatile in ("workers", "elapsed_s", "repro_version", "key"):
            assert volatile not in payload
        assert payload["seed"] == record.seed

    def test_diff_payloads_reports_differences(self):
        a = {"x": 1.0, "nested": {"y": [1, 2]}}
        b = {"x": 2.0, "nested": {"y": [1, 3]}, "extra": True}
        diffs = diff_payloads(a, b)
        assert any("x:" in d for d in diffs)
        assert any("extra" in d for d in diffs)
        assert any("nested.y[1]" in d for d in diffs)
        assert diff_payloads(a, json.loads(json.dumps(a))) == []


class TestResultCache:
    def test_artifact_round_trip_and_cache_hit(self, tmp_path):
        scenario = tiny_scenario()
        first = run_cell(scenario, runs_dir=tmp_path)
        assert not first.cached
        assert first.path is not None and first.path.exists()
        second = run_cell(scenario, runs_dir=tmp_path)
        assert second.cached
        assert (second.record.deterministic_payload()
                == first.record.deterministic_payload())
        assert not run_cell(scenario, runs_dir=tmp_path, force=True).cached

    def test_stale_key_forces_recompute(self, tmp_path):
        scenario = tiny_scenario()
        first = run_cell(scenario, runs_dir=tmp_path)
        stale = ScenarioRecord.read(first.path)
        stale.key = "0" * 64
        stale.write(first.path)
        again = run_cell(scenario, runs_dir=tmp_path)
        assert not again.cached
        assert again.record.key == first.record.key

    def test_corrupt_artifact_forces_recompute(self, tmp_path):
        scenario = tiny_scenario()
        first = run_cell(scenario, runs_dir=tmp_path)
        first.path.write_text("{not json")
        assert not run_cell(scenario, runs_dir=tmp_path).cached

    def test_slug_colliding_names_get_distinct_artifacts(self, tmp_path):
        from repro.scenarios.runner import artifact_path

        config = SearchConfig(name="c")
        spaced = Scenario("a b", "resnet50[:1]", "FEATHER", config)
        dashed = Scenario("a-b", "resnet50[:1]", "FEATHER", config)
        assert artifact_path(tmp_path, spaced) != artifact_path(tmp_path,
                                                                dashed)
        # Slug-safe names keep the clean stem the docs reference.
        assert artifact_path(tmp_path, dashed).name == "a-b.json"

    def test_run_matrix_writes_summaries_and_caches(self, tmp_path):
        first = run_matrix(smoke_matrix(), pattern=TINY, runs_dir=tmp_path)
        assert len(first.results) == 1 and first.cached_count == 0
        assert first.summary_csv.exists() and first.summary_md.exists()
        assert TINY in first.summary_csv.read_text()
        second = run_matrix(smoke_matrix(), pattern=TINY, runs_dir=tmp_path)
        assert second.cached_count == 1


class TestSeedAndDeterminism:
    def test_record_embeds_seed_and_version(self):
        record = run_cell(tiny_scenario()).record
        assert record.seed == tiny_scenario().config.seed
        assert record.config["seed"] == record.seed
        assert record.repro_version == repro.__version__
        assert len(record.key) == 64

    def test_cell_key_tracks_the_searched_content(self):
        scenario = tiny_scenario()
        assert cell_key(scenario) == cell_key(scenario)
        reseeded = Scenario(
            name=scenario.name, workload_set=scenario.workload_set,
            arch=scenario.arch, tags=scenario.tags,
            config=SearchConfig(name="reseeded", metric="latency",
                                max_mappings=scenario.config.max_mappings,
                                seed=scenario.config.seed + 1))
        assert cell_key(reseeded) != cell_key(scenario)

    def test_rerun_with_embedded_seed_is_deterministic_across_workers(self):
        record = run_cell(tiny_scenario()).record
        rebuilt = scenario_from_record(record)
        assert rebuilt.config.seed == record.seed
        for workers in (1, 2):
            replay = rerun_record(record, workers=workers)
            assert (replay.deterministic_payload()
                    == record.deterministic_payload()), (
                f"re-run with workers={workers} drifted")

    def test_nondefault_seed_reaches_the_sampler(self):
        # The seed must actually steer the search: after stripping every
        # field that *names* the seed, the two payloads still have to
        # differ (different seeds sample different mapping candidates).
        # This catches the regression where run_cell stops forwarding the
        # seed to its search request — both runs would then be seed-0 clones.
        def stripped(seed):
            scenario = Scenario(
                "seed-probe", "resnet50[:2]", "FEATHER",
                SearchConfig(name="s", max_mappings=8, seed=seed))
            payload = run_cell(scenario).record.deterministic_payload()
            for named in ("config", "seed"):
                payload.pop(named)
            return payload

        assert stripped(0) != stripped(7)
        # And a reseeded cell still replays exactly from its record.
        reseeded = Scenario("seed-b", "resnet50[:2]", "FEATHER",
                            SearchConfig(name="s", max_mappings=8, seed=7))
        record = run_cell(reseeded).record
        replay = rerun_record(record, workers=2)
        assert (replay.deterministic_payload()
                == record.deterministic_payload())


class TestRegistry:
    def test_slice_spec_parsing(self):
        assert parse_workload_spec("resnet50") == ("resnet50", None)
        assert parse_workload_spec("resnet50[:4]") == ("resnet50", 4)
        full = resolve_workload_set("resnet50")
        assert resolve_workload_set("resnet50[:4]") == full[:4]

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(ValueError, match="unknown workload set"):
            resolve_workload_set("alexnet")
        with pytest.raises(ValueError, match="unknown architecture"):
            resolve_arch("TPUv9")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_workload_set("resnet50", list)
        with pytest.raises(ValueError):
            register_arch("FEATHER", lambda: None)
        with pytest.raises(ValueError):
            register_workload_set("bad[:2]", list)

    def test_batch_variants_carry_the_batch_dimension(self):
        for layer in resolve_workload_set("resnet50_batch4[:3]"):
            assert layer.n == 4
            assert layer.name.endswith("_n4")

    def test_bert_head_sweep_is_skewed(self):
        gemms = resolve_workload_set("bert_head_sweep")
        assert len(gemms) == 8
        longest = max(gemms, key=lambda g: g.m)
        assert longest.m / longest.k >= 8  # genuinely skewed shapes

    def test_mobilenet_sets_partition_by_kind(self):
        from repro.workloads.conv import LayerKind

        depthwise = resolve_workload_set("mobilenet_v3_depthwise")
        pointwise = resolve_workload_set("mobilenet_v3_pointwise")
        assert depthwise and all(l.kind is LayerKind.DEPTHWISE
                                 for l in depthwise)
        assert pointwise and all(l.kind is LayerKind.POINTWISE
                                 for l in pointwise)


class TestCli:
    def test_list_shows_matrix(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "smoke-resnet50" in out and "scenario(s)" in out

    def test_list_unmatched_filter_fails(self, capsys):
        assert cli.main(["list", "--filter", "no-such-cell"]) == 1

    def test_run_twice_then_diff(self, tmp_path, capsys):
        args = ["run", "--filter", TINY, "--runs-dir", str(tmp_path)]
        assert cli.main(args) == 0
        assert "0 from cache" in capsys.readouterr().out
        assert cli.main(args) == 0
        assert "1 from cache" in capsys.readouterr().out
        record_path = tmp_path / f"{slugify(TINY)}.json"
        assert record_path.exists()
        assert cli.main(["diff", str(record_path), str(record_path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_flags_divergent_records(self, tmp_path, capsys):
        cli.main(["run", "--filter", TINY, "--runs-dir", str(tmp_path)])
        capsys.readouterr()
        record_path = tmp_path / f"{slugify(TINY)}.json"
        tampered = ScenarioRecord.read(record_path)
        tampered.totals["total_cycles"] += 1.0
        tampered_path = tmp_path / "tampered.json"
        tampered.write(tampered_path)
        assert cli.main(["diff", str(record_path), str(tampered_path)]) == 1
        assert "totals.total_cycles" in capsys.readouterr().out

    def test_records_with_the_dropped_vectorize_field_still_read(
            self, tmp_path):
        args = ["run", "--filter", TINY, "--runs-dir", str(tmp_path)]
        assert cli.main(args) == 0
        path = tmp_path / f"{slugify(TINY)}.json"
        record = ScenarioRecord.read(path)
        legacy = dict(record.to_dict(), vectorize=False)
        path.write_text(json.dumps(legacy))
        assert ScenarioRecord.read(path) == record


class TestBackendCells:
    """Scenario cells running on the simulator / crossval backends."""

    SIM = "sim-micro-gemms"
    XVAL = "crossval-micro-gemms"

    def test_scenario_validates_backend(self):
        with pytest.raises(ValueError, match="backend"):
            Scenario("bad", "micro_convs", "FEATHER-4x4",
                     SearchConfig(name="c"), backend="quantum")

    def test_simulator_cell_runs_and_replays(self):
        from repro.scenarios import simulator_matrix

        scenario = simulator_matrix().get(self.SIM)
        record = run_cell(scenario).record
        assert record.backend == "simulator"
        assert record.search["backend"] == "simulator"
        assert record.totals["total_cycles"] > 0
        replay = rerun_record(record)
        assert (replay.deterministic_payload()
                == record.deterministic_payload())

    def test_crossval_cell_embeds_deltas(self):
        from repro.scenarios import crossval_matrix

        scenario = crossval_matrix().get(self.XVAL)
        record = run_cell(scenario).record
        assert record.backend == "crossval"
        crossval = record.crossval
        assert crossval is not None
        assert crossval["rir_claim_holds"] is True
        assert len(crossval["cells"]) == len(record.layers)
        for cell, layer in zip(crossval["cells"], record.layers):
            assert cell["workload"] == layer.workload
            # The record's totals are the analytical side, cell for cell.
            assert cell["analytical_cycles"] == layer.total_cycles
            assert cell["cycle_delta"] == pytest.approx(
                cell["simulated_cycles"] / cell["analytical_cycles"] - 1.0)

    def test_backend_override_gets_its_own_artifact(self, tmp_path):
        scenario = smoke_matrix().get(TINY)  # analytical by default
        analytical = run_cell(scenario, runs_dir=tmp_path)
        simulated = run_cell(scenario, runs_dir=tmp_path,
                             backend="simulator")
        assert analytical.path != simulated.path
        assert simulated.path.name.endswith("--simulator.json")
        assert simulated.record.backend == "simulator"
        assert analytical.record.key != simulated.record.key
        # Both artifacts now satisfy their own backend from cache.
        assert run_cell(scenario, runs_dir=tmp_path).cached
        assert run_cell(scenario, runs_dir=tmp_path,
                        backend="simulator").cached

    def test_cli_run_backend_override(self, tmp_path, capsys):
        args = ["run", "--filter", TINY, "--runs-dir", str(tmp_path),
                "--backend", "simulator"]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "(simulator)" in out
        assert (tmp_path / f"{slugify(TINY)}--simulator.json").exists()

    def test_cli_surfaces_simulator_bound_errors(self, tmp_path, capsys):
        args = ["run", "--filter", "smoke-resnet50", "--runs-dir",
                str(tmp_path), "--backend", "simulator"]
        assert cli.main(args) == 1
        assert "micro-cells" in capsys.readouterr().out

    def test_schema1_record_defaults_to_analytical(self):
        scenario = smoke_matrix().get(TINY)
        record = run_cell(scenario).record
        data = record.to_dict()
        del data["backend"], data["crossval"]
        legacy = ScenarioRecord.from_dict(data)
        assert legacy.backend == "analytical"
        assert legacy.crossval is None
