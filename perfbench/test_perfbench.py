"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import mix  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import Tracer, per_layer_units, per_layer_values  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_serve_mix_is_fixed_by_its_seed():
    assert mix.serve_prefix(7, 400) == mix.serve_prefix(7, 400)
    assert mix.serve_prefix(7, 400) != mix.serve_prefix(8, 400)


def test_serve_mix_shares():
    items = mix.serve_prefix(0, 4000)
    kinds = [kind if case is None else "malformed"
             for kind, _, _, case in items]
    assert 0.55 < kinds.count("search") / len(items) < 0.65
    assert 0.30 < kinds.count("eval") / len(items) < 0.40
    assert 0.03 < kinds.count("malformed") / len(items) < 0.07
    cases = {case for _, _, _, case in items if case is not None}
    assert cases == {name for name, _, _, _ in mix.MALFORMED}


def test_grid_and_simulate_orders_are_fixed_by_their_seed():
    assert mix.grid_order(3) == mix.grid_order(3)
    assert sorted(mix.grid_order(3)) == sorted(mix.grid_cells())
    assert len(mix.grid_cells()) == 11
    assert mix.sim_order(3) == mix.sim_order(3)
    assert mix.sim_order(3) != mix.sim_order(4)
    a = mix.sim_tensors(3, "direct/AW4/x", (2, 3), (3, 4))
    b = mix.sim_tensors(3, "direct/AW4/x", (2, 3), (3, 4))
    c = mix.sim_tensors(4, "direct/AW4/x", (2, 3), (3, 4))
    assert all((x == y).all() for x, y in zip(a, b))
    assert any((x != y).any() for x, y in zip(a, c))


def test_benchmark_json_names_every_emitted_metric_with_its_unit():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == per_layer_units()
    values = per_layer_values(Tracer(), {}, [])
    assert set(values) | {"trace.overhead_pct"} == set(per_layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "cosearch-grid", "serve-mix", "simulate"]


def test_predictions_name_only_benchmark_metrics():
    predictions = json.loads((HERE / "predictions.json").read_text())
    end_to_end = set(END_TO_END_UNITS) | {"bench.error_rate"}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for layer in predictions["layers"].values():
        assert set(layer["metrics"]) <= set(per_layer_units())
        for metric, workload in layer["moves"]:
            assert metric in end_to_end
            assert workload.split(" ")[0] in workloads


def test_tracer_restores_every_patched_attribute():
    from repro.api.session import Session
    from repro.backends.systolic import SystolicBackend
    from repro.layoutloop import cost_model
    from repro.layoutloop.mapper import Mapper

    before = (Mapper.search, Session.submit,
              cost_model.analyze_concordance_batch,
              "evaluate_mapping" in vars(SystolicBackend))
    tracer = Tracer()
    tracer.install()
    assert tracing.installed() is tracer
    assert Mapper.search is not before[0]
    assert cost_model.analyze_concordance_batch is not before[2]
    tracer.uninstall()
    assert tracing.installed() is None
    after = (Mapper.search, Session.submit,
             cost_model.analyze_concordance_batch,
             "evaluate_mapping" in vars(SystolicBackend))
    assert after == before


def test_cold_runs_start_empty_and_report_their_spans():
    memo = {}

    def run():
        seen = dict(memo)
        memo["filled"] = True
        tracer.sample("cold", 1.0)
        return {"seen": seen}

    tracer = Tracer()
    tracer.install()
    try:
        tracer.sample("cold", 2.0)
        assert workloads._cold(run) == {"seen": {}}
        assert workloads._cold(run) == {"seen": {}}
    finally:
        tracer.uninstall()
    assert memo == {}
    assert sorted(tracer.samples["cold"]) == [1.0, 1.0, 2.0]
    assert workloads._cold(lambda: 1 / 0)["error"].startswith(
        "ZeroDivisionError")


def test_simulate_run_prints_every_end_to_end_metric():
    done = _run("--workload", "simulate", "--seed", "1", "--seconds", "0",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "simulate", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
