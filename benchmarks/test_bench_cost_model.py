"""Microbenchmark: scalar vs vectorized cost-model evaluation.

Times the innermost co-search kernel — scoring one mapping under every
candidate layout — both ways over the deduplicated ResNet-50 conv shapes:

* **scalar** — one ``CostModel.evaluate`` call per (mapping, layout), the
  test oracle's ``evaluate_layouts`` (dict-per-coordinate addressing,
  per-cycle Python concordance);
* **batched** — one ``CostModel.evaluate_mapping_batch`` call per mapping
  (compiled layouts + ``(cycles, lanes, ndims)`` footprints +
  ``analyze_concordance_batch``), returning score records; reports are
  assembled from them after timing, for the identity check.

Two architectures are measured: SIGMA with off-chip reordering (the
concordance analysis dominates) and FEATHER/RIR (concordance is skipped, so
the win is amortizing the mapping-level quantities).  Both must produce
identical reports; the batched path must be measurably faster on each.
``tools/bench_guard.py`` runs the same comparison as a CI gate.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import sigma_like
from repro.dataflow.space import MappingSpace
from repro.layout.library import conv_layout_library
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cosearch import unique_workloads
from repro.layoutloop.cost_model import CostModel, clear_slowdown_memo
from repro.workloads.resnet50 import resnet50_layers

from oracle import evaluate_layouts

MAPPINGS_PER_SHAPE = 8


def _workbench():
    shapes = [wl for wl, _ in
              unique_workloads(resnet50_layers(include_fc=False))]
    layouts = conv_layout_library()
    cases = []
    for shape in shapes:
        space = MappingSpace(shape, 16, 16)
        for mapping in space.sample(MAPPINGS_PER_SHAPE, seed=0):
            cases.append((shape, mapping))
    return cases, layouts


def _run_scalar(model: CostModel, cases, layouts):
    return [evaluate_layouts(model, wl, mapping, layouts)
            for wl, mapping in cases]


def _run_batched(model: CostModel, cases, layouts):
    # Every run times the kernel, not the previous run's slowdown memo.
    clear_slowdown_memo()
    return [model.evaluate_mapping_batch(wl, mapping, layouts)
            for wl, mapping in cases]


@pytest.mark.benchmark(group="cost-model")
@pytest.mark.parametrize("arch_fn,min_speedup", [
    pytest.param(lambda: sigma_like(reorder="offchip"), 3.0, id="offchip"),
    pytest.param(feather_arch, 1.2, id="feather-rir"),
])
def test_batched_evaluate_speedup(benchmark, arch_fn, min_speedup, best_of):
    arch = arch_fn()
    model = CostModel(arch)
    cases, layouts = _workbench()
    evals = len(cases) * len(layouts)

    scalar_s, scalar_reports = best_of(lambda: _run_scalar(model, cases, layouts))
    batched_s, batched_reports = benchmark.pedantic(
        lambda: best_of(lambda: _run_batched(model, cases, layouts)),
        iterations=1, rounds=1)

    title = (f"Cost-model kernel — {arch.name}: {len(cases)} (shape, mapping) "
             f"cases x {len(layouts)} layouts = {evals} evaluations")
    line = "=" * len(title)
    print(f"\n{line}\n{title}\n{line}")
    print(f"{'path':10s} {'seconds':>8s} {'us/eval':>9s} {'evals/s':>10s}")
    for name, seconds in (("scalar", scalar_s), ("batched", batched_s)):
        print(f"{name:10s} {seconds:8.3f} {seconds / evals * 1e6:9.1f} "
              f"{evals / seconds:10.0f}")
    print(f"speedup: {scalar_s / batched_s:.2f}x")

    batched_reports = [[record.report(wl, mapping, layout)
                        for record, layout in zip(records, layouts)]
                       for records, (wl, mapping) in zip(batched_reports,
                                                         cases)]
    assert batched_reports == scalar_reports  # bit-identical, report by report
    assert scalar_s >= min_speedup * batched_s, (
        f"batched path ({batched_s:.3f}s) not measurably faster than scalar "
        f"({scalar_s:.3f}s) on {arch.name}")
