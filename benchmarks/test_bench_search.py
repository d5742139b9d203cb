"""Benchmark: co-search engine throughput on the deduplicated ResNet-50 search.

Compares four ways of running the Fig. 13-style whole-model co-search on
FEATHER over all ResNet-50 conv layers:

* **naive**      — the pre-engine behaviour: a fresh mapper per layer, no
  shape deduplication, no pruning, no evaluation cache;
* **scalar**     — ``oracle.search_model``: the engine (dedup + pruning +
  memoization) on the scalar test oracle (``tests/oracle.py``: scalar
  cost-model evaluations, one bound per mapping, the materializing
  sampler) — the scalar bounds keep this row the reference it claims to
  be, since the bulk bound pipeline speeds up the scalar-evaluation
  engine itself by ~4x;
* **engine**     — ``search_model`` serial on the production path
  (compiled layouts, batched evaluation, bulk bounds, streaming mapping
  sampling);
* **engine-par** — ``search_model`` with worker processes.

All four must produce bit-identical totals; the engine must beat the naive
path outright and the vectorized kernel must beat the scalar oracle by at
least 5x at ``workers=1``.  The parallel row is recorded for the
serial-vs-parallel throughput history — on multi-core hosts it adds a
further speedup, on a single-core CI box process startup can dominate, so
no ordering is asserted between the two engine rows.
"""

from __future__ import annotations

import time

import pytest

from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cosearch import LayerChoice, ModelCost, unique_workloads
from repro.search.engine import search_model
from repro.workloads.resnet50 import resnet50_layers

import oracle

MAX_MAPPINGS = 24


def _print_header(title: str) -> None:
    line = "=" * len(title)
    print(f"\n{line}\n{title}\n{line}")


def _naive_cosearch(layers) -> ModelCost:
    """Per-layer search exactly as the seed repo ran it: no dedup, no
    pruning, no cache reuse across layers, scalar cost model."""
    cost = ModelCost(arch="FEATHER", model="resnet50")
    for layer in layers:
        mapper = oracle.ScalarMapper(feather_arch(),
                                     max_mappings=MAX_MAPPINGS, prune=False)
        cost.layer_choices.append(LayerChoice(result=mapper.search(layer),
                                              count=1))
    return cost


@pytest.mark.benchmark(group="search")
def test_search_engine_speedup_resnet50(benchmark, best_of):
    layers = resnet50_layers(include_fc=False)

    t0 = time.perf_counter()
    naive = _naive_cosearch(layers)
    naive_s = time.perf_counter() - t0

    # Scalar engine path (best of two runs, to de-noise the ratio).
    scalar_s, scalar = best_of(
        lambda: oracle.search_model(feather_arch(), layers,
                                    model_name="resnet50",
                                    max_mappings=MAX_MAPPINGS))

    engine = benchmark.pedantic(
        search_model, args=(feather_arch(), layers),
        kwargs={"model_name": "resnet50", "max_mappings": MAX_MAPPINGS},
        iterations=1, rounds=1)
    # The >= 5x floor below is an acceptance gate; take the best of three
    # vectorized runs (pedantic + 2) so a single scheduler hiccup on a busy
    # CI box cannot fail it spuriously.
    second_s, _ = best_of(
        lambda: search_model(feather_arch(), layers, model_name="resnet50",
                             max_mappings=MAX_MAPPINGS), rounds=2)
    engine_s = min(engine.search_stats.elapsed_s, second_s)

    t0 = time.perf_counter()
    parallel = search_model(feather_arch(), layers, model_name="resnet50",
                            max_mappings=MAX_MAPPINGS, workers=2)
    parallel_s = time.perf_counter() - t0

    stats = engine.search_stats
    _print_header("Co-search engine throughput — ResNet-50 on FEATHER "
                  f"({len(layers)} layers, {stats.layers_unique} unique, "
                  f"max_mappings={MAX_MAPPINGS})")
    print(f"{'configuration':22s} {'seconds':>8s} {'layers/s':>9s} {'speedup':>8s}")
    for name, seconds in (("naive serial", naive_s),
                          ("scalar engine", scalar_s),
                          ("vectorized engine", engine_s),
                          ("engine workers=2", parallel_s)):
        print(f"{name:22s} {seconds:8.3f} {len(layers) / seconds:9.1f} "
              f"{naive_s / seconds:7.2f}x")
    print(f"kernel speedup (scalar/vectorized at workers=1): "
          f"{scalar_s / engine_s:.2f}x")
    print(f"engine bookkeeping: {stats.evaluations} evaluations, "
          f"{stats.pruned} pruned, cache {stats.cache}")

    # Exactness. Parallel vs serial engine is bit-identical (same per-shape
    # searches, same aggregation order).  The naive path sums duplicates
    # layer by layer instead of once-per-shape times count, so its float
    # totals may differ in the last ulp — compare the winning reports per
    # unique shape exactly and the totals to 1e-12 relative.
    naive_by_shape = {c.result.workload: c.result for c in naive.layer_choices}
    for choice in engine.layer_choices:
        naive_result = naive_by_shape[choice.result.workload]
        assert choice.result.best_report == naive_result.best_report
        assert choice.result.best_mapping == naive_result.best_mapping
    assert engine.total_cycles == naive.total_cycles
    assert engine.total_energy_pj == pytest.approx(naive.total_energy_pj,
                                                   rel=1e-12)
    assert parallel.total_cycles == engine.total_cycles
    assert parallel.total_energy_pj == engine.total_energy_pj

    # The vectorized kernel is exactly equivalent to the scalar oracle:
    # same best (mapping, layout) per shape, same metric values, bit-equal
    # totals.
    assert engine.total_cycles == scalar.total_cycles
    assert engine.total_energy_pj == scalar.total_energy_pj
    for fast, slow in zip(engine.layer_choices, scalar.layer_choices):
        assert fast.result.best_report == slow.result.best_report
        assert fast.result.best_mapping == slow.result.best_mapping
        assert fast.result.best_layout == slow.result.best_layout
        assert fast.result.best_value == slow.result.best_value

    # Throughput: dedup + pruning + memoization must win outright, and the
    # vectorized kernel must deliver >= 5x over the PR-1 scalar path.
    assert engine_s < naive_s, (
        f"engine ({engine_s:.3f}s) not faster than naive ({naive_s:.3f}s)")
    assert scalar_s >= 5.0 * engine_s, (
        f"vectorized kernel ({engine_s:.3f}s) not >= 5x faster than the "
        f"scalar oracle ({scalar_s:.3f}s)")
    assert stats.pruned > 0
    assert stats.layers_unique < stats.layers_total


@pytest.mark.benchmark(group="search")
def test_search_cache_reuse_across_metrics(benchmark):
    """A second search over the same shapes with a different objective reuses
    the evaluation cache (cost reports are metric-independent)."""
    from repro.search import EvaluationCache

    layers = resnet50_layers(include_fc=False)
    shapes = [wl for wl, _ in unique_workloads(layers)]
    cache = EvaluationCache()

    def run_both():
        edp = search_model(feather_arch(), shapes, metric="edp",
                           max_mappings=12, cache=cache)
        latency = search_model(feather_arch(), shapes, metric="latency",
                               max_mappings=12, cache=cache)
        return edp, latency

    edp, latency = benchmark.pedantic(run_both, iterations=1, rounds=1)
    _print_header("Evaluation-cache reuse across objectives (EDP then latency)")
    print(f"EDP pass     : {edp.search_stats}")
    print(f"latency pass : {latency.search_stats}")

    assert latency.search_stats.cache.hits > 0
    assert latency.total_cycles <= edp.total_cycles
