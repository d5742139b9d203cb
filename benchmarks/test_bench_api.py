"""Benchmark: warm-:class:`Session` throughput vs per-call searches.

The façade's pitch is amortization: a long-lived session keeps the
evaluation cache, the per-configuration mappers and the worker pool warm
across requests, while a per-call search (``fresh_cache=True``: a private
evaluation cache, no mapper memo — what the scenario runner issues so its
per-call counters stay deterministic) rebuilds that state every call.
This benchmark measures both on the deduplicated ResNet-50 co-search and
asserts the session serves repeat traffic measurably faster — with
bit-identical totals.  ``tools/bench_guard.py`` gates CI on the same
comparison.
"""

from __future__ import annotations

import time

import pytest

from repro.api import SearchRequest, Session

MAX_MAPPINGS = 24
REPEATS = 5
#: CI floor; locally the warm session is ~25x faster per request.
MIN_WARM_SPEEDUP = 3.0


def _print_header(title: str) -> None:
    line = "=" * len(title)
    print(f"\n{line}\n{title}\n{line}")


@pytest.mark.benchmark(group="api")
def test_warm_session_beats_per_call_search_model(benchmark, best_of):
    request = SearchRequest(workloads="resnet50", arch="FEATHER",
                            model="resnet50", max_mappings=MAX_MAPPINGS)
    per_call_request = SearchRequest(
        workloads="resnet50", arch="FEATHER", model="resnet50",
        max_mappings=MAX_MAPPINGS, workers=1, fresh_cache=True)

    # Per-call: every call pays sampling + evaluation again.
    with Session(name="bench-per-call") as session:
        t0 = time.perf_counter()
        per_call = [session.run(per_call_request).cost
                    for _ in range(REPEATS)]
        per_call_s = (time.perf_counter() - t0) / REPEATS

    with Session(name="bench") as session:
        cold = benchmark.pedantic(session.run, args=(request,),
                                  iterations=1, rounds=1)
        t0 = time.perf_counter()
        warm = [session.run(request) for _ in range(REPEATS)]
        warm_s = (time.perf_counter() - t0) / REPEATS
        described = session.describe()

    _print_header("Warm Session vs per-call search "
                  "(ResNet-50 co-search on FEATHER)")
    print(f"{'path':>24}  {'s/request':>10}  {'speedup':>8}")
    print(f"{'per-call (fresh cache)':>24}  {per_call_s:10.4f}  "
          f"{'1.00x':>8}")
    print(f"{'Session (cold, 1st)':>24}  "
          f"{cold.elapsed_s:10.4f}  {per_call_s / max(cold.elapsed_s, 1e-9):7.2f}x")
    print(f"{'Session (warm)':>24}  {warm_s:10.4f}  "
          f"{per_call_s / max(warm_s, 1e-9):7.2f}x")
    print(f"session state: {described['evaluation_cache_entries']} cached "
          f"evaluations, {described['executed']} executed / "
          f"{described['requests']} requests")

    # Identity first: a fast wrong answer is a regression.
    for response in (cold, *warm):
        assert response.totals["total_cycles"] == per_call[0].total_cycles
        assert (response.totals["total_energy_pj"]
                == per_call[0].total_energy_pj)
    # All per-call runs agree with each other (determinism).
    assert {c.total_cycles for c in per_call} == {per_call[0].total_cycles}

    assert per_call_s / warm_s >= MIN_WARM_SPEEDUP, (
        f"warm session {per_call_s / warm_s:.2f}x below the "
        f"{MIN_WARM_SPEEDUP:.1f}x floor")


@pytest.mark.benchmark(group="api")
def test_session_cache_reuse_across_distinct_requests(best_of):
    """A *different* request over the same shapes also gets the warm cache
    (the reuse is keyed on structure, not on request identity)."""
    with Session(name="bench-reuse") as session:
        first = session.run(SearchRequest(workloads="resnet50",
                                          arch="FEATHER",
                                          max_mappings=MAX_MAPPINGS))
        assert first.search["cache_misses"] > 0
        relabeled = session.run(SearchRequest(workloads="resnet50",
                                              arch="FEATHER",
                                              model="same-shapes-new-name",
                                              max_mappings=MAX_MAPPINGS))
    assert relabeled.search["cache_misses"] == 0
    assert relabeled.totals == first.totals
    print(f"\ncache reuse across distinct requests: zero evaluation-cache "
          f"misses on the relabeled request "
          f"({first.search['cache_misses']} misses on first contact)")
