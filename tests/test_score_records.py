"""The co-search scores candidates with compact records, not reports.

Three guarantees, property-tested on random inputs:

* a :class:`~repro.layoutloop.cost_model.ScoreRecord`'s ``total_cycles``,
  ``total_energy_pj`` and ``edp`` equal the values of the report it
  assembles bit for bit (and that report equals the scalar oracle's), for
  conv and GEMM mappings on every architecture preset;
* the memoized per-layout slowdowns equal a fresh kernel run for mappings
  that share a streaming parallelism but differ in loop order and tile;
* :meth:`EvaluationCache.evaluate_batch` keeps exactly the hit/miss
  accounting of the scalar :meth:`EvaluationCache.evaluate` loop.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import medusa_like, mtia_like, sigma_like, tpu_like
from repro.dataflow.mapping import (
    CONV_REDUCTION_DIMS,
    GEMM_REDUCTION_DIMS,
    Mapping,
    ParallelSpec,
    TileLevel,
)
from repro.layout.library import conv_layout_library, gemm_layout_library
from repro.layoutloop import cost_model as cost_model_module
from repro.layoutloop.cost_model import (
    BoundedMemo,
    CostModel,
    ScoreRecord,
    clear_slowdown_memo,
)
from repro.layoutloop.mapper import Mapper
from repro.scenarios.registry import arch_names, resolve_arch
from repro.search.cache import EvaluationCache
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

_CONV_ORDER = ("N", "M", "C", "R", "S", "P", "Q")
_GEMM_ORDER = ("M", "K", "N")


def _bits(value: float) -> str:
    return float(value).hex()


@st.composite
def _workload(draw):
    if draw(st.booleans()):
        return ConvLayerSpec(
            name=draw(st.sampled_from(("a", "b"))),
            m=draw(st.integers(1, 48)), c=draw(st.integers(1, 48)),
            h=draw(st.integers(3, 16)), w=draw(st.integers(3, 16)),
            r=draw(st.sampled_from((1, 3))), s=draw(st.sampled_from((1, 3))),
            stride=draw(st.sampled_from((1, 2))))
    return GemmSpec(name=draw(st.sampled_from(("a", "b"))),
                    m=draw(st.integers(1, 96)), k=draw(st.integers(1, 96)),
                    n=draw(st.integers(1, 96)))


def _layouts(workload):
    if isinstance(workload, ConvLayerSpec):
        return conv_layout_library()
    return gemm_layout_library()


class TestRecordMetrics:
    @settings(max_examples=40, deadline=None)
    @given(workload=_workload(), arch_name=st.sampled_from(arch_names()),
           seed=st.integers(0, 50))
    def test_metrics_equal_assembled_report_bit_for_bit(self, workload,
                                                        arch_name, seed):
        arch = resolve_arch(arch_name)
        model = CostModel(arch)
        mapper = Mapper(arch, max_mappings=3, seed=seed)
        layouts = mapper.candidate_layouts(workload)
        for mapping in mapper.candidate_mappings(workload):
            records = model.evaluate_mapping_batch(workload, mapping, layouts)
            for layout, record in zip(layouts, records):
                report = record.report(workload, mapping, layout)
                assert _bits(record.total_cycles) == _bits(report.total_cycles)
                assert (_bits(record.total_energy_pj)
                        == _bits(report.total_energy_pj))
                assert _bits(record.edp) == _bits(report.edp)
                assert record.energy_breakdown_pj == report.energy_breakdown_pj
                assert report == model.evaluate(workload, mapping, layout)
                assert model.score(workload, mapping, layout) == record

    def test_report_carries_the_callers_labels_and_a_fresh_breakdown(self):
        model = CostModel(sigma_like(reorder="offchip"))
        first = ConvLayerSpec(name="first", m=16, c=16, h=8, w=8, r=3, s=3)
        second = replace(first, name="second")
        mapping = Mapper(model.arch, max_mappings=1).candidate_mappings(
            first)[0]
        layout = conv_layout_library()[0]
        cache = EvaluationCache()
        (record, hit), = cache.evaluate_batch(model, first, mapping, [layout])
        (again, rehit), = cache.evaluate_batch(model, second,
                                               replace(mapping, name="other"),
                                               [layout])
        assert (hit, rehit) == (False, True) and again is record
        report = again.report(second, replace(mapping, name="other"), layout)
        assert (report.workload, report.mapping) == ("second", "other")
        report.energy_breakdown_pj["mac"] = -1.0
        assert record.report(first, mapping, layout).energy_breakdown_pj[
            "mac"] != -1.0


@st.composite
def _shared_parallelism(draw):
    """A workload plus mappings drawn from one or two streaming
    parallelisms, each shared by mappings with different loop orders,
    tiles and broadcast (non-streaming) degrees."""
    if draw(st.booleans()):
        workload = ConvLayerSpec(
            name="conv", m=draw(st.integers(4, 32)),
            c=draw(st.integers(2, 32)), h=draw(st.integers(4, 14)),
            w=draw(st.integers(4, 14)), r=3, s=3,
            stride=draw(st.sampled_from((1, 2))))
        degree = {d: st.integers(1, 3 if d in "CPQ" else 2) for d in "CPQRS"}
        broadcast = "M"
        order, reduction = _CONV_ORDER, CONV_REDUCTION_DIMS
    else:
        workload = GemmSpec(name="gemm", m=draw(st.integers(4, 64)),
                            k=draw(st.integers(4, 64)),
                            n=draw(st.integers(4, 64)))
        degree = {d: st.integers(1, 8) for d in "MK"}
        broadcast = "N"
        order, reduction = _GEMM_ORDER, GEMM_REDUCTION_DIMS
    groups = [{d: draw(strategy) for d, strategy in degree.items()}
              for _ in range(draw(st.integers(1, 2)))]
    mappings, used = [], set()
    for index in range(draw(st.integers(2, 5))):
        streaming = groups[draw(st.integers(0, len(groups) - 1))]
        used.add(tuple(streaming.values()))
        extra = draw(st.integers(1, 2))
        parallel = tuple(ParallelSpec(d, n) for d, n in streaming.items()
                         if n > 1) + ((ParallelSpec(broadcast, extra),)
                                      if extra > 1 else ())
        tile = TileLevel.of(**{d: draw(st.integers(1, 4)) for d in order})
        mappings.append(Mapping(
            name=f"m{index}", array_rows=16, array_cols=16,
            parallel=parallel, tile=tile,
            order=tuple(draw(st.permutations(order))),
            reduction_dims=reduction))
    return workload, mappings, len(used)


class TestMemoizedSlowdowns:
    @settings(max_examples=60, deadline=None)
    @given(case=_shared_parallelism(),
           arch_fn=st.sampled_from((lambda: sigma_like(reorder="offchip"),
                                    medusa_like, mtia_like, tpu_like)))
    def test_memo_equals_unmemoized_kernel(self, case, arch_fn):
        workload, mappings, parallelisms = case
        model = CostModel(arch_fn())
        layouts = _layouts(workload)
        clear_slowdown_memo()
        for mapping in mappings:
            memoized = model.estimate_slowdown_batch(workload, mapping,
                                                     layouts)
            fresh = model._kernel_slowdowns(workload, mapping, layouts)
            assert [_bits(v) for v in memoized] == [_bits(v) for v in fresh]
            assert memoized == [model.estimate_slowdown(workload, mapping,
                                                        layout)
                                for layout in layouts]
        # One kernel run per streaming parallelism: every other mapping
        # was served from the memo.
        assert len(cost_model_module._SLOWDOWNS) == parallelisms

    def test_memo_is_bounded_least_recently_used(self):
        memo = BoundedMemo(maxsize=2)
        memo.put(("a",), 1)
        memo.put(("b",), 2)
        assert memo.get(("a",)) == 1  # "a" is now the most recent
        memo.put(("c",), 3)
        assert memo.get(("b",)) is None
        assert (memo.get(("a",)), memo.get(("c",)), len(memo)) == (1, 3, 2)

    def test_memo_is_thread_safe(self):
        memo = BoundedMemo(maxsize=64)

        def work(offset: int) -> None:
            for i in range(2000):
                key = ((offset + i) % 97,)
                if memo.get(key) is None:
                    memo.put(key, i + 1)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(memo) == 64


class TestCacheAccounting:
    @settings(max_examples=40, deadline=None)
    @given(workload=_workload(), seed=st.integers(0, 20),
           picks=st.lists(st.tuples(st.integers(0, 3),
                                    st.lists(st.integers(0, 40), min_size=1,
                                             max_size=6)),
                          min_size=1, max_size=6))
    def test_batch_and_scalar_accounting_identical(self, workload, seed,
                                                   picks):
        model = CostModel(sigma_like(reorder="offchip"))
        mappings = Mapper(model.arch, max_mappings=4,
                          seed=seed).candidate_mappings(workload)
        library = _layouts(workload)
        batch_cache, scalar_cache = EvaluationCache(), EvaluationCache()
        for mapping_pick, layout_picks in picks:
            mapping = mappings[mapping_pick % len(mappings)]
            layouts = [library[i % len(library)] for i in layout_picks]
            batched = batch_cache.evaluate_batch(model, workload, mapping,
                                                 layouts)
            scalar = [scalar_cache.evaluate(model, workload, mapping, layout)
                      for layout in layouts]
            assert [hit for _, hit in batched] == [hit for _, hit in scalar]
            assert all(isinstance(record, ScoreRecord)
                       for record, _ in batched)
            assert ([record.report(workload, mapping, layout)
                     for (record, _), layout in zip(batched, layouts)]
                    == [report for report, _ in scalar])
            assert ((batch_cache.stats.hits, batch_cache.stats.misses)
                    == (scalar_cache.stats.hits, scalar_cache.stats.misses))
            assert len(batch_cache) == len(scalar_cache)
