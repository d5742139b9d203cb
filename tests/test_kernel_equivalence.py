"""The vectorized kernel is bit-identical to the scalar reference oracle.

Three layers of guarantees, each property-tested against randomly generated
inputs:

* ``CompiledLayout.address_batch`` == ``Layout.address`` per coordinate,
* ``analyze_concordance_batch`` == ``analyze_concordance`` per layout
  (every report field, including the float averages, compared with ``==``),
* streaming ``MappingSpace.sample`` == the materializing sampler for the
  same seed, and ``CostModel.evaluate_mapping_batch`` / ``Mapper`` == the
  scalar search of the test oracle (``tests/oracle.py``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import medusa_like, mtia_like, sigma_like, tpu_like
from repro.dataflow.space import MappingSpace
from repro.kernel import analyze_concordance_batch, compile_layout
from repro.layout.concordance import analyze_concordance
from repro.layout.layout import IntraLineDim, Layout
from repro.layout.library import conv_layout_library, gemm_layout_library
from repro.layout.patterns import ReorderPattern
from repro.layoutloop.arch import feather_arch
from repro.layoutloop.cost_model import CostModel
from repro.layoutloop.mapper import Mapper
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

from oracle import ScalarMapper

_DIM_POOL = ("C", "H", "W", "M", "K")


@st.composite
def _layout_and_dims(draw):
    """A random layout, tensor extents, and a rectangular coordinate batch.

    The layout may name dimensions absent from the extents (treated as
    extent 1) and the extents may contain dimensions the layout never
    mentions (the scalar path appends those as the slowest-varying line
    block) — both paths must agree everywhere.
    """
    dim_names = tuple(draw(st.permutations(_DIM_POOL))[:draw(st.integers(1, 4))])
    dims = {d: draw(st.integers(1, 9)) for d in dim_names}
    layout_dims = draw(st.permutations(_DIM_POOL))[:draw(st.integers(1, 4))]
    inter = tuple(layout_dims[:draw(st.integers(0, len(layout_dims)))])
    intra_dims = draw(st.permutations(layout_dims))[:draw(st.integers(0, len(layout_dims)))]
    intra = tuple(IntraLineDim(d, draw(st.integers(1, 5))) for d in intra_dims)
    if not inter and not intra:
        inter = (layout_dims[0],)
    layout = Layout(inter, intra)
    cycles = draw(st.integers(1, 4))
    lanes = draw(st.integers(1, 6))
    # Coordinates deliberately range past the extents — negative included:
    # the equivalence is algebraic, not a property of in-range inputs.
    coords = draw(st.lists(
        st.lists(st.lists(st.integers(-6, 12), min_size=len(dim_names),
                          max_size=len(dim_names)),
                 min_size=lanes, max_size=lanes),
        min_size=cycles, max_size=cycles))
    return layout, dims, dim_names, np.array(coords, dtype=np.int64)


class TestCompiledLayoutEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_layout_and_dims())
    def test_batch_addressing_matches_scalar_oracle(self, case):
        layout, dims, dim_names, coords = case
        compiled = compile_layout(layout, dims)
        lines, offsets = compiled.address_batch(coords, dim_names)
        assert lines.shape == offsets.shape == coords.shape[:-1]
        for ci in range(coords.shape[0]):
            for li in range(coords.shape[1]):
                coord = {d: int(coords[ci, li, j])
                         for j, d in enumerate(dim_names)}
                assert layout.address(coord, dims) == (
                    int(lines[ci, li]), int(offsets[ci, li]))

    def test_layout_compile_method_is_memoized(self):
        layout = conv_layout_library()[0]
        dims = {"C": 64, "H": 14, "W": 14}
        assert layout.compile(dims) is layout.compile(dict(dims))


class TestBatchConcordanceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_layout_and_dims(),
           st.sampled_from(list(ReorderPattern)),
           st.integers(1, 4), st.integers(1, 4),
           st.one_of(st.none(), st.integers(1, 8)))
    def test_reports_identical_to_scalar(self, case, pattern, ports,
                                         lines_per_bank, num_banks):
        layout, dims, dim_names, coords = case
        per_cycle = [[{d: int(coords[ci, li, j]) for j, d in enumerate(dim_names)}
                      for li in range(coords.shape[1])]
                     for ci in range(coords.shape[0])]
        scalar = analyze_concordance(
            per_cycle, layout, dims, ports_per_bank=ports,
            lines_per_bank=lines_per_bank, num_banks=num_banks, pattern=pattern)
        batch, = analyze_concordance_batch(
            coords, dim_names, [layout], dims, ports_per_bank=ports,
            lines_per_bank=lines_per_bank, num_banks=num_banks, pattern=pattern)
        assert scalar == batch  # every field, floats included, exactly

    def test_many_layouts_one_pass(self):
        layouts = conv_layout_library()
        dims = {"C": 32, "H": 8, "W": 8}
        rng = random.Random(0)
        coords = np.array([[[rng.randrange(dims[d]) for d in ("C", "H", "W")]
                            for _ in range(16)] for _ in range(4)])
        batch = analyze_concordance_batch(coords, ("C", "H", "W"), layouts, dims,
                                          num_banks=8)
        assert [r.layout_name for r in batch] == [l.name for l in layouts]
        for layout, report in zip(layouts, batch):
            per_cycle = [[{d: int(v) for d, v in zip(("C", "H", "W"), row)}
                          for row in cyc] for cyc in coords]
            assert analyze_concordance(per_cycle, layout, dims,
                                       num_banks=8) == report

    def test_empty_cycles_match_scalar_defaults(self):
        layout = conv_layout_library()[0]
        reports = analyze_concordance_batch(
            np.zeros((0, 0, 3), dtype=np.int64), ("C", "H", "W"), [layout],
            {"C": 4, "H": 4, "W": 4})
        assert reports[0].cycles == 0
        assert reports[0].avg_slowdown == 1.0
        assert reports[0].concordant


class TestStreamingSampler:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 60))
    def test_streaming_sample_matches_materializing(self, seed, count):
        layer = ConvLayerSpec(name="l", m=64, c=32, h=14, w=14, r=3, s=3)
        space = MappingSpace(layer, 16, 16)
        streamed = space.sample(count, seed=seed)
        materialized = space.sample(count, seed=seed, materialize=True)
        assert streamed == materialized
        assert [m.name for m in streamed] == [m.name for m in materialized]

    def test_serial_mapping_is_named_df_serial(self):
        layer = ConvLayerSpec(name="l", m=8, c=8, h=8, w=8, r=1, s=1)
        space = MappingSpace(layer, 4, 4)
        serial = [m for m in space.iter_mappings() if not m.parallel]
        assert serial, "the serial mapping is always a member of the space"
        assert all(m.name.startswith("df_serial_") for m in serial)

    def test_streaming_covers_whole_space_when_count_exceeds_size(self):
        gemm = GemmSpec(name="g", m=32, k=16, n=8)
        space = MappingSpace(gemm, 8, 8)
        assert space.sample(10_000) == list(space.iter_mappings())


class TestBatchedEvaluation:
    @pytest.mark.parametrize("arch_fn", [
        lambda: sigma_like(reorder="offchip"), medusa_like, mtia_like,
        tpu_like, feather_arch])
    def test_evaluate_mapping_batch_matches_scalar(self, arch_fn):
        arch = arch_fn()
        model = CostModel(arch)
        for workload, layouts in (
                (ConvLayerSpec(name="c", m=64, c=32, h=14, w=14, r=3, s=3),
                 conv_layout_library()),
                (GemmSpec(name="g", m=96, k=64, n=128), gemm_layout_library())):
            space = MappingSpace(workload, arch.pe_rows, arch.pe_cols)
            for mapping in space.sample(5, seed=2):
                batch = model.evaluate_mapping_batch(workload, mapping, layouts)
                for layout, record in zip(layouts, batch):
                    assert model.evaluate(workload, mapping, layout) \
                        == record.report(workload, mapping, layout)

    def test_evaluate_batch_covers_cross_product(self):
        arch = feather_arch()
        model = CostModel(arch)
        workload = ConvLayerSpec(name="c", m=32, c=16, h=7, w=7, r=3, s=3)
        mappings = MappingSpace(workload, 16, 16).sample(3, seed=0)
        layouts = conv_layout_library()
        grid = model.evaluate_batch(workload, mappings, layouts)
        assert len(grid) == len(mappings)
        assert all(len(row) == len(layouts) for row in grid)

    def test_duplicate_layouts_keep_scalar_hit_accounting(self):
        """A layout repeated within one batch is a miss then a hit, exactly
        like the scalar per-pair loop — evaluated once, not twice."""
        from repro.search.cache import EvaluationCache

        arch = sigma_like(reorder="offchip")
        model = CostModel(arch)
        workload = ConvLayerSpec(name="c", m=32, c=16, h=7, w=7, r=3, s=3)
        mapping = MappingSpace(workload, 16, 16).sample(1, seed=0)[0]
        layout = conv_layout_library()[0]

        batch_cache = EvaluationCache()
        batched = batch_cache.evaluate_batch(model, workload, mapping,
                                             [layout, layout])
        scalar_cache = EvaluationCache()
        scalar = [scalar_cache.evaluate(model, workload, mapping, l)
                  for l in (layout, layout)]
        assert [hit for _, hit in batched] == [hit for _, hit in scalar] == \
               [False, True]
        assert (batch_cache.stats.hits, batch_cache.stats.misses) == \
               (scalar_cache.stats.hits, scalar_cache.stats.misses)
        assert [r.report(workload, mapping, layout) for r, _ in batched] \
            == [r for r, _ in scalar]

    def test_vectorized_search_identical_to_scalar_search(self):
        workload = ConvLayerSpec(name="c", m=64, c=32, h=14, w=14, r=3, s=3)
        for arch in (sigma_like(reorder="offchip"), feather_arch()):
            fast = Mapper(arch, max_mappings=16).search(workload)
            slow = ScalarMapper(arch, max_mappings=16).search(workload)
            assert fast.best_report == slow.best_report
            assert fast.best_mapping == slow.best_mapping
            assert fast.best_layout == slow.best_layout
            assert (fast.evaluated, fast.pruned, fast.cache_hits) == \
                   (slow.evaluated, slow.pruned, slow.cache_hits)
