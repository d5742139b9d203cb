"""Production search == the scalar test oracle (``tests/oracle.py``).

The production :class:`~repro.layoutloop.mapper.Mapper` samples by flat
index, bounds the whole universe in one numpy pass and scores each mapping
with one batched kernel call; :class:`~oracle.ScalarMapper` materializes
the sample, bounds one mapping at a time and evaluates one (mapping,
layout) pair at a time.  Hypothesis draws an architecture preset, a conv
or GEMM layer, a sample size, a seed and a metric; under every search
policy — exhaustive, halving, evolutionary, the frontier scan, the
adaptive ``max_mappings="auto"`` universe and a bound
``constraints="default"`` set — both must return the same winner report,
mapping and layout and the same ``evaluated``/``pruned``/``cache_hits``
counters.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.layoutloop.mapper import Mapper
from repro.scenarios.registry import arch_names, resolve_arch
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

from oracle import ScalarMapper

_arches = st.sampled_from(arch_names()).map(resolve_arch)
_metrics = st.sampled_from(["edp", "latency", "energy"])


@st.composite
def _convs(draw):
    r = draw(st.integers(1, 3))
    h, w = draw(st.integers(3, 16)), draw(st.integers(3, 16))
    padding = draw(st.integers(0, 1))
    assume(h + 2 * padding >= r and w + 2 * padding >= r)
    return ConvLayerSpec("conv", m=draw(st.integers(1, 64)),
                         c=draw(st.integers(1, 64)), h=h, w=w, r=r, s=r,
                         stride=draw(st.integers(1, 2)), padding=padding)


_gemms = st.builds(lambda m, k, n: GemmSpec("gemm", m=m, k=k, n=n),
                   st.integers(1, 128), st.integers(1, 128),
                   st.integers(1, 128))
_layers = st.one_of(_convs(), _gemms)
_configs = st.fixed_dictionaries({
    "metric": _metrics, "max_mappings": st.integers(1, 40),
    "seed": st.integers(0, 2 ** 16)})


def _assert_same(fast, slow) -> None:
    assert fast.best_report == slow.best_report
    assert fast.best_mapping == slow.best_mapping
    assert fast.best_layout == slow.best_layout
    assert ((fast.evaluated, fast.pruned, fast.cache_hits)
            == (slow.evaluated, slow.pruned, slow.cache_hits))
    assert (fast.repaired, fast.repair) == (slow.repaired, slow.repair)


@settings(max_examples=40, deadline=None)
@given(arch=_arches, layer=_layers, config=_configs)
def test_exhaustive_search_matches_the_oracle(arch, layer, config):
    _assert_same(Mapper(arch, **config).search(layer),
                 ScalarMapper(arch, **config).search(layer))


@settings(max_examples=10, deadline=None)
@given(arch=_arches, layer=_layers, config=_configs)
def test_batched_oracle_axis_matches_too(arch, layer, config):
    """The bulk gate's reference: scalar bounds, batched evaluation."""
    _assert_same(Mapper(arch, **config).search(layer),
                 ScalarMapper(arch, batched=True, **config).search(layer))


@settings(max_examples=25, deadline=None)
@given(arch=_arches, layer=_layers, config=_configs,
       policy=st.sampled_from(["halving", "evolutionary"]),
       budget=st.one_of(st.none(), st.integers(1, 120)))
def test_budgeted_policies_match_the_oracle(arch, layer, config, policy,
                                            budget):
    config = dict(config, policy=policy, budget=budget)
    _assert_same(Mapper(arch, **config).search(layer),
                 ScalarMapper(arch, **config).search(layer))


@settings(max_examples=25, deadline=None)
@given(arch=_arches, layer=_layers, config=_configs)
def test_frontier_scan_matches_the_oracle(arch, layer, config):
    fast, fast_front = Mapper(arch, **config).search_frontier(layer)
    slow, slow_front = ScalarMapper(arch, **config).search_frontier(layer)
    _assert_same(fast, slow)
    assert fast_front.to_dict() == slow_front.to_dict()


@settings(max_examples=10, deadline=None)
@given(arch=_arches, layer=_layers, metric=_metrics,
       seed=st.integers(0, 2 ** 16))
def test_adaptive_universe_matches_the_oracle(arch, layer, metric, seed):
    config = dict(metric=metric, max_mappings="auto", seed=seed)
    _assert_same(Mapper(arch, **config).search(layer),
                 ScalarMapper(arch, **config).search(layer))


@settings(max_examples=25, deadline=None)
@given(arch=_arches, layer=_layers, config=_configs,
       policy=st.sampled_from(["exhaustive", "halving"]))
def test_constrained_search_matches_the_oracle(arch, layer, config, policy):
    config = dict(config, policy=policy, constraints="default")
    fast = Mapper(arch, **config)
    assert fast.constraints is not None
    _assert_same(fast.search(layer), ScalarMapper(arch, **config).search(layer))
