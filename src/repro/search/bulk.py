"""Bulk-bounds search core: whole-universe bound pipelines, one numpy pass.

The evaluation inner loop is batched per mapping (the concordance kernel);
the search *control plane* — admissible bound computation, prune decisions,
halving rung scores, frontier dominance bounds — needs only a trip-count
product per mapping, which depends only on its parallelism assignment, so
materializing every sampled :class:`~repro.dataflow.mapping.Mapping` one at
a time just to compute it would dominate the search.

:class:`BulkUniverse` avoids that.  It represents a per-shape mapping
universe *symbolically*, as the flat sample indices of a
:class:`~repro.dataflow.space.MappingSpace` (parallelism-major order) plus a
small materialized tail (the canonical weight-stationary baselines), and
computes for the entire universe in single numpy passes:

* ``compute_cycles()`` — exact padded trip-count products (int64), computed
  once per *parallelism candidate* and gathered per flat index, since loop
  order never changes the product;
* ``bounds(metric, statics)`` — the admissible
  :func:`repro.search.bounds.metric_lower_bound` per entry, replicating the
  scalar float op order exactly (int cycles -> float64 ``+ reorder_cycles``,
  then one multiply for EDP), so every value is bit-identical to the scalar
  bound;
* ``footprints(arch)`` — the exact integer tile footprints of
  :func:`repro.search.frontier.buffer_footprint_bytes`.

Mappings are only materialized lazily, on first ``universe[i]`` access —
i.e. only for entries that actually survive the bulk prune mask.

Exactness of the integer trip counts: the scalar oracle computes
``math.ceil(extent / degree)`` (float true division); the bulk pipeline uses
int64 ``(extent + degree - 1) // degree``.  The two agree whenever the float
quotient rounds within the same unit interval, which holds for all extents
below 2**52 — astronomically beyond any layer shape — and is pinned by the
hypothesis equivalence tests.

:func:`adaptive_search` builds the adaptive universe behind
``max_mappings="auto"``: score a small seeded base sample (plus the
canonical tail), then grow evaluation *only* where the bound landscape is
tight — flat indices whose admissible bound is within ``slack`` of the
incumbent.  Because the bound is admissible and the growth filter keeps
every index whose bound does not strictly exceed the incumbent, every
skipped index satisfies ``value >= bound > best`` — it can neither beat nor
tie the winner — so the uncapped adaptive run returns exactly the
exhaustive lexicographic winner of the *full* space (the guarantee the
golden-cell property tests pin).
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.search.bounds import BoundStatics, cached_bound_statics
from repro.search.frontier import buffer_footprint_bytes
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

#: Seeded base-sample size of the adaptive (``max_mappings="auto"``) universe.
AUTO_BASE: int = 32

#: Default relative slack of the adaptive growth threshold: flat indices with
#: ``bound <= best * (1 + slack)`` are grown.  0.0 grows exactly the indices
#: that could still win (or tie) — the minimum that preserves exactness.
AUTO_SLACK: float = 0.0


class BulkUniverse:
    """A per-shape mapping universe scored in bulk, materialized lazily.

    ``space`` + ``indices`` describe the sampled part (flat indices into the
    parallelism-major enumeration, in draw order — exactly the sequence
    ``MappingSpace.sample`` would materialize); ``tail`` holds already-built
    mappings appended after the sample (the canonical weight-stationary
    baselines, or the whole universe of a fixed-parallelism architecture).
    Supports ``len()``, indexing and iteration like a mapping list.
    :meth:`from_mappings` wraps an explicit list (a fixed-parallelism
    architecture, a repaired universe, a non-analytical backend's sample)
    with the same interface, so every policy scans one type.
    """

    def __init__(self, space, indices: Sequence[int], tail: Sequence,
                 workload) -> None:
        self._space = space
        self._indices: List[int] = list(indices)
        self._tail = list(tail)
        self.workload = workload
        self._candidates = space.parallelism_candidates() if space else []
        self._n_orders = len(space.orders) if space else 1
        self._memo = {}
        self._cycles: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        self._footprints = {}

    @classmethod
    def from_mappings(cls, mappings: Sequence, workload) -> "BulkUniverse":
        """Wrap an explicit, already-materialized mapping list."""
        return cls(None, (), mappings, workload)

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._indices) + len(self._tail)

    def __getitem__(self, pos: int):
        mapping = self._memo.get(pos)
        if mapping is None:
            n_sampled = len(self._indices)
            if pos < 0 or pos >= len(self):
                raise IndexError(pos)
            if pos < n_sampled:
                mapping = self._space._mapping_at(self._candidates,
                                                  self._indices[pos])
            else:
                mapping = self._tail[pos - n_sampled]
            self._memo[pos] = mapping
        return mapping

    def __iter__(self) -> Iterator:
        return (self[pos] for pos in range(len(self)))

    # ------------------------------------------------------------ bulk math
    def _degree_matrix(self) -> np.ndarray:
        """(n_candidates, n_dims) spatial degrees, 1 where unparallelised."""
        if self._degrees is None:
            dim_names = list(self._space.dims)
            dim_pos = {d: j for j, d in enumerate(dim_names)}
            degrees = np.ones((len(self._candidates), len(dim_names)),
                              dtype=np.int64)
            for row, parallel in enumerate(self._candidates):
                for p in parallel:
                    degrees[row, dim_pos[p.dim]] *= p.degree
            self._degrees = degrees
        return self._degrees

    def compute_cycles(self) -> np.ndarray:
        """Exact per-entry compute cycles (int64), one pass for everything.

        Cycles depend only on the parallelism (loop order never changes the
        trip-count product), so the product is computed once per parallelism
        candidate and gathered per flat index with ``index // n_orders``
        (the parallelism-major flat layout of ``MappingSpace``).
        """
        if self._cycles is None:
            parts = []
            if self._indices:
                extents = np.asarray(list(self._space.dims.values()),
                                     dtype=np.int64)
                degrees = self._degree_matrix()
                trips = (extents + degrees - 1) // degrees
                per_candidate = trips.prod(axis=1)
                idx = np.asarray(self._indices, dtype=np.int64)
                parts.append(per_candidate[idx // self._n_orders])
            if self._tail:
                parts.append(np.asarray(
                    [m.compute_cycles(self.workload) for m in self._tail],
                    dtype=np.int64))
            self._cycles = (np.concatenate(parts) if parts
                            else np.zeros(0, dtype=np.int64))
        return self._cycles

    def cycles_floor(self, statics: BoundStatics) -> np.ndarray:
        """Admissible latency floor per entry (float64): cycles + reorder."""
        return self.compute_cycles().astype(np.float64) + statics.reorder_cycles

    def bounds(self, metric: str, statics: BoundStatics) -> np.ndarray:
        """Admissible metric lower bound per entry, bit-identical to the
        scalar :func:`repro.search.bounds.metric_lower_bound` (same float op
        order: int64 cycles -> float64 add, then one multiply for EDP)."""
        cycles_floor = self.cycles_floor(statics)
        if metric == "latency":
            return cycles_floor
        if metric == "energy":
            return np.full(len(self), statics.energy_floor_pj,
                           dtype=np.float64)
        if metric == "edp":
            return statics.energy_floor_pj * cycles_floor
        raise ValueError(f"unknown metric {metric!r}")

    def footprints(self, arch) -> np.ndarray:
        """Exact per-entry on-chip tile footprints (bytes, int64) — the bulk
        mirror of :func:`repro.search.frontier.buffer_footprint_bytes`
        (pure integer math, so exact by construction)."""
        bits = int(arch.mac_bits)
        cached = self._footprints.get(bits)
        if cached is not None:
            return cached
        parts = []
        if self._indices:
            per_candidate = self._candidate_footprints(bits)
            idx = np.asarray(self._indices, dtype=np.int64)
            parts.append(per_candidate[idx // self._n_orders])
        if self._tail:
            parts.append(np.asarray(
                [buffer_footprint_bytes(self.workload, m, arch)
                 for m in self._tail], dtype=np.int64))
        out = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        self._footprints[bits] = out
        return out

    def _candidate_footprints(self, bits: int) -> np.ndarray:
        """Footprint bytes per parallelism candidate.  Space-sampled mappings
        have ``tile == parallel degrees``, so the scalar ``_tile_extent``
        (max of tile size and degree, clamped to the extent) reduces to
        ``max(1, min(extent, degree))`` per dimension."""
        workload = self.workload
        dim_names = list(self._space.dims)
        degrees = self._degree_matrix()

        def tile(dim: str, extent: int) -> np.ndarray:
            column = degrees[:, dim_names.index(dim)]
            return np.maximum(1, np.minimum(int(extent), column))

        if isinstance(workload, ConvLayerSpec):
            n_t = tile("N", workload.n)
            m_t = tile("M", workload.m)
            c_t = tile("C", workload.c // workload.groups)
            p_t = tile("P", workload.p)
            q_t = tile("Q", workload.q)
            r_t = tile("R", workload.r)
            s_t = tile("S", workload.s)
            h_t = np.minimum(workload.h, (p_t - 1) * workload.stride + r_t)
            w_t = np.minimum(workload.w, (q_t - 1) * workload.stride + s_t)
            iact = n_t * c_t * h_t * w_t
            weight = m_t * c_t * r_t * s_t
            oact = n_t * m_t * p_t * q_t
        elif isinstance(workload, GemmSpec):
            m_t = tile("M", workload.m)
            k_t = tile("K", workload.k)
            n_t = tile("N", workload.n)
            iact = m_t * k_t
            weight = k_t * n_t
            oact = m_t * n_t
        else:
            raise TypeError(f"unsupported workload type {type(workload)!r}")
        return (iact * bits) // 8 + (weight * bits) // 8 + (oact * bits) // 8

    # -------------------------------------------------------- adaptive seeds
    def seed_positions(self, count: int, seed: int) -> List[int]:
        """Positions of the adaptive base sample: a seeded draw of ``count``
        sampled positions (every one when the sample is small) plus the
        whole tail — the canonical baselines are always scored."""
        n_sampled = len(self._indices)
        if count >= n_sampled:
            picks = list(range(n_sampled))
        else:
            picks = random.Random(seed).sample(range(n_sampled), count)
        return picks + list(range(n_sampled, len(self)))


# ------------------------------------------------------------- constructors
def candidate_universe(mapper, workload) -> BulkUniverse:
    """The mapper's candidate universe as a :class:`BulkUniverse` — exactly
    the entries of ``Mapper.candidate_mappings`` in the same order (seeded
    sample, then canonical tail), without materializing any of them."""
    space = mapper._mapping_space(workload)
    if space is None:
        return BulkUniverse.from_mappings(
            mapper._fixed_parallelism_mappings(workload), workload)
    indices = space.sample_indices(mapper.max_mappings, seed=mapper.seed)
    return BulkUniverse(space, indices, mapper._canonical_tail(workload),
                        workload)


def full_universe(mapper, workload) -> BulkUniverse:
    """The *entire* structured space (every flat index, in flat order) plus
    the canonical tail — the reference universe of the adaptive search."""
    space = mapper._mapping_space(workload)
    if space is None:
        return BulkUniverse.from_mappings(
            mapper._fixed_parallelism_mappings(workload), workload)
    return BulkUniverse(space, range(space.size()),
                        mapper._canonical_tail(workload), workload)


# ---------------------------------------------------------- adaptive search
def adaptive_search(mapper, workload, layouts: Optional[Sequence] = None,
                    base: int = AUTO_BASE, slack: float = AUTO_SLACK):
    """The ``max_mappings="auto"`` search: seeded base, bound-driven growth.

    Phase 1 scores a seeded base sample of ``base`` flat positions plus the
    canonical tail (skipping positions whose bound already strictly exceeds
    the incumbent).  Phase 2 grows into the rest of the *full* space, but
    only where the bound landscape is tight: positions whose admissible
    bound is within ``slack`` of the incumbent, visited in (bound, position)
    order with a dynamic strict re-check as the incumbent improves.

    Exactness (``slack >= 0``): the incumbent value is monotone
    non-increasing and the bound admissible, so every position never scored
    satisfies ``value >= bound > best_final`` — it can neither beat nor tie
    the winner.  The returned winner is therefore the lexicographic minimum
    of ``(value, flat position, layout index)`` over the **whole** space,
    i.e. exactly what an uncapped exhaustive scan returns.  ``pruned``
    counts the pairs the growth policy never scored.

    Requires the analytical backend (admissible bounds are statements about
    the analytical model); the mapper constructor enforces this.
    """
    from repro.layoutloop.mapper import (
        SearchResult,
        _metric_value,
        _winner_report,
    )

    layouts = list(layouts) if layouts else mapper.candidate_layouts(workload)
    universe = full_universe(mapper, workload)
    total = len(universe)
    statics = cached_bound_statics(mapper.cost_model, workload)
    bounds = universe.bounds(mapper.metric, statics).tolist()

    best_key = None          # (value, flat position, layout index)
    best_score = None
    best_mapping = None
    best_layout = None
    evaluated = 0
    cache_hits = 0

    def score(pos: int) -> None:
        nonlocal best_key, best_score, best_mapping, best_layout
        nonlocal evaluated, cache_hits
        mapping = universe[pos]
        scored = mapper.score_mapping(workload, mapping, layouts)
        for layout_idx, (candidate, hit) in enumerate(scored):
            evaluated += 1
            cache_hits += int(hit)
            value = _metric_value(candidate, mapper.metric)
            key = (value, pos, layout_idx)
            if best_key is None or key < best_key:
                best_key = key
                best_score = candidate
                best_mapping = mapping
                best_layout = layouts[layout_idx]

    seeds = universe.seed_positions(base, mapper.seed)
    for pos in seeds:
        if best_key is not None and bounds[pos] > best_key[0]:
            continue
        score(pos)

    visited = set(seeds)
    best_value = best_key[0] if best_key is not None else math.inf
    threshold = best_value * (1.0 + slack)
    growth = [pos for pos in range(total)
              if pos not in visited and bounds[pos] <= threshold]
    growth.sort(key=lambda pos: (bounds[pos], pos))
    for pos in growth:
        if bounds[pos] > best_key[0]:
            continue
        score(pos)

    return SearchResult(
        workload=getattr(workload, "name", str(workload)),
        arch=mapper.arch.name,
        best_report=_winner_report(best_score, workload, best_mapping,
                                   best_layout),
        best_mapping=best_mapping,
        best_layout=best_layout,
        evaluated=evaluated,
        metric=mapper.metric,
        pruned=total * len(layouts) - evaluated,
        cache_hits=cache_hits,
    )
