"""Memoization of cost-model evaluations.

The co-search evaluates the same (workload-shape, arch, mapping, layout)
tuple many times: repeated layer shapes inside one model, the same shapes
across experiments (Fig. 9-14 all sweep ResNet-50), and the canonical
weight-stationary mapping that the mapper appends to every sampled space.
:class:`EvaluationCache` memoizes the resulting scores and keeps hit/miss
accounting so callers can report cache effectiveness.

An entry is a compact :class:`~repro.layoutloop.cost_model.ScoreRecord` — a
slowdown plus a reference to its mapping's shared layout-independent terms
— not a full :class:`~repro.layoutloop.cost_model.CostReport`: the search
ranks candidates on the records' metrics and assembles a report only for
the caller that needs one (the winner, the scalar :meth:`evaluate` path).

Caches are plain dictionaries: a cache is owned by one process (workers in
the parallel engine each build their own) and records are immutable, so
sharing the cached instance is safe.  A cache may also be
shared by the *threads* of one process (a :class:`repro.api.Session`
serving concurrent requests): entry storage and hit/miss accounting are
guarded by a lock, so concurrent lookups never corrupt the dict or lose
counter increments.  The lock is per-operation — two threads missing the
same key both evaluate and both ``put`` (idempotent: evaluations are
deterministic), which keeps the hot hit path cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.search.signatures import (
    arch_signature,
    layout_signature,
    mapping_signature,
    workload_signature,
)


@dataclass
class CacheStats:
    """Hit/miss counters of one cache (or the merged counters of several)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two counters (both unchanged)."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses)

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.1%} hit rate)")


class EvaluationCache:
    """Memoizes cost-model scores as
    :class:`~repro.layoutloop.cost_model.ScoreRecord` entries.

    Keys are built from :mod:`repro.search.signatures`, so the cache keys on
    the (workload-shape, arch, mapping, layout) tuple — never on layer or
    mapping names — and one instance may be shared by mappers for different
    architectures or energy calibrations.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple, object] = {}
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @staticmethod
    def key(arch, energy, workload, mapping, layout) -> Tuple:
        """Canonical cache key of one evaluation."""
        return (arch_signature(arch, energy), workload_signature(workload),
                mapping_signature(mapping), layout_signature(layout))

    def get(self, key: Tuple):
        """Look up a score record; counts a hit or miss. None on miss."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return record

    def put(self, key: Tuple, record) -> None:
        """Store the score record computed for ``key``."""
        with self._lock:
            self._records[key] = record

    def evaluate(self, cost_model, workload, mapping, layout):
        """Memoized ``cost_model.evaluate``; returns ``(report, was_hit)``.

        Cache keys exclude free-text names, so a hit may come from a
        different layer/mapping label than the current call's; the report
        is always assembled from the cached score with the caller's labels
        and its own breakdown dict.
        """
        key = self.key(cost_model.arch, cost_model.energy, workload, mapping,
                       layout)
        record = self.get(key)
        hit = record is not None
        if not hit:
            record = cost_model.score(workload, mapping, layout)
            self.put(key, record)
        return record.report(workload, mapping, layout), hit

    def evaluate_batch(self, cost_model, workload, mapping, layouts
                       ) -> List[Tuple[object, bool]]:
        """Memoized batch scoring of one mapping under many layouts.

        Returns ``[(record, was_hit), ...]`` in layout order, where each
        record is a :class:`~repro.layoutloop.cost_model.ScoreRecord` (call
        its ``report(workload, mapping, layout)`` for the full report).  The
        hit/miss accounting is exactly that of calling :meth:`evaluate` per
        layout, but the arch/workload/mapping signatures are computed once
        and all cache misses are scored together through the vectorized
        :meth:`~repro.layoutloop.cost_model.CostModel.evaluate_mapping_batch`.
        Records are immutable, so hits return the cached instance itself.
        """
        prefix = (arch_signature(cost_model.arch, cost_model.energy),
                  workload_signature(workload), mapping_signature(mapping))
        keys = [prefix + (layout_signature(layout),) for layout in layouts]
        out: List = [None] * len(keys)
        missing = {}   # first occurrence of each missing key -> position
        deferred = []  # repeats of a missing key: hits once the batch lands
        with self._lock:
            for i, key in enumerate(keys):
                if key in missing:
                    deferred.append(i)
                    continue
                record = self._records.get(key)
                if record is not None:
                    out[i] = (record, True)
                else:
                    missing[key] = i
            self.stats.hits += len(keys) - len(missing) - len(deferred)
            self.stats.misses += len(missing)
        if missing:
            indices = list(missing.values())
            fresh = cost_model.evaluate_mapping_batch(
                workload, mapping, [layouts[i] for i in indices])
            with self._lock:
                for i, record in zip(indices, fresh):
                    self._records[keys[i]] = record
                    out[i] = (record, False)
                # Same accounting as the scalar loop: a duplicate layout is
                # a miss on first sight and a (counted) hit on every repeat.
                for i in deferred:
                    out[i] = (self._records[keys[i]], True)
                self.stats.hits += len(deferred)
        return out

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._records.clear()
            self.stats = CacheStats()
