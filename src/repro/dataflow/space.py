"""Mapping-space enumeration.

The full dataflow space of a convolution is astronomically large (the paper
quotes O(10^36) for a single layer), so like Timeloop's hybrid mapper we
enumerate a *structured* subspace: parallelism assignments over one or two
dimensions whose degrees divide (or pad to) the array axes, a small set of
canonical loop orders (stationarities), and tile sizes induced by the
parallelism.  The pruned-random search in :mod:`repro.layoutloop.mapper`
samples from this space.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec
from repro.dataflow.loopnest import padded_parallel_sizes
from repro.dataflow.mapping import (
    CONV_REDUCTION_DIMS,
    GEMM_REDUCTION_DIMS,
    Mapping,
    ParallelSpec,
    TileLevel,
)

# Canonical loop orders (stationarities) explored for convolutions.  Each is a
# permutation of the temporal dims from outermost to innermost; the innermost
# dims are the least stationary.
_CONV_ORDERS: Tuple[Tuple[str, ...], ...] = (
    ("N", "P", "Q", "R", "S", "M", "C"),   # weight stationary flavour
    ("N", "M", "C", "R", "S", "P", "Q"),   # output stationary flavour
    ("N", "C", "M", "P", "Q", "R", "S"),   # input stationary flavour
    ("N", "R", "S", "C", "P", "Q", "M"),   # row stationary flavour
)

_GEMM_ORDERS: Tuple[Tuple[str, ...], ...] = (
    ("M", "N", "K"),
    ("K", "M", "N"),
    ("N", "K", "M"),
)

# Dimensions worth parallelising for each workload kind.
_CONV_PARALLEL_DIMS = ("M", "C", "P", "Q", "R", "S")
_GEMM_PARALLEL_DIMS = ("M", "N", "K")


@dataclass
class MappingSpace:
    """Enumerable mapping subspace for one workload on one array shape.

    ``max_parallel_dims`` bounds how many dimensions are co-parallelised
    (FEATHER and SIGMA support multi-dimensional parallelism; rigid designs
    are modelled by constraining this to the dimensions they support).
    ``allowed_parallel_dims`` restricts which dimensions may be parallel
    (e.g. NVDLA-like only parallelises M and C).
    """

    workload: object
    array_rows: int
    array_cols: int
    max_parallel_dims: int = 2
    allowed_parallel_dims: Optional[Sequence[str]] = None
    allowed_orders: Optional[Sequence[Tuple[str, ...]]] = None
    require_full_rows: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.workload, ConvLayerSpec):
            self._dims = {
                "N": self.workload.n, "M": self.workload.m,
                "C": self.workload.c // self.workload.groups,
                "P": self.workload.p, "Q": self.workload.q,
                "R": self.workload.r, "S": self.workload.s,
            }
            self._parallel_dims = _CONV_PARALLEL_DIMS
            self._orders = tuple(self.allowed_orders or _CONV_ORDERS)
            self._reduction = CONV_REDUCTION_DIMS
        elif isinstance(self.workload, GemmSpec):
            self._dims = {"M": self.workload.m, "K": self.workload.k, "N": self.workload.n}
            self._parallel_dims = _GEMM_PARALLEL_DIMS
            self._orders = tuple(self.allowed_orders or _GEMM_ORDERS)
            self._reduction = GEMM_REDUCTION_DIMS
        else:
            raise TypeError(f"unsupported workload type {type(self.workload)!r}")
        if self.allowed_parallel_dims is not None:
            allowed = {d.upper() for d in self.allowed_parallel_dims}
            self._parallel_dims = tuple(d for d in self._parallel_dims if d in allowed)

    # ----------------------------------------------------------- enumeration
    @property
    def num_pes(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def orders(self) -> Tuple[Tuple[str, ...], ...]:
        """The canonical loop orders this space enumerates."""
        return self._orders

    @property
    def dims(self) -> Dict[str, int]:
        """Workload dimension extents, in the space's canonical dim order."""
        return dict(self._dims)

    def parallelism_candidates(self) -> List[Tuple[ParallelSpec, ...]]:
        """Enumerate parallelism assignments onto the array.

        Memoized per (dims, candidate dims, array shape): repeated searches
        over the same layer shape — scalar-vs-vectorized comparisons, metric
        sweeps, every mapper revisiting a cached workload — skip the
        enumeration entirely.
        """
        return list(_parallelism_candidates_cached(
            tuple(sorted(self._dims.items())), self._parallel_dims,
            self.array_rows, self.array_cols, self.max_parallel_dims))

    def iter_mappings(self) -> Iterator[Mapping]:
        """Yield every mapping in the structured subspace."""
        candidates = self.parallelism_candidates()
        for index in range(len(candidates) * len(self._orders)):
            yield self._mapping_at(candidates, index)

    def _mapping_at(self, candidates: Sequence[Tuple[ParallelSpec, ...]],
                    index: int) -> Mapping:
        """Materialize the mapping at one flat index of the subspace.

        The flat order is parallelism-major (every loop order of one
        parallelism before the next parallelism), matching
        :meth:`iter_mappings`.
        """
        parallel = candidates[index // len(self._orders)]
        order = self._orders[index % len(self._orders)]
        order_present = tuple(d for d in order if d in self._dims)
        par = "_".join(f"{p.dim}{p.degree}" for p in parallel)
        name = f"df_{par}" if par else "df_serial"
        return Mapping(
            name=f"{name}_{'.'.join(order_present[:3]).lower()}",
            array_rows=self.array_rows,
            array_cols=self.array_cols,
            parallel=parallel,
            tile=TileLevel.of(**{p.dim: p.degree for p in parallel}),
            order=order_present,
            reduction_dims=self._reduction,
        )

    def sample(self, count: int, seed: int = 0, *,
               materialize: bool = False) -> List[Mapping]:
        """Pruned random sample of the space (the paper's search algorithm).

        The default streaming path samples flat *indices* and materializes
        only the ``count`` chosen mappings; ``materialize=True`` builds every
        mapping first and samples the list (the original implementation,
        kept as the scalar reference the equivalence tests compare to).
        Both return identical mappings in identical order for the same seed:
        ``random.sample`` draws the same index sequence from ``range(n)`` as
        from any length-``n`` sequence.
        """
        if materialize:
            all_mappings = list(self.iter_mappings())
            if count >= len(all_mappings):
                return all_mappings
            rng = random.Random(seed)
            return rng.sample(all_mappings, count)
        candidates = self.parallelism_candidates()
        return [self._mapping_at(candidates, i)
                for i in self.sample_indices(count, seed)]

    def sample_indices(self, count: int, seed: int = 0) -> List[int]:
        """Flat indices of the pruned random sample, in draw order.

        This is the index sequence :meth:`sample` materializes: every index
        when ``count`` covers the space, otherwise ``random.Random(seed)``'s
        sample of ``range(size())``.  The bulk bound pipeline
        (:mod:`repro.search.bulk`) works on these indices directly so it can
        score the whole universe without building a single :class:`Mapping`.
        """
        total = self.size()
        if count >= total:
            return list(range(total))
        return random.Random(seed).sample(range(total), count)

    def mapping_at(self, index: int) -> Mapping:
        """Materialize the mapping at one flat index (parallelism-major)."""
        return self._mapping_at(self.parallelism_candidates(), index)

    def size(self) -> int:
        """Cardinality of the structured subspace (parallelisms x orders)."""
        return len(self.parallelism_candidates()) * len(self._orders)


@lru_cache(maxsize=1024)
def _parallelism_candidates_cached(dims_items: Tuple[Tuple[str, int], ...],
                                   candidate_dims: Tuple[str, ...],
                                   rows: int, cols: int, max_dims: int
                                   ) -> Tuple[Tuple[ParallelSpec, ...], ...]:
    return tuple(enumerate_parallelisms(dict(dims_items), candidate_dims,
                                        rows, cols, max_dims=max_dims))


def enumerate_parallelisms(dims: Dict[str, int], candidate_dims: Sequence[str],
                           rows: int, cols: int, max_dims: int = 2,
                           ) -> Iterable[Tuple[ParallelSpec, ...]]:
    """Enumerate ways to spread 1..max_dims dimensions over a rows x cols array.

    Single-dimension assignments use the whole array (degree up to rows*cols);
    two-dimension assignments put one dimension on rows and the other on
    columns.  Degrees are drawn from divisors / powers of two no larger than
    the axis, deduplicated.
    """
    seen = set()
    num_pes = rows * cols

    # Serial mapping (degree 1 everywhere) is always a member.
    yield tuple()

    usable = [d for d in candidate_dims if dims.get(d, 1) > 1]

    for dim in usable:
        for degree in padded_parallel_sizes(dims[dim], num_pes):
            if degree <= 1:
                continue
            key = ((dim, degree),)
            if key not in seen:
                seen.add(key)
                yield (ParallelSpec(dim, degree),)

    if max_dims < 2:
        return

    for dim_a, dim_b in itertools.combinations(usable, 2):
        for deg_a in padded_parallel_sizes(dims[dim_a], rows):
            if deg_a <= 1:
                continue
            for deg_b in padded_parallel_sizes(dims[dim_b], cols):
                if deg_b <= 1:
                    continue
                if deg_a * deg_b > num_pes:
                    continue
                key = ((dim_a, deg_a), (dim_b, deg_b))
                if key in seen:
                    continue
                seen.add(key)
                yield (ParallelSpec(dim_a, deg_a), ParallelSpec(dim_b, deg_b))
