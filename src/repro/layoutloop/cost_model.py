"""Layoutloop cost model: latency + energy of a (workload, mapping, layout) triple.

This is the Timeloop-style analytical model the paper extends (§V).  For a
given architecture it computes:

* compute cycles and spatial utilization from the mapping (padded per-dimension
  trip counts, exactly as a loop-nest model would),
* the bank-conflict *slowdown* from reading the streaming tensor under the
  given layout through the architecture's physical buffer geometry
  (``max(lines_accessed / ports, 1)`` per §V-B), moderated by whatever on-chip
  reordering pattern the architecture has,
* the latency and energy cost of the architecture's reordering implementation
  (off-chip DRAM round trip, on-chip reorder-after-reduction, or FEATHER's
  free reorder-in-reduction),
* an energy breakdown over MACs, registers, on-chip buffer, NoC and DRAM.

The absolute pJ values come from a calibrated table; all experiments report
results normalized to FEATHER, which is how the paper presents Fig. 13.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.dataflow.mapping import Mapping
from repro.kernel.concordance import analyze_concordance_batch
from repro.kernel.footprint import (
    streaming_access_coords,
    streaming_parallel_degrees,
)
from repro.layout.concordance import analyze_concordance
from repro.layout.layout import Layout
from repro.layout.patterns import ReorderImplementation, ReorderPattern
from repro.layoutloop.arch import ArchSpec
from repro.layoutloop.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from repro.search.signatures import workload_signature
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


@dataclass(frozen=True)
class CostReport:
    """Latency/energy estimate for one (workload, mapping, layout) on one arch.

    Assembled on demand from a :class:`ScoreRecord` (the search engine
    caches and ranks records, and builds a report only for the winner);
    every report owns a fresh ``energy_breakdown_pj`` dict.
    """

    workload: str
    """Name of the evaluated workload."""
    arch: str
    """Name of the architecture."""
    mapping: str
    """Name of the evaluated mapping (dataflow)."""
    layout: str
    """Name of the evaluated streaming-tensor layout."""
    macs: int
    """Multiply-accumulate operations the layer performs (count)."""
    compute_cycles: float
    """Ideal compute latency of the mapping (cycles), before stalls."""
    slowdown: float
    """Average bank-conflict slowdown factor (dimensionless, >= 1)."""
    stall_cycles: float
    """Cycles lost to bank-conflict stalls."""
    reorder_cycles_exposed: float
    """Cycles the layout-reordering mechanism adds on the critical path."""
    total_cycles: float
    """End-to-end latency (cycles): compute + stalls + exposed reorder."""
    utilization: float
    """Steady-state MAC utilization of the array (fraction, 0..1)."""
    practical_utilization: float
    """Utilization including stall and reorder cycles (fraction, 0..1)."""
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    """Energy per component (pJ): mac, register, buffer, noc, dram, reorder."""

    @property
    def total_energy_pj(self) -> float:
        """Total energy over all components (pJ)."""
        return sum(self.energy_breakdown_pj.values())

    @property
    def energy_per_mac_pj(self) -> float:
        """Energy per MAC (pJ/MAC).

        A zero-MAC report with nonzero energy returns ``inf`` (the division
        is genuinely undefined) rather than a silent 0.0 that would rank it
        as free; 0 MACs and 0 pJ return 0.0.
        """
        if self.macs:
            return self.total_energy_pj / self.macs
        return math.inf if self.total_energy_pj > 0 else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ * cycles)."""
        return self.total_energy_pj * self.total_cycles

    def latency_seconds(self, frequency_mhz: float) -> float:
        """Wall-clock latency (seconds) at the given clock (MHz)."""
        return self.total_cycles / (frequency_mhz * 1e6)


@dataclass(frozen=True)
class MappingTerms:
    """The layout-independent cost terms of one (workload, mapping) on one arch.

    Computed once per mapping by :meth:`CostModel.mapping_terms` and shared
    by the :class:`ScoreRecord` of every layout scored under that mapping.
    """

    arch: str
    """Name of the architecture."""
    macs: int
    """Multiply-accumulate operations the layer performs (count)."""
    num_pes: int
    """PEs of the architecture's array (count)."""
    compute_cycles: float
    """Ideal compute latency of the mapping (cycles), before stalls."""
    utilization: float
    """Steady-state MAC utilization of the array (fraction, 0..1)."""
    reorder_cycles_exposed: float
    """Cycles the layout-reordering mechanism adds on the critical path."""
    energy_parts_pj: Dict[str, float]
    """Energy per component (pJ), reorder energy included, with
    ``buffer_read`` before its slowdown scaling.  Shared: read-only."""


class ScoreRecord(NamedTuple):
    """The score of one (workload, mapping, layout): a slowdown plus the
    mapping's shared :class:`MappingTerms`.

    The search engine ranks candidates on these records and assembles a
    full :class:`CostReport` only for the winner, with :meth:`report`.  The
    metric properties repeat the report's float operations in the same
    order, so they are bit-identical to the assembled report's values.
    """

    slowdown: float
    """Average bank-conflict slowdown factor (dimensionless, >= 1)."""
    terms: MappingTerms
    """The layout-independent terms of the scored mapping."""

    @property
    def total_cycles(self) -> float:
        """End-to-end latency (cycles): compute + stalls + exposed reorder."""
        terms = self.terms
        compute_cycles = terms.compute_cycles
        return (compute_cycles + compute_cycles * (self.slowdown - 1.0)
                + terms.reorder_cycles_exposed)

    @property
    def energy_breakdown_pj(self) -> Dict[str, float]:
        """Energy per component (pJ), as a fresh dict."""
        breakdown = dict(self.terms.energy_parts_pj)
        breakdown["buffer_read"] = breakdown["buffer_read"] * self.slowdown
        return breakdown

    @property
    def total_energy_pj(self) -> float:
        """Total energy over all components (pJ)."""
        return sum(self.energy_breakdown_pj.values())

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ * cycles)."""
        return self.total_energy_pj * self.total_cycles

    def report(self, workload, mapping: Mapping, layout: Layout) -> CostReport:
        """The full report of this score, labelled with the caller's names."""
        terms = self.terms
        compute_cycles = terms.compute_cycles
        stall_cycles = compute_cycles * (self.slowdown - 1.0)
        total_cycles = (compute_cycles + stall_cycles
                        + terms.reorder_cycles_exposed)
        return CostReport(
            workload=_workload_name(workload),
            arch=terms.arch,
            mapping=mapping.name,
            layout=layout.name,
            macs=terms.macs,
            compute_cycles=compute_cycles,
            slowdown=self.slowdown,
            stall_cycles=stall_cycles,
            reorder_cycles_exposed=terms.reorder_cycles_exposed,
            total_cycles=total_cycles,
            utilization=terms.utilization,
            practical_utilization=(
                terms.macs / (total_cycles * terms.num_pes)
                if total_cycles else 0.0),
            energy_breakdown_pj=self.energy_breakdown_pj,
        )


# ---------------------------------------------------------------------------
# Per-cycle access-coordinate generation for the streaming tensor.
# ---------------------------------------------------------------------------

_CONV_IACT_DIMS = ("C", "H", "W")
_SAMPLE_BASES = ((0, 0, 0), (1, 1, 1), (2, 5, 3), (0, 3, 6))


def _conv_iact_coords(layer: ConvLayerSpec, mapping: Mapping,
                      base: Tuple[int, int, int]) -> List[Dict[str, int]]:
    """Concurrent iAct coordinates demanded by the mapping's parallel dims."""
    c0, h0, w0 = base
    deg = mapping.parallel_dims
    coords = [{"C": c0 % max(1, layer.c), "H": h0 % max(1, layer.h),
               "W": w0 % max(1, layer.w)}]

    def expand(dim_key: str, count: int, apply):
        nonlocal coords
        if count <= 1:
            return
        expanded = []
        for coord in coords:
            for idx in range(count):
                new = dict(coord)
                apply(new, idx)
                expanded.append(new)
        coords = expanded

    expand("C", deg.get("C", 1), lambda c, i: c.update(C=(c["C"] + i) % max(1, layer.c)))
    expand("P", deg.get("P", 1),
           lambda c, i: c.update(H=(c["H"] + i * layer.stride) % max(1, layer.h)))
    expand("Q", deg.get("Q", 1),
           lambda c, i: c.update(W=(c["W"] + i * layer.stride) % max(1, layer.w)))
    expand("R", deg.get("R", 1), lambda c, i: c.update(H=(c["H"] + i) % max(1, layer.h)))
    expand("S", deg.get("S", 1), lambda c, i: c.update(W=(c["W"] + i) % max(1, layer.w)))
    # M and N parallelism broadcasts the same iActs: no new coordinates.
    return coords


def _gemm_input_coords(gemm: GemmSpec, mapping: Mapping,
                       base: Tuple[int, int, int]) -> List[Dict[str, int]]:
    m0, k0, _ = base
    deg = mapping.parallel_dims
    coords = [{"M": m0 % max(1, gemm.m), "K": k0 % max(1, gemm.k)}]

    def expand(dim: str, count: int, extent: int):
        nonlocal coords
        if count <= 1:
            return
        expanded = []
        for coord in coords:
            for idx in range(count):
                new = dict(coord)
                new[dim] = (coord[dim] + idx) % max(1, extent)
                expanded.append(new)
        coords = expanded

    expand("M", deg.get("M", 1), gemm.m)
    expand("K", deg.get("K", 1), gemm.k)
    # N parallelism broadcasts the same input row: no new coordinates.
    return coords


class BoundedMemo:
    """A thread-safe least-recently-used memo holding at most ``maxsize``
    entries (``None`` is never a stored value)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Tuple):
        """The value stored for ``key`` (now most recent), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Tuple, value) -> None:
        """Store ``value``, evicting the least recently used beyond the bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Per-layout slowdown vectors of the batched kernel, shared by every
#: :class:`CostModel` of the process (see :meth:`CostModel.estimate_slowdown_batch`).
#: Process-wide like :func:`repro.kernel.compiled._compile`'s cache: a value
#: is a pure function of its key, so sharing changes no result, and one
#: bound caps the memory of every model a long-lived session builds.
_SLOWDOWNS = BoundedMemo(maxsize=4096)


def clear_slowdown_memo() -> None:
    """Forget every memoized slowdown vector (for timing the bare kernel)."""
    _SLOWDOWNS.clear()


def _workload_name(workload) -> str:
    """The workload's display name (``getattr`` with a lazy str fallback)."""
    try:
        return workload.name
    except AttributeError:
        return str(workload)


def streaming_tensor_dims(workload) -> Dict[str, int]:
    """Extents of the streaming (layout-bearing) tensor's dimensions."""
    if isinstance(workload, ConvLayerSpec):
        return {"C": workload.c, "H": workload.h, "W": workload.w}
    if isinstance(workload, GemmSpec):
        return {"M": workload.m, "K": workload.k}
    raise TypeError(f"unsupported workload {type(workload)!r}")


class CostModel:
    """Analytical latency/energy model with layout awareness."""

    def __init__(self, arch: ArchSpec, energy: Optional[EnergyTable] = None):
        self.arch = arch
        self.energy = energy or DEFAULT_ENERGY_TABLE

    # ----------------------------------------------------------------- public
    def evaluate(self, workload, mapping: Mapping, layout: Layout) -> CostReport:
        """Full latency/energy report of one (workload, mapping, layout).

        This is the scalar reference path; the search engine's hot loop runs
        :meth:`evaluate_mapping_batch`, which is bit-identical.
        """
        return self.score(workload, mapping, layout).report(workload, mapping,
                                                            layout)

    def score(self, workload, mapping: Mapping, layout: Layout) -> "ScoreRecord":
        """Score record of one (workload, mapping, layout), scalar path."""
        return ScoreRecord(self.estimate_slowdown(workload, mapping, layout),
                           self.mapping_terms(workload, mapping))

    def evaluate_mapping_batch(self, workload, mapping: Mapping,
                               layouts: Sequence[Layout]) -> List["ScoreRecord"]:
        """Score records of one mapping under every candidate layout.

        The layout-independent terms are computed once and shared by every
        record; the per-layout slowdowns come from the batched (memoized)
        concordance kernel.  Each record's metrics and assembled report are
        bit-identical to :meth:`evaluate` for its layout.
        """
        terms = self.mapping_terms(workload, mapping)
        return [ScoreRecord(slowdown, terms) for slowdown in
                self.estimate_slowdown_batch(workload, mapping, layouts)]

    def evaluate_batch(self, workload, mappings: Sequence[Mapping],
                       layouts: Sequence[Layout]) -> List[List["ScoreRecord"]]:
        """Score records for the whole (mappings x layouts) cross product.

        Returns one inner list per mapping, in input order.  This is the
        entry point :class:`~repro.layoutloop.mapper.Mapper` and
        :mod:`repro.search.engine` build on (they interleave it with cache
        lookups and pruning, which need per-mapping granularity).
        """
        return [self.evaluate_mapping_batch(workload, mapping, layouts)
                for mapping in mappings]

    def mapping_terms(self, workload, mapping: Mapping) -> "MappingTerms":
        """The layout-independent terms of one (workload, mapping)."""
        compute_cycles = mapping.compute_cycles(workload)
        reorder_exposed, reorder_energy = self.reorder_costs(workload)
        parts = self._energy_breakdown_parts(workload, mapping)
        if reorder_energy:
            parts["reorder"] = parts.get("reorder", 0.0) + reorder_energy
        macs = workload.macs
        num_pes = self.arch.num_pes
        return MappingTerms(
            arch=self.arch.name,
            macs=macs,
            num_pes=num_pes,
            compute_cycles=compute_cycles,
            utilization=(macs / (compute_cycles * num_pes)
                         if compute_cycles else 0.0),
            reorder_cycles_exposed=reorder_exposed,
            energy_parts_pj=parts,
        )

    # -------------------------------------------------------------- slowdown
    def estimate_slowdown(self, workload, mapping: Mapping, layout: Layout) -> float:
        """Average bank-conflict slowdown of streaming-tensor reads under ``layout``."""
        if self.arch.reorder_implementation is ReorderImplementation.RIR:
            # FEATHER co-switches to a concordant layout; by construction the
            # chosen dataflow never reads more lines than ports (§IV-B).
            return 1.0
        dims = streaming_tensor_dims(workload)
        per_cycle = []
        for base in _SAMPLE_BASES:
            if isinstance(workload, ConvLayerSpec):
                per_cycle.append(_conv_iact_coords(workload, mapping, base))
            else:
                per_cycle.append(_gemm_input_coords(workload, mapping, base))
        report = analyze_concordance(
            per_cycle, layout, dims,
            ports_per_bank=self.arch.buffer.ports_per_bank,
            lines_per_bank=self.arch.buffer.conflict_depth,
            num_banks=self.arch.buffer.banks,
            pattern=self.arch.reorder_pattern,
        )
        return report.avg_slowdown

    def estimate_slowdown_batch(self, workload, mapping: Mapping,
                                layouts: Sequence[Layout]) -> List[float]:
        """Per-layout slowdowns of one mapping via the vectorized kernel.

        The access footprint is generated once as a ``(cycles, lanes, ndims)``
        array (:mod:`repro.kernel.footprint`) and every layout is addressed
        through its compiled stride vectors in one batched concordance pass.
        Values are bit-identical to :meth:`estimate_slowdown` per layout.

        The footprint reads only the mapping's streaming parallel degrees,
        so the slowdown vector is memoized on exactly the kernel's inputs:
        buffer geometry and reorder pattern, workload shape, those degrees
        and the layout names.  Mappings that differ only in loop order,
        tile or broadcast parallelism share one kernel run.
        """
        if self.arch.reorder_implementation is ReorderImplementation.RIR:
            return [1.0] * len(layouts)
        buffer = self.arch.buffer
        key = (buffer.ports_per_bank, buffer.conflict_depth, buffer.banks,
               self.arch.reorder_pattern, workload_signature(workload),
               streaming_parallel_degrees(workload, mapping),
               tuple(layout.name for layout in layouts))
        slowdowns = _SLOWDOWNS.get(key)
        if slowdowns is None:
            slowdowns = tuple(self._kernel_slowdowns(workload, mapping,
                                                     layouts))
            _SLOWDOWNS.put(key, slowdowns)
        return list(slowdowns)

    def _kernel_slowdowns(self, workload, mapping: Mapping,
                          layouts: Sequence[Layout]) -> List[float]:
        """One unmemoized run of the batched concordance kernel."""
        dims = streaming_tensor_dims(workload)
        coords, dim_names = streaming_access_coords(workload, mapping,
                                                    _SAMPLE_BASES)
        reports = analyze_concordance_batch(
            coords, dim_names, layouts, dims,
            ports_per_bank=self.arch.buffer.ports_per_bank,
            lines_per_bank=self.arch.buffer.conflict_depth,
            num_banks=self.arch.buffer.banks,
            pattern=self.arch.reorder_pattern,
        )
        return [report.avg_slowdown for report in reports]

    # --------------------------------------------------------- reorder costs
    def reorder_costs(self, workload) -> Tuple[float, float]:
        """(exposed latency cycles, energy pJ) of the layout-reordering mechanism.

        Depends only on the workload and the architecture — not on the
        mapping or layout — which is what lets :mod:`repro.search.bounds`
        fold the exact reorder cost into its admissible pruning bound.
        """
        impl = self.arch.reorder_implementation
        oact_elems = self._oact_elems(workload)
        oact_bytes = oact_elems * self.arch.mac_bits // 8
        table = self.energy

        if impl is ReorderImplementation.NONE:
            return 0.0, 0.0
        if impl is ReorderImplementation.OFF_CHIP:
            # oActs go to DRAM, are reordered there by the CPU, and come back
            # as the next layer's iActs (Fig. 6a): two extra DRAM transfers
            # plus the CPU-side shuffle, all on the inter-layer critical path.
            transfer_cycles = 2.0 * oact_bytes / max(1e-9, self.arch.offchip_bytes_per_cycle)
            cpu_cycles = oact_elems / 8.0  # host reorders ~8 words per accelerator cycle
            exposed = transfer_cycles + cpu_cycles
            energy = 2.0 * oact_bytes * table.dram_access_per_byte_pj
            return exposed, energy
        if impl is ReorderImplementation.RAR:
            # oActs are read from the buffer, pass through a reorder unit and
            # are written back before the next layer can consume them.
            line_size = max(1, self.arch.buffer.line_size)
            reorder_cycles = 2.0 * oact_elems / (line_size * self.arch.buffer.ports_per_bank)
            energy = oact_elems * (table.reorder_unit_per_word_pj
                                   + table.buffer_read_per_word_pj
                                   + table.buffer_write_per_word_pj)
            return reorder_cycles, energy
        if impl is ReorderImplementation.RIR:
            # Reordering rides along the reduction: no exposed latency, only
            # the (small) BIRRD traversal energy.
            return 0.0, oact_elems * table.birrd_per_word_pj
        raise ValueError(f"unknown reorder implementation {impl!r}")

    # ----------------------------------------------------------------- energy
    def _energy_breakdown_parts(self, workload, mapping: Mapping
                                ) -> Dict[str, float]:
        """Layout-independent energy terms (buffer reads before the slowdown
        scaling), computed once per mapping by the batch path."""
        table = self.energy
        macs = workload.macs
        deg = mapping.parallel_dims

        iact_elems, weight_elems, oact_elems = self._tensor_elems(workload)
        bytes_per_elem = self.arch.mac_bits / 8.0

        # Spatial reuse: dimensions whose parallelism does not index the tensor
        # let one buffer read feed several PEs (multicast along the array).
        if isinstance(workload, ConvLayerSpec):
            iact_irrelevant = ("M",)
            weight_irrelevant = ("P", "Q", "N")
            reduction_extent = (workload.c // workload.groups) * workload.r * workload.s
        else:
            iact_irrelevant = ("N",)
            weight_irrelevant = ("M",)
            reduction_extent = workload.k

        iact_spatial_reuse = math.prod(deg.get(d, 1) for d in iact_irrelevant)
        weight_spatial_reuse = math.prod(deg.get(d, 1) for d in weight_irrelevant)

        # Temporal (stationary) reuse from the innermost loops that do not
        # index the tensor: bounded to keep the model sane.
        iact_temporal = self._temporal_reuse(workload, mapping, iact_irrelevant)
        weight_temporal = self._temporal_reuse(workload, mapping, weight_irrelevant)

        iact_reads = max(iact_elems, macs / max(1, iact_spatial_reuse * iact_temporal))
        weight_reads = max(weight_elems, macs / max(1, weight_spatial_reuse * weight_temporal))

        # Partial-sum traffic: if the reduction is not completed back-to-back
        # (reduction dims are not innermost), partial sums spill to the buffer.
        spatial_red = max(1, mapping.spatial_reduction_size)
        reduction_steps = math.ceil(reduction_extent / spatial_red)
        reduction_innermost = any(d in mapping.reduction_dims for d in mapping.order[-2:])
        if reduction_innermost or reduction_steps <= 1:
            psum_writes = oact_elems
            psum_reads = 0
        else:
            spill_factor = min(reduction_steps, 8)
            psum_writes = oact_elems * spill_factor
            psum_reads = oact_elems * (spill_factor - 1)

        buffer_reads = iact_reads + weight_reads + psum_reads
        buffer_writes = psum_writes + iact_elems + weight_elems  # fills from DRAM

        dram_bytes = (iact_elems + weight_elems + oact_elems) * bytes_per_elem

        return {
            "mac": macs * table.mac_int8_pj,
            "register": 2.0 * macs * table.register_access_pj,
            "buffer_read": buffer_reads * table.buffer_read_per_word_pj,
            "buffer_write": buffer_writes * table.buffer_write_per_word_pj,
            "noc": (iact_reads + weight_reads + psum_writes) * table.noc_hop_per_word_pj,
            "dram": dram_bytes * table.dram_access_per_byte_pj,
        }

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _tensor_elems(workload) -> Tuple[int, int, int]:
        if isinstance(workload, ConvLayerSpec):
            return workload.iact_elems, workload.weight_elems, workload.oact_elems
        return workload.input_elems, workload.weight_elems, workload.output_elems

    @staticmethod
    def _oact_elems(workload) -> int:
        if isinstance(workload, ConvLayerSpec):
            return workload.oact_elems
        return workload.output_elems

    def _temporal_reuse(self, workload, mapping: Mapping,
                        irrelevant_dims: Sequence[str]) -> float:
        """Reuse from innermost temporal loops over dims that do not index the tensor."""
        reuse = 1.0
        inner = mapping.order[-2:] if len(mapping.order) >= 2 else mapping.order
        for dim in inner:
            if dim in irrelevant_dims:
                extent = self._dim_extent(workload, dim)
                degree = mapping.parallel_degree(dim)
                reuse *= min(64, max(1, extent // max(1, degree)))
        return reuse

    @staticmethod
    def _dim_extent(workload, dim: str) -> int:
        if isinstance(workload, ConvLayerSpec):
            return workload.dim(dim) if dim in "NMCHWPQRS" else 1
        try:
            return workload.dim(dim)
        except KeyError:
            return 1
