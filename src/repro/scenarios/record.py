"""Structured scenario result records and their JSON round-trip.

A :class:`ScenarioRecord` is the artifact one scenario cell produces: the
whole-model totals (latency, energy, EDP, utilization, stall/reorder
shares), the per-unique-shape winners (best mapping + layout and their
costs), the engine counters, and the full provenance needed to re-run the
cell — workload-set/arch/config names, the RNG seed, the ``repro`` version
and the content-address ``key``.

Records are split into a **deterministic payload** (everything that must be
bit-identical across re-runs: compared by the golden tests and the CLI
``diff``) and **run metadata** (``workers``, ``elapsed_s``,
``repro_version``) that may legitimately differ between runs producing the
same numbers.  JSON serialization uses the stdlib ``json`` module, whose
shortest-round-trip float repr makes ``write -> read`` exact: parsed floats
compare bit-identical to the originals.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA_VERSION = 4

#: Record fields excluded from the deterministic payload: they describe how
#: a run executed (or which release produced it), not what it computed.
#: ``key`` is provenance too — it hashes the package version so the result
#: cache invalidates across releases, which must not fail a golden compare
#: when the numbers themselves are unchanged.
RUN_METADATA_FIELDS = ("workers", "elapsed_s", "repro_version", "key")


@dataclass(frozen=True)
class LayerRecord:
    """Per-unique-shape winner of one scenario cell."""

    workload: str
    """Name of the first-seen layer with this shape."""
    count: int
    """Occurrences of the shape in the workload set (weights the totals)."""
    mapping: str
    """Name of the winning dataflow mapping."""
    layout: str
    """Name of the winning streaming-tensor layout."""
    macs: int
    """MACs of one occurrence (count)."""
    compute_cycles: float
    """Ideal compute latency of one occurrence (cycles)."""
    stall_cycles: float
    """Bank-conflict stall cycles of one occurrence."""
    reorder_cycles_exposed: float
    """Reordering cycles on the critical path of one occurrence."""
    total_cycles: float
    """End-to-end latency of one occurrence (cycles)."""
    total_energy_pj: float
    """Energy of one occurrence (pJ)."""
    utilization: float
    """Steady-state MAC utilization (0..1)."""
    practical_utilization: float
    """Utilization including stall/reorder cycles (0..1)."""


@dataclass
class ScenarioRecord:
    """The JSON artifact of one executed scenario cell."""

    scenario: str
    """Cell name (matrix-unique)."""
    workload_set: str
    """Workload-set spec the cell resolved (may carry a ``[:k]`` slice)."""
    arch: str
    """Architecture registry name."""
    config: Dict[str, object]
    """The :class:`~repro.scenarios.spec.SearchConfig` as a dict."""
    seed: int
    """RNG seed of the mapping sampler — and, on simulator-backed cells, of
    the deterministic weight/iAct generation (duplicated from ``config`` so
    the reproducibility contract is visible at the top level)."""
    key: str
    """Content address: sha256 over the resolved cell definition."""
    totals: Dict[str, float]
    """Whole-model aggregates (cycles, pJ, pJ/MAC, EDP, utilization, ...)."""
    layers: List[LayerRecord]
    """Per-unique-shape winners, in first-seen order."""
    search: Dict[str, object]
    """Deterministic engine counters (evaluations, pruned, cache hits...)."""
    backend: str = "analytical"
    """Evaluation backend the cell ran on (``analytical``, ``simulator`` or
    ``crossval``); part of the deterministic payload — backends produce
    different numbers by design."""
    crossval: Optional[Dict[str, object]] = None
    """Per-cell analytical-vs-simulated deltas
    (:meth:`repro.backends.crossval.CrossValidation.as_dict`); only present
    on ``crossval``-backed cells."""
    frontiers: Optional[List[Dict[str, object]]] = None
    """Per-unique-shape Pareto frontiers
    (:meth:`repro.search.frontier.ShapeFrontier.to_dict` payloads, same
    order as ``layers``); only present on ``frontier=True`` cells.  Part of
    the deterministic payload — frontiers are golden-testable content."""
    fused: Optional[List[Dict[str, object]]] = None
    """Fused adjacent-pair results
    (:meth:`repro.layoutloop.cosearch.FusedPairResult.to_dict` payloads,
    model order); only present on ``fused=True`` cells.  Deterministic
    payload, like ``frontiers``."""
    repro_version: str = ""
    """``repro.__version__`` that produced the record."""
    workers: int = 1
    """Worker processes the run used (result-neutral)."""
    elapsed_s: float = 0.0
    """Wall-clock time of the cell (seconds)."""
    schema: int = SCHEMA_VERSION
    """Record schema version."""

    # ------------------------------------------------------------- payloads
    def to_dict(self) -> Dict[str, object]:
        """The full record as plain JSON-compatible data."""
        return asdict(self)

    def deterministic_payload(self) -> Dict[str, object]:
        """The bit-identical-across-reruns view (golden/diff comparisons).

        Drops :data:`RUN_METADATA_FIELDS` — everything left must match
        exactly when the cell is re-run with its embedded seed, regardless
        of worker count or the package version.
        """
        data = self.to_dict()
        for field_name in RUN_METADATA_FIELDS:
            data.pop(field_name)
        return data

    # ----------------------------------------------------------------- JSON
    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioRecord":
        layers = [LayerRecord(**layer) for layer in data["layers"]]
        # ``vectorize`` is run metadata older records carry; nothing reads it.
        fields = {k: v for k, v in data.items()
                  if k not in ("layers", "vectorize")}
        return cls(layers=layers, **fields)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioRecord":
        return cls.from_dict(json.loads(text))

    def write(self, path: Path) -> None:
        """Write the record as pretty-printed JSON."""
        Path(path).write_text(self.to_json())

    @classmethod
    def read(cls, path: Path) -> "ScenarioRecord":
        return cls.from_json(Path(path).read_text())


def model_cost_layers(cost) -> List[LayerRecord]:
    """Per-unique-shape winner rows of a
    :class:`~repro.layoutloop.cosearch.ModelCost` — the shared vocabulary
    of scenario records and :class:`repro.api` search responses."""
    layers = []
    for choice in cost.layer_choices:
        result = choice.result
        report = result.best_report
        layers.append(LayerRecord(
            workload=result.workload,
            count=choice.count,
            mapping=result.best_mapping.name,
            layout=result.best_layout.name,
            macs=report.macs,
            compute_cycles=report.compute_cycles,
            stall_cycles=report.stall_cycles,
            reorder_cycles_exposed=report.reorder_cycles_exposed,
            total_cycles=report.total_cycles,
            total_energy_pj=report.total_energy_pj,
            utilization=report.utilization,
            practical_utilization=report.practical_utilization,
        ))
    return layers


def model_cost_totals(cost) -> Dict[str, float]:
    """Whole-model aggregate row of a ``ModelCost`` (shared vocabulary)."""
    return {
        "total_cycles": cost.total_cycles,
        "total_energy_pj": cost.total_energy_pj,
        "total_macs": cost.total_macs,
        "energy_per_mac_pj": cost.energy_per_mac_pj,
        "edp": cost.edp,
        "avg_utilization": cost.avg_utilization,
        "stall_fraction": cost.stall_fraction,
        "reorder_fraction": cost.reorder_fraction,
    }


def search_stats_payload(stats) -> Dict[str, object]:
    """Deterministic engine counters of a
    :class:`~repro.search.engine.SearchStats` (shared vocabulary)."""
    return {
        "backend": stats.backend,
        "policy": stats.policy,
        "budget": stats.budget,
        "layers_total": stats.layers_total,
        "layers_unique": stats.layers_unique,
        "evaluations": stats.evaluations,
        "pruned": stats.pruned,
        "repaired": stats.repaired,
        "repair": stats.repair,
        "cache_hits": stats.cache.hits,
        "cache_misses": stats.cache.misses,
    }


def record_from_model_cost(scenario, cost, key: str, repro_version: str,
                           workers: int = 1, elapsed_s: float = 0.0,
                           backend: str = "analytical",
                           crossval: Optional[Dict[str, object]] = None,
                           frontiers: Optional[List[Dict[str, object]]] = None,
                           fused: Optional[List[Dict[str, object]]] = None,
                           ) -> ScenarioRecord:
    """Build a record from a :class:`~repro.layoutloop.cosearch.ModelCost`.

    ``backend`` names the evaluation backend that produced ``cost``;
    ``crossval`` attaches the per-cell analytical-vs-simulated deltas on
    cross-validation cells (whose ``cost``/totals are the analytical side);
    ``frontiers``/``fused`` attach the Pareto-frontier and fused-pair
    payloads of ``frontier=True``/``fused=True`` cells.
    """
    layers = model_cost_layers(cost)
    totals = model_cost_totals(cost)
    search = search_stats_payload(cost.search_stats)
    return ScenarioRecord(
        scenario=scenario.name,
        workload_set=scenario.workload_set,
        arch=scenario.arch,
        config=scenario.config.as_dict(),
        seed=scenario.config.seed,
        key=key,
        totals=totals,
        layers=layers,
        search=search,
        backend=backend,
        crossval=crossval,
        frontiers=frontiers,
        fused=fused,
        repro_version=repro_version,
        workers=workers,
        elapsed_s=elapsed_s,
    )


def diff_payloads(a: object, b: object, prefix: str = "") -> List[str]:
    """Human-readable differences between two JSON-like payloads.

    Returns an empty list when the payloads are identical (exact float
    equality — this is the golden-file comparison, not a tolerance check).
    """
    diffs: List[str] = []
    label = prefix or "<root>"
    if type(a) is not type(b) and not (isinstance(a, (int, float))
                                       and isinstance(b, (int, float))):
        diffs.append(f"{label}: type {type(a).__name__} != {type(b).__name__}")
        return diffs
    if isinstance(a, dict):
        for missing in sorted(set(a) - set(b)):
            diffs.append(f"{label}.{missing}: only in first")
        for extra in sorted(set(b) - set(a)):
            diffs.append(f"{label}.{extra}: only in second")
        for key_name in sorted(set(a) & set(b)):
            child = f"{prefix}.{key_name}" if prefix else str(key_name)
            diffs.extend(diff_payloads(a[key_name], b[key_name], child))
        return diffs
    if isinstance(a, list):
        if len(a) != len(b):
            diffs.append(f"{label}: length {len(a)} != {len(b)}")
        for index, (ai, bi) in enumerate(zip(a, b)):
            diffs.extend(diff_payloads(ai, bi, f"{prefix}[{index}]"))
        return diffs
    if a != b:
        diffs.append(f"{label}: {a!r} != {b!r}")
    return diffs
