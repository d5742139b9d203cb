"""Typed response dataclasses matching the request classes.

Responses are built on the repo's existing result vocabulary — an
:class:`EvalResponse` payload is a
:class:`~repro.backends.base.BackendReport` field for field (plus the
derived energy metrics), a :class:`SearchResponse` carries the same
``totals`` / ``layers`` / ``search`` rows a
:class:`~repro.scenarios.record.ScenarioRecord` embeds (produced by the
same helpers), and a :class:`SweepResponse` carries full record payloads —
so a wire client and a Python caller read the same numbers under the same
names.

Each response also keeps a **live-object handle** for in-process callers
(``EvalResponse.backend_report``, ``SearchResponse.cost``,
``SweepResponse.results``), so Python callers can read the domain objects
the numbers came from.  The handles are excluded from ``to_dict`` /
equality, so JSON round trips compare equal.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.api.requests import API_SCHEMA_VERSION
from repro.errors import InvalidRequestError


class _ResponseBase:
    """JSON round trip shared by all response classes."""

    _HANDLES: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """The response as plain JSON-compatible data (handles excluded)."""
        data = {}
        for f in fields(self):
            if f.name in self._HANDLES:
                continue
            value = getattr(self, f.name)
            data[f.name] = asdict(value) if hasattr(value, "__dataclass_fields__") else value
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        if not isinstance(data, dict):
            raise InvalidRequestError(
                f"{cls.__name__} payload must be an object, "
                f"got {type(data).__name__}")
        known = {f.name for f in fields(cls)} - set(cls._HANDLES)
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidRequestError(
                f"{cls.__name__} does not accept field(s) {unknown}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidRequestError(f"bad {cls.__name__}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@dataclass
class EvalResponse(_ResponseBase):
    """One cell priced: a :class:`BackendReport` as plain data."""

    _HANDLES = ("backend_report",)

    report: Dict[str, object]
    """The backend report, field for field, plus the derived
    ``total_energy_pj`` / ``energy_per_mac_pj`` / ``edp`` metrics."""
    backend: str
    """Backend registry name that produced the report."""
    key: str
    """sha256 content key of the resolved request."""
    elapsed_s: float = 0.0
    """Wall-clock time of the evaluation (seconds; run metadata)."""
    schema_version: int = API_SCHEMA_VERSION
    served_from: Optional[str] = None
    """``"store"`` when a shared :class:`repro.store.ResultStore` satisfied
    the request without executing; ``None`` when this session computed it
    (run metadata — excluded from content keys like ``elapsed_s``)."""
    backend_report: object = field(default=None, compare=False, repr=False)
    """The live :class:`BackendReport` (in-process callers only; ``None``
    on store-served responses)."""


@dataclass
class SearchResponse(_ResponseBase):
    """A whole-model co-search result in scenario-record vocabulary."""

    _HANDLES = ("cost",)

    model: str
    """Model label of the request."""
    arch: str
    """Resolved architecture name."""
    backend: str
    """Backend the candidates were scored on (or ``"crossval"``)."""
    key: str
    """sha256 content key of the resolved request."""
    totals: Dict[str, float]
    """Whole-model aggregates (:func:`repro.scenarios.record.model_cost_totals`)."""
    layers: List[Dict[str, object]]
    """Per-unique-shape winners (:class:`~repro.scenarios.record.LayerRecord`
    rows as plain data, first-seen order)."""
    search: Dict[str, object]
    """Deterministic engine counters
    (:func:`repro.scenarios.record.search_stats_payload`)."""
    crossval: Optional[Dict[str, object]] = None
    """Analytical-vs-simulated deltas (``backend="crossval"`` only)."""
    frontiers: Optional[List[Dict[str, object]]] = None
    """Per-unique-shape Pareto frontiers
    (:meth:`repro.search.frontier.ShapeFrontier.to_dict` payloads, same
    order as ``layers``; ``frontier=True`` requests only)."""
    fused: Optional[List[Dict[str, object]]] = None
    """Fused adjacent-pair results
    (:meth:`repro.layoutloop.cosearch.FusedPairResult.to_dict` payloads,
    model order; ``fused=True`` requests only)."""
    workers: int = 1
    """Worker processes actually used (run metadata, result-neutral)."""
    elapsed_s: float = 0.0
    """Wall-clock time of the search (seconds; run metadata)."""
    schema_version: int = API_SCHEMA_VERSION
    served_from: Optional[str] = None
    """``"store"`` when a shared :class:`repro.store.ResultStore` satisfied
    the request without executing; ``None`` when this session computed it
    (run metadata — excluded from content keys like ``elapsed_s``)."""
    cost: object = field(default=None, compare=False, repr=False)
    """The live :class:`~repro.layoutloop.cosearch.ModelCost` (in-process
    callers only; ``None`` on store-served responses)."""


@dataclass
class SweepResponse(_ResponseBase):
    """A scenario sweep: one full record payload per executed cell."""

    _HANDLES = ("results",)

    records: List[Dict[str, object]]
    """Full :class:`~repro.scenarios.record.ScenarioRecord` payloads, in
    plan order."""
    cached: List[bool]
    """Per-cell: True when the content-addressed artifact satisfied the
    request without a search."""
    skipped: List[Dict[str, str]]
    """Cells the backend override could not run:
    ``{"scenario", "reason"}`` rows."""
    key: str = ""
    """sha256 content key of the resolved request."""
    elapsed_s: float = 0.0
    """Wall-clock time of the sweep (seconds; run metadata)."""
    schema_version: int = API_SCHEMA_VERSION
    results: object = field(default=None, compare=False, repr=False)
    """The live :class:`~repro.scenarios.runner.MatrixRun` (in-process
    callers only)."""
