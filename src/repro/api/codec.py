"""Payload codecs: domain objects <-> plain-JSON dictionaries.

The request dataclasses of :mod:`repro.api.requests` reference workloads,
architectures, mappings and layouts either **by registry name** (the
:mod:`repro.scenarios.registry` path — what a wire client should use) or
**inline** as the payload dictionaries defined here (what a Python caller
holding already-constructed objects uses).  Both forms are
plain JSON; this module owns the encode/decode pair for each object kind
and guarantees the round trip is exact — a decoded object produces the
same :mod:`repro.search.signatures` signature as the original, so content
keys and cache keys never depend on which form a request arrived in.

Decoding validates: malformed payloads raise
:class:`~repro.errors.InvalidRequestError` (stable ``invalid_request``
code) rather than ``KeyError``/``TypeError`` leaking from constructors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.dataflow.mapping import Mapping, ParallelSpec, TileLevel
from repro.errors import InvalidRequestError
from repro.layout.layout import Layout, parse_layout
from repro.layout.patterns import ReorderImplementation, ReorderPattern
from repro.layoutloop.arch import ArchSpec, BufferGeometry
from repro.layoutloop.cost_model import streaming_tensor_dims
from repro.workloads.conv import ConvLayerSpec, LayerKind
from repro.workloads.gemm import GemmSpec

Payload = Dict[str, object]


def _require(payload: Payload, keys: Sequence[str], what: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidRequestError(
            f"{what} payload is missing field(s) {missing}; got keys "
            f"{sorted(payload)}")


# -------------------------------------------------------------- workloads
def workload_payload(workload) -> Payload:
    """Encode a :class:`ConvLayerSpec` or :class:`GemmSpec` inline."""
    if isinstance(workload, ConvLayerSpec):
        return {"type": "conv", "name": workload.name, "n": workload.n,
                "m": workload.m, "c": workload.c, "h": workload.h,
                "w": workload.w, "r": workload.r, "s": workload.s,
                "stride": workload.stride, "padding": workload.padding,
                "kind": workload.kind.value, "bits": workload.bits,
                "groups": workload.groups}
    if isinstance(workload, GemmSpec):
        return {"type": "gemm", "name": workload.name, "m": workload.m,
                "k": workload.k, "n": workload.n, "bits": workload.bits}
    raise InvalidRequestError(
        f"unsupported workload type {type(workload).__name__!r}")


def workload_from_payload(payload: Payload):
    """Decode an inline workload payload back into its spec dataclass."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"workload payload must be an object, got {type(payload).__name__}")
    kind = payload.get("type")
    try:
        if kind == "conv":
            _require(payload, ("name", "m", "c", "h", "w"), "conv workload")
            return ConvLayerSpec(
                name=str(payload["name"]), n=int(payload.get("n", 1)),
                m=int(payload["m"]), c=int(payload["c"]),
                h=int(payload["h"]), w=int(payload["w"]),
                r=int(payload.get("r", 1)), s=int(payload.get("s", 1)),
                stride=int(payload.get("stride", 1)),
                padding=int(payload.get("padding", 0)),
                kind=LayerKind(payload.get("kind", "conv")),
                bits=int(payload.get("bits", 8)),
                groups=int(payload.get("groups", 1)))
        if kind == "gemm":
            _require(payload, ("name", "m", "k", "n"), "gemm workload")
            return GemmSpec(name=str(payload["name"]), m=int(payload["m"]),
                            k=int(payload["k"]), n=int(payload["n"]),
                            bits=int(payload.get("bits", 8)))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad workload payload: {exc}") from exc
    raise InvalidRequestError(
        f"workload payload type must be 'conv' or 'gemm', got {kind!r}")


def resolve_workloads(workloads: Union[str, Sequence[Payload]]) -> List:
    """A request's ``workloads`` field -> list of workload objects.

    A string is a workload-set spec resolved through the scenario registry
    (slices like ``"resnet50[:4]"`` included); a sequence is decoded
    payload by payload.
    """
    if isinstance(workloads, str):
        from repro.scenarios.registry import resolve_workload_set

        return resolve_workload_set(workloads)
    if not workloads:
        raise InvalidRequestError("workloads must name a registered set or "
                                  "carry at least one inline payload")
    return [workload_from_payload(p) for p in workloads]


def resolve_workload(workload: Union[str, Payload]):
    """A request's single-``workload`` field -> one workload object.

    Strings take the form ``"<set spec>#<index>"`` (e.g. ``"fig10_gemms#0"``,
    default index 0); anything else is an inline payload.
    """
    if isinstance(workload, str):
        spec, sep, index_text = workload.partition("#")
        try:
            index = int(index_text) if sep else 0
        except ValueError:
            raise InvalidRequestError(
                f"workload index in {workload!r} must be an integer") from None
        workloads = resolve_workloads(spec)
        if not 0 <= index < len(workloads):
            raise InvalidRequestError(
                f"workload index {index} out of range for set {spec!r} "
                f"({len(workloads)} workload(s))")
        return workloads[index]
    return workload_from_payload(workload)


# ----------------------------------------------------------- architectures
def arch_payload(arch: ArchSpec) -> Payload:
    """Encode an :class:`ArchSpec` inline (every cost-model-visible field)."""
    buf = arch.buffer
    return {
        "name": arch.name, "pe_rows": arch.pe_rows, "pe_cols": arch.pe_cols,
        "flexible_order": arch.flexible_order,
        "flexible_parallelism": arch.flexible_parallelism,
        "flexible_shape": arch.flexible_shape,
        "allowed_parallel_dims": (None if arch.allowed_parallel_dims is None
                                  else list(arch.allowed_parallel_dims)),
        "max_parallel_dims": arch.max_parallel_dims,
        "fixed_parallelism": (None if arch.fixed_parallelism is None
                              else [[d, n] for d, n in arch.fixed_parallelism]),
        "runtime_layout_flexible": arch.runtime_layout_flexible,
        "compile_time_layout_flexible": arch.compile_time_layout_flexible,
        "fixed_layout": arch.fixed_layout,
        "reorder_pattern": arch.reorder_pattern.value,
        "reorder_implementation": arch.reorder_implementation.value,
        "buffer": {"num_lines": buf.num_lines, "line_size": buf.line_size,
                   "banks": buf.banks, "ports_per_bank": buf.ports_per_bank,
                   "word_bits": buf.word_bits},
        "offchip_bandwidth_gbps": arch.offchip_bandwidth_gbps,
        "frequency_mhz": arch.frequency_mhz,
        "mac_bits": arch.mac_bits,
    }


def arch_from_payload(payload: Payload) -> ArchSpec:
    """Decode an inline architecture payload back into an :class:`ArchSpec`."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"arch payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "pe_rows", "pe_cols"), "arch")
    try:
        buf = payload.get("buffer") or {}
        fixed = payload.get("fixed_parallelism")
        allowed = payload.get("allowed_parallel_dims")
        return ArchSpec(
            name=str(payload["name"]), pe_rows=int(payload["pe_rows"]),
            pe_cols=int(payload["pe_cols"]),
            flexible_order=bool(payload.get("flexible_order", True)),
            flexible_parallelism=bool(payload.get("flexible_parallelism",
                                                  True)),
            flexible_shape=bool(payload.get("flexible_shape", True)),
            allowed_parallel_dims=(None if allowed is None
                                   else tuple(str(d) for d in allowed)),
            max_parallel_dims=int(payload.get("max_parallel_dims", 2)),
            fixed_parallelism=(None if fixed is None else
                               tuple((str(d), int(n)) for d, n in fixed)),
            runtime_layout_flexible=bool(
                payload.get("runtime_layout_flexible", False)),
            compile_time_layout_flexible=bool(
                payload.get("compile_time_layout_flexible", True)),
            fixed_layout=payload.get("fixed_layout"),
            reorder_pattern=ReorderPattern(
                payload.get("reorder_pattern", "none")),
            reorder_implementation=ReorderImplementation(
                payload.get("reorder_implementation", "none")),
            buffer=BufferGeometry(
                num_lines=int(buf.get("num_lines", 2048)),
                line_size=int(buf.get("line_size", 32)),
                banks=int(buf.get("banks", 32)),
                ports_per_bank=int(buf.get("ports_per_bank", 2)),
                word_bits=int(buf.get("word_bits", 8))),
            offchip_bandwidth_gbps=float(
                payload.get("offchip_bandwidth_gbps", 25.6)),
            frequency_mhz=float(payload.get("frequency_mhz", 1000.0)),
            mac_bits=int(payload.get("mac_bits", 8)))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad arch payload: {exc}") from exc


def resolve_arch(arch: Union[str, Payload]) -> ArchSpec:
    """A request's ``arch`` field -> an :class:`ArchSpec` (name or inline)."""
    if isinstance(arch, str):
        from repro.scenarios.registry import resolve_arch as registry_arch

        return registry_arch(arch)
    return arch_from_payload(arch)


# --------------------------------------------------------------- mappings
def mapping_payload(mapping: Mapping) -> Payload:
    """Encode a :class:`~repro.dataflow.mapping.Mapping` inline."""
    return {
        "name": mapping.name,
        "array_rows": mapping.array_rows, "array_cols": mapping.array_cols,
        "parallel": [[p.dim, p.degree] for p in mapping.parallel],
        "tile": [[d, n] for d, n in mapping.tile.sizes],
        "order": list(mapping.order),
        "reduction_dims": sorted(mapping.reduction_dims),
    }


def mapping_from_payload(payload: Payload) -> Mapping:
    """Decode an inline mapping payload back into a :class:`Mapping`."""
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"mapping payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "array_rows", "array_cols", "parallel",
                       "tile", "order", "reduction_dims"), "mapping")
    try:
        return Mapping(
            name=str(payload["name"]),
            array_rows=int(payload["array_rows"]),
            array_cols=int(payload["array_cols"]),
            parallel=tuple(ParallelSpec(str(d), int(n))
                           for d, n in payload["parallel"]),
            tile=TileLevel(tuple((str(d), int(n))
                                 for d, n in payload["tile"])),
            order=tuple(str(d) for d in payload["order"]),
            reduction_dims=frozenset(str(d)
                                     for d in payload["reduction_dims"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad mapping payload: {exc}") from exc


def resolve_mapping(mapping: Union[str, Payload], workload,
                    arch: ArchSpec) -> Mapping:
    """A request's ``mapping`` field -> a concrete :class:`Mapping`.

    The one named mapping is ``"output_stationary"`` — the canonical
    policy mapping derived from the workload and the architecture's PE
    array; anything else must be an inline payload.
    """
    if isinstance(mapping, str):
        if mapping != "output_stationary":
            raise InvalidRequestError(
                f"unknown named mapping {mapping!r}; use "
                "'output_stationary' or an inline mapping payload")
        from repro.dataflow.mapping import output_stationary_mapping

        return output_stationary_mapping(workload, arch.pe_rows,
                                         arch.pe_cols)
    return mapping_from_payload(mapping)


# ----------------------------------------------------------------- layouts
def resolve_layout(name: str) -> Layout:
    """A layout name string (``"HWC_C32"``-style) -> a :class:`Layout`."""
    if not isinstance(name, str) or not name:
        raise InvalidRequestError(
            f"layout must be a non-empty name string, got {name!r}")
    try:
        return parse_layout(name)
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad layout {name!r}: {exc}") from exc


def check_layout_fits(layout: Layout, workload) -> None:
    """Reject a layout that cannot address ``workload``'s streaming tensor.

    The inter-line order must name each streaming dimension (C, H, W for a
    convolution's iActs; M, K for a GEMM's input) exactly once, and the
    intra-line dimensions must be among them.  Raises
    :class:`InvalidRequestError` otherwise.
    """
    dims = tuple(streaming_tensor_dims(workload))
    if (sorted(layout.inter_order) != sorted(dims)
            or not set(layout.intra_dims) <= set(dims)):
        raise InvalidRequestError(
            f"layout {layout.name!r} does not fit the streaming tensor of "
            f"{getattr(workload, 'name', workload)!r}: the inter-line order "
            f"must be a permutation of {''.join(dims)} and the intra-line "
            f"dimensions must be among them")


def resolve_layouts(names: Optional[Sequence[str]]) -> Optional[List[Layout]]:
    """A request's optional layout restriction -> layout objects (or None)."""
    if names is None:
        return None
    layouts = [resolve_layout(n) for n in names]
    if not layouts:
        raise InvalidRequestError("layouts, when given, must not be empty")
    return layouts


# --------------------------------------------------------------- scenarios
def scenario_payload(scenario) -> Payload:
    """Encode a :class:`~repro.scenarios.spec.Scenario` inline."""
    return {"name": scenario.name, "workload_set": scenario.workload_set,
            "arch": scenario.arch, "config": scenario.config.as_dict(),
            "tags": list(scenario.tags), "backend": scenario.backend}


def scenario_from_payload(payload: Payload):
    """Decode an inline scenario payload back into a :class:`Scenario`."""
    from repro.scenarios.spec import Scenario, SearchConfig

    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"scenario payload must be an object, got {type(payload).__name__}")
    _require(payload, ("name", "workload_set", "arch", "config"), "scenario")
    try:
        return Scenario(
            name=str(payload["name"]),
            workload_set=str(payload["workload_set"]),
            arch=str(payload["arch"]),
            config=SearchConfig.from_dict(payload["config"]),
            tags=tuple(str(t) for t in payload.get("tags", ())),
            backend=str(payload.get("backend", "analytical")))
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, InvalidRequestError):
            raise
        raise InvalidRequestError(f"bad scenario payload: {exc}") from exc
