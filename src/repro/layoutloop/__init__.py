"""Layoutloop: Timeloop-style cost model extended with layout awareness."""

from repro.layoutloop.arch import ArchSpec, BufferGeometry, feather_arch
from repro.layoutloop.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from repro.layoutloop.cost_model import CostModel, CostReport, streaming_tensor_dims
from repro.layoutloop.mapper import Mapper, SearchResult
from repro.layoutloop.cosearch import (
    LayerChoice,
    ModelCost,
    unique_workloads,
)

__all__ = [
    "ArchSpec",
    "BufferGeometry",
    "feather_arch",
    "DEFAULT_ENERGY_TABLE",
    "EnergyTable",
    "CostModel",
    "CostReport",
    "streaming_tensor_dims",
    "Mapper",
    "SearchResult",
    "LayerChoice",
    "ModelCost",
    "unique_workloads",
]
