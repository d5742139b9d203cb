"""Per-cycle access footprints as ``(cycles, lanes, ndims)`` integer arrays.

The scalar cost model (:func:`repro.layoutloop.cost_model._conv_iact_coords`
and ``_gemm_input_coords``) expands a mapping's parallel dimensions into a
list of coordinate dicts per sampled cycle.  The functions here produce the
same coordinates — the same modular walk, in the same lane nesting order —
but as one int64 array per workload covering every sample base at once, so a
compiled layout can address the whole footprint in a single numpy shot.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec

CONV_STREAM_DIMS: Tuple[str, ...] = ("C", "H", "W")
"""Coordinate-column order of conv iAct footprints."""

GEMM_STREAM_DIMS: Tuple[str, ...] = ("M", "K")
"""Coordinate-column order of GEMM input footprints."""


CONV_STREAM_PARALLEL_DIMS: Tuple[str, ...] = ("C", "P", "Q", "R", "S")
"""Conv dimensions whose parallel degrees shape the iAct footprint."""

GEMM_STREAM_PARALLEL_DIMS: Tuple[str, ...] = ("M", "K")
"""GEMM dimensions whose parallel degrees shape the input footprint."""


def streaming_parallel_degrees(workload, mapping) -> Tuple[int, ...]:
    """The only mapping quantities the streaming footprint depends on.

    Two mappings with equal degrees (and the same workload shape) have the
    same footprint whatever their loop order, tile or other parallel
    dimensions — the key the cost model memoizes slowdowns on.
    """
    if isinstance(workload, ConvLayerSpec):
        dims = CONV_STREAM_PARALLEL_DIMS
    elif isinstance(workload, GemmSpec):
        dims = GEMM_STREAM_PARALLEL_DIMS
    else:
        raise TypeError(f"unsupported workload {type(workload)!r}")
    deg = mapping.parallel_dims
    return tuple(max(1, deg.get(dim, 1)) for dim in dims)


def conv_iact_coords_batch(layer: ConvLayerSpec, mapping,
                           bases: Sequence[Tuple[int, int, int]]
                           ) -> np.ndarray:
    """iAct footprint of a conv mapping: ``(len(bases), lanes, 3)`` int64.

    Column order is :data:`CONV_STREAM_DIMS`.  Lane nesting replicates the
    scalar expansion order C → P → Q → R → S (C slowest-varying), and every
    coordinate value matches the scalar path's chained modular updates:
    P/R both shift H, Q/S both shift W, each re-wrapped at its extent.
    """
    c = max(1, layer.c)
    h = max(1, layer.h)
    w = max(1, layer.w)
    deg = mapping.parallel_dims
    d_c = max(1, deg.get("C", 1))
    d_p = max(1, deg.get("P", 1))
    d_q = max(1, deg.get("Q", 1))
    d_r = max(1, deg.get("R", 1))
    d_s = max(1, deg.get("S", 1))

    num_bases = len(bases)
    c0 = np.array([b[0] for b in bases], dtype=np.int64).reshape(-1, 1, 1, 1, 1, 1) % c
    h0 = np.array([b[1] for b in bases], dtype=np.int64).reshape(-1, 1, 1, 1, 1, 1) % h
    w0 = np.array([b[2] for b in bases], dtype=np.int64).reshape(-1, 1, 1, 1, 1, 1) % w
    i_c = np.arange(d_c, dtype=np.int64).reshape(1, -1, 1, 1, 1, 1)
    i_p = np.arange(d_p, dtype=np.int64).reshape(1, 1, -1, 1, 1, 1)
    i_q = np.arange(d_q, dtype=np.int64).reshape(1, 1, 1, -1, 1, 1)
    i_r = np.arange(d_r, dtype=np.int64).reshape(1, 1, 1, 1, -1, 1)
    i_s = np.arange(d_s, dtype=np.int64).reshape(1, 1, 1, 1, 1, -1)

    coord_c = (c0 + i_c) % c
    coord_h = ((h0 + i_p * layer.stride) % h + i_r) % h
    coord_w = ((w0 + i_q * layer.stride) % w + i_s) % w

    shape = (num_bases, d_c, d_p, d_q, d_r, d_s)
    stacked = np.stack([np.broadcast_to(coord_c, shape),
                        np.broadcast_to(coord_h, shape),
                        np.broadcast_to(coord_w, shape)], axis=-1)
    return stacked.reshape(num_bases, -1, 3)


def gemm_input_coords_batch(gemm: GemmSpec, mapping,
                            bases: Sequence[Tuple[int, int, int]]
                            ) -> np.ndarray:
    """Input footprint of a GEMM mapping: ``(len(bases), lanes, 2)`` int64.

    Column order is :data:`GEMM_STREAM_DIMS`; lane nesting is M outer, K
    inner, matching the scalar expansion.  N parallelism broadcasts the same
    input row and contributes no lanes (as in the scalar path).
    """
    m = max(1, gemm.m)
    k = max(1, gemm.k)
    deg = mapping.parallel_dims
    d_m = max(1, deg.get("M", 1))
    d_k = max(1, deg.get("K", 1))

    num_bases = len(bases)
    m0 = np.array([b[0] for b in bases], dtype=np.int64).reshape(-1, 1, 1) % m
    k0 = np.array([b[1] for b in bases], dtype=np.int64).reshape(-1, 1, 1) % k
    i_m = np.arange(d_m, dtype=np.int64).reshape(1, -1, 1)
    i_k = np.arange(d_k, dtype=np.int64).reshape(1, 1, -1)

    coord_m = (m0 + i_m) % m
    coord_k = (k0 + i_k) % k

    shape = (num_bases, d_m, d_k)
    stacked = np.stack([np.broadcast_to(coord_m, shape),
                        np.broadcast_to(coord_k, shape)], axis=-1)
    return stacked.reshape(num_bases, -1, 2)


def streaming_access_coords(workload, mapping,
                            bases: Sequence[Tuple[int, int, int]]
                            ) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """``(coords, dim_names)`` for the streaming tensor of any workload kind."""
    if isinstance(workload, ConvLayerSpec):
        return (conv_iact_coords_batch(workload, mapping, bases),
                CONV_STREAM_DIMS)
    if isinstance(workload, GemmSpec):
        return (gemm_input_coords_batch(workload, mapping, bases),
                GEMM_STREAM_DIMS)
    raise TypeError(f"unsupported workload {type(workload)!r}")
