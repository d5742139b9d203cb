"""Vectorized cost-model kernel.

The scalar Layoutloop path (``repro.layout`` + ``repro.layoutloop``) maps one
Python dict per tensor coordinate through :meth:`repro.layout.Layout.address`
— fine for unit tests, quadratic-in-Python-overhead for co-search traffic.
This package is the array-native core that PR 2 layers underneath it:

* :class:`~repro.kernel.compiled.CompiledLayout` — a layout compiled against
  concrete tensor extents into integer stride/divisor vectors, so a whole
  batch of coordinates maps to ``(line, offset)`` with one shot of numpy
  integer arithmetic (:func:`~repro.kernel.compiled.compile_layout`).
* :mod:`repro.kernel.footprint` — per-cycle access footprints generated as
  ``(cycles, lanes, ndims)`` integer arrays instead of lists of dicts.
* :func:`~repro.kernel.concordance.analyze_concordance_batch` — bank-conflict
  analysis over all sample cycles and all candidate layouts of one mapping at
  once, via ``np.unique``/``np.bincount``.

Everything here is **result-identical** to the scalar path: the integer
address math is the same algebra, and every float (slowdowns, averages) is
produced by the same IEEE-754 operations in the same order.  The scalar
implementations remain in place as the property-tested reference oracle
(``tests/test_kernel_equivalence.py``).
"""

from repro.kernel.compiled import CompiledLayout, compile_layout
from repro.kernel.concordance import analyze_concordance_batch, cycle_slowdowns
from repro.kernel.footprint import (
    CONV_STREAM_DIMS,
    GEMM_STREAM_DIMS,
    conv_iact_coords_batch,
    gemm_input_coords_batch,
    streaming_access_coords,
)

__all__ = [
    "CompiledLayout",
    "compile_layout",
    "analyze_concordance_batch",
    "cycle_slowdowns",
    "CONV_STREAM_DIMS",
    "GEMM_STREAM_DIMS",
    "conv_iact_coords_batch",
    "gemm_input_coords_batch",
    "streaming_access_coords",
]
