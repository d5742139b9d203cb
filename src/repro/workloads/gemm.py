"""GEMM workload specification.

The paper evaluates BERT as a sequence of GEMMs and uses small skewed GEMMs
(Workloads A-D of Fig. 10) to contrast FEATHER's flexible reduction with a
rigid systolic array.  Following the paper's notation the operand shapes are
``inputs: M x K``, ``weights: N x K`` and ``outputs: M x N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.conv import ConvLayerSpec, LayerKind


@dataclass(frozen=True)
class GemmSpec:
    """Shape of a GEMM ``out[M, N] = sum_K in[M, K] * w[N, K]``."""

    name: str
    m: int
    k: int
    n: int
    bits: int = 8

    def __post_init__(self) -> None:
        for attr in ("m", "k", "n", "bits"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n

    @property
    def input_elems(self) -> int:
        return self.m * self.k

    @property
    def weight_elems(self) -> int:
        return self.n * self.k

    @property
    def output_elems(self) -> int:
        return self.m * self.n

    def dim(self, name: str) -> int:
        """Extent of a GEMM dimension by its canonical name (M, K or N)."""
        table = {"M": self.m, "K": self.k, "N": self.n}
        try:
            return table[name.upper()]
        except KeyError as exc:
            raise KeyError(f"unknown GEMM dimension {name!r}") from exc

    def with_batch(self, batch: int) -> "GemmSpec":
        """Return a copy with ``batch`` stacked input matrices.

        A batched GEMM concatenates the batch along the output rows
        (``M' = batch * M``), matching how the BERT attention GEMMs already
        fold their head count into M.
        """
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        if batch == 1:
            return self
        return GemmSpec(name=f"{self.name}_b{batch}", m=batch * self.m,
                        k=self.k, n=self.n, bits=self.bits)

    def as_conv(self) -> ConvLayerSpec:
        """Express the GEMM as a 1x1 convolution so conv-only tooling can run it.

        The reduction dimension K maps to input channels C, the M output rows map
        to output channels, and the N columns map to output spatial positions.
        """
        return ConvLayerSpec(
            name=f"{self.name}_as_conv",
            n=1,
            m=self.m,
            c=self.k,
            h=1,
            w=self.n,
            r=1,
            s=1,
            stride=1,
            padding=0,
            kind=LayerKind.FC,
            bits=self.bits,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(M{self.m} K{self.k} N{self.n})"


def fig10_workloads() -> list:
    """The four skewed GEMM workloads used in Fig. 10.

    Shapes are reconstructed from the figure: Workload A is a regular 8x8x4
    GEMM; B is reduction-free (K=1) with many columns; C has a small K=2 with
    uneven column demand; D is reduction-heavy (K=16) with a single column.
    """
    return [
        GemmSpec("workload_A", m=8, k=8, n=4),
        GemmSpec("workload_B", m=6, k=1, n=8),
        GemmSpec("workload_C", m=5, k=12, n=3),
        GemmSpec("workload_D", m=4, k=16, n=1),
    ]
