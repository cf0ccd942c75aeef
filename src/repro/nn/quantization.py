"""Quantized embedding storage: the related-work alternative to FAE.

The paper's SS V discusses mixed-precision / compressed-embedding
approaches ([16], [46]) and argues two points: (1) even a 2-4x footprint
reduction leaves real tables far beyond GPU memory (61 GB -> 15-30 GB vs
16 GB HBM), and (2) changing the numeric representation "requires
accuracy revalidation across a variety of models and datasets", whereas
FAE trains the unmodified fp32 model.  This module implements the
alternative honestly so the claim can be measured rather than asserted:

- :func:`quantize_fp16` / :class:`Fp16EmbeddingTable` — half-precision
  row storage, dequantized on lookup, re-quantized on update.
- :func:`quantize_int8_rows` / :class:`Int8EmbeddingTable` — 8-bit
  rows with per-row absmax scales.

Both tables expose the :class:`~repro.nn.embedding.EmbeddingTable`
surface, so :class:`~repro.nn.embedding.EmbeddingBag` (and therefore
DLRM/TBSM) runs on them unchanged.  Caller:
``benchmarks/test_x3_quantized.py`` (a labelled extension, not on any
training path).
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import normal_init
from repro.nn.parameter import Parameter

__all__ = [
    "quantize_fp16",
    "dequantize_fp16",
    "quantize_int8_rows",
    "dequantize_int8_rows",
    "Fp16EmbeddingTable",
    "Int8EmbeddingTable",
]


def quantize_fp16(values: np.ndarray) -> np.ndarray:
    """fp32 -> fp16 (relative error <= 2^-11 within range)."""
    return values.astype(np.float16)


def dequantize_fp16(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32)


def quantize_int8_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fp32 rows -> (int8 codes, per-row absmax scales).

    Each row is scaled so its largest magnitude maps to 127; all-zero
    rows get scale 1 to avoid division by zero.
    """
    if values.ndim != 2:
        raise ValueError("expected a (rows, dim) matrix")
    absmax = np.abs(values).max(axis=1, keepdims=True)
    scales = np.where(absmax > 0, absmax / 127.0, 1.0).astype(np.float32)
    codes = np.clip(np.round(values / scales), -127, 127).astype(np.int8)
    return codes, scales[:, 0]


def dequantize_int8_rows(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    return (codes.astype(np.float32) * scales[:, None]).astype(np.float32)


class _QuantizedTableBase:
    """Shared surface: lazily materialized fp32 view + quantized backing.

    The fp32 ``weight`` Parameter is the *working* copy layers read and
    write; :meth:`requantize` pushes it through the quantized
    representation, injecting exactly the rounding noise the storage
    format would impose.  Training loops call :meth:`requantize` after
    each optimizer step (storage never holds full precision).
    """

    name: str
    num_rows: int
    dim: int
    weight: Parameter

    def subset(self, ids: np.ndarray) -> np.ndarray:
        return self.weight.value[np.asarray(ids, dtype=np.int64)].copy()

    def write_rows(self, ids: np.ndarray, values: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if values.shape != (ids.shape[0], self.dim):
            raise ValueError(f"{self.name}: bad write shape {values.shape}")
        self.weight.value[ids] = values
        self.requantize(ids)

    def requantize(self, ids: np.ndarray | None = None) -> None:
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        raise NotImplementedError


class Fp16EmbeddingTable(_QuantizedTableBase):
    """Embedding table stored in half precision.

    Args:
        name: table name.
        num_rows: cardinality.
        dim: embedding dimension.
        rng: init generator (same init law as the fp32 table).
    """

    def __init__(self, name: str, num_rows: int, dim: int, rng: np.random.Generator) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        self.name = name
        self.num_rows = num_rows
        self.dim = dim
        initial = normal_init((num_rows, dim), 1.0 / np.sqrt(dim), rng)
        self._storage = quantize_fp16(initial)
        self.weight = Parameter(name, dequantize_fp16(self._storage))

    def requantize(self, ids: np.ndarray | None = None) -> None:
        """Round the working copy through fp16 storage."""
        if ids is None:
            self._storage = quantize_fp16(self.weight.value)
            self.weight.value[...] = dequantize_fp16(self._storage)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            self._storage[ids] = quantize_fp16(self.weight.value[ids])
            self.weight.value[ids] = dequantize_fp16(self._storage[ids])

    @property
    def nbytes(self) -> int:
        """Storage footprint: 2 bytes per value."""
        return self.num_rows * self.dim * 2


class Int8EmbeddingTable(_QuantizedTableBase):
    """Embedding table stored as int8 codes with per-row scales."""

    def __init__(self, name: str, num_rows: int, dim: int, rng: np.random.Generator) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        self.name = name
        self.num_rows = num_rows
        self.dim = dim
        initial = normal_init((num_rows, dim), 1.0 / np.sqrt(dim), rng)
        self._codes, self._scales = quantize_int8_rows(initial)
        self.weight = Parameter(name, dequantize_int8_rows(self._codes, self._scales))

    def requantize(self, ids: np.ndarray | None = None) -> None:
        if ids is None:
            self._codes, self._scales = quantize_int8_rows(self.weight.value)
            self.weight.value[...] = dequantize_int8_rows(self._codes, self._scales)
        else:
            ids = np.unique(np.asarray(ids, dtype=np.int64))
            codes, scales = quantize_int8_rows(self.weight.value[ids])
            self._codes[ids] = codes
            self._scales[ids] = scales
            self.weight.value[ids] = dequantize_int8_rows(codes, scales)

    @property
    def nbytes(self) -> int:
        """Storage footprint: 1 byte per value + 4 bytes per row scale."""
        return self.num_rows * self.dim + self.num_rows * 4
