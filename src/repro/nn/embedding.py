"""Embedding tables and pooled embedding-bag lookups.

This is the memory-bound half of a recommendation model.  An
:class:`EmbeddingTable` owns the parameter matrix; an
:class:`EmbeddingBag` performs ``(B, m)``-id pooled lookups against it
with mean or sum pooling and accumulates *sparse* gradients, mirroring
``torch.nn.EmbeddingBag`` semantics that DLRM/TBSM rely on.

The FAE Embedding Replicator builds *partial* tables (hot bags) by
slicing rows out of a table; :meth:`EmbeddingTable.subset` and
:meth:`EmbeddingTable.write_rows` provide exactly that surface.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import normal_init
from repro.nn.parameter import Parameter

__all__ = ["EmbeddingTable", "EmbeddingBag", "PooledLookup"]


class EmbeddingTable:
    """A dense ``(num_rows, dim)`` embedding parameter matrix.

    Args:
        name: table name (matches the dataset schema's table names).
        num_rows: cardinality.
        dim: embedding dimension.
        rng: seeded generator; rows are N(0, 1/sqrt(dim)) like DLRM.
    """

    def __init__(self, name: str, num_rows: int, dim: int, rng: np.random.Generator) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        self.name = name
        self.num_rows = num_rows
        self.dim = dim
        std = 1.0 / np.sqrt(dim)
        self.weight = Parameter(name, normal_init((num_rows, dim), std, rng))

    @property
    def nbytes(self) -> int:
        return self.weight.nbytes

    def subset(self, ids: np.ndarray) -> np.ndarray:
        """Copy of the rows ``ids`` (the replicator ships these to GPUs)."""
        return self.weight.value[np.asarray(ids, dtype=np.int64)].copy()

    def write_rows(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Overwrite rows ``ids`` with ``values`` (hot-bag sync-back)."""
        ids = np.asarray(ids, dtype=np.int64)
        if values.shape != (ids.shape[0], self.dim):
            raise ValueError(
                f"{self.name}: expected values of shape {(ids.shape[0], self.dim)}, got {values.shape}"
            )
        self.weight.value[ids] = values


class PooledLookup:
    """The gather/scatter behind :class:`EmbeddingBag` (rows are table ids)
    and ``core.replicator.HotEmbeddingBag`` (rows are bag-local positions);
    both validate and translate their ids first."""

    def __init__(self, weight: Parameter, mode: str) -> None:
        if mode not in ("mean", "sum"):
            raise ValueError(f"mode must be 'mean' or 'sum', got {mode!r}")
        self.weight = weight
        self.mode = mode
        self._rows: np.ndarray | None = None

    def forward(self, rows: np.ndarray) -> np.ndarray:
        """Gather int64 ``(B, m)`` rows (``(B,)`` is ``m = 1``), pool over ``m``."""
        if rows.ndim == 1:
            rows = rows[:, None]
        self._rows = rows
        if rows.shape[1] == 1:
            # One lookup per sample: the gather already is the pooled result.
            return self.weight.value[rows[:, 0]]
        gathered = self.weight.value[rows]  # (B, m, dim)
        return gathered.mean(axis=1) if self.mode == "mean" else gathered.sum(axis=1)

    def backward(self, grad_out: np.ndarray) -> None:
        """Record :meth:`forward`'s sparse gradient; with ``m = 1`` that is
        ``grad_out`` itself, held (never written) until the optimizer step."""
        rows = self._pop_rows()
        multiplicity = rows.shape[1]
        if multiplicity > 1:
            # Each of the m looked-up rows receives the (scaled) pooled grad.
            scale = 1.0 / multiplicity if self.mode == "mean" else 1.0
            grad_out = np.repeat(grad_out * scale, multiplicity, axis=0)
        self.weight.accumulate_sparse(rows.ravel(), grad_out.astype(np.float32, copy=False))

    def sequence_forward(self, rows: np.ndarray) -> np.ndarray:
        """Unpooled gather for sequence models: ``(B, m)`` -> ``(B, m, dim)``."""
        if rows.ndim != 2:
            raise ValueError("sequence_forward expects (B, m) ids")
        self._rows = rows
        return self.weight.value[rows]

    def sequence_backward(self, grad_out: np.ndarray) -> None:
        """Sparse grads for an unpooled gather: grad_out is ``(B, m, dim)``."""
        flat = grad_out.reshape(-1, self.weight.shape[1])
        self.weight.accumulate_sparse(self._pop_rows().ravel(), flat.astype(np.float32, copy=False))

    def _pop_rows(self) -> np.ndarray:
        if self._rows is None:
            raise RuntimeError("backward called before forward")
        rows, self._rows = self._rows, None
        return rows


class EmbeddingBag:
    """Pooled lookup over one embedding table.

    Args:
        table: backing table.
        mode: ``"mean"`` or ``"sum"`` pooling across the multiplicity axis.
    """

    def __init__(self, table: EmbeddingTable, mode: str = "mean") -> None:
        self.table = table
        self._lookup = PooledLookup(table.weight, mode)

    def parameters(self) -> list[Parameter]:
        return [self.table.weight]

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Pool int64 ``(B, m)`` row ids (``m`` lookups per sample) to float32 ``(B, dim)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.table.num_rows:
            raise IndexError(
                f"{self.table.name}: lookup ids out of range [0, {self.table.num_rows})"
            )
        return self._lookup.forward(ids)

    def backward(self, grad_out: np.ndarray) -> None:
        """Record sparse gradients for the rows the last lookup touched."""
        self._lookup.backward(grad_out)

    def sequence_forward(self, ids: np.ndarray) -> np.ndarray:
        """Unpooled ``(B, m, dim)`` gather: TBSM consumes per-timestep rows."""
        return self._lookup.sequence_forward(np.asarray(ids, dtype=np.int64))

    def sequence_backward(self, grad_out: np.ndarray) -> None:
        self._lookup.sequence_backward(grad_out)
