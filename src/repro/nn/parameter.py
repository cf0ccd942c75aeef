"""Trainable parameters and sparse gradient records.

Dense parameters (MLP weights) accumulate into a dense ``grad`` buffer.
Embedding tables instead record :class:`SparseGrad` entries — (row ids,
row gradients) pairs — because a mini-batch touches a vanishing fraction
of a table and materializing a dense gradient would dominate runtime
exactly the way the paper's CPU-side optimizer does in the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Parameter", "SparseGrad"]


@dataclass
class SparseGrad:
    """Gradient contribution touching a subset of a table's rows.

    Attributes:
        ids: int64 ``(k,)`` row indices (duplicates allowed; optimizers sum
            them per row, in record order, with :meth:`coalesced`).
        values: float32 ``(k, dim)`` per-row gradients aligned with ``ids``.
    """

    ids: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.ids.ndim != 1:
            raise ValueError("SparseGrad.ids must be 1-D")
        if self.values.ndim != 2 or self.values.shape[0] != self.ids.shape[0]:
            raise ValueError("SparseGrad.values must be (len(ids), dim)")

    def coalesced(self, num_rows: int | None = None) -> "SparseGrad":
        """Return an equivalent record with unique, sorted ids.

        ``num_rows`` is the row count of the table the ids index, when the
        caller knows it: ids of a table of at most 65 536 rows sort as
        ``uint16`` keys, which numpy radix-sorts (DESIGN "Sorting on the
        key's width"); anything else keeps the int64 merge sort.
        """
        keys = self.ids
        if num_rows is not None and num_rows <= 1 << 16:
            keys = keys.astype(np.uint16)
        # Stable: the segmented sum adds a row's contributions in record order.
        order = np.argsort(keys, kind="stable")
        sorted_ids = self.ids[order]
        first = np.empty(sorted_ids.shape, dtype=bool)  # True where a new id starts
        first[:1] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        summed = np.add.reduceat(self.values[order], starts, axis=0)
        return SparseGrad(ids=sorted_ids[starts], values=summed)


class Parameter:
    """A named trainable tensor with dense and/or sparse gradient state.

    Attributes:
        name: diagnostic identifier ("mlp_bot.0.weight", "table_03", ...).
        value: the parameter array (mutated in place by optimizers).
        grad: dense gradient buffer, lazily allocated on first use.
        sparse_grads: accumulated :class:`SparseGrad` records for this step.
    """

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.sparse_grads: list[SparseGrad] = []

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes)

    def accumulate_dense(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the dense gradient buffer."""
        if grad.shape != self.value.shape:
            raise ValueError(
                f"{self.name}: gradient shape {grad.shape} != parameter shape {self.value.shape}"
            )
        if self.grad is None:
            # A copy: optimizers and fault injection write the gradient in place.
            self.grad = np.array(grad, dtype=self.value.dtype)
        else:
            self.grad += grad

    def accumulate_product(self, left: np.ndarray, right: np.ndarray) -> None:
        """``grad += left @ right``; a step's first product is the GEMM itself,
        written into a new buffer the parameter owns (no zero fill, no add)."""
        if self.grad is None:
            self.grad = np.matmul(left, right, out=np.empty_like(self.value))
        else:
            self.grad += left @ right

    def accumulate_sparse(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Record a sparse gradient touching rows ``ids``."""
        if self.value.ndim != 2:
            raise ValueError(f"{self.name}: sparse grads require a 2-D parameter")
        if values.shape[1] != self.value.shape[1]:
            raise ValueError(f"{self.name}: sparse grad dim {values.shape[1]} != {self.value.shape[1]}")
        self.sparse_grads.append(
            SparseGrad(ids=np.asarray(ids, dtype=np.int64).ravel(), values=values)
        )

    def coalesced_sparse_grad(self) -> SparseGrad | None:
        """Every pending sparse record as one, or None when none is pending."""
        if not self.sparse_grads:
            return None
        record = self.sparse_grads[0]
        if len(self.sparse_grads) > 1:  # one record is the single-device case
            record = SparseGrad(
                ids=np.concatenate([r.ids for r in self.sparse_grads]),
                values=np.concatenate([r.values for r in self.sparse_grads]),
            )
        return record.coalesced(num_rows=self.value.shape[0])

    def zero_grad(self) -> None:
        """Clear all accumulated gradient state."""
        self.grad = None
        self.sparse_grads = []

    def densified_grad(self) -> np.ndarray:
        """Materialize the total gradient densely (tests / gradient checks)."""
        total = np.zeros_like(self.value) if self.grad is None else self.grad.copy()
        for record in self.sparse_grads:
            np.add.at(total, record.ids, record.values)
        return total

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"
