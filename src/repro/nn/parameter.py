"""Trainable parameters and sparse gradient records.

Dense parameters (MLP weights) accumulate into a dense ``grad`` buffer.
Embedding tables instead record :class:`SparseGrad` entries — (row ids,
row gradients) pairs — because a mini-batch touches a vanishing fraction
of a table and materializing a dense gradient would dominate runtime
exactly the way the paper's CPU-side optimizer does in the baseline.

A model's tables may be row ranges of one *store* parameter
(``repro.nn.embedding.embedding_store``): each table's ``value`` is a view
of the store's rows, and its sparse records are kept, coalesced and
applied by the store, once a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Parameter", "SparseGrad", "coalesce", "sparse_stores"]


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
        """Return an equivalent record with unique, sorted ids
        (:func:`coalesce` of this one record)."""
        return coalesce([self], num_rows)


def coalesce(records: list[SparseGrad], num_rows: int | None = None) -> SparseGrad:
    """``records`` as one record with unique, sorted ids, each row's values
    summed in record order.

    ``num_rows`` is the row count of the table the ids index, when the
    caller knows it: ids of a table of at most 65 536 rows sort as
    ``uint16`` keys, which numpy radix-sorts, and ids below 2**32 as two
    stable 16-bit passes, low half then high half (DESIGN "Sorting on the
    key's width"); anything else keeps the int64 merge sort.  All three
    give the same permutation of valid ids.
    """
    ids = records[0].ids if len(records) == 1 else np.concatenate([r.ids for r in records])
    # Stable: the segmented sum adds a row's contributions in record order.
    if num_rows is not None and num_rows <= 1 << 16:
        order = np.argsort(ids.astype(np.uint16), kind="stable")
    elif num_rows is not None and num_rows <= 1 << 32:
        wide = ids.astype(np.uint32)
        order = np.argsort(wide.astype(np.uint16), kind="stable")
        order = order[np.argsort((wide[order] >> 16).astype(np.uint16), kind="stable")]
    else:
        order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.empty(sorted_ids.shape, dtype=bool)  # True where a new id starts
    first[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if len(records) == 1:
        # take, not values[order]: the same rows, gathered at twice the speed.
        ordered = np.take(records[0].values, order, axis=0)
    else:
        # Each record's rows go straight to their sorted places: one (n, dim)
        # buffer, not a concatenation and then a gather of it.
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        values = [r.values for r in records]
        ordered = np.empty((order.size, values[0].shape[1]), dtype=np.result_type(*values))
        start = 0
        for block in values:
            ordered[position[start : start + block.shape[0]]] = block
            start += block.shape[0]
    summed = np.add.reduceat(ordered, starts, axis=0)
    return SparseGrad(ids=sorted_ids[starts], values=summed)


class Parameter:
    """A named trainable tensor with dense and/or sparse gradient state.

    Attributes:
        name: diagnostic identifier ("mlp_bot.0.weight", "table_03", ...).
        value: the parameter array (mutated in place by optimizers).
        grad: dense gradient buffer, lazily allocated on first use.
        sparse_grads: accumulated :class:`SparseGrad` records for this step.
        offset: first row of this parameter in :attr:`store` (0 for a
            store of one).
    """

    def __init__(
        self, name: str, value: np.ndarray, store: "Parameter | None" = None, offset: int = 0
    ) -> None:
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.sparse_grads: list[SparseGrad] = []
        self._store = store  # None, not self: no reference cycle to keep it alive
        self.offset = offset

    @property
    def store(self) -> "Parameter":
        """The parameter that keeps this one's sparse records: itself, or the
        store whose rows ``[offset, offset + len(value))`` ``value`` is a view of."""
        return self if self._store is None else self._store

    def __getstate__(self) -> dict:
        # A copy owns its rows (numpy copies a view), so it is a store of one.
        return {**self.__dict__, "_store": None, "offset": 0}

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
        """Record a sparse gradient touching rows ``ids``, on the store as
        store rows."""
        if self.value.ndim != 2:
            raise ValueError(f"{self.name}: sparse grads require a 2-D parameter")
        if values.shape[1] != self.value.shape[1]:
            raise ValueError(f"{self.name}: sparse grad dim {values.shape[1]} != {self.value.shape[1]}")
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if self.store is not self:
            ids = ids + self.offset
        self.store.sparse_grads.append(SparseGrad(ids=ids, values=values))

    def coalesced_sparse_grad(self) -> SparseGrad | None:
        """Every pending sparse record as one, or None when none is pending."""
        if not self.sparse_grads:
            return None
        return coalesce(self.sparse_grads, num_rows=self.value.shape[0])

    def zero_grad(self) -> None:
        """Clear all accumulated gradient state (a store's records included)."""
        self.grad = None
        self.store.sparse_grads = []

    def densified_grad(self) -> np.ndarray:
        """Materialize the total gradient densely (tests / gradient checks)."""
        total = np.zeros_like(self.value) if self.grad is None else self.grad.copy()
        for record in self.store.sparse_grads:
            rows = record.ids - self.offset
            mine = (rows >= 0) & (rows < self.value.shape[0])
            np.add.at(total, rows[mine], record.values[mine])
        return total

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def sparse_stores(parameters) -> list[Parameter]:
    """The parameters keeping ``parameters``' sparse records, each once, in
    first-seen order: what a gradient check or exchange walks."""
    return list({id(p.store): p.store for p in parameters}.values())
