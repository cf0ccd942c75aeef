"""Embedding tables and pooled embedding-bag lookups.

This is the memory-bound half of a recommendation model.  An
:class:`EmbeddingTable` owns the parameter matrix; an
:class:`EmbeddingBag` performs ``(B, m)``-id pooled lookups against it
with mean or sum pooling and accumulates *sparse* gradients, mirroring
``torch.nn.EmbeddingBag`` semantics that DLRM/TBSM rely on.

A model's tables share one store (:func:`embedding_store`): each table's
weight is a row range of one ``(sum of rows, dim)`` array, so
:class:`TableBatchedLookup` gathers every table of a batch at once and
the optimizer applies one sparse update per step, the way FBGEMM's
table-batched embedding bags do.

The FAE Embedding Replicator copies each table's hot rows into one hot
store per replica and writes them back with
:meth:`EmbeddingTable.write_rows`; :meth:`EmbeddingTable.subset` copies
rows out of a table.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.nn.initializers import normal_init
from repro.nn.parameter import Parameter

__all__ = [
    "EmbeddingTable",
    "EmbeddingBag",
    "PooledLookup",
    "TableBatchedLookup",
    "embedding_store",
]


class EmbeddingTable:
    """A dense ``(num_rows, dim)`` embedding parameter matrix.

    Args:
        name: table name (matches the dataset schema's table names).
        num_rows: cardinality.
        dim: embedding dimension.
        rng: seeded generator; rows are N(0, 1/sqrt(dim)) like DLRM.
        store: a ``(rows, dim)`` store parameter to draw into, rows
            ``[offset, offset + num_rows)``; None for a table of its own.
        offset: the table's first store row.
    """

    def __init__(
        self,
        name: str,
        num_rows: int,
        dim: int,
        rng: np.random.Generator,
        store: Parameter | None = None,
        offset: int = 0,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        self.name = name
        self.num_rows = num_rows
        self.dim = dim
        initial = normal_init((num_rows, dim), 1.0 / np.sqrt(dim), rng)
        if store is None:
            self.weight = Parameter(name, initial)
        else:
            rows = store.value[offset : offset + num_rows]
            rows[...] = initial  # raises on a store too narrow or too short
            self.weight = Parameter(name, rows, store=store, offset=offset)

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
    and ``core.replicator.HotEmbeddingBag`` (rows are bag-local positions
    in a replica's hot store); both validate and translate their ids first."""

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
        self.lookup = PooledLookup(table.weight, mode)

    def parameters(self) -> list[Parameter]:
        return [self.table.weight]

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """``(B, m)`` rows of ``lookup.weight`` for ids, not range-checked
        (:class:`TableBatchedLookup` checks a whole batch at once)."""
        ids = np.asarray(ids)
        return ids.reshape(ids.shape[0], -1)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Pool int64 ``(B, m)`` row ids (``m`` lookups per sample) to float32 ``(B, dim)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.table.num_rows:
            raise IndexError(
                f"{self.table.name}: lookup ids out of range [0, {self.table.num_rows})"
            )
        return self.lookup.forward(ids)

    def backward(self, grad_out: np.ndarray) -> None:
        """Record sparse gradients for the rows the last lookup touched."""
        self.lookup.backward(grad_out)

    def sequence_forward(self, ids: np.ndarray) -> np.ndarray:
        """Unpooled ``(B, m, dim)`` gather: TBSM consumes per-timestep rows."""
        return self.lookup.sequence_forward(np.asarray(ids, dtype=np.int64))

    def sequence_backward(self, grad_out: np.ndarray) -> None:
        self.lookup.sequence_backward(grad_out)


def embedding_store(
    specs: list[tuple[str, int]], dim: int, rng: np.random.Generator, name: str = "embeddings"
) -> dict[str, EmbeddingTable]:
    """Tables ``(name, num_rows)`` of width ``dim`` as row ranges of one
    ``(sum of rows, dim)`` float32 store, in ``specs`` order.

    Each table draws its rows from ``rng`` in turn, exactly as a table of
    its own would, so a model's initial values do not depend on whether
    its tables share a store.
    """
    store = Parameter(name, np.empty((sum(rows for _, rows in specs), dim), dtype=np.float32))
    tables: dict[str, EmbeddingTable] = {}
    offset = 0
    for table_name, num_rows in specs:
        tables[table_name] = EmbeddingTable(table_name, num_rows, dim, rng, store, offset)
        offset += num_rows
    return tables


class _Run:
    """Consecutive bags on one store: one index, one gather, one record."""

    def __init__(self, bags: list, widths: list[int], start: int) -> None:
        weights = [bag.lookup.weight for bag in bags]
        self.bags = bags
        self.store = weights[0].store
        self.start, self.stop = start, start + len(bags)
        self.limits = np.repeat([w.value.shape[0] for w in weights], widths).astype(np.uint64)
        offsets = np.repeat([w.offset for w in weights], widths).astype(np.int64)
        self.offsets = offsets if offsets.any() else None
        self.ends = np.cumsum(widths)  # each bag's last index column + 1
        #: Per bag: (first index column, multiplicity, pooling mode).
        self.columns = [
            (int(end) - width, width, bag.lookup.mode)
            for bag, end, width in zip(bags, self.ends, widths)
        ]
        self.pooled = any(width > 1 for width in widths)

    def index(self, ids: list[np.ndarray]) -> np.ndarray:
        """The run's ``(B, sum m)`` store rows, range-checked per table."""
        rows = [bag.rows(i) for bag, i in zip(self.bags, ids)]
        index = np.concatenate(rows, axis=1, dtype=np.int64, casting="unsafe")
        # One compare: a negative id is a huge uint64, so it fails it too.
        bad = index.view(np.uint64) >= self.limits
        if bad.any():
            column = np.flatnonzero(bad.any(axis=0))[0]
            weight = self.bags[np.searchsorted(self.ends, column, side="right")].lookup.weight
            raise IndexError(
                f"{weight.name}: lookup ids out of range [0, {weight.value.shape[0]})"
            )
        if self.offsets is not None:
            index += self.offsets
        return index


class TableBatchedLookup:
    """Every table of a batch as one gather per store (DLRM's embedding layer).

    ``forward`` pools bag ``t``'s ids into ``out[:, t]``.  Consecutive bags
    whose weights share a store form a run: their ids become one
    ``(B, sum m)`` index of store rows (range-checked per table in one
    compare, the error naming the table), gathered with one ``take``;
    ``backward`` records one sparse gradient per run on its store.  The
    bags come from the caller, not from a model: a data-parallel rank
    may be reading another rank's master tables.  A replica's hot bags
    are row ranges of its one hot store, hence one run.

    Values are :class:`PooledLookup`'s bit for bit: the same rows, the
    same pooling reductions, and a record whose ids, in record order,
    list each table's rows in the order its own lookup would have.
    """

    def __init__(self) -> None:
        self._bags: tuple = ()
        self._widths: tuple = ()
        self._runs: list[_Run] = []
        self._pending: list[tuple[_Run, np.ndarray]] | None = None

    def _plan(self, bags: list, widths: tuple) -> list[_Run]:
        """The runs for these bags, rebuilt only when a bag or a multiplicity changes."""
        same = len(bags) == len(self._bags) and all(map(operator.is_, bags, self._bags))
        if not same or widths != self._widths:
            runs, start = [], 0
            while start < len(bags):
                stop = start + 1
                store = bags[start].lookup.weight.store
                while stop < len(bags) and bags[stop].lookup.weight.store is store:
                    stop += 1
                runs.append(_Run(bags[start:stop], list(widths[start:stop]), start))
                start = stop
            self._bags, self._widths, self._runs = tuple(bags), widths, runs
        return self._runs

    def forward(self, bags: list, ids: list[np.ndarray], out: np.ndarray) -> None:
        """Pool ``ids[t]`` (``(B, m)``, or ``(B,)`` for ``m = 1``) through
        ``bags[t]`` into ``out[:, t]``; ``out`` is ``(B, len(bags), dim)``."""
        self._pending = self._gather(bags, ids, out)

    def predict(self, bags: list, ids: list[np.ndarray], out: np.ndarray) -> None:
        """:meth:`forward` without the record: nothing is kept for a backward."""
        self._gather(bags, ids, out)

    def _gather(self, bags: list, ids: list[np.ndarray], out: np.ndarray) -> list:
        widths = tuple(1 if i.ndim == 1 else i.shape[1] for i in ids)
        pending = []
        for run in self._plan(bags, widths):
            index = run.index(ids[run.start : run.stop])
            values = run.store.value
            if not run.pooled:
                np.take(values, index, axis=0, out=out[:, run.start : run.stop])
            else:
                gathered = np.take(values, index, axis=0)  # (B, sum m, dim)
                for i, (first, width, mode) in enumerate(run.columns):
                    block = gathered[:, first : first + width]
                    if width == 1:
                        out[:, run.start + i] = block[:, 0]
                    elif mode == "mean":
                        out[:, run.start + i] = block.mean(axis=1)
                    else:
                        out[:, run.start + i] = block.sum(axis=1)
            pending.append((run, index))
        return pending

    def backward(self, grad_out: np.ndarray) -> None:
        """Record one sparse gradient per run from ``grad_out`` (``(B, T, dim)``,
        read, never written), on the run's store."""
        if self._pending is None:
            raise RuntimeError("backward called before forward")
        pending, self._pending = self._pending, None
        dim = grad_out.shape[2]
        for run, index in pending:
            grad = grad_out[:, run.start : run.stop]
            if not run.pooled:
                values = grad.reshape(-1, dim)
            else:
                values = np.empty((*index.shape, dim), dtype=np.float32)
                for i, (first, width, mode) in enumerate(run.columns):
                    if width == 1:
                        values[:, first] = grad[:, i]
                    else:
                        # Each of the m looked-up rows receives the (scaled) pooled grad.
                        scale = 1.0 / width if mode == "mean" else 1.0
                        values[:, first : first + width] = (grad[:, i] * scale)[:, None, :]
                values = values.reshape(-1, dim)
            run.store.accumulate_sparse(index.ravel(), values.astype(np.float32, copy=False))
