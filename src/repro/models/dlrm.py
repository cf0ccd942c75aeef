"""DLRM: Deep Learning Recommendation Model (Naumov et al., 2019).

Topology (paper Fig 1 / Fig 3): dense features flow through a bottom MLP
to width ``d``; each sparse feature performs a pooled embedding-bag lookup
of width ``d``; the dot-interaction combines them; the top MLP emits the
click logit.  The paper's RMC2 (Criteo Kaggle) and RMC3 (Criteo Terabyte)
are DLRM instances whose layer sizes come from Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import MiniBatch
from repro.data.schema import DatasetSchema
from repro.models.base import RecModel
from repro.nn.embedding import EmbeddingBag, EmbeddingTable, TableBatchedLookup, embedding_store
from repro.nn.interaction import DotInteraction
from repro.nn.mlp import MLP, parse_layer_spec
from repro.nn.parameter import Parameter

__all__ = ["DLRMConfig", "DLRM"]


@dataclass(frozen=True)
class DLRMConfig:
    """Architecture knobs for a DLRM instance.

    Attributes:
        bottom_mlp: Table I layer string, e.g. ``"13-512-256-64-16"``.
            The last width must equal the embedding dimension.
        top_mlp: hidden widths of the top MLP, e.g. ``"512-256-1"``; its
            input width is derived from the interaction output.
        pooling: embedding-bag pooling mode (``"mean"`` or ``"sum"``).
        seed: weight init seed.
    """

    bottom_mlp: str
    top_mlp: str
    pooling: str = "mean"
    seed: int = 0


class DLRM(RecModel):
    """A trainable DLRM over a dataset schema.

    Args:
        schema: dataset geometry; one embedding table per sparse feature.
        config: architecture description.

    Raises:
        ValueError: if the bottom MLP output width differs from the
            embedding dimension (the dot interaction requires equality).
    """

    def __init__(self, schema: DatasetSchema, config: DLRMConfig) -> None:
        self.schema = schema
        self.config = config
        rng = np.random.default_rng(config.seed)

        bottom_sizes = parse_layer_spec(config.bottom_mlp)
        if bottom_sizes[0] != schema.num_dense:
            raise ValueError(
                f"bottom MLP input {bottom_sizes[0]} != num_dense {schema.num_dense}"
            )
        dims = {t.dim for t in schema.tables}
        if len(dims) != 1:
            raise ValueError(f"DLRM requires a single embedding dim, got {sorted(dims)}")
        self.embedding_dim = dims.pop()
        if bottom_sizes[-1] != self.embedding_dim:
            raise ValueError(
                f"bottom MLP output {bottom_sizes[-1]} != embedding dim {self.embedding_dim}"
            )

        self.bottom_mlp = MLP(bottom_sizes, rng, final_activation="relu", name="mlp_bot")

        self._tables: dict[str, EmbeddingTable] = embedding_store(
            [(spec.name, spec.num_rows) for spec in schema.tables], self.embedding_dim, rng
        )
        self._bags: dict[str, EmbeddingBag] = {
            name: EmbeddingBag(table, mode=config.pooling) for name, table in self._tables.items()
        }
        self._lookup = TableBatchedLookup()

        self.interaction = DotInteraction()
        interaction_dim = DotInteraction.output_dim(
            num_features=1 + schema.num_sparse, feature_dim=self.embedding_dim
        )
        top_sizes = (interaction_dim, *parse_layer_spec(f"{interaction_dim}-{config.top_mlp}")[1:])
        if top_sizes[-1] != 1:
            raise ValueError(f"top MLP must end in width 1, got {config.top_mlp!r}")
        self.top_mlp = MLP(top_sizes, rng, final_activation=None, name="mlp_top")

        self._table_order = tuple(schema.table_names)
        # predict's gathers, each with a lookup of its own so neither replans
        # the other's runs nor touches the training lookup's record.
        self._context_lookup = TableBatchedLookup()
        self._varying_lookup = TableBatchedLookup()
        # The last factored request's (varying tables, plan): see _factored_plan.
        self._factored: tuple[tuple[int, ...], tuple] | None = None

    # ------------------------------------------------------------------
    # RecModel interface
    # ------------------------------------------------------------------

    @property
    def tables(self) -> dict[str, EmbeddingTable]:
        return self._tables

    def set_bag(self, table_name: str, bag) -> None:
        if table_name not in self._bags:
            raise KeyError(f"unknown table {table_name!r}")
        self._bags[table_name] = bag

    def get_bag(self, table_name: str):
        return self._bags[table_name]

    def dense_parameters(self) -> list[Parameter]:
        return [*self.bottom_mlp.parameters(), *self.top_mlp.parameters()]

    def parameters(self) -> list[Parameter]:
        params = self.dense_parameters()
        seen: set[int] = {id(p) for p in params}
        for name in self._table_order:
            for param in self._bags[name].parameters():
                if id(param) not in seen:
                    params.append(param)
                    seen.add(id(param))
        return params

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Run the full forward graph; returns ``(B,)`` logits."""
        dense_vec = self.bottom_mlp.forward(batch.dense)
        # One (B, F, d) buffer: the bottom MLP in slot 0, every table's
        # pooled rows gathered straight into the slots after it.
        shape = (dense_vec.shape[0], 1 + len(self._table_order), self.embedding_dim)
        stacked = np.empty(shape, dtype=np.float32)
        stacked[:, 0] = dense_vec
        self._lookup.forward(
            [self._bags[name] for name in self._table_order],
            [batch.sparse[name] for name in self._table_order],
            out=stacked[:, 1:],
        )
        logits = self.top_mlp.forward(self.interaction.forward(stacked))
        return logits[:, 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop from ``(B,)`` logit grads; accumulates all param grads."""
        grad_top = self.top_mlp.backward(grad_logits[:, None].astype(np.float32, copy=False))
        grad_dense, grad_embeddings = self.interaction.backward(grad_top)
        self._lookup.backward(grad_embeddings.transpose(1, 0, 2))
        self.bottom_mlp.backward(grad_dense, input_grad=False)

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Forward-only ``(B,)`` logits that score a ranking request's context once.

        A batch whose dense rows all equal row 0 byte for byte, and in which
        some table's ids differ between rows, is one context against many
        candidates.  Every feature but the varying tables' is then row 0's,
        and so is every interaction pair between two such features: the
        bottom MLP, those pairs and their part of the top MLP's first layer
        are computed once, and the pairs that touch a varying table and the
        rest of the top MLP once per distinct row of varying ids: a repeated
        candidate is scored once (see DESIGN §12).  Nothing is kept for a
        backward.  Any other batch is :meth:`forward`'s.
        """
        varying = self._varying_tables(batch)
        if not varying:
            return self.forward(batch)
        columns, left, right = self._factored_plan(varying)
        names, dim = self._table_order, self.embedding_dim
        num_features = 1 + len(names)
        # Row 0's features, every table range-checked on that row.
        row0 = np.empty((num_features, dim), dtype=np.float32)
        row0[0] = self.bottom_mlp.predict(batch.dense[:1])[0]
        self._context_lookup.predict(
            [self._bags[name] for name in names],
            [batch.sparse[name][:1] for name in names],
            out=row0[None, 1:],
        )
        # The first layer's pre-activation from the shared columns, once:
        # the varying columns are zeroed, so no row depends on which
        # candidate happens to be row 0.
        tri_rows, tri_cols = self.interaction.pairs(num_features)
        shared = np.empty(dim + len(tri_rows), dtype=np.float32)
        shared[:dim] = row0[0]
        shared[dim:] = (row0 @ row0.T)[tri_rows, tri_cols]
        shared[columns] = 0.0
        first = self.top_mlp.layers[0]
        hidden0 = first.predict(shared)
        # Each distinct varying-id row once, in sorted key order, so a row's
        # logit depends on the batch's set of keys and not on where it sits.
        varying_ids = [batch.sparse[names[t]] for t in varying]
        first_rows, inverse = _distinct_rows(varying_ids)
        # Each such row's pooled varying tables, dotted with every feature
        # of row 0 and, where two tables vary, with each other.
        pooled = np.empty((len(first_rows), len(varying), dim), dtype=np.float32)
        self._varying_lookup.predict(
            [self._bags[names[t]] for t in varying],
            [ids[first_rows] for ids in varying_ids],
            out=pooled,
        )
        dots = (pooled.reshape(-1, dim) @ row0.T).reshape(len(pooled), len(varying), -1)
        if len(varying) > 1:
            dots[:, :, [1 + t for t in varying]] = pooled @ pooled.transpose(0, 2, 1)
        hidden = dots[:, left, right] @ first.weight.value[:, columns].T
        hidden += hidden0
        return self.top_mlp.predict(hidden, start=1)[inverse, 0]

    def _varying_tables(self, batch: MiniBatch) -> tuple[int, ...]:
        """Positions of the tables whose ids differ between rows, or ``()``
        unless every dense row is row 0's bytes (and there are two rows)."""
        dense = batch.dense
        if len(dense) < 2 or not _rows_repeat(dense.view(f"u{dense.itemsize}")):
            return ()
        return tuple(
            t for t, name in enumerate(self._table_order) if not _rows_repeat(batch.sparse[name])
        )

    def _factored_plan(self, varying: tuple[int, ...]) -> tuple:
        """``(columns, left, right)`` for the interaction pairs that touch a
        varying table: their output columns, and for each the position of
        its varying table in ``varying`` and the feature slot it is dotted
        with.  The last request's plan is kept (one varying set per stream)."""
        if self._factored is None or self._factored[0] != varying:
            position = {1 + t: i for i, t in enumerate(varying)}  # feature slot -> position
            tri_rows, tri_cols = self.interaction.pairs(1 + len(self._table_order))
            columns, left, right = [], [], []
            for k, (row, col) in enumerate(zip(tri_rows.tolist(), tri_cols.tolist())):
                if row in position or col in position:
                    columns.append(self.embedding_dim + k)
                    left.append(position[row] if row in position else position[col])
                    right.append(col if row in position else row)
            self._factored = (varying, (np.array(columns), np.array(left), np.array(right)))
        return self._factored[1]

    # ------------------------------------------------------------------
    # Cost-model hooks
    # ------------------------------------------------------------------

    def mlp_flops_per_sample(self) -> int:
        """Forward MACs per sample across both MLPs plus the interaction."""
        num_features = 1 + self.schema.num_sparse
        interaction_flops = num_features * num_features * self.embedding_dim
        return (
            self.bottom_mlp.flops_per_sample()
            + self.top_mlp.flops_per_sample()
            + interaction_flops
        )

    def lookups_per_sample(self) -> int:
        return self.schema.lookups_per_sample()


def _distinct_rows(ids: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Key each row on its ids in every array of ``ids``, side by side.
    Returns the first row of each distinct key, in sorted key order, and
    every row's position among those keys."""
    keys = np.concatenate([values.reshape(len(values), -1) for values in ids], axis=1)
    # One id column is its own key; several are one opaque key of the row's bytes.
    width = keys.shape[1]
    keys = (keys if width == 1 else keys.view(f"V{width * keys.itemsize}"))[:, 0]
    # np.unique's steps without its overhead.  A stable sort puts each key's
    # first row first in its run of equal keys, and the runs begun up to a
    # row count its position among the distinct keys.
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)  # a run begins at this row
    first[0] = False  # not counted, so positions start at 0
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(first)
    first[0] = True
    return order[first], inverse


def _rows_repeat(values: np.ndarray) -> bool:
    """Every row of ``values`` equals row 0 (a zero row stride says so unread)."""
    return values.strides[0] == 0 or bool((values == values[0]).all())
