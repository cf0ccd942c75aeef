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
from repro.nn.mlp import MLP, distinct_rows, parse_layer_spec
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
        # The last forward's ``distinct_rows`` of the dense features, for backward.
        self._repeats: tuple[np.ndarray, np.ndarray] | None = None

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
        """Run the full forward graph; returns ``(B,)`` logits.

        The bottom MLP runs once per distinct dense row: a ranking request
        repeats one context across its candidates.  With no repeated row
        (every training batch) this is the plain every-row forward.
        """
        self._repeats = repeats = distinct_rows(batch.dense)
        if repeats is None:
            dense_vec = self.bottom_mlp.forward(batch.dense)
        else:
            first, inverse = repeats
            dense_vec = self.bottom_mlp.forward(batch.dense[first])[inverse]
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
        if self._repeats is not None:
            # Each distinct row's gradient is the sum over its copies, in row order.
            first, inverse = self._repeats
            per_row = np.zeros((len(first), grad_dense.shape[1]), dtype=grad_dense.dtype)
            np.add.at(per_row, inverse, grad_dense)
            grad_dense = per_row
        self.bottom_mlp.backward(grad_dense, input_grad=False)

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
