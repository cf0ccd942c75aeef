"""TBSM: Time-Based Sequence Model (Ishkhanov et al., 2020).

TBSM extends DLRM with a temporal dimension: each input carries a
behaviour *sequence* (the paper's Taobao workload uses up to 21
sub-inputs per sample).  Per timestep, the sequence-table embeddings are
combined with the static (user) embeddings through a shared timestep MLP
to form a context vector; an attention layer aggregates the sequence of
context vectors; the aggregated context joins the dense-feature path in
the top MLP that emits the click logit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import MiniBatch
from repro.data.schema import DatasetSchema
from repro.models.base import RecModel
from repro.nn.attention import SequenceAttention
from repro.nn.embedding import EmbeddingBag, EmbeddingTable, embedding_store
from repro.nn.mlp import MLP, parse_layer_spec
from repro.nn.parameter import Parameter

__all__ = ["TBSMConfig", "TBSM"]


@dataclass(frozen=True)
class TBSMConfig:
    """Architecture knobs for a TBSM instance.

    Attributes:
        bottom_mlp: dense-path layer string, e.g. ``"3-16"``.
        ts_hidden: hidden widths of the shared per-timestep MLP, e.g.
            ``"22-15-15"`` from Table I; its input width is derived from
            the embedding concatenation and appended automatically.
        top_mlp: widths after the (context + dense) concat, ending in 1,
            e.g. ``"30-60-1"`` — the leading width is replaced by the
            derived concat width.
        pooling: pooling for static (multiplicity-1) tables.
        seed: weight init seed.
    """

    bottom_mlp: str
    ts_hidden: str = "22-15-15"
    top_mlp: str = "30-60-1"
    pooling: str = "mean"
    seed: int = 0


class TBSM(RecModel):
    """A trainable TBSM over a schema with sequence-valued sparse features.

    Tables with multiplicity > 1 are treated as behaviour sequences (all
    must share the same length); multiplicity-1 tables are static context
    broadcast to every timestep.
    """

    def __init__(self, schema: DatasetSchema, config: TBSMConfig) -> None:
        self.schema = schema
        self.config = config
        rng = np.random.default_rng(config.seed)

        dims = {t.dim for t in schema.tables}
        if len(dims) != 1:
            raise ValueError(f"TBSM requires a single embedding dim, got {sorted(dims)}")
        self.embedding_dim = dims.pop()

        seq_lengths = {t.multiplicity for t in schema.tables if t.multiplicity > 1}
        if len(seq_lengths) != 1:
            raise ValueError(
                f"TBSM needs exactly one shared sequence length, got {sorted(seq_lengths)}"
            )
        self.seq_len = seq_lengths.pop()
        self.seq_tables = tuple(t.name for t in schema.tables if t.multiplicity > 1)
        self.static_tables = tuple(t.name for t in schema.tables if t.multiplicity == 1)

        bottom_sizes = parse_layer_spec(config.bottom_mlp)
        if bottom_sizes[0] != schema.num_dense:
            raise ValueError(
                f"bottom MLP input {bottom_sizes[0]} != num_dense {schema.num_dense}"
            )
        self.bottom_mlp = MLP(bottom_sizes, rng, final_activation="relu", name="mlp_bot")

        self._tables: dict[str, EmbeddingTable] = embedding_store(
            [(spec.name, spec.num_rows) for spec in schema.tables], self.embedding_dim, rng
        )
        self._bags: dict[str, EmbeddingBag] = {
            name: EmbeddingBag(table, mode=config.pooling) for name, table in self._tables.items()
        }

        ts_input = (len(self.seq_tables) + len(self.static_tables)) * self.embedding_dim
        ts_hidden = parse_layer_spec(config.ts_hidden)
        self.ts_mlp = MLP((ts_input, *ts_hidden[1:]), rng, final_activation="relu", name="mlp_ts")
        self.context_dim = self.ts_mlp.out_features

        self.attention = SequenceAttention(self.context_dim, rng)

        top_tail = parse_layer_spec(config.top_mlp)[1:]
        if top_tail[-1] != 1:
            raise ValueError(f"top MLP must end in width 1, got {config.top_mlp!r}")
        top_input = self.context_dim + self.bottom_mlp.out_features
        self.top_mlp = MLP((top_input, *top_tail), rng, final_activation=None, name="mlp_top")

        self._cache: dict | None = None

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
        return [
            *self.bottom_mlp.parameters(),
            *self.ts_mlp.parameters(),
            *self.attention.parameters(),
            *self.top_mlp.parameters(),
        ]

    def parameters(self) -> list[Parameter]:
        params = self.dense_parameters()
        seen: set[int] = {id(p) for p in params}
        for name in (*self.seq_tables, *self.static_tables):
            for param in self._bags[name].parameters():
                if id(param) not in seen:
                    params.append(param)
                    seen.add(id(param))
        return params

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Run the sequence forward graph; returns ``(B,)`` logits."""
        batch_size = len(batch)
        dense_vec = self.bottom_mlp.forward(batch.dense)

        seq_parts = []
        for name in self.seq_tables:
            ids = batch.sparse[name]
            if ids.shape[1] != self.seq_len:
                raise ValueError(
                    f"table {name!r}: expected sequence length {self.seq_len}, got {ids.shape[1]}"
                )
            seq_parts.append(self._bags[name].sequence_forward(ids))  # (B, T, d)

        static_parts = []
        for name in self.static_tables:
            pooled = self._bags[name].forward(batch.sparse[name])  # (B, d)
            static_parts.append(np.broadcast_to(pooled[:, None, :], (batch_size, self.seq_len, self.embedding_dim)))

        per_step = np.concatenate([*seq_parts, *static_parts], axis=2)  # (B, T, F*d)
        flat = per_step.reshape(batch_size * self.seq_len, -1)
        contexts = self.ts_mlp.forward(flat).reshape(batch_size, self.seq_len, self.context_dim)

        aggregated = self.attention.forward(contexts)  # (B, dz)
        top_in = np.concatenate([aggregated, dense_vec], axis=1)
        logits = self.top_mlp.forward(top_in)

        self._cache = {"batch_size": batch_size}
        return logits[:, 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        batch_size = self._cache["batch_size"]

        grad_top_in = self.top_mlp.backward(grad_logits[:, None].astype(np.float32, copy=False))
        grad_context = grad_top_in[:, : self.context_dim]
        grad_dense_vec = grad_top_in[:, self.context_dim :]

        grad_contexts = self.attention.backward(grad_context)  # (B, T, dz)
        grad_flat = grad_contexts.reshape(batch_size * self.seq_len, self.context_dim)
        grad_per_step = self.ts_mlp.backward(grad_flat).reshape(batch_size, self.seq_len, -1)

        offset = 0
        d = self.embedding_dim
        for name in self.seq_tables:
            self._bags[name].sequence_backward(grad_per_step[:, :, offset : offset + d])
            offset += d
        for name in self.static_tables:
            # Broadcasting a static embedding to T steps sums its grads.
            grad_static = grad_per_step[:, :, offset : offset + d].sum(axis=1)
            self._bags[name].backward(grad_static)
            offset += d

        self.bottom_mlp.backward(grad_dense_vec, input_grad=False)
        self._cache = None

    # ------------------------------------------------------------------
    # Cost-model hooks
    # ------------------------------------------------------------------

    def mlp_flops_per_sample(self) -> int:
        """Forward MACs per sample: dense + T timestep MLPs + attention + top."""
        attention_flops = 2 * self.seq_len * self.context_dim
        return (
            self.bottom_mlp.flops_per_sample()
            + self.seq_len * self.ts_mlp.flops_per_sample()
            + attention_flops
            + self.top_mlp.flops_per_sample()
        )

    def lookups_per_sample(self) -> int:
        return self.schema.lookups_per_sample()
