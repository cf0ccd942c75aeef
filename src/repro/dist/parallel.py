"""Data-parallel training over simulated device replicas.

The baseline execution model of the paper's GPUs: every device holds a
full model replica, each global mini-batch is split into equal per-device
shards, gradients are all-reduced, and every replica applies the same
optimizer step.  Because the per-shard loss is scaled by ``1/k`` before
the sum-all-reduce, the combined update equals the single-device update
on the full batch — the equivalence the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import MiniBatch
from repro.dist.collectives import ProcessGroup, ReduceOp
from repro.models.base import RecModel
from repro.nn.losses import BCEWithLogits
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter, sparse_stores

__all__ = ["shard_batch", "all_reduce_dense_grads", "DataParallelTrainer"]


def shard_batch(batch: MiniBatch, world_size: int) -> list[MiniBatch]:
    """Split a global mini-batch into ``world_size`` equal shards.

    Raises:
        ValueError: if the batch size is not divisible by ``world_size``
            (the paper's weak scaling always uses divisible batches).
    """
    if world_size <= 0:
        raise ValueError("world_size must be positive")
    if len(batch) % world_size != 0:
        raise ValueError(
            f"batch of {len(batch)} not divisible by world size {world_size}"
        )
    shard_size = len(batch) // world_size
    shards = []
    for rank in range(world_size):
        sl = slice(rank * shard_size, (rank + 1) * shard_size)
        shards.append(
            MiniBatch(
                dense=batch.dense[sl],
                sparse={name: ids[sl] for name, ids in batch.sparse.items()},
                labels=batch.labels[sl],
                indices=batch.indices[sl],
                hot=batch.hot,
            )
        )
    return shards


def all_reduce_dense_grads(group: ProcessGroup, rank_params: list[list[Parameter]]) -> int:
    """Sum-all-reduce a step's dense gradients as one bucket, in one collective.

    ``rank_params[r]`` is rank ``r``'s parameters, in the same order on
    every rank.  Each rank's gradients are laid end to end in one flat
    buffer, the group reduces the buffers once, and every
    ``Parameter.grad`` becomes a view of its rank's reduced buffer.  A
    parameter without a gradient on one rank contributes zeros; one
    without a gradient on any rank (an embedding table) stays out.

    Returns:
        Bytes in one rank's bucket; 0, and no collective, when no rank
        holds a dense gradient.
    """
    columns = [
        column for column in zip(*rank_params) if any(p.grad is not None for p in column)
    ]
    if not columns:
        return 0
    buckets = [
        np.concatenate(
            [(np.zeros_like(p.value) if p.grad is None else p.grad).ravel() for p in rank]
        )
        for rank in zip(*columns)
    ]
    reduced = group.all_reduce(buckets, ReduceOp.SUM)
    offset = 0
    for column in columns:
        end = offset + column[0].size
        for param, bucket in zip(column, reduced):
            param.grad = bucket[offset:end].reshape(param.shape)
        offset = end
    return buckets[0].nbytes


@dataclass
class StepStats:
    """Telemetry for one data-parallel step."""

    loss: float
    grad_bytes_reduced: float


class DataParallelTrainer:
    """Synchronous data-parallel SGD across model replicas.

    Args:
        replicas: one model per rank.  They must be architecturally
            identical and identically initialized (build them with the
            same seed); this is validated at construction.
        lr: learning rate.

    The embedding tables of each replica are private (fully replicated),
    matching a pure data-parallel run where the tables fit on-device; the
    FAE variant in :mod:`repro.dist.fae_parallel` handles the hybrid case.
    """

    def __init__(self, replicas: list[RecModel], lr: float = 0.1) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = replicas
        self.group = ProcessGroup(world_size=len(replicas))
        self.lr = lr
        self._optimizers = [SGD(m.parameters(), lr=lr) for m in replicas]
        self._loss = BCEWithLogits()
        self._validate_replicas()

    def _validate_replicas(self) -> None:
        reference = self.replicas[0].parameters()
        for rank, model in enumerate(self.replicas[1:], start=1):
            params = model.parameters()
            if len(params) != len(reference):
                raise ValueError(f"replica {rank} has a different parameter count")
            for p, q in zip(reference, params):
                if p.value.shape != q.value.shape:
                    raise ValueError(
                        f"replica {rank}: parameter {q.name} shape mismatch"
                    )
                if not np.array_equal(p.value, q.value):
                    raise ValueError(
                        f"replica {rank}: parameter {q.name} not identically initialized"
                    )

    @property
    def world_size(self) -> int:
        return self.group.world_size

    def step(self, batch: MiniBatch) -> StepStats:
        """One synchronous data-parallel training step on a global batch."""
        k = self.world_size
        shards = shard_batch(batch, k)

        shard_losses = []
        for model, shard in zip(self.replicas, shards):
            logits = model.forward(shard)
            shard_losses.append(self._loss.forward(logits, shard.labels))
            # Global objective = mean over the full batch
            #                  = (1/k) sum of shard means.
            model.backward(self._loss.backward() / k)

        grad_bytes = self._all_reduce_gradients()
        for optimizer in self._optimizers:
            optimizer.step()
        return StepStats(loss=float(np.mean(shard_losses)), grad_bytes_reduced=grad_bytes)

    def _all_reduce_gradients(self) -> float:
        """The step's gradient exchange: one dense bucket, one sparse gather."""
        all_params = [m.parameters() for m in self.replicas]
        dense_bytes = all_reduce_dense_grads(self.group, all_params)

        # Fused sparse all-reduce: every rank receives the union of all
        # ranks' (ids, grads) records.  Duplicate ids coalesce inside the
        # optimizer, so this equals a dense all-reduce.  The records are
        # shared, not copied: optimizers coalesce them into new arrays.
        sparse_bytes = 0
        for rank_stores in zip(*(sparse_stores(params) for params in all_params)):
            merged = [record for store in rank_stores for record in store.sparse_grads]
            if merged:
                sparse_bytes += sum(r.ids.nbytes + r.values.nbytes for r in merged)
                for store in rank_stores:
                    store.sparse_grads = list(merged)
        if sparse_bytes:
            # An all-gather: each rank receives what the others recorded.
            self.group._account(sparse_bytes, (self.world_size - 1) / self.world_size)
        return float(dense_bytes + sparse_bytes)

    def max_divergence(self) -> float:
        """Largest parameter difference between any replica and rank 0."""
        worst = 0.0
        reference = self.replicas[0].parameters()
        for model in self.replicas[1:]:
            for p, q in zip(reference, model.parameters()):
                worst = max(worst, float(np.abs(p.value - q.value).max(initial=0.0)))
        return worst
