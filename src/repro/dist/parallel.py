"""Data-parallel building blocks over simulated device replicas.

The execution model of the paper's GPUs: every device holds a model
replica, each global mini-batch is split into equal per-device shards
(:func:`shard_batch`), and the step's dense gradients are all-reduced in
one collective (:func:`all_reduce_dense_grads`), so every replica applies
the same optimizer step.  :class:`~repro.dist.fae_parallel.DistributedFAETrainer`
is the trainer built on them.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import MiniBatch
from repro.dist.collectives import ProcessGroup, ReduceOp
from repro.nn.parameter import Parameter

__all__ = ["shard_batch", "all_reduce_dense_grads"]


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
