"""Distributed-training substrate: simulated multi-device data parallelism.

The paper trains data-parallel across up to four GPUs with NCCL
collectives over NVLink.  This package reproduces those semantics in
process (numpy): a :class:`ProcessGroup` of ranks with all-reduce /
broadcast / all-gather collectives, :func:`shard_batch`, which splits a
global mini-batch across model replicas, and a
:class:`DistributedFAETrainer` that runs the full FAE execution model —
per-GPU hot-bag replicas, shared CPU master tables for cold batches — in
lock-step.  It exchanges a step's gradients once:
:func:`all_reduce_dense_grads` reduces every dense gradient as one
bucket in one collective, and the sparse (embedding) records are handed
to every rank by reference.

The invariant everything here is tested against: *distributed training is
bit-for-bit a reordering of single-device training* (identical updates,
identical final parameters, up to float32 reduction order).
"""

from repro.dist.collectives import ProcessGroup, ReduceOp
from repro.dist.parallel import all_reduce_dense_grads, shard_batch
from repro.dist.fae_parallel import DistributedFAETrainer

__all__ = [
    "DistributedFAETrainer",
    "ProcessGroup",
    "ReduceOp",
    "all_reduce_dense_grads",
    "shard_batch",
]
