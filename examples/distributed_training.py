"""Multi-GPU FAE with the simulated distributed substrate.

Demonstrates the paper's actual execution model end to end:

1. plain data parallelism — ``DistributedFAETrainer`` on an all-hot
   plan — and its core invariant: k replicas with all-reduced gradients
   stay bit-identical;
2. distributed FAE (``DistributedFAETrainer``): per-GPU hot-bag replicas,
   cold batches against the shared CPU master tables, the fused
   all-reduce, and hot<->cold synchronization;
3. the collective-traffic accounting that feeds the hardware cost model.

Run:  python examples/distributed_training.py
"""

import numpy as np

from repro import (
    FAEConfig,
    FAETrainer,
    SyntheticClickLog,
    SyntheticConfig,
    criteo_kaggle_like,
    fae_preprocess,
    train_test_split,
)
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig

WORLD_SIZE = 4


def build_replicas(schema, seed, count):
    return [DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=seed)) for _ in range(count)]


def main() -> None:
    schema = criteo_kaggle_like("small")
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=30_000, seed=8))
    train, test = train_test_split(log, 0.15, seed=0)

    # --- 1. Pure data parallelism & the lock-step invariant -----------
    # Every table below the large-table cutoff is hot whole: every batch
    # is hot, so each step runs on the replicas alone.
    all_hot = fae_preprocess(
        train, FAEConfig(large_table_min_bytes=1 << 40, seed=2), batch_size=256, drop_last=True
    )
    dp = DistributedFAETrainer(build_replicas(schema, seed=3, count=WORLD_SIZE), all_hot, lr=0.15)
    dp.train(train, test, epochs=1)
    print(f"data-parallel: {WORLD_SIZE} replicas, {len(all_hot.dataset.hot_batches)} "
          f"all-hot steps, dense divergence {dp.max_dense_divergence():.2e}, "
          f"hot divergence {dp.max_hot_divergence():.2e}")
    print(f"  collective traffic: {dp.group.bytes_communicated / 2**20:.1f} MiB "
          f"across {dp.group.collective_calls} collectives")

    # --- 2. Distributed FAE ------------------------------------------
    config = FAEConfig(
        gpu_memory_budget=256 * 1024,
        large_table_min_bytes=1024,
        chunk_size=64,
        seed=2,
    )
    plan = fae_preprocess(train, config, batch_size=256, drop_last=True)
    print(f"\nFAE plan: {plan.summary()}")

    replicas = build_replicas(schema, seed=4, count=WORLD_SIZE)
    trainer = DistributedFAETrainer(replicas, plan, lr=0.15)
    result = trainer.train(train, test, epochs=2)
    print(f"distributed FAE ({WORLD_SIZE} GPUs): test accuracy "
          f"{result.final_test_accuracy:.4f}, {result.sync_events} hot-bag syncs")
    print(f"  dense divergence {trainer.max_dense_divergence():.2e}, "
          f"hot divergence {trainer.max_hot_divergence():.2e}")

    # --- 3. Equivalence with single-device FAE ------------------------
    single = DLRM(schema, DLRMConfig("13-64-32-16", "64-1", seed=4))
    FAETrainer(single, plan, lr=0.15).train(train, test, epochs=2)
    worst = 0.0
    for name in single.tables:
        gap = np.abs(
            trainer.replicas[0].tables[name].weight.value
            - single.tables[name].weight.value
        ).max()
        worst = max(worst, float(gap))
    print(f"\nmax table gap vs single-device FAE: {worst:.2e} "
          "(distributed execution is a bit-faithful reordering)")


if __name__ == "__main__":
    main()
