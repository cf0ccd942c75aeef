"""Baseline and FAE trainers: two faces of one segment engine.

Both run :class:`~repro.train.engine.SegmentEngine`'s step loop, and
differ only in the plan they run (PAPER SS II-B: FAE changes where rows
live and the order of mini-batches, never the math).

:class:`BaselineTrainer` is the paper's Fig 3 execution, functionally:
nothing is hot, so every mini-batch runs against the CPU master tables,
drawn from one cold pool that is reshuffled each epoch, and one
optimizer applies every update (device placement is a performance
concern simulated by :mod:`repro.hw`, not a math concern).

:class:`FAETrainer` runs a preprocessed
:class:`~repro.core.pipeline.FAEPlan`:

- pure-hot batches execute against per-GPU hot-bag replicas (ids remapped
  to bag-local rows), pure-cold batches against the CPU master tables;
- every hot<->cold transition synchronizes the hot rows (replica ->
  master or master -> replicas), exactly as the Embedding Replicator
  prescribes, and its cost is tallied for the hardware model.

In both, the Shuffle Scheduler plans the segments and adapts its rate
from the test loss measured after each segment (paper Eq. 7); with one
pool it only decides when the baseline evaluates.  Because syncs run at
*every* transition, the FAE execution is mathematically a reordering of
the baseline's mini-batches, which is why the paper (and our Table III
bench) sees matching final accuracy.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import FAEConfig
from repro.core.hotcache import EmbeddingHotCache
from repro.core.input_processor import FAEDataset
from repro.core.pipeline import FAEPlan
from repro.data.synthetic import SyntheticClickLog
from repro.models.base import RecModel
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import NumericGuard
from repro.resilience.retry import RetryPolicy
from repro.train.engine import SegmentEngine, TrainResult, evaluate_with_master_bags

__all__ = ["TrainResult", "BaselineTrainer", "FAETrainer", "evaluate_with_master_bags"]


class BaselineTrainer(SegmentEngine):
    """Hybrid CPU-GPU training, functionally: shuffled SGD over all data.

    The engine over ``[model]`` with nothing hot: one cold pool holding
    every input, reshuffled each epoch as
    :class:`~repro.data.loader.BatchIterator` shuffles (one generator
    seeded with ``seed``, one permutation per epoch).  The test log is
    evaluated after each segment and once at the end.

    Args:
        model: the recommender model.
        lr: SGD learning rate.
        seed: batch-shuffle seed.
    """

    def __init__(self, model: RecModel, lr: float = 0.1, seed: int = 0) -> None:
        # No calibration and no hot bags; train() sizes the one cold pool.
        super().__init__([model], FAEPlan(FAEConfig(), None, {}, None, 0.0), lr=lr)
        self.seed = seed

    @property
    def model(self) -> RecModel:
        return self.replicas[0]

    def train(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int = 1,
        batch_size: int = 256,
        eval_samples: int = 4096,
    ) -> TrainResult:
        """Train for ``epochs``, evaluating after every segment."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._shuffle = np.random.default_rng(self.seed)
        pool = FAEDataset([], [], np.zeros(len(train_log), dtype=bool), batch_size)
        self.plan = replace(self.plan, dataset=pool)
        return self._run(train_log, test_log, epochs, eval_samples, None, None)

    def _epoch_dataset(self, epoch: int, dataset: FAEDataset) -> FAEDataset:
        """This epoch's cold pool: a fresh shuffle of every input."""
        order = self._shuffle.permutation(dataset.num_inputs)
        size = dataset.batch_size
        return replace(
            dataset, cold_batches=[order[i : i + size] for i in range(0, len(order), size)]
        )


class FAETrainer(SegmentEngine):
    """The FAE runtime: hot/cold segments, replicas, adaptive scheduling.

    The world-size-1 case of :class:`~repro.train.engine.SegmentEngine`:
    one model, one hot-bag replica, no sharding and no collectives.

    Args:
        model: the recommender model (its tables are the CPU masters).
        plan: FAE preprocessing output for the training log.
        lr: SGD learning rate.
        fault_plan: optional fault-injection schedule (loader hiccups,
            hot-replica eviction, and data corruption apply to this
            single-device trainer).
        retry: retry policy for transient injected faults.
        guards: optional :class:`~repro.resilience.guards.NumericGuard`;
            when set, corrupt batches are skipped, non-finite gradients
            discard the step, and a non-finite or spiking loss rolls the
            run back to the last good checkpoint with LR backoff.
        cache: optional :class:`~repro.core.hotcache.EmbeddingHotCache`.
            When set, every training batch's lookups feed the cache, and
            at segment boundaries a full observation window triggers a
            rebalance: the replicator ships the membership delta and the
            *remaining* batches are re-packed against the new hot set.
            The cache must have been populated from ``plan.bags``.
    """

    def __init__(
        self,
        model: RecModel,
        plan: FAEPlan,
        lr: float = 0.1,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        guards: NumericGuard | None = None,
        cache: EmbeddingHotCache | None = None,
    ) -> None:
        super().__init__(
            [model],
            plan,
            lr=lr,
            fault_plan=fault_plan,
            retry=retry,
            guards=guards,
            cache=cache,
        )

    @property
    def model(self) -> RecModel:
        return self.replicas[0]

    def train(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int = 1,
        eval_samples: int = 4096,
        checkpoint: CheckpointManager | None = None,
        resume=None,
    ) -> TrainResult:
        """Train over the plan's hot/cold batches for ``epochs``.

        Sync accounting flows through the metrics registry: the
        replicator increments ``fae.sync.events`` / ``fae.sync.bytes`` at
        every synchronization, and :class:`TrainResult` reports this
        run's deltas of those counters.

        With ``guards`` set, a loss spike rolls the run back to the
        newest good checkpoint (or the captured initial state) with
        learning-rate backoff, bounded by the guard's rollback budget.

        Args:
            checkpoint: optional manager; a snapshot is taken at each due
                segment boundary (after the post-segment evaluation, when
                the CPU masters are authoritative), so a resumed run
                reproduces the uninterrupted loss trajectory exactly.
            resume: checkpoint path or :class:`TrainerCheckpoint` to
                continue from, or None for a fresh run.
        """
        # Defined here, not inherited: perfbench wraps each trainer's own
        # ``train`` attribute.
        return self._run(train_log, test_log, epochs, eval_samples, checkpoint, resume)
