"""Baseline and FAE trainers over the numpy models.

:class:`BaselineTrainer` is the paper's Fig 3 execution, functionally:
plain shuffled mini-batches, one optimizer over every parameter (device
placement is a performance concern simulated by :mod:`repro.hw`, not a
math concern — both executions apply identical updates).

:class:`FAETrainer` is the FAE runtime over a preprocessed
:class:`~repro.core.pipeline.FAEPlan`:

- pure-hot batches execute against per-GPU hot-bag replicas (ids remapped
  to bag-local rows), pure-cold batches against the CPU master tables;
- every hot<->cold transition synchronizes the hot rows (replica ->
  master or master -> replicas), exactly as the Embedding Replicator
  prescribes, and its cost is tallied for the hardware model;
- the Shuffle Scheduler plans segments and adapts its rate from the test
  loss measured after each segment (paper Eq. 7).

Because syncs run at *every* transition, the FAE execution is
mathematically a reordering of the baseline's mini-batches — which is why
the paper (and our Table III bench) sees matching final accuracy.

The runtime itself lives in :mod:`repro.train.engine`; ``FAETrainer`` is
its world-size-1 face.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.hotcache import EmbeddingHotCache
from repro.core.pipeline import FAEPlan
from repro.data.loader import BatchIterator
from repro.data.synthetic import SyntheticClickLog
from repro.models.base import RecModel
from repro.nn.losses import BCEWithLogits
from repro.nn.optim import SGD
from repro.obs import get_registry, span, timed
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import NumericGuard
from repro.resilience.retry import RetryPolicy
from repro.train.engine import SegmentEngine, TrainResult, evaluate_with_master_bags
from repro.train.history import HistoryPoint, TrainingHistory
from repro.train.metrics import binary_accuracy, evaluate_model

__all__ = ["TrainResult", "BaselineTrainer", "FAETrainer", "evaluate_with_master_bags"]


class BaselineTrainer:
    """Hybrid CPU-GPU training, functionally: shuffled SGD over all data.

    Args:
        model: the recommender model.
        lr: SGD learning rate.
        seed: batch-shuffle seed.
    """

    def __init__(self, model: RecModel, lr: float = 0.1, seed: int = 0) -> None:
        self.model = model
        self.lr = lr
        self.seed = seed

    def train(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int = 1,
        batch_size: int = 256,
        eval_every: int = 50,
        eval_samples: int = 4096,
    ) -> TrainResult:
        """Train for ``epochs`` and record periodic evaluation snapshots."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        optimizer = SGD(self.model.parameters(), lr=self.lr)
        loss_fn = BCEWithLogits()
        history = TrainingHistory()

        iteration = 0
        recent_losses: list[float] = []
        recent_accuracy: list[float] = []
        iterator = BatchIterator(train_log, batch_size, shuffle=True, seed=self.seed)
        registry = get_registry()
        batches_counter = registry.counter("train.batches.mixed")
        step_hist = registry.histogram("train.step.latency")
        for _epoch in range(epochs):
            # Running train accuracy of this epoch (see TrainResult).
            epoch_acc_sum = 0.0
            epoch_samples = 0
            with span("train.epoch", mode="baseline", epoch=_epoch):
                for batch in iterator:
                    step_start = time.perf_counter()
                    logits = self.model.forward(batch)
                    loss = loss_fn.forward(logits, batch.labels)
                    self.model.backward(loss_fn.backward())
                    optimizer.step()
                    step_hist.observe(time.perf_counter() - step_start)
                    iteration += 1
                    batches_counter.inc()
                    recent_losses.append(loss)
                    accuracy = binary_accuracy(logits, batch.labels)
                    recent_accuracy.append(accuracy)
                    epoch_acc_sum += accuracy * len(batch)
                    epoch_samples += len(batch)
                    if iteration % eval_every == 0:
                        with timed("train.eval"):
                            test_loss, test_acc = evaluate_model(
                                self.model, test_log, max_samples=eval_samples
                            )
                        history.record(
                            HistoryPoint(
                                iteration=iteration,
                                train_loss=float(np.mean(recent_losses)),
                                test_loss=test_loss,
                                test_accuracy=test_acc,
                                train_accuracy=float(np.mean(recent_accuracy)),
                                segment_kind="mixed",
                            )
                        )
                        recent_losses.clear()
                        recent_accuracy.clear()

        final_loss, final_acc = evaluate_model(self.model, test_log)
        train_acc = epoch_acc_sum / epoch_samples if epoch_samples else 0.0
        history.record(
            HistoryPoint(
                iteration=iteration,
                train_loss=float(np.mean(recent_losses)) if recent_losses else final_loss,
                test_loss=final_loss,
                test_accuracy=final_acc,
                train_accuracy=train_acc,
                segment_kind="mixed",
            )
        )
        return TrainResult(
            history=history,
            final_train_accuracy=train_acc,
            final_test_accuracy=final_acc,
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
