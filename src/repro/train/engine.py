"""The segment-loop engine behind every trainer.

The paper describes one runtime: hot bags replicated on ``k`` GPUs,
Shuffle-Scheduler segments, a hot-row sync at every hot<->cold
transition (SS II-B).  :class:`SegmentEngine` is that runtime written
once over a list of model replicas.  It owns scheduling, mode switching,
the batch draw and cache observation, guards and rollback, evaluation
and history, checkpoints and the refresh journal, cache turnover and
telemetry.  Its step is the world-size-1 step: one forward, one
backward, the optimizers — no sharding and no collective, because a
world of one has nothing to exchange.

:class:`~repro.train.trainer.FAETrainer` is the engine over ``[model]``.
:class:`~repro.train.trainer.BaselineTrainer` is the same engine over a
plan with nothing hot: it overrides only ``_epoch_dataset`` to reshuffle
its one cold pool each epoch.
:class:`~repro.dist.fae_parallel.DistributedFAETrainer` supplies what
only ``k > 1`` needs by overriding the four ``Backend hooks`` below
(shard + dense all-reduce, rank death, rejoin at a boundary).

Where the two former loops disagreed the engine keeps one rule (DESIGN
"One segment engine"): a guard-dropped batch or discarded step still
advances ``iteration``; ``TrainResult.sync_*`` are this run's deltas of
the ``fae.sync.*`` counters; every checkpoint records ``world_size``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.hotcache import EmbeddingHotCache, repack_remaining
from repro.core.input_processor import FAEDataset
from repro.core.pipeline import FAEPlan
from repro.core.replicator import EmbeddingReplicator
from repro.core.scheduler import ShuffleScheduler
from repro.data import loader
from repro.data.synthetic import SyntheticClickLog
from repro.models.base import RecModel
from repro.nn.embedding import EmbeddingBag
from repro.nn.losses import BCEWithLogits
from repro.nn.optim import SGD
from repro.obs import get_registry, span, timed
from repro.resilience.checkpoint import (
    CheckpointManager,
    TrainerCheckpoint,
    capture_training_state,
    load_checkpoint,
    restore_training_state,
)
from repro.resilience.faults import FaultPlan, PermanentRankFailure, popular_local_row
from repro.resilience.guards import LossSpikeError, NumericGuard
from repro.resilience.journal import RefreshJournal
from repro.resilience.retry import RetryPolicy
from repro.train.history import HistoryPoint, TrainingHistory
from repro.train.metrics import binary_accuracy, evaluate_model

__all__ = ["TrainResult", "SegmentEngine", "evaluate_with_master_bags"]


@dataclass
class TrainResult:
    """Outcome of a training run.

    Attributes:
        history: evaluation snapshots over the run.
        final_train_accuracy: running training accuracy of the final
            epoch: the mean, weighted by trained batch size, of the
            accuracy each optimizer step measured on its own mini-batch
            (the logits it trained on, so earlier steps saw earlier
            parameters).  0.0 when the final epoch trained no sample.
        final_test_accuracy: accuracy on the held-out log at the end.
        sync_events: hot-bag synchronizations performed during this run
            (FAE only; the delta of the ``fae.sync.events`` counter).
        sync_bytes: total bytes moved by those synchronizations (the
            delta of the ``fae.sync.bytes`` counter).
        schedule_rates: the scheduler's rate after each recorded segment
            (FAE only; shows Eq. 7 adapting).
        world_shrinks: permanent rank deaths absorbed by continuing on a
            smaller world (distributed chaos runs only).
        rejoins: dead ranks re-admitted at a segment boundary with state
            resynced from the CPU masters (elastic distributed runs).
        degraded: whether the run lost its hot replicas and finished on
            the cold/baseline path.
        rollbacks: loss-spike rollbacks performed by the numeric guard.
        skipped_batches: corrupt batches the guard dropped pre-forward.
        skipped_steps: optimizer steps discarded over non-finite grads.
    """

    history: TrainingHistory
    final_train_accuracy: float
    final_test_accuracy: float
    sync_events: int = 0
    sync_bytes: int = 0
    schedule_rates: list[int] = field(default_factory=list)
    world_shrinks: int = 0
    rejoins: int = 0
    degraded: bool = False
    rollbacks: int = 0
    skipped_batches: int = 0
    skipped_steps: int = 0


class SegmentEngine:
    """Hot/cold segment training over a list of model replicas.

    Not constructed directly: :class:`~repro.train.trainer.FAETrainer`,
    :class:`~repro.train.trainer.BaselineTrainer` and
    :class:`~repro.dist.fae_parallel.DistributedFAETrainer` are its
    public faces and document the arguments.  Replica 0's embedding
    tables are the CPU masters; every replica's lookups are swapped
    between bags over those shared masters (cold) and its own hot-bag
    replica (hot).
    """

    def __init__(
        self,
        replicas: list[RecModel],
        plan: FAEPlan,
        lr: float = 0.1,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        guards: NumericGuard | None = None,
        cache: EmbeddingHotCache | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = replicas
        self.plan = plan
        self.lr = lr
        self.fault_plan = fault_plan
        self.retry = retry
        self.guards = guards
        self.cache = cache
        # Set by the CLI so GuardAbort can point at the quarantine ledger.
        self.guard_ledger_path: str | None = None
        self.master_tables = replicas[0].tables
        # Each table pools the way the model's own bag does, hot or cold.
        self.pooling = {
            name: replicas[0].get_bag(name).lookup.mode for name in self.master_tables
        }
        self.replicator = EmbeddingReplicator(
            tables=self.master_tables,
            bag_specs=plan.bags,
            num_replicas=len(replicas),
            pooling=self.pooling,
        )
        # Cold-path bags: one set per replica, all backed by the shared
        # master tables ("CPU memory").
        self._cold_bags = [self._new_cold_bags() for _ in replicas]
        self._loss = BCEWithLogits()
        #: Inputs that never trained: guard-dropped batches, and trailing
        #: rows trimmed to keep data-parallel shards equal.
        self.skipped_inputs = 0
        #: Permanent rank deaths absorbed by shrinking the world.
        self.world_shrinks = 0
        #: Parked ranks re-admitted at a segment boundary.
        self.rejoins = 0

    @property
    def world_size(self) -> int:
        return len(self.replicas)

    def _new_cold_bags(self) -> dict[str, EmbeddingBag]:
        return {
            name: EmbeddingBag(table, mode=self.pooling[name])
            for name, table in self.master_tables.items()
        }

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------

    def _install(self, mode: str) -> None:
        """Point every replica's lookups at its hot bags or the masters."""
        for rank, model in enumerate(self.replicas):
            bags = (
                self.replicator.bags_for_replica(rank)
                if mode == "hot"
                else self._cold_bags[rank]
            )
            for name, bag in bags.items():
                model.set_bag(name, bag)

    def _enter(self, mode: str) -> None:
        """A hot<->cold transition: synchronize the hot rows, swap the bags."""
        if mode == "hot":
            self.replicator.sync_from_master()
        else:
            self.replicator.sync_to_master()
        self._install(mode)
        get_registry().counter(f"train.transitions.to_{mode}").inc()

    def _degrade_to_cold(self, scheduler: ShuffleScheduler) -> None:
        """Hot replicas evicted: salvage their rows, go cold for good."""
        with span("resilience.degrade", world_size=self.world_size):
            self.replicator.sync_to_master()
            self.replicator.evict()
            scheduler.degrade()
            self._install("cold")

    # ------------------------------------------------------------------
    # Backend hooks (what a world of k > 1 overrides)
    # ------------------------------------------------------------------

    def _forward_backward(self, batch) -> tuple[float, float]:
        """Run the batch forward and backward; return ``(loss, accuracy)``."""
        model = self.replicas[0]
        logits = model.forward(batch)
        loss = self._loss.forward(logits, batch.labels)
        model.backward(self._loss.backward())
        return loss, binary_accuracy(logits, batch.labels)

    def _all_reduce(self, run_hot: bool) -> None:
        """Share gradients so every replica applies the identical update."""
        if run_hot:
            self.replicator.all_reduce_gradients()

    def _handle_rank_death(self, rank: int) -> None:
        """Drop a permanently failed rank so the batch can be retried."""
        raise NotImplementedError("only a backend with a process group loses ranks")

    def _at_boundary(self, mode: str) -> None:
        """Segment boundary, after the hot-row flush: masters authoritative."""

    def _epoch_dataset(self, epoch: int, dataset: FAEDataset) -> FAEDataset:
        """The batches of a starting epoch; the plan's own, unchanged."""
        return dataset

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------

    def _optimizers(self, run_hot: bool) -> list[SGD]:
        """The segment's optimizers; each steps once per mini-batch.

        Hot: one per replica over its dense parameters, one per replica
        over its hot store.  Cold: the sparse gradients of every replica
        accumulate on the shared masters and a single "CPU" optimizer
        applies them (the hybrid path) — fused with the dense update when
        one replica is all there is.  The count per batch is part of the measured
        shape: perfbench cuts its intervals at every ``SGD.step`` return.
        """
        dense = [m.dense_parameters() for m in self.replicas]
        if run_hot:
            groups = dense + [[store] for store in self.replicator.stores]
        else:
            masters = [t.weight for t in self.master_tables.values()]
            groups = [dense[0] + masters] if len(dense) == 1 else dense + [masters]
        return [SGD(group, lr=self.lr) for group in groups]

    def _step(self, batch, run_hot: bool, optimizers: list[SGD], iteration: int):
        """One guarded training step; ``(loss, accuracy)``, or None when the
        step was discarded over non-finite gradients.

        Raises:
            LossSpikeError: via the guard, on a non-finite/spiking loss.
        """
        loss, accuracy = self._forward_backward(batch)
        if self.guards is not None:
            # A bad loss from a clean batch means the parameters are
            # poisoned: raises LossSpikeError, answered by rollback.
            self.guards.check_loss(loss, iteration)
        if self.fault_plan is not None and self.fault_plan.should_corrupt_gradient(iteration):
            target = self.replicas[0].dense_parameters()[0]
            if target.grad is not None:
                self.fault_plan.corrupt_array(target.grad)
        if self.guards is not None and not self.guards.grads_ok(
            [p for optimizer in optimizers for p in optimizer.parameters], iteration
        ):
            # Poisoned *gradients*: discard the step on every replica
            # before any collective shares them; the parameters stay good.
            self._clear_pending_grads()
            return None
        self._all_reduce(run_hot)
        for optimizer in optimizers:
            optimizer.step()
        return loss, accuracy

    # ------------------------------------------------------------------
    # Recovery policies
    # ------------------------------------------------------------------

    def _clear_pending_grads(self) -> None:
        """Discard every half-accumulated gradient after a failed step."""
        for model in self.replicas:
            for param in model.dense_parameters():
                param.zero_grad()
        for store in self.replicator.stores:
            store.zero_grad()
        for table in self.master_tables.values():
            table.weight.zero_grad()

    def _rollback(
        self,
        exc: LossSpikeError,
        checkpoint: CheckpointManager | None,
        initial: TrainerCheckpoint,
    ) -> TrainerCheckpoint:
        """Answer a loss spike: back off the LR, return the resume point.

        Raises:
            GuardAbort: when the guard's rollback budget is exhausted.
        """
        guards = self.guards
        guards.note_rollback(
            str(exc),
            checkpoint_dir=checkpoint.directory if checkpoint is not None else None,
            ledger_path=self.guard_ledger_path,
        )
        with span("guards.rollback", iteration=exc.iteration, loss=exc.loss):
            self.lr *= guards.config.lr_backoff
            # Drop half-applied gradients; the next attempt reinstalls the
            # master bags and so starts from the canonical cold state.
            self._clear_pending_grads()
            target = checkpoint.latest() if checkpoint is not None else None
            ckpt = load_checkpoint(target) if target is not None else initial
        # Never restore the fault plan's RNG on rollback: fired-once
        # faults stay fired, so the replay does not re-inject the same
        # corruption and loop forever.
        return replace(ckpt, rng_state=None)

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------

    def _new_scheduler(self, dataset: FAEDataset) -> ShuffleScheduler:
        return ShuffleScheduler(
            num_hot_batches=len(dataset.hot_batches),
            num_cold_batches=len(dataset.cold_batches),
            initial_rate=self.plan.config.scheduler_initial_rate,
            strip_length=self.plan.config.scheduler_strip_length,
        )

    def _capture_checkpoint(
        self,
        step: int,
        epoch: int,
        cursors: dict[str, int],
        scheduler: ShuffleScheduler,
        last_loss: float,
        last_acc: float,
        epoch_acc_sum: float = 0.0,
        epoch_samples: int = 0,
        repacked_dataset: FAEDataset | None = None,
    ) -> TrainerCheckpoint:
        """Snapshot at a segment boundary (masters are authoritative).

        When a cache turnover has re-packed the batch streams, the
        repacked dataset geometry rides along (``dataset_state``) so
        resume rebuilds the exact pools the cursors refer to.
        """
        return TrainerCheckpoint(
            step=step,
            epoch=epoch,
            cursors=dict(cursors),
            scheduler_state=scheduler.state_dict(),
            params=capture_training_state(
                self.replicas[0].dense_parameters(), self.master_tables
            ),
            rng_state=self.fault_plan.state_dict() if self.fault_plan else None,
            degraded=scheduler.degraded,
            last_train_loss=last_loss,
            last_train_accuracy=last_acc,
            epoch_accuracy_sum=epoch_acc_sum,
            epoch_samples=epoch_samples,
            metadata={"world_size": self.world_size},
            cache_state=self.cache.state_dict() if self.cache is not None else None,
            dataset_state=(
                repacked_dataset.state_dict() if repacked_dataset is not None else None
            ),
        )

    def _restore_cache_state(self, ckpt: TrainerCheckpoint) -> None:
        """Restore the online cache (and rebuild replica bags to match).

        A pre-v2 checkpoint carries no cache state: warn and cold-start
        (the cache keeps the fresh membership it was constructed with —
        the same state :meth:`EmbeddingHotCache.from_schema` cold-starts
        from when no calibration exists).
        """
        if self.cache is None:
            return
        if ckpt.cache_state is None:
            warnings.warn(
                "checkpoint predates cache durability (no cache state): the "
                "online cache cold-starts from its initial membership instead "
                "of resuming exactly",
                stacklevel=2,
            )
            return
        self.cache.load_state_dict(ckpt.cache_state)
        # Replica bags were built from the constructor-time membership;
        # rebuild them (from the restored masters) to match the restored
        # membership.
        self.replicator = EmbeddingReplicator(
            tables=self.master_tables,
            bag_specs=self.cache.bags(),
            num_replicas=self.replicator.num_replicas,
            pooling=self.pooling,
        )

    def _restore_checkpoint(self, ckpt: TrainerCheckpoint, scheduler: ShuffleScheduler) -> None:
        """Restore parameters, scheduler, cache, and fault state."""
        reference = self.replicas[0].dense_parameters()
        restore_training_state(reference, self.master_tables, ckpt.params)
        for model in self.replicas[1:]:
            for p, q in zip(reference, model.dense_parameters()):
                q.value[...] = p.value
        scheduler.load_state_dict(ckpt.scheduler_state)
        self._restore_cache_state(ckpt)
        if ckpt.degraded:
            # The run had already lost its hot replicas; stay cold.
            self.replicator.evict()
        else:
            self.replicator.sync_from_master()
        if ckpt.rng_state is not None and self.fault_plan is not None:
            self.fault_plan.load_state_dict(ckpt.rng_state)

    # ------------------------------------------------------------------
    # Cache turnover
    # ------------------------------------------------------------------

    def _refresh_due(self, scheduler: ShuffleScheduler) -> bool:
        return (
            self.cache is not None
            and not scheduler.degraded
            and self.cache.should_rebalance()
        )

    def _refresh_cache(
        self,
        train_log: SyntheticClickLog,
        dataset: FAEDataset,
        cursors: dict[str, int],
        scheduler: ShuffleScheduler,
        mode: str,
        journal: RefreshJournal | None,
    ) -> tuple[FAEDataset, dict[str, int], str, bool]:
        """One journaled cache turnover (the refresh transaction).

        Phase order (each a :meth:`FaultPlan.maybe_crash_refresh` kill
        point): plan -> intent (journal write-ahead) -> apply (membership
        swap) -> replicas (delta shipped to every rank) -> repack
        (remaining batches) -> pools (scheduler swap) -> commit
        (journal).  A crash anywhere is recovered by re-planning from the
        pre-refresh checkpoint, which
        :meth:`RefreshJournal.verify_rollforward` checks against the
        journaled intent.

        Returns:
            ``(dataset, cursors, mode, repacked)``.
        """
        fault_plan = self.fault_plan
        refresh_index = self.cache.rebalances

        def kill_point(phase: str) -> None:
            if fault_plan is not None:
                fault_plan.maybe_crash_refresh(refresh_index, phase)

        plan = self.cache.plan_rebalance()
        delta = plan.delta
        kill_point("plan")
        if journal is not None:
            journal.verify_rollforward(tick=plan.tick, delta=delta)
            journal.begin(
                refresh_index=refresh_index,
                tick=plan.tick,
                generation=self.cache.version + (0 if delta.is_empty else 1),
                delta=delta,
            )
            kill_point("intent")
        self.cache.apply_rebalance(plan)
        kill_point("apply")
        repacked = False
        if not delta.is_empty:
            if mode == "hot":
                # Old hot bags are about to be rebuilt; fall back to the
                # (current) masters on every rank.
                self._install("cold")
                mode = "cold"
                get_registry().counter("train.transitions.to_cold").inc()
            new_bags = self.cache.bags()
            self.replicator.apply_delta(new_bags, delta)
            kill_point("replicas")
            dataset, cursors = repack_remaining(train_log, dataset, cursors, delta, new_bags)
            kill_point("repack")
            scheduler.repack_pools(len(dataset.hot_batches), len(dataset.cold_batches))
            kill_point("pools")
            get_registry().gauge("train.batch.hot_fraction").set(dataset.hot_input_fraction)
            repacked = True
        if journal is not None:
            journal.commit()
        kill_point("commit")
        return dataset, cursors, mode, repacked

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------

    def _run(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int,
        eval_samples: int,
        checkpoint: CheckpointManager | None,
        resume,
    ) -> TrainResult:
        """Train; with guards set, answer loss spikes by rollback and retry.

        A :class:`LossSpikeError` (non-finite or spiking loss from clean
        inputs — i.e. poisoned parameters) rolls the run back to the
        newest good checkpoint (or the captured initial state) with
        learning-rate backoff, bounded by the guard's rollback budget.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if resume is not None and not isinstance(resume, TrainerCheckpoint):
            resume = load_checkpoint(resume)
        if self.guards is None:
            return self._train(train_log, test_log, epochs, eval_samples, checkpoint, resume)
        # A fresh run snapshots its starting state against a pristine
        # scheduler: full pools, zero cursors, epoch 0 — resuming from it
        # is equivalent to restarting the run.
        initial = resume or self._capture_checkpoint(
            0, 0, {"hot": 0, "cold": 0}, self._new_scheduler(self.plan.dataset), 0.0, 0.0
        )
        attempt = resume
        while True:
            try:
                result = self._train(
                    train_log, test_log, epochs, eval_samples, checkpoint, attempt
                )
            except LossSpikeError as exc:
                attempt = self._rollback(exc, checkpoint, initial)
                continue
            result.rollbacks = self.guards.rollbacks
            result.skipped_batches = self.guards.skipped_batches
            result.skipped_steps = self.guards.skipped_steps
            return result

    def _train(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int,
        eval_samples: int,
        checkpoint: CheckpointManager | None,
        resume: TrainerCheckpoint | None,
    ) -> TrainResult:
        """One training attempt (the guarded :meth:`_run` may retry it)."""
        dataset = self.plan.dataset
        repacked = False
        if resume is not None and resume.dataset_state is not None:
            # The run had re-packed its batches before this snapshot:
            # cursors and scheduler pools refer to that geometry, not
            # the plan's original packing.
            dataset = FAEDataset.from_state_dict(resume.dataset_state)
            repacked = True
        scheduler = self._new_scheduler(dataset)
        journal = (
            RefreshJournal(checkpoint.directory)
            if checkpoint is not None and self.cache is not None
            else None
        )
        history = TrainingHistory()
        fault_plan = self.fault_plan

        registry = get_registry()
        sync_events_counter = registry.counter("fae.sync.events")
        sync_bytes_counter = registry.counter("fae.sync.bytes")
        sync_events_start = sync_events_counter.value
        sync_bytes_start = sync_bytes_counter.value
        batch_counters = {
            "hot": registry.counter("train.batches.hot"),
            "cold": registry.counter("train.batches.cold"),
        }
        step_hist = registry.histogram("train.step.latency")
        registry.gauge("train.batch.hot_fraction").set(dataset.hot_input_fraction)

        # Every attempt starts from the canonical cold state.
        self._install("cold")
        mode = "cold"
        iteration = 0
        rates: list[int] = []
        last_loss = 0.0
        last_acc = 0.0
        # Running train accuracy of the current epoch: the sample-weighted
        # sum of the steps' own accuracies, in step order, and the samples.
        epoch_acc_sum = 0.0
        epoch_samples = 0
        start_epoch = 0
        resume_cursors: dict[str, int] | None = None
        segments_done = 0
        # The newest boundary evaluation, when it covered all of test_log.
        boundary_eval: tuple[float, float] | None = None

        if resume is not None:
            self._restore_checkpoint(resume, scheduler)
            iteration = resume.step
            start_epoch = resume.epoch
            resume_cursors = dict(resume.cursors)
            last_loss = resume.last_train_loss
            last_acc = resume.last_train_accuracy
            epoch_acc_sum = resume.epoch_accuracy_sum
            epoch_samples = resume.epoch_samples
            if self._refresh_due(scheduler):
                # Checkpoints are captured *before* the boundary refresh,
                # so a restored full observation window means the crashed
                # run was refreshing (or about to): roll the refresh
                # forward now, deterministically — plan_rebalance is pure
                # in the restored state, and the journal's pending intent
                # (if the crash landed mid-refresh) verifies the re-plan.
                dataset, resume_cursors, mode, did_repack = self._refresh_cache(
                    train_log, dataset, resume_cursors, scheduler, mode, journal
                )
                repacked = repacked or did_repack

        for epoch in range(start_epoch, epochs):
            dataset = self._epoch_dataset(epoch, dataset)
            if resume_cursors is not None:
                # Mid-epoch resume: the scheduler already holds this
                # epoch's remaining pools; do not refill them.
                cursors = resume_cursors
                resume_cursors = None
            else:
                scheduler.reset_epoch(*dataset.batch_counts())
                cursors = {"hot": 0, "cold": 0}
                epoch_acc_sum = 0.0
                epoch_samples = 0
            for segment in scheduler.segments():
                with span(
                    f"train.segment.{segment.kind}",
                    num_batches=segment.num_batches,
                    rate=segment.rate,
                ):
                    if (
                        fault_plan is not None
                        and not scheduler.degraded
                        and fault_plan.should_evict_hot(iteration)
                    ):
                        self._degrade_to_cold(scheduler)
                        mode = "cold"
                    # In degraded mode the segment still drains its planned
                    # pool, but executes on the cold (master-table) path.
                    run_hot = segment.kind == "hot" and not scheduler.degraded
                    wanted = "hot" if run_hot else "cold"
                    if wanted != mode:
                        self._enter(wanted)
                        mode = wanted

                    if (
                        fault_plan is not None
                        and run_hot
                        and fault_plan.should_corrupt_hot_row(iteration)
                    ):
                        # Poison the same row on every replica (replicas
                        # must stay bit-identical); the damage spreads to
                        # the masters at the next sync unless the guard
                        # trips first.  Target the most-accessed row of
                        # the upcoming hot batch so the fault is
                        # guaranteed to be exercised.
                        name = next(iter(self.replicator.replicas[0]))
                        bag = self.replicator.replicas[0][name]
                        cursor = cursors.get("hot", 0)
                        upcoming = (
                            train_log.sparse[name][dataset.hot_batches[cursor]]
                            if cursor < len(dataset.hot_batches)
                            else np.empty(0, dtype=np.int64)
                        )
                        row = popular_local_row(bag, upcoming)
                        for replica in self.replicator.replicas:
                            fault_plan.corrupt_row(replica[name].weight.value, row=row)

                    optimizers = self._optimizers(run_hot)
                    pool_name = segment.drain_pool
                    pool = dataset.hot_batches if pool_name == "hot" else dataset.cold_batches
                    losses = []
                    accs = []
                    start = cursors[pool_name]
                    for index_array in pool[start : start + segment.num_batches]:
                        if self.cache is not None:
                            # Feed the cache the untrimmed, *clean* lookups
                            # once per mini-batch: before any injected
                            # corruption touches the batch, and outside the
                            # rank-death retry so it never double-counts.
                            self.cache.observe(
                                {name: ids[index_array] for name, ids in train_log.sparse.items()}
                            )
                        outcome = None
                        while True:
                            # Data parallelism needs equal shards: trim
                            # trailing short batches to a world-size
                            # multiple (real DDP runs drop the remainder
                            # the same way).
                            usable = (len(index_array) // self.world_size) * self.world_size
                            if usable == 0:
                                self.skipped_inputs += len(index_array)
                                break
                            # Module lookup, one fetch per attempt: seeded
                            # loader-fault streams and the trajectory pin's
                            # recorder both count on it.
                            batch = loader.fetch_batch(
                                train_log,
                                index_array[:usable],
                                hot=run_hot,
                                fault_plan=fault_plan,
                                retry=self.retry,
                            )
                            if fault_plan is not None:
                                batch = fault_plan.maybe_corrupt_batch(batch)
                            if self.guards is not None and not self.guards.batch_ok(batch):
                                # Poisoned *inputs*: dropping the batch costs
                                # one update and nothing else.
                                self.skipped_inputs += len(index_array)
                                iteration += 1
                                break
                            step_start = time.perf_counter()
                            try:
                                outcome = self._step(batch, run_hot, optimizers, iteration)
                            except PermanentRankFailure as exc:
                                if self.world_size <= 1:
                                    raise
                                self._handle_rank_death(exc.rank)
                                optimizers = self._optimizers(run_hot)
                                continue  # retry the same mini-batch, re-trimmed
                            self.skipped_inputs += len(index_array) - usable
                            iteration += 1
                            break
                        if outcome is not None:
                            step_hist.observe(time.perf_counter() - step_start)
                            losses.append(outcome[0])
                            accs.append(outcome[1])
                            epoch_acc_sum += outcome[1] * usable
                            epoch_samples += usable
                            if fault_plan is not None:
                                fault_plan.maybe_crash_step(iteration)
                    batch_counters[segment.kind].inc(segment.num_batches)
                    cursors[pool_name] = start + segment.num_batches

                    # Evaluation must see the freshest parameters: flush hot
                    # rows to the masters (without leaving hot mode) first.
                    if mode == "hot":
                        self.replicator.sync_to_master()
                    self._at_boundary(mode)
                    with timed("train.eval"):
                        test_loss, test_acc = evaluate_with_master_bags(
                            self.replicas[0], self._cold_bags[0], test_log, eval_samples
                        )
                    if eval_samples >= len(test_log):
                        boundary_eval = (test_loss, test_acc)
                    if self.guards is not None:
                        # Catch poisoned state before it contaminates the
                        # scheduler's loss feedback: raises LossSpikeError.
                        self.guards.check_eval_loss(test_loss, iteration)
                    scheduler.record_test_loss(test_loss)
                    rates.append(scheduler.rate)
                    last_loss = float(np.mean(losses)) if losses else last_loss
                    last_acc = float(np.mean(accs)) if accs else last_acc
                    history.record(
                        HistoryPoint(
                            iteration=iteration,
                            train_loss=last_loss,
                            test_loss=test_loss,
                            test_accuracy=test_acc,
                            train_accuracy=last_acc,
                            segment_kind=segment.kind,
                        )
                    )
                    segments_done += 1
                    if checkpoint is not None and checkpoint.should_save(segments_done):
                        snapshot = self._capture_checkpoint(
                            iteration,
                            epoch,
                            cursors,
                            scheduler,
                            last_loss,
                            last_acc,
                            epoch_acc_sum,
                            epoch_samples,
                            repacked_dataset=dataset if repacked else None,
                        )
                        # Checkpoint hygiene: never persist a snapshot
                        # carrying NaN/Inf — rollback must not restore poison.
                        if self.guards is None or self.guards.state_ok(snapshot.params):
                            checkpoint.save(snapshot)
                            if fault_plan is not None:
                                fault_plan.maybe_crash_checkpoint()

                    # Cache turnover at the segment boundary: the masters
                    # are authoritative here (hot rows were flushed before
                    # the evaluation above), so promotion can pull fresh
                    # values and demoted rows lose nothing.  The turnover
                    # runs *after* the checkpoint on purpose: crash
                    # recovery re-derives an interrupted refresh from the
                    # pre-refresh snapshot (see _refresh_cache).
                    if self._refresh_due(scheduler):
                        dataset, cursors, mode, did_repack = self._refresh_cache(
                            train_log, dataset, cursors, scheduler, mode, journal
                        )
                        repacked = repacked or did_repack

        if mode == "hot":
            self._enter("cold")
        with timed("train.eval", final=True):
            # The last boundary evaluated these parameters on these rows:
            # checkpoint, refresh and the switch to cold since then only
            # copy rows, no master row or dense weight was written.
            final_loss, final_acc = boundary_eval or evaluate_model(
                self.replicas[0], test_log
            )
        train_acc = epoch_acc_sum / epoch_samples if epoch_samples else 0.0
        history.record(
            HistoryPoint(
                iteration=iteration,
                train_loss=last_loss,
                test_loss=final_loss,
                test_accuracy=final_acc,
                train_accuracy=train_acc,
                segment_kind="final",
            )
        )
        return TrainResult(
            history=history,
            final_train_accuracy=train_acc,
            final_test_accuracy=final_acc,
            sync_events=int(sync_events_counter.value - sync_events_start),
            sync_bytes=int(sync_bytes_counter.value - sync_bytes_start),
            schedule_rates=rates,
            world_shrinks=self.world_shrinks,
            rejoins=self.rejoins,
            degraded=scheduler.degraded,
        )


def evaluate_with_master_bags(model: RecModel, master_bags: dict, test_log, eval_samples: int):
    """Evaluate using the master tables regardless of the installed bags.

    Test inputs are arbitrary (they may touch cold rows), so evaluation
    always runs against the full CPU tables; the caller is responsible
    for flushing hot-row updates to the masters first.
    """
    installed = {name: model.get_bag(name) for name in master_bags}
    for name, bag in master_bags.items():
        model.set_bag(name, bag)
    try:
        return evaluate_model(model, test_log, max_samples=eval_samples)
    finally:
        for name, bag in installed.items():
            model.set_bag(name, bag)
