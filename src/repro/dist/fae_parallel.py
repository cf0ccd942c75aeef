"""Distributed FAE: the paper's full multi-GPU execution model.

Per mini-batch, ``k`` model replicas ("GPUs") each process a ``1/k``
shard.  The embedding path depends on the batch's temperature:

- **cold** — every replica's lookups route to the *shared CPU master
  tables* (the hybrid baseline path); MLP gradients are all-reduced
  across replicas, embedding gradients accumulate on the masters and a
  single "CPU" optimizer applies them.
- **hot** — every replica looks up its *own hot-bag replica*; a fused
  all-reduce covers MLP and hot-embedding gradients, and identical
  optimizer steps keep the replicas bit-equal (paper SS II-B(3)).

Segments, hot<->cold transitions, guards, checkpoints and cache
turnover are the shared :class:`~repro.train.engine.SegmentEngine` —
the same code the single-device
:class:`~repro.train.trainer.FAETrainer` runs, which this trainer is
provably equivalent to (see tests/test_dist.py).  What lives here is
only what ``k > 1`` adds: sharding, the dense all-reduce, rank death
and rejoin.

Resilience: when constructed with a
:class:`~repro.resilience.faults.FaultPlan`, the trainer survives the
injected chaos — transient collective failures are retried inside the
:class:`~repro.dist.collectives.ProcessGroup`, a permanent rank death
shrinks the world and training continues data-parallel on the
survivors, and a hot-replica eviction degrades the run onto the cold
(CPU-master) path for its remainder.  Checkpoints are taken at segment
boundaries (masters authoritative) and resumed runs reproduce the
uninterrupted loss trajectory.

Elastic rejoin: with ``rejoin=True`` a dead rank is *parked* instead of
forgotten, and re-admitted at the next segment boundary — the one point
where the CPU masters are authoritative in either mode — with dense
parameters copied from rank 0, a fresh hot-bag replica rebuilt from the
masters, and the process group rebuilt at the restored world size.
Deaths and rejoins are visible in the rank event log (``event_log``,
written by ``repro train --events-jsonl``) and the
``resilience.elastic.rejoins`` counter.
"""

from __future__ import annotations

import numpy as np

from repro.core.hotcache import EmbeddingHotCache
from repro.core.pipeline import FAEPlan
from repro.data.synthetic import SyntheticClickLog
from repro.dist.collectives import ProcessGroup
from repro.dist.parallel import all_reduce_dense_grads, shard_batch
from repro.models.base import RecModel
from repro.obs import get_registry, span
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import NumericGuard
from repro.resilience.retry import RetryPolicy
from repro.train.engine import SegmentEngine, TrainResult
from repro.train.metrics import binary_accuracy

__all__ = ["DistributedFAETrainer"]


class DistributedFAETrainer(SegmentEngine):
    """FAE training across ``k`` simulated GPUs.

    Args:
        replicas: identically-initialized model replicas, one per GPU.
            Replica 0's embedding tables serve as the CPU masters; the
            other replicas' own tables are never touched (their lookups
            are swapped to shared-master or hot-bag views), mirroring the
            real system where GPUs never hold full tables.
        plan: FAE preprocessing output.
        lr: SGD learning rate.
        fault_plan: optional fault-injection schedule; consulted by the
            process group (collectives), the data path, and the trainer
            (hot-replica eviction + data corruption).
        retry: retry policy for transient faults (collectives + loader).
        guards: optional :class:`~repro.resilience.guards.NumericGuard`;
            when set, corrupt batches are skipped, non-finite gradients
            discard the step on every replica, and a non-finite or
            spiking loss rolls the run back to the last good checkpoint
            with LR backoff.
        rejoin: park permanently-failed ranks and re-admit them at the
            next segment boundary (state resynced from the CPU masters)
            instead of finishing on a shrunken world.
        event_log: optional
            :class:`~repro.resilience.elastic.SupervisorEventLog`; each
            rank death appends a ``death`` record and each re-admission
            a ``rejoin`` record (this trainer is the log's only producer).
        cache: optional :class:`~repro.core.hotcache.EmbeddingHotCache`;
            same contract as the single-device trainer — batches feed the
            cache and a full window triggers a segment-boundary rebalance
            with delta replication and remaining-batch repack.
    """

    def __init__(
        self,
        replicas: list[RecModel],
        plan: FAEPlan,
        lr: float = 0.1,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        guards: NumericGuard | None = None,
        rejoin: bool = False,
        event_log=None,
        cache: EmbeddingHotCache | None = None,
    ) -> None:
        super().__init__(
            replicas,
            plan,
            lr=lr,
            fault_plan=fault_plan,
            retry=retry,
            guards=guards,
            cache=cache,
        )
        self.group = ProcessGroup(
            world_size=len(replicas), fault_plan=fault_plan, retry=retry
        )
        self.rejoin = rejoin
        self.event_log = event_log
        self._parked: list[RecModel] = []

    def train(
        self,
        train_log: SyntheticClickLog,
        test_log: SyntheticClickLog,
        epochs: int = 1,
        eval_samples: int = 4096,
        checkpoint: CheckpointManager | None = None,
        resume=None,
    ) -> TrainResult:
        """Train over the plan's hot/cold batches; same contract as
        :meth:`repro.train.trainer.FAETrainer.train`.

        Args:
            checkpoint: optional manager; a snapshot is taken at each
                due segment boundary (masters authoritative).
            resume: checkpoint path or :class:`TrainerCheckpoint` to
                continue from, or None for a fresh run.
        """
        # Defined here, not inherited: perfbench wraps each trainer's own
        # ``train`` attribute.
        return self._run(train_log, test_log, epochs, eval_samples, checkpoint, resume)

    # ------------------------------------------------------------------
    # The data-parallel step
    # ------------------------------------------------------------------

    def _exchanges(self) -> bool:
        """Whether a step goes through the process group.

        Over one rank a collective moves nothing, so the engine's own
        step is the same math without the shard slices and gradient
        copies.  Only an armed fault plan can tell the difference — a
        rank death injected at world size 1 has to stay fatal — so with
        one the collectives still run.
        """
        return self.world_size > 1 or self.fault_plan is not None

    def _forward_backward(self, batch) -> tuple[float, float]:
        if not self._exchanges():
            return super()._forward_backward(batch)
        losses, accuracies = [], []
        for model, shard in zip(self.replicas, shard_batch(batch, self.world_size)):
            logits = model.forward(shard)
            losses.append(self._loss.forward(logits, shard.labels))
            # Shard losses are means: 1/k makes the summed gradients the
            # full-batch gradient.
            model.backward(self._loss.backward() / self.world_size)
            accuracies.append(binary_accuracy(logits, shard.labels))
        return float(np.mean(losses)), float(np.mean(accuracies))

    def _all_reduce(self, run_hot: bool) -> None:
        """The fused all-reduce: one dense bucket, then hot-bag sparse grads."""
        if self._exchanges():
            all_reduce_dense_grads(
                self.group, [m.dense_parameters() for m in self.replicas]
            )
        super()._all_reduce(run_hot)

    # ------------------------------------------------------------------
    # Rank death and rejoin
    # ------------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(event, **fields)

    def _regroup(self) -> None:
        """Rebuild the process group over the current replicas
        (communication accounting carries over)."""
        old = self.group
        self.group = ProcessGroup(
            world_size=len(self.replicas),
            bytes_communicated=old.bytes_communicated,
            collective_calls=old.collective_calls,
            fault_plan=old.fault_plan,
            retry=old.retry,
        )
        get_registry().gauge("dist.world_size").set(self.world_size)

    def _handle_rank_death(self, rank: int) -> None:
        """Shrink the world after a permanent rank failure.

        Drops the dead replica (model, cold bags, hot-bag copy) and
        rebuilds the process group on the survivors.  The engine retries
        the failed mini-batch — pending gradients are discarded here, so
        the retry recomputes the step from clean state and the survivors
        stay bit-equal.
        """
        rank = min(max(rank, 0), len(self.replicas) - 1)
        with span("resilience.rank_death", rank=rank, world_size=self.world_size):
            self._clear_pending_grads()
            dead = self.replicas[rank]
            del self.replicas[rank]
            del self._cold_bags[rank]
            if self.replicator.replicas:
                self.replicator.drop_replica(rank)
            self.world_shrinks += 1
            if self.rejoin:
                # Park the dead rank's model; a segment boundary will
                # re-admit it with state resynced from the masters.
                self._parked.append(dead)
            get_registry().counter("resilience.world_shrinks").inc()
            self._regroup()
            self._emit("death", rank=rank, world_size=self.world_size, parked=self.rejoin)

    def _at_boundary(self, mode: str) -> None:
        """Re-admit every parked rank at a segment boundary.

        The CPU masters are authoritative here in either mode: a hot
        segment has just written replica rows back via
        ``sync_to_master``, and a cold segment trains the masters
        directly.  Each parked model gets rank 0's dense parameters
        (survivors are bit-equal, so any rank would do), a cold-bag set
        over the shared masters, and — unless the run degraded — a fresh
        hot replica built from the masters.
        """
        reference = self.replicas[0].dense_parameters()
        while self._parked:
            model = self._parked.pop(0)
            with span("resilience.rank_rejoin", world_size=self.world_size + 1, mode=mode):
                for p, q in zip(reference, model.dense_parameters()):
                    q.value[...] = p.value
                    q.zero_grad()
                self.replicas.append(model)
                self._cold_bags.append(self._new_cold_bags())
                replicated = bool(self.replicator.replicas) and not self.replicator.evicted
                if replicated:
                    self.replicator.add_replica()
                bags = (
                    self.replicator.bags_for_replica(len(self.replicas) - 1)
                    if replicated and mode == "hot"
                    else self._cold_bags[-1]
                )
                for name, bag in bags.items():
                    model.set_bag(name, bag)
                self.rejoins += 1
                get_registry().counter("resilience.elastic.rejoins").inc()
                self._regroup()
                self._emit(
                    "rejoin", rank=len(self.replicas) - 1, world_size=self.world_size, mode=mode
                )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def max_dense_divergence(self) -> float:
        """Largest MLP-parameter gap between any replica and rank 0."""
        worst = 0.0
        reference = self.replicas[0].dense_parameters()
        for model in self.replicas[1:]:
            for p, q in zip(reference, model.dense_parameters()):
                worst = max(worst, float(np.abs(p.value - q.value).max(initial=0.0)))
        return worst

    def max_hot_divergence(self) -> float:
        """Largest hot-bag gap between replicas (must stay 0)."""
        return self.replicator.max_replica_divergence()
