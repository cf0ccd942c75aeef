"""Tests for the distributed substrate: collectives, data parallelism,
and the distributed FAE trainer's equivalence to single-device FAE."""

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.data import train_test_split
from repro.data.loader import batch_from_log
from repro.dist import (
    DataParallelTrainer,
    DistributedFAETrainer,
    ProcessGroup,
    ReduceOp,
    shard_batch,
)
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn import BCEWithLogits, SGD
from repro.resilience import CheckpointManager, FaultPlan, load_checkpoint
from repro.train import FAETrainer


class TestProcessGroup:
    def test_all_reduce_sum(self, rng):
        group = ProcessGroup(world_size=3)
        buffers = [rng.normal(size=(4, 5)).astype(np.float32) for _ in range(3)]
        results = group.all_reduce(buffers, ReduceOp.SUM)
        expected = sum(b.astype(np.float64) for b in buffers)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-5)

    def test_all_reduce_mean(self, rng):
        group = ProcessGroup(world_size=4)
        buffers = [rng.normal(size=7).astype(np.float32) for _ in range(4)]
        results = group.all_reduce(buffers, ReduceOp.MEAN)
        expected = np.mean([b.astype(np.float64) for b in buffers], axis=0)
        np.testing.assert_allclose(results[2], expected, rtol=1e-5)

    def test_all_reduce_max(self, rng):
        group = ProcessGroup(world_size=2)
        buffers = [np.array([1.0, 5.0]), np.array([3.0, 2.0])]
        results = group.all_reduce(buffers, ReduceOp.MAX)
        np.testing.assert_allclose(results[0], [3.0, 5.0])

    def test_all_ranks_identical(self, rng):
        group = ProcessGroup(world_size=5)
        buffers = [rng.normal(size=13).astype(np.float32) for _ in range(5)]
        results = group.all_reduce(buffers)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    def test_single_rank_identity(self):
        group = ProcessGroup(world_size=1)
        buf = np.arange(4.0)
        np.testing.assert_allclose(group.all_reduce([buf])[0], buf)

    def test_traffic_accounting(self, rng):
        group = ProcessGroup(world_size=4)
        buf = np.zeros(1000, dtype=np.float32)
        group.all_reduce([buf.copy() for _ in range(4)])
        # Ring volume: 2 (k-1)/k of the buffer.
        assert group.bytes_communicated == pytest.approx(4000 * 2 * 3 / 4)
        assert group.collective_calls == 1

    def test_broadcast(self):
        group = ProcessGroup(world_size=3)
        results = group.broadcast(np.array([1.0, 2.0]))
        assert len(results) == 3
        results[1][0] = 99  # copies, not views
        assert results[0][0] == 1.0

    def test_all_gather(self, rng):
        group = ProcessGroup(world_size=2)
        a, b = np.array([1.0]), np.array([2.0])
        results = group.all_gather([a, b])
        np.testing.assert_allclose(results[0], [[1.0], [2.0]])

    def test_reduce_scatter(self):
        group = ProcessGroup(world_size=2)
        bufs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        shards = group.reduce_scatter(bufs)
        np.testing.assert_allclose(shards[0], [4.0])
        np.testing.assert_allclose(shards[1], [6.0])

    def test_shape_mismatch_rejected(self):
        group = ProcessGroup(world_size=2)
        with pytest.raises(ValueError):
            group.all_reduce([np.zeros(2), np.zeros(3)])

    def test_wrong_rank_count_rejected(self):
        group = ProcessGroup(world_size=2)
        with pytest.raises(ValueError):
            group.all_reduce([np.zeros(2)])

    def test_bad_world_size(self):
        with pytest.raises(ValueError):
            ProcessGroup(world_size=0)


class TestShardBatch:
    def test_even_split(self, tiny_log):
        batch = batch_from_log(tiny_log, np.arange(64))
        shards = shard_batch(batch, 4)
        assert len(shards) == 4
        assert all(len(s) == 16 for s in shards)
        recombined = np.concatenate([s.indices for s in shards])
        np.testing.assert_array_equal(recombined, batch.indices)

    def test_indivisible_rejected(self, tiny_log):
        batch = batch_from_log(tiny_log, np.arange(10))
        with pytest.raises(ValueError):
            shard_batch(batch, 4)

    def test_hot_tag_preserved(self, tiny_log):
        batch = batch_from_log(tiny_log, np.arange(8), hot=True)
        assert all(s.hot for s in shard_batch(batch, 2))


def small_dlrm(tiny_schema, seed=3):
    return DLRM(tiny_schema, DLRMConfig("4-8", "8-1", seed=seed))


class TestDataParallelTrainer:
    def test_replicas_stay_identical(self, tiny_schema, tiny_log):
        replicas = [small_dlrm(tiny_schema) for _ in range(3)]
        trainer = DataParallelTrainer(replicas, lr=0.1)
        for start in range(0, 192, 48):
            batch = batch_from_log(tiny_log, np.arange(start, start + 48))
            trainer.step(batch)
        assert trainer.max_divergence() < 1e-6

    def test_equivalent_to_single_device(self, tiny_schema, tiny_log):
        """k-way data parallelism == full-batch single-device training."""
        single = small_dlrm(tiny_schema, seed=5)
        loss_fn = BCEWithLogits()
        optimizer = SGD(single.parameters(), lr=0.1)
        for start in range(0, 128, 32):
            batch = batch_from_log(tiny_log, np.arange(start, start + 32))
            logits = single.forward(batch)
            loss_fn.forward(logits, batch.labels)
            single.backward(loss_fn.backward())
            optimizer.step()

        replicas = [small_dlrm(tiny_schema, seed=5) for _ in range(4)]
        trainer = DataParallelTrainer(replicas, lr=0.1)
        for start in range(0, 128, 32):
            trainer.step(batch_from_log(tiny_log, np.arange(start, start + 32)))

        for p, q in zip(single.parameters(), replicas[0].parameters()):
            np.testing.assert_allclose(p.value, q.value, rtol=1e-4, atol=1e-5)

    def test_loss_reported(self, tiny_schema, tiny_log):
        trainer = DataParallelTrainer([small_dlrm(tiny_schema) for _ in range(2)], lr=0.1)
        stats = trainer.step(batch_from_log(tiny_log, np.arange(32)))
        assert np.isfinite(stats.loss)
        assert stats.grad_bytes_reduced > 0

    def test_mismatched_replicas_rejected(self, tiny_schema):
        a = small_dlrm(tiny_schema, seed=1)
        b = small_dlrm(tiny_schema, seed=2)  # different init
        with pytest.raises(ValueError):
            DataParallelTrainer([a, b])

    def test_empty_replicas_rejected(self):
        with pytest.raises(ValueError):
            DataParallelTrainer([])


@pytest.fixture(scope="module")
def fae_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.2, seed=4)
    # drop_last keeps every batch at exactly 64 samples, so 2- and 4-way
    # sharding is exact and the single-device equivalence is bit-tight.
    plan = fae_preprocess(train, config, batch_size=64, drop_last=True)
    return tiny_log.schema, train, test, plan


class TestDistributedFAETrainer:
    def test_trains_and_tracks_syncs(self, fae_setup):
        schema, train, test, plan = fae_setup
        replicas = [small_dlrm(schema, seed=7) for _ in range(2)]
        trainer = DistributedFAETrainer(replicas, plan, lr=0.15)
        result = trainer.train(train, test, epochs=1)
        assert result.sync_events > 0
        assert np.isfinite(result.final_test_accuracy)
        # Per-segment batch accuracy is measured, not left at its 0.0 default.
        assert any(p.train_accuracy > 0 for p in result.history.points[:-1])

    def test_sync_accounting_is_per_run(self, fae_setup):
        """TrainResult.sync_* are this run's counter deltas, not the
        replicator's lifetime tally."""
        schema, train, test, plan = fae_setup
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(2)], plan, lr=0.15
        )
        first = trainer.train(train, test, epochs=1)
        second = trainer.train(train, test, epochs=1)
        assert second.sync_events > 0
        assert first.sync_events + second.sync_events == trainer.replicator.sync_events

    def test_dense_replicas_converge_identically(self, fae_setup):
        schema, train, test, plan = fae_setup
        replicas = [small_dlrm(schema, seed=7) for _ in range(3)]
        trainer = DistributedFAETrainer(replicas, plan, lr=0.15)
        trainer.train(train, test, epochs=1)
        assert trainer.max_dense_divergence() < 1e-5
        assert trainer.max_hot_divergence() == 0.0

    def test_equivalent_to_single_device_fae(self, fae_setup):
        """k-GPU FAE == single-device FAE (same plan, same batch order)."""
        schema, train, test, plan = fae_setup

        single_model = small_dlrm(schema, seed=9)
        FAETrainer(single_model, plan, lr=0.1).train(train, test, epochs=1)

        replicas = [small_dlrm(schema, seed=9) for _ in range(2)]
        trainer = DistributedFAETrainer(replicas, plan, lr=0.1)
        trainer.train(train, test, epochs=1)

        for name in single_model.tables:
            np.testing.assert_allclose(
                replicas[0].tables[name].weight.value,
                single_model.tables[name].weight.value,
                rtol=1e-3,
                atol=1e-4,
            )
        for p, q in zip(single_model.dense_parameters(), replicas[0].dense_parameters()):
            np.testing.assert_allclose(q.value, p.value, rtol=1e-3, atol=1e-4)

    def test_accuracy_matches_baseline_band(self, fae_setup):
        schema, train, test, plan = fae_setup
        replicas = [small_dlrm(schema, seed=11) for _ in range(2)]
        result = DistributedFAETrainer(replicas, plan, lr=0.15).train(train, test, epochs=2)
        majority = max(test.base_rate(), 1 - test.base_rate())
        assert result.final_test_accuracy > majority - 0.02

    def test_rejects_empty_replicas(self, fae_setup):
        _schema, _train, _test, plan = fae_setup
        with pytest.raises(ValueError):
            DistributedFAETrainer([], plan)


class TestShrinkCheckpointResume:
    def test_resume_after_shrink_reproduces_trajectory(self, tmp_path, fae_setup):
        """world-shrink (3 → 2) x checkpoint x resume, end to end.

        A run that loses a rank keeps checkpointing at the shrunk world
        size; resuming one of those checkpoints in a *fresh* 2-replica
        trainer (differently seeded, so the restore has to overwrite
        everything) must reproduce the shrunk run's loss trajectory
        exactly — parameters, cursors, and scheduler state all round-trip.
        """
        schema, train, test, plan = fae_setup
        manager = CheckpointManager(tmp_path, every=1, keep=None)
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(3)],
            plan,
            lr=0.15,
            fault_plan=FaultPlan(seed=7, rank_death=(1, 10)),
        )
        full = trainer.train(train, test, epochs=1, checkpoint=manager)
        assert full.world_shrinks == 1
        assert trainer.world_size == 2

        # Pick the first checkpoint taken after the shrink: its metadata
        # records the world size the segment actually trained at.
        shrunk = None
        for path in sorted(tmp_path.glob("ckpt-*.npz")):
            if load_checkpoint(path).metadata.get("world_size") == 2:
                shrunk = path
                break
        assert shrunk is not None, "no post-shrink checkpoint was captured"

        resumed = DistributedFAETrainer(
            [small_dlrm(schema, seed=777 + i) for i in range(2)], plan, lr=0.15
        ).train(train, test, epochs=1, resume=shrunk)

        full_points = full.history.points
        resumed_points = resumed.history.points
        tail = full_points[len(full_points) - len(resumed_points) :]
        assert len(tail) == len(resumed_points)
        for expected, got in zip(tail, resumed_points):
            assert got.iteration == expected.iteration
            assert got.test_loss == pytest.approx(expected.test_loss, abs=1e-12)
            assert got.train_loss == pytest.approx(expected.train_loss, abs=1e-12)
        assert resumed.final_test_accuracy == pytest.approx(full.final_test_accuracy)
