"""Tests for the distributed substrate: collectives, batch sharding, the
dense gradient bucket, and the distributed FAE trainer's equivalence to
single-device FAE."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.core.hotcache import CacheDelta
from repro.data import train_test_split
from repro.data.loader import batch_from_log
from repro.dist import (
    DistributedFAETrainer,
    ProcessGroup,
    ReduceOp,
    all_reduce_dense_grads,
    shard_batch,
)
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn import SGD
from repro.nn import parameter as parameter_module
from repro.nn.parameter import Parameter, coalesce
from repro.obs import get_registry
from repro.resilience import CheckpointManager, FaultPlan, load_checkpoint
from repro.train import FAETrainer


def ring_all_reduce_ref(per_rank, op):
    """`ProcessGroup._all_reduce` as it was through PR 15: every rank's
    float64 working copy split in k segments, k-1 reduce-scatter steps of
    copied payloads, an all-gather, one concatenate per rank."""
    k = len(per_rank)
    if k == 1:
        return [per_rank[0].copy()]
    flat = [np.array(a, dtype=np.float64, copy=True).ravel() for a in per_rank]
    chunks = [np.array_split(f, k) for f in flat]
    for step in range(k - 1):
        transfers = []
        for rank in range(k):
            send_seg = (rank - step) % k
            transfers.append(((rank + 1) % k, send_seg, chunks[rank][send_seg].copy()))
        for dest, seg, payload in transfers:
            if op is ReduceOp.MAX:
                np.maximum(chunks[dest][seg], payload, out=chunks[dest][seg])
            else:
                chunks[dest][seg] += payload
    owner_of = {(rank + 1) % k: rank for rank in range(k)}
    for seg in range(k):
        reduced = chunks[owner_of[seg]][seg]
        for rank in range(k):
            chunks[rank][seg] = reduced.copy()
    results = []
    for rank in range(k):
        merged = np.concatenate(chunks[rank]).reshape(per_rank[0].shape)
        if op is ReduceOp.MEAN:
            merged = merged / k
        results.append(merged.astype(per_rank[0].dtype))
    return results


def per_tensor_exchange_ref(group, rank_params):
    """The per-parameter all-reduce loop both trainers ran through PR 15."""
    for column in zip(*rank_params):
        if any(p.grad is not None for p in column):
            buffers = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in column]
            for p, g in zip(column, group.all_reduce(buffers, ReduceOp.SUM)):
                p.grad = g


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rank_parameters(k, seed, missing=()):
    """k ranks x four parameters (a matrix, two vectors, an embedding table
    that only ever has sparse gradients); ``missing`` lists ``(rank, index)``
    pairs left without a dense gradient."""
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (7,), (40, 2), (1,)]
    ranks = []
    for rank in range(k):
        params = [Parameter(f"p{i}", np.zeros(shape, dtype=np.float32)) for i, shape in enumerate(shapes)]
        for index, param in enumerate(params):
            if index != 2 and (rank, index) not in missing:
                scale = 10.0 ** rng.integers(-6, 6)
                param.accumulate_dense((scale * rng.standard_normal(param.shape)).astype(np.float32))
        ranks.append(params)
    return ranks


class TestProcessGroup:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("op", list(ReduceOp))
    def test_all_reduce_bit_equal_to_the_literal_ring(self, k, op):
        rng = np.random.default_rng(k)
        for shape in [(0,), (1,), (3,), (4, 5), (37,), (6, 2, 3)]:
            for dtype in (np.float32, np.float64):
                buffers = [
                    (10.0 ** rng.integers(-8, 8) * rng.standard_normal(shape)).astype(dtype)
                    for _ in range(k)
                ]
                before = [b.copy() for b in buffers]
                results = ProcessGroup(world_size=k).all_reduce(buffers, op)
                for result, expected in zip(results, ring_all_reduce_ref(buffers, op)):
                    assert bit_equal(result, expected)
                for buffer, kept in zip(buffers, before):
                    assert bit_equal(buffer, kept)  # inputs are read, never written
                for other in results[1:]:
                    assert not np.shares_memory(other, results[0])

    def test_all_reduce_of_a_strided_view(self, rng):
        wide = [rng.normal(size=(6, 8)).astype(np.float32) for _ in range(3)]
        views = [w[:, ::2] for w in wide]
        results = ProcessGroup(world_size=3).all_reduce(views)
        for result, expected in zip(results, ring_all_reduce_ref(views, ReduceOp.SUM)):
            assert bit_equal(result, expected)

    def test_barrier_counts_in_the_attribute_and_the_registry(self):
        group = ProcessGroup(world_size=2)
        counter = get_registry().counter("dist.collective.calls")
        before = counter.value
        group.barrier()
        assert group.collective_calls == 1 and counter.value == before + 1
        assert group.bytes_communicated == 0.0

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


class TestDenseBucket:
    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_the_per_tensor_exchange_bit_for_bit(self, k):
        missing = {(1, 1)} if k == 2 else set()
        bucketed = rank_parameters(k, seed=5, missing=missing)
        per_tensor = rank_parameters(k, seed=5, missing=missing)
        group = ProcessGroup(world_size=k)
        nbytes = all_reduce_dense_grads(group, bucketed)
        per_tensor_exchange_ref(ProcessGroup(world_size=k), per_tensor)
        assert nbytes == (15 + 7 + 1) * 4
        for rank_a, rank_b in zip(bucketed, per_tensor):
            for p, q in zip(rank_a, rank_b):
                if q.grad is None:
                    assert p.grad is None  # the table: no rank had a dense gradient
                else:
                    assert bit_equal(p.grad, q.grad)

    @pytest.mark.parametrize("k", [3, 4])
    def test_replicas_bit_equal_and_a_missing_gradient_reduces_as_zeros(self, k):
        missing = {(1, 0), (k - 1, 3)}
        ranks = rank_parameters(k, seed=9, missing=missing)
        expected = [
            sum(
                (r[i].grad if r[i].grad is not None else np.zeros_like(r[i].value)).astype(np.float64)
                for r in ranks
            )
            for i in (0, 1, 3)
        ]
        group = ProcessGroup(world_size=k)
        all_reduce_dense_grads(group, ranks)
        assert group.collective_calls == 1
        assert group.bytes_communicated == pytest.approx((15 + 7 + 1) * 4 * 2 * (k - 1) / k)
        for rank in ranks[1:]:
            for p, q in zip(ranks[0], rank):
                assert (p.grad is None and q.grad is None) or bit_equal(p.grad, q.grad)
        for i, total in zip((0, 1, 3), expected):
            np.testing.assert_allclose(ranks[0][i].grad, total, rtol=1e-6)
        assert ranks[0][2].grad is None

    def test_no_dense_gradient_anywhere_runs_no_collective(self):
        ranks = [[Parameter("t", np.zeros((4, 2), dtype=np.float32))] for _ in range(2)]
        group = ProcessGroup(world_size=2)
        assert all_reduce_dense_grads(group, ranks) == 0
        assert group.collective_calls == 0 and ranks[0][0].grad is None

    def test_grad_views_survive_the_in_place_step(self):
        """`SGD.step` scales each gradient where it lies: in the bucket, that
        must stay inside the parameter's own slice."""
        ranks = rank_parameters(2, seed=3)
        all_reduce_dense_grads(ProcessGroup(world_size=2), ranks)
        params = [p for p in ranks[0] if p.grad is not None]
        bucket = params[0].grad.base if params[0].grad.base is not None else params[0].grad
        for p in params:
            assert np.shares_memory(p.grad, bucket) and p.grad.shape == p.shape
        for p, q in zip(params, params[1:]):
            assert not np.shares_memory(p.grad, q.grad)
        for p in ranks[1]:
            assert p.grad is None or not np.shares_memory(p.grad, bucket)  # a bucket per rank
        reduced = [p.grad.copy() for p in params]
        # Step the middle parameter alone: its neighbours keep their gradients.
        SGD([params[1]], lr=0.5).step()
        assert bit_equal(params[0].grad, reduced[0]) and bit_equal(params[2].grad, reduced[2])
        np.testing.assert_array_equal(params[1].value, -(np.float32(0.5) * reduced[1]))
        SGD([params[0], params[2]], lr=0.25).step()
        np.testing.assert_array_equal(params[0].value, -(np.float32(0.25) * reduced[0]))
        np.testing.assert_array_equal(params[2].value, -(np.float32(0.25) * reduced[2]))


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

    def test_one_collective_per_step(self, fae_setup):
        """A step's gradients cross the group once, so the fault plan's
        collective clock (`death=RANK@CALL`) counts steps."""
        schema, train, test, plan = fae_setup
        fault_plan = FaultPlan(seed=1)  # armed, injects nothing
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(2)], plan, lr=0.15, fault_plan=fault_plan
        )
        calls = get_registry().counter("dist.collective.calls")
        before = calls.value
        result = trainer.train(train, test, epochs=1)
        steps = result.history.points[-1].iteration
        assert steps == len(plan.dataset.hot_batches) + len(plan.dataset.cold_batches)
        assert fault_plan.state_dict()["collective_calls"] == steps
        assert trainer.group.collective_calls == steps
        assert calls.value - before == steps

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


class TestOneHotStorePerReplica:
    """Each replica's hot rows are one store: a hot step records, exchanges
    and coalesces once per replica, and a turnover rebuilds the stores."""

    @pytest.mark.parametrize("world_size", [1, 2])
    def test_hot_step_records_and_coalesces_once_per_store(
        self, fae_setup, world_size, monkeypatch
    ):
        schema, train, _test, plan = fae_setup
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(world_size)], plan, lr=0.15
        )
        stores = trainer.replicator.stores
        assert len(stores) == world_size
        trainer._install("hot")
        batch = batch_from_log(train, plan.dataset.hot_batches[0], hot=True)
        trainer._forward_backward(batch)

        masters = trainer.master_tables
        assert all(t.weight.store.sparse_grads == [] for t in masters.values())
        for model, store in zip(trainer.replicas, stores):
            bags = [model.get_bag(name) for name in masters]
            assert all(bag.weight.store is store for bag in bags)
            assert all(bag.weight.sparse_grads == [] for bag in bags)
            assert len(store.sparse_grads) == 1  # every table, one record
            assert [run.store for run in model._lookup._runs] == [store]

        coalesced = []

        def spy(records, num_rows=None):
            coalesced.append(len(records))
            return coalesce(records, num_rows)

        monkeypatch.setattr(parameter_module, "coalesce", spy)
        trainer._all_reduce(True)
        # Every store holds every rank's record, shared, not copied.
        assert all(
            len(store.sparse_grads) == world_size
            and all(a is b for a, b in zip(store.sparse_grads, stores[0].sparse_grads))
            for store in stores
        )
        for optimizer in trainer._optimizers(True):
            optimizer.step()
        assert coalesced == [world_size] * world_size
        assert all(store.sparse_grads == [] for store in stores)
        assert trainer.max_hot_divergence() == 0.0

        # A second hot entry installs the same bags: the lookup keeps its plan.
        runs = [model._lookup._runs for model in trainer.replicas]
        trainer._install("cold")
        trainer._install("hot")
        trainer._forward_backward(batch)
        assert all(model._lookup._runs is run for model, run in zip(trainer.replicas, runs))

    @pytest.mark.parametrize("world_size", [1, 2])
    def test_apply_delta_rebuilds_every_store_from_the_masters(self, fae_setup, world_size):
        schema, _train, _test, plan = fae_setup
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(world_size)], plan, lr=0.15
        )
        replicator = trainer.replicator
        masters = trainer.master_tables
        name = next(n for n, spec in plan.bags.items() if not spec.whole_table)
        spec = plan.bags[name]
        cold = np.setdiff1d(np.arange(spec.num_rows), spec.hot_ids)
        promoted, demoted = cold[:3], spec.hot_ids[:1]
        hot_ids = np.union1d(np.setdiff1d(spec.hot_ids, demoted), promoted)
        new_specs = {**plan.bags, name: replace(spec, hot_ids=hot_ids)}
        delta = CacheDelta(promoted={name: promoted}, demoted={name: demoted})
        for table in masters.values():
            table.weight.value += 0.5  # the masters moved on since the build
        kept = {n: replicator.local_rows[n] for n in plan.bags if n != name}

        moved = replicator.apply_delta(new_specs, delta)

        assert moved == promoted.size * spec.dim * 4 * world_size
        expected = np.concatenate(
            [masters[n].weight.value[s.hot_ids] for n, s in new_specs.items()]
        )
        assert len(replicator.stores) == world_size
        for store, bags in zip(replicator.stores, replicator.replicas):
            assert bit_equal(store.value, expected)
            for n, s in new_specs.items():
                assert bit_equal(bags[n].weight.value, masters[n].weight.value[s.hot_ids])
                assert bags[n].local_rows is replicator.local_rows[n]
            assert bags[name].to_local(promoted).tolist() == np.searchsorted(
                hot_ids, promoted
            ).tolist()
            with pytest.raises(KeyError, match=name):
                bags[name].to_local(demoted)
        assert all(replicator.local_rows[n] is rows for n, rows in kept.items())


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
            # Call 10 is the 10th step's exchange: a step is one collective.
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
