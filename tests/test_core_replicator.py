"""Unit tests for the Embedding Replicator and hot bags."""

import numpy as np
import pytest

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.replicator import EmbeddingReplicator, HotEmbeddingBag
from repro.nn import EmbeddingTable, Parameter


@pytest.fixture()
def table(rng):
    return EmbeddingTable("t", num_rows=30, dim=4, rng=rng)


@pytest.fixture()
def spec():
    return HotEmbeddingBagSpec(
        table_name="t",
        hot_ids=np.array([2, 5, 9, 17, 28], dtype=np.int64),
        num_rows=30,
        dim=4,
        whole_table=False,
    )


@pytest.fixture()
def replicator(table, spec):
    return EmbeddingReplicator({"t": table}, {"t": spec}, num_replicas=3)


def hot_bag(table, spec, mode="mean"):
    """A bag over a store of its own, holding the table's hot rows."""
    store = Parameter("hot", table.subset(spec.hot_ids))
    return HotEmbeddingBag(spec, store, 0, spec.local_rows(), mode=mode)


class TestHotBag:
    def test_to_local_roundtrip(self, table, spec):
        bag = hot_bag(table, spec)
        local = bag.to_local(np.array([5, 28, 2]))
        np.testing.assert_array_equal(spec.hot_ids[local], [5, 28, 2])

    def test_to_local_rejects_cold_ids(self, table, spec):
        bag = hot_bag(table, spec)
        with pytest.raises(KeyError, match="^'t: ids \\[3\\]"):
            bag.to_local(np.array([3]))
        with pytest.raises(KeyError):
            bag.to_local(np.array([29]))  # > max hot id, in range of table
        for outside in (-1, 30, -31):
            with pytest.raises(KeyError, match=f"^'t: ids \\[{outside}\\]"):
                bag.to_local(np.array([2, outside]))

    def test_contains(self, table, spec):
        """Exactly the hot ids resolve; every other id of the table raises."""
        bag = hot_bag(table, spec)
        for row in range(spec.num_rows):
            if row in spec.hot_ids:
                assert spec.hot_ids[bag.to_local(np.array([row]))[0]] == row
            else:
                with pytest.raises(KeyError):
                    bag.to_local(np.array([row]))

    def test_values_are_copied(self, table, spec):
        replicator = EmbeddingReplicator({"t": table}, {"t": spec}, num_replicas=2)
        before = table.weight.value.copy()
        replicator.stores[0].value[:] = 0
        np.testing.assert_array_equal(table.weight.value, before)
        np.testing.assert_array_equal(replicator.stores[1].value, before[spec.hot_ids])

    def test_shape_validated(self, spec):
        short = Parameter("hot", np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            HotEmbeddingBag(spec, short, 0, spec.local_rows())
        store = Parameter("hot", np.zeros((6, 4), dtype=np.float32))
        with pytest.raises(ValueError):  # the row range runs past the store
            HotEmbeddingBag(spec, store, 2, spec.local_rows())


class TestHotEmbeddingBag:
    def test_forward_matches_master(self, table, spec):
        bag = hot_bag(table, spec, mode="mean")
        from repro.nn import EmbeddingBag

        master_bag = EmbeddingBag(table, mode="mean")
        ids = np.array([[2, 5], [9, 9]])
        np.testing.assert_allclose(bag.forward(ids), master_bag.forward(ids), rtol=1e-6)

    def test_backward_records_local_grads(self, table, spec):
        bag = hot_bag(table, spec, mode="sum")
        bag.forward(np.array([[2, 5]]))
        bag.backward(np.ones((1, 4), dtype=np.float32))
        grads = bag.weight.densified_grad()
        np.testing.assert_allclose(grads[0], 1.0)  # local row 0 == global 2
        np.testing.assert_allclose(grads[1], 1.0)  # local row 1 == global 5
        np.testing.assert_allclose(grads[2], 0.0)

    def test_sequence_interface(self, table, spec):
        bag = hot_bag(table, spec)
        out = bag.sequence_forward(np.array([[2, 5, 9]]))
        assert out.shape == (1, 3, 4)
        bag.sequence_backward(np.ones((1, 3, 4), dtype=np.float32))
        assert bag.weight.store.sparse_grads

    def test_cold_id_leak_detected(self, table, spec):
        bag = hot_bag(table, spec)
        with pytest.raises(KeyError):
            bag.forward(np.array([[2, 3]]))

    def test_invalid_mode(self, table, spec):
        with pytest.raises(ValueError):
            hot_bag(table, spec, mode="max")


class TestEmbeddingReplicator:
    def test_replicas_start_identical(self, replicator):
        assert replicator.max_replica_divergence() == 0.0

    def test_replica_matches_master_rows(self, replicator, table, spec):
        bag = replicator.replicas[1]["t"]
        np.testing.assert_allclose(bag.weight.value, table.weight.value[spec.hot_ids])

    def test_all_reduce_keeps_replicas_consistent(self, replicator):
        # Each replica accumulates a different sparse grad (as if each GPU
        # saw a different shard); after all-reduce + identical SGD steps
        # the replicas must agree bit-for-bit.
        for r, replica in enumerate(replicator.replicas):
            replica["t"].weight.accumulate_sparse(
                np.array([r]), np.full((1, 4), float(r + 1), dtype=np.float32)
            )
        replicator.all_reduce_gradients()
        from repro.nn import SGD

        for replica in replicator.replicas:
            SGD([replica["t"].weight], lr=0.1).step()
        assert replicator.max_replica_divergence() == 0.0

    def test_sync_to_master_writes_back(self, replicator, table, spec):
        replicator.replicas[0]["t"].weight.value[:] = 7.0
        moved = replicator.sync_to_master()
        assert moved == spec.num_hot * 4 * 4
        np.testing.assert_allclose(table.weight.value[spec.hot_ids], 7.0)

    def test_sync_to_master_leaves_cold_rows(self, replicator, table, spec):
        before = table.weight.value.copy()
        replicator.replicas[0]["t"].weight.value[:] = 7.0
        replicator.sync_to_master()
        cold = np.setdiff1d(np.arange(30), spec.hot_ids)
        np.testing.assert_allclose(table.weight.value[cold], before[cold])

    def test_sync_from_master_refreshes_all_replicas(self, replicator, table, spec):
        table.weight.value[spec.hot_ids] = 3.0
        replicator.sync_from_master()
        for replica in replicator.replicas:
            np.testing.assert_allclose(replica["t"].weight.value, 3.0)

    def test_sync_events_counted(self, replicator):
        replicator.sync_to_master()
        replicator.sync_from_master()
        assert replicator.sync_events == 2

    def test_total_hot_bytes(self, replicator, spec):
        assert replicator.total_hot_bytes() == spec.num_hot * 4 * 4

    def test_bags_for_replica(self, replicator):
        bags = replicator.bags_for_replica(2)
        assert set(bags) == {"t"}
        assert isinstance(bags["t"], HotEmbeddingBag)
        assert bags["t"].weight.store is replicator.stores[2]
        assert replicator.bags_for_replica(2)["t"] is bags["t"]

    def test_missing_master_table_rejected(self, table, spec):
        with pytest.raises(KeyError):
            EmbeddingReplicator({}, {"t": spec})

    def test_bad_replica_count(self, table, spec):
        with pytest.raises(ValueError):
            EmbeddingReplicator({"t": table}, {"t": spec}, num_replicas=0)

    def test_roundtrip_preserves_training_semantics(self, table, spec):
        """cold -> hot -> cold roundtrip equals direct master updates."""
        replicator = EmbeddingReplicator({"t": table}, {"t": spec}, num_replicas=2)
        reference = table.weight.value.copy()

        replicator.sync_from_master()
        delta = np.full((spec.num_hot, 4), 0.25, dtype=np.float32)
        for replica in replicator.replicas:
            replica["t"].weight.value += delta
        replicator.sync_to_master()

        expected = reference.copy()
        expected[spec.hot_ids] += 0.25
        np.testing.assert_allclose(table.weight.value, expected, rtol=1e-6)
