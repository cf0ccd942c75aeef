"""Unit tests for DLRM, TBSM, and the workload zoo."""

import numpy as np
import pytest

from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.loader import batch_from_log
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.models import (
    DLRM,
    DLRMConfig,
    ModelSpec,
    TBSM,
    TBSMConfig,
    WORKLOADS,
    build_model,
    workload_by_name,
    workload_for_dataset,
)
from repro.nn import BCEWithLogits, SGD


@pytest.fixture(scope="module")
def dlrm_schema():
    return DatasetSchema(
        name="d",
        num_dense=3,
        tables=(
            EmbeddingTableSpec("t0", num_rows=40, dim=4, zipf_exponent=1.0),
            EmbeddingTableSpec("t1", num_rows=30, dim=4, zipf_exponent=1.0, multiplicity=2),
        ),
        num_samples=100,
    )


@pytest.fixture(scope="module")
def tbsm_schema():
    return DatasetSchema(
        name="t",
        num_dense=2,
        tables=(
            EmbeddingTableSpec("user", num_rows=25, dim=4, zipf_exponent=1.0),
            EmbeddingTableSpec("item", num_rows=50, dim=4, zipf_exponent=1.0, multiplicity=5),
            EmbeddingTableSpec("cat", num_rows=10, dim=4, zipf_exponent=1.0, multiplicity=5),
        ),
        num_samples=100,
    )


def make_batch(schema, n=8, seed=0):
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=n, seed=seed))
    return log, batch_from_log(log, np.arange(n))


class TestDLRM:
    def test_forward_shape(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1", seed=0))
        _, batch = make_batch(dlrm_schema)
        assert model.forward(batch).shape == (8,)

    def test_backward_populates_all_grads(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1", seed=0))
        _, batch = make_batch(dlrm_schema)
        logits = model.forward(batch)
        model.backward(np.ones_like(logits, dtype=np.float32))
        for p in model.dense_parameters():
            assert p.grad is not None, p.name
        for table in model.tables.values():
            assert table.weight.densified_grad().any(), table.name

    def test_bottom_width_must_match_dim(self, dlrm_schema):
        with pytest.raises(ValueError):
            DLRM(dlrm_schema, DLRMConfig("3-8-5", "8-1"))

    def test_bottom_input_must_match_dense(self, dlrm_schema):
        with pytest.raises(ValueError):
            DLRM(dlrm_schema, DLRMConfig("4-8-4", "8-1"))

    def test_top_must_end_in_one(self, dlrm_schema):
        with pytest.raises(ValueError):
            DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-2"))

    def test_mixed_dims_rejected(self):
        schema = DatasetSchema(
            "m", 2,
            (
                EmbeddingTableSpec("a", num_rows=4, dim=4),
                EmbeddingTableSpec("b", num_rows=4, dim=8),
            ),
            10,
        )
        with pytest.raises(ValueError):
            DLRM(schema, DLRMConfig("2-4", "4-1"))

    def test_set_get_bag_roundtrip(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1"))
        original = model.get_bag("t0")
        sentinel = object()
        model.set_bag("t0", sentinel)
        assert model.get_bag("t0") is sentinel
        model.set_bag("t0", original)

    def test_set_bag_unknown_table(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1"))
        with pytest.raises(KeyError):
            model.set_bag("nope", None)

    def test_loss_decreases_with_training(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1", seed=1))
        log = SyntheticClickLog(dlrm_schema, SyntheticConfig(num_samples=256, seed=2))
        batch = batch_from_log(log, np.arange(256))
        loss_fn = BCEWithLogits()
        opt = SGD(model.parameters(), lr=0.2)
        first = None
        for _step in range(30):
            loss = loss_fn.forward(model.forward(batch), batch.labels)
            model.backward(loss_fn.backward())
            opt.step()
            first = first or loss
        assert loss < first

    def test_cost_hooks(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1"))
        assert model.mlp_flops_per_sample() > 0
        assert model.lookups_per_sample() == 3
        assert sum(t.nbytes for t in model.tables.values()) == dlrm_schema.total_embedding_bytes

    def test_backward_before_forward(self, dlrm_schema):
        model = DLRM(dlrm_schema, DLRMConfig("3-8-4", "8-1"))
        with pytest.raises(RuntimeError):
            model.backward(np.zeros(4, dtype=np.float32))


class TestTBSM:
    def test_forward_shape(self, tbsm_schema):
        model = TBSM(tbsm_schema, TBSMConfig("2-4", ts_hidden="9-6-5", top_mlp="9-8-1"))
        _, batch = make_batch(tbsm_schema)
        assert model.forward(batch).shape == (8,)

    def test_sequence_and_static_tables_detected(self, tbsm_schema):
        model = TBSM(tbsm_schema, TBSMConfig("2-4"))
        assert set(model.seq_tables) == {"item", "cat"}
        assert set(model.static_tables) == {"user"}
        assert model.seq_len == 5

    def test_backward_populates_all_grads(self, tbsm_schema):
        model = TBSM(tbsm_schema, TBSMConfig("2-4", seed=3))
        _, batch = make_batch(tbsm_schema)
        logits = model.forward(batch)
        model.backward(np.ones_like(logits, dtype=np.float32))
        for p in model.dense_parameters():
            assert p.grad is not None, p.name
        for table in model.tables.values():
            assert table.weight.densified_grad().any(), table.name

    def test_numeric_gradient_end_to_end(self, tbsm_schema):
        model = TBSM(tbsm_schema, TBSMConfig("2-4", seed=5))
        log, batch = make_batch(tbsm_schema, n=6, seed=4)
        loss_fn = BCEWithLogits()

        def loss():
            return loss_fn.forward(model.forward(batch), batch.labels)

        loss()
        model.backward(loss_fn.backward())
        param = model.tables["item"].weight
        grad = param.densified_grad().copy()
        for p in model.parameters():
            p.zero_grad()
        row = int(batch.sparse["item"][0, 0])
        eps = 1e-3
        old = param.value[row, 1]
        param.value[row, 1] = old + eps
        up = loss()
        param.value[row, 1] = old - eps
        down = loss()
        param.value[row, 1] = old
        numeric = (up - down) / (2 * eps)
        assert numeric == pytest.approx(grad[row, 1], rel=0.05, abs=1e-4)

    def test_wrong_sequence_length_rejected(self, tbsm_schema):
        model = TBSM(tbsm_schema, TBSMConfig("2-4"))
        log, batch = make_batch(tbsm_schema)
        bad_sparse = dict(batch.sparse)
        bad_sparse["item"] = bad_sparse["item"][:, :3]
        from repro.data.loader import MiniBatch

        bad = MiniBatch(
            dense=batch.dense, sparse=bad_sparse, labels=batch.labels, indices=batch.indices
        )
        with pytest.raises(ValueError):
            model.forward(bad)

    def test_needs_exactly_one_seq_length(self):
        schema = DatasetSchema(
            "bad", 2,
            (
                EmbeddingTableSpec("a", num_rows=4, dim=4, multiplicity=3),
                EmbeddingTableSpec("b", num_rows=4, dim=4, multiplicity=5),
            ),
            10,
        )
        with pytest.raises(ValueError):
            TBSM(schema, TBSMConfig("2-4"))


class TestZoo:
    def test_table_i_rows(self):
        assert WORKLOADS["RMC1"].model_kind == "tbsm"
        assert WORKLOADS["RMC2"].dataset == "criteo-kaggle"
        assert WORKLOADS["RMC3"].bottom_mlp == "13-512-256-64"

    def test_weak_scaled_batch_sizes(self):
        spec = workload_by_name("rmc2")
        assert spec.batch_size_for(1) == 1024
        assert spec.batch_size_for(4) == 4096
        with pytest.raises(ValueError):
            spec.batch_size_for(0)

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            workload_by_name("RMC9")

    def test_dataset_round_trips_every_workload(self, monkeypatch):
        for spec in WORKLOADS.values():
            assert workload_for_dataset(spec.dataset) is spec
        with pytest.raises(ValueError, match="unknown dataset 'avazu'"):
            workload_for_dataset("avazu")
        # The map is derived from the registry: a new entry is one edit.
        rmc4 = ModelSpec("RMC4", "dlrm", "avazu", "13-64-16", "64-1", 512)
        monkeypatch.setitem(WORKLOADS, "RMC4", rmc4)
        assert workload_for_dataset("avazu") is rmc4

    @pytest.mark.parametrize("name", ["RMC1", "RMC2", "RMC3"])
    def test_build_model_tiny(self, name):
        spec = workload_by_name(name)
        model = build_model(spec, scale="tiny")
        assert model.num_parameters() > 0

    def test_build_model_trains_one_step(self):
        spec = workload_by_name("RMC2")
        from repro.data import dataset_by_name

        schema = dataset_by_name(spec.dataset, "tiny")
        model = build_model(spec, schema=schema)
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=16, seed=0))
        batch = batch_from_log(log, np.arange(16))
        loss_fn = BCEWithLogits()
        loss = loss_fn.forward(model.forward(batch), batch.labels)
        model.backward(loss_fn.backward())
        SGD(model.parameters(), lr=0.1).step()
        assert np.isfinite(loss)
