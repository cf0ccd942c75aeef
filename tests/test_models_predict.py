"""``RecModel.predict``: DLRM's factored ranking path against ``forward``.

``DLRM.predict`` scores a batch whose dense rows all repeat row 0 and in
which some table varies (one context against many candidates) by computing
the shared context once: the bottom MLP on row 0, the pairs between two
constant features and their part of the top MLP's first layer.  The rest
runs once per distinct row of varying ids, in sorted key order, so a
repeated candidate gets its first copy's logit bit for bit.  Its logits
are ``forward``'s up to float32 rounding (the same products, summed in
another order); every other batch is ``forward``'s bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.loader import MiniBatch, batch_from_log
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.models import TBSM, TBSMConfig
from repro.models.dlrm import DLRM, DLRMConfig
from repro.nn import BCEWithLogits
from repro.nn.activations import ReLU, sigmoid
from repro.nn.linear import Linear
from repro.serve import InferenceEngine

NUM_DENSE, DIM = 3, 4
# The bound on |predict - forward|: about 84 float32 ulps (eps = 1.19e-7) of
# the logit, and 1e-6 absolute for logits near 0 (the terms summed are O(1)).
BOUND = dict(rtol=1e-5, atol=1e-6)


def make_schema(multiplicities, num_rows=(40, 9, 23, 17, 31)) -> DatasetSchema:
    return DatasetSchema(
        "predict",
        NUM_DENSE,
        tuple(
            EmbeddingTableSpec(f"t{t}", num_rows=num_rows[t], dim=DIM, zipf_exponent=0.8,
                               multiplicity=multiplicity)
            for t, multiplicity in enumerate(multiplicities)
        ),
        64,
    )


def make_model(schema: DatasetSchema, pooling="mean", seed=5, top="6-1") -> DLRM:
    """A DLRM whose biases are not zero, as a trained model's are not."""
    model = DLRM(schema, DLRMConfig(f"{NUM_DENSE}-8-{DIM}", top, pooling, seed))
    rng = np.random.default_rng(seed)
    for layer in [*model.bottom_mlp.layers, *model.top_mlp.layers]:
        if isinstance(layer, Linear):
            layer.bias.value[...] = rng.normal(0.0, 0.1, size=layer.bias.value.shape)
    return model


def make_request(schema, varying, batch_size, seed, views=True) -> MiniBatch:
    """One context against ``batch_size`` rows in which the tables
    ``varying`` (positions) take ids of their own, the rest row 0's.
    ``views`` builds it as a ranking engine does (zero-stride broadcasts),
    otherwise as tiled copies."""
    rng = np.random.default_rng(seed)

    def repeat(row: np.ndarray) -> np.ndarray:
        if views:
            return np.broadcast_to(row, (batch_size, *row.shape))
        return np.tile(row, (batch_size,) + (1,) * row.ndim)

    sparse = {}
    for t, spec in enumerate(schema.tables):
        if t in varying:
            ids = rng.integers(0, spec.num_rows, size=(batch_size, spec.multiplicity))
            if batch_size > 1:
                ids[1] = (ids[0] + 1) % spec.num_rows  # it really varies
            sparse[spec.name] = ids
        else:
            sparse[spec.name] = repeat(rng.integers(0, spec.num_rows, size=spec.multiplicity))
    return MiniBatch(
        dense=repeat(rng.normal(size=NUM_DENSE).astype(np.float32)),
        sparse=sparse,
        labels=np.zeros(batch_size, dtype=np.float32),
        indices=np.arange(batch_size, dtype=np.int64),
    )


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    bits = f"u{actual.dtype.itemsize}"
    np.testing.assert_array_equal(actual.view(bits), expected.view(bits))


def check_factored(model: DLRM, batch: MiniBatch) -> np.ndarray:
    """predict took the factored path and agrees with forward within BOUND."""
    model._factored = None
    logits = model.predict(batch)
    assert model._factored is not None
    want = model.forward(batch)
    assert logits.dtype == want.dtype == np.float32
    np.testing.assert_allclose(logits, want, **BOUND)
    return logits


class TestAgainstForward:
    @settings(max_examples=60, deadline=None)
    @given(
        multiplicities=st.lists(st.sampled_from([1, 1, 2, 3]), min_size=1, max_size=5),
        pooling=st.sampled_from(["mean", "sum"]),
        data=st.data(),
        batch_size=st.integers(2, 24),
        seed=st.integers(0, 2**16),
        views=st.booleans(),
    )
    def test_any_varying_set_is_within_the_bound(
        self, multiplicities, pooling, data, batch_size, seed, views
    ):
        schema = make_schema(multiplicities)
        varying = data.draw(st.sets(st.integers(0, len(multiplicities) - 1), min_size=1))
        model = make_model(schema, pooling, seed % 11)
        check_factored(model, make_request(schema, varying, batch_size, seed, views))

    @pytest.mark.parametrize("varying", [{0}, {2}, {4}, {0, 4}, {1, 3}], ids=str)
    @pytest.mark.parametrize("pooling", ["mean", "sum"])
    def test_where_the_varying_tables_sit(self, varying, pooling):
        # Tables 1 and 3 pool three and two ids a row.
        schema = make_schema([1, 3, 1, 2, 1])
        model = make_model(schema, pooling, seed=3)
        check_factored(model, make_request(schema, varying, batch_size=32, seed=9))

    @pytest.mark.parametrize("top", ["1", "6-1", "7-5-1"])
    def test_any_top_mlp_depth(self, top):
        # With one layer the factored first layer is the logit itself.
        schema = make_schema([2, 1, 1])
        check_factored(make_model(schema, top=top), make_request(schema, {1}, 12, seed=4))

    def test_a_row_does_not_depend_on_which_candidate_is_row_0(self):
        schema = make_schema([1, 2, 1])
        model = make_model(schema, seed=4)
        batch = make_request(schema, {1}, batch_size=16, seed=2)
        swapped = np.array([1, 0, *range(2, 16)])
        batch_swapped = MiniBatch(
            dense=batch.dense,
            sparse={name: ids[swapped] for name, ids in batch.sparse.items()},
            labels=batch.labels,
            indices=batch.indices,
        )
        assert_bit_equal(model.predict(batch_swapped), model.predict(batch)[swapped])

    def test_a_ranking_stream_returns_forwards_top_k(self):
        schema = make_schema([1, 2, 1, 1])
        model = make_model(schema, seed=11)
        engine = InferenceEngine(model)
        rng = np.random.default_rng(7)
        top_k, candidates = 10, 64
        for _request in range(40):
            dense = rng.normal(size=NUM_DENSE).astype(np.float32)
            context = {
                spec.name: rng.integers(0, spec.num_rows, size=spec.multiplicity)
                for spec in schema.tables
            }
            ids = rng.integers(0, 40, size=candidates)
            ranked = engine.rank_candidates(dense, context, "t0", ids, top_k=top_k)
            sparse = {name: np.tile(row, (candidates, 1)) for name, row in context.items()}
            sparse["t0"] = ids[:, None]
            batch = MiniBatch(
                dense=np.tile(dense, (candidates, 1)),
                sparse=sparse,
                labels=np.zeros(candidates, dtype=np.float32),
                indices=np.arange(candidates, dtype=np.int64),
            )
            scores = sigmoid(model.forward(batch).astype(np.float64))
            np.testing.assert_array_equal(ranked.item_ids, ids[np.argsort(scores)[::-1][:top_k]])


def select_rows(batch: MiniBatch, rows: np.ndarray) -> MiniBatch:
    """``batch``'s rows ``rows``, in that order (copies)."""
    return MiniBatch(
        dense=batch.dense[rows],
        sparse={name: ids[rows] for name, ids in batch.sparse.items()},
        labels=batch.labels[rows],
        indices=np.arange(len(rows), dtype=np.int64),
    )


class TestDistinctRows:
    """Each distinct row of varying ids is scored once."""

    @settings(max_examples=60, deadline=None)
    @given(
        multiplicities=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        pooling=st.sampled_from(["mean", "sum"]),
        copies=st.lists(st.integers(1, 3), min_size=2, max_size=10),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_repeated_rows_share_their_logit(self, multiplicities, pooling, copies, data, seed):
        schema = make_schema(multiplicities)
        varying = data.draw(
            st.sets(st.integers(0, len(multiplicities) - 1), min_size=1, max_size=2)
        )
        model = make_model(schema, pooling, seed % 11)
        # Every row of `distinct` appears 1-3 times, in a drawn order.
        distinct = make_request(schema, varying, len(copies), seed)
        rows = np.repeat(np.arange(len(copies)), copies)
        rows = rows[data.draw(st.permutations(range(len(rows))))]
        batch = select_rows(distinct, rows)
        logits = check_factored(model, batch)
        # A copy's logit is its row's, bit for bit, as the distinct batch scores it.
        assert_bit_equal(logits, model.predict(distinct)[rows])
        # Where a row sits does not change its bits.
        order = np.array(data.draw(st.permutations(range(len(rows)))))
        assert_bit_equal(model.predict(select_rows(batch, order)), logits[order])

    def test_a_candidate_listed_twice_fills_two_slots(self):
        schema = make_schema([1, 2, 1])
        model = make_model(schema, seed=8)
        engine = InferenceEngine(model)
        rng = np.random.default_rng(3)
        dense = rng.normal(size=NUM_DENSE).astype(np.float32)
        context = {
            spec.name: rng.integers(0, spec.num_rows, size=spec.multiplicity)
            for spec in schema.tables
        }
        ids = np.arange(schema.table("t0").num_rows)
        best = engine.rank_candidates(dense, context, "t0", ids, top_k=1)
        twice = np.concatenate([ids, best.item_ids])
        ranked = engine.rank_candidates(dense, context, "t0", twice, top_k=3)
        assert ranked.item_ids.tolist()[:2] == [best.item_ids[0]] * 2
        assert ranked.scores[0] == ranked.scores[1] == best.scores[0]
        assert ranked.item_ids[2] != best.item_ids[0] and ranked.scores[2] < ranked.scores[0]


class TestForwardsBitForBit:
    """Batches that are not one context against many take forward's path."""

    def test_distinct_dense_rows_are_forwards(self):
        schema = make_schema([1, 2])
        model = make_model(schema)
        batch = make_request(schema, {0}, batch_size=12, seed=1, views=False)
        batch.dense[5, 1] += 1.0
        assert_bit_equal(model.predict(batch), model.forward(batch))
        assert model._factored is None

    def test_every_table_constant(self):
        schema = make_schema([1, 2, 1])
        model = make_model(schema)
        batch = make_request(schema, set(), batch_size=12, seed=1)
        assert_bit_equal(model.predict(batch), model.forward(batch))
        assert model._factored is None

    @pytest.mark.parametrize("varying", [set(), {0}])
    def test_one_row(self, varying):
        schema = make_schema([1, 2])
        model = make_model(schema)
        batch = make_request(schema, varying, batch_size=1, seed=3)
        assert_bit_equal(model.predict(batch), model.forward(batch))
        assert model._factored is None

    def test_signed_zeros_differ_by_bytes(self):
        schema = make_schema([1, 2])
        model = make_model(schema)
        batch = make_request(schema, {0}, batch_size=2, seed=4, views=False)
        batch.dense[:, 0] = [-0.0, 0.0]
        assert_bit_equal(model.predict(batch), model.forward(batch))
        assert model._factored is None


class TestDetection:
    def test_a_broadcast_view_is_one_context(self):
        # A zero row stride settles it unread; a tiled copy is compared, to the same bits.
        schema = make_schema([1, 2, 1])
        model = make_model(schema)
        views = make_request(schema, {1}, batch_size=20, seed=6)
        copies = make_request(schema, {1}, batch_size=20, seed=6, views=False)
        assert views.dense.strides[0] == 0 and copies.dense.strides[0] != 0
        assert_bit_equal(check_factored(model, copies), model.predict(views))

    def test_nan_rows_repeat_by_bytes(self):
        schema = make_schema([1, 2])
        model = make_model(schema)
        batch = make_request(schema, {1}, batch_size=8, seed=5, views=False)
        batch.dense[:, 1] = np.nan
        logits = check_factored(model, batch)
        assert np.isfinite(logits).all()  # the ReLU maps NaN to 0, on both paths

    @pytest.mark.parametrize("table", ["t0", "t1"])
    def test_an_out_of_range_id_names_its_table(self, table):
        schema = make_schema([1, 2, 1])
        model = make_model(schema)
        batch = make_request(schema, {0}, batch_size=6, seed=8, views=False)
        batch.sparse[table][:, -1] = schema.table(table).num_rows
        with pytest.raises(IndexError) as want:
            model.forward(batch)
        assert table in str(want.value)
        with pytest.raises(IndexError) as got:
            model.predict(batch)
        assert str(got.value) == str(want.value)


class TestState:
    def test_predict_between_forward_and_backward_leaves_the_step_alone(self):
        schema = make_schema([1, 2, 1])
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=16, seed=2))
        train = batch_from_log(log, np.arange(16))
        request = make_request(schema, {0, 2}, batch_size=10, seed=3)

        def gradients(between) -> list[np.ndarray]:
            model = make_model(schema, seed=6)
            loss = BCEWithLogits()
            loss.forward(model.forward(train), train.labels)
            between(model)
            model.backward(loss.backward())
            return [param.densified_grad() for param in model.parameters()]

        def saved(model) -> list:
            """What forward kept for backward."""
            layers = [*model.bottom_mlp.layers, *model.top_mlp.layers]
            return [
                *(layer._input for layer in layers if isinstance(layer, Linear)),
                *(layer._mask for layer in layers if isinstance(layer, ReLU)),
                model.interaction._stacked,
                model._lookup._pending,
            ]

        def predict_keeps_state(model):
            kept = saved(model)
            assert all(state is not None for state in kept)
            model.predict(request)
            assert model._factored is not None
            assert all(now is was for now, was in zip(saved(model), kept))

        want = gradients(lambda model: None)
        got = gradients(predict_keeps_state)
        assert len(got) == len(want)
        for grad, expected in zip(got, want):
            assert_bit_equal(grad, expected)

    def test_tbsm_predict_is_forward(self):
        schema = DatasetSchema(
            "t",
            2,
            (
                EmbeddingTableSpec("user", num_rows=25, dim=4, zipf_exponent=1.0),
                EmbeddingTableSpec("item", num_rows=50, dim=4, zipf_exponent=1.0, multiplicity=5),
            ),
            100,
        )
        model = TBSM(schema, TBSMConfig("2-4", seed=1))
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=12, seed=1))
        batch = batch_from_log(log, np.arange(12))
        assert_bit_equal(model.predict(batch), model.forward(batch))
