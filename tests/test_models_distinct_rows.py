"""DLRM on batches that repeat a dense row: the every-row oracle.

The oracle is the every-row forward and backward (the bottom MLP over every
row of the batch, then the same lookup, interaction and top MLP), kept here
as a test oracle.  ``DLRM.forward`` and ``backward`` are that path, bit for
bit, whatever the rows; ``DLRM.predict`` scores a batch whose dense rows
all repeat row 0 (a ranking request) by a factored path that agrees with
the oracle to float32 rounding, and any other batch by ``forward``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.loader import MiniBatch
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.models.dlrm import DLRM, DLRMConfig, _distinct_rows
from repro.nn import BCEWithLogits
from repro.nn.activations import sigmoid
from repro.nn.gradcheck import check_gradients
from repro.serve import InferenceEngine

SCHEMA = DatasetSchema(
    "distinct",
    3,
    (
        EmbeddingTableSpec("t0", num_rows=40, dim=4, zipf_exponent=0.8),
        EmbeddingTableSpec("t1", num_rows=9, dim=4, zipf_exponent=0.8, multiplicity=2),
    ),
    64,
)


def make_model(seed: int = 5) -> DLRM:
    return DLRM(SCHEMA, DLRMConfig("3-16-8-4", "6-1", seed=seed))


def make_batch(dense: np.ndarray, rng: np.random.Generator) -> MiniBatch:
    count = len(dense)
    return MiniBatch(
        dense=dense,
        sparse={
            spec.name: rng.integers(0, spec.num_rows, size=(count, spec.multiplicity))
            for spec in SCHEMA.tables
        },
        labels=rng.integers(0, 2, size=count).astype(np.float32),
        indices=np.arange(count, dtype=np.int64),
    )


def forward_every_row(model: DLRM, batch: MiniBatch) -> np.ndarray:
    """The oracle forward: the bottom MLP on every row of the batch."""
    names = model.schema.table_names
    dense_vec = model.bottom_mlp.forward(batch.dense)
    stacked = np.empty((len(dense_vec), 1 + len(names), model.embedding_dim), dtype=np.float32)
    stacked[:, 0] = dense_vec
    model._lookup.forward(
        [model.get_bag(name) for name in names],
        [batch.sparse[name] for name in names],
        out=stacked[:, 1:],
    )
    return model.top_mlp.forward(model.interaction.forward(stacked))[:, 0]


def backward_every_row(model: DLRM, grad_logits: np.ndarray) -> None:
    grad_top = model.top_mlp.backward(grad_logits[:, None].astype(np.float32, copy=False))
    grad_dense, grad_embeddings = model.interaction.backward(grad_top)
    model._lookup.backward(grad_embeddings.transpose(1, 0, 2))
    model.bottom_mlp.backward(grad_dense, input_grad=False)


def step(model: DLRM, batch: MiniBatch, oracle: bool):
    """One forward + backward; returns the logits and every parameter's gradient."""
    loss = BCEWithLogits()
    for param in model.parameters():
        param.zero_grad()
    logits = (forward_every_row if oracle else DLRM.forward)(model, batch)
    loss.forward(logits, batch.labels)
    (backward_every_row if oracle else DLRM.backward)(model, loss.backward())
    grads = [param.densified_grad() for param in model.parameters()]
    for param in model.parameters():
        param.zero_grad()
    return logits, grads


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    bits = f"u{actual.dtype.itemsize}"
    np.testing.assert_array_equal(actual.view(bits), expected.view(bits))


# A small value set, so rows repeat often by value (-0.0 and 0.0 differ by bytes).
VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 3.0])


class TestAgainstEveryRowOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(VALUES, VALUES, VALUES),
            min_size=1,
            max_size=24,
            unique_by=lambda row: struct.pack("3f", *row),  # -0.0 and 0.0 differ
        ),
        seed=st.integers(0, 2**16),
    )
    def test_distinct_rows_are_bit_equal(self, rows, seed):
        dense = np.array(rows, dtype=np.float32)
        batch = make_batch(dense, np.random.default_rng(seed))
        model = make_model(seed % 7)
        want_logits, want_grads = step(model, batch, oracle=True)
        logits, grads = step(model, batch, oracle=False)
        assert_bit_equal(logits, want_logits)
        assert len(grads) == len(want_grads)
        for grad, want in zip(grads, want_grads):
            assert_bit_equal(grad, want)
        # No dense row repeats another: predict is forward.
        assert_bit_equal(model.predict(batch), want_logits)

    @staticmethod
    def check_close(dense: np.ndarray, seed: int) -> None:
        batch = make_batch(dense, np.random.default_rng(seed))
        model = make_model(seed % 7)
        want_logits, want_grads = step(model, batch, oracle=True)
        # forward and backward are the every-row path, repeated rows or not.
        logits, grads = step(model, batch, oracle=False)
        assert_bit_equal(logits, want_logits)
        for grad, want in zip(grads, want_grads):
            assert_bit_equal(grad, want)
        np.testing.assert_allclose(model.predict(batch), want_logits, rtol=1e-5, atol=1e-6)
        one_context = len({row.tobytes() for row in dense}) == 1
        varies = any(len({row.tobytes() for row in ids}) > 1 for ids in batch.sparse.values())
        # One repeated dense row, and some table varying: the factored path.
        assert (model._factored is not None) == (one_context and varies)

    def test_all_rows_equal(self):
        row = np.random.default_rng(0).normal(size=3).astype(np.float32)
        self.check_close(np.tile(row, (32, 1)), seed=1)

    @settings(max_examples=30, deadline=None)
    @given(
        distinct=st.integers(1, 6),
        pattern_seed=st.integers(0, 2**16),
        size=st.integers(2, 40),
    )
    def test_random_duplicate_patterns(self, distinct, pattern_seed, size):
        rng = np.random.default_rng(pattern_seed)
        base = rng.normal(size=(distinct, 3)).astype(np.float32)
        pattern = rng.integers(0, distinct, size=size)
        pattern[:2] = 0  # at least one repeat
        self.check_close(base[pattern], seed=pattern_seed)

    def test_repeated_nan_and_signed_zero_rows(self):
        base = np.array(
            [[np.nan, 0.5, 1.0], [-0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, -0.0, 2.0]],
            dtype=np.float32,
        )
        self.check_close(base[[0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 0]], seed=3)

    def test_gradcheck_with_repeated_rows(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 3)).astype(np.float32)
        batch = make_batch(base[[0, 1, 0, 2, 1, 0, 2, 2]], rng)
        model = make_model(2)
        loss_fn = BCEWithLogits()

        def loss():
            return loss_fn.forward(model.forward(batch), batch.labels)

        def backward():
            loss()
            model.backward(loss_fn.backward())

        result = check_gradients(model.parameters(), loss, backward, seed=1)
        assert result.passed, (result.worst_parameter, result.max_relative_error)


def test_a_ranking_stream_returns_the_oracles_top_k():
    """Top-k equals the every-row oracle's, except swaps among near-ties."""
    model = make_model(11)
    engine = InferenceEngine(model)
    rng = np.random.default_rng(23)
    top_k, candidates = 10, 64
    for _request in range(40):
        dense = rng.normal(size=3).astype(np.float32)
        context = {
            spec.name: rng.integers(0, spec.num_rows, size=spec.multiplicity)
            for spec in SCHEMA.tables
        }
        ids = rng.integers(0, 40, size=candidates)
        ranked = engine.rank_candidates(dense, context, "t0", ids, top_k=top_k)

        sparse = {name: np.tile(ids_, (candidates, 1)) for name, ids_ in context.items()}
        sparse["t0"] = ids[:, None]
        batch = MiniBatch(
            dense=np.tile(dense, (candidates, 1)),
            sparse=sparse,
            labels=np.zeros(candidates, dtype=np.float32),
            indices=np.arange(candidates, dtype=np.int64),
        )
        scores = sigmoid(forward_every_row(model, batch).astype(np.float64))
        oracle = {int(item): score for item, score in zip(ids, scores)}
        want = ids[np.argsort(scores)[::-1][:top_k]]
        for got_item, want_item in zip(ranked.item_ids, want):
            if got_item != want_item:
                assert oracle[int(got_item)] == pytest.approx(oracle[int(want_item)], rel=1e-6)
        np.testing.assert_allclose(
            ranked.scores, [oracle[int(item)] for item in ranked.item_ids], rtol=1e-6
        )


class TestDistinctRowsMatchUnique:
    """``_distinct_rows`` sorts once instead of calling ``np.unique``; its
    first rows and inverse must be ``np.unique``'s over the same key: the
    id itself for one column, the row's bytes for several."""

    @staticmethod
    def assert_matches_unique(ids: list[np.ndarray]) -> None:
        keys = np.concatenate([values.reshape(len(values), -1) for values in ids], axis=1)
        keys = keys[:, 0] if keys.shape[1] == 1 else keys.view(f"V{keys.shape[1] * 8}")[:, 0]
        _, want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)
        first, inverse = _distinct_rows(ids)
        for got, want in ((first, want_first), (inverse, want_inverse)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(-3, 2**40), min_size=1, max_size=300),
        column=st.booleans(),
        repeated=st.sampled_from([1, 2, 7]),
    )
    def test_one_column(self, ids, column, repeated):
        values = np.repeat(np.array(ids, dtype=np.int64), repeated)  # runs of equal ids
        values = np.random.default_rng(len(ids)).permutation(values)
        self.assert_matches_unique([values[:, None] if column else values])

    @settings(max_examples=100, deadline=None)
    @given(
        count=st.integers(1, 80),
        widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_several_columns(self, count, widths, seed):
        """``(B, k)`` arrays side by side, ids drawn small so rows repeat."""
        rows = np.random.default_rng(seed).integers(-2, 4, size=(count, sum(widths)))
        self.assert_matches_unique(np.split(rows, np.cumsum(widths)[:-1], axis=1))

    @pytest.mark.parametrize("shape", [(9,), (9, 1), (9, 2)])
    def test_zero_stride_broadcast(self, shape):
        ids = np.broadcast_to(np.array(5, dtype=np.int64), shape)
        assert ids.strides[0] == 0
        self.assert_matches_unique([ids])
