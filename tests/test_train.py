"""Unit tests for metrics, history, and the two trainers."""

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.data import train_test_split
from repro.train import (
    BaselineTrainer,
    FAETrainer,
    HistoryPoint,
    TrainingHistory,
    binary_accuracy,
    evaluate_model,
)


class TestBinaryAccuracy:
    def test_perfect(self):
        assert binary_accuracy(np.array([5.0, -5.0]), np.array([1.0, 0.0])) == 1.0

    def test_all_wrong(self):
        assert binary_accuracy(np.array([5.0, -5.0]), np.array([0.0, 1.0])) == 0.0

    def test_threshold(self):
        assert binary_accuracy(np.array([0.0]), np.array([1.0])) == 1.0  # 0.5 >= 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            binary_accuracy(np.zeros(2), np.zeros(3))


class TestTrainingHistory:
    def point(self, i, loss=1.0):
        return HistoryPoint(
            iteration=i, train_loss=loss, test_loss=loss, test_accuracy=0.5, train_accuracy=0.5
        )

    def test_record_and_final(self):
        history = TrainingHistory()
        history.record(self.point(1))
        history.record(self.point(2, 0.9))
        assert len(history) == 2
        assert history.final.iteration == 2

    def test_monotone_iterations_enforced(self):
        history = TrainingHistory()
        history.record(self.point(5))
        with pytest.raises(ValueError):
            history.record(self.point(4))

    def test_empty_final_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final

    def test_series(self):
        history = TrainingHistory()
        for i, loss in enumerate([1.0, 0.8, 0.6], start=1):
            history.record(self.point(i * 10, loss))
        iters, losses = history.series("test_loss")
        np.testing.assert_array_equal(iters, [10, 20, 30])
        np.testing.assert_allclose(losses, [1.0, 0.8, 0.6])

    def test_best_accuracy(self):
        history = TrainingHistory()
        history.record(HistoryPoint(1, 1, 1, 0.6, 0.5))
        history.record(HistoryPoint(2, 1, 1, 0.55, 0.5))
        assert history.best_test_accuracy() == 0.6

    def test_converged(self):
        history = TrainingHistory()
        for i, loss in enumerate([1.0, 0.5001, 0.5002, 0.5001, 0.5], start=1):
            history.record(self.point(i, loss))
        assert history.converged(window=3, tolerance=5e-3)
        assert not history.converged(window=4, tolerance=1e-6)


@pytest.fixture(scope="module")
def training_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    tiny_config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.15, seed=2)
    plan = fae_preprocess(train, tiny_config, batch_size=64)
    schema = tiny_log.schema
    return schema, train, test, plan


def fresh_model(schema, seed=21):
    from repro.models.dlrm import DLRM, DLRMConfig

    return DLRM(schema, DLRMConfig(bottom_mlp="4-8", top_mlp="8-1", seed=seed))


class TestEvaluateModel:
    def test_returns_loss_and_accuracy(self, training_setup):
        schema, train, test, _plan = training_setup
        model = fresh_model(schema)
        loss, acc = evaluate_model(model, test)
        assert loss > 0
        assert 0 <= acc <= 1

    def test_max_samples_cap(self, training_setup):
        schema, train, test, _ = training_setup
        model = fresh_model(schema)
        loss_small, _ = evaluate_model(model, test, max_samples=64)
        assert np.isfinite(loss_small)


class TestBaselineTrainer:
    def test_improves_over_initial(self, training_setup):
        schema, train, test, _ = training_setup
        model = fresh_model(schema)
        _, initial_acc = evaluate_model(model, test)
        result = BaselineTrainer(model, lr=0.2).train(
            train, test, epochs=2, batch_size=64, eval_every=10
        )
        assert result.final_test_accuracy > initial_acc

    def test_history_populated(self, training_setup):
        schema, train, test, _ = training_setup
        model = fresh_model(schema)
        result = BaselineTrainer(model, lr=0.2).train(
            train, test, epochs=1, batch_size=64, eval_every=10
        )
        assert len(result.history) >= 2
        assert result.history.final.segment_kind == "mixed"
        assert result.sync_events == 0

    def test_rejects_zero_epochs(self, training_setup):
        schema, train, test, _ = training_setup
        with pytest.raises(ValueError):
            BaselineTrainer(fresh_model(schema)).train(train, test, epochs=0)


class TestFAETrainer:
    def test_matches_baseline_accuracy(self, training_setup):
        """Table III's claim: FAE achieves baseline accuracy."""
        schema, train, test, plan = training_setup
        baseline_model = fresh_model(schema, seed=33)
        baseline = BaselineTrainer(baseline_model, lr=0.2).train(
            train, test, epochs=2, batch_size=64, eval_every=20
        )
        fae_model = fresh_model(schema, seed=33)
        fae = FAETrainer(fae_model, plan, lr=0.2).train(train, test, epochs=2)
        assert fae.final_test_accuracy >= baseline.final_test_accuracy - 0.03

    def test_sync_events_recorded(self, training_setup):
        schema, train, test, plan = training_setup
        result = FAETrainer(fresh_model(schema), plan, lr=0.2).train(train, test, epochs=1)
        assert result.sync_events > 0
        assert result.sync_bytes > 0

    def test_schedule_rates_tracked(self, training_setup):
        schema, train, test, plan = training_setup
        result = FAETrainer(fresh_model(schema), plan, lr=0.2).train(train, test, epochs=1)
        assert result.schedule_rates
        assert all(1 <= r <= 100 for r in result.schedule_rates)

    def test_history_has_hot_and_cold_segments(self, training_setup):
        schema, train, test, plan = training_setup
        result = FAETrainer(fresh_model(schema), plan, lr=0.2).train(train, test, epochs=1)
        kinds = {p.segment_kind for p in result.history.points}
        assert "hot" in kinds and "cold" in kinds

    def test_hot_updates_propagate_to_master(self, training_setup):
        """After training, the master tables must include hot-row updates."""
        schema, train, test, plan = training_setup
        model = fresh_model(schema, seed=5)
        before = {n: t.weight.value.copy() for n, t in model.tables.items()}
        FAETrainer(model, plan, lr=0.2).train(train, test, epochs=1)
        changed = any(
            not np.allclose(model.tables[n].weight.value, before[n]) for n in before
        )
        assert changed

    def test_rejects_zero_epochs(self, training_setup):
        schema, train, test, plan = training_setup
        with pytest.raises(ValueError):
            FAETrainer(fresh_model(schema), plan).train(train, test, epochs=0)


class TestFinalEvaluationReuse:
    """A run's closing test evaluation repeats the last boundary's whenever
    that one covered the whole test log; then the engine reuses it."""

    @pytest.fixture()
    def test_log_evaluations(self, monkeypatch, training_setup):
        """``max_samples`` of every `evaluate_model` call on the test log."""
        from repro.train import engine

        test = training_setup[2]
        calls = []

        def spy(model, log, *args, **kwargs):
            if log is test:
                calls.append(kwargs.get("max_samples"))
            return evaluate_model(model, log, *args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_model", spy)
        return calls

    def test_reused_value_is_what_a_second_evaluation_returns(
        self, training_setup, test_log_evaluations
    ):
        schema, train, test, plan = training_setup
        model = fresh_model(schema, seed=8)
        result = FAETrainer(model, plan, lr=0.2).train(
            train, test, epochs=1, eval_samples=len(test)
        )
        segments = len(result.history.points) - 1
        assert test_log_evaluations == [len(test)] * segments  # no closing one
        final, boundary = result.history.points[-1], result.history.points[-2]
        assert (final.test_loss, final.test_accuracy) == (boundary.test_loss, boundary.test_accuracy)
        assert (final.test_loss, result.final_test_accuracy) == evaluate_model(model, test)

    def test_subsampled_boundaries_do_not_stand_in_for_the_full_log(
        self, training_setup, test_log_evaluations
    ):
        schema, train, test, plan = training_setup
        model = fresh_model(schema, seed=8)
        cap = len(test) - 1
        result = FAETrainer(model, plan, lr=0.2).train(train, test, epochs=1, eval_samples=cap)
        segments = len(result.history.points) - 1
        assert test_log_evaluations == [cap] * segments + [None]
        final = result.history.points[-1]
        assert (final.test_loss, result.final_test_accuracy) == evaluate_model(model, test)

    def test_resume_after_the_last_segment_evaluates(
        self, tmp_path, training_setup, test_log_evaluations
    ):
        from repro.resilience import CheckpointManager

        schema, train, test, plan = training_setup
        manager = CheckpointManager(tmp_path, every=1, keep=None)
        full = FAETrainer(fresh_model(schema, seed=8), plan, lr=0.2).train(
            train, test, epochs=1, checkpoint=manager
        )
        del test_log_evaluations[:]
        model = fresh_model(schema, seed=9)
        resumed = FAETrainer(model, plan, lr=0.2).train(
            train, test, epochs=1, resume=manager.latest()
        )
        assert len(resumed.history.points) == 1  # no segment ran: nothing to reuse
        assert test_log_evaluations == [None]
        final = resumed.history.points[-1]
        assert (final.test_loss, resumed.final_test_accuracy) == evaluate_model(model, test)
        assert final.test_loss == full.history.points[-1].test_loss
