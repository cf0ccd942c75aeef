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
            iteration=i,
            train_loss=loss,
            test_loss=loss,
            test_accuracy=0.5,
            train_accuracy=0.5,
            segment_kind="cold",
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
        history.record(HistoryPoint(1, 1, 1, 0.6, 0.5, "cold"))
        history.record(HistoryPoint(2, 1, 1, 0.55, 0.5, "cold"))
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
        result = BaselineTrainer(model, lr=0.2).train(train, test, epochs=2, batch_size=64)
        assert result.final_test_accuracy > initial_acc

    def test_history_populated(self, training_setup):
        schema, train, test, _ = training_setup
        model = fresh_model(schema)
        result = BaselineTrainer(model, lr=0.2).train(train, test, epochs=1, batch_size=64)
        assert len(result.history) >= 2
        assert result.history.final.segment_kind == "final"
        assert result.sync_events == 0

    def test_rejects_zero_epochs(self, training_setup):
        schema, train, test, _ = training_setup
        with pytest.raises(ValueError):
            BaselineTrainer(fresh_model(schema)).train(train, test, epochs=0)

    @pytest.mark.parametrize("batch_size", [0, -64])
    def test_rejects_a_batch_size_below_one(self, training_setup, batch_size):
        schema, train, test, _ = training_setup
        with pytest.raises(ValueError, match="batch_size"):
            BaselineTrainer(fresh_model(schema)).train(train, test, batch_size=batch_size)


class TestFAETrainer:
    def test_matches_baseline_accuracy(self, training_setup):
        """Table III's claim: FAE achieves baseline accuracy."""
        schema, train, test, plan = training_setup
        baseline_model = fresh_model(schema, seed=33)
        baseline = BaselineTrainer(baseline_model, lr=0.2).train(
            train, test, epochs=2, batch_size=64
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


# ----------------------------------------------------------------------
# final_train_accuracy: the running accuracy the steps measured, with no
# second pass over the training log
# ----------------------------------------------------------------------


def weighted_mean(steps):
    """The oracle: float64 sample-weighted mean of ``(accuracy, size)``
    pairs, accumulated in step order."""
    total, count = 0.0, 0
    for accuracy, size in steps:
        total += accuracy * size
        count += size
    return total / count


def record_engine_steps(trainer):
    """``(accuracy, trained batch size)`` of every applied engine step."""
    steps = []
    inner = trainer._step

    def spy(batch, *args):
        outcome = inner(batch, *args)
        if outcome is not None:
            steps.append((outcome[1], len(batch)))
        return outcome

    trainer._step = spy
    return steps


def make_trainer(kind, schema, plan, seed=8, **kwargs):
    from repro.dist import DistributedFAETrainer

    if kind == "fae":
        return FAETrainer(fresh_model(schema, seed), plan, lr=0.2, **kwargs)
    replicas = [fresh_model(schema, seed) for _ in range(2)]
    return DistributedFAETrainer(replicas, plan, lr=0.2, **kwargs)


class TestRunningTrainAccuracy:
    @pytest.mark.parametrize("kind", ["fae", "dist"])
    def test_engine_reports_the_final_epochs_weighted_step_accuracy(self, training_setup, kind):
        schema, train, test, plan = training_setup
        world = 1 if kind == "fae" else 2
        pools = list(plan.dataset.hot_batches) + list(plan.dataset.cold_batches)
        trained = [len(b) // world * world for b in pools]
        if world == 2:
            # A trailing short batch is trimmed to equal shards: the
            # weight is what trained, not what the pool held.
            assert any(t != len(b) for t, b in zip(trained, pools))
        steps_per_epoch = sum(t > 0 for t in trained)

        trainer = make_trainer(kind, schema, plan)
        steps = record_engine_steps(trainer)
        result = trainer.train(train, test, epochs=2)

        assert len(steps) == 2 * steps_per_epoch
        last_epoch = steps[steps_per_epoch:]
        assert sorted(size for _acc, size in last_epoch) == sorted(t for t in trained if t)
        assert result.final_train_accuracy == weighted_mean(last_epoch)
        assert result.final_train_accuracy != weighted_mean(steps)  # epoch 0 was reset away
        assert result.history.final.train_accuracy == result.final_train_accuracy

    def test_baseline_reports_the_final_epochs_weighted_step_accuracy(
        self, monkeypatch, training_setup
    ):
        from repro.train import engine

        schema, train, test, _plan = training_setup
        steps = []

        def spy(logits, labels):
            accuracy = binary_accuracy(logits, labels)
            steps.append((accuracy, len(labels)))
            return accuracy

        monkeypatch.setattr(engine, "binary_accuracy", spy)
        result = BaselineTrainer(fresh_model(schema, seed=8), lr=0.2).train(
            train, test, epochs=2, batch_size=64
        )
        steps_per_epoch = -(-len(train) // 64)
        assert len(steps) == 2 * steps_per_epoch
        assert len(train) % 64  # the short last batch weighs less
        assert result.final_train_accuracy == weighted_mean(steps[steps_per_epoch:])
        assert result.history.final.train_accuracy == result.final_train_accuracy

    @pytest.mark.parametrize("kind", ["baseline", "fae", "dist"])
    def test_training_rows_are_only_ever_forwarded_to_be_trained_on(self, training_setup, kind):
        """Every forward over rows of the training log is a step's (a
        backward follows it); a run scores nothing but the test log."""
        schema, train, test, plan = training_setup
        events = []

        def source(batch):
            for name, log in (("train", train), ("test", test)):
                if batch.indices.max() < len(log) and np.array_equal(
                    batch.dense, log.dense[batch.indices]
                ):
                    return name
            raise AssertionError("forward over rows of neither log")

        def watch(model):
            forward, backward = model.forward, model.backward

            def watched_forward(batch):
                events.append(source(batch))
                return forward(batch)

            def watched_backward(grad):
                events.append("backward")
                return backward(grad)

            model.forward, model.backward = watched_forward, watched_backward

        if kind == "baseline":
            model = fresh_model(schema, seed=8)
            watch(model)
            BaselineTrainer(model, lr=0.2).train(train, test, epochs=1, batch_size=64)
        else:
            trainer = make_trainer(kind, schema, plan)
            for model in trainer.replicas:
                watch(model)
            trainer.train(train, test, epochs=1, eval_samples=len(test) - 1)

        assert "train" in events and "test" in events
        for event, following in zip(events, events[1:] + ["end"]):
            if event == "train":
                assert following == "backward"
        # After the last step: boundary and closing *test* evaluations only.
        last_step = len(events) - 1 - events[::-1].index("backward")
        assert set(events[last_step + 1 :]) == {"test"}


class TestRunningTrainAccuracyResume:
    """The two running sums ride in the checkpoint, so an interrupted run
    reports the uninterrupted run's value bit for bit."""

    @pytest.fixture()
    def uninterrupted(self, tmp_path, training_setup):
        from repro.resilience import CheckpointManager, load_checkpoint

        schema, train, test, plan = training_setup
        manager = CheckpointManager(tmp_path / "ref", every=1, keep=None)
        result = make_trainer("fae", schema, plan).train(
            train, test, epochs=2, checkpoint=manager
        )
        total = len(plan.dataset.hot_batches) + len(plan.dataset.cold_batches)
        mid_epoch = [
            path
            for path in sorted(manager.directory.glob("ckpt-*.npz"))
            if (ckpt := load_checkpoint(path)).epoch == 1
            and 0 < sum(ckpt.cursors.values()) < total
        ]
        assert mid_epoch, "no boundary inside the final epoch"
        return result, mid_epoch[len(mid_epoch) // 2]

    def test_mid_epoch_resume_continues_the_sums(self, training_setup, uninterrupted):
        from repro.resilience import load_checkpoint

        schema, train, test, plan = training_setup
        reference, path = uninterrupted
        ckpt = load_checkpoint(path)
        assert ckpt.epoch_samples > 0 and 0.0 < ckpt.epoch_accuracy_sum < ckpt.epoch_samples

        resumed = make_trainer("fae", schema, plan, seed=99).train(
            train, test, epochs=2, resume=path
        )
        assert resumed.final_train_accuracy == reference.final_train_accuracy
        assert resumed.history.final == reference.history.final

    def test_guard_rollback_restores_the_sums(self, tmp_path, training_setup):
        from repro.resilience import CheckpointManager
        from repro.resilience.faults import FaultPlan
        from repro.resilience.guards import NumericGuard, NumericGuardConfig

        schema, train, test, plan = training_setup

        def guards():
            # No LR backoff: the replay after the rollback is the clean run.
            return NumericGuard(NumericGuardConfig(warmup_steps=4, lr_backoff=1.0))

        reference = make_trainer("fae", schema, plan, guards=guards()).train(
            train, test, epochs=2
        )
        # Poison the hot replicas where the final epoch's last hot segment
        # starts: the newest checkpoint is that boundary, inside the epoch.
        steps_per_epoch = len(plan.dataset.hot_batches) + len(plan.dataset.cold_batches)
        points = reference.history.points
        last_hot = max(i for i, p in enumerate(points) if p.segment_kind == "hot")
        boundary = points[last_hot - 1].iteration
        assert steps_per_epoch < boundary < 2 * steps_per_epoch
        poison = FaultPlan(seed=7, hot_row_corruption_at=boundary, corruption_mode="bitflip")
        trainer = make_trainer("fae", schema, plan, guards=guards(), fault_plan=poison)
        with pytest.warns(RuntimeWarning, match="encountered in matmul"):
            result = trainer.train(
                train, test, epochs=2, checkpoint=CheckpointManager(tmp_path, every=1, keep=None)
            )
        assert result.rollbacks == 1
        assert result.final_train_accuracy == reference.final_train_accuracy
        assert result.history.final == reference.history.final

    def test_archive_without_the_sums_resumes_from_zero(self, training_setup, uninterrupted):
        import hashlib
        import io
        import json

        from repro.resilience import load_checkpoint

        schema, train, test, plan = training_setup
        _reference, path = uninterrupted
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        meta = json.loads(str(payload["meta_json"]))
        del meta["epoch_accuracy_sum"], meta["epoch_samples"]
        payload["meta_json"] = np.array(json.dumps(meta))
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        path.write_bytes(buffer.getvalue())
        path.with_name(path.name + ".sha256").write_text(
            f"{hashlib.sha256(buffer.getvalue()).hexdigest()}  {path.name}\n", encoding="utf-8"
        )

        ckpt = load_checkpoint(path)  # warnings are errors here: none is raised
        assert (ckpt.epoch_accuracy_sum, ckpt.epoch_samples) == (0.0, 0)
        trainer = make_trainer("fae", schema, plan, seed=99)
        steps = record_engine_steps(trainer)
        result = trainer.train(train, test, epochs=2, resume=path)
        assert steps and result.final_train_accuracy == weighted_mean(steps)
