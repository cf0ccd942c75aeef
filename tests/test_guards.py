"""Tests for the data-integrity guardrails: ingest validation and the
quarantine ledger, the training-time numeric guard (NaN/loss-spike
rollback), seeded data-corruption chaos, and the serving circuit
breaker's state machine."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.data import (
    ClickLog,
    SyntheticClickLog,
    SyntheticConfig,
    ValidatingChunkSource,
    as_chunk_source,
    train_test_split,
    validated_log,
)
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    GuardAbort,
    GuardError,
    IngestPolicy,
    IngestValidationError,
    LossSpikeError,
    NumericGuard,
    NumericGuardConfig,
    QuarantineLedger,
    validate_chunk,
)
from repro.train import FAETrainer


def small_dlrm(schema, seed=3):
    return DLRM(schema, DLRMConfig("4-8", "8-1", seed=seed))


# ----------------------------------------------------------------------
# Policy and config parsing
# ----------------------------------------------------------------------


class TestIngestPolicy:
    def test_bare_name_applies_to_all_fields(self):
        policy = IngestPolicy.parse("quarantine")
        assert (policy.sparse, policy.dense, policy.labels) == ("quarantine",) * 3
        assert policy.quarantines

    def test_per_field_spec(self):
        policy = IngestPolicy.parse("sparse=quarantine,dense=clamp")
        assert policy.sparse == "quarantine"
        assert policy.dense == "clamp"
        assert policy.labels == "raise"
        assert policy.quarantines

    def test_default_never_quarantines(self):
        assert not IngestPolicy().quarantines

    @pytest.mark.parametrize("spec", ["bogus", "sparse=bogus", "unknown=clamp", "sparse"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            IngestPolicy.parse(spec)


class TestNumericGuardConfig:
    def test_parse_full_spec(self):
        cfg = NumericGuardConfig.parse(
            "spike=3.5,ema=0.8,warmup=4,rollbacks=5,backoff=0.25,skips=9"
        )
        assert cfg.spike_factor == 3.5
        assert cfg.ema_beta == 0.8
        assert cfg.warmup_steps == 4
        assert cfg.max_rollbacks == 5
        assert cfg.lr_backoff == 0.25
        assert cfg.max_skipped_steps == 9

    @pytest.mark.parametrize("spec", ["", "default"])
    def test_empty_spec_is_defaults(self, spec):
        assert NumericGuardConfig.parse(spec) == NumericGuardConfig()

    @pytest.mark.parametrize("spec", ["bogus=1", "spike", "warmup=x"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            NumericGuardConfig.parse(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ema_beta": 1.0},
            {"spike_factor": 1.0},
            {"warmup_steps": 0},
            {"max_rollbacks": -1},
            {"lr_backoff": 0.0},
            {"max_skipped_steps": 0},
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NumericGuardConfig(**kwargs)


# ----------------------------------------------------------------------
# Quarantine ledger
# ----------------------------------------------------------------------


class TestQuarantineLedger:
    def test_records_dedup_by_index(self, tmp_path):
        ledger = QuarantineLedger(tmp_path)
        ledger.record(5, ["dense.nonfinite"])
        ledger.record(5, ["label.invalid"])  # second sighting ignored
        ledger.record(2, ["label.invalid"], {"label.invalid": 3.0})
        assert len(ledger) == 2
        assert ledger.indices == [2, 5]

    def test_flush_is_sorted_and_reloadable(self, tmp_path):
        ledger = QuarantineLedger(tmp_path)
        ledger.record(9, ["b", "a"])
        ledger.record(1, ["c"])
        path = ledger.flush()
        records = QuarantineLedger.load(path)
        assert [r["index"] for r in records] == [1, 9]
        assert records[1]["reasons"] == ["a", "b"]  # reasons sorted

    def test_flush_is_idempotent_bytes(self, tmp_path):
        ledger = QuarantineLedger(tmp_path)
        ledger.record(3, ["dense.nonfinite"])
        first = ledger.flush().read_bytes()
        ledger.record(3, ["dense.nonfinite"])  # re-observed on a second pass
        assert ledger.flush().read_bytes() == first

    def test_load_names_corrupt_line(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        path.write_text('{"index": 1, "reasons": []}\nnot json\n')
        with pytest.raises(GuardError, match=r":2"):
            QuarantineLedger.load(path)


# ----------------------------------------------------------------------
# Chunk validation
# ----------------------------------------------------------------------


def _toy_log(schema, n=20, seed=0):
    return SyntheticClickLog(schema, SyntheticConfig(num_samples=n, seed=seed))


class TestValidateChunk:
    def test_clean_chunk_returned_unchanged(self, tiny_schema):
        chunk = _toy_log(tiny_schema)
        clean, dropped = validate_chunk(chunk, 0, IngestPolicy.parse("quarantine"))
        assert dropped == 0
        assert clean is chunk  # identity: no copies on the clean path

    def test_raise_policy_names_index_and_reason(self, tiny_schema):
        chunk = _toy_log(tiny_schema)
        chunk.dense[4, 0] = np.nan
        with pytest.raises(IngestValidationError) as excinfo:
            validate_chunk(chunk, 100, IngestPolicy())
        assert excinfo.value.index == 104
        assert excinfo.value.reason == "dense.nonfinite"

    def test_raise_policy_names_oov_id(self, tiny_schema):
        chunk = _toy_log(tiny_schema)
        chunk.sparse["table_00"][3, 0] = 999_999
        with pytest.raises(IngestValidationError) as excinfo:
            validate_chunk(chunk, 0, IngestPolicy())
        assert excinfo.value.reason == "sparse.table_00.oov"
        assert "999999" in str(excinfo.value)

    def test_clamp_policy_repairs_in_place(self, tiny_schema):
        chunk = _toy_log(tiny_schema)
        chunk.dense[0, 0] = np.inf
        chunk.sparse["table_00"][1, 0] = -5
        chunk.labels[2] = np.nan
        clean, dropped = validate_chunk(chunk, 0, IngestPolicy.parse("clamp"))
        assert dropped == 0
        assert len(clean) == len(chunk)
        assert np.isfinite(clean.dense).all()
        assert clean.sparse["table_00"][1, 0] == 0
        assert clean.labels[2] in (0.0, 1.0)

    def test_quarantine_policy_drops_and_ledgers(self, tiny_schema, tmp_path):
        chunk = _toy_log(tiny_schema)
        chunk.dense[4, 1] = np.nan
        chunk.labels[7] = 3.0
        chunk.sparse["table_01"][9, 0] = 10**6
        ledger = QuarantineLedger(tmp_path)
        clean, dropped = validate_chunk(
            chunk, 50, IngestPolicy.parse("quarantine"), ledger
        )
        assert dropped == 3
        assert len(clean) == len(chunk) - 3
        assert ledger.indices == [54, 57, 59]
        reasons = {r["index"]: r["reasons"] for r in (ledger._records[i] for i in ledger.indices)}
        assert reasons[54] == ["dense.nonfinite"]
        assert reasons[57] == ["label.invalid"]
        assert reasons[59] == ["sparse.table_01.oov"]

    def test_mixed_policies(self, tiny_schema, tmp_path):
        chunk = _toy_log(tiny_schema)
        chunk.dense[0, 0] = np.nan  # clamped
        chunk.sparse["table_00"][1, 0] = -1  # quarantined
        ledger = QuarantineLedger(tmp_path)
        clean, dropped = validate_chunk(
            chunk, 0, IngestPolicy.parse("sparse=quarantine,dense=clamp"), ledger
        )
        assert dropped == 1
        assert ledger.indices == [1]
        assert np.isfinite(clean.dense).all()


# ----------------------------------------------------------------------
# Validating chunk source: chunk-size invariance (pinned)
# ----------------------------------------------------------------------


@pytest.fixture()
def dirty_log(tiny_schema):
    log = _toy_log(tiny_schema, n=2000, seed=13)
    plan = FaultPlan(seed=5, ingest_corruption_rate=0.01, max_ingest_corruptions=64)
    injected = plan.corrupt_ingest(log)
    assert injected  # the test premise: some rows are poisoned
    return log, injected


class TestValidatingChunkSource:
    def test_requires_ledger_for_quarantine(self, tiny_log):
        with pytest.raises(ValueError):
            ValidatingChunkSource(tiny_log, IngestPolicy.parse("quarantine"))

    def test_ledger_identifies_exactly_the_injected_rows(self, dirty_log, tmp_path):
        log, injected = dirty_log
        ledger = QuarantineLedger(tmp_path)
        clean = validated_log(log, IngestPolicy.parse("quarantine"), ledger)
        assert ledger.indices == sorted(injected)
        assert len(clean) == len(log) - len(injected)

    def test_decisions_identical_across_chunk_sizes(self, dirty_log, tmp_path):
        """The pinned invariant: clean stream and ledger are
        byte-identical for any chunking of the same source."""
        log, _injected = dirty_log
        policy = IngestPolicy.parse("quarantine")
        outputs = []
        for chunk_size in (128, 333, 5000):
            ledger = QuarantineLedger(tmp_path / f"q{chunk_size}")
            clean = validated_log(log, policy, ledger, chunk_size=chunk_size)
            outputs.append(
                (
                    clean.dense.tobytes(),
                    clean.labels.tobytes(),
                    {n: ids.tobytes() for n, ids in clean.sparse.items()},
                    ledger.path.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_clean_starts_renumbered_densely(self, dirty_log, tmp_path):
        log, _injected = dirty_log
        source = ValidatingChunkSource(
            as_chunk_source(log, chunk_size=128),
            IngestPolicy.parse("quarantine"),
            QuarantineLedger(tmp_path),
        )
        expected_start = 0
        for start, chunk in source:
            assert start == expected_start
            expected_start += len(chunk)
        assert source.num_samples == expected_start

    def test_validated_log_aborts_when_nothing_survives(self, tiny_schema, tmp_path):
        log = _toy_log(tiny_schema, n=4)
        log.labels[:] = np.nan
        ledger = QuarantineLedger(tmp_path)
        with pytest.raises(GuardAbort) as excinfo:
            validated_log(log, IngestPolicy.parse("quarantine"), ledger)
        assert excinfo.value.guard == "ingest"
        assert str(ledger.path) in excinfo.value.hints()[0]


# ----------------------------------------------------------------------
# ClickLog refuses out-of-range ids (clamp/quarantine: validate_chunk)
# ----------------------------------------------------------------------


class TestClickLogOOVPolicy:
    def _arrays(self, tiny_schema, bad_id):
        log = _toy_log(tiny_schema, n=6)
        sparse = {name: ids.copy() for name, ids in log.sparse.items()}
        sparse["table_00"][3, 0] = bad_id
        return log.dense, sparse, log.labels

    def test_raise_is_the_default(self, tiny_schema):
        dense, sparse, labels = self._arrays(tiny_schema, 10**6)
        with pytest.raises(ValueError, match="out of range"):
            ClickLog(tiny_schema, dense, sparse, labels)


# ----------------------------------------------------------------------
# Numeric guard
# ----------------------------------------------------------------------


def _param(grad=None, sparse_values=None):
    sparse = [SimpleNamespace(values=v) for v in (sparse_values or [])]
    param = SimpleNamespace(grad=grad, sparse_grads=sparse)
    param.store = param  # a store of one, like a standalone Parameter
    return param


class TestNumericGuard:
    def test_batch_ok_flags_nonfinite(self):
        guard = NumericGuard()
        good = SimpleNamespace(
            dense=np.ones((2, 3)), labels=np.zeros(2, dtype=np.float32)
        )
        bad = SimpleNamespace(
            dense=np.array([[1.0, np.nan]]), labels=np.zeros(1, dtype=np.float32)
        )
        assert guard.batch_ok(good)
        assert not guard.batch_ok(bad)
        assert guard.skipped_batches == 1

    def test_grads_ok_checks_dense_and_sparse(self):
        guard = NumericGuard()
        assert guard.grads_ok([_param(grad=np.ones(3))])
        assert not guard.grads_ok([_param(grad=np.array([np.inf]))])
        assert not guard.grads_ok(
            [_param(sparse_values=[np.array([[np.nan]])])]
        )
        assert guard.skipped_steps == 2

    def test_persistent_grad_skips_escalate_to_rollback(self):
        guard = NumericGuard(NumericGuardConfig(max_skipped_steps=2))
        bad = [_param(grad=np.array([np.nan]))]
        assert not guard.grads_ok(bad, iteration=1)
        assert not guard.grads_ok(bad, iteration=2)
        with pytest.raises(LossSpikeError, match="poisoned"):
            guard.grads_ok(bad, iteration=3)

    def test_rollback_resets_skip_budget(self):
        guard = NumericGuard(NumericGuardConfig(max_skipped_steps=1, max_rollbacks=5))
        bad = [_param(grad=np.array([np.nan]))]
        assert not guard.grads_ok(bad)
        guard.note_rollback("test")
        assert not guard.grads_ok(bad)  # budget re-armed, no raise

    def test_nonfinite_loss_raises(self):
        guard = NumericGuard()
        with pytest.raises(LossSpikeError):
            guard.check_loss(float("nan"), iteration=3)
        with pytest.raises(LossSpikeError):
            guard.check_eval_loss(float("inf"), iteration=3)

    def test_spike_detection_after_warmup(self):
        guard = NumericGuard(NumericGuardConfig(warmup_steps=3, spike_factor=4.0))
        for i in range(5):
            guard.check_loss(0.5, iteration=i)
        with pytest.raises(LossSpikeError, match="spike"):
            guard.check_loss(10.0, iteration=5)

    def test_no_spike_detection_during_warmup(self):
        guard = NumericGuard(NumericGuardConfig(warmup_steps=10))
        guard.check_loss(0.5, iteration=0)
        guard.check_loss(100.0, iteration=1)  # noisy early loss tolerated

    def test_state_ok_rejects_nonfinite_snapshot(self):
        guard = NumericGuard()
        assert guard.state_ok({"w": np.ones(3)})
        assert not guard.state_ok({"w": np.array([1.0, np.nan])})
        assert guard.rejected_checkpoints == 1

    def test_rollback_budget_exhaustion_aborts_with_locations(self, tmp_path):
        guard = NumericGuard(NumericGuardConfig(max_rollbacks=1))
        guard.note_rollback("first")
        with pytest.raises(GuardAbort) as excinfo:
            guard.note_rollback(
                "second", checkpoint_dir=tmp_path, ledger_path=tmp_path / "q.jsonl"
            )
        assert excinfo.value.guard == "numeric"
        hints = "\n".join(excinfo.value.hints())
        assert str(tmp_path) in hints

    def test_snapshot_summarizes_activity(self):
        guard = NumericGuard()
        guard.check_loss(0.7, iteration=0)
        snap = guard.snapshot()
        assert snap["rollbacks"] == 0
        assert snap["loss_ema"] == pytest.approx(0.7)


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kw):
        kw.setdefault("window", 8)
        kw.setdefault("failure_threshold", 0.5)
        kw.setdefault("min_requests", 4)
        kw.setdefault("cooldown", 3)
        return CircuitBreaker(**kw)

    def test_stays_closed_below_min_requests(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record(success=False)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_at_threshold(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(success=False)
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_cooldown_then_half_open_probe(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(success=False)
        admitted = [breaker.allow() for _ in range(4)]
        assert admitted == [False, False, False, True]  # cooldown=3, then probe
        assert breaker.state == "half_open"
        assert breaker.shed_requests == 3

    def test_probe_success_closes_and_clears_window(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(success=False)
        while not breaker.allow():
            pass
        breaker.record(success=True)
        assert breaker.state == "closed"
        assert breaker.failure_rate() == 0.0

    def test_probe_failure_reopens(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record(success=False)
        while not breaker.allow():
            pass
        breaker.record(success=False)
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_rolling_window_forgets_old_failures(self):
        breaker = self.make(window=4, min_requests=4, failure_threshold=1.0)
        for _ in range(3):
            breaker.record(success=False)
        for _ in range(6):
            breaker.record(success=True)
        assert breaker.state == "closed"
        assert breaker.failure_rate() == 0.0

    def test_health_snapshot(self):
        breaker = self.make()
        breaker.record(success=False)
        health = breaker.health()
        assert health["state"] == "closed"
        assert health["failure_rate"] == 1.0
        assert health["window_size"] == 1
        json.dumps(health)  # must be JSON-serializable

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1)


# ----------------------------------------------------------------------
# Seeded data-corruption faults
# ----------------------------------------------------------------------


class TestCorruptionFaults:
    def test_ingest_corruption_is_seed_deterministic(self, tiny_schema):
        kinds = []
        for _ in range(2):
            log = _toy_log(tiny_schema, n=500, seed=2)
            plan = FaultPlan(seed=9, ingest_corruption_rate=0.02)
            kinds.append(plan.corrupt_ingest(log))
        assert kinds[0] == kinds[1]
        assert kinds[0]

    def test_ingest_corruption_capped(self, tiny_schema):
        log = _toy_log(tiny_schema, n=1000, seed=2)
        plan = FaultPlan(seed=9, ingest_corruption_rate=0.5, max_ingest_corruptions=5)
        assert len(plan.corrupt_ingest(log)) == 5

    def test_batch_corruption_copies_not_mutates(self, tiny_schema):
        log = _toy_log(tiny_schema, n=64, seed=2)
        from repro.data.loader import batch_from_log

        batch = batch_from_log(log, np.arange(32))
        original = batch.dense.copy()
        plan = FaultPlan(seed=1, batch_corruption_rate=0.999, max_batch_corruptions=1)
        poisoned = plan.maybe_corrupt_batch(batch)
        assert not np.isfinite(poisoned.dense).all() or poisoned is batch
        np.testing.assert_array_equal(batch.dense, original)  # source intact

    def test_corrupt_row_nan_and_bitflip(self):
        matrix = np.ones((4, 3), dtype=np.float32)
        FaultPlan(seed=0, corruption_mode="nan").corrupt_row(matrix, row=1)
        assert np.isnan(matrix[1]).all()
        matrix = np.ones((4, 3), dtype=np.float32)
        FaultPlan(seed=0, corruption_mode="bitflip").corrupt_row(matrix, row=2)
        assert (np.abs(matrix[2]) > 1e6).all()  # exponent bit flipped

    def test_fire_once_semantics(self):
        plan = FaultPlan(seed=0, gradient_corruption_at=3, hot_row_corruption_at=5)
        assert not plan.should_corrupt_gradient(2)
        assert plan.should_corrupt_gradient(3)
        assert not plan.should_corrupt_gradient(4)
        assert plan.should_corrupt_hot_row(9)
        assert not plan.should_corrupt_hot_row(9)

    def test_fired_state_survives_roundtrip(self):
        plan = FaultPlan(seed=0, gradient_corruption_at=1, batch_corruption_rate=0.1)
        assert plan.should_corrupt_gradient(1)
        state = plan.state_dict()
        fresh = FaultPlan(seed=0, gradient_corruption_at=1, batch_corruption_rate=0.1)
        fresh.load_state_dict(state)
        assert not fresh.should_corrupt_gradient(99)  # already fired

    def test_parse_corruption_keys(self):
        plan = FaultPlan.parse(
            "seed=3,ingest=0.01,max_ingest=9,bad_batch=0.05,max_bad_batch=2,"
            "bad_grad=7,bad_row=11,corrupt=bitflip"
        )
        assert plan.ingest_corruption_rate == 0.01
        assert plan.max_ingest_corruptions == 9
        assert plan.batch_corruption_rate == 0.05
        assert plan.max_batch_corruptions == 2
        assert plan.gradient_corruption_at == 7
        assert plan.hot_row_corruption_at == 11
        assert plan.corruption_mode == "bitflip"

    def test_invalid_corruption_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(corruption_mode="scramble")


# ----------------------------------------------------------------------
# End-to-end chaos proof: guarded training survives what unguarded
# training does not, and lands near the clean run.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def guard_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.2, seed=4)
    plan = fae_preprocess(train, config, batch_size=64, drop_last=True)
    return tiny_log.schema, train, test, plan


@pytest.fixture(scope="module")
def clean_loss(guard_setup):
    schema, train, test, plan = guard_setup
    result = FAETrainer(small_dlrm(schema, seed=21), plan).train(train, test, epochs=1)
    return result.history.points[-1].test_loss


def overflowing_matmul():
    """A bit-flipped weight (~1e38) overflows float32 in every GEMM it
    reaches until the guard trips: that RuntimeWarning is expected here
    (and asserted), while warnings are errors everywhere else."""
    return pytest.warns(RuntimeWarning, match="encountered in matmul")


class TestGuardedTraining:
    def _guards(self):
        return NumericGuard(
            NumericGuardConfig(max_rollbacks=3, max_skipped_steps=4, warmup_steps=4)
        )

    def test_bitflip_hot_row_rolls_back_and_converges(self, guard_setup, clean_loss):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=7, hot_row_corruption_at=5, corruption_mode="bitflip")
        trainer = FAETrainer(
            small_dlrm(schema, seed=21), plan, fault_plan=fault_plan, guards=self._guards()
        )
        with overflowing_matmul():
            result = trainer.train(train, test, epochs=1)
        assert result.rollbacks >= 1
        final = result.history.points[-1].test_loss
        assert math.isfinite(final)
        assert abs(final - clean_loss) < 0.15

    def test_nan_hot_row_rolls_back_via_skip_escalation(self, guard_setup, clean_loss):
        # A NaN weight row hides from the loss check (np.where ReLUs map
        # NaN activations to 0 in the forward pass) but keeps producing
        # non-finite gradients; the skip budget must escalate.
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=7, hot_row_corruption_at=5, corruption_mode="nan")
        trainer = FAETrainer(
            small_dlrm(schema, seed=21), plan, fault_plan=fault_plan, guards=self._guards()
        )
        result = trainer.train(train, test, epochs=1)
        assert result.rollbacks >= 1
        final = result.history.points[-1].test_loss
        assert math.isfinite(final)
        assert abs(final - clean_loss) < 0.15

    def test_unguarded_run_visibly_diverges(self, guard_setup, clean_loss):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=7, hot_row_corruption_at=5, corruption_mode="nan")
        result = FAETrainer(
            small_dlrm(schema, seed=21), plan, fault_plan=fault_plan
        ).train(train, test, epochs=1)
        final = result.history.points[-1].test_loss
        assert (not math.isfinite(final)) or final > clean_loss + 0.1

    def test_corrupt_batches_skipped_without_rollback(self, guard_setup):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=3, batch_corruption_rate=0.2, max_batch_corruptions=3)
        trainer = FAETrainer(
            small_dlrm(schema, seed=21), plan, fault_plan=fault_plan, guards=self._guards()
        )
        result = trainer.train(train, test, epochs=1)
        assert result.skipped_batches >= 1
        assert result.rollbacks == 0

    @pytest.mark.parametrize("world_size", [1, 2])
    def test_dropped_batch_keeps_its_place_in_the_step_count(self, guard_setup, world_size):
        """One rule at every world size: a guard-dropped batch costs its
        update, not its iteration, and its rows count as skipped inputs."""
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=3, batch_corruption_rate=0.2, max_batch_corruptions=3)
        replicas = [small_dlrm(schema, seed=21) for _ in range(world_size)]
        trainer = (
            FAETrainer(replicas[0], plan, fault_plan=fault_plan, guards=self._guards())
            if world_size == 1
            else DistributedFAETrainer(
                replicas, plan, fault_plan=fault_plan, guards=self._guards()
            )
        )
        result = trainer.train(train, test, epochs=1)
        assert result.skipped_batches >= 1
        assert result.history.final.iteration == len(plan.dataset.hot_batches) + len(
            plan.dataset.cold_batches
        )
        assert trainer.skipped_inputs >= result.skipped_batches

    def test_rollback_budget_exhaustion_raises_guard_abort(self, guard_setup):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=7, hot_row_corruption_at=5, corruption_mode="bitflip")
        guards = NumericGuard(
            NumericGuardConfig(max_rollbacks=0, max_skipped_steps=2, warmup_steps=4)
        )
        trainer = FAETrainer(
            small_dlrm(schema, seed=21), plan, fault_plan=fault_plan, guards=guards
        )
        with overflowing_matmul(), pytest.raises(GuardAbort):
            trainer.train(train, test, epochs=1)

    def test_lr_backs_off_on_rollback(self, guard_setup):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan(seed=7, hot_row_corruption_at=5, corruption_mode="bitflip")
        trainer = FAETrainer(
            small_dlrm(schema, seed=21),
            plan,
            lr=0.2,
            fault_plan=fault_plan,
            guards=self._guards(),
        )
        with overflowing_matmul():
            result = trainer.train(train, test, epochs=1)
        assert result.rollbacks >= 1
        assert trainer.lr == pytest.approx(0.2 * 0.5**result.rollbacks)

    def test_distributed_guarded_run_survives_and_stays_bit_equal(
        self, guard_setup, clean_loss
    ):
        schema, train, test, plan = guard_setup
        fault_plan = FaultPlan.parse(
            "seed=7,bad_row=5,corrupt=bitflip,bad_batch=0.05,max_bad_batch=3"
        )
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=21) for _ in range(2)],
            plan,
            fault_plan=fault_plan,
            guards=self._guards(),
        )
        with overflowing_matmul():
            result = trainer.train(train, test, epochs=1)
        assert result.rollbacks >= 1
        assert trainer.max_hot_divergence() == 0.0
        final = result.history.points[-1].test_loss
        assert math.isfinite(final)
        assert abs(final - clean_loss) < 0.2

    def test_guarded_clean_run_matches_unguarded(self, guard_setup, clean_loss):
        # With no faults the guard must be a pure observer.
        schema, train, test, plan = guard_setup
        result = FAETrainer(
            small_dlrm(schema, seed=21), plan, guards=self._guards()
        ).train(train, test, epochs=1)
        assert result.rollbacks == 0
        assert result.history.points[-1].test_loss == pytest.approx(clean_loss)
