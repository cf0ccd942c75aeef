"""Tests for elastic real-process execution (repro.resilience.elastic).

Covers the supervisor's whole lifecycle — spawn, heartbeat liveness,
lease re-dispatch, speculation, poison-task quarantine, degradation —
plus the two integration guarantees the tentpole promises: a FAE plan
built under injected SIGKILL/straggler chaos is byte-identical to the
sequential one, and a distributed run that loses a rank re-admits it at
the next segment boundary and finishes at full world size.

The module-level ``_task_*`` functions below are addressed by workers as
``"tests.test_elastic:_task_..."`` kind strings (resolved by import in
the child process), so they must stay at module scope.
"""

import json
import time

import numpy as np
import pytest

from repro.core import Calibrator, fae_preprocess
from repro.data import ShardChunkSource, save_log_shards, train_test_split
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.obs.metrics import get_registry
from repro.resilience import (
    ElasticConfig,
    ElasticError,
    FaultPlan,
    QuarantineLedger,
    SupervisorEventLog,
    TaskQuarantinedError,
    WorkerPool,
)
from repro.resilience.elastic import ELASTIC_EVENT_VERSION, resolve_task


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


# ----------------------------------------------------------------------
# Worker task functions (resolved by kind string inside worker processes)
# ----------------------------------------------------------------------


def _task_double(payload):
    return payload * 2


def _task_sleep_value(payload):
    time.sleep(payload.get("sleep", 0.0))
    return payload["value"]


def _task_boom(payload):
    raise RuntimeError(f"boom: {payload}")


# Short aliases for the kind strings used throughout.
DOUBLE = "tests.test_elastic:_task_double"
SLEEP_VALUE = "tests.test_elastic:_task_sleep_value"
BOOM = "tests.test_elastic:_task_boom"


# ----------------------------------------------------------------------
# Config and event log
# ----------------------------------------------------------------------


class TestElasticConfig:
    def test_defaults_are_inline(self):
        assert not ElasticConfig().process_mode
        assert not ElasticConfig(workers=1).process_mode
        assert ElasticConfig(workers=2).process_mode

    def test_death_after(self):
        config = ElasticConfig(heartbeat_interval=0.1, heartbeat_miss_budget=4)
        assert config.death_after == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"heartbeat_interval": 0.0},
            {"heartbeat_miss_budget": 0},
            {"lease_timeout": 0.0},
            {"run_timeout": 0.0},
            {"max_task_leases": 0},
            {"speculate_after": -0.1},
            {"max_respawns": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElasticConfig(**kwargs)


class TestResolveTask:
    def test_resolves_module_function(self):
        assert resolve_task(DOUBLE) is _task_double

    def test_malformed_kind_rejected(self):
        with pytest.raises(ValueError):
            resolve_task("no-separator")

    def test_missing_attribute_rejected(self):
        with pytest.raises(AttributeError):
            resolve_task("tests.test_elastic:_task_nonexistent")


class TestSupervisorEventLog:
    def test_emit_sequences_and_counts(self):
        log = SupervisorEventLog()
        log.emit("spawn", worker=0)
        log.emit("dispatch", task=0, worker=0)
        log.emit("spawn", worker=1)
        assert len(log) == 3
        assert [r["seq"] for r in log.events] == [0, 1, 2]
        assert all(r["v"] == ELASTIC_EVENT_VERSION for r in log.events)
        assert log.count("spawn") == 2
        assert log.count("dispatch") == 1
        assert log.count("death") == 0
        assert log.kinds() == ["spawn", "dispatch"]

    def test_flush_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = SupervisorEventLog(path)
        log.emit("spawn", worker=0, pid=123)
        log.emit("complete", task=4, lease=0, worker=0)
        assert log.flush() == path
        records = SupervisorEventLog.load(path)
        assert len(records) == 2
        assert records[0]["event"] == "spawn"
        assert records[0]["pid"] == 123
        assert records[1]["task"] == 4

    def test_memory_only_flush_returns_none(self):
        log = SupervisorEventLog()
        log.emit("spawn", worker=0)
        assert log.flush() is None

    def test_load_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"v": 1, "seq": 0, "event": "spawn"}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt"):
            SupervisorEventLog.load(path)

    def test_load_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"v": 99, "seq": 0, "event": "spawn"}) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            SupervisorEventLog.load(path)


# ----------------------------------------------------------------------
# Degraded (in-process) execution
# ----------------------------------------------------------------------


class TestInlineExecution:
    def test_inline_results_keyed_by_task_index(self):
        pool = WorkerPool(ElasticConfig(workers=0))
        results = pool.run(DOUBLE, [1, 2, 3, 4])
        assert results == {0: 2, 1: 4, 2: 6, 3: 8}
        assert pool.events.count("degrade") == 1
        assert pool.events.events[0]["reason"] == "workers<=1"

    def test_empty_payloads(self):
        pool = WorkerPool(ElasticConfig(workers=0))
        assert pool.run(DOUBLE, []) == {}
        assert len(pool.events) == 0

    def test_inline_failure_quarantines_with_partial_results(self, tmp_path):
        pool = WorkerPool(ElasticConfig(workers=0), quarantine_dir=tmp_path)
        with pytest.raises(TaskQuarantinedError) as excinfo:
            pool.run(SLEEP_VALUE, [{"value": 7}, {"wrong-key": 1}, {"value": 9}])
        error = excinfo.value
        assert error.task_ids == [1]
        assert error.results == {0: 7, 2: 9}
        assert error.ledger_path == tmp_path / QuarantineLedger.FILENAME
        records = QuarantineLedger.load(error.ledger_path)
        assert len(records) == 1
        assert records[0]["index"] == 1
        assert records[0]["reasons"] == ["elastic.poison_task"]
        assert records[0]["detail"]["kind"] == SLEEP_VALUE
        assert pool.events.count("quarantine") == 1

    def test_bad_kind_fails_fast(self):
        pool = WorkerPool(ElasticConfig(workers=0))
        with pytest.raises(ValueError):
            pool.run("malformed", [1])
        with pytest.raises(AttributeError):
            pool.run("tests.test_elastic:_task_nonexistent", [1])


# ----------------------------------------------------------------------
# Supervised (real-process) execution
# ----------------------------------------------------------------------


def _chaos_pool(faults: str | None = None, **overrides) -> WorkerPool:
    """A fast-heartbeat process pool for chaos tests."""
    knobs = {
        "workers": 2,
        "heartbeat_interval": 0.05,
        "heartbeat_miss_budget": 4,
        "spawn_grace": 20.0,
        "run_timeout": 120.0,
    }
    knobs.update(overrides)
    worker_faults = (
        FaultPlan.parse(faults).worker_faults() if faults is not None else None
    )
    return WorkerPool(ElasticConfig(**knobs), worker_faults=worker_faults)


class TestProcessPool:
    def test_round_trip(self):
        pool = _chaos_pool()
        results = pool.run(DOUBLE, list(range(8)))
        assert results == {i: 2 * i for i in range(8)}
        assert pool.events.count("spawn") == 2
        assert pool.events.count("complete") == 8
        assert pool.events.count("death") == 0

    def test_sigkill_mid_task_redispatches(self):
        deaths_before = counter_value("resilience.elastic.deaths")
        redispatches_before = counter_value("resilience.elastic.redispatches")
        pool = _chaos_pool(faults="seed=3,kill_task=1")
        results = pool.run(DOUBLE, list(range(6)))
        assert results == {i: 2 * i for i in range(6)}
        events = pool.events
        assert events.count("fault-armed") == 1
        assert events.count("death") == 1
        assert events.count("re-dispatch") == 1
        # The supervisor backfilled the killed worker.
        assert events.count("spawn") == 3
        assert counter_value("resilience.elastic.deaths") == deaths_before + 1
        assert (
            counter_value("resilience.elastic.redispatches") == redispatches_before + 1
        )
        assert counter_value("faults.worker_kill.injected") >= 1

    def test_hang_detected_by_heartbeat_miss(self):
        pool = _chaos_pool(faults="seed=3,hang_task=0", heartbeat_miss_budget=3)
        results = pool.run(DOUBLE, list(range(4)))
        assert results == {i: 2 * i for i in range(4)}
        events = pool.events
        assert events.count("heartbeat-miss") == 1
        assert events.count("death") == 1
        death = next(r for r in events.events if r["event"] == "death")
        assert death["reason"] == "heartbeat-miss"

    def test_straggler_speculation_first_result_wins(self):
        speculations_before = counter_value("resilience.elastic.speculations")
        pool = _chaos_pool(speculate=True, speculate_after=0.1)
        payloads = [{"sleep": 0.8, "value": 10}, {"value": 20}, {"value": 30}]
        results = pool.run(SLEEP_VALUE, payloads)
        assert results == {0: 10, 1: 20, 2: 30}
        assert pool.events.count("speculate") == 1
        assert (
            counter_value("resilience.elastic.speculations") == speculations_before + 1
        )

    def test_poison_task_quarantined_after_lease_budget(self, tmp_path):
        quarantined_before = counter_value("resilience.elastic.quarantined")
        pool = WorkerPool(
            ElasticConfig(workers=2, heartbeat_interval=0.05, max_task_leases=2),
            quarantine_dir=tmp_path,
        )
        with pytest.raises(TaskQuarantinedError) as excinfo:
            pool.run(BOOM, [1, 2])
        error = excinfo.value
        assert error.task_ids == [0, 1]
        # Each task burned its full lease budget before quarantine.
        assert pool.events.count("quarantine") == 2
        assert pool.events.count("re-dispatch") == 2
        assert counter_value("resilience.elastic.quarantined") == quarantined_before + 2
        records = QuarantineLedger.load(tmp_path / QuarantineLedger.FILENAME)
        assert [r["index"] for r in records] == [0, 1]
        assert all(r["reasons"] == ["elastic.poison_task"] for r in records)

    def test_run_timeout_raises_elastic_error(self):
        pool = _chaos_pool(run_timeout=0.5)
        with pytest.raises(ElasticError, match="run_timeout"):
            pool.run(SLEEP_VALUE, [{"sleep": 30.0, "value": 1}])

    def test_event_log_flushed_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        pool = WorkerPool(
            ElasticConfig(workers=2, heartbeat_interval=0.05),
            events=SupervisorEventLog(path),
        )
        pool.run(DOUBLE, [1, 2, 3])
        records = SupervisorEventLog.load(path)
        kinds = {r["event"] for r in records}
        assert {"spawn", "dispatch", "complete"} <= kinds


# ----------------------------------------------------------------------
# Integration: byte-identical FAE plans under chaos
# ----------------------------------------------------------------------


def _plan_bytes(tmp_path, name, log, config, pool=None) -> bytes:
    plan = fae_preprocess(
        log, config, batch_size=64, drop_last=True, chunk_size=250, pool=pool
    )
    path = tmp_path / name
    plan.save(path)
    return path.read_bytes()


class TestParallelPreprocess:
    def test_parallel_plan_matches_sequential_bytes(
        self, tmp_path, tiny_log, tiny_fae_config
    ):
        sequential = _plan_bytes(tmp_path, "seq.npz", tiny_log, tiny_fae_config)
        pool = _chaos_pool(workers=3)
        parallel = _plan_bytes(
            tmp_path, "par.npz", tiny_log, tiny_fae_config, pool=pool
        )
        assert parallel == sequential
        assert pool.events.count("death") == 0

    def test_chaos_plan_matches_sequential_bytes(
        self, tmp_path, tiny_log, tiny_fae_config
    ):
        """The acceptance proof: SIGKILL one profiling worker mid-task and
        straggle another; the merged plan must still be byte-identical."""
        sequential = _plan_bytes(tmp_path, "seq.npz", tiny_log, tiny_fae_config)
        pool = _chaos_pool(
            faults="seed=5,kill_task=2,straggle_task=4,straggle_secs=0.6",
            workers=3,
            speculate=True,
            speculate_after=0.25,
        )
        chaotic = _plan_bytes(
            tmp_path, "chaos.npz", tiny_log, tiny_fae_config, pool=pool
        )
        assert chaotic == sequential
        events = pool.events
        assert events.count("death") == 1
        assert events.count("re-dispatch") >= 1
        assert events.count("spawn") >= 3
        assert events.count("fault-armed") == 2  # kill + straggle armed


class TestShardProfilingAcceptsAndRejectsAlike:
    """The worker reads a shard through the sequential pass's column-lazy
    chunk, so ``pool=`` and the single-process pass take the same shards."""

    @staticmethod
    def _profile(directory, config, pool=None):
        return Calibrator(config).calibrate_source(ShardChunkSource(directory), pool=pool).profile

    def test_flip_in_a_profiled_column_fails_both_ways_naming_the_file(
        self, tmp_path, tiny_log, tiny_fae_config, flip_member_byte
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        flip_member_byte(directory / "chunk-000002.npz", "sparse_table_01")
        with pytest.raises(RuntimeError, match="chunk-000002"):
            self._profile(directory, tiny_fae_config)
        pool = _chaos_pool(max_task_leases=2)
        with pytest.raises(TaskQuarantinedError) as excinfo:
            self._profile(directory, tiny_fae_config, pool=pool)
        assert excinfo.value.task_ids == [2]
        reasons = [e["reason"] for e in pool.events.events if e["event"] == "quarantine"]
        assert len(reasons) == 1 and "RuntimeError" in reasons[0]
        assert "chunk-000002.npz" in reasons[0]

    def test_flip_in_dense_passes_both_ways_with_identical_profiles(
        self, tmp_path, tiny_log, tiny_fae_config, flip_member_byte
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        clean = self._profile(directory, tiny_fae_config)
        flip_member_byte(directory / "chunk-000002.npz", "dense")
        sequential = self._profile(directory, tiny_fae_config)
        pool = _chaos_pool()
        parallel = self._profile(directory, tiny_fae_config, pool=pool)
        assert pool.events.count("quarantine") == 0
        assert sorted(clean.tables) == sorted(sequential.tables) == sorted(parallel.tables)
        for name, table in clean.tables.items():
            assert sequential.tables[name].counts.tobytes() == table.counts.tobytes()
            assert parallel.tables[name].counts.tobytes() == table.counts.tobytes()
        assert parallel.num_sampled_inputs == sequential.num_sampled_inputs

    @pytest.mark.parametrize("flaw", ["manifest_count", "id_out_of_range"])
    def test_worker_applies_the_manifest_and_range_checks(
        self, tmp_path, tiny_log, tiny_fae_config, flaw
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        if flaw == "manifest_count":
            manifest = json.loads((directory / "manifest.json").read_text())
            manifest["shards"][1]["num_samples"] -= 1
            (directory / "manifest.json").write_text(json.dumps(manifest))
        else:
            with np.load(directory / "chunk-000001.npz") as archive:
                members = {name: archive[name] for name in archive.files}
            # Stored at table width: the bad id fits the dtype, not the table.
            assert members["sparse_table_00"].dtype == np.uint16
            members["sparse_table_00"][5, 0] = 600
            np.savez_compressed(directory / "chunk-000001.npz", **members)
        error = RuntimeError if flaw == "manifest_count" else ValueError
        with pytest.raises(error, match="chunk-000001"):
            self._profile(directory, tiny_fae_config)
        pool = WorkerPool(ElasticConfig(workers=1))  # in-process: same task function
        with pytest.raises(TaskQuarantinedError):
            self._profile(directory, tiny_fae_config, pool=pool)
        reasons = [e["reason"] for e in pool.events.events if e["event"] == "quarantine"]
        assert len(reasons) == 1 and reasons[0].startswith(error.__name__)
        assert "chunk-000001.npz" in reasons[0]


# ----------------------------------------------------------------------
# Integration: rank death + rejoin in the distributed FAE trainer
# ----------------------------------------------------------------------


def small_dlrm(schema, seed=3):
    return DLRM(schema, DLRMConfig("4-8", "8-1", seed=seed))


@pytest.fixture(scope="module")
def fae_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.2, seed=4)
    plan = fae_preprocess(train, config, batch_size=64, drop_last=True)
    return tiny_log.schema, train, test, plan


class TestElasticRejoin:
    def test_rank_death_rejoins_at_segment_boundary(self, fae_setup):
        schema, train, test, plan = fae_setup
        events = SupervisorEventLog()
        rejoins_before = counter_value("resilience.elastic.rejoins")
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(3)],
            plan,
            lr=0.15,
            # Call 10 is the 10th step's exchange: a step is one collective.
            fault_plan=FaultPlan(seed=7, rank_death=(1, 10)),
            rejoin=True,
            event_log=events,
        )
        result = trainer.train(train, test, epochs=1)

        # The rank died, then was re-admitted: the run *finishes* at full
        # world size even though it shrank mid-flight.
        assert result.world_shrinks == 1
        assert result.rejoins == 1
        assert trainer.world_size == 3
        assert len(trainer.replicas) == 3
        assert counter_value("resilience.elastic.rejoins") == rejoins_before + 1
        assert get_registry().gauge("dist.world_size").value == 3
        assert events.count("death") == 1
        assert events.count("rejoin") == 1
        rejoin = next(r for r in events.events if r["event"] == "rejoin")
        assert rejoin["world_size"] == 3
        assert np.isfinite(result.final_test_accuracy)

        # Survivors and the rejoined rank are bit-equal on dense params.
        reference = trainer.replicas[0].dense_parameters()
        for model in trainer.replicas[1:]:
            for p, q in zip(reference, model.dense_parameters()):
                np.testing.assert_array_equal(q.value, p.value)

        # Final quality matches an uninterrupted run closely: only the
        # segments trained at world size 2 differ.
        baseline = DistributedFAETrainer(
            [small_dlrm(schema, seed=7) for _ in range(3)], plan, lr=0.15
        ).train(train, test, epochs=1)
        assert result.final_test_accuracy == pytest.approx(
            baseline.final_test_accuracy, abs=1e-2
        )
        assert result.history.final.test_loss == pytest.approx(
            baseline.history.final.test_loss, abs=1e-3
        )

    def test_rejoin_after_eviction_stays_cold(self, fae_setup):
        schema, train, test, plan = fae_setup
        trainer = DistributedFAETrainer(
            [small_dlrm(schema, seed=9) for _ in range(3)],
            plan,
            lr=0.15,
            # The rank dies in the 10th step's exchange (one collective per
            # step), so after the eviction at iteration 5.
            fault_plan=FaultPlan(seed=9, rank_death=(1, 10), hot_eviction_at=5),
            rejoin=True,
        )
        result = trainer.train(train, test, epochs=1)
        assert result.degraded
        assert result.rejoins == 1
        assert trainer.world_size == 3
        # The rejoined rank trains on the cold path like everyone else;
        # no hot replica may exist after eviction.
        assert trainer.replicator.evicted
        assert trainer.replicator.num_replicas == 0
        assert np.isfinite(result.final_test_accuracy)
