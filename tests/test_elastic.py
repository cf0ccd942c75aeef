"""Tests for elastic distributed training (repro.resilience.elastic).

Covers the schema-versioned event log of rank deaths and rejoins, and
the integration guarantee it records: a distributed run that loses a
rank re-admits it at the next segment boundary and finishes at full
world size.
"""

import json

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.data import train_test_split
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.obs.metrics import get_registry
from repro.resilience import FaultPlan, SupervisorEventLog
from repro.resilience.elastic import ELASTIC_EVENT_VERSION


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


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
