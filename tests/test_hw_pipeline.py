"""Tests for the overlap-aware pipeline simulator."""

import pytest

from repro.hw import Cluster, PipelinedSimulator, TrainingSimulator, characterize
from repro.hw.pipeline import Resource, Task, schedule
from repro.models import workload_by_name


@pytest.fixture(scope="module")
def rmc2():
    return characterize(workload_by_name("RMC2"))


class TestScheduler:
    def test_serial_chain(self):
        r = {"a": Resource("a")}
        t1 = Task("t1", "a", 2.0)
        t2 = Task("t2", "a", 3.0, [t1])
        result = schedule([t1, t2], r)
        assert result.makespan == 5.0
        assert t2.start == 2.0

    def test_parallel_resources_overlap(self):
        r = {"a": Resource("a"), "b": Resource("b")}
        t1 = Task("t1", "a", 2.0)
        t2 = Task("t2", "b", 2.0)  # independent, different resource
        result = schedule([t1, t2], r)
        assert result.makespan == 2.0
        assert result.utilization["a"] == 1.0

    def test_resource_serialization(self):
        r = {"a": Resource("a")}
        t1 = Task("t1", "a", 2.0)
        t2 = Task("t2", "a", 2.0)  # independent but same resource
        result = schedule([t1, t2], r)
        assert result.makespan == 4.0

    def test_dependency_across_resources(self):
        r = {"a": Resource("a"), "b": Resource("b")}
        t1 = Task("t1", "a", 2.0)
        t2 = Task("t2", "b", 1.0, [t1])
        result = schedule([t1, t2], r)
        assert t2.start == 2.0
        assert result.makespan == 3.0

    def test_unscheduled_dep_rejected(self):
        r = {"a": Resource("a")}
        t1 = Task("t1", "a", 1.0)
        t2 = Task("t2", "a", 1.0, [t1])
        with pytest.raises(ValueError):
            schedule([t2, t1], r)  # wrong order

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Task("bad", "a", -1.0)

    def test_critical_resource(self):
        r = {"a": Resource("a"), "b": Resource("b")}
        t1 = Task("t1", "a", 5.0)
        t2 = Task("t2", "b", 1.0)
        result = schedule([t1, t2], r)
        assert result.critical_resource() == "a"


class TestPipelinedSimulator:
    def test_pipelined_not_slower_than_serial(self, rmc2):
        cluster = Cluster(num_gpus=1)
        pipe = PipelinedSimulator(cluster, rmc2)
        serial = TrainingSimulator(cluster, rmc2)
        n = 32
        pipelined = pipe.baseline_epoch(max_batches=n).makespan
        serial_time = serial.baseline_batch().total * n
        assert pipelined <= serial_time * 1.001

    def test_cpu_is_baseline_critical_resource(self, rmc2):
        pipe = PipelinedSimulator(Cluster(num_gpus=1), rmc2)
        result = pipe.baseline_epoch(max_batches=32)
        assert result.critical_resource() == "cpu"

    def test_gpu_is_fae_hot_critical_resource(self, rmc2):
        from dataclasses import replace

        all_hot = replace(rmc2, hot_fraction=1.0)
        pipe = PipelinedSimulator(Cluster(num_gpus=1), all_hot)
        result = pipe.fae_epoch(max_batches=32)
        assert result.critical_resource() == "gpu"

    def test_fae_advantage_survives_overlap(self, rmc2):
        """The paper's win is not an artifact of serial accounting."""
        pipe = PipelinedSimulator(Cluster(num_gpus=1), rmc2)
        n = 64
        baseline = pipe.baseline_epoch(max_batches=n).makespan
        fae = pipe.fae_epoch(max_batches=n).makespan
        assert fae < baseline

    def test_lookahead_validation(self, rmc2):
        with pytest.raises(ValueError):
            PipelinedSimulator(Cluster(), rmc2, lookahead=0)

    def test_deeper_lookahead_helps_or_equal(self, rmc2):
        shallow = PipelinedSimulator(Cluster(num_gpus=1), rmc2, lookahead=1)
        deep = PipelinedSimulator(Cluster(num_gpus=1), rmc2, lookahead=4)
        n = 32
        assert (
            deep.baseline_epoch(max_batches=n).makespan
            <= shallow.baseline_epoch(max_batches=n).makespan * 1.001
        )

    def test_utilization_fractions_valid(self, rmc2):
        pipe = PipelinedSimulator(Cluster(num_gpus=2), rmc2)
        result = pipe.baseline_epoch(max_batches=16)
        for fraction in result.utilization.values():
            assert 0.0 <= fraction <= 1.0
