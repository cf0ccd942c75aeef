"""Tests for drift detection and recalibration support."""

import numpy as np
import pytest

from repro.core import (
    DriftDetector,
    fae_preprocess,
    recalibration_diff,
)
from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.input_processor import InputProcessor
from repro.core.sampler import SparseInputSampler
from repro.data import SyntheticClickLog, SyntheticConfig
from repro.obs import get_registry


@pytest.fixture(scope="module")
def plan_and_log(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    plan = fae_preprocess(tiny_log, config, batch_size=64)
    return plan, tiny_log


class TestDriftDetector:
    def test_no_drift_on_same_distribution(self, plan_and_log, tiny_schema):
        plan, _log = plan_and_log
        # A fresh window from the SAME generative distribution (same seed
        # family -> same popularity permutation).
        window = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=1500, seed=11))
        detector = DriftDetector(plan.bags, plan.hot_input_fraction, seed=1)
        report = detector.check(window)
        assert not report.drifted
        assert abs(report.relative_drop) < 0.15
        assert set(report.per_table_coverage) == set(tiny_schema.table_names)

    def test_drift_on_shifted_popularity(self, plan_and_log, tiny_schema):
        plan, _log = plan_and_log
        # A different seed re-permutes item popularity: yesterday's hot
        # rows are no longer the popular ones.
        shifted = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=1500, seed=99))
        detector = DriftDetector(plan.bags, plan.hot_input_fraction, seed=1)
        report = detector.check(shifted)
        assert report.drifted
        assert report.hot_input_fraction < report.baseline_hot_input_fraction

    def test_coverage_bounds(self, plan_and_log, tiny_schema):
        plan, log = plan_and_log
        report = DriftDetector(plan.bags, plan.hot_input_fraction).check(log)
        for name, coverage in report.per_table_coverage.items():
            assert 0.0 <= coverage <= 1.0
        # The small always-hot table covers everything.
        assert report.per_table_coverage["table_02"] == 1.0

    def test_worst_table(self, plan_and_log, tiny_schema):
        plan, log = plan_and_log
        report = DriftDetector(plan.bags, plan.hot_input_fraction).check(log)
        worst = report.worst_table()
        assert report.per_table_coverage[worst] == min(report.per_table_coverage.values())

    def test_tolerance_validation(self, plan_and_log):
        plan, _ = plan_and_log
        with pytest.raises(ValueError):
            DriftDetector(plan.bags, plan.hot_input_fraction, tolerance=0.0)
        with pytest.raises(ValueError):
            DriftDetector(plan.bags, 1.5)

    def test_recalibration_restores_coverage(self, plan_and_log, tiny_schema, tiny_fae_config):
        """After drift, recalibrating on new traffic removes the flag."""
        plan, _ = plan_and_log
        shifted = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=3000, seed=99))
        new_plan = fae_preprocess(shifted, tiny_fae_config, batch_size=64)
        detector = DriftDetector(new_plan.bags, new_plan.hot_input_fraction, seed=2)
        window = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=1500, seed=99))
        assert not detector.check(window).drifted

    def test_check_classifies_only_its_sample_and_writes_no_training_metric(
        self, tiny_log, tiny_fae_config, tiny_schema
    ):
        """A check is not a training pass: the classify counters and the
        training hot-fraction gauge keep what the preprocess wrote, and the
        report equals classifying the whole window, then reading the sample."""
        plan = fae_preprocess(tiny_log, tiny_fae_config, batch_size=64)
        registry = get_registry()
        written = {
            "gauge": registry.gauge("train.batch.hot_fraction").value,
            "inputs": registry.counter("classify.inputs").value,
            "hot": registry.counter("classify.hot_inputs").value,
        }
        assert written["gauge"] == pytest.approx(plan.hot_input_fraction)
        window = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=3000, seed=99))
        report = DriftDetector(plan.bags, plan.hot_input_fraction, seed=1).check(window)
        assert {
            "gauge": registry.gauge("train.batch.hot_fraction").value,
            "inputs": registry.counter("classify.inputs").value,
            "hot": registry.counter("classify.hot_inputs").value,
        } == written

        indices = SparseInputSampler(0.2, seed=1).sample(window).indices
        whole = InputProcessor(plan.bags, seed=1).classify_inputs(window)
        assert report.hot_input_fraction == float(whole[indices].mean())
        for name, ids in window.sparse.items():
            hits = plan.bags[name].hot_mask()[ids[indices]].mean()
            assert report.per_table_coverage[name] == float(hits)


class TestCheckSource:
    """One ``check`` per chunk of a multi-day ShardChunkSource (one shard
    per day) pinpoints the day coverage broke."""

    @pytest.fixture(scope="class")
    def day_source(self, tiny_schema, tmp_path_factory):
        from repro.data.shift import popularity_shift_days, write_day_shards

        days = popularity_shift_days(
            tiny_schema, samples_per_day=1200, num_days=4, shift_day=2, seed=12
        )
        directory = tmp_path_factory.mktemp("day-shards")
        return days, write_day_shards(directory, days)

    def test_flags_rotated_days_not_before(self, day_source, tiny_fae_config):
        days, source = day_source
        plan = fae_preprocess(days[0], tiny_fae_config, batch_size=64)
        detector = DriftDetector(
            plan.bags, plan.hot_input_fraction, tolerance=0.6, seed=1
        )
        reports = [detector.check(chunk) for _start, chunk in source]
        # Days 0-1 draw from the calibrated head; days 2-3 are rotated.
        assert [report.drifted for report in reports] == [False, False, True, True]

    def test_rotated_day_collapses_hot_fraction(self, day_source, tiny_fae_config):
        days, source = day_source
        plan = fae_preprocess(days[0], tiny_fae_config, batch_size=64)
        detector = DriftDetector(
            plan.bags, plan.hot_input_fraction, tolerance=0.6, seed=1
        )
        reports = [detector.check(chunk) for _start, chunk in source]
        assert (
            reports[2].hot_input_fraction
            < reports[1].hot_input_fraction
        )
        assert reports[2].relative_drop > 0.6


class TestRecalibrationDiff:
    def bag(self, ids, num_rows=20):
        return HotEmbeddingBagSpec(
            table_name="t",
            hot_ids=np.array(sorted(ids), dtype=np.int64),
            num_rows=num_rows,
            dim=4,
            whole_table=False,
        )

    def test_added_and_removed(self):
        old = {"t": self.bag([1, 2, 3])}
        new = {"t": self.bag([2, 3, 4, 5])}
        assert recalibration_diff(old, new) == {"t": (2, 1)}

    def test_identical_bags(self):
        bags = {"t": self.bag([1, 7])}
        assert recalibration_diff(bags, bags) == {"t": (0, 0)}

    def test_mismatched_tables_rejected(self):
        with pytest.raises(KeyError):
            recalibration_diff({"a": self.bag([1])}, {"b": self.bag([1])})

    def test_real_recalibration_diff(self, plan_and_log, tiny_schema, tiny_fae_config):
        plan, _ = plan_and_log
        shifted = SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=3000, seed=99))
        new_plan = fae_preprocess(shifted, tiny_fae_config, batch_size=64)
        diff = recalibration_diff(plan.bags, new_plan.bags)
        # The popularity permutation moved, so the large tables' hot sets
        # must change substantially; the whole-table bag must not.
        assert diff["table_00"][0] > 0
        assert diff["table_02"] == (0, 0)
