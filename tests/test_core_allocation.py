"""Tests for hot-budget allocation strategies."""

import numpy as np
import pytest

from repro.core import EmbeddingLogger, FAEConfig, InputProcessor
from repro.core.allocation import greedy_product_allocation, threshold_allocation
from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.schema import DatasetSchema, EmbeddingTableSpec


@pytest.fixture(scope="module")
def seq_profile():
    """A TBSM-shaped schema: one multiplicity-21 table, one mult-1 table."""
    schema = DatasetSchema(
        name="seq",
        num_dense=2,
        tables=(
            EmbeddingTableSpec("users", num_rows=800, dim=8, zipf_exponent=1.05),
            EmbeddingTableSpec(
                "items", num_rows=1200, dim=8, zipf_exponent=1.05, multiplicity=21
            ),
        ),
        num_samples=6000,
    )
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=6000, seed=4))
    config = FAEConfig(large_table_min_bytes=512, chunk_size=32)
    profile = EmbeddingLogger(config).profile(log, np.arange(len(log)))
    return profile, log


BUDGET = 24 * 1024


class TestThresholdAllocation:
    def test_fits_budget(self, seq_profile):
        profile, _log = seq_profile
        allocation = threshold_allocation(profile, BUDGET)
        assert allocation.bytes_used <= BUDGET
        assert set(allocation.hot_rows) == {"users", "items"}

    def test_monotone_in_budget(self, seq_profile):
        profile, _log = seq_profile
        small = threshold_allocation(profile, BUDGET // 2)
        large = threshold_allocation(profile, BUDGET)
        for name in small.hot_rows:
            assert large.hot_rows[name] >= small.hot_rows[name]

    def test_impossible_budget(self, seq_profile):
        profile, _log = seq_profile
        # make a profile whose small tables exceed the budget: use the
        # real one but budget 0.
        with pytest.raises(ValueError):
            threshold_allocation(profile, -1)


class TestGreedyProductAllocation:
    def test_fits_budget(self, seq_profile):
        profile, _log = seq_profile
        allocation = greedy_product_allocation(profile, BUDGET)
        assert allocation.bytes_used <= BUDGET

    def test_beats_or_matches_threshold_objective(self, seq_profile):
        """The greedy optimizes the true objective; it can only win."""
        profile, _log = seq_profile
        greedy = greedy_product_allocation(profile, BUDGET)
        threshold = threshold_allocation(profile, BUDGET)
        assert greedy.log_hot_fraction >= threshold.log_hot_fraction - 1e-9

    def test_favours_high_multiplicity_table(self, seq_profile):
        """The 21-lookup table should get disproportionate coverage."""
        profile, _log = seq_profile
        greedy = greedy_product_allocation(profile, BUDGET)
        threshold = threshold_allocation(profile, BUDGET)

        def coverage(alloc, name):
            counts = np.sort(profile.tables[name].counts)[::-1]
            k = alloc.hot_rows[name]
            return counts[:k].sum() / counts.sum()

        # Greedy gives the sequence table at least the threshold rule's
        # coverage (it pays off 21x in the product).
        assert coverage(greedy, "items") >= coverage(threshold, "items") - 1e-12

    def test_measured_hot_fraction_improves(self, seq_profile):
        """The predicted gain shows up in actual input classification."""
        profile, log = seq_profile
        greedy = greedy_product_allocation(profile, BUDGET)
        threshold = threshold_allocation(profile, BUDGET)
        greedy_mask = InputProcessor(greedy.to_bag_specs(profile)).classify_inputs(log)
        threshold_mask = InputProcessor(threshold.to_bag_specs(profile)).classify_inputs(log)
        assert greedy_mask.mean() >= threshold_mask.mean() - 0.01

    def test_prediction_matches_measurement(self, seq_profile):
        profile, log = seq_profile
        allocation = greedy_product_allocation(profile, BUDGET)
        mask = InputProcessor(allocation.to_bag_specs(profile)).classify_inputs(log)
        # The product model assumes per-table independence; the planted
        # generator draws tables independently, so it should be close.
        assert np.exp(allocation.log_hot_fraction) == pytest.approx(
            mask.mean(), abs=0.1
        )

    def test_block_granularity(self, seq_profile):
        profile, _log = seq_profile
        fine = greedy_product_allocation(profile, BUDGET, block_rows=4)
        coarse = greedy_product_allocation(profile, BUDGET, block_rows=64)
        # Finer blocks can only match or improve the objective.
        assert fine.log_hot_fraction >= coarse.log_hot_fraction - 1e-6

    def test_bag_specs_valid(self, seq_profile):
        profile, _log = seq_profile
        allocation = greedy_product_allocation(profile, BUDGET)
        bags = allocation.to_bag_specs(profile)
        for name, bag in bags.items():
            assert np.all(np.diff(bag.hot_ids) > 0)
            assert bag.num_hot == allocation.hot_rows.get(name, bag.num_hot)

    def test_bad_block_rows(self, seq_profile):
        profile, _log = seq_profile
        with pytest.raises(ValueError):
            greedy_product_allocation(profile, BUDGET, block_rows=0)

    def test_large_budget_reaches_full_coverage(self, seq_profile):
        profile, _log = seq_profile
        allocation = greedy_product_allocation(profile, 10**9)
        # The greedy stops once coverage is 1.0: rows with zero sampled
        # accesses add nothing to the objective and stay cold.
        for name, table_profile in profile.tables.items():
            accessed = int(np.count_nonzero(table_profile.counts))
            assert allocation.hot_rows[name] >= accessed
        assert np.exp(allocation.log_hot_fraction) == pytest.approx(1.0)
