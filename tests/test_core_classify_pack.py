"""Unit tests for the Embedding Classifier, Input Processor, and FAE format."""

import numpy as np
import pytest

from repro.core import (
    EmbeddingClassifier,
    FAEConfig,
    InputProcessor,
    all_hot_batch_probability,
    fae_preprocess,
    load_fae_dataset,
    save_fae_dataset,
)
from repro.core.allocation import greedy_product_allocation
from repro.core.calibrator import Calibrator
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name


@pytest.fixture(scope="module")
def calibrated(tiny_log_module, tiny_config_module):
    output = Calibrator(tiny_config_module).calibrate(tiny_log_module)
    bags = EmbeddingClassifier(tiny_config_module).classify(
        output.profile, output.threshold
    )
    return output, bags


@pytest.fixture(scope="module")
def tiny_log_module(request):
    return request.getfixturevalue("tiny_log")


@pytest.fixture(scope="module")
def tiny_config_module(request):
    return request.getfixturevalue("tiny_fae_config")


class TestEmbeddingClassifier:
    def test_every_table_gets_a_bag(self, calibrated, tiny_log_module):
        _, bags = calibrated
        assert set(bags) == set(tiny_log_module.schema.table_names)

    def test_small_table_fully_hot(self, calibrated):
        _, bags = calibrated
        assert bags["table_02"].whole_table
        assert bags["table_02"].num_hot == 12

    def test_hot_ids_sorted_unique(self, calibrated):
        _, bags = calibrated
        for bag in bags.values():
            assert np.all(np.diff(bag.hot_ids) > 0)

    def test_hot_ids_meet_threshold(self, calibrated, tiny_log_module):
        output, bags = calibrated
        profile = output.profile
        for name, table_profile in profile.tables.items():
            cutoff = profile.min_count_for_threshold(output.threshold, name)
            hot = bags[name].hot_ids
            assert np.all(table_profile.counts[hot] >= cutoff)
            cold = np.setdiff1d(np.arange(bags[name].num_rows), hot)
            assert np.all(table_profile.counts[cold] < cutoff)

    def test_total_hot_bytes_fits_budget(self, calibrated, tiny_config_module):
        _, bags = calibrated
        total = EmbeddingClassifier.total_hot_bytes(bags)
        # The optimizer budgets against an upper CI; exact size may exceed
        # the estimate slightly but must stay in the same ballpark.
        assert total <= tiny_config_module.gpu_memory_budget * 1.2

    def test_hot_mask_roundtrip(self, calibrated):
        _, bags = calibrated
        bag = bags["table_00"]
        mask = bag.hot_mask()
        np.testing.assert_array_equal(np.flatnonzero(mask), bag.hot_ids)


class TestAllHotProbability:
    def test_fig4_collapse(self):
        """Fig 4: P(all-hot) collapses as the batch grows."""
        assert all_hot_batch_probability(0.99, 1) == pytest.approx(0.99)
        assert all_hot_batch_probability(0.99, 256) < 0.1
        assert all_hot_batch_probability(0.99, 1024) < 1e-4

    def test_monotone_in_batch(self):
        probs = [all_hot_batch_probability(0.98, b) for b in (1, 4, 16, 64, 256)]
        assert probs == sorted(probs, reverse=True)

    def test_edges(self):
        assert all_hot_batch_probability(1.0, 10_000) == 1.0
        assert all_hot_batch_probability(0.0, 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            all_hot_batch_probability(1.2, 4)
        with pytest.raises(ValueError):
            all_hot_batch_probability(0.5, 0)


class TestInputProcessor:
    def test_hot_inputs_only_touch_hot_rows(self, calibrated, tiny_log_module):
        _, bags = calibrated
        processor = InputProcessor(bags, seed=0)
        hot_mask = processor.classify_inputs(tiny_log_module)
        masks = {name: bag.hot_mask() for name, bag in bags.items()}
        hot_rows = np.flatnonzero(hot_mask)[:200]
        for i in hot_rows:
            for name, ids in tiny_log_module.sparse.items():
                assert masks[name][ids[i]].all()

    def test_cold_inputs_touch_a_cold_row(self, calibrated, tiny_log_module):
        _, bags = calibrated
        processor = InputProcessor(bags, seed=0)
        hot_mask = processor.classify_inputs(tiny_log_module)
        masks = {name: bag.hot_mask() for name, bag in bags.items()}
        cold_rows = np.flatnonzero(~hot_mask)[:200]
        for i in cold_rows:
            touches_cold = any(
                not masks[name][ids[i]].all()
                for name, ids in tiny_log_module.sparse.items()
            )
            assert touches_cold

    def test_pack_partitions_every_input(self, calibrated, tiny_log_module):
        _, bags = calibrated
        dataset = InputProcessor(bags, seed=0).pack(tiny_log_module, batch_size=64)
        packed = np.concatenate(dataset.hot_batches + dataset.cold_batches)
        assert len(packed) == len(tiny_log_module)
        assert len(np.unique(packed)) == len(tiny_log_module)

    def test_pack_purity(self, calibrated, tiny_log_module):
        _, bags = calibrated
        dataset = InputProcessor(bags, seed=0).pack(tiny_log_module, batch_size=64)
        for batch in dataset.hot_batches:
            assert dataset.hot_mask[batch].all()
        for batch in dataset.cold_batches:
            assert not dataset.hot_mask[batch].any()

    def test_drop_last(self, calibrated, tiny_log_module):
        _, bags = calibrated
        dataset = InputProcessor(bags, seed=0).pack(
            tiny_log_module, batch_size=64, drop_last=True
        )
        assert all(len(b) == 64 for b in dataset.hot_batches)
        assert all(len(b) == 64 for b in dataset.cold_batches)

    def test_batch_size_validation(self, calibrated, tiny_log_module):
        _, bags = calibrated
        with pytest.raises(ValueError):
            InputProcessor(bags).pack(tiny_log_module, batch_size=0)

    def test_missing_bag_raises(self, calibrated, tiny_log_module):
        _, bags = calibrated
        partial = {k: v for k, v in bags.items() if k != "table_00"}
        with pytest.raises(KeyError):
            InputProcessor(partial).classify_inputs(tiny_log_module)

    def test_hot_fraction_statistics(self, calibrated, tiny_log_module):
        _, bags = calibrated
        dataset = InputProcessor(bags, seed=0).pack(tiny_log_module, batch_size=64)
        assert 0 < dataset.hot_input_fraction < 1
        assert dataset.num_hot_inputs + (
            dataset.num_inputs - dataset.num_hot_inputs
        ) == len(tiny_log_module)


class TestFAEFormat:
    def test_roundtrip(self, tiny_plan, tmp_path):
        path = tmp_path / "dataset.npz"
        save_fae_dataset(path, tiny_plan.dataset, tiny_plan.bags, tiny_plan.threshold)
        dataset, bags, threshold = load_fae_dataset(path)
        assert threshold == tiny_plan.threshold
        assert dataset.batch_size == tiny_plan.dataset.batch_size
        np.testing.assert_array_equal(dataset.hot_mask, tiny_plan.dataset.hot_mask)
        assert len(dataset.hot_batches) == len(tiny_plan.dataset.hot_batches)
        for a, b in zip(dataset.hot_batches, tiny_plan.dataset.hot_batches):
            np.testing.assert_array_equal(a, b)
        assert set(bags) == set(tiny_plan.bags)
        for name in bags:
            np.testing.assert_array_equal(bags[name].hot_ids, tiny_plan.bags[name].hot_ids)
            assert bags[name].whole_table == tiny_plan.bags[name].whole_table

    def test_plan_save_helper(self, tiny_plan, tmp_path):
        path = tmp_path / "plan.npz"
        tiny_plan.save(path)
        _dataset, _bags, threshold = load_fae_dataset(path)
        assert threshold == tiny_plan.threshold

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_fae_dataset(tmp_path / "missing.npz")


class TestPipeline:
    def test_plan_summary_fields(self, tiny_plan, tiny_fae_config):
        assert tiny_plan.threshold in tiny_fae_config.threshold_grid
        assert tiny_plan.hot_bytes > 0
        assert 0 < tiny_plan.hot_input_fraction < 1
        summary = tiny_plan.summary()
        assert "hot" in summary

    def test_default_config(self, tiny_log):
        # The paper-default config has a 1 MiB large-table cutoff, so the
        # tiny tables are all de-facto hot and everything is hot.
        plan = fae_preprocess(tiny_log, batch_size=128)
        assert plan.hot_input_fraction == 1.0
        assert len(plan.dataset.cold_batches) == 0

    @pytest.mark.parametrize(
        "dataset, samples, seed, hot_inputs, hot_fraction",
        [("criteo-kaggle", 8000, 7, 3648, 0.456)],
    )
    def test_hot_input_fraction_pinned(self, dataset, samples, seed, hot_inputs, hot_fraction):
        """Host-independent output of the canonical CI-sized preprocess shape."""
        log = SyntheticClickLog(
            dataset_by_name(dataset, "tiny"),
            SyntheticConfig(num_samples=samples, seed=seed),
        )
        config = FAEConfig(
            gpu_memory_budget=256 * 1024,
            large_table_min_bytes=1024,
            chunk_size=64,
            seed=seed,
        )
        plan = fae_preprocess(log, config, batch_size=256)
        assert plan.dataset.num_hot_inputs == hot_inputs
        assert plan.hot_input_fraction == hot_fraction


class TestAllocationPolicies:
    def test_greedy_product_through_main_api(self, tiny_log, tiny_fae_config):
        threshold_plan = fae_preprocess(tiny_log, tiny_fae_config, batch_size=64)
        profile = threshold_plan.calibration.profile
        greedy = greedy_product_allocation(profile, tiny_fae_config.gpu_memory_budget)
        bags = greedy.to_bag_specs(profile)
        hot = InputProcessor(bags, seed=tiny_fae_config.seed).classify_inputs(tiny_log)
        # Same budget; the product-optimal policy never loses hot inputs.
        assert EmbeddingClassifier.total_hot_bytes(bags) <= tiny_fae_config.gpu_memory_budget * 1.01
        assert hot.mean() >= threshold_plan.hot_input_fraction - 0.01
