"""Unit tests for the FAE calibration pipeline: sampler, logger, Rand-Em
Box, statistical optimizer, and the Calibrator facade."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Calibrator,
    EmbeddingLogger,
    FAEConfig,
    RandEmBox,
    SparseInputSampler,
    StatisticalOptimizer,
)
from repro.core.access_profile import AccessProfile, TableProfile
from repro.core.optimizer import CalibrationResult, ThresholdEvaluation
from repro.core.randem_box import HotSizeEstimate
from repro.data import ClickLog, LogChunkSource, SyntheticClickStream, save_log_shards
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.obs import tracing


class TestSparseInputSampler:
    def test_sample_rate_respected(self, tiny_log):
        result = SparseInputSampler(0.1, seed=0).sample(tiny_log)
        assert result.num_sampled == round(0.1 * len(tiny_log))
        assert result.rate == pytest.approx(0.1, rel=0.02)

    def test_indices_sorted_unique_in_range(self, tiny_log):
        result = SparseInputSampler(0.25, seed=1).sample(tiny_log)
        idx = result.indices
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < len(tiny_log)

    def test_deterministic(self, tiny_log):
        a = SparseInputSampler(0.1, seed=7).sample(tiny_log).indices
        b = SparseInputSampler(0.1, seed=7).sample(tiny_log).indices
        np.testing.assert_array_equal(a, b)

    def test_sample_all(self, tiny_log):
        result = SparseInputSampler(0.1).sample_all(tiny_log)
        assert result.num_sampled == len(tiny_log)

    def test_at_least_one_sample(self, tiny_log):
        result = SparseInputSampler(1e-9, seed=0).sample(tiny_log)
        assert result.num_sampled >= 1

    @pytest.mark.parametrize("rate", [0.0, 1.5, -0.1])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            SparseInputSampler(rate)


class TestEmbeddingLogger:
    def test_profiles_only_large_tables(self, tiny_log, tiny_fae_config):
        logger = EmbeddingLogger(tiny_fae_config)
        profile = logger.profile(tiny_log, np.arange(len(tiny_log)))
        # table_02 (12 rows x 8 dim x 4B = 384B) is under the 1 KiB cutoff.
        assert set(profile.tables) == {"table_00", "table_01"}

    def test_counts_match_ground_truth(self, tiny_log, tiny_fae_config):
        logger = EmbeddingLogger(tiny_fae_config)
        profile = logger.profile(tiny_log, np.arange(len(tiny_log)))
        np.testing.assert_array_equal(
            profile.tables["table_00"].counts, tiny_log.access_counts("table_00")
        )

    def test_sampled_counts_subset(self, tiny_log, tiny_fae_config):
        indices = np.arange(100)
        profile = EmbeddingLogger(tiny_fae_config).profile(tiny_log, indices)
        assert profile.tables["table_00"].counts.sum() == 100
        assert profile.num_sampled_inputs == 100

    def test_empty_sample_rejected(self, tiny_log, tiny_fae_config):
        with pytest.raises(ValueError):
            EmbeddingLogger(tiny_fae_config).profile(tiny_log, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("outside", [-1, 4000])
    def test_position_outside_the_source_rejected(self, tiny_log, tiny_fae_config, outside):
        indices = np.sort(np.array([0, 17, outside]))
        with pytest.raises(ValueError, match=r"\[0, 4000\)"):
            EmbeddingLogger(tiny_fae_config).profile(tiny_log, indices)

    def test_sampled_profile_tracks_full_profile(self, tiny_log, tiny_fae_config):
        """Fig 7's claim: a random sample reproduces the access signature."""
        logger = EmbeddingLogger(tiny_fae_config)
        full = logger.profile(tiny_log, np.arange(len(tiny_log)))
        sample_idx = SparseInputSampler(0.3, seed=5).sample(tiny_log).indices
        sampled = logger.profile(tiny_log, sample_idx)
        full_ranks = full.tables["table_00"].rank_frequency(50).astype(float)
        sampled_ranks = sampled.tables["table_00"].rank_frequency(50).astype(float)
        # Normalized rank-frequency curves should correlate strongly.
        full_ranks /= full_ranks.sum()
        sampled_ranks /= sampled_ranks.sum()
        corr = np.corrcoef(full_ranks, sampled_ranks)[0, 1]
        assert corr > 0.98


class TestProfileReadsAnySource:
    """``EmbeddingLogger.profile`` is one chunked pass, whatever it reads
    and in whatever order the positions come."""

    @settings(max_examples=25, deadline=None)
    @given(
        chunk_size=st.integers(40, 1300),
        rate=st.floats(0.01, 1.0),
        seed=st.integers(0, 99),
    )
    def test_profile_equals_a_bincount_of_the_sampled_ids(
        self, tiny_schema, tiny_fae_config, chunk_size, rate, seed
    ):
        stream = SyntheticClickStream(
            tiny_schema, total_samples=1200, chunk_size=chunk_size, seed=seed
        )
        chunks = [chunk for _start, chunk in stream]
        log = ClickLog(
            tiny_schema,
            np.concatenate([c.dense for c in chunks]),
            {
                name: np.concatenate([c.sparse[name] for c in chunks])
                for name in tiny_schema.table_names
            },
            np.concatenate([c.labels for c in chunks]),
        )
        indices = SparseInputSampler(rate, seed=seed).sample(stream).indices
        logger = EmbeddingLogger(tiny_fae_config)
        large = tiny_schema.large_tables(tiny_fae_config.large_table_min_bytes)
        with tempfile.TemporaryDirectory() as tmp:
            shards = save_log_shards(Path(tmp) / "shards", log, chunk_size=chunk_size)
            shuffled = np.random.default_rng(seed).permutation(indices)
            for source, positions in (
                (log, indices),
                (LogChunkSource(log, chunk_size), indices),
                (LogChunkSource(log, chunk_size), shuffled),
                (shards, indices),
                (stream, shuffled),
            ):
                profile = logger.profile(source, positions)
                assert profile.num_sampled_inputs == len(indices)
                assert profile.num_total_inputs == 1200
                assert list(profile.tables) == [spec.name for spec in large]
                for spec in large:
                    want = np.bincount(
                        log.sparse[spec.name][indices].ravel(), minlength=spec.num_rows
                    )
                    np.testing.assert_array_equal(profile.tables[spec.name].counts, want)


class TestTableProfile:
    def test_skew_statistics(self, tiny_log, tiny_fae_config):
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        table = profile.tables["table_00"]
        assert table.top_fraction_share(1.0) == pytest.approx(1.0)
        assert table.top_fraction_share(0.1) > 0.1  # skewed beyond uniform
        assert 0 < table.hot_access_share(2) <= 1

    def test_hot_mask_consistency(self):
        profile = TableProfile("t", np.array([5, 0, 3, 1]), dim=4)
        mask = profile.hot_mask(2)
        np.testing.assert_array_equal(mask, [True, False, True, False])
        assert profile.hot_row_count(2) == 2
        assert profile.hot_bytes(2) == 2 * 16

    def test_zero_access_edge(self):
        profile = TableProfile("t", np.zeros(4, dtype=np.int64), dim=2)
        assert profile.hot_access_share(1) == 0.0
        assert profile.top_fraction_share(0.5) == 0.0


class TestAccessProfile:
    def test_min_count_uses_multiplicity(self, tiny_log, tiny_fae_config):
        profile = EmbeddingLogger(tiny_fae_config).profile(tiny_log, np.arange(100))
        base = profile.min_count_for_threshold(0.01, "table_00")
        assert base == pytest.approx(0.01 * 100 * 1)

    def test_hot_bytes_monotone_in_threshold(self, tiny_log, tiny_fae_config):
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        sizes = [profile.hot_bytes_for_threshold(t) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert sizes == sorted(sizes)

    def test_small_tables_always_counted(self, tiny_log, tiny_fae_config, tiny_schema):
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        small_bytes = tiny_schema.table("table_02").size_bytes
        huge_threshold = profile.hot_bytes_for_threshold(1.0)
        assert huge_threshold >= small_bytes

    def test_validation(self, tiny_schema):
        with pytest.raises(ValueError):
            AccessProfile(tiny_schema, {}, num_sampled_inputs=0, num_total_inputs=10)
        with pytest.raises(ValueError):
            AccessProfile(tiny_schema, {}, num_sampled_inputs=20, num_total_inputs=10)


class TestRandEmBox:
    def test_small_table_exact(self, tiny_log, tiny_fae_config):
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        table = profile.tables["table_00"]
        box = RandEmBox(tiny_fae_config)
        estimate = box.estimate(table, min_count=3)
        # 600 rows <= 35 * 32 chunks -> exact path
        assert estimate.exact
        assert estimate.hot_rows_mean == table.hot_row_count(3)
        assert estimate.hot_rows_upper == estimate.hot_rows_lower

    def test_large_table_sampled_estimate_close(self):
        """Fig 9's claim: estimates within ~10% of ground truth."""
        rng = np.random.default_rng(0)
        counts = rng.zipf(1.5, size=400_000).astype(np.int64)
        profile = TableProfile("big", counts, dim=4)
        config = FAEConfig(chunk_size=1024, num_chunks=35)
        box = RandEmBox(config, seed=12)
        for min_count in (2, 5, 20):
            estimate = box.estimate(profile, min_count)
            truth = profile.hot_row_count(min_count)
            assert not estimate.exact
            assert estimate.hot_rows_mean == pytest.approx(truth, rel=0.15)
            assert estimate.rows_scanned == 35 * 1024

    def test_confidence_interval_brackets_truth_usually(self):
        rng = np.random.default_rng(3)
        counts = rng.zipf(1.4, size=300_000).astype(np.int64)
        profile = TableProfile("big", counts, dim=4)
        config = FAEConfig(chunk_size=1024, num_chunks=35)
        truth = profile.hot_row_count(4)
        hits = 0
        trials = 20
        for seed in range(trials):
            est = RandEmBox(config, seed=seed).estimate(profile, 4)
            if est.hot_rows_lower <= truth <= est.hot_rows_upper:
                hits += 1
        # 99.9% CI: essentially always brackets the truth.
        assert hits >= trials - 1

    def test_scan_reduction(self):
        profile = TableProfile("big", np.zeros(1_000_000, dtype=np.int64), dim=4)
        config = FAEConfig(chunk_size=1024, num_chunks=35)
        reduction = RandEmBox(config).scan_reduction(profile)
        assert reduction == pytest.approx(1_000_000 / (35 * 1024))

    def test_upper_bound_at_least_mean(self):
        rng = np.random.default_rng(1)
        counts = rng.zipf(1.3, size=200_000).astype(np.int64)
        profile = TableProfile("big", counts, dim=4)
        est = RandEmBox(FAEConfig(), seed=2).estimate(profile, 3)
        assert est.hot_rows_upper >= est.hot_rows_mean >= est.hot_rows_lower


def estimate_per_threshold_ref(box, profile, min_count):
    """``RandEmBox.estimate`` as it was when every threshold re-seeded the
    generator, redrew the chunk starts and re-gathered the counts."""
    n, m = box.config.num_chunks, box.config.chunk_size
    num_rows, row_bytes = profile.num_rows, profile.row_bytes()
    if num_rows <= n * m:
        hot = float(profile.hot_row_count(min_count))
        return HotSizeEstimate(
            profile.name, min_count, hot, hot, hot, hot * row_bytes, hot * row_bytes, num_rows, True
        )
    rng = np.random.default_rng(box.seed)
    starts = rng.integers(0, num_rows - m + 1, size=n)
    rows = starts[:, None] + np.arange(m)
    chunk_counts = (profile.counts[rows] >= min_count).sum(axis=1).astype(np.float64)
    mean = float(chunk_counts.mean())
    std = float(chunk_counts.std(ddof=1))
    half_width = box.config.t_value * std / np.sqrt(n)
    fraction_mean = mean / m
    fraction_upper = min(1.0, (mean + half_width) / m)
    fraction_lower = max(0.0, (mean - half_width) / m)
    return HotSizeEstimate(
        profile.name, min_count,
        fraction_mean * num_rows, fraction_upper * num_rows, fraction_lower * num_rows,
        fraction_mean * num_rows * row_bytes, fraction_upper * num_rows * row_bytes,
        n * m, False,
    )


def converge_per_threshold_ref(config, profile):
    """``StatisticalOptimizer.converge`` as it was before the sweep: one
    estimate per table per threshold, walked until the first overflow
    after a fit."""
    box = RandEmBox(config)
    small_bytes = sum(
        spec.size_bytes for spec in profile.schema.tables if spec.name not in profile.tables
    )
    evaluations, best = [], None
    for threshold in config.threshold_grid:
        estimates = tuple(
            estimate_per_threshold_ref(
                box, table, profile.min_count_for_threshold(threshold, name)
            )
            for name, table in profile.tables.items()
        )
        total_mean = total_upper = float(small_bytes)
        for est in estimates:
            total_mean += est.hot_bytes_mean
            total_upper += est.hot_bytes_upper
        evaluation = ThresholdEvaluation(
            threshold, total_mean, total_upper, total_upper <= config.gpu_memory_budget, estimates
        )
        evaluations.append(evaluation)
        if evaluation.fits:
            best = evaluation
        elif best is not None:
            break
    if best is None:
        budget = config.gpu_memory_budget
        if small_bytes > budget:
            why = f"the always-hot small tables alone take {small_bytes} B"
        else:
            why = (
                f"even the most selective threshold, {evaluations[0].threshold:g}, needs up to "
                f"{math.ceil(evaluations[0].estimated_bytes_upper)} B, {small_bytes} B of "
                "them the always-hot small tables"
            )
        raise ValueError(f"no threshold fits the GPU budget of {budget} B; {why}")
    return CalibrationResult(best.threshold, tuple(evaluations), config.gpu_memory_budget)


@st.composite
def sweep_cases(draw):
    """A profile of exact and sampled tables (some multi-hot) plus a box
    whose ``n x m`` falls among their sizes."""
    num_chunks, chunk_size = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs, tables = [], {}
    for i in range(draw(st.integers(1, 4))):
        spec = EmbeddingTableSpec(
            f"t{i}",
            num_rows=draw(st.integers(1, 3 * num_chunks * chunk_size)),
            dim=draw(st.sampled_from([1, 4, 16])),
            zipf_exponent=1.1,
            multiplicity=draw(st.integers(1, 3)),
        )
        top = draw(st.integers(0, 60))
        skewed = np.minimum(rng.zipf(1.3, size=spec.num_rows) - 1, top)
        flat = rng.integers(0, top + 1, size=spec.num_rows)
        specs.append(spec)
        tables[spec.name] = TableProfile(
            spec.name, skewed if draw(st.booleans()) else flat, spec.dim
        )
    specs.append(EmbeddingTableSpec("small", num_rows=draw(st.integers(1, 64)), dim=4))
    num_sampled = draw(st.integers(1, 200))
    schema = DatasetSchema(name="sweep", num_dense=1, tables=tuple(specs), num_samples=10_000)
    profile = AccessProfile(schema, tables, num_sampled, num_sampled * 3)
    return num_chunks, chunk_size, draw(st.integers(0, 99)), profile


def cutoffs_for(counts):
    """0, a count, between two counts, fractional anywhere, and above the max."""
    values = sorted(set(counts.tolist()))
    top = values[-1]
    return st.lists(
        st.one_of(
            st.just(0),
            st.sampled_from(values),
            st.sampled_from(values).map(lambda v: v + 0.5),
            st.floats(-2.0, top + 2.0, allow_nan=False),
            st.sampled_from([top + 1, top + 0.25, 10.0**9]),
        ),
        max_size=12,
    )


class TestSweep:
    """``RandEmBox.sweep`` and ``converge`` against the per-threshold oracles."""

    @settings(max_examples=150, deadline=None)
    @given(case=sweep_cases(), data=st.data())
    def test_sweep_equals_one_estimate_per_cutoff(self, case, data):
        num_chunks, chunk_size, seed, profile = case
        box = RandEmBox(FAEConfig(chunk_size=chunk_size, num_chunks=num_chunks), seed=seed)
        for table in profile.tables.values():
            min_counts = data.draw(cutoffs_for(table.counts))
            got = box.sweep(table, min_counts)
            assert got == [estimate_per_threshold_ref(box, table, c) for c in min_counts]
            assert got == [box.estimate(table, c) for c in min_counts]

    @settings(max_examples=150, deadline=None)
    @given(
        case=sweep_cases(),
        grid=st.lists(
            st.floats(-4.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=10, unique=True
        ),
        budget_share=st.floats(-0.2, 1.1),
    )
    def test_converge_equals_the_per_threshold_walk(self, case, grid, budget_share):
        num_chunks, chunk_size, seed, profile = case
        # Below the small table (no fit), among the large tables' footprints
        # (fits, then overflows) or above them all (the whole grid fits).
        large = sum(profile.schema.table(name).size_bytes for name in profile.tables)
        small = sum(spec.size_bytes for spec in profile.schema.tables) - large
        config = FAEConfig(
            gpu_memory_budget=max(1, int(small + budget_share * large)),
            chunk_size=chunk_size,
            num_chunks=num_chunks,
            threshold_grid=tuple(sorted(grid, reverse=True)),
            seed=seed,
        )
        try:
            want = converge_per_threshold_ref(config, profile)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                StatisticalOptimizer(config).converge(profile)
            return
        assert StatisticalOptimizer(config).converge(profile) == want


class TestOneSamplePerTable:
    """``converge`` draws each table's chunks once; nothing it reports moves."""

    @staticmethod
    def _profile(seed):
        # One exact table (<= n*m rows), two sampled, one of them multi-hot.
        specs = (
            EmbeddingTableSpec("exact", num_rows=900, dim=4, zipf_exponent=1.1),
            EmbeddingTableSpec("sampled", num_rows=9_000, dim=4, zipf_exponent=1.1),
            EmbeddingTableSpec("bag", num_rows=20_000, dim=8, zipf_exponent=1.1, multiplicity=3),
            EmbeddingTableSpec("small", num_rows=10, dim=4, zipf_exponent=1.1),
        )
        rng = np.random.default_rng(seed)
        tables = {
            spec.name: TableProfile(
                spec.name, rng.zipf(1.3, size=spec.num_rows).astype(np.int64), spec.dim
            )
            for spec in specs[:3]
        }
        schema = DatasetSchema(name="randem", num_dense=1, tables=specs, num_samples=50_000)
        return AccessProfile(schema, tables, num_sampled_inputs=2_000, num_total_inputs=50_000)

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_converge_equals_the_per_threshold_draw(self, seed):
        config = FAEConfig(gpu_memory_budget=450_000, chunk_size=32, num_chunks=35, seed=seed)
        profile = self._profile(seed)
        optimizer = StatisticalOptimizer(config)
        with tracing() as tracer:
            tracer.reset()
            result = optimizer.converge(profile)
            spans = [r.attributes for r in tracer.records() if r.name == "calibrate.estimate"]
            tracer.reset()
        box = RandEmBox(config)
        assert 1 < result.iterations < len(config.threshold_grid)  # fits, then overflows
        for evaluation in result.evaluations:
            want = tuple(
                estimate_per_threshold_ref(
                    box, table, profile.min_count_for_threshold(evaluation.threshold, name)
                )
                for name, table in profile.tables.items()
            )
            assert evaluation.per_table == want  # every field, exactly
        assert {e.exact for e in result.evaluations[0].per_table} == {True, False}
        # One span per table: its sweep covers the whole grid, early exit or not.
        assert spans == [
            {
                "table": e.table_name,
                "rows_scanned": e.rows_scanned,
                "exact": e.exact,
                "cutoffs": len(config.threshold_grid),
            }
            for e in result.evaluations[0].per_table
        ]
        # One threshold at a time: same evaluations, same choice.
        alone = tuple(optimizer.evaluate(profile, e.threshold) for e in result.evaluations)
        assert alone == result.evaluations
        assert result.threshold == min(e.threshold for e in alone if e.fits)

    def test_sample_is_the_counts_at_the_boxs_chunks(self):
        profile = self._profile(5).tables["sampled"]
        box = RandEmBox(FAEConfig(chunk_size=32, num_chunks=35), seed=9)
        starts = np.random.default_rng(9).integers(0, profile.num_rows - 32 + 1, size=35)
        sample = profile.counts[starts[:, None] + np.arange(32)]
        min_counts = (1, 2.5, 40)
        for est, min_count in zip(box.sweep(profile, min_counts), min_counts):
            chunk_counts = (sample >= min_count).sum(axis=1)
            assert est.hot_rows_mean == chunk_counts.mean() / 32 * profile.num_rows
            assert (est.rows_scanned, est.exact) == (35 * 32, False)
        exact = self._profile(5).tables["exact"]
        assert [(e.rows_scanned, e.exact) for e in box.sweep(exact, min_counts)] == [
            (exact.num_rows, True)
        ] * len(min_counts)


class TestStatisticalOptimizer:
    def test_converges_to_feasible_threshold(self, tiny_log, tiny_fae_config):
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        result = StatisticalOptimizer(tiny_fae_config).converge(profile)
        assert result.chosen.fits
        assert result.chosen.estimated_bytes_upper <= tiny_fae_config.gpu_memory_budget

    def test_picks_smallest_feasible_threshold(self, tiny_log, tiny_fae_config):
        optimizer = StatisticalOptimizer(tiny_fae_config)
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        result = optimizer.converge(profile)
        feasible = [e.threshold for e in result.evaluations if e.fits]
        assert result.threshold == min(feasible)

    def test_footprint_monotone_in_threshold(self, tiny_log, tiny_fae_config):
        optimizer = StatisticalOptimizer(tiny_fae_config)
        profile = EmbeddingLogger(tiny_fae_config).profile(
            tiny_log, np.arange(len(tiny_log))
        )
        sizes = [
            optimizer.evaluate(profile, t).estimated_bytes
            for t in (1e-1, 1e-2, 1e-3)
        ]
        assert sizes == sorted(sizes)

    def test_impossible_budget_raises(self, tiny_log, tiny_fae_config):
        from dataclasses import replace

        tight = replace(tiny_fae_config, gpu_memory_budget=64)
        profile = EmbeddingLogger(tight).profile(tiny_log, np.arange(len(tiny_log)))
        with pytest.raises(ValueError):
            StatisticalOptimizer(tight).converge(profile)


class TestCalibrator:
    def test_end_to_end(self, tiny_log, tiny_fae_config):
        output = Calibrator(tiny_fae_config).calibrate_source(tiny_log)
        assert output.threshold in tiny_fae_config.threshold_grid
        assert output.profile.num_sampled_inputs == round(
            tiny_fae_config.sample_rate * len(tiny_log)
        )
        assert output.total_seconds >= 0

    def test_full_profile_mode(self, tiny_log, tiny_fae_config):
        output = Calibrator(tiny_fae_config).calibrate_source(tiny_log, full_profile=True)
        assert output.profile.num_sampled_inputs == len(tiny_log)

    def test_sampled_faster_than_full(self, tiny_log, tiny_fae_config):
        """Fig 8's direction: sampling cuts profiling latency.

        Timings at this tiny scale are microseconds, so compare the best
        of several runs to suppress scheduler noise.
        """
        calibrator = Calibrator(tiny_fae_config)
        sampled = min(
            calibrator.calibrate_source(tiny_log).profiling_seconds for _ in range(5)
        )
        full = min(
            calibrator.calibrate_source(tiny_log, full_profile=True).profiling_seconds
            for _ in range(5)
        )
        assert sampled <= full * 1.5


class TestFAEConfig:
    def test_defaults_match_paper(self):
        config = FAEConfig()
        assert config.gpu_memory_budget == 256 * 2**20
        assert config.sample_rate == 0.05
        assert config.num_chunks == 35
        assert config.chunk_size == 1024
        assert config.t_value == pytest.approx(3.340)
        assert config.scheduler_initial_rate == 50
        assert config.scheduler_strip_length == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gpu_memory_budget=0),
            dict(sample_rate=0.0),
            dict(sample_rate=1.5),
            dict(num_chunks=1),
            dict(chunk_size=0),
            dict(t_value=-1.0),
            dict(threshold_grid=()),
            dict(threshold_grid=(1e-3, 1e-2)),
            dict(threshold_grid=(1e-3, -1e-4)),
            dict(scheduler_initial_rate=0),
            dict(scheduler_initial_rate=150),
            dict(scheduler_strip_length=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FAEConfig(**kwargs)
