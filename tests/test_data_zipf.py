"""Unit tests for repro.data.zipf."""

import numpy as np
import pytest

from repro.data.zipf import (
    ZipfSampler,
    generalized_harmonic,
    zipf_probabilities,
    zipf_rows_above_probability,
    zipf_top_k_coverage,
)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        probs = zipf_probabilities(1000, 1.1)
        assert probs.sum() == pytest.approx(1.0)

    def test_monotone_decreasing_by_rank(self):
        probs = zipf_probabilities(500, 0.9)
        assert np.all(np.diff(probs) <= 0)

    def test_zero_exponent_is_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_higher_exponent_concentrates_head(self):
        light = zipf_probabilities(1000, 0.8)
        heavy = zipf_probabilities(1000, 1.6)
        assert heavy[0] > light[0]
        assert heavy[-1] < light[-1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.1)


class TestHeadShare:
    """The mass of the most popular ranks, through ``zipf_top_k_coverage``."""

    def test_share_grows_with_fraction(self):
        small = zipf_top_k_coverage(10_000, 1.0, 100)
        large = zipf_top_k_coverage(10_000, 1.0, 1000)
        assert large > small > 0

    def test_kaggle_like_skew(self):
        # The paper's headline: a few percent of rows capture most accesses.
        rows = 10_131_227
        share = zipf_top_k_coverage(rows, 1.1, round(0.068 * rows))
        assert share > 0.75


class TestGeneralizedHarmonic:
    def test_matches_exact_sum_small(self):
        n, s = 5000, 1.3
        exact = float((np.arange(1, n + 1) ** -s).sum())
        assert generalized_harmonic(n, s) == pytest.approx(exact, rel=1e-10)

    def test_matches_exact_sum_large(self):
        n, s = 3_000_000, 1.1
        exact = float((np.arange(1, n + 1, dtype=np.float64) ** -s).sum())
        assert generalized_harmonic(n, s) == pytest.approx(exact, rel=1e-8)

    def test_s_equal_one_large(self):
        n = 10_000_000
        approx = generalized_harmonic(n, 1.0)
        assert approx == pytest.approx(np.log(n) + 0.5772156649, rel=1e-6)

    def test_monotone_in_n(self):
        assert generalized_harmonic(2000, 1.2) < generalized_harmonic(200000, 1.2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generalized_harmonic(0, 1.0)
        with pytest.raises(ValueError):
            generalized_harmonic(10, -1.0)


class TestCoverageHelpers:
    def test_top_k_coverage_limits(self):
        assert zipf_top_k_coverage(1000, 1.1, 0) == 0.0
        assert zipf_top_k_coverage(1000, 1.1, 1000) == pytest.approx(1.0)
        assert zipf_top_k_coverage(1000, 1.1, 2000) == pytest.approx(1.0)

    def test_coverage_matches_probability_vector(self):
        n, s, k = 5000, 1.15, 137
        probs = zipf_probabilities(n, s)
        assert zipf_top_k_coverage(n, s, k) == pytest.approx(probs[:k].sum(), rel=1e-9)

    def test_rows_above_probability_consistency(self):
        n, s = 100_000, 1.2
        probs = zipf_probabilities(n, s)
        for t in (probs[0] * 2, probs[10], probs[500], probs[-1] / 2):
            expected = int(np.count_nonzero(probs >= t * (1 - 1e-12)))
            got = zipf_rows_above_probability(n, s, t)
            assert abs(got - expected) <= 1

    def test_rows_above_zero_probability_is_all(self):
        assert zipf_rows_above_probability(100, 1.0, 0.0) == 100

    def test_uniform_threshold_all_or_nothing(self):
        assert zipf_rows_above_probability(100, 0.0, 0.005) == 100
        assert zipf_rows_above_probability(100, 0.0, 0.5) == 0


class TestZipfSampler:
    def test_sample_shape_and_range(self):
        sampler = ZipfSampler(num_items=50, exponent=1.1, seed=7)
        ids = sampler.sample(2000)
        assert ids.shape == (2000,)
        assert ids.min() >= 0 and ids.max() < 50

    def test_deterministic_given_seed(self):
        a = ZipfSampler(100, 1.0, seed=5).sample(100)
        b = ZipfSampler(100, 1.0, seed=5).sample(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ZipfSampler(100, 1.0, seed=5).sample(200)
        b = ZipfSampler(100, 1.0, seed=6).sample(200)
        assert not np.array_equal(a, b)

    def test_empirical_frequency_matches_probability(self):
        sampler = ZipfSampler(num_items=20, exponent=1.2, seed=9)
        draws = sampler.sample(200_000)
        counts = np.bincount(draws, minlength=20) / 200_000
        np.testing.assert_allclose(counts, sampler.id_probabilities(), atol=0.01)

    def test_hot_ids_cover_requested_share(self):
        sampler = ZipfSampler(num_items=1000, exponent=1.3, seed=2)
        hot = sampler.hot_ids(0.9)
        probs = sampler.id_probabilities()
        assert probs[hot].sum() >= 0.9
        assert len(hot) < 1000

    def test_hot_ids_scattered_by_permutation(self):
        sampler = ZipfSampler(num_items=1000, exponent=1.3, seed=2)
        hot = sampler.hot_ids(0.5)
        # With a random permutation the hot ids should not be clustered
        # at the front of the id space.
        assert hot.max() > 500

    def test_probability_of_id_matches_vector(self):
        sampler = ZipfSampler(num_items=64, exponent=1.0, seed=3)
        probs = sampler.id_probabilities()
        for item in (0, 17, 63):
            assert sampler.probability_of_id(item) == pytest.approx(probs[item])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(10, 1.0).sample(-1)
