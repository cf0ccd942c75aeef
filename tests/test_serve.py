"""Tests for the serving companion: inference engine and latency model."""

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.hw import Cluster, characterize
from repro.models import workload_by_name
from repro.models.dlrm import DLRM, DLRMConfig
from repro.serve import CircuitBreaker, InferenceEngine, LoadShedError, ServingSimulator


@pytest.fixture(scope="module")
def trained(request):
    tiny_log = request.getfixturevalue("tiny_log")
    tiny_schema = request.getfixturevalue("tiny_schema")
    config = request.getfixturevalue("tiny_fae_config")
    from repro.data import train_test_split
    from repro.train import BaselineTrainer

    train, test = train_test_split(tiny_log, 0.2, seed=1)
    model = DLRM(tiny_schema, DLRMConfig("4-8", "8-1", seed=3))
    BaselineTrainer(model, lr=0.2).train(train, test, epochs=1, batch_size=128)
    plan = fae_preprocess(train, config, batch_size=64)
    return model, train, test, plan


class TestInferenceEngine:
    def test_predict_proba_range_and_shape(self, trained):
        model, _train, test, _plan = trained
        engine = InferenceEngine(model)
        probs = engine.predict_proba(test)
        assert probs.shape == (len(test),)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_batched_equals_unbatched(self, trained):
        model, _train, test, _plan = trained
        small = InferenceEngine(model, batch_size=17)
        large = InferenceEngine(model, batch_size=4096)
        np.testing.assert_allclose(
            small.predict_proba(test), large.predict_proba(test), rtol=1e-6
        )

    def test_predictions_beat_chance(self, trained):
        model, _train, test, _plan = trained
        probs = InferenceEngine(model).predict_proba(test)
        accuracy = ((probs >= 0.5) == test.labels.astype(bool)).mean()
        majority = max(test.base_rate(), 1 - test.base_rate())
        assert accuracy > majority - 0.05

    def test_rank_candidates(self, trained, tiny_schema):
        model, train, _test, _plan = trained
        engine = InferenceEngine(model)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        candidates = np.arange(50)
        ranked = engine.rank_candidates(
            dense=train.dense[0],
            sparse_context=context,
            candidate_table="table_00",
            candidate_ids=candidates,
            top_k=5,
        )
        assert len(ranked.item_ids) == 5
        # best-first ordering
        assert np.all(np.diff(ranked.scores) <= 1e-12)
        assert set(ranked.item_ids.tolist()) <= set(candidates.tolist())

    def test_rank_scores_match_pointwise(self, trained, tiny_schema):
        model, train, _test, _plan = trained
        engine = InferenceEngine(model)
        context = {name: train.sparse[name][1] for name in tiny_schema.table_names}
        ranked = engine.rank_candidates(
            dense=train.dense[1],
            sparse_context=context,
            candidate_table="table_00",
            candidate_ids=np.array([3]),
            top_k=1,
        )
        # A single-candidate ranking is just a pointwise prediction.
        assert 0 <= ranked.scores[0] <= 1

    def test_rank_validation(self, trained, tiny_schema):
        model, train, _test, _plan = trained
        engine = InferenceEngine(model)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        with pytest.raises(KeyError):
            engine.rank_candidates(train.dense[0], context, "nope", np.array([1]))
        with pytest.raises(ValueError):
            engine.rank_candidates(train.dense[0], context, "table_00", np.array([]))

    def test_hot_request_mask(self, trained):
        model, train, _test, plan = trained
        engine = InferenceEngine(model, hot_bags=plan.bags)
        mask = engine.hot_request_mask(train)
        np.testing.assert_array_equal(mask, plan.dataset.hot_mask)

    def test_hot_mask_requires_bags(self, trained):
        model, train, _test, _plan = trained
        with pytest.raises(RuntimeError):
            InferenceEngine(model).hot_request_mask(train)

    def test_bad_batch_size(self, trained):
        model = trained[0]
        with pytest.raises(ValueError):
            InferenceEngine(model, batch_size=0)


class TestAdmissionControl:
    @staticmethod
    def _request(trained, tiny_schema):
        model, train, _test, _plan = trained
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        return model, train.dense[0], context

    def test_out_of_range_candidate_names_table_and_id(self, trained, tiny_schema):
        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(model)
        num_rows = model.tables["table_00"].num_rows
        with pytest.raises(ValueError) as excinfo:
            engine.rank_candidates(
                dense, context, "table_00", np.array([0, num_rows, 1])
            )
        message = str(excinfo.value)
        assert "table_00" in message
        assert str(num_rows) in message

    def test_negative_candidate_rejected(self, trained, tiny_schema):
        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(model)
        with pytest.raises(ValueError, match="table_00"):
            engine.rank_candidates(dense, context, "table_00", np.array([2, -1]))

    def test_bad_ids_rejected_before_fallback_path(self, trained, tiny_schema):
        # Validation happens once, on admission — even a request that
        # would immediately trip the deadline fallback is rejected up
        # front; the fallback itself no longer re-validates (wasted work
        # at exactly the moment the engine is behind deadline).
        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(model)
        with pytest.raises(ValueError, match="table_00"):
            engine.rank_candidates(
                dense, context, "table_00", np.array([2, -3]), deadline_s=1e-9
            )

    def test_fallback_scores_skip_revalidation(self, trained):
        # Pre-validated ids go straight to the embedding read: scores
        # are valid probabilities, one per candidate.
        engine = InferenceEngine(trained[0])
        scores = engine._fallback_scores("table_00", np.array([0, 1, 2]))
        assert scores.shape == (3,)
        assert np.all((scores > 0) & (scores < 1))

    def test_breaker_trips_and_sheds(self, trained, tiny_schema):
        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(
            model,
            breaker=CircuitBreaker(
                window=8, failure_threshold=0.5, min_requests=2, cooldown=2
            ),
        )
        candidates = np.arange(40)
        # An impossible deadline degrades every request; degraded
        # responses count as failures and trip the breaker.
        for _ in range(2):
            result = engine.rank_candidates(
                dense, context, "table_00", candidates, deadline_s=1e-9
            )
            assert result.degraded
        assert engine.breaker.state == "open"
        with pytest.raises(LoadShedError, match="open"):
            engine.rank_candidates(dense, context, "table_00", candidates)
        assert engine.breaker.shed_requests == 1

    def test_breaker_recovers_after_cooldown(self, trained, tiny_schema):
        model, dense, context = self._request(trained, tiny_schema)
        breaker = CircuitBreaker(
            window=8, failure_threshold=0.5, min_requests=2, cooldown=1
        )
        engine = InferenceEngine(model, breaker=breaker)
        candidates = np.arange(40)
        for _ in range(2):
            engine.rank_candidates(
                dense, context, "table_00", candidates, deadline_s=1e-9
            )
        assert breaker.state == "open"
        with pytest.raises(LoadShedError):
            engine.rank_candidates(dense, context, "table_00", candidates)
        # Cooldown elapsed: the next request is the half-open probe, and
        # its (undegraded) success closes the breaker.
        result = engine.rank_candidates(dense, context, "table_00", candidates)
        assert not result.degraded
        assert breaker.state == "closed"

    def test_health_snapshot(self, trained, tiny_schema):
        model, dense, context = self._request(trained, tiny_schema)
        plain = InferenceEngine(model)
        assert plain.health()["breaker"] is None

        engine = InferenceEngine(model, breaker=CircuitBreaker())
        engine.rank_candidates(dense, context, "table_00", np.arange(10))
        health = engine.health()
        assert health["requests"] >= 1
        assert health["batches"] >= 1
        assert set(health["breaker"]) == {
            "state",
            "failure_rate",
            "window_size",
            "trips",
            "shed_requests",
        }
        assert health["breaker"]["state"] == "closed"


class TestRequestCounters:
    @staticmethod
    def _request(trained, tiny_schema):
        model, train, _test, _plan = trained
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        return model, train.dense[0], context

    def test_one_ranking_is_one_request_many_batches(self, trained, tiny_schema):
        # A chunked ranking used to inflate serve.requests by the chunk
        # count; now one rank_candidates call is exactly one logical
        # request while the forward calls land in serve.batches.
        from repro.obs import get_registry

        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(model, batch_size=16)
        registry = get_registry()
        requests_before = registry.counter("serve.requests").value
        batches_before = registry.counter("serve.batches").value
        engine.rank_candidates(dense, context, "table_00", np.arange(100))
        assert registry.counter("serve.requests").value - requests_before == 1
        assert registry.counter("serve.batches").value - batches_before >= 100 // 16

    def test_predict_proba_is_one_request(self, trained):
        from repro.obs import get_registry

        model, _train, test, _plan = trained
        engine = InferenceEngine(model, batch_size=64)
        registry = get_registry()
        requests_before = registry.counter("serve.requests").value
        batches_before = registry.counter("serve.batches").value
        engine.predict_proba(test, indices=np.arange(200))
        assert registry.counter("serve.requests").value - requests_before == 1
        assert registry.counter("serve.batches").value - batches_before == 200 // 64 + 1

    def test_shed_requests_record_rejection_latency(self, trained, tiny_schema):
        from repro.obs import get_registry

        model, dense, context = self._request(trained, tiny_schema)
        engine = InferenceEngine(
            model,
            breaker=CircuitBreaker(
                window=8, failure_threshold=0.5, min_requests=2, cooldown=4
            ),
        )
        rejected = get_registry().histogram("serve.rejected.latency")
        count_before = rejected.count
        for _ in range(2):
            engine.rank_candidates(
                dense, context, "table_00", np.arange(40), deadline_s=1e-9
            )
        with pytest.raises(LoadShedError):
            engine.rank_candidates(dense, context, "table_00", np.arange(40))
        assert rejected.count == count_before + 1


class TestHotCacheServing:
    @staticmethod
    def _cached_engine(trained, budget=16 * 1024, **knobs):
        from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig

        model, _train, _test, plan = trained
        cache = EmbeddingHotCache(
            plan.bags, HotCacheConfig(budget_bytes=budget, **knobs)
        )
        return InferenceEngine(model, hot_cache=cache), cache

    def test_health_exposes_cache_stats(self, trained, tiny_schema):
        model, train, _test, _plan = trained
        engine, cache = self._cached_engine(trained)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        engine.rank_candidates(train.dense[0], context, "table_00", np.arange(50))
        health = engine.health()
        assert health["cache"]["hits"] + health["cache"]["misses"] >= 50
        assert health["cache"]["hot_rows"] > 0
        assert 0.0 <= health["cache"]["hit_rate"] <= 1.0
        assert InferenceEngine(model).health()["cache"] is None

    def test_serving_traffic_feeds_and_rebalances_cache(self, trained, tiny_schema):
        _model, train, _test, _plan = trained
        engine, cache = self._cached_engine(trained, rebalance_every=2)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        version = cache.version
        # Hammer a cold candidate range until the auto-rebalance window
        # trips; membership must turn over and the engine's masks follow.
        for _ in range(6):
            engine.rank_candidates(
                train.dense[0], context, "table_00", np.arange(500, 560)
            )
        assert cache.rebalances > 0
        assert cache.version > version
        assert engine.hot_request_mask(train).shape == (len(train),)

    @staticmethod
    def _cache_classification(cache, log):
        masks = {name: bag.hot_mask() for name, bag in cache.bags().items()}
        return np.all([masks[name][ids].all(axis=1) for name, ids in log.sparse.items()], axis=0)

    def test_install_keeps_classifying_by_the_cache(self, trained, tiny_schema):
        _model, train, _test, _plan = trained
        engine, cache = self._cached_engine(trained)
        other = DLRM(tiny_schema, DLRMConfig("4-8", "8-1", seed=99))
        engine.install(other)
        assert engine.model is other
        np.testing.assert_array_equal(
            engine.hot_request_mask(train), self._cache_classification(cache, train)
        )

    def test_install_with_bags_still_follows_the_cache(self, trained, tiny_schema):
        model, train, _test, plan = trained
        engine, cache = self._cached_engine(trained, rebalance_every=2)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        for _ in range(6):
            engine.rank_candidates(train.dense[0], context, "table_00", np.arange(500, 560))
        live = self._cache_classification(cache, train)
        np.testing.assert_array_equal(engine.hot_request_mask(train), live)
        frozen = InferenceEngine(model, hot_bags=plan.bags).hot_request_mask(train)
        assert not np.array_equal(live, frozen)  # the cache has turned over
        engine.install(model, hot_bags=plan.bags)  # no version bump follows
        np.testing.assert_array_equal(engine.hot_request_mask(train), live)


class TestModelInstall:
    def test_install_swaps_model_atomically(self, trained, tiny_schema):
        model, train, _test, plan = trained
        engine = InferenceEngine(model, hot_bags=plan.bags)
        context = {name: train.sparse[name][0] for name in tiny_schema.table_names}
        before = engine.rank_candidates(
            train.dense[0], context, "table_00", np.arange(20), top_k=20
        )

        other = DLRM(tiny_schema, DLRMConfig("4-8", "8-1", seed=99))
        engine.install(other)
        assert engine.model is other
        # Hot bags were not part of the new generation.
        with pytest.raises(RuntimeError):
            engine.hot_request_mask(train)
        after = engine.rank_candidates(
            train.dense[0], context, "table_00", np.arange(20), top_k=20
        )
        # Different parameters, different scores — the swap was real.
        assert not np.allclose(
            np.sort(before.scores), np.sort(after.scores)
        )

        engine.install(model, hot_bags=plan.bags)
        restored = engine.hot_request_mask(train)
        np.testing.assert_array_equal(restored, plan.dataset.hot_mask)


@pytest.fixture(scope="module")
def serving_sim():
    workload = characterize(workload_by_name("RMC2"))
    return ServingSimulator(Cluster(num_gpus=1), workload)


class TestServingSimulator:
    def test_hot_batches_faster(self, serving_sim):
        assert serving_sim.hot_resident_batch_seconds(64) < serving_sim.cpu_embedding_batch_seconds(64)

    def test_hot_resident_lowers_tail_latency(self, serving_sim):
        rate = 0.5 * serving_sim.saturation_rate("cpu-embedding")
        cpu = serving_sim.simulate("cpu-embedding", rate, num_requests=3000, seed=1)
        hot = serving_sim.simulate("hot-resident", rate, num_requests=3000, seed=1)
        assert hot.p99 < cpu.p99
        assert hot.mean < cpu.mean

    def test_saturation_rate_higher_for_hot(self, serving_sim):
        assert serving_sim.saturation_rate("hot-resident") > serving_sim.saturation_rate(
            "cpu-embedding"
        )

    def test_latency_grows_with_load(self, serving_sim):
        base = serving_sim.saturation_rate("cpu-embedding")
        light = serving_sim.simulate("cpu-embedding", 0.3 * base, num_requests=2000)
        heavy = serving_sim.simulate("cpu-embedding", 0.9 * base, num_requests=2000)
        assert heavy.p99 > light.p99

    def test_percentiles_ordered(self, serving_sim):
        stats = serving_sim.simulate("hot-resident", 200, num_requests=2000)
        assert stats.p50 <= stats.p95 <= stats.p99
        assert stats.throughput > 0

    def test_validation(self, serving_sim):
        with pytest.raises(ValueError):
            serving_sim.simulate("magic", 100)
        with pytest.raises(ValueError):
            serving_sim.simulate("cpu-embedding", 0)
        with pytest.raises(ValueError):
            ServingSimulator(Cluster(), characterize(workload_by_name("RMC2")), max_batch=0)
