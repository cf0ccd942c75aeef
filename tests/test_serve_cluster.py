"""Tests for the highly-available serving tier (repro.serve.cluster).

Covers the four HA mechanisms (backpressure, failover, hedging,
generation reload) both directly on :class:`ServingCluster` and through
the seeded chaos replay, plus the :class:`FaultPlan` replica fault
schedule that drives them.
"""

import json

import numpy as np
import pytest

from repro.data import dataset_by_name
from repro.models import build_model, workload_by_name
from repro.resilience.faults import FaultPlan
from repro.serve import (
    ClusterBusyError,
    InferenceEngine,
    NoReplicaError,
    ReplayConfig,
    ServingCluster,
    VirtualClock,
    format_slo_report,
    run_slo_replay,
)


class TestReplicaFaultPlan:
    def test_parse_replica_fault_keys(self):
        plan = FaultPlan.parse(
            "seed=3,kill_replica=1@120,slow_replica=2@40:160,"
            "slow_replica_factor=25,flap_replica=0@30/20"
        )
        assert plan.replica_kill == (1, 120)
        assert plan.replica_slow == (2, 40, 160)
        assert plan.replica_slow_factor == 25.0
        assert plan.replica_flap == (0, 30, 20)

    def test_kill_is_permanent_from_the_request_on(self):
        plan = FaultPlan(replica_kill=(1, 10))
        assert plan.replica_alive(1, 9)
        assert not plan.replica_alive(1, 10)
        assert not plan.replica_alive(1, 500)
        assert plan.replica_alive(0, 500)  # other replicas unaffected

    def test_flap_alternates_down_and_up(self):
        plan = FaultPlan(replica_flap=(0, 30, 20))
        assert plan.replica_alive(0, 29)
        assert not plan.replica_alive(0, 30)  # down window
        assert not plan.replica_alive(0, 49)
        assert plan.replica_alive(0, 50)  # back up
        assert plan.replica_alive(0, 69)
        assert not plan.replica_alive(0, 70)  # down again

    def test_slow_multiplier_window(self):
        plan = FaultPlan(replica_slow=(2, 40, 160), replica_slow_factor=25.0)
        assert plan.replica_slow_multiplier(2, 39) == 1.0
        assert plan.replica_slow_multiplier(2, 40) == 25.0
        assert plan.replica_slow_multiplier(2, 159) == 25.0
        assert plan.replica_slow_multiplier(2, 160) == 1.0
        assert plan.replica_slow_multiplier(0, 100) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(replica_kill=(-1, 10))
        with pytest.raises(ValueError):
            FaultPlan(replica_slow=(0, 50, 40))
        with pytest.raises(ValueError):
            FaultPlan(replica_flap=(0, 10, 0))
        with pytest.raises(ValueError):
            FaultPlan(replica_slow_factor=0.5)


@pytest.fixture(scope="module")
def cluster_fixture():
    schema = dataset_by_name("criteo-kaggle", "tiny")
    model = build_model(workload_by_name("RMC2"), schema=schema, seed=3)
    return schema, model


def _make_cluster(model, n=3, **kwargs):
    engines = [InferenceEngine(model, clock=VirtualClock()) for _ in range(n)]
    return ServingCluster(engines, **kwargs)


def _request(schema):
    dense = np.zeros(schema.num_dense, dtype=np.float32)
    context = {t.name: np.zeros(t.multiplicity, dtype=np.int64) for t in schema.tables}
    table = max(schema.tables, key=lambda t: (t.num_rows, t.name)).name
    return dense, context, table, np.arange(32, dtype=np.int64)


class TestServingClusterUnit:
    def test_rejects_wall_clock_engines(self, cluster_fixture):
        _schema, model = cluster_fixture
        with pytest.raises(TypeError, match="virtual clock"):
            ServingCluster([InferenceEngine(model)])

    def test_rejects_empty_pool_and_bad_knobs(self, cluster_fixture):
        _schema, model = cluster_fixture
        with pytest.raises(ValueError):
            ServingCluster([])
        with pytest.raises(ValueError):
            _make_cluster(model, queue_capacity=0)
        with pytest.raises(ValueError):
            _make_cluster(model, hedge_after_s=-1.0)

    def test_queue_backpressure_rejects_with_retry_after(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=1, queue_capacity=2)
        dense, context, table, candidates = _request(schema)
        # Two expensive requests at t=0 fill the backlog; the third is
        # rejected with a usable retry-after hint.
        for _ in range(2):
            cluster.submit(0.0, 1e-3, dense, context, table, candidates)
        with pytest.raises(ClusterBusyError) as excinfo:
            cluster.submit(0.0, 1e-3, dense, context, table, candidates)
        assert excinfo.value.retry_after_s > 0
        # Once the backlog drains (virtual time passes), admission reopens.
        late = cluster.slots[0].busy_until + 1.0
        response = cluster.submit(late, 1e-3, dense, context, table, candidates)
        assert response.latency_s > 0

    def test_failover_discovers_death_then_routes_around(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=3)
        dense, context, table, candidates = _request(schema)
        cluster.kill_replica(0)
        first = cluster.submit(0.0, 1e-4, dense, context, table, candidates)
        # Replica 0 was least-loaded and believed healthy: the dispatch
        # failed, the request failed over, and the prober marked it down.
        assert first.failovers == 1
        assert first.replica != 0
        assert not cluster.slots[0].healthy
        second = cluster.submit(1.0, 1e-4, dense, context, table, candidates)
        assert second.failovers == 0  # routed around the known-dead replica

    def test_probe_readmits_revived_replica(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2)
        dense, context, table, candidates = _request(schema)
        cluster.kill_replica(0)
        cluster.submit(0.0, 1e-4, dense, context, table, candidates)
        assert not cluster.slots[0].healthy
        cluster.revive_replica(0)
        cluster.submit(1.0, 1e-4, dense, context, table, candidates)
        assert cluster.slots[0].healthy  # probe re-admitted it

    def test_hedge_takes_first_result_and_cancels_loser(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2, hedge_after_s=1e-3)
        dense, context, table, candidates = _request(schema)
        cluster.set_slow_factor(0, 100.0)
        response = cluster.submit(0.0, 1e-4, dense, context, table, candidates)
        assert response.hedged
        assert response.hedge_won
        assert response.replica == 1
        # The slow primary was cancelled when the hedge returned: its
        # slot frees at the winner's completion, not its own.
        assert cluster.slots[0].busy_until <= cluster.slots[1].busy_until

    def test_fast_primary_is_not_hedged(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2, hedge_after_s=10.0)
        dense, context, table, candidates = _request(schema)
        response = cluster.submit(0.0, 1e-5, dense, context, table, candidates)
        assert not response.hedged

    def test_reload_rolls_through_pool_without_mixing(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=3)
        dense, context, table, candidates = _request(schema)
        other = build_model(workload_by_name("RMC2"), schema=schema, seed=77)
        generation = cluster.begin_reload(other)
        assert generation == 1
        assert cluster.reload_active
        now, seen = 0.0, set()
        while cluster.reload_active:
            now += 0.01
            response = cluster.submit(
                now, 1e-4, dense, context, table, candidates
            )
            seen.add(response.generation)
        assert all(slot.generation == 1 for slot in cluster.slots)
        assert all(slot.engine.model is other for slot in cluster.slots)
        # During the roll both generations served, each response wholly
        # from one generation.
        assert seen <= {0, 1}
        post = cluster.submit(now + 1.0, 1e-4, dense, context, table, candidates)
        assert post.generation == 1

    def test_lone_replica_reloads_behind_its_in_flight_work(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=1)
        dense, context, table, candidates = _request(schema)
        other = build_model(workload_by_name("RMC2"), schema=schema, seed=77)
        first = cluster.submit(0.0, 1e-3, dense, context, table, candidates)
        cluster.begin_reload(other)
        # Arrives while the first request is still in flight: there is no
        # peer to serve it, so it queues behind the install.
        second = cluster.submit(1e-6, 1e-3, dense, context, table, candidates)
        assert (first.generation, second.generation) == (0, 1)
        assert second.queue_wait_s == pytest.approx(first.latency_s - 1e-6)
        assert not cluster.reload_active
        assert not cluster.slots[0].draining

    def test_draining_replica_with_only_dead_peers_keeps_serving(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2)
        dense, context, table, candidates = _request(schema)
        cluster.submit(0.0, 1e-3, dense, context, table, candidates)  # busies 0
        cluster.kill_replica(1)
        cluster.begin_reload(model)
        response = cluster.submit(1e-6, 1e-3, dense, context, table, candidates)
        assert response.replica == 0
        assert response.generation == 1

    def test_submit_raises_when_every_replica_is_dead(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2)
        cluster.kill_replica(0)
        cluster.kill_replica(1)
        with pytest.raises(NoReplicaError):
            cluster.submit(0.0, 1e-4, *_request(schema))

    def test_health_snapshot_shape(self, cluster_fixture):
        schema, model = cluster_fixture
        cluster = _make_cluster(model, n=2)
        dense, context, table, candidates = _request(schema)
        cluster.submit(0.0, 1e-4, dense, context, table, candidates)
        health = cluster.health()
        assert len(health["replicas"]) == 2
        assert {"replica", "generation", "alive", "healthy", "draining"} <= set(
            health["replicas"][0]
        )
        assert health["reload"]["active"] is False
        assert health["cache"] is None  # no hot cache installed
        json.dumps(health)

    def test_health_surfaces_shared_cache_stats(self, cluster_fixture):
        from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig

        schema, model = cluster_fixture
        cache = EmbeddingHotCache.from_schema(
            schema,
            HotCacheConfig(budget_bytes=32 * 1024),
            large_table_min_bytes=1024,
        )
        engines = [
            InferenceEngine(model, clock=VirtualClock(), hot_cache=cache)
            for _ in range(2)
        ]
        cluster = ServingCluster(engines)
        dense, context, table, candidates = _request(schema)
        cluster.submit(0.0, 1e-4, dense, context, table, candidates)
        health = cluster.health()
        assert health["cache"] is not None
        assert health["cache"]["hits"] + health["cache"]["misses"] > 0
        assert health["cache"]["hot_bytes"] <= 32 * 1024
        json.dumps(health)


def _chaos_config(**overrides):
    defaults = dict(
        requests=200,
        candidates=128,
        scale="tiny",
        seed=11,
        replicas=3,
        hedge_after_s=0.02,
        reload_at=None,
        faults=None,
    )
    defaults.update(overrides)
    return ReplayConfig(**defaults)


class TestClusterReplayCache:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            _chaos_config(cache_budget_bytes=-1)

    def test_cached_replay_reports_cache_and_stays_deterministic(self):
        config = _chaos_config(requests=120, cache_budget_bytes=32 * 1024)
        report = run_slo_replay(config)
        cache = report["cluster"]["cache"]
        assert cache is not None
        assert cache["hits"] + cache["misses"] > 0
        assert cache["hot_bytes"] <= 32 * 1024
        rerun = run_slo_replay(config)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            rerun, sort_keys=True
        )

    def test_uncached_replay_reports_no_cache(self):
        report = run_slo_replay(_chaos_config(requests=60))
        assert report["cluster"]["cache"] is None


class TestClusterReplayChaos:
    def test_replica_kill_mid_replay_completes_everything(self):
        # One of three replicas dies at request 60; with hedging on, every
        # admitted request must still complete, with the failover counted.
        report = run_slo_replay(
            _chaos_config(faults="seed=7,kill_replica=1@60")
        )
        requests = report["requests"]
        assert requests["completed"] == requests["admitted"] == requests["total"]
        assert requests["shed"] == 0
        assert report["rates"]["error"] == 0.0
        assert report["failovers"] >= 1
        assert report["faults_injected"]["replica_kill"] == 1
        assert not report["cluster"]["replicas"][1]["alive"]

    def test_hedging_beats_slow_replica_p99(self):
        base = dict(
            seed=11,
            deadline_s=None,
            faults="seed=7,slow_replica=0@20:160,slow_replica_factor=40",
        )
        without = run_slo_replay(_chaos_config(hedge_after_s=None, **base))
        hedged = run_slo_replay(_chaos_config(hedge_after_s=0.005, **base))
        assert hedged["hedge"]["issued"] > 0
        assert hedged["hedge"]["wins"] > 0
        assert hedged["latency_s"]["p99"] < without["latency_s"]["p99"]

    def test_flapping_replica_is_readmitted(self):
        report = run_slo_replay(
            _chaos_config(faults="seed=7,flap_replica=0@30/25")
        )
        assert report["faults_injected"]["replica_flap"] == 1
        assert report["probe_revived"] >= 1
        assert report["requests"]["completed"] == report["requests"]["admitted"]

    def test_reload_under_load_is_zero_downtime(self):
        report = run_slo_replay(_chaos_config(reload_at=100))
        requests = report["requests"]
        reload_info = report["reload"]
        assert requests["shed"] == 0
        assert requests["rejected"] == 0
        assert requests["completed"] == requests["total"]
        assert reload_info["complete"]
        assert reload_info["installs"] == 3
        assert reload_info["mixed_generation_responses"] == 0
        generations = reload_info["generations_served"]
        assert set(generations) == {"0", "1"}
        assert sum(generations.values()) == requests["completed"]

    def test_chaos_report_is_byte_identical_per_seed(self):
        config = _chaos_config(
            reload_at=100,
            faults="seed=7,kill_replica=1@60,slow_replica=2@20:80",
        )
        first = json.dumps(run_slo_replay(config), sort_keys=True)
        second = json.dumps(run_slo_replay(config), sort_keys=True)
        assert first == second

    def test_different_seed_differs(self):
        a = run_slo_replay(_chaos_config(seed=11))
        b = run_slo_replay(_chaos_config(seed=12))
        assert a["latency_s"] != b["latency_s"]

    def test_backpressure_rejections_are_accounted(self):
        # A tiny queue under a hot burst must reject some traffic, and
        # the rejections must show up in rates and rejected-latency.
        report = run_slo_replay(
            _chaos_config(
                replicas=2,
                queue_capacity=2,
                base_rate=5000.0,
                chunk_cost_s=2e-3,
                hedge_after_s=None,
            )
        )
        requests = report["requests"]
        assert requests["rejected"] > 0
        assert report["rates"]["rejected"] > 0
        assert report["queue"]["rejected"] == requests["rejected"]
        assert report["rejected_latency_s"]["count"] == requests["rejected"]
        assert requests["admitted"] + requests["rejected"] == requests["total"]

    def test_format_cluster_report_smoke(self):
        report = run_slo_replay(
            _chaos_config(reload_at=100, faults="seed=7,kill_replica=1@60")
        )
        text = format_slo_report(report)
        assert "slo report (seed 11, 3 replicas)" in text
        assert "failovers" in text
        assert "reload" in text
        assert "mixed-generation responses 0" in text

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            _chaos_config(replicas=0)
        with pytest.raises(ValueError, match="fault spec"):
            _chaos_config(faults="bogus_key=1")
        with pytest.raises(ValueError, match="queue_capacity"):
            _chaos_config(queue_capacity=0)
