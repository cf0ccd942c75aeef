"""Tests for the Zipf traffic-replay SLO harness (repro.serve.replay)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import dataset_by_name
from repro.serve import ReplayConfig, VirtualClock, format_slo_report, run_slo_replay
from repro.serve.replay import SLO_SCHEMA_VERSION

# The single-engine slow window of the retired closed-loop replay
# (requests 40..160 at 100x cost), as a fault plan on the one replica.
SLOW_40_160 = "slow_replica=0@40:160,slow_replica_factor=100"


def _accounted(requests: dict) -> int:
    """Requests that ended in exactly one of the four outcomes."""
    return (
        requests["completed"] + requests["shed"] + requests["rejected"]
        + requests["unavailable"]
    )


def _quick(**overrides):
    defaults = dict(requests=64, candidates=64, scale="tiny", seed=11)
    defaults.update(overrides)
    return ReplayConfig(**defaults)


class TestVirtualClock:
    def test_reads_advance_by_step(self):
        clock = VirtualClock()
        clock.step = 0.5
        assert clock() == 0.0
        assert clock() == 0.5
        assert clock() == 1.0

    def test_advance_jumps(self):
        clock = VirtualClock(start=10.0)
        clock.advance(2.5)
        assert clock() == 12.5

    def test_elapsed_is_deterministic_function_of_reads(self):
        clock = VirtualClock()
        clock.step = 0.1
        for _ in range(5):
            clock()
        assert clock.t == pytest.approx(0.5)


class TestReplayConfig:
    def test_rejects_non_positive_requests(self):
        with pytest.raises(ValueError):
            ReplayConfig(requests=0)

    def test_burst_windows(self):
        config = ReplayConfig(burst_every=10, burst_length=3)
        assert config.in_burst(0) and config.in_burst(2) and not config.in_burst(3)
        assert config.in_burst(10)

    def test_one_replica_is_the_default(self):
        assert ReplayConfig().replicas == 1


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        config = _quick()
        first = json.dumps(run_slo_replay(config), sort_keys=True)
        second = json.dumps(run_slo_replay(config), sort_keys=True)
        assert first == second

    def test_different_seed_differs(self):
        a = run_slo_replay(_quick(seed=11))
        b = run_slo_replay(_quick(seed=12))
        assert a["latency_s"] != b["latency_s"]


class TestReport:
    def test_report_shape_and_accounting(self):
        report = run_slo_replay(_quick())
        assert report["schema_version"] == SLO_SCHEMA_VERSION
        assert report["kind"] == "slo_report"
        assert report["replicas"] == 1
        requests = report["requests"]
        assert requests["total"] == 64
        assert _accounted(requests) == requests["total"]
        assert report["rates"]["error"] == 0.0
        lat = report["latency_s"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        # Request latency is queue wait + service, never less than service.
        assert lat["p50"] >= report["service_latency_s"]["p50"]
        assert report["throughput_rps"] > 0
        json.dumps(report)  # JSON-ready as-is

    def test_format_report_smoke(self):
        text = format_slo_report(run_slo_replay(_quick()))
        assert "slo report" in text
        assert "p95" in text
        assert "breaker" in text

    def test_breaker_disabled_when_window_zero(self):
        report = run_slo_replay(_quick(breaker_window=0))
        assert report["cluster"]["replicas"][0]["breaker"] is None
        assert report["requests"]["shed"] == 0
        assert "breaker" not in format_slo_report(report)


class TestSlowReplicaFault:
    def test_slow_window_trips_breaker_and_sheds(self):
        # A 100x service-cost window blows the 25 ms deadline on every
        # request inside it; the breaker sees the failure run, opens,
        # and sheds — visible in the report as a nonzero shed rate.
        # Candidate count must span several scoring chunks so the
        # deadline check fires after cost has actually accrued.
        report = run_slo_replay(
            _quick(requests=200, candidates=512, faults=SLOW_40_160)
        )
        breaker = report["cluster"]["replicas"][0]["breaker"]
        assert report["deadline_exceeded"] > 0
        assert report["requests"]["degraded"] > 0
        assert breaker["trips"] >= 1
        assert report["rates"]["shed"] > 0
        assert report["requests"]["shed"] == breaker["shed_requests"]

    def test_healthy_run_sheds_nothing(self):
        report = run_slo_replay(_quick(requests=128))
        assert report["cluster"]["replicas"][0]["breaker"]["trips"] == 0
        assert report["rates"]["shed"] == 0.0


class TestOneReplicaOracle:
    """The retired closed-loop single-engine replay, reproduced.

    Values recorded from the parent's ``run_slo_replay`` (seed 7, tiny,
    512 x 512): at one replica with an unbounded backlog every engine
    outcome is the same — only the request latency differs, because
    arrivals no longer wait for the previous completion.
    """

    def test_plain_run_matches_the_single_engine_replay(self):
        report = run_slo_replay(ReplayConfig(queue_capacity=512))
        requests = report["requests"]
        assert (requests["completed"], requests["degraded"], requests["shed"]) == (
            512, 0, 0,
        )
        assert requests["rejected"] == requests["unavailable"] == 0
        service = report["service_latency_s"]
        assert service["count"] == 512
        assert service["p50"] == pytest.approx(0.0018091881656238096, rel=1e-9)
        assert service["p99"] == pytest.approx(0.0019920000285529025, rel=1e-9)
        # What the closed-loop replay hid: bursts queue.
        assert report["queue"]["wait_s"]["p99"] > 10 * service["p99"]
        assert report["latency_s"]["p99"] == pytest.approx(0.030148908674243108, rel=1e-9)

    def test_slow_window_matches_the_single_engine_replay(self):
        report = run_slo_replay(ReplayConfig(queue_capacity=512, faults=SLOW_40_160))
        requests = report["requests"]
        assert (requests["completed"], requests["degraded"], requests["shed"]) == (
            400, 22, 112,
        )
        assert requests["rejected"] == requests["unavailable"] == 0
        assert report["deadline_exceeded"] == 22
        assert report["fallback_candidates"] == 5632
        assert report["cluster"]["replicas"][0]["breaker"]["trips"] == 1
        service = report["service_latency_s"]
        assert service["p50"] == pytest.approx(0.001818278484762459, rel=1e-9)
        assert service["p99"] == pytest.approx(0.14580005941642699, rel=1e-9)

    def test_slow_window_at_default_capacity_accounts_backpressure(self):
        report = run_slo_replay(ReplayConfig(faults=SLOW_40_160))
        requests = report["requests"]
        assert requests["admitted"] == 226
        assert requests["rejected"] == 286
        assert requests["completed"] == 114
        assert requests["shed"] == 112
        assert report["queue"]["rejected"] == 286
        # Throughput is completions over the span the backlog took to
        # drain; the arrival rate keeps its own name.
        assert report["elapsed_s"] > 2 * 512 / report["offered_rps"]
        assert report["throughput_rps"] == pytest.approx(114 / report["elapsed_s"])
        assert report["offered_rps"] == pytest.approx(248.32722826926985, rel=1e-9)


class TestNowhereToRoute:
    def test_one_replica_reload_installs_behind_in_flight_work(self):
        # The lone replica cannot be drained out of rotation: at any
        # reload position the request queues behind the install.
        for reload_at in (0, 5, 30, 63):
            report = run_slo_replay(_quick(reload_at=reload_at))
            assert report["requests"]["completed"] == 64
            assert report["reload"]["installs"] == 1
            assert report["reload"]["complete"]
            assert report["reload"]["mixed_generation_responses"] == 0
            assert report["reload"]["generations_served"] == {
                **({"0": reload_at} if reload_at else {}),
                "1": 64 - reload_at,
            }

    def test_all_replicas_dead_is_counted_not_raised(self):
        report = run_slo_replay(
            _quick(
                requests=120,
                replicas=2,
                faults="kill_replica=0@30,flap_replica=1@40/10",
            )
        )
        requests = report["requests"]
        # Replica 1 is down for requests 40-49, 60-69, ... with 0 dead.
        assert requests["unavailable"] == 40
        assert report["rates"]["error"] == 40 / 120
        assert requests["completed"] == 80
        assert "unavailable 40" in format_slo_report(report)


_SCHEMA = dataset_by_name("criteo-kaggle", "tiny")


@st.composite
def _fault_specs(draw, replicas: int, requests: int):
    """A random FaultPlan replica schedule as its compact spec (or None)."""
    replica = st.integers(0, replicas - 1)
    at = st.integers(0, requests - 1)
    parts = []
    if draw(st.booleans()):
        parts.append(f"kill_replica={draw(replica)}@{draw(at)}")
    if draw(st.booleans()):
        parts.append(f"flap_replica={draw(replica)}@{draw(at)}/{draw(st.integers(1, 12))}")
    if draw(st.booleans()):
        start = draw(at)
        stop = draw(st.integers(start + 1, requests))
        parts.append(f"slow_replica={draw(replica)}@{start}:{stop}")
        parts.append(f"slow_replica_factor={draw(st.sampled_from((5, 40, 200)))}")
    return ",".join(parts) or None


@st.composite
def _replay_configs(draw):
    replicas = draw(st.integers(1, 3))
    requests = 40
    return ReplayConfig(
        requests=requests,
        candidates=320,  # two scoring chunks, so slow windows can miss deadlines
        seed=draw(st.integers(0, 5)),
        base_rate=draw(st.sampled_from((200.0, 2000.0))),
        breaker_min_requests=4,
        replicas=replicas,
        queue_capacity=draw(st.sampled_from((2, 64))),
        hedge_after_s=draw(st.sampled_from((None, 0.002, 0.02))),
        reload_at=draw(st.none() | st.integers(0, requests - 1)),
        faults=draw(_fault_specs(replicas, requests)),
    )


class TestConservation:
    @given(_replay_configs())
    @settings(max_examples=40, deadline=None)
    def test_every_request_is_accounted_and_the_run_is_deterministic(self, config):
        report = run_slo_replay(config, _SCHEMA)  # never raises
        requests = report["requests"]
        assert _accounted(requests) == requests["total"]
        assert report["reload"]["mixed_generation_responses"] == 0
        assert sum(report["reload"]["generations_served"].values()) == requests["completed"]
        rerun = run_slo_replay(config, _SCHEMA)
        assert json.dumps(report, sort_keys=True) == json.dumps(rerun, sort_keys=True)
