"""Zipf traffic replay: a seeded SLO load harness for the serving engine.

The serving story (deadlines, fallbacks, circuit breaker) is only
credible with tail-latency numbers under *realistic* load: Zipf-skewed
keys (the paper's whole premise), bursty arrivals, and fault windows.
This module drives a real :class:`~repro.serve.engine.InferenceEngine`
with a seeded request stream and distills the run into an SLO report —
P50/P95/P99 latency, throughput, degraded and shed rates — built from
the engine's own registry instruments and breaker counters.

**Determinism.** In the default ``simulated`` mode the engine is
constructed with a :class:`VirtualClock`: every clock read returns the
current virtual time and advances it by a per-request service cost drawn
from the seeded RNG (inflated inside injected slow-replica windows).
Arrival gaps advance the same clock.  Deadline checks, fallback
degradation, breaker trips, shed decisions, and every latency sample
therefore depend only on the seed and config — the same seed produces a
byte-identical report JSON, which is what lets tests pin breaker
behavior and lets two machines compare reports at all.  ``wall`` mode
swaps in ``time.perf_counter`` for honest-hardware numbers at the price
of run-to-run noise.

The engine code path exercised is the production one — real model
forward, real bounds checks, real breaker — only the clock is virtual.

**Cluster replay.**  :func:`run_cluster_replay` drives the same seeded
traffic through a :class:`~repro.serve.cluster.ServingCluster` of N
replicated engines (each with its own virtual clock), applies a
:class:`~repro.resilience.faults.FaultPlan`'s replica fault schedule
(``kill_replica`` / ``slow_replica`` / ``flap_replica``), optionally
begins a mid-run generation reload, and reports failover, hedging,
backpressure, and generation accounting on top of the SLO numbers —
byte-identical per seed, which is what lets CI ``cmp`` two chaos runs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.data import dataset_by_name
from repro.data.schema import DatasetSchema
from repro.data.zipf import ZipfSampler
from repro.models import build_model, workload_for_dataset
from repro.obs import get_registry
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import CircuitBreaker, LoadShedError
from repro.serve.cluster import ClusterBusyError, ServingCluster
from repro.serve.engine import InferenceEngine

__all__ = [
    "ClusterReplayConfig",
    "ReplayConfig",
    "VirtualClock",
    "format_cluster_report",
    "format_slo_report",
    "run_cluster_replay",
    "run_slo_replay",
]

SLO_SCHEMA_VERSION = 1
CLUSTER_SLO_SCHEMA_VERSION = 1


class VirtualClock:
    """Deterministic monotonic clock: each read advances time by ``step``.

    The engine reads the clock a fixed number of times per scored chunk
    (latency start/end, deadline checks), so setting ``step`` to the
    per-read service cost turns the read sequence itself into the
    service-time model: elapsed time grows with work performed, deadline
    checks trip exactly when the accumulated cost exceeds the budget,
    and none of it depends on the host's scheduler.
    """

    __slots__ = ("t", "step")

    def __init__(self, start: float = 0.0) -> None:
        self.t = start
        self.step = 0.0

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now

    def advance(self, seconds: float) -> None:
        """Jump forward (arrival gaps, think time)."""
        self.t += seconds


@dataclass(frozen=True)
class ReplayConfig:
    """Everything that determines a replay run (and its report).

    Attributes:
        requests: total requests to issue.
        candidates: candidate-set size per request.
        top_k: ranking depth.
        seed: master seed for arrivals, costs, features, and keys.
        dataset: workload schema family.
        scale: dataset scale (tables stay small enough to build fast).
        base_rate: steady-state arrival rate, requests/second.
        burst_factor: arrival-rate multiplier inside a burst.
        burst_every: burst period, in requests.
        burst_length: burst duration, in requests.
        hot_exponent: Zipf exponent of the candidate-key popularity.
        deadline_s: per-request ranking deadline (None disables).
        mode: ``"simulated"`` (virtual clock, byte-deterministic) or
            ``"wall"`` (real clock, honest but noisy).
        chunk_cost_s: simulated service cost per engine clock read.
        cost_jitter: relative uniform jitter on the per-request cost.
        slow_start / slow_stop: request-index window of an injected
            slow-replica fault (None disables).
        slow_factor: service-cost multiplier inside the slow window.
        breaker_window / breaker_threshold / breaker_min_requests /
        breaker_cooldown: circuit-breaker parameters (0 window disables
            the breaker entirely).
    """

    requests: int = 512
    candidates: int = 512
    top_k: int = 10
    seed: int = 7
    dataset: str = "criteo-kaggle"
    scale: str = "tiny"
    base_rate: float = 200.0
    burst_factor: float = 4.0
    burst_every: int = 100
    burst_length: int = 25
    hot_exponent: float = 1.05
    deadline_s: float | None = 0.025
    mode: str = "simulated"
    chunk_cost_s: float = 2e-4
    cost_jitter: float = 0.25
    slow_start: int | None = None
    slow_stop: int | None = None
    slow_factor: float = 100.0
    breaker_window: int = 32
    breaker_threshold: float = 0.5
    breaker_min_requests: int = 8
    breaker_cooldown: int = 16

    def __post_init__(self) -> None:
        if self.requests <= 0 or self.candidates <= 0:
            raise ValueError("requests and candidates must be positive")
        if self.mode not in ("simulated", "wall"):
            raise ValueError(f"mode must be 'simulated' or 'wall', got {self.mode!r}")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")

    def in_burst(self, request_index: int) -> bool:
        if self.burst_every <= 0:
            return False
        return (request_index % self.burst_every) < self.burst_length

    def in_slow_window(self, request_index: int) -> bool:
        if self.slow_start is None or self.slow_stop is None:
            return False
        return self.slow_start <= request_index < self.slow_stop


_REPLAY_HISTOGRAMS = (
    "serve.rank.latency",
    "serve.request.latency",
    "serve.rejected.latency",
)
_REPLAY_COUNTERS = (
    "serve.requests",
    "serve.batches",
    "serve.requests.shed",
    "serve.deadline.exceeded",
    "serve.fallback.candidates",
    "guards.breaker.trips",
    "guards.breaker.shed",
)
_CLUSTER_HISTOGRAMS = _REPLAY_HISTOGRAMS + (
    "serve.cluster.request.latency",
    "serve.cluster.queue.wait",
)
_CLUSTER_COUNTERS = _REPLAY_COUNTERS + (
    "serve.cluster.queue.rejected",
    "serve.cluster.failover",
    "serve.cluster.probe.revived",
    "serve.hedge.issued",
    "serve.hedge.wins",
    "serve.hedge.cancelled",
    "serve.cluster.reload.installs",
    "serve.cluster.generation.mixed",
    "faults.replica_kill.injected",
    "faults.replica_slow.injected",
    "faults.replica_flap.injected",
    "hotcache.hits",
    "hotcache.misses",
    "hotcache.promotions",
    "hotcache.demotions",
    "hotcache.evictions",
    "hotcache.rebalances",
)
_CLUSTER_GAUGES = (
    "serve.cluster.queue.depth",
    "serve.cluster.unhealthy",
    "hotcache.rows",
    "hotcache.bytes",
    "hotcache.hit_rate",
)


def _reset_instruments(
    histograms: tuple[str, ...],
    counters: tuple[str, ...],
    gauges: tuple[str, ...] = (),
) -> None:
    """Zero the replay's process-global instruments before a run."""
    registry = get_registry()
    for name in histograms:
        registry.histogram(name).reset()
    for name in counters:
        registry.counter(name).reset()
    for name in gauges:
        registry.gauge(name).reset()


def _histogram_stats(histogram) -> dict:
    """JSON-ready percentile digest of one histogram ({} when empty)."""
    if histogram.count == 0:
        return {}
    return {
        "count": histogram.count,
        "p50": histogram.percentile(50),
        "p90": histogram.percentile(90),
        "p95": histogram.percentile(95),
        "p99": histogram.percentile(99),
        "mean": histogram.total / histogram.count,
        "max": histogram.percentile(100),
    }


def _make_breaker(config: ReplayConfig) -> CircuitBreaker | None:
    """One engine's breaker from the config (None when the window is 0)."""
    if config.breaker_window <= 0:
        return None
    return CircuitBreaker(
        window=config.breaker_window,
        failure_threshold=config.breaker_threshold,
        min_requests=config.breaker_min_requests,
        cooldown=config.breaker_cooldown,
    )


def _candidate_table(schema: DatasetSchema):
    """The largest (most skew-sensitive) table supplies the candidates."""
    return max(schema.tables, key=lambda t: (t.num_rows, t.name))


def _traffic(config: ReplayConfig, schema: DatasetSchema):
    """The seeded request stream both replays consume.

    Builds the samplers now (outside any timed region) and returns an
    iterator of ``(r, gap, cost, dense, context, candidate_ids)``:
    inter-arrival gap, jittered per-read service cost, and the features
    to rank.  Every draw comes from RNGs owned here, in a fixed order
    independent of request outcomes, so neither a time model nor a fault
    schedule can perturb the workload itself.
    """
    rng = np.random.default_rng(config.seed)
    candidate_sampler = ZipfSampler(
        num_items=_candidate_table(schema).num_rows,
        exponent=config.hot_exponent,
        seed=config.seed + 1,
    )
    # Context tables each get their schema-declared skew.
    context_samplers = {
        t.name: (ZipfSampler(t.num_rows, t.zipf_exponent, seed=config.seed + 2 + i), t.multiplicity)
        for i, t in enumerate(schema.tables)
    }

    def requests():
        for r in range(config.requests):
            rate = config.base_rate * (config.burst_factor if config.in_burst(r) else 1.0)
            gap = float(rng.exponential(1.0 / rate))
            cost = config.chunk_cost_s * (1.0 + config.cost_jitter * float(rng.random()))
            dense = rng.standard_normal(schema.num_dense).astype(np.float32)
            context = {
                name: sampler.sample(multiplicity)
                for name, (sampler, multiplicity) in context_samplers.items()
            }
            yield r, gap, cost, dense, context, candidate_sampler.sample(config.candidates)

    return requests()


def run_slo_replay(config: ReplayConfig, schema: DatasetSchema | None = None) -> dict:
    """Run one seeded replay and return the JSON-ready SLO report.

    Builds a fresh model + engine + breaker so the run depends only on
    the config.  The serving instruments it reads are reset first (they
    are process-global; a replay is a measurement run, not a production
    counter stream).
    """
    registry = get_registry()
    _reset_instruments(_REPLAY_HISTOGRAMS, _REPLAY_COUNTERS)

    schema = schema or dataset_by_name(config.dataset, config.scale)
    model = build_model(
        workload_for_dataset(config.dataset),
        schema=schema,
        seed=config.seed,
    )
    breaker = _make_breaker(config)
    clock = VirtualClock() if config.mode == "simulated" else time.perf_counter
    engine = InferenceEngine(
        model,
        deadline_s=config.deadline_s,
        breaker=breaker,
        clock=clock,
    )

    candidate_table = _candidate_table(schema).name
    traffic = _traffic(config, schema)
    completed = 0
    degraded = 0
    shed = 0
    wall_start = time.perf_counter()
    virtual_start = clock.t if isinstance(clock, VirtualClock) else 0.0

    for r, gap, cost, dense, context, candidate_ids in traffic:
        if config.in_slow_window(r):
            cost *= config.slow_factor
        if isinstance(clock, VirtualClock):
            clock.advance(gap)
            clock.step = cost

        try:
            result = engine.rank_candidates(
                dense, context, candidate_table, candidate_ids, top_k=config.top_k
            )
        except LoadShedError:
            shed += 1
            continue
        completed += 1
        if result.degraded:
            degraded += 1

    if isinstance(clock, VirtualClock):
        clock.step = 0.0
        elapsed = clock.t - virtual_start
    else:
        elapsed = time.perf_counter() - wall_start

    latency = registry.histogram("serve.rank.latency")
    total = config.requests
    report = {
        "schema_version": SLO_SCHEMA_VERSION,
        "kind": "slo_report",
        "mode": config.mode,
        "seed": config.seed,
        "config": asdict(config),
        "requests": {
            "total": total,
            "completed": completed,
            "degraded": degraded,
            "shed": shed,
        },
        "rates": {
            "degraded": degraded / total,
            "shed": shed / total,
            "error": 0.0 if total == 0 else (total - completed - shed) / total,
        },
        "latency_s": _histogram_stats(latency),
        "rejected_latency_s": _histogram_stats(
            registry.histogram("serve.rejected.latency")
        ),
        "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
        "deadline_exceeded": int(registry.counter("serve.deadline.exceeded").value),
        "fallback_candidates": int(registry.counter("serve.fallback.candidates").value),
        "breaker": None if breaker is None else breaker.health(),
    }
    return report


@dataclass(frozen=True)
class ClusterReplayConfig(ReplayConfig):
    """A :class:`ReplayConfig` plus the replicated-tier knobs.

    Attributes:
        replicas: pool size (each replica is a full engine + breaker on
            its own virtual clock).
        queue_capacity: cluster admission backlog bound; beyond it
            requests are rejected with retry-after.
        hedge_after_s: hedge budget — requests whose response would take
            longer are re-issued on a second replica (None disables).
        reload_at: request index at which a new serving generation
            (a rebuilt parameter set) starts rolling through the pool,
            or None.
        faults: compact :meth:`~repro.resilience.faults.FaultPlan.parse`
            spec applied per request (``kill_replica`` / ``slow_replica``
            / ``flap_replica``), or None.
        cache_budget_bytes: GPU byte budget for an online
            :class:`~repro.core.hotcache.EmbeddingHotCache` shared by all
            replicas (hot lookups resolve through live cache membership
            and its hit/miss counters land in the SLO report); 0 serves
            from the engines' static hot masks as before.

    The single-engine ``slow_start`` / ``slow_stop`` window is unused
    here — slow replicas come from the fault plan instead, which says
    *which* replica straggles.
    """

    replicas: int = 3
    queue_capacity: int = 64
    hedge_after_s: float | None = None
    reload_at: int | None = None
    faults: str | None = None
    cache_budget_bytes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be positive (or None)")
        if self.reload_at is not None and self.reload_at < 0:
            raise ValueError("reload_at must be >= 0")
        if self.mode != "simulated":
            raise ValueError(
                "cluster replay requires mode='simulated' — replica "
                "scheduling is a discrete-event model over per-replica "
                "virtual clocks"
            )
        if self.faults is not None:
            FaultPlan.parse(self.faults)  # fail fast on a bad spec
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")


def run_cluster_replay(
    config: ClusterReplayConfig, schema: DatasetSchema | None = None
) -> dict:
    """Run one seeded replay against a replicated cluster; return the report.

    Same seeded traffic as :func:`run_slo_replay` (the RNG draw order is
    independent of request outcomes, so fault schedules never perturb
    the workload itself), routed through a
    :class:`~repro.serve.cluster.ServingCluster` with the configured
    fault plan, hedging, and mid-run reload.  The report is a pure
    function of the config — byte-identical run to run.
    """
    registry = get_registry()
    _reset_instruments(_CLUSTER_HISTOGRAMS, _CLUSTER_COUNTERS, _CLUSTER_GAUGES)

    schema = schema or dataset_by_name(config.dataset, config.scale)
    workload = workload_for_dataset(config.dataset)
    model = build_model(workload, schema=schema, seed=config.seed)
    plan = FaultPlan.parse(config.faults) if config.faults else None

    # One online hot cache shared by the whole pool: replicas serve the
    # same traffic, so membership (and its counters) is cluster-level
    # state.  It cold-starts empty and fills from the replayed requests.
    hot_cache = None
    if config.cache_budget_bytes > 0:
        hot_cache = EmbeddingHotCache.from_schema(
            schema,
            HotCacheConfig(
                budget_bytes=config.cache_budget_bytes,
                rebalance_every=max(1, config.requests // 8),
                seed=config.seed,
            ),
            large_table_min_bytes=1024,
        )

    engines = [
        InferenceEngine(
            model,
            deadline_s=config.deadline_s,
            breaker=_make_breaker(config),
            clock=VirtualClock(),
            hot_cache=hot_cache,
        )
        for _ in range(config.replicas)
    ]
    cluster = ServingCluster(
        engines,
        queue_capacity=config.queue_capacity,
        hedge_after_s=config.hedge_after_s,
    )
    # The next generation's parameters: a retrain, rebuilt from a
    # derived seed so the swap is a real parameter change.
    reload_model = (
        build_model(workload, schema=schema, seed=config.seed + 9001)
        if config.reload_at is not None
        else None
    )

    candidate_table = _candidate_table(schema).name
    now = 0.0
    admitted = completed = degraded = rejected = shed = 0
    hedged_requests = failed_over_requests = 0
    generation_counts: dict[str, int] = {}
    reload_generation: int | None = None

    for r, gap, cost, dense, context, candidate_ids in _traffic(config, schema):
        if plan is not None:
            for i in range(config.replicas):
                alive = plan.replica_alive(i, r)
                if alive != cluster.slots[i].alive:
                    (cluster.revive_replica if alive else cluster.kill_replica)(i)
                cluster.set_slow_factor(i, plan.replica_slow_multiplier(i, r))
        if config.reload_at is not None and r == config.reload_at:
            reload_generation = cluster.begin_reload(reload_model)

        now += gap

        try:
            response = cluster.submit(
                now, cost, dense, context, candidate_table, candidate_ids,
                top_k=config.top_k,
            )
        except ClusterBusyError:
            rejected += 1
            continue
        except LoadShedError:
            admitted += 1
            shed += 1
            continue
        admitted += 1
        completed += 1
        if response.result.degraded:
            degraded += 1
        if response.hedged:
            hedged_requests += 1
        if response.failovers:
            failed_over_requests += 1
        key = str(response.generation)
        generation_counts[key] = generation_counts.get(key, 0) + 1

    elapsed = now
    total = config.requests

    def count(name: str) -> int:
        return int(registry.counter(name).value)

    return {
        "schema_version": CLUSTER_SLO_SCHEMA_VERSION,
        "kind": "cluster_slo_report",
        "mode": config.mode,
        "seed": config.seed,
        "replicas": config.replicas,
        "config": asdict(config),
        "requests": {
            "total": total,
            "admitted": admitted,
            "completed": completed,
            "degraded": degraded,
            "rejected": rejected,
            "shed": shed,
            "hedged": hedged_requests,
            "failed_over": failed_over_requests,
        },
        "rates": {
            "rejected": rejected / total,
            "shed": shed / total,
            "degraded": degraded / total,
            "error": (admitted - completed - shed) / total,
        },
        "latency_s": _histogram_stats(
            registry.histogram("serve.cluster.request.latency")
        ),
        "queue": {
            "capacity": config.queue_capacity,
            "rejected": count("serve.cluster.queue.rejected"),
            "wait_s": _histogram_stats(
                registry.histogram("serve.cluster.queue.wait")
            ),
        },
        "rejected_latency_s": _histogram_stats(
            registry.histogram("serve.rejected.latency")
        ),
        "failovers": count("serve.cluster.failover"),
        "probe_revived": count("serve.cluster.probe.revived"),
        "hedge": {
            "after_s": config.hedge_after_s,
            "issued": count("serve.hedge.issued"),
            "wins": count("serve.hedge.wins"),
            "cancelled": count("serve.hedge.cancelled"),
        },
        "reload": {
            "requested_at": config.reload_at,
            "generation": reload_generation,
            "installs": count("serve.cluster.reload.installs"),
            "complete": not cluster.reload_active,
            "generations_served": {
                key: generation_counts[key] for key in sorted(generation_counts)
            },
            "mixed_generation_responses": count("serve.cluster.generation.mixed"),
        },
        "faults_injected": {
            "replica_kill": count("faults.replica_kill.injected"),
            "replica_slow": count("faults.replica_slow.injected"),
            "replica_flap": count("faults.replica_flap.injected"),
        },
        "deadline_exceeded": count("serve.deadline.exceeded"),
        "fallback_candidates": count("serve.fallback.candidates"),
        "cluster": cluster.health(),
        "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
    }


def format_cluster_report(report: dict) -> str:
    """Human-readable digest of one cluster SLO report."""
    lat = report.get("latency_s") or {}
    requests = report["requests"]
    rates = report["rates"]
    hedge = report["hedge"]
    reload_info = report["reload"]
    lines = [
        f"cluster slo report (seed {report['seed']}, "
        f"{report['replicas']} replicas): "
        f"{requests['total']} requests in {report['elapsed_s']:.3f}s "
        f"({report['throughput_rps']:.0f} req/s)",
        (
            f"  latency  p50 {1e3 * lat.get('p50', 0):7.2f} ms   "
            f"p95 {1e3 * lat.get('p95', 0):7.2f} ms   "
            f"p99 {1e3 * lat.get('p99', 0):7.2f} ms   "
            f"max {1e3 * lat.get('max', 0):7.2f} ms"
            if lat
            else "  latency  (no completed requests)"
        ),
        f"  outcomes completed {requests['completed']}/{requests['admitted']} admitted  "
        f"degraded {requests['degraded']} ({100 * rates['degraded']:.1f}%)  "
        f"rejected {requests['rejected']} ({100 * rates['rejected']:.1f}%)  "
        f"shed {requests['shed']} ({100 * rates['shed']:.1f}%)",
        f"  ha       failovers {report['failovers']}  "
        f"hedges {hedge['issued']} (wins {hedge['wins']}, "
        f"cancelled {hedge['cancelled']})  "
        f"probe revivals {report['probe_revived']}",
    ]
    if reload_info["requested_at"] is not None:
        generations = ", ".join(
            f"gen {gen}: {count}"
            for gen, count in reload_info["generations_served"].items()
        )
        lines.append(
            f"  reload   gen {reload_info['generation']} at request "
            f"{reload_info['requested_at']}: installs {reload_info['installs']}, "
            f"{'complete' if reload_info['complete'] else 'IN PROGRESS'}, "
            f"mixed-generation responses "
            f"{reload_info['mixed_generation_responses']}  [{generations}]"
        )
    return "\n".join(lines)


def format_slo_report(report: dict) -> str:
    """Human-readable digest of one SLO report."""
    lat = report.get("latency_s") or {}
    rates = report["rates"]
    requests = report["requests"]
    lines = [
        f"slo report ({report['mode']}, seed {report['seed']}): "
        f"{requests['total']} requests in {report['elapsed_s']:.3f}s "
        f"({report['throughput_rps']:.0f} req/s)",
        (
            f"  latency  p50 {1e3 * lat.get('p50', 0):7.2f} ms   "
            f"p95 {1e3 * lat.get('p95', 0):7.2f} ms   "
            f"p99 {1e3 * lat.get('p99', 0):7.2f} ms   "
            f"max {1e3 * lat.get('max', 0):7.2f} ms"
            if lat
            else "  latency  (no completed requests)"
        ),
        f"  outcomes completed {requests['completed']}  "
        f"degraded {requests['degraded']} ({100 * rates['degraded']:.1f}%)  "
        f"shed {requests['shed']} ({100 * rates['shed']:.1f}%)",
    ]
    breaker = report.get("breaker")
    if breaker is not None:
        lines.append(
            f"  breaker  state {breaker['state']}  trips {breaker['trips']}  "
            f"shed {breaker['shed_requests']}  "
            f"failure rate {breaker['failure_rate']:.2f}"
        )
    return "\n".join(lines)
