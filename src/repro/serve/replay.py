"""Zipf traffic replay: the seeded SLO load harness for the serving tier.

The serving story (deadlines, fallbacks, circuit breaker, failover,
hedging, reload) is only credible with tail-latency numbers under
*realistic* load: Zipf-skewed keys (the paper's whole premise), bursty
arrivals, and fault windows.  :func:`run_slo_replay` drives a
:class:`~repro.serve.cluster.ServingCluster` of ``replicas`` real
:class:`~repro.serve.engine.InferenceEngine`s (one by default) with a
seeded request stream and distills the run into one SLO report, built
from the tier's own registry instruments and breaker counters.

**One time model.**  Arrivals are *open-loop*: request ``r`` arrives at
the running sum of seeded inter-arrival gaps whether or not the tier has
caught up, so a burst that outruns the service rate queues (and, past
``queue_capacity``, is rejected) instead of politely waiting its turn.
Each replica's engine owns a :class:`VirtualClock`; dispatch sets it to
the service start (``max(arrival, replica busy-until)``) and sets its
per-read step to the request's seeded service cost, inflated by the
:class:`~repro.resilience.faults.FaultPlan`'s ``slow_replica`` window.
The report therefore carries two latencies: ``service_latency_s`` is
what the engine spent ranking (``serve.rank.latency``), ``latency_s`` is
arrival to response — queue wait, failover and hedging included.

**Determinism.**  Deadline checks, fallback degradation, breaker trips,
shed decisions, routing, and every latency sample depend only on the
seed and config, so the same config produces a byte-identical report
JSON — which is what lets tests pin breaker behavior and CI ``cmp`` two
chaos runs.  The engine code path exercised is the production one (real
model forward, real bounds checks, real breaker); only the clock is
virtual.  Wall-clock serving numbers are ``perfbench``'s ``serve-rank``
workload, the repo's one timing benchmark.
"""

from __future__ import annotations

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
from repro.serve.cluster import ClusterBusyError, NoReplicaError, ServingCluster
from repro.serve.engine import InferenceEngine

__all__ = [
    "ReplayConfig",
    "VirtualClock",
    "format_slo_report",
    "run_slo_replay",
]

SLO_SCHEMA_VERSION = 2


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
        chunk_cost_s: simulated service cost per engine clock read.
        cost_jitter: relative uniform jitter on the per-request cost.
        breaker_window / breaker_threshold / breaker_min_requests /
        breaker_cooldown: circuit-breaker parameters (0 window disables
            the breaker entirely).
        replicas: pool size (each replica is a full engine + breaker on
            its own virtual clock).
        queue_capacity: admission backlog bound; beyond it requests are
            rejected with retry-after.
        hedge_after_s: hedge budget — requests whose response would take
            longer are re-issued on a second replica (None disables).
        reload_at: request index at which a new serving generation
            (a rebuilt parameter set) starts rolling through the pool,
            or None.
        faults: compact :meth:`~repro.resilience.faults.FaultPlan.parse`
            spec applied per request (``kill_replica`` / ``slow_replica``
            / ``flap_replica``), or None.  A slow window on the one
            default replica is ``slow_replica=0@START:STOP``.
        cache_budget_bytes: GPU byte budget for an online
            :class:`~repro.core.hotcache.EmbeddingHotCache` shared by all
            replicas (hot lookups resolve through live cache membership
            and its hit/miss counters land in the SLO report); 0 serves
            from the engines' static hot masks.
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
    chunk_cost_s: float = 2e-4
    cost_jitter: float = 0.25
    breaker_window: int = 32
    breaker_threshold: float = 0.5
    breaker_min_requests: int = 8
    breaker_cooldown: int = 16
    replicas: int = 1
    queue_capacity: int = 64
    hedge_after_s: float | None = None
    reload_at: int | None = None
    faults: str | None = None
    cache_budget_bytes: int = 0

    def __post_init__(self) -> None:
        if self.requests <= 0 or self.candidates <= 0:
            raise ValueError("requests and candidates must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be positive (or None)")
        if self.reload_at is not None and self.reload_at < 0:
            raise ValueError("reload_at must be >= 0")
        if self.faults is not None:
            FaultPlan.parse(self.faults)  # fail fast on a bad spec
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")

    def in_burst(self, request_index: int) -> bool:
        if self.burst_every <= 0:
            return False
        return (request_index % self.burst_every) < self.burst_length


_HISTOGRAMS = (
    "serve.rank.latency",
    "serve.request.latency",
    "serve.rejected.latency",
    "serve.cluster.request.latency",
    "serve.cluster.queue.wait",
)
_COUNTERS = (
    "serve.requests",
    "serve.batches",
    "serve.requests.shed",
    "serve.deadline.exceeded",
    "serve.fallback.candidates",
    "guards.breaker.trips",
    "guards.breaker.shed",
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
_GAUGES = (
    "serve.cluster.queue.depth",
    "serve.cluster.unhealthy",
    "hotcache.rows",
    "hotcache.bytes",
    "hotcache.hit_rate",
)


def _reset_instruments() -> None:
    """Zero the replay's process-global instruments before a run."""
    registry = get_registry()
    for name in _HISTOGRAMS:
        registry.histogram(name).reset()
    for name in _COUNTERS:
        registry.counter(name).reset()
    for name in _GAUGES:
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
    """The seeded request stream the replay consumes.

    Builds the samplers now (outside any timed region) and returns an
    iterator of ``(r, gap, cost, dense, context, candidate_ids)``:
    inter-arrival gap, jittered per-read service cost, and the features
    to rank.  Every draw comes from RNGs owned here, in a fixed order
    independent of request outcomes, so no fault schedule can perturb
    the workload itself.
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

    Builds a fresh model, ``config.replicas`` engines + breakers and the
    :class:`~repro.serve.cluster.ServingCluster` over them, so the run
    depends only on the config.  The serving instruments it reads are
    reset first (they are process-global; a replay is a measurement run,
    not a production counter stream).  The replay is the cluster's
    caller, so it is also what accounts for a request the pool could not
    take: ``rejected`` (backlog full), ``shed`` (every breaker open) or
    ``unavailable`` (every replica dead) — the run keeps going and the
    four outcomes always add up to ``total``.
    """
    registry = get_registry()
    _reset_instruments()

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
    now = last_completion = 0.0
    completed = degraded = rejected = shed = unavailable = 0
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
            shed += 1
            continue
        except NoReplicaError:
            unavailable += 1
            continue
        completed += 1
        last_completion = max(last_completion, now + response.latency_s)
        if response.result.degraded:
            degraded += 1
        if response.hedged:
            hedged_requests += 1
        if response.failovers:
            failed_over_requests += 1
        key = str(response.generation)
        generation_counts[key] = generation_counts.get(key, 0) + 1

    # The run ends when the backlog has drained, not at the last arrival:
    # throughput is what completed over that span, offered load is what
    # arrived over the arrival span.
    elapsed = max(now, last_completion)
    total = config.requests

    def count(name: str) -> int:
        return int(registry.counter(name).value)

    def digest(name: str) -> dict:
        return _histogram_stats(registry.histogram(name))

    return {
        "schema_version": SLO_SCHEMA_VERSION,
        "kind": "slo_report",
        "mode": "simulated",
        "seed": config.seed,
        "replicas": config.replicas,
        "config": asdict(config),
        "requests": {
            "total": total,
            "admitted": total - rejected,
            "completed": completed,
            "degraded": degraded,
            "rejected": rejected,
            "shed": shed,
            "unavailable": unavailable,
            "hedged": hedged_requests,
            "failed_over": failed_over_requests,
        },
        "rates": {
            "rejected": rejected / total,
            "shed": shed / total,
            "degraded": degraded / total,
            "error": unavailable / total,
        },
        "latency_s": digest("serve.cluster.request.latency"),
        "service_latency_s": digest("serve.rank.latency"),
        "queue": {
            "capacity": config.queue_capacity,
            "rejected": count("serve.cluster.queue.rejected"),
            "wait_s": digest("serve.cluster.queue.wait"),
        },
        "rejected_latency_s": digest("serve.rejected.latency"),
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
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "offered_rps": total / now if now > 0 else 0.0,
        "elapsed_s": elapsed,
    }


def _percentile_line(label: str, stats: dict) -> str:
    if not stats:
        return f"  {label:<8} (no completed requests)"
    return (
        f"  {label:<8} p50 {1e3 * stats['p50']:7.2f} ms   "
        f"p95 {1e3 * stats['p95']:7.2f} ms   "
        f"p99 {1e3 * stats['p99']:7.2f} ms   "
        f"max {1e3 * stats['max']:7.2f} ms"
    )


def format_slo_report(report: dict) -> str:
    """Human-readable digest of one SLO report."""
    requests = report["requests"]
    rates = report["rates"]
    hedge = report["hedge"]
    reload_info = report["reload"]
    replicas = report["replicas"]
    breakers = [
        r["breaker"] for r in report["cluster"]["replicas"] if r["breaker"] is not None
    ]
    lines = [
        f"slo report (seed {report['seed']}, "
        f"{replicas} replica{'' if replicas == 1 else 's'}): "
        f"{requests['total']} requests in {report['elapsed_s']:.3f}s "
        f"({report['throughput_rps']:.0f} req/s completed, "
        f"{report['offered_rps']:.0f} offered)",
        _percentile_line("latency", report["latency_s"]),
        _percentile_line("service", report["service_latency_s"]),
        _percentile_line("queue", report["queue"]["wait_s"]),
        f"  outcomes completed {requests['completed']}/{requests['admitted']} admitted  "
        f"degraded {requests['degraded']} ({100 * rates['degraded']:.1f}%)  "
        f"rejected {requests['rejected']} ({100 * rates['rejected']:.1f}%)  "
        f"shed {requests['shed']} ({100 * rates['shed']:.1f}%)  "
        f"unavailable {requests['unavailable']} ({100 * rates['error']:.1f}%)",
        f"  ha       failovers {report['failovers']}  "
        f"hedges {hedge['issued']} (wins {hedge['wins']}, "
        f"cancelled {hedge['cancelled']})  "
        f"probe revivals {report['probe_revived']}",
    ]
    if breakers:
        lines.append(
            f"  breaker  trips {sum(b['trips'] for b in breakers)}  "
            f"shed {sum(b['shed_requests'] for b in breakers)}  "
            f"open {sum(b['state'] == 'open' for b in breakers)}/{len(breakers)}"
        )
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
