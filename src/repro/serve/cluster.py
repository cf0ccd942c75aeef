"""Highly-available serving tier: a replica pool over inference engines.

One :class:`~repro.serve.engine.InferenceEngine` is a single point of
failure: a replica death or a hot-set swap takes the whole tier down,
and one straggling replica owns the tail latency.  The FAE premise makes
replication cheap — the hot bags are small enough to sit on every GPU —
so the production answer is a pool: :class:`ServingCluster` fronts N
replicated engines with the four defenses a real serving tier needs.

**Backpressure.**  Admission is bounded: the cluster tracks the in-flight
backlog (requests whose completion lies in the future) and rejects new
work with :class:`ClusterBusyError` — carrying a ``retry_after_s`` hint,
the serving equivalent of HTTP 429 — once the backlog reaches
``queue_capacity``.  Depth, waits, and rejections are surfaced as
``serve.cluster.queue.*`` instruments, and rejected requests record
their (immediate) time-to-rejection in ``serve.rejected.latency`` so
dropped traffic cannot silently flatter the latency report.

**Health-probe routing and failover.**  Requests go to the least-loaded
replica the prober believes healthy.  A replica whose circuit breaker is
open is routed around until it recovers.  Death is discovered the hard
way — a dispatch to a dead replica fails, the request *fails over* to
the next healthy replica (``serve.cluster.failover``), and the prober
marks the replica down — exactly the one-failed-request lag a real load
balancer with a finite probe interval pays.  Recovery is probe-driven:
a revived (e.g. flapping) replica is re-admitted on the next probe
(``serve.cluster.probe.revived``).

**Hedged requests.**  Tail latency is dominated by the occasional slow
replica.  With ``hedge_after_s`` set, a request whose response would not
arrive within the hedge budget is re-issued on a second replica starting
at ``arrival + hedge_after_s``; the first completion wins and the loser
is cancelled (its replica freed at the winner's completion time).
``serve.hedge.issued`` / ``serve.hedge.wins`` / ``serve.hedge.cancelled``
count the mechanism.

**Zero-downtime generation reload.**  :meth:`ServingCluster.begin_reload`
installs a new model / hot set *replica-by-replica at request
boundaries*: one replica at a time is taken out of rotation, drains its
in-flight work, gets the new generation via
:meth:`~repro.serve.engine.InferenceEngine.install`, and rejoins before
the next replica starts.  Every response is stamped with the generation
that served it; because installs only happen between requests on a
drained replica, no response is ever served from a half-swapped state
(``serve.cluster.generation.mixed`` is a defensive counter that must
stay zero).

**Determinism.**  The cluster is a discrete-event front end over real
engines: each replica's engine owns a
:class:`~repro.serve.replay.VirtualClock`, dispatch sets the clock to
the service start time (``max(arrival, replica busy-until)``) and the
per-read step to the request's service cost, and the engine's own clock
reads become the service-time model.  Queueing, failover, hedging, and
reload scheduling are all pure functions of the submitted sequence, so a
seeded replay (:func:`repro.serve.replay.run_slo_replay`, the cluster's
one driver: a single engine is the ``replicas=1`` pool) produces a
byte-identical SLO report per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs import get_registry
from repro.resilience.guards import LoadShedError
from repro.serve.engine import InferenceEngine, RankedItems

__all__ = [
    "ClusterBusyError",
    "ClusterResponse",
    "NoReplicaError",
    "ReloadBundle",
    "ReplicaSlot",
    "ServingCluster",
]


class ClusterBusyError(RuntimeError):
    """Admission queue full — reject with a retry-after hint.

    Attributes:
        depth: backlog depth at rejection.
        capacity: the configured queue capacity.
        retry_after_s: when the earliest in-flight request completes —
            the soonest a retry could possibly be admitted.
    """

    def __init__(self, depth: int, capacity: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full ({depth}/{capacity} in flight); "
            f"retry after {retry_after_s:.4f}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after_s = retry_after_s


class NoReplicaError(RuntimeError):
    """Every replica is dead or draining — the tier cannot serve."""


@dataclass(frozen=True)
class ReloadBundle:
    """A new serving generation: model, optional hot bags, generation stamp."""

    model: object
    hot_bags: dict | None
    generation: int


@dataclass
class ReplicaSlot:
    """One pooled engine plus the cluster's view of it.

    Attributes:
        engine: the wrapped inference engine.
        replica_id: stable pool index.
        generation: serving generation currently installed.
        alive: ground truth — whether dispatches succeed.
        healthy: the prober's belief; routing uses this, not ``alive``
            (death is learned from a failed request, recovery from a
            probe).
        draining: out of rotation for a pending generation install.
        busy_until: virtual time at which the replica's current work
            completes; dispatch starts at ``max(now, busy_until)``.
        slow_factor: service-cost multiplier (straggler injection).
        served: requests this replica completed (hedges included).
    """

    engine: InferenceEngine
    replica_id: int
    generation: int = 0
    alive: bool = True
    healthy: bool = True
    draining: bool = False
    busy_until: float = 0.0
    slow_factor: float = 1.0
    served: int = 0

    def snapshot(self) -> dict:
        """JSON-ready per-replica state for the cluster health report."""
        breaker = self.engine.breaker
        return {
            "replica": self.replica_id,
            "generation": self.generation,
            "alive": self.alive,
            "healthy": self.healthy,
            "draining": self.draining,
            "busy_until": self.busy_until,
            "served": self.served,
            "breaker": None if breaker is None else breaker.health(),
        }


@dataclass(frozen=True)
class ClusterResponse:
    """One completed cluster request.

    Attributes:
        result: the winning replica's ranking.
        replica: which replica's response was returned.
        generation: the serving generation that produced ``result``
            (stamped per response; never mixed).
        latency_s: arrival → returned-response time (queue wait +
            service, hedging included).
        queue_wait_s: time spent waiting for the winning replica.
        hedged: a hedge request was issued.
        hedge_won: the hedge (not the primary) produced the response.
        failovers: dead/shedding replicas tried before one accepted.
    """

    result: RankedItems
    replica: int
    generation: int
    latency_s: float
    queue_wait_s: float
    hedged: bool = False
    hedge_won: bool = False
    failovers: int = 0


@dataclass(frozen=True)
class _Attempt:
    """Internal: one dispatch on one replica."""

    result: RankedItems
    slot: ReplicaSlot
    start: float
    completion: float
    generation: int


class ServingCluster:
    """Replica pool with failover, hedging, backpressure, and reload.

    Args:
        engines: the replicated engines.  Each must have an injectable
            clock exposing ``t`` and ``step`` (a
            :class:`~repro.serve.replay.VirtualClock`): the cluster is a
            deterministic discrete-event model and drives every
            replica's service time through its clock.
        queue_capacity: max in-flight backlog before admission rejects
            with :class:`ClusterBusyError`.
        hedge_after_s: response-time budget after which a request is
            hedged on a second replica, or None to disable hedging.
    """

    def __init__(
        self,
        engines: list[InferenceEngine],
        *,
        queue_capacity: int = 64,
        hedge_after_s: float | None = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one replica engine")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be positive (or None)")
        for engine in engines:
            clock = engine.clock
            if not hasattr(clock, "t") or not hasattr(clock, "step"):
                raise TypeError(
                    "cluster replicas need an injectable virtual clock "
                    "(VirtualClock) — wall-clock engines cannot be "
                    "deterministically scheduled"
                )
        self.slots = [
            ReplicaSlot(engine=engine, replica_id=i) for i, engine in enumerate(engines)
        ]
        self.queue_capacity = queue_capacity
        self.hedge_after_s = hedge_after_s
        self._completions: list[float] = []
        self._reload_bundle: ReloadBundle | None = None
        self._reload_pending: deque[int] = deque()
        self._next_generation = 1

        registry = get_registry()
        self._queue_depth = registry.gauge("serve.cluster.queue.depth")
        self._queue_wait = registry.histogram("serve.cluster.queue.wait")
        self._queue_rejected = registry.counter("serve.cluster.queue.rejected")
        self._rejected_latency = registry.histogram("serve.rejected.latency")
        self._request_latency = registry.histogram("serve.cluster.request.latency")
        self._failover = registry.counter("serve.cluster.failover")
        self._unhealthy = registry.gauge("serve.cluster.unhealthy")
        self._probe_revived = registry.counter("serve.cluster.probe.revived")
        self._hedge_issued = registry.counter("serve.hedge.issued")
        self._hedge_wins = registry.counter("serve.hedge.wins")
        self._hedge_cancelled = registry.counter("serve.hedge.cancelled")
        self._reload_installs = registry.counter("serve.cluster.reload.installs")
        self._generation_mixed = registry.counter("serve.cluster.generation.mixed")

    # ------------------------------------------------------------------
    # Fault hooks (driven by the replay's FaultPlan schedule)
    # ------------------------------------------------------------------

    def kill_replica(self, replica: int) -> None:
        """Ground-truth death; the prober learns via a failed dispatch."""
        self.slots[replica].alive = False

    def revive_replica(self, replica: int) -> None:
        """Ground-truth recovery; the next probe re-admits the replica."""
        self.slots[replica].alive = True

    def set_slow_factor(self, replica: int, factor: float) -> None:
        """Multiply the replica's service cost (straggler injection)."""
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        self.slots[replica].slow_factor = factor

    # ------------------------------------------------------------------
    # Health probing and routing
    # ------------------------------------------------------------------

    def _probe(self) -> None:
        """Sync the prober's beliefs with what a cheap probe can see.

        A probe detects *recovery* directly (a liveness ping answers) and
        sees an open breaker in the replica's health snapshot; it cannot
        pre-announce a death that hasn't failed a request yet — that
        asymmetry is what makes failover observable.
        """
        unhealthy = 0
        for slot in self.slots:
            breaker = slot.engine.breaker
            breaker_open = breaker is not None and breaker.state == "open"
            if slot.alive and not slot.healthy and not breaker_open:
                slot.healthy = True
                self._probe_revived.inc()
            if breaker_open:
                slot.healthy = False
            if not slot.healthy:
                unhealthy += 1
        self._unhealthy.set(unhealthy)

    def _route(self, exclude: set[int]) -> ReplicaSlot | None:
        """Least-loaded believed-healthy replica, ties broken by id.

        Falls back to believed-unhealthy replicas when nothing healthy
        remains (serving degraded beats serving nothing); returns None
        only when every replica is excluded or draining.
        """
        candidates = [
            s for s in self.slots if not s.draining and s.replica_id not in exclude
        ]
        healthy = [s for s in candidates if s.healthy]
        pool = healthy or candidates
        if not pool:
            return None
        return min(pool, key=lambda s: (s.busy_until, s.replica_id))

    # ------------------------------------------------------------------
    # Generation reload
    # ------------------------------------------------------------------

    def begin_reload(self, model, hot_bags: dict | None = None) -> int:
        """Queue a new serving generation; replicas swap one at a time.

        Returns the generation number the bundle will serve as.  The
        actual installs happen at subsequent request boundaries
        (:meth:`submit` calls), each on a fully drained replica.
        Beginning a new reload while one is pending fast-forwards the
        pending replicas to the newest bundle (the old target generation
        is skipped, never half-applied).
        """
        generation = self._next_generation
        self._next_generation += 1
        self._reload_bundle = ReloadBundle(
            model=model, hot_bags=hot_bags, generation=generation
        )
        self._reload_pending = deque(
            sorted(s.replica_id for s in self.slots if s.generation != generation)
        )
        return generation

    @property
    def reload_active(self) -> bool:
        """Whether any replica still awaits the pending generation."""
        return bool(self._reload_pending)

    def reload_state(self) -> dict:
        """JSON-ready reload progress snapshot."""
        return {
            "active": self.reload_active,
            "target_generation": (
                None if self._reload_bundle is None else self._reload_bundle.generation
            ),
            "pending_replicas": sorted(self._reload_pending),
            "generations": [s.generation for s in self.slots],
        }

    def _advance_reload(self, now: float) -> None:
        """Install the pending generation on drained replicas.

        Called at each request boundary.  The head-of-queue replica is
        marked draining (no new work); once its in-flight work has
        completed (``busy_until <= now``) the new generation is
        installed and it rejoins rotation, and the next replica starts
        draining.  A dead replica is installed immediately — it serves
        nothing, and must come back (if revived) at the new generation.
        So is a busy replica with no live peer to carry traffic while it
        drains: the install is ordered behind its in-flight work (whose
        responses are already stamped with the old generation) and the
        arriving request queues behind both, dispatched at
        ``busy_until`` — still a request boundary, never a half-swap.
        """
        while self._reload_pending:
            slot = self.slots[self._reload_pending[0]]
            has_live_peer = any(s.alive for s in self.slots if s is not slot)
            if slot.alive and slot.busy_until > now and has_live_peer:
                slot.draining = True
                return  # still draining; keep serving on the others
            bundle = self._reload_bundle
            slot.engine.install(bundle.model, bundle.hot_bags)
            slot.generation = bundle.generation
            slot.draining = False
            self._reload_installs.inc()
            self._reload_pending.popleft()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def queue_depth(self, now: float) -> int:
        """In-flight backlog: admitted requests completing after ``now``."""
        self._completions = [t for t in self._completions if t > now]
        return len(self._completions)

    def _dispatch(
        self,
        slot: ReplicaSlot,
        earliest_start: float,
        cost_s: float,
        dense: np.ndarray,
        sparse_context: dict[str, np.ndarray],
        candidate_table: str,
        candidate_ids: np.ndarray,
        top_k: int,
    ) -> _Attempt:
        """Run the request on one replica's engine at its virtual time."""
        start = max(earliest_start, slot.busy_until)
        clock = slot.engine.clock
        clock.t = start
        clock.step = cost_s * slot.slow_factor
        generation = slot.generation
        try:
            result = slot.engine.rank_candidates(
                dense, sparse_context, candidate_table, candidate_ids, top_k=top_k
            )
        finally:
            clock.step = 0.0
        completion = clock.t
        if slot.generation != generation:
            # Installs only happen between requests, so this cannot fire;
            # the counter exists to make the claim falsifiable.
            self._generation_mixed.inc()
        slot.busy_until = completion
        slot.served += 1
        return _Attempt(
            result=result,
            slot=slot,
            start=start,
            completion=completion,
            generation=generation,
        )

    def submit(
        self,
        now: float,
        cost_s: float,
        dense: np.ndarray,
        sparse_context: dict[str, np.ndarray],
        candidate_table: str,
        candidate_ids: np.ndarray,
        top_k: int = 10,
    ) -> ClusterResponse:
        """Admit, route, (maybe) hedge, and serve one request.

        Args:
            now: the request's arrival time on the cluster's virtual
                timeline (monotonically non-decreasing across calls).
            cost_s: per-clock-read service cost of this request — the
                replay's service-time model; replica slow factors
                multiply it.
            dense / sparse_context / candidate_table / candidate_ids /
            top_k: the ranking request, passed through to
                :meth:`~repro.serve.engine.InferenceEngine.rank_candidates`.

        Raises:
            ClusterBusyError: backlog at capacity (with retry-after).
            LoadShedError: every available replica's breaker shed it.
            NoReplicaError: no replica could accept the request at all.
        """
        self._probe()
        self._advance_reload(now)

        depth = self.queue_depth(now)
        self._queue_depth.set(depth)
        if depth >= self.queue_capacity:
            self._queue_rejected.inc()
            # Rejection is immediate — but it must still appear in the
            # latency accounting of refused traffic.
            self._rejected_latency.observe(0.0)
            raise ClusterBusyError(
                depth, self.queue_capacity, min(self._completions) - now
            )

        failovers = 0
        tried: set[int] = set()
        all_shed = False
        attempt: _Attempt | None = None
        while attempt is None:
            slot = self._route(tried)
            if slot is None:
                if all_shed:
                    raise LoadShedError(
                        "every serving replica is shedding load; retry later"
                    )
                raise NoReplicaError("no live replica available")
            if not slot.alive:
                # The failed dispatch is how the prober learns of death.
                slot.healthy = False
                tried.add(slot.replica_id)
                failovers += 1
                self._failover.inc()
                continue
            try:
                attempt = self._dispatch(
                    slot, now, cost_s, dense, sparse_context,
                    candidate_table, candidate_ids, top_k,
                )
            except LoadShedError:
                # Breaker open on this replica: route around it.
                slot.healthy = False
                all_shed = True
                tried.add(slot.replica_id)
                failovers += 1
                self._failover.inc()

        hedged = False
        hedge_won = False
        if (
            self.hedge_after_s is not None
            and attempt.completion - now > self.hedge_after_s
        ):
            hedge_slot = self._route(tried | {attempt.slot.replica_id})
            if hedge_slot is not None and hedge_slot.alive:
                hedged = True
                self._hedge_issued.inc()
                try:
                    hedge_attempt = self._dispatch(
                        hedge_slot, now + self.hedge_after_s, cost_s, dense,
                        sparse_context, candidate_table, candidate_ids, top_k,
                    )
                except LoadShedError:
                    hedge_attempt = None
                if hedge_attempt is not None:
                    # First completion wins; the loser is cancelled, its
                    # replica freed at the winner's completion time.
                    if hedge_attempt.completion < attempt.completion:
                        hedge_won = True
                        self._hedge_wins.inc()
                        attempt.slot.busy_until = min(
                            attempt.slot.busy_until, hedge_attempt.completion
                        )
                        attempt = hedge_attempt
                    else:
                        hedge_slot.busy_until = min(
                            hedge_slot.busy_until, attempt.completion
                        )
                    self._hedge_cancelled.inc()

        self._completions.append(attempt.completion)
        queue_wait = attempt.start - now
        latency = attempt.completion - now
        self._queue_wait.observe(queue_wait)
        self._request_latency.observe(latency)
        return ClusterResponse(
            result=attempt.result,
            replica=attempt.slot.replica_id,
            generation=attempt.generation,
            latency_s=latency,
            queue_wait_s=queue_wait,
            hedged=hedged,
            hedge_won=hedge_won,
            failovers=failovers,
        )

    def health(self) -> dict:
        """JSON-ready cluster snapshot: per-replica states plus reload.

        ``cache`` carries the hot-cache stats when the pool serves
        through an :class:`~repro.core.hotcache.EmbeddingHotCache`
        (replicas share one cache, so the first equipped engine speaks
        for the tier), or None when serving a frozen hot set.
        """
        cache = None
        for slot in self.slots:
            if slot.engine.hot_cache is not None:
                cache = slot.engine.hot_cache.stats()
                break
        return {
            "replicas": [slot.snapshot() for slot in self.slots],
            "reload": self.reload_state(),
            "cache": cache,
        }
