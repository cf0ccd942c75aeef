"""Serving-side companion: inference with hot-resident embeddings.

The paper accelerates *training*, but the same skew powers serving: a
recommendation service scoring candidates for live requests hits the
same hot rows, so keeping the hot bags GPU-resident removes the
CPU-embedding fetch from most requests' critical path (the theme of the
inference-side related work the paper cites: TensorDIMM, DeepRecSys,
Centaur).

- :class:`~repro.serve.engine.InferenceEngine` — forward-only batched
  scoring and top-k candidate ranking over a trained model, with
  hot/cold request classification against an FAE plan's bags and an
  atomic :meth:`~repro.serve.engine.InferenceEngine.install` swap for
  generation reloads.
- :class:`~repro.serve.cluster.ServingCluster` — the highly-available
  tier: N replicated engines behind bounded-queue admission
  (backpressure with retry-after), health-probe routing with failover,
  hedged requests for tail latency, and zero-downtime
  generation-stamped hot-set/model reload.
- :mod:`repro.serve.replay` — the Zipf traffic-replay SLO harness
  (``repro serve-bench``), the one host-side time model: a seeded,
  bursty, hot-key-skewed open-loop load generator driving the cluster
  (one replica by default) under seeded replica faults, hedging, and
  mid-run reload — byte-deterministic per seed via injected
  :class:`~repro.serve.replay.VirtualClock`s, reporting P50/P95/P99
  request and service latency, throughput, degraded/rejected/shed
  rates, failovers, hedge wins, and generation accounting.
- :class:`~repro.serve.simulator.ServingSimulator` — not a replay: it
  prices CPU-embedding against hot-resident serving on the paper's
  hardware through the ``repro.hw`` cost model (Poisson arrivals,
  dynamic batching), a question no run on this host can answer.

Admission control (candidate-id bounds validation, circuit-breaker load
shedding) lives on the engine; the breaker itself is
:class:`~repro.resilience.guards.CircuitBreaker`, re-exported here with
:class:`~repro.resilience.guards.LoadShedError` for convenience.
"""

from repro.resilience.guards import CircuitBreaker, LoadShedError
from repro.serve.cluster import (
    ClusterBusyError,
    ClusterResponse,
    NoReplicaError,
    ReplicaSlot,
    ServingCluster,
)
from repro.serve.engine import InferenceEngine, RankedItems
from repro.serve.replay import (
    ReplayConfig,
    VirtualClock,
    format_slo_report,
    run_slo_replay,
)
from repro.serve.simulator import LatencyStats, ServingSimulator

__all__ = [
    "CircuitBreaker",
    "ClusterBusyError",
    "ClusterResponse",
    "InferenceEngine",
    "LatencyStats",
    "LoadShedError",
    "NoReplicaError",
    "RankedItems",
    "ReplayConfig",
    "ReplicaSlot",
    "ServingCluster",
    "ServingSimulator",
    "VirtualClock",
    "format_slo_report",
    "run_slo_replay",
]
