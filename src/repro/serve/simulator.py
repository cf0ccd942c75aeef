"""Request-level serving latency simulation.

Compares two inference deployments on the calibrated cost model:

- ``cpu-embedding`` — the serving analogue of the training baseline:
  every batch fetches embeddings on the host and ships activations over
  PCIe before the GPU ranks.
- ``hot-resident`` — hot bags pinned in HBM: hot requests are served
  entirely on-GPU; cold requests fall back to the host path.

The simulator draws Poisson arrivals, forms batches under a
max-batch/max-wait policy (standard dynamic batching), services each
batch with cost-model times, and reports latency percentiles — the
serving framing of the paper's skew insight.

It is deliberately *not* merged into :mod:`repro.serve.replay`, the one
host-side time model: the replay measures real engines on this machine,
while this prices the two deployments on the paper's Xeon + V100 through
``repro.hw.costmodel`` — a question no host run can answer.  Callers:
``benchmarks/test_x4_serving.py`` and ``examples/realtime_serving.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.cluster import Cluster
from repro.hw.costmodel import CostModel
from repro.hw.workload import WorkloadCharacter

__all__ = ["LatencyStats", "ServingSimulator"]


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution of one simulated serving run.

    Attributes:
        p50/p95/p99: latency percentiles, seconds.
        mean: mean latency, seconds.
        throughput: served requests per second of simulated time.
        num_requests: sample size.
    """

    p50: float
    p95: float
    p99: float
    mean: float
    throughput: float
    num_requests: int


class ServingSimulator:
    """Dynamic-batching inference latency model.

    Args:
        cluster: hardware configuration (single node typical for serving).
        workload: workload character (hot fraction, lookup volumes).
        max_batch: largest batch the scorer accepts.
        max_wait: longest a request waits for batchmates, seconds.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadCharacter,
        max_batch: int = 64,
        max_wait: float = 2e-3,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.cluster = cluster
        self.workload = workload
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.cost = CostModel(cluster, workload)

    # ------------------------------------------------------------------
    # Batch service times (forward-only: no backward, no optimizer)
    # ------------------------------------------------------------------

    def cpu_embedding_batch_seconds(self, batch_size: int) -> float:
        """Host-embedding inference: CPU gather + PCIe + GPU MLP."""
        return (
            self.cost.embedding_forward(batch_size, "cpu")
            + self.cost.activation_transfer(batch_size)
            + self.cost.mlp_forward(batch_size)
        )

    def hot_resident_batch_seconds(self, batch_size: int) -> float:
        """All-GPU inference for a pure-hot batch."""
        return self.cost.embedding_forward(batch_size, "gpu") + self.cost.mlp_forward(
            batch_size
        )

    # ------------------------------------------------------------------
    # Request-level simulation
    # ------------------------------------------------------------------

    def simulate(
        self,
        mode: str,
        arrival_rate: float,
        num_requests: int = 5000,
        seed: int = 0,
    ) -> LatencyStats:
        """Simulate ``num_requests`` Poisson arrivals.

        Args:
            mode: ``"cpu-embedding"`` or ``"hot-resident"``.
            arrival_rate: requests per second.
            num_requests: sample size.
            seed: randomness for arrivals and request temperature.

        Returns:
            Latency statistics over all requests.

        Raises:
            ValueError: on unknown mode or non-positive rate.
        """
        if mode not in ("cpu-embedding", "hot-resident"):
            raise ValueError(f"unknown mode {mode!r}")
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_requests))

        if mode == "cpu-embedding":
            latencies = self._run_queue(arrivals, self.cpu_embedding_batch_seconds)
        else:
            # Hot-resident deployments route by temperature: hot requests
            # batch on the GPU path, cold requests on the host path, as
            # independent queues (the serving analogue of FAE's pure
            # hot/cold mini-batches).
            is_hot = rng.random(num_requests) < self.workload.hot_fraction
            latencies = np.empty(num_requests, dtype=np.float64)
            if is_hot.any():
                latencies[is_hot] = self._run_queue(
                    arrivals[is_hot], self.hot_resident_batch_seconds
                )
            if (~is_hot).any():
                latencies[~is_hot] = self._run_queue(
                    arrivals[~is_hot], self.cpu_embedding_batch_seconds
                )

        makespan = float(arrivals[-1] + latencies[-1] - arrivals[0]) or 1e-12
        return LatencyStats(
            p50=float(np.percentile(latencies, 50)),
            p95=float(np.percentile(latencies, 95)),
            p99=float(np.percentile(latencies, 99)),
            mean=float(latencies.mean()),
            throughput=num_requests / makespan,
            num_requests=num_requests,
        )

    def _run_queue(self, arrivals: np.ndarray, batch_seconds) -> np.ndarray:
        """Single-server dynamic-batching queue; returns per-request latency.

        A batch is formed when the server is free: it takes every request
        that has arrived by ``max(server_free, head_arrival + max_wait)``
        — i.e. backlogged requests batch together immediately — capped at
        ``max_batch``.
        """
        n = len(arrivals)
        latencies = np.empty(n, dtype=np.float64)
        server_free_at = 0.0
        index = 0
        while index < n:
            head = arrivals[index]
            ready = max(server_free_at, head + self.max_wait)
            end = index + 1
            while end < n and end - index < self.max_batch and arrivals[end] <= ready:
                end += 1
            start = max(server_free_at, arrivals[end - 1], head)
            finish = start + batch_seconds(end - index)
            server_free_at = finish
            latencies[index:end] = finish - arrivals[index:end]
            index = end
        return latencies

    def saturation_rate(self, mode: str) -> float:
        """Arrival rate (req/s) at which the server saturates.

        Computed from full-batch service throughput: beyond this rate the
        queue grows without bound and percentiles diverge.
        """
        if mode == "hot-resident":
            hot = self.workload.hot_fraction
            hot_t = self.hot_resident_batch_seconds(self.max_batch)
            cold_t = self.cpu_embedding_batch_seconds(self.max_batch)
            per_batch = hot * hot_t + (1 - hot) * cold_t
        else:
            per_batch = self.cpu_embedding_batch_seconds(self.max_batch)
        return self.max_batch / per_batch
