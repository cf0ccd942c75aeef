"""Collective communication primitives over simulated ranks.

Semantically faithful numpy implementations of the NCCL collectives the
paper's training uses (all-reduce, broadcast, all-gather, reduce-scatter),
plus traffic accounting so the hardware simulator can price what a run
actually communicated.  A :class:`ProcessGroup` owns ``world_size`` ranks;
collectives take one array per rank and return one array per rank.

The all-reduce sums in the order of a ring reduce-scatter + all-gather
(segment ``s`` starts at rank ``s``, float64 partials), and its byte
accounting is the ring's ``2 (k-1)/k`` volume the cost model charges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.obs import get_registry, span
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy, with_retries

__all__ = ["ReduceOp", "ProcessGroup"]

T = TypeVar("T")


class ReduceOp(enum.Enum):
    """Reduction operator for all-reduce / reduce-scatter."""

    SUM = "sum"
    MEAN = "mean"
    MAX = "max"


@dataclass
class ProcessGroup:
    """A group of simulated ranks with collective operations.

    Attributes:
        world_size: number of participating ranks.
        bytes_communicated: total per-rank bytes sent by collectives so
            far (ring accounting), for the cost model.
        collective_calls: number of collective invocations.
        fault_plan: optional :class:`~repro.resilience.faults.FaultPlan`
            consulted before every collective attempt.
        retry: retry policy absorbing transient injected failures; a
            default bounded-backoff policy when None and faults are on.
    """

    world_size: int
    bytes_communicated: float = 0.0
    collective_calls: int = 0
    fault_plan: FaultPlan | None = None
    retry: RetryPolicy | None = None
    _rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0), repr=False)

    def __post_init__(self) -> None:
        if self.world_size <= 0:
            raise ValueError(f"world_size must be positive, got {self.world_size}")

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _check_inputs(self, per_rank: list[np.ndarray]) -> None:
        if len(per_rank) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank buffers, got {len(per_rank)}"
            )
        shapes = {a.shape for a in per_rank}
        if len(shapes) != 1:
            raise ValueError(f"rank buffers must share a shape, got {shapes}")

    def _run_collective(self, name: str, fn: Callable[[], T]) -> T:
        """Run one collective under the fault plan and retry policy.

        Transient injected failures are retried with bounded backoff;
        a :class:`~repro.resilience.faults.PermanentRankFailure` is not
        retryable and propagates to the trainer, which shrinks the world.
        """
        if self.fault_plan is None:
            return fn()
        plan = self.fault_plan

        def attempt() -> T:
            plan.check_collective(name)
            return fn()

        return with_retries(attempt, policy=self.retry, name=f"dist.{name}")

    def _account(self, buffer_bytes: float, volume_factor: float, calls: int = 1) -> None:
        moved = buffer_bytes * volume_factor
        self.bytes_communicated += moved
        self.collective_calls += calls
        registry = get_registry()
        registry.counter("dist.collective.calls").inc(calls)
        registry.counter("dist.collective.bytes").inc(moved)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def all_reduce(
        self, per_rank: list[np.ndarray], op: ReduceOp = ReduceOp.SUM
    ) -> list[np.ndarray]:
        """Reduce across ranks; every rank receives the full result.

        Implemented as ring reduce-scatter + ring all-gather so reduction
        order (and hence float rounding) is deterministic and identical
        for every rank.
        """
        buffer_bytes = per_rank[0].nbytes if per_rank else 0
        with span("dist.all_reduce", world_size=self.world_size, bytes=buffer_bytes):
            return self._run_collective("all_reduce", lambda: self._all_reduce(per_rank, op))

    def _all_reduce(
        self, per_rank: list[np.ndarray], op: ReduceOp = ReduceOp.SUM
    ) -> list[np.ndarray]:
        self._check_inputs(per_rank)
        k = self.world_size
        if k == 1:
            result = per_rank[0].copy()
            if op is ReduceOp.MEAN:
                result = result / 1.0
            return [result]

        # Ring reduce-scatter: segment s leaves rank s and each next rank
        # adds its own share in float64, so rank s-1 ends up owning the sum;
        # the all-gather then hands that segment to everyone.  Every rank
        # receives the same values, so one reduced buffer stands for them all.
        first = per_rank[0]
        flat = [a.reshape(-1) for a in per_rank]
        reduced = np.empty(first.size, dtype=np.float64)
        combine = np.maximum if op is ReduceOp.MAX else np.add
        base, extra = divmod(first.size, k)  # np.array_split's segments
        for seg in range(k):
            lo = seg * base + min(seg, extra)
            partial = reduced[lo : lo + base + (seg < extra)]
            partial[...] = flat[seg][lo : lo + partial.size]
            for hop in range(1, k):
                own = flat[(seg + hop) % k][lo : lo + partial.size]
                combine(own, partial, out=partial)
        if op is ReduceOp.MEAN:
            reduced /= k

        self._account(first.nbytes, 2.0 * (k - 1) / k)
        reduced = reduced.reshape(first.shape)
        return [reduced.astype(first.dtype) for _ in range(k)]

    def broadcast(self, value: np.ndarray, root: int = 0) -> list[np.ndarray]:
        """Every rank receives a copy of ``value`` from ``root``."""
        if not 0 <= root < self.world_size:
            raise ValueError(f"root {root} out of range")

        def run() -> list[np.ndarray]:
            self._account(value.nbytes, float(self.world_size - 1))
            return [value.copy() for _ in range(self.world_size)]

        return self._run_collective("broadcast", run)

    def all_gather(self, per_rank: list[np.ndarray]) -> list[np.ndarray]:
        """Every rank receives the concatenation of all rank buffers."""
        self._check_inputs(per_rank)

        def run() -> list[np.ndarray]:
            gathered = np.concatenate([a[None] for a in per_rank], axis=0)
            self._account(per_rank[0].nbytes, float(self.world_size - 1))
            return [gathered.copy() for _ in range(self.world_size)]

        return self._run_collective("all_gather", run)

    def reduce_scatter(
        self, per_rank: list[np.ndarray], op: ReduceOp = ReduceOp.SUM
    ) -> list[np.ndarray]:
        """Reduce across ranks; rank r receives the r-th shard of the result."""
        self._check_inputs(per_rank)

        def run() -> list[np.ndarray]:
            stacked = np.stack([a.astype(np.float64) for a in per_rank])
            if op is ReduceOp.MAX:
                reduced = stacked.max(axis=0)
            else:
                reduced = stacked.sum(axis=0)
                if op is ReduceOp.MEAN:
                    reduced /= self.world_size
            shards = np.array_split(reduced.ravel(), self.world_size)
            self._account(per_rank[0].nbytes, (self.world_size - 1) / self.world_size)
            return [s.astype(per_rank[0].dtype) for s in shards]

        return self._run_collective("reduce_scatter", run)

    def barrier(self) -> None:
        """Synchronization point (bookkeeping only in simulation)."""
        self._account(0.0, 0.0)
