"""Embedding Replicator (paper SS III-C): hot bags on every GPU.

The replicator extracts each table's hot rows into a compact *hot bag*,
replicates the bags across the GPUs, and keeps the copies consistent:

- within a hot run, data-parallel GPUs all-reduce gradients before the
  optimizer step, so replicas evolve in lock-step;
- at a hot -> cold transition, replica rows are written back into the CPU
  master tables (cold inputs can touch hot rows too);
- at a cold -> hot transition, replicas are refreshed from the masters.

Because lookups arrive with *global* row ids, :class:`HotEmbeddingBag`
remaps them to bag-local positions; this is the drop-in bag the FAE
trainer swaps into the model for hot mini-batches.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.nn.embedding import EmbeddingTable, PooledLookup
from repro.nn.parameter import Parameter
from repro.obs import get_registry, span

__all__ = ["HotBag", "HotEmbeddingBag", "EmbeddingReplicator"]


class HotBag:
    """A compact, GPU-resident copy of one table's hot rows.

    Args:
        spec: which rows are hot.
        values: ``(num_hot, dim)`` initial row values (copied).
        replica_id: which GPU this copy lives on (diagnostic).
    """

    def __init__(self, spec: HotEmbeddingBagSpec, values: np.ndarray, replica_id: int = 0) -> None:
        if values.shape != (spec.num_hot, spec.dim):
            raise ValueError(
                f"{spec.table_name}: expected values {(spec.num_hot, spec.dim)}, got {values.shape}"
            )
        self.spec = spec
        self.replica_id = replica_id
        self.weight = Parameter(f"{spec.table_name}.hot[{replica_id}]", values.copy())

    @property
    def nbytes(self) -> int:
        return self.weight.nbytes

    def _locate(self, global_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bag-local positions of global row ids, and which of them are hot."""
        local = np.searchsorted(self.spec.hot_ids, global_ids)
        in_range = local < self.spec.num_hot
        found = in_range.copy()
        found[in_range] = self.spec.hot_ids[local[in_range]] == global_ids[in_range]
        return local, found

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Map global row ids to bag-local positions.

        Raises:
            KeyError: if any id is not in the hot bag — the input
                processor guarantees hot batches never do this, so a miss
                indicates a misclassified input.
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        local, found = self._locate(global_ids)
        if not found.all():
            missing = np.unique(global_ids[~found])[:5]
            raise KeyError(
                f"{self.spec.table_name}: ids {missing.tolist()} are not hot — "
                "a cold input leaked into a hot mini-batch"
            )
        return local

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        """Vectorized hot-membership test (no exception)."""
        return self._locate(np.asarray(global_ids, dtype=np.int64))[1]


class HotEmbeddingBag:
    """EmbeddingBag-compatible pooled lookup over a :class:`HotBag`.

    Swapping this in for the master-table bag is what moves a table's hot
    execution onto the GPU replica.
    """

    def __init__(self, bag: HotBag, mode: str = "mean") -> None:
        self.bag = bag
        self.lookup = PooledLookup(bag.weight, mode)

    def parameters(self) -> list[Parameter]:
        return [self.bag.weight]

    def _local(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        return self.bag.to_local(ids.ravel()).reshape(ids.shape)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """``(B, m)`` bag-local rows for global ids (the batched lookup's hook)."""
        local = self._local(ids)
        return local.reshape(local.shape[0], -1)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        return self.lookup.forward(self._local(ids))

    def backward(self, grad_out: np.ndarray) -> None:
        self.lookup.backward(grad_out)

    def sequence_forward(self, ids: np.ndarray) -> np.ndarray:
        return self.lookup.sequence_forward(self._local(ids))

    def sequence_backward(self, grad_out: np.ndarray) -> None:
        self.lookup.sequence_backward(grad_out)


class EmbeddingReplicator:
    """Creates and synchronizes per-GPU hot-bag replicas.

    Args:
        tables: CPU master tables by name.
        bag_specs: hot bag specs from the classifier.
        num_replicas: number of GPUs holding a copy.
        pooling: bag pooling mode matching the model.
    """

    def __init__(
        self,
        tables: dict[str, EmbeddingTable],
        bag_specs: dict[str, HotEmbeddingBagSpec],
        num_replicas: int = 1,
        pooling: str = "mean",
    ) -> None:
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        missing = set(bag_specs) - set(tables)
        if missing:
            raise KeyError(f"bag specs without master tables: {sorted(missing)}")
        self.tables = tables
        self.bag_specs = bag_specs
        self.num_replicas = num_replicas
        self.pooling = pooling
        self.replicas: list[dict[str, HotBag]] = []
        self.sync_events = 0
        self.evicted = False
        registry = get_registry()
        self._sync_events_counter = registry.counter("fae.sync.events")
        self._sync_bytes_counter = registry.counter("fae.sync.bytes")
        self.replicate()

    def replicate(self) -> None:
        """(Re)build every replica from the CPU master tables."""
        with span(
            "replicate.build", num_replicas=self.num_replicas, num_tables=len(self.bag_specs)
        ):
            self.replicas = [self._build_replica(r) for r in range(self.num_replicas)]

    def _build_replica(self, replica_id: int) -> dict[str, HotBag]:
        return {
            name: HotBag(spec, self.tables[name].subset(spec.hot_ids), replica_id=replica_id)
            for name, spec in self.bag_specs.items()
        }

    def bags_for_replica(self, replica_id: int) -> dict[str, HotEmbeddingBag]:
        """Model-facing pooled bags for one GPU's replica."""
        return {
            name: HotEmbeddingBag(bag, mode=self.pooling)
            for name, bag in self.replicas[replica_id].items()
        }

    def add_replica(self) -> int:
        """Build one fresh replica from the CPU master tables (rank rejoin).

        The new copy is bit-equal to the survivors *provided the masters
        are current* — rejoin happens at segment boundaries right after
        :meth:`sync_to_master`, where that holds by construction.  (On a
        cold segment the survivors' bags may be stale relative to the
        masters; the next cold→hot :meth:`sync_from_master` refreshes
        every copy, so the transient gap never reaches a hot step.)

        Returns:
            The new replica's id.

        Raises:
            RuntimeError: after :meth:`evict` — a degraded run stays on
                the cold path, so there is no hot copy to rebuild.
        """
        if self.evicted:
            raise RuntimeError("hot replicas were evicted; a degraded run stays cold")
        replica_id = len(self.replicas)
        self.replicas.append(self._build_replica(replica_id))
        self.num_replicas = len(self.replicas)
        get_registry().counter("fae.replica.added").inc()
        return replica_id

    def drop_replica(self, replica_id: int) -> None:
        """Remove one GPU's replica after a permanent rank failure.

        The surviving replicas are untouched (they stay bit-equal to each
        other), so data-parallel hot execution continues on a smaller
        world.  Dropping the last replica is refused — evict instead.

        Raises:
            IndexError: if ``replica_id`` is out of range.
            RuntimeError: when only one replica remains.
        """
        if not 0 <= replica_id < len(self.replicas):
            raise IndexError(f"replica {replica_id} out of range (have {len(self.replicas)})")
        if len(self.replicas) == 1:
            raise RuntimeError("cannot drop the last hot replica; use evict()")
        del self.replicas[replica_id]
        self.num_replicas = len(self.replicas)
        get_registry().counter("fae.replica.dropped").inc()

    def evict(self) -> int:
        """Release every hot replica (simulated GPU memory pressure).

        The CPU masters are *not* updated here — callers must
        :meth:`sync_to_master` first if replica rows are ahead of the
        masters.  After eviction the trainer degrades to the cold path.
        Returns the number of replicas released.
        """
        released = len(self.replicas)
        self.replicas = []
        self.num_replicas = 0
        self.evicted = True
        get_registry().counter("fae.hot.evictions").inc()
        return released

    def apply_delta(self, new_specs: dict[str, HotEmbeddingBagSpec], delta) -> int:
        """Incrementally refresh replicas after a hot-cache turnover.

        Only tables whose membership changed are rebuilt; the rest keep
        their existing bags untouched.  The refresh traffic charged to
        the interconnect is the *promoted* rows shipped to every replica
        — demoted rows already live in the CPU masters (callers invoke
        this at segment boundaries, after :meth:`sync_to_master`), so
        demotion is free beyond the bookkeeping.

        The in-memory rebuild copies whole bags because this simulator
        stores bags as dense arrays; the metered bytes model what an
        incremental implementation would actually move.

        Args:
            new_specs: full post-turnover bag specs (from
                ``EmbeddingHotCache.bags()``).
            delta: the ``CacheDelta`` describing promotions/demotions.

        Returns:
            Refresh bytes shipped across all replicas.
        """
        changed = delta.tables()
        registry = get_registry()
        if self.evicted:
            # Degraded runs stay cold: track membership for bookkeeping
            # but ship nothing.
            self.bag_specs = dict(new_specs)
            return 0
        moved = 0
        with span("replicate.refresh", num_tables=len(changed)) as refresh_span:
            for name in changed:
                spec = new_specs[name]
                values = self.tables[name].subset(spec.hot_ids)
                for replica_id in range(len(self.replicas)):
                    self.replicas[replica_id][name] = HotBag(
                        spec, values, replica_id=replica_id
                    )
                promoted = delta.promoted.get(name)
                if promoted is not None and promoted.size:
                    moved += int(promoted.size) * spec.dim * 4 * len(self.replicas)
            refresh_span.set(bytes=moved)
        self.bag_specs = dict(new_specs)
        registry.counter("fae.refresh.events").inc()
        registry.counter("fae.refresh.bytes").inc(moved)
        registry.counter("fae.refresh.rows.promoted").inc(delta.num_promoted)
        registry.counter("fae.refresh.rows.demoted").inc(delta.num_demoted)
        return moved

    def all_reduce_gradients(self) -> None:
        """Hand every replica all replicas' sparse gradient records.

        The embedding half of the paper's fused all-reduce over embedding
        and neural-network gradients (SS II-B(3)); the dense half is
        :func:`repro.dist.parallel.all_reduce_dense_grads`, one collective
        per step.  Nothing is summed here: each replica's optimizer
        coalesces the same records in the same order, so identical
        optimizer steps keep the copies bit-equal.
        """
        for name in self.bag_specs:
            combined: list = []
            for replica in self.replicas:
                combined.extend(replica[name].weight.sparse_grads)
            for replica in self.replicas:
                # Shared, not copied: optimizers coalesce records into new
                # arrays and never write the records themselves.
                replica[name].weight.sparse_grads = list(combined)

    def sync_to_master(self) -> int:
        """Write replica-0 hot rows into the CPU master tables.

        Called on a hot -> cold transition.  Returns bytes moved (one
        direction), which the hardware simulator charges to the PCIe link.
        """
        if not self.replicas:
            return 0
        with span("replicate.sync", direction="to_master") as sync_span:
            moved = 0
            for name, spec in self.bag_specs.items():
                bag = self.replicas[0][name]
                self.tables[name].write_rows(spec.hot_ids, bag.weight.value)
                moved += bag.nbytes
            sync_span.set(bytes=moved)
        self.sync_events += 1
        self._sync_events_counter.inc()
        self._sync_bytes_counter.inc(moved)
        return moved

    def sync_from_master(self) -> int:
        """Refresh every replica's rows from the CPU master tables.

        Called on a cold -> hot transition.  Returns bytes moved per GPU.
        """
        if not self.replicas:
            return 0
        with span("replicate.sync", direction="from_master") as sync_span:
            moved = 0
            for name, spec in self.bag_specs.items():
                fresh = self.tables[name].subset(spec.hot_ids)
                for replica in self.replicas:
                    replica[name].weight.value[...] = fresh
                moved += fresh.nbytes
            sync_span.set(bytes=moved)
        self.sync_events += 1
        self._sync_events_counter.inc()
        self._sync_bytes_counter.inc(moved)
        return moved

    def max_replica_divergence(self) -> float:
        """Largest absolute difference between any two replicas (should be 0)."""
        worst = 0.0
        if not self.replicas:
            return worst
        for name in self.bag_specs:
            reference = self.replicas[0][name].weight.value
            for replica in self.replicas[1:]:
                diff = np.abs(replica[name].weight.value - reference).max(initial=0.0)
                worst = max(worst, float(diff))
        return worst

    def total_hot_bytes(self) -> int:
        """Per-GPU footprint of one full replica."""
        if not self.replicas:
            return 0
        return sum(bag.nbytes for bag in self.replicas[0].values())
