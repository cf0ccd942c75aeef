"""Embedding Replicator (paper SS III-C): hot bags on every GPU.

The replicator extracts each table's hot rows into a compact *hot bag*,
replicates the bags across the GPUs, and keeps the copies consistent:

- within a hot run, data-parallel GPUs all-reduce gradients before the
  optimizer step, so replicas evolve in lock-step;
- at a hot -> cold transition, replica rows are written back into the CPU
  master tables (cold inputs can touch hot rows too);
- at a cold -> hot transition, replicas are refreshed from the masters.

Each replica keeps its hot rows in one ``(sum of num_hot, dim)`` store,
the way a model keeps its tables (``repro.nn.embedding.embedding_store``):
a table's hot bag is a row range of it, so a hot step gathers, records,
exchanges and updates once per replica, not once per table.  Because
lookups arrive with *global* row ids, :class:`HotEmbeddingBag` remaps
them to bag-local rows through a map built once per hot set; it is the
drop-in bag the FAE trainer swaps into the model for hot mini-batches.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.nn.embedding import EmbeddingTable, PooledLookup
from repro.nn.parameter import Parameter
from repro.obs import get_registry, span

__all__ = ["HotEmbeddingBag", "EmbeddingReplicator"]


class HotEmbeddingBag:
    """EmbeddingBag-compatible pooled lookup over one table's hot rows.

    Swapping this in for the master-table bag is what moves a table's hot
    execution onto the GPU replica.

    Args:
        spec: which rows are hot.
        store: the replica's hot store; the bag's rows are
            ``[offset, offset + num_hot)`` of it, in ``spec.hot_ids`` order.
        offset: the bag's first store row.
        local_rows: ``spec.local_rows()``, shared by every replica's bag
            of the same hot set.
        mode: ``"mean"`` or ``"sum"`` pooling.
    """

    def __init__(
        self,
        spec: HotEmbeddingBagSpec,
        store: Parameter,
        offset: int,
        local_rows: np.ndarray,
        mode: str = "mean",
    ) -> None:
        rows = store.value[offset : offset + spec.num_hot]
        if rows.shape != (spec.num_hot, spec.dim):
            raise ValueError(
                f"{spec.table_name}: expected store rows {(spec.num_hot, spec.dim)} "
                f"at offset {offset}, got {rows.shape}"
            )
        self.spec = spec
        self.local_rows = local_rows
        self.weight = Parameter(f"{spec.table_name}.{store.name}", rows, store=store, offset=offset)
        self.lookup = PooledLookup(self.weight, mode)

    def parameters(self) -> list[Parameter]:
        return [self.weight]

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Bag-local rows of global row ids, in the ids' shape.

        Raises:
            KeyError: naming the table, if any id is not in the hot bag —
                the input processor guarantees hot batches never do this,
                so a miss indicates a misclassified input.
        """
        ids = np.asarray(global_ids, dtype=np.int64)
        # One compare: a negative id is a huge uint64, so it fails it too.
        if (ids.view(np.uint64) < self.local_rows.size).all():
            local = self.local_rows[ids]
            if local.min(initial=0) >= 0:
                return local
        missing = np.setdiff1d(ids, self.spec.hot_ids)[:5]
        raise KeyError(
            f"{self.spec.table_name}: ids {missing.tolist()} are not hot — "
            "a cold input leaked into a hot mini-batch"
        )

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """``(B, m)`` bag-local rows for global ids (the batched lookup's hook)."""
        local = self.to_local(ids)
        return local.reshape(local.shape[0], -1)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        return self.lookup.forward(self.to_local(ids))

    def backward(self, grad_out: np.ndarray) -> None:
        self.lookup.backward(grad_out)

    def sequence_forward(self, ids: np.ndarray) -> np.ndarray:
        return self.lookup.sequence_forward(self.to_local(ids))

    def sequence_backward(self, grad_out: np.ndarray) -> None:
        self.lookup.sequence_backward(grad_out)


class EmbeddingReplicator:
    """Creates and synchronizes per-GPU hot-bag replicas.

    Args:
        tables: CPU master tables by name.
        bag_specs: hot bag specs from the classifier.
        num_replicas: number of GPUs holding a copy.
        pooling: table name -> the model's pooling mode for that table
            (``"mean"`` or ``"sum"``); a table it omits pools by mean.
    """

    def __init__(
        self,
        tables: dict[str, EmbeddingTable],
        bag_specs: dict[str, HotEmbeddingBagSpec],
        num_replicas: int = 1,
        pooling: dict[str, str] | None = None,
    ) -> None:
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        missing = set(bag_specs) - set(tables)
        if missing:
            raise KeyError(f"bag specs without master tables: {sorted(missing)}")
        self.tables = tables
        self.bag_specs = bag_specs
        self.num_replicas = num_replicas
        self.pooling = pooling or {}
        #: Per replica: its hot store, and its bags over the store's rows.
        self.stores: list[Parameter] = []
        self.replicas: list[dict[str, HotEmbeddingBag]] = []
        #: Per table: ``spec.local_rows()``, built once per hot set.
        self.local_rows = {name: spec.local_rows() for name, spec in bag_specs.items()}
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
            self._rebuild()

    def _rebuild(self) -> None:
        """Every replica's store and bags anew, from the masters."""
        rows = self._master_rows()
        self.stores, self.replicas = [], []
        for _ in range(self.num_replicas):
            self._add(rows)

    def _master_rows(self) -> np.ndarray:
        """Every table's hot rows from the masters, end to end in spec order."""
        specs = self.bag_specs.values()
        dim = next(iter(specs)).dim if specs else 0
        rows = np.empty((sum(spec.num_hot for spec in specs), dim), dtype=np.float32)
        start = 0
        for name, spec in self.bag_specs.items():
            stop = start + spec.num_hot
            np.take(self.tables[name].weight.value, spec.hot_ids, axis=0, out=rows[start:stop])
            start = stop
        return rows

    def _add(self, rows: np.ndarray) -> None:
        """Append a replica whose store is a copy of ``rows``."""
        store = Parameter(f"hot[{len(self.stores)}]", rows.copy())
        bags, offset = {}, 0
        for name, spec in self.bag_specs.items():
            mode = self.pooling.get(name, "mean")
            bags[name] = HotEmbeddingBag(spec, store, offset, self.local_rows[name], mode)
            offset += spec.num_hot
        self.stores.append(store)
        self.replicas.append(bags)

    def bags_for_replica(self, replica_id: int) -> dict[str, HotEmbeddingBag]:
        """Model-facing pooled bags for one GPU's replica: the same objects
        until the hot set changes."""
        return self.replicas[replica_id]

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
        self._add(self._master_rows())
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
        del self.stores[replica_id]
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
        self.stores, self.replicas = [], []
        self.num_replicas = 0
        self.evicted = True
        get_registry().counter("fae.hot.evictions").inc()
        return released

    def apply_delta(self, new_specs: dict[str, HotEmbeddingBagSpec], delta) -> int:
        """Incrementally refresh replicas after a hot-cache turnover.

        Callers invoke this at segment boundaries, after
        :meth:`sync_to_master`, where the masters are authoritative:
        every replica's store is rebuilt from them, and only the tables
        whose membership changed get a new global -> local map.  The
        refresh traffic charged to the interconnect is the *promoted*
        rows shipped to every replica — demoted rows already live in the
        CPU masters, so demotion is free beyond the bookkeeping.  The
        in-memory rebuild copies whole stores; the metered bytes model
        what an incremental implementation would actually move.

        Args:
            new_specs: full post-turnover bag specs (from
                ``EmbeddingHotCache.bags()``).
            delta: the ``CacheDelta`` describing promotions/demotions.

        Returns:
            Refresh bytes shipped across all replicas.
        """
        changed = delta.tables()
        registry = get_registry()
        self.bag_specs = dict(new_specs)
        for name in changed:
            self.local_rows[name] = new_specs[name].local_rows()
        if self.evicted:
            # Degraded runs stay cold: track membership for bookkeeping
            # but ship nothing.
            return 0
        moved = 0
        with span("replicate.refresh", num_tables=len(changed)) as refresh_span:
            for name in changed:
                promoted = delta.promoted.get(name)
                if promoted is not None and promoted.size:
                    moved += int(promoted.size) * new_specs[name].dim * 4 * len(self.replicas)
            self._rebuild()
            refresh_span.set(bytes=moved)
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
        combined = [record for store in self.stores for record in store.sparse_grads]
        for store in self.stores:
            # Shared, not copied: optimizers coalesce records into new
            # arrays and never write the records themselves.
            store.sparse_grads = list(combined)

    def sync_to_master(self) -> int:
        """Write replica-0 hot rows into the CPU master tables.

        Called on a hot -> cold transition.  Returns bytes moved (one
        direction), which the hardware simulator charges to the PCIe link.
        """
        if not self.replicas:
            return 0
        with span("replicate.sync", direction="to_master") as sync_span:
            for name, spec in self.bag_specs.items():
                self.tables[name].write_rows(spec.hot_ids, self.replicas[0][name].weight.value)
            moved = self.stores[0].nbytes
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
            fresh = self._master_rows()
            for store in self.stores:
                store.value[...] = fresh
            moved = fresh.nbytes
            sync_span.set(bytes=moved)
        self.sync_events += 1
        self._sync_events_counter.inc()
        self._sync_bytes_counter.inc(moved)
        return moved

    def max_replica_divergence(self) -> float:
        """Largest absolute difference between any two replicas (should be 0)."""
        worst = 0.0
        for store in self.stores[1:]:
            diff = np.abs(store.value - self.stores[0].value).max(initial=0.0)
            worst = max(worst, float(diff))
        return worst

    def total_hot_bytes(self) -> int:
        """Per-GPU footprint of one full replica."""
        return self.stores[0].nbytes if self.stores else 0
