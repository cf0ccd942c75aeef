"""Online frequency-aware embedding hot cache.

FAE classifies hot rows once, at calibration time, and the paper itself
concedes the weakness: hotness "needs to be re-calibrated for every
model, dataset, and system configuration tuple".  Under drifting traffic
a frozen hot set silently decays — hot-input fraction collapses, the
scheduler degenerates to the cold path, and the speedup evaporates.

:class:`EmbeddingHotCache` replaces the frozen
:class:`~repro.core.classifier.HotEmbeddingBagSpec` set with a *bounded,
stateful* cache over the same spec type:

- **admission is LFU** — an uncached row is admitted when its estimated
  frequency beats the current victim's exact counter (the TinyLFU
  admission test), or for free while budget remains;
- **eviction is LFU or LRU** — the victim is the member with the lowest
  exact counter (``"lfu"``) or the oldest last-access tick (``"lru"``);
- **frequency state is two-tier** — cached rows keep exact decayed
  counters (bounded by the cache size), while the uncached universe is
  tracked by a decayed :class:`~repro.core.sketch.CountMinSketch`
  (bounded by ``width x depth``), so total tracking memory never scales
  with table cardinality;
- **turnover is incremental** — :meth:`rebalance` returns a
  :class:`CacheDelta` of promoted/demoted row ids; the replicator ships
  only the delta and the trainers re-pack only the inputs that touch it,
  instead of re-running the whole preprocess.

Whole-table bags (small tables) are *pinned*: always resident, never
candidates for eviction — exactly the de-facto-hot treatment the static
classifier gives them.

Determinism: no wall clock anywhere.  Recency is a logical tick counter,
ties break on ``(priority, table, id)``, and the sketch's floor-decay is
integral — two runs with the same seed and traffic are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.input_processor import FAEDataset, _cut_batches, compute_hot_mask
from repro.core.sketch import CountMinSketch
from repro.obs import get_registry, span

__all__ = [
    "HotCacheConfig",
    "CacheDelta",
    "RebalancePlan",
    "EmbeddingHotCache",
    "repack_remaining",
    "CACHE_STATE_VERSION",
]

#: Schema version of :meth:`EmbeddingHotCache.state_dict` payloads.
CACHE_STATE_VERSION = 1


@dataclass(frozen=True)
class HotCacheConfig:
    """Knobs of the online hot cache.

    Attributes:
        budget_bytes: total GPU bytes for hot rows (pinned whole-table
            bags included; tracked rows compete for what remains).
        eviction: victim-selection policy, ``"lfu"`` (lowest exact
            counter) or ``"lru"`` (oldest last-access tick).  Admission
            is LFU either way: the candidate must out-count the victim.
        decay: aging multiplier applied to every frequency counter (exact
            and sketched) at the end of each rebalance, in ``(0, 1]``.
            1.0 disables aging (lifetime counts).
        rebalance_every: observed inputs between automatic rebalances
            (``should_rebalance`` turns true); 0 means rebalance only
            when a caller forces it (drift-triggered turnover).
        sketch_width: counters per sketch row for the uncached universe.
        sketch_depth: hash rows per sketch.
        seed: sketch hash seed.
    """

    budget_bytes: int
    eviction: str = "lfu"
    decay: float = 0.5
    rebalance_every: int = 0
    sketch_width: int = 1024
    sketch_depth: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        if self.eviction not in ("lfu", "lru"):
            raise ValueError(f"eviction must be 'lfu' or 'lru', got {self.eviction!r}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.rebalance_every < 0:
            raise ValueError("rebalance_every must be non-negative")


@dataclass(frozen=True)
class CacheDelta:
    """Membership change of one rebalance: per-table promoted/demoted ids.

    Attributes:
        promoted: table name -> sorted int64 row ids entering the cache.
        demoted: table name -> sorted int64 row ids leaving the cache.
    """

    promoted: dict[str, np.ndarray] = field(default_factory=dict)
    demoted: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_promoted(self) -> int:
        return sum(ids.size for ids in self.promoted.values())

    @property
    def num_demoted(self) -> int:
        return sum(ids.size for ids in self.demoted.values())

    @property
    def is_empty(self) -> bool:
        return self.num_promoted == 0 and self.num_demoted == 0

    def tables(self) -> list[str]:
        """Tables whose membership actually changed (sorted)."""
        changed = {
            name
            for mapping in (self.promoted, self.demoted)
            for name, ids in mapping.items()
            if ids.size
        }
        return sorted(changed)


@dataclass(frozen=True)
class RebalancePlan:
    """A fully-decided turnover, not yet applied to the cache.

    :meth:`EmbeddingHotCache.plan_rebalance` is a pure function of cache
    state, so a plan can be recomputed deterministically after a crash:
    the durability journal only needs the delta ids to *verify* that a
    rolled-forward plan matches the intent recorded before the crash.

    Attributes:
        delta: sorted promoted/demoted ids per table (the public shape).
        tick: the cache's logical clock when the plan was drawn; apply
            refuses a plan drawn at a different tick (stale plan).
        promoted_order: admission-order promoted ids per table (the order
            the LFU admission loop accepted them in).
        promoted_est: sketch estimates aligned with ``promoted_order``.
        demoted_order: eviction-order demoted ids per table.
    """

    delta: CacheDelta
    tick: int
    promoted_order: dict[str, np.ndarray] = field(default_factory=dict)
    promoted_est: dict[str, np.ndarray] = field(default_factory=dict)
    demoted_order: dict[str, np.ndarray] = field(default_factory=dict)


def _admission_walk(
    need: np.ndarray,
    est: np.ndarray,
    v_bytes: np.ndarray,
    v_freq: np.ndarray,
    spare: int,
    cheapest: int,
) -> tuple[np.ndarray, int]:
    """Admit candidates (bytes ``need``, estimates ``est``, best first) into
    ``spare`` bytes, evicting victims in order (bytes ``v_bytes``, counters
    ``v_freq``) while a candidate lacks room and strictly out-counts the
    next victim.  Returns the admitted positions and the victims evicted.

    While every candidate gets in, candidate ``i`` has evicted exactly the
    fewest victims whose bytes cover the need of candidates ``0..i`` beyond
    ``spare``, so that prefix is found at once: cumulative need against
    cumulative victim bytes gives each victim its evicting candidate, and
    the prefix ends at the first eviction that fails its test (victim
    counters need not be sorted, as under LRU) or at the first candidate
    the victims cannot make room for.  From there the walk is sequential.
    """
    room = np.zeros(v_bytes.size + 1, dtype=np.int64)
    np.cumsum(v_bytes, out=room[1:])
    reach = np.searchsorted(room, np.cumsum(need) - spare)  # victims out after 0..i
    stop = int(np.searchsorted(reach, v_bytes.size, side="right"))
    if stop:
        evictor = np.searchsorted(reach[:stop], np.arange(reach[stop - 1]), side="right")
        failed = np.flatnonzero(est[evictor] <= v_freq[: evictor.size])
        if failed.size:
            stop = int(evictor[failed[0]])
    evicted = int(reach[stop - 1]) if stop else 0
    spare += int(room[evicted]) - int(need[:stop].sum())
    tail: list[int] = []
    for pos in range(stop, need.size):
        size, score = int(need[pos]), float(est[pos])
        while spare < size and evicted < v_bytes.size and score > v_freq[evicted]:
            spare += int(v_bytes[evicted])
            evicted += 1
        if spare >= size:
            tail.append(pos)
            spare -= size
        elif spare < cheapest:
            # Full, and the best estimate left lost to the next victim (or
            # none is left): no later candidate can evict or fit.
            break
    return np.concatenate([np.arange(stop), np.array(tail, dtype=np.int64)]), evicted


def _stable_argsort_head(priority: np.ndarray, count: int) -> np.ndarray:
    """At least the first ``count`` entries of ``np.argsort(priority, kind="stable")``.

    Everything at or below the ``count``-th smallest priority, ties
    included, in (priority, index) order — found with a partition, so
    only that head is sorted.
    """
    if count >= priority.size:
        return np.argsort(priority, kind="stable")
    bound = np.partition(priority, count - 1)[count - 1]
    head = np.flatnonzero(priority <= bound)  # ascending: ties stay in index order
    return head[np.argsort(priority[head], kind="stable")]


class EmbeddingHotCache:
    """Bounded online cache over per-table hot-row membership.

    Args:
        bags: initial population — the classifier's hot bag specs.
            Whole-table bags are pinned; the rest become tracked members.
        config: cache knobs.
        profile: optional :class:`~repro.core.access_profile.AccessProfile`
            from calibration; when given, initial members inherit their
            sampled access counts as exact counters (otherwise they start
            at 1 and earn their keep from live traffic).
    """

    def __init__(
        self,
        bags: dict[str, HotEmbeddingBagSpec],
        config: HotCacheConfig,
        profile=None,
    ) -> None:
        self.config = config
        self.version = 0  # bumped on every membership change
        self.tick = 0  # logical clock: one tick per observe() call
        self._pinned: dict[str, HotEmbeddingBagSpec] = {}
        self._members: dict[str, np.ndarray] = {}
        self._freq: dict[str, np.ndarray] = {}
        self._last_tick: dict[str, np.ndarray] = {}
        self._sketch: dict[str, CountMinSketch] = {}
        self._pending: dict[str, list[np.ndarray]] = {}
        self._dims: dict[str, int] = {}
        self._num_rows: dict[str, int] = {}
        for name in sorted(bags):
            bag = bags[name]
            if bag.whole_table:
                self._pinned[name] = bag
                continue
            self._dims[name] = bag.dim
            self._num_rows[name] = bag.num_rows
            members = np.asarray(bag.hot_ids, dtype=np.int64)
            self._members[name] = np.sort(members)
            counts = None
            if profile is not None:
                table_profile = profile.tables.get(name)
                if table_profile is not None:
                    counts = table_profile.counts[self._members[name]].astype(np.float64)
            if counts is None:
                counts = np.ones(members.size, dtype=np.float64)
            self._freq[name] = counts
            self._last_tick[name] = np.zeros(members.size, dtype=np.int64)
            self._sketch[name] = CountMinSketch(
                width=config.sketch_width, depth=config.sketch_depth, seed=config.seed
            )
            self._pending[name] = []

        pinned_bytes = sum(bag.nbytes for bag in self._pinned.values())
        self._tracked_budget = max(0, config.budget_bytes - pinned_bytes)

        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.demotions = 0
        self.rebalances = 0
        self.window_inputs = 0

        registry = get_registry()
        self._hits_counter = registry.counter("hotcache.hits")
        self._misses_counter = registry.counter("hotcache.misses")
        self._promotions_counter = registry.counter("hotcache.promotions")
        self._demotions_counter = registry.counter("hotcache.demotions")
        self._evictions_counter = registry.counter("hotcache.evictions")
        self._rebalances_counter = registry.counter("hotcache.rebalances")
        self._rows_gauge = registry.gauge("hotcache.rows")
        self._bytes_gauge = registry.gauge("hotcache.bytes")
        self._hit_rate_gauge = registry.gauge("hotcache.hit_rate")
        self._update_gauges()

    @classmethod
    def from_schema(
        cls,
        schema,
        config: HotCacheConfig,
        large_table_min_bytes: int = 1 << 20,
    ) -> EmbeddingHotCache:
        """Cold-start a cache straight from a schema (no calibration).

        Small tables (below ``large_table_min_bytes``) are pinned whole,
        mirroring the classifier's treatment; large tables start with
        empty membership and fill from live traffic via :meth:`rebalance`.
        """
        bags: dict[str, HotEmbeddingBagSpec] = {}
        for spec in schema.tables:
            whole = spec.num_rows * spec.dim * 4 < large_table_min_bytes
            bags[spec.name] = HotEmbeddingBagSpec(
                table_name=spec.name,
                hot_ids=np.arange(spec.num_rows, dtype=np.int64)
                if whole
                else np.zeros(0, dtype=np.int64),
                num_rows=spec.num_rows,
                dim=spec.dim,
                whole_table=whole,
            )
        return cls(bags, config)

    # ------------------------------------------------------------------
    # Observation (the read path)
    # ------------------------------------------------------------------

    def observe(self, sparse: dict[str, np.ndarray]) -> None:
        """Record one window of lookups (e.g. a mini-batch's sparse ids).

        Hits bump the member's exact counter and last-access tick; misses
        feed the uncached sketch and join the promotion-candidate window.
        Pinned (whole-table) lookups always hit.
        """
        self.tick += 1
        num_inputs = 0
        for name, ids in sparse.items():
            flat = np.asarray(ids, dtype=np.int64).ravel()
            if flat.size == 0:
                continue
            num_inputs = max(num_inputs, np.asarray(ids).shape[0])
            if name in self._pinned:
                self.hits += int(flat.size)
                self._hits_counter.inc(int(flat.size))
                continue
            members = self._members.get(name)
            if members is None:
                continue  # table not under cache management
            positions = np.searchsorted(members, flat)
            in_range = positions < members.size
            hit = in_range.copy()
            hit[in_range] = members[positions[in_range]] == flat[in_range]
            num_hits = int(np.count_nonzero(hit))
            num_misses = int(flat.size - num_hits)
            if num_hits:
                np.add.at(self._freq[name], positions[hit], 1.0)
                self._last_tick[name][positions[hit]] = self.tick
            if num_misses:
                missed = flat[~hit]
                self._sketch[name].add(missed)
                self._pending[name].append(missed.copy())
            self.hits += num_hits
            self.misses += num_misses
            self._hits_counter.inc(num_hits)
            self._misses_counter.inc(num_misses)
        self.window_inputs += num_inputs
        total = self.hits + self.misses
        if total:
            self._hit_rate_gauge.set(self.hits / total)

    def contains(self, table_name: str, ids: np.ndarray) -> np.ndarray:
        """Vectorized membership test (pinned tables are always hot)."""
        flat = np.asarray(ids, dtype=np.int64)
        if table_name in self._pinned:
            return np.ones(flat.shape, dtype=bool)
        members = self._members[table_name]
        positions = np.searchsorted(members, flat)
        in_range = positions < members.size
        result = in_range.copy()
        result[in_range] = members[positions[in_range]] == flat[in_range]
        return result

    # ------------------------------------------------------------------
    # Turnover (the write path)
    # ------------------------------------------------------------------

    def should_rebalance(self) -> bool:
        """True when the auto-rebalance window is full."""
        return (
            self.config.rebalance_every > 0
            and self.window_inputs >= self.config.rebalance_every
        )

    def rebalance(self) -> CacheDelta:
        """One LFU-admission / LFU-or-LRU-eviction turnover pass.

        Candidates are the window's missed ids, scored by the sketch and
        considered in descending-estimate order.  Each is admitted for
        free while tracked budget remains; once full, it must strictly
        out-count the eviction victim (lowest exact counter under
        ``"lfu"``, oldest tick under ``"lru"``) to swap in.  Afterwards
        every frequency counter — exact and sketched — ages by the decay
        factor, and the window resets.

        Equivalent to :meth:`plan_rebalance` followed by
        :meth:`apply_rebalance`; the split exists so the trainers can
        journal the planned delta *before* any state mutates.

        Returns:
            The per-table promoted/demoted ids (possibly empty).
        """
        return self.apply_rebalance(self.plan_rebalance())

    def plan_rebalance(self) -> RebalancePlan:
        """Decide the next turnover without mutating any cache state.

        Pure in the cache state: two byte-identical caches produce
        byte-identical plans, which is what lets crash recovery re-derive
        an interrupted refresh instead of persisting row payloads.
        """
        plan = RebalancePlan(delta=CacheDelta(), tick=self.tick)
        with span("hotcache.plan", tick=self.tick) as sp:
            names = sorted(self._members)
            row_bytes = [self._dims[name] * 4 for name in names]

            # Window candidates: unique missed ids, scored by the sketch.
            c_code_parts, c_id_parts, c_est_parts = [], [], []
            for code, name in enumerate(names):
                pending = self._pending[name]
                if not pending:
                    continue
                cand = np.unique(np.concatenate(pending))
                if cand.size == 0:
                    continue
                c_code_parts.append(np.full(cand.size, code, dtype=np.int64))
                c_id_parts.append(cand)
                c_est_parts.append(self._sketch[name].query(cand).astype(np.float64))
            if not c_id_parts:
                sp.set(candidates=0, admitted=0, victims=0)
                return plan
            cheapest = min(row_bytes[int(codes[0])] for codes in c_code_parts)
            c_code = np.concatenate(c_code_parts)
            c_id = np.concatenate(c_id_parts)
            c_est = np.concatenate(c_est_parts)
            # Admission order: best estimate first, ties by (table, id).
            order = np.lexsort((c_id, c_code, -c_est))
            c_code, c_id, c_est = c_code[order], c_id[order], c_est[order]

            # Members flattened in table order.  Victim priority is the exact
            # counter under LFU, the last tick under LRU.  Taking the first
            # minimum of what is left, over and over, visits members in
            # (priority, index) order, so the head of one stable sort is the
            # eviction sequence and a pointer walks it (DESIGN.md section 13).
            sizes = [self._members[name].size for name in names]
            m_code = np.repeat(np.arange(len(names)), sizes)
            m_id = np.concatenate([self._members[name] for name in names])
            m_freq = np.concatenate([self._freq[name] for name in names])
            priority = (
                m_freq
                if self.config.eviction == "lfu"
                else np.concatenate([self._last_tick[name] for name in names])
            )
            member_bytes = sum(size * each for size, each in zip(sizes, row_bytes))
            # Evictions make room for candidates, so the walk reaches about as
            # many victims as the candidates' bytes hold of the cheapest row;
            # only that head is sorted, and widened if the walk runs off it.
            c_bytes = np.take(row_bytes, c_code)
            reach = int(c_bytes.sum()) // min(row_bytes) + 1
            while True:
                victims = _stable_argsort_head(priority, reach)
                admitted, evicted = _admission_walk(
                    c_bytes,
                    c_est,
                    np.take(row_bytes, m_code[victims]),
                    m_freq[victims],
                    self._tracked_budget - member_bytes,
                    cheapest,
                )
                if evicted < victims.size or victims.size == priority.size:
                    break
                reach *= 2
            sp.set(candidates=int(c_id.size), admitted=len(admitted), victims=evicted)

            a_code, a_id, a_est = c_code[admitted], c_id[admitted], c_est[admitted]
            e_code, e_id = m_code[victims[:evicted]], m_id[victims[:evicted]]
            for code, name in enumerate(names):
                mine = a_code == code
                if mine.any():
                    plan.promoted_order[name] = a_id[mine]
                    plan.promoted_est[name] = a_est[mine]
                    plan.delta.promoted[name] = np.sort(a_id[mine])
                mine = e_code == code
                if mine.any():
                    plan.demoted_order[name] = e_id[mine]
                    plan.delta.demoted[name] = np.sort(e_id[mine])
        return plan

    def apply_rebalance(self, plan: RebalancePlan) -> CacheDelta:
        """Apply a :meth:`plan_rebalance` decision to the cache state.

        Performs the membership swap, hands demoted counters back to the
        sketch, then ages every counter and resets the observation window
        (exactly what the fused :meth:`rebalance` always did).

        Raises:
            ValueError: if the plan was drawn at a different logical tick
                than the cache is at now (a stale or foreign plan).
        """
        if plan.tick != self.tick:
            raise ValueError(
                f"rebalance plan drawn at tick {plan.tick} cannot apply at "
                f"tick {self.tick}"
            )
        with span("hotcache.rebalance", tick=self.tick):
            self._apply_rebalance(plan)
        self.rebalances += 1
        self._rebalances_counter.inc()
        if not plan.delta.is_empty:
            self.version += 1
        self._update_gauges()
        return plan.delta

    def _apply_rebalance(self, plan: RebalancePlan) -> None:
        names = sorted(self._members)
        delta = plan.delta
        for name in names:
            promo = delta.promoted.get(name, np.zeros(0, dtype=np.int64))
            demo = delta.demoted.get(name, np.zeros(0, dtype=np.int64))
            if not promo.size and not demo.size:
                continue

            # Demoted rows hand their exact counters back to the sketch,
            # so their popularity history survives the demotion.
            if demo.size:
                demo_evorder = plan.demoted_order[name]
                positions = np.searchsorted(self._members[name], demo_evorder)
                counts = np.floor(self._freq[name][positions]).astype(np.int64)
                self._sketch[name].add(demo, counts=counts)

            # Members stay sorted by id: demoted rows are located and cut,
            # promoted rows inserted after any equal id (what a stable sort
            # of kept-then-promoted would give).
            gone = np.searchsorted(self._members[name], demo)
            kept_ids = np.delete(self._members[name], gone)
            kept_freq = np.delete(self._freq[name], gone)
            kept_tick = np.delete(self._last_tick[name], gone)
            promo_order = plan.promoted_order.get(name, np.zeros(0, dtype=np.int64))
            promo_est = plan.promoted_est.get(name, np.zeros(0, dtype=np.float64))
            by_id = np.argsort(promo_order, kind="stable")
            promoted = promo_order[by_id]
            at = np.searchsorted(kept_ids, promoted, side="right")
            self._members[name] = np.insert(kept_ids, at, promoted)
            self._freq[name] = np.insert(kept_freq, at, promo_est[by_id])
            self._last_tick[name] = np.insert(kept_tick, at, self.tick)

        num_promoted = delta.num_promoted
        num_demoted = delta.num_demoted
        self.promotions += num_promoted
        self.demotions += num_demoted
        self._promotions_counter.inc(num_promoted)
        self._demotions_counter.inc(num_demoted)
        self._evictions_counter.inc(num_demoted)

        self._finish_window(names)

    def _finish_window(self, names: list[str]) -> None:
        """Age every counter and reset the observation window."""
        decay = self.config.decay
        for name in names:
            self._pending[name] = []
            if decay < 1.0:
                self._freq[name] = self._freq[name] * decay
                self._sketch[name].decay(decay)
        self.window_inputs = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def bags(self) -> dict[str, HotEmbeddingBagSpec]:
        """Current membership as classifier-compatible bag specs.

        Everything downstream of the classifier — replicator, input
        processor, drift detector, serving engine — consumes this exact
        surface, which is what makes the cache a drop-in replacement for
        the frozen hot set.
        """
        bags: dict[str, HotEmbeddingBagSpec] = dict(self._pinned)
        for name, members in self._members.items():
            bags[name] = HotEmbeddingBagSpec(
                table_name=name,
                hot_ids=members.copy(),
                num_rows=self._num_rows[name],
                dim=self._dims[name],
                whole_table=members.size == self._num_rows[name],
            )
        return bags

    @property
    def hot_rows(self) -> int:
        pinned = sum(bag.num_hot for bag in self._pinned.values())
        return pinned + sum(int(m.size) for m in self._members.values())

    @property
    def hot_bytes(self) -> int:
        pinned = sum(bag.nbytes for bag in self._pinned.values())
        tracked = sum(
            int(m.size) * self._dims[name] * 4 for name, m in self._members.items()
        )
        return pinned + tracked

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready cache snapshot (instance-local, not registry-global)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "hot_rows": self.hot_rows,
            "hot_bytes": self.hot_bytes,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "rebalances": self.rebalances,
            "version": self.version,
        }

    def _update_gauges(self) -> None:
        self._rows_gauge.set(self.hot_rows)
        self._bytes_gauge.set(self.hot_bytes)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete mutable cache state for checkpointing.

        Covers membership, exact decayed counters, last-access ticks,
        pending miss windows, per-table sketches (full depth x width
        arrays), the logical tick, and every cumulative stat — everything
        needed for a restored cache to continue byte-identically.
        Static construction inputs (config, pinned bags, table geometry)
        are *not* serialized; the loader validates they match instead.
        """
        tables: dict[str, dict] = {}
        for name in sorted(self._members):
            tables[name] = {
                "members": self._members[name].copy(),
                "freq": self._freq[name].copy(),
                "last_tick": self._last_tick[name].copy(),
                "pending": [window.copy() for window in self._pending[name]],
                "sketch": self._sketch[name].state_dict(),
            }
        return {
            "schema_version": CACHE_STATE_VERSION,
            "version": int(self.version),
            "tick": int(self.tick),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "promotions": int(self.promotions),
            "demotions": int(self.demotions),
            "rebalances": int(self.rebalances),
            "window_inputs": int(self.window_inputs),
            "pinned": sorted(self._pinned),
            "tables": tables,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this cache.

        The cache must have been constructed over the same schema (same
        pinned tables, same tracked tables); membership itself may differ
        arbitrarily — it is replaced wholesale.

        Raises:
            ValueError: on schema-version or table-layout mismatch.
        """
        version = state.get("schema_version")
        if version != CACHE_STATE_VERSION:
            raise ValueError(
                f"cache state schema_version {version} != {CACHE_STATE_VERSION}"
            )
        if list(state["pinned"]) != sorted(self._pinned):
            raise ValueError(
                f"pinned tables {sorted(self._pinned)} != checkpointed "
                f"{list(state['pinned'])}"
            )
        tables = state["tables"]
        if sorted(tables) != sorted(self._members):
            raise ValueError(
                f"tracked tables {sorted(self._members)} != checkpointed "
                f"{sorted(tables)}"
            )
        for name in sorted(tables):
            entry = tables[name]
            members = np.asarray(entry["members"], dtype=np.int64).copy()
            if members.size and int(members.max()) >= self._num_rows[name]:
                raise ValueError(
                    f"checkpointed member id {int(members.max())} out of range "
                    f"for table {name!r} ({self._num_rows[name]} rows)"
                )
            self._members[name] = members
            self._freq[name] = np.asarray(entry["freq"], dtype=np.float64).copy()
            self._last_tick[name] = np.asarray(
                entry["last_tick"], dtype=np.int64
            ).copy()
            self._pending[name] = [
                np.asarray(window, dtype=np.int64).copy()
                for window in entry["pending"]
            ]
            self._sketch[name].load_state_dict(entry["sketch"])
        self.version = int(state["version"])
        self.tick = int(state["tick"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.promotions = int(state["promotions"])
        self.demotions = int(state["demotions"])
        self.rebalances = int(state["rebalances"])
        self.window_inputs = int(state["window_inputs"])
        self._update_gauges()


def repack_remaining(
    train_log,
    dataset: FAEDataset,
    cursors: dict[str, int],
    delta: CacheDelta,
    new_bags: dict[str, HotEmbeddingBagSpec],
) -> tuple[FAEDataset, dict[str, int]]:
    """Re-pack only the *remaining* batches after a cache turnover.

    Instead of reclassifying the whole log, only inputs that touch a
    promoted or demoted row can change sides:

    - a hot input flips cold iff it touches a demoted id (its other
      lookups were members and stayed members);
    - a cold input can flip hot only if it touches a promoted id (some
      lookup was a non-member, and only promotions add members) — those
      are re-checked in full against the new membership.

    Untouched inputs keep their classification, so the repack cost scales
    with the delta's traffic, not the dataset.  Batch order within each
    stream is preserved (no reshuffle): flipped-cold inputs append to the
    cold stream, flipped-hot inputs append to the hot stream.

    Returns:
        The repacked dataset (remaining inputs only, cursors reset to 0)
        and the fresh cursor dict.
    """
    hot_remaining = list(dataset.hot_batches[cursors["hot"] :])
    cold_remaining = list(dataset.cold_batches[cursors["cold"] :])
    idx_hot = (
        np.concatenate(hot_remaining) if hot_remaining else np.zeros(0, dtype=np.int64)
    )
    idx_cold = (
        np.concatenate(cold_remaining)
        if cold_remaining
        else np.zeros(0, dtype=np.int64)
    )

    demoted_mask = {
        name: _row_mask(new_bags[name].num_rows, ids)
        for name, ids in delta.demoted.items()
        if ids.size
    }
    promoted_mask = {
        name: _row_mask(new_bags[name].num_rows, ids)
        for name, ids in delta.promoted.items()
        if ids.size
    }
    new_masks = {name: bag.hot_mask() for name, bag in new_bags.items()}

    # Hot side: anything touching a demoted row is cold now, by definition.
    if idx_hot.size and demoted_mask:
        touched_hot = _touches(train_log, idx_hot, demoted_mask)
    else:
        touched_hot = np.zeros(idx_hot.size, dtype=bool)

    # Cold side: only inputs touching a promoted row can have flipped;
    # re-check those in full (their other lookups may still be cold).
    now_hot = np.zeros(idx_cold.size, dtype=bool)
    if idx_cold.size and promoted_mask:
        touched_cold = _touches(train_log, idx_cold, promoted_mask)
        check = idx_cold[touched_cold]
        if check.size:
            sparse = {name: ids[check] for name, ids in train_log.sparse.items()}
            now_hot[touched_cold] = compute_hot_mask(
                sparse, new_bags, new_masks, check.size
            )

    new_hot_idx = np.concatenate([idx_hot[~touched_hot], idx_cold[now_hot]])
    new_cold_idx = np.concatenate([idx_cold[~now_hot], idx_hot[touched_hot]])

    hot_mask = np.array(dataset.hot_mask, dtype=bool, copy=True)
    hot_mask[idx_hot[touched_hot]] = False
    hot_mask[idx_cold[now_hot]] = True

    repacked = FAEDataset(
        hot_batches=_cut_batches(new_hot_idx, dataset.batch_size, drop_last=False),
        cold_batches=_cut_batches(new_cold_idx, dataset.batch_size, drop_last=False),
        hot_mask=hot_mask,
        batch_size=dataset.batch_size,
    )
    registry = get_registry()
    registry.counter("hotcache.repack.events").inc()
    registry.counter("hotcache.repack.flipped_inputs").inc(
        int(np.count_nonzero(touched_hot)) + int(np.count_nonzero(now_hot))
    )
    return repacked, {"hot": 0, "cold": 0}


def _row_mask(num_rows: int, ids: np.ndarray) -> np.ndarray:
    mask = np.zeros(num_rows, dtype=bool)
    mask[ids] = True
    return mask


def _touches(train_log, indices: np.ndarray, row_masks: dict[str, np.ndarray]) -> np.ndarray:
    """Which of ``indices`` perform any lookup into the masked rows."""
    touched = np.zeros(indices.size, dtype=bool)
    for name, mask in row_masks.items():
        touched |= mask[train_log.sparse[name][indices]].any(axis=1)
    return touched
