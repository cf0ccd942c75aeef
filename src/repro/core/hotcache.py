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
  instead of re-running the whole preprocess.  A server splits it across
  a request boundary (:meth:`defer_rebalance`): plan after one request,
  apply at the cache's next call.

Whole-table bags (small tables) are *pinned*: always resident, never
candidates for eviction — exactly the de-facto-hot treatment the static
classifier gives them.

Every tracked row lives in one row space: with tracked tables in name
order, row ``id`` of table ``t`` is key ``base[t] + id``.  Members are one
sorted key array with a counter and a tick array aligned to it; each
table keeps its own sketch over its own ids.

Determinism: no wall clock anywhere.  Recency is a logical tick counter,
ties break on ``(priority, table, id)`` — key order — and the sketch's
floor-decay is integral: two runs with the same seed and traffic are
byte-identical.
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


def _no_keys() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


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
        promoted_order: promoted row keys (table base + id, see
            :class:`EmbeddingHotCache`) in the order the LFU admission
            loop accepted them.
        promoted_est: sketch estimates aligned with ``promoted_order``.
        demoted_order: demoted row keys in eviction order.
    """

    delta: CacheDelta
    tick: int
    promoted_order: np.ndarray = field(default_factory=_no_keys)
    promoted_est: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    demoted_order: np.ndarray = field(default_factory=_no_keys)


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
    if not tail:
        return np.arange(stop), evicted
    return np.concatenate([np.arange(stop), np.array(tail, dtype=np.int64)]), evicted


def _sorted_unique(parts: list[np.ndarray]) -> np.ndarray:
    """``np.unique(np.concatenate(parts))`` for int64 ids, minus its overhead."""
    ids = np.concatenate(parts)
    ids.sort()
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


def _merged(kept: np.ndarray, new, slots: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``kept`` with ``new`` placed at ``slots`` of the result (``old`` marks
    the rest, in order)."""
    out = np.empty(old.size, dtype=kept.dtype)
    out[old] = kept
    out[slots] = new
    return out


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
    """Bounded online cache over one row space of tracked tables.

    Tracked tables, in name order, own consecutive key ranges: row ``id``
    of table ``t`` is key ``base[t] + id``.  Members are one sorted key
    array, with exact counters and last-access ticks aligned to it; a
    table's members are the keys between its two cut points.  Key order is
    ``(table, id)`` order, the order every tie-break uses.

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
        self._pinned = {name: bags[name] for name in sorted(bags) if bags[name].whole_table}
        self._names = sorted(name for name in bags if name not in self._pinned)
        self._index = {name: t for t, name in enumerate(self._names)}
        tracked = [bags[name] for name in self._names]
        self._base = np.zeros(len(tracked) + 1, dtype=np.int64)
        np.cumsum([bag.num_rows for bag in tracked], out=self._base[1:])
        self._row_bytes = np.array([bag.dim * 4 for bag in tracked], dtype=np.int64)
        keys, freq = [_no_keys()], [np.zeros(0, dtype=np.float64)]
        for t, (name, bag) in enumerate(zip(self._names, tracked)):
            members = np.sort(np.asarray(bag.hot_ids, dtype=np.int64))
            counts = None
            if profile is not None and name in profile.tables:
                counts = profile.tables[name].counts[members].astype(np.float64)
            keys.append(members + self._base[t])
            freq.append(np.ones(members.size) if counts is None else counts)
        self._keys = np.concatenate(keys)
        self._freq = np.concatenate(freq)
        self._last_tick = np.zeros(self._keys.size, dtype=np.int64)
        # One sketch per table over its own ids; misses wait as (table, keys).
        self._sketches = [
            CountMinSketch(width=config.sketch_width, depth=config.sketch_depth, seed=config.seed)
            for _ in self._names
        ]
        self._pending: list[tuple[int, np.ndarray]] = []

        self._min_row_bytes = int(self._row_bytes.min()) if tracked else 4
        self._pinned_rows = sum(bag.num_hot for bag in self._pinned.values())
        self._pinned_bytes = sum(bag.nbytes for bag in self._pinned.values())
        self._tracked_budget = max(0, config.budget_bytes - self._pinned_bytes)
        self._held: RebalancePlan | None = None  # see defer_rebalance

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

    def _cuts(self) -> np.ndarray:
        """Each tracked table's first member position, then the member count."""
        return np.searchsorted(self._keys, self._base)

    def _spans(self, keys: np.ndarray):
        """``(table index, slice)`` for each table that sorted ``keys`` touch."""
        cuts = np.searchsorted(keys, self._base).tolist()
        for t, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            if start < stop:
                yield t, slice(start, stop)

    def _by_table(self, keys: np.ndarray) -> dict[str, np.ndarray]:
        """Sorted ``keys`` as table name -> row ids, for the tables they touch."""
        return {self._names[t]: keys[rows] - self._base[t] for t, rows in self._spans(keys)}

    def _member_bytes(self) -> int:
        return int(np.diff(self._cuts()) @ self._row_bytes)

    # ------------------------------------------------------------------
    # Observation (the read path)
    # ------------------------------------------------------------------

    def observe(self, sparse: dict[str, np.ndarray]) -> None:
        """Record one window of lookups (e.g. a mini-batch's sparse ids).

        Hits bump the member's exact counter and last-access tick; misses
        feed the uncached sketch and join the promotion-candidate window.
        Pinned (whole-table) lookups always hit.  Every id must lie in
        ``[0, num_rows)`` of its table (callers check it before this), or
        its key would name another table's row.
        """
        self._settle()
        self.tick += 1
        num_inputs = 0
        tables, parts = [], []
        for name, ids in sparse.items():
            flat = np.asarray(ids, dtype=np.int64).ravel()
            if flat.size == 0:
                continue
            num_inputs = max(num_inputs, np.asarray(ids).shape[0])
            if name in self._pinned:
                self.hits += int(flat.size)
                self._hits_counter.inc(int(flat.size))
            elif name in self._index:  # else: not under cache management
                tables.append(self._index[name])
                parts.append(flat + self._base[tables[-1]])
        if parts:
            keys = np.concatenate(parts) if len(parts) > 1 else parts[0]
            positions = np.searchsorted(self._keys, keys)
            in_range = positions < self._keys.size
            hit = in_range.copy()
            hit[in_range] = self._keys[positions[in_range]] == keys[in_range]
            num_hits = int(np.count_nonzero(hit))
            num_misses = int(keys.size - num_hits)
            if num_hits:
                np.add.at(self._freq, positions[hit], 1.0)
                self._last_tick[positions[hit]] = self.tick
            if num_misses:
                end = 0
                for t, part in zip(tables, parts):
                    start, end = end, end + part.size
                    missed = part[~hit[start:end]]
                    if missed.size:
                        self._sketches[t].add(missed - self._base[t])
                        self._pending.append((t, missed))
            self.hits += num_hits
            self.misses += num_misses
            self._hits_counter.inc(num_hits)
            self._misses_counter.inc(num_misses)
        self.window_inputs += num_inputs
        total = self.hits + self.misses
        if total:
            self._hit_rate_gauge.set(self.hits / total)

    # ------------------------------------------------------------------
    # Turnover (the write path)
    # ------------------------------------------------------------------

    def should_rebalance(self) -> bool:
        """True when the auto-rebalance window is full."""
        self._settle()
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

    def defer_rebalance(self) -> CacheDelta:
        """:meth:`rebalance`, split across a call boundary.

        Plans now and holds the plan; the cache's next call of any kind
        (:meth:`observe`, a reader, another turnover) first applies it
        through :meth:`apply_rebalance`, so state changes in the same
        order as under :meth:`rebalance`.  The turnover is counted at
        once: the public attributes, the ``hotcache.*`` counters and the
        gauges read as after :meth:`rebalance` from this call on.  A
        server calls this after answering the request that filled the
        window, so no request pays for a whole turnover.

        Returns:
            The planned per-table promoted/demoted ids (possibly empty).
        """
        plan = self.plan_rebalance()
        self._count_turnover(plan.delta)
        self._held = plan
        return plan.delta

    def _settle(self) -> None:
        """Apply the plan :meth:`defer_rebalance` holds, if any."""
        if self._held is not None:
            self.apply_rebalance(self._held)

    def plan_rebalance(self) -> RebalancePlan:
        """Decide the next turnover without mutating any cache state.

        Pure in the cache state: two byte-identical caches produce
        byte-identical plans, which is what lets crash recovery re-derive
        an interrupted refresh instead of persisting row payloads.
        """
        self._settle()
        with span("hotcache.plan", tick=self.tick) as sp:
            # Window candidates: unique missed keys, scored by their
            # table's sketch.  Key order is (table, id) order.
            c_key = _sorted_unique([keys for _, keys in self._pending] or [_no_keys()])
            if c_key.size == 0:
                sp.set(candidates=0, admitted=0, victims=0)
                return RebalancePlan(delta=CacheDelta(), tick=self.tick)
            c_est = np.empty(c_key.size, dtype=np.float64)
            c_bytes = np.empty(c_key.size, dtype=np.int64)
            for t, rows in self._spans(c_key):
                c_est[rows] = self._sketches[t].query(c_key[rows] - self._base[t])
                c_bytes[rows] = self._row_bytes[t]
            # Admission order: best estimate first, ties in key order, which
            # a stable sort keeps.
            order = np.argsort(-c_est, kind="stable")
            c_key, c_est, c_bytes = c_key[order], c_est[order], c_bytes[order]

            # Victim priority is the exact counter under LFU, the last tick
            # under LRU.  Taking the first minimum of what is left, over and
            # over, visits members in (priority, key) order, so the head of
            # one stable sort is the eviction sequence and a pointer walks
            # it (DESIGN.md section 13).
            cuts = self._cuts()
            spare = self._tracked_budget - int(np.diff(cuts) @ self._row_bytes)
            priority = self._freq if self.config.eviction == "lfu" else self._last_tick
            # Evictions make room for candidates, so the walk reaches about as
            # many victims as the candidates' bytes hold of the cheapest row;
            # only that head is sorted, and widened if the walk runs off it.
            reach = int(c_bytes.sum()) // self._min_row_bytes + 1
            while True:
                victims = _stable_argsort_head(priority, reach)
                v_table = np.searchsorted(cuts, victims, side="right") - 1
                admitted, evicted = _admission_walk(
                    c_bytes,
                    c_est,
                    self._row_bytes[v_table],
                    self._freq[victims],
                    spare,
                    int(c_bytes.min()),
                )
                if evicted < victims.size or victims.size == priority.size:
                    break
                reach *= 2
            sp.set(candidates=int(c_key.size), admitted=len(admitted), victims=evicted)

        promoted = c_key[admitted]
        demoted = self._keys[victims[:evicted]]
        return RebalancePlan(
            delta=CacheDelta(
                promoted=self._by_table(np.sort(promoted)),
                demoted=self._by_table(np.sort(demoted)),
            ),
            tick=self.tick,
            promoted_order=promoted,
            promoted_est=c_est[admitted],
            demoted_order=demoted,
        )

    def apply_rebalance(self, plan: RebalancePlan) -> CacheDelta:
        """Apply a :meth:`plan_rebalance` decision to the cache state.

        Performs the membership swap, hands demoted counters back to the
        sketch, then ages every counter and resets the observation window
        (exactly what the fused :meth:`rebalance` always did).  A plan
        :meth:`defer_rebalance` holds was counted when it was planned.

        Raises:
            ValueError: if the plan was drawn at a different logical tick
                than the cache is at now (a stale or foreign plan).
        """
        held = plan is self._held
        if held:
            self._held = None
        else:
            self._settle()
        if plan.tick != self.tick:
            raise ValueError(
                f"rebalance plan drawn at tick {plan.tick} cannot apply at "
                f"tick {self.tick}"
            )
        if not held:
            self._count_turnover(plan.delta)
        with span("hotcache.rebalance", tick=self.tick):
            self._apply_rebalance(plan)
        return plan.delta

    def _count_turnover(self, delta: CacheDelta) -> None:
        """Count one turnover and close its window, ahead of its merge: the
        public attributes, counters and gauges read as after the merge."""
        num_promoted = delta.num_promoted
        num_demoted = delta.num_demoted
        self.promotions += num_promoted
        self.demotions += num_demoted
        self.rebalances += 1
        if num_promoted or num_demoted:
            self.version += 1
        self.window_inputs = 0
        self._promotions_counter.inc(num_promoted)
        self._demotions_counter.inc(num_demoted)
        self._evictions_counter.inc(num_demoted)
        self._rebalances_counter.inc()
        nbytes = sum(
            sign * ids.size * int(self._row_bytes[self._index[name]])
            for sign, side in ((1, delta.promoted), (-1, delta.demoted))
            for name, ids in side.items()
        )
        self._update_gauges(num_promoted - num_demoted, nbytes)

    def _apply_rebalance(self, plan: RebalancePlan) -> None:
        if plan.promoted_order.size or plan.demoted_order.size:
            # Demoted rows hand their exact counters back to their table's
            # sketch, so their popularity history survives the demotion.
            gone = np.sort(np.searchsorted(self._keys, plan.demoted_order))
            keys = self._keys[gone]
            # Counters are non-negative, so truncation is the floor.
            counts = self._freq[gone].astype(np.int64)
            for t, rows in self._spans(keys):
                self._sketches[t].add(keys[rows] - self._base[t], counts=counts[rows])

            # Keys stay sorted: one keep mask cuts the demoted rows, and
            # promoted rows go after any equal kept key (what a stable sort
            # of kept-then-promoted would give).
            keep = np.ones(self._keys.size, dtype=bool)
            keep[gone] = False
            by_key = np.argsort(plan.promoted_order, kind="stable")
            promoted = plan.promoted_order[by_key]
            kept = self._keys[keep]
            slots = np.searchsorted(kept, promoted, side="right")
            slots += np.arange(promoted.size)
            old = np.ones(kept.size + promoted.size, dtype=bool)
            old[slots] = False
            self._keys = _merged(kept, promoted, slots, old)
            self._freq = _merged(self._freq[keep], plan.promoted_est[by_key], slots, old)
            self._last_tick = _merged(self._last_tick[keep], self.tick, slots, old)
        self._finish_window()

    def _finish_window(self) -> None:
        """Age every counter and drop the observation window."""
        self._pending = []
        decay = self.config.decay
        if decay < 1.0:
            self._freq *= decay
            for sketch in self._sketches:
                sketch.decay(decay)

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
        self._settle()
        bags: dict[str, HotEmbeddingBagSpec] = dict(self._pinned)
        cuts = self._cuts()
        for t, name in enumerate(self._names):
            hot_ids = self._keys[cuts[t] : cuts[t + 1]] - self._base[t]
            num_rows = int(self._base[t + 1] - self._base[t])
            bags[name] = HotEmbeddingBagSpec(
                table_name=name,
                hot_ids=hot_ids,
                num_rows=num_rows,
                dim=int(self._row_bytes[t]) // 4,
                whole_table=hot_ids.size == num_rows,
            )
        return bags

    @property
    def hot_rows(self) -> int:
        self._settle()
        return self._pinned_rows + self._keys.size

    @property
    def hot_bytes(self) -> int:
        self._settle()
        return self._pinned_bytes + self._member_bytes()

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

    def _update_gauges(self, rows: int = 0, nbytes: int = 0) -> None:
        """Publish hot rows and bytes, plus the net ``rows`` and ``nbytes``
        of a turnover not merged yet."""
        self._rows_gauge.set(self._pinned_rows + self._keys.size + rows)
        self._bytes_gauge.set(self._pinned_bytes + self._member_bytes() + nbytes)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete mutable cache state for checkpointing.

        Covers membership, exact decayed counters, last-access ticks,
        pending miss windows, per-table sketches (full depth x width
        arrays), the logical tick, and every cumulative stat — everything
        needed for a restored cache to continue byte-identically.  Each
        table's entry holds its own row ids, not keys.  Static
        construction inputs (config, pinned bags, table geometry) are
        *not* serialized; the loader validates they match instead.
        """
        self._settle()
        cuts = self._cuts()
        tables: dict[str, dict] = {}
        for t, name in enumerate(self._names):
            rows = slice(cuts[t], cuts[t + 1])
            tables[name] = {
                "members": self._keys[rows] - self._base[t],
                "freq": self._freq[rows].copy(),
                "last_tick": self._last_tick[rows].copy(),
                "pending": [keys - self._base[t] for u, keys in self._pending if u == t],
                "sketch": self._sketches[t].state_dict(),
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
            ValueError: on schema-version or table-layout mismatch, or a
                member id outside its table.
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
        if sorted(tables) != self._names:
            raise ValueError(
                f"tracked tables {self._names} != checkpointed {sorted(tables)}"
            )
        keys, freq, ticks, pending = [_no_keys()], [np.zeros(0)], [_no_keys()], []
        for t, name in enumerate(self._names):
            entry = tables[name]
            members = np.asarray(entry["members"], dtype=np.int64)
            num_rows = int(self._base[t + 1] - self._base[t])
            if members.size and (int(members.min()) < 0 or int(members.max()) >= num_rows):
                raise ValueError(
                    f"checkpointed member ids [{int(members.min())}, {int(members.max())}] "
                    f"out of range for table {name!r} ({num_rows} rows)"
                )
            keys.append(members + self._base[t])
            freq.append(np.asarray(entry["freq"], dtype=np.float64))
            ticks.append(np.asarray(entry["last_tick"], dtype=np.int64))
            pending += [
                (t, np.asarray(window, dtype=np.int64) + self._base[t])
                for window in entry["pending"]
            ]
        self._held = None  # replaced wholesale; its counts are already in
        self._keys, self._freq, self._last_tick = map(np.concatenate, (keys, freq, ticks))
        self._pending = pending
        for t, name in enumerate(self._names):
            self._sketches[t].load_state_dict(tables[name]["sketch"])
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
