"""Tests for the online frequency-aware embedding cache (repro.core.hotcache)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fae_preprocess, hotcache
from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.hotcache import (
    CacheDelta,
    EmbeddingHotCache,
    HotCacheConfig,
    RebalancePlan,
    repack_remaining,
)
from repro.core.sketch import CountMinSketch


def _bag(name, hot_ids, num_rows=64, dim=4, whole=False):
    return HotEmbeddingBagSpec(
        table_name=name,
        hot_ids=np.asarray(sorted(hot_ids), dtype=np.int64),
        num_rows=num_rows,
        dim=dim,
        whole_table=whole,
    )


def _cache(hot_ids=(0, 1, 2, 3), budget_rows=4, **knobs):
    """One tracked table 't', budget sized to `budget_rows` rows of dim 4."""
    config = HotCacheConfig(budget_bytes=budget_rows * 4 * 4, **knobs)
    return EmbeddingHotCache({"t": _bag("t", hot_ids)}, config)


def _sketch(cache, entry) -> CountMinSketch:
    """The sketch of one ``state_dict()["tables"]`` entry."""
    config = cache.config
    sketch = CountMinSketch(config.sketch_width, config.sketch_depth, config.seed)
    sketch.load_state_dict(entry["sketch"])
    return sketch


def _miss(cache, entry, rows, weights) -> None:
    """Queue ``rows`` in a ``state_dict()["tables"]`` entry as one window of
    misses, fed to its sketch with ``weights``."""
    sketch = _sketch(cache, entry)
    sketch.add(rows, counts=weights)
    entry["sketch"] = sketch.state_dict()
    entry["pending"].append(np.asarray(rows, dtype=np.int64))


def _tables(cache) -> dict:
    """``state_dict()["tables"]``, each entry with its table's ``dim``,
    ``rows`` and key ``base`` (tables in name order own consecutive keys)."""
    bags = cache.bags()
    tables = cache.state_dict()["tables"]
    base = 0
    for name in sorted(tables):
        tables[name].update(dim=bags[name].dim, rows=bags[name].num_rows, base=base)
        base += bags[name].num_rows
    return tables


class TestSketchAging:
    def test_decay_scales_counts(self):
        sketch = CountMinSketch(width=64, depth=3, seed=1)
        sketch.add(np.array([5, 5, 5, 5, 9], dtype=np.int64))
        before = sketch.query(np.array([5]))[0]
        sketch.decay(0.5)
        after = sketch.query(np.array([5]))[0]
        # Counters age by floor(count * factor): integral, deterministic.
        assert after == before * 0.5

    def test_decay_validates_factor(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(ValueError):
            sketch.decay(0.0)
        with pytest.raises(ValueError):
            sketch.decay(1.5)

    def test_weighted_add(self):
        sketch = CountMinSketch(width=64, depth=3, seed=1)
        sketch.add(np.array([7], dtype=np.int64), counts=np.array([3]))
        assert sketch.query(np.array([7]))[0] >= 3

    def test_weighted_add_rejects_negative(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(ValueError):
            sketch.add(np.array([1]), counts=np.array([-1]))


class TestHotCacheConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            HotCacheConfig(budget_bytes=-1)
        with pytest.raises(ValueError):
            HotCacheConfig(budget_bytes=64, eviction="fifo")
        with pytest.raises(ValueError):
            HotCacheConfig(budget_bytes=64, decay=0.0)
        with pytest.raises(ValueError):
            HotCacheConfig(budget_bytes=64, rebalance_every=-1)


class TestObserve:
    def test_hits_and_misses_split(self):
        cache = _cache()
        cache.observe({"t": np.array([[0, 1], [2, 40]])})
        assert cache.hits == 3
        assert cache.misses == 1
        assert cache.hit_rate() == pytest.approx(0.75)

    def test_pinned_tables_always_hit(self):
        bags = {
            "small": _bag("small", range(8), num_rows=8, whole=True),
            "big": _bag("big", [0, 1]),
        }
        cache = EmbeddingHotCache(bags, HotCacheConfig(budget_bytes=1 << 16))
        cache.observe({"small": np.array([[7, 3]]), "big": np.array([[50]])})
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.bags()["small"].hot_mask()[5]

    def test_contains_matches_membership(self):
        cache = _cache(hot_ids=(2, 5, 9))
        got = cache.bags()["t"].hot_mask()[[1, 2, 5, 9, 60]]
        np.testing.assert_array_equal(got, [False, True, True, True, False])


def _assert_slot_map(cache) -> None:
    """The member slot map names every member's position and nothing else."""
    keys = cache._keys
    np.testing.assert_array_equal(cache._slot[keys], np.arange(keys.size))
    assert np.count_nonzero(cache._slot >= 0) == keys.size


def _searchsorted_hits(cache, sparse) -> int:
    """Hits of one ``observe`` window, found by binary search in the members."""
    bags, hits = cache.bags(), 0
    for name, ids in sparse.items():
        members = bags[name].hot_ids  # a pinned table's are all its rows
        if members.size:
            positions = np.minimum(np.searchsorted(members, np.ravel(ids)), members.size - 1)
            hits += int(np.count_nonzero(members[positions] == np.ravel(ids)))
    return hits


class TestSlotMap:
    """``observe`` finds members through the slot map, which every change of
    membership must rewrite."""

    @staticmethod
    def _three_tables(budget_rows: int):
        bags = {
            "a": _bag("a", [1, 3, 5], num_rows=20, dim=4),
            "b": _bag("b", [0, 7], num_rows=9, dim=8),
            "c": _bag("c", [], num_rows=30, dim=2),
            "pinned": _bag("pinned", range(6), num_rows=6, dim=4, whole=True),
        }
        config = HotCacheConfig(budget_bytes=6 * 16 + budget_rows * 16, rebalance_every=12)
        return EmbeddingHotCache(bags, config)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), budget_rows=st.sampled_from([2, 8, 40]))
    def test_invariant_and_hits_over_a_stream(self, seed, budget_rows):
        cache = self._three_tables(budget_rows)
        _assert_slot_map(cache)  # __init__
        rng = np.random.default_rng(seed)
        hits = misses = 0
        for step in range(40):
            sparse = {
                name: rng.zipf(1.3, size=(4, 2)) % rows
                for name, rows in (("a", 20), ("b", 9), ("c", 30), ("pinned", 6))
            }
            want = _searchsorted_hits(cache, sparse)
            cache.observe(sparse)  # applies a deferred plan first
            _assert_slot_map(cache)
            hits += want
            misses += sum(ids.size for ids in sparse.values()) - want
            assert (cache.hits, cache.misses) == (hits, misses)
            if cache.should_rebalance():
                if step % 2:
                    cache.rebalance()
                    _assert_slot_map(cache)
                else:
                    cache.defer_rebalance()
        assert cache.promotions and cache.demotions and cache.rebalances >= 4

    def test_load_state_dict_rewrites_the_map(self):
        source = self._three_tables(budget_rows=4)
        for _ in range(6):
            source.observe({"a": np.array([[11, 12]]), "c": np.array([[29, 0, 29]])})
        source.rebalance()
        cache = self._three_tables(budget_rows=4)
        cache.load_state_dict(source.state_dict())
        _assert_slot_map(cache)
        np.testing.assert_array_equal(cache._keys, source._keys)
        assert cache._slot[1] == -1  # a's row 1 left the members

    @pytest.mark.parametrize(
        "table, ids",
        [
            ("b", [2, -15]),  # key base_b - 15 is a's member 5
            ("a", [20]),  # key 20 is b's member 0
            ("c", [30]),  # past the last table's rows
        ],
    )
    def test_out_of_range_ids_are_refused_and_record_nothing(self, table, ids):
        cache = self._three_tables(budget_rows=4)
        cache.observe({"a": np.array([[11, 5]])})
        before = (cache.tick, cache.hits, cache.misses, len(cache._pending))
        freq, ticks = cache._freq.copy(), cache._last_tick.copy()
        sparse = {"pinned": np.array([[1]]), table: np.array([ids])}
        with pytest.raises(ValueError, match=rf"ids of table '{table}' out of range \[0, "):
            cache.observe(sparse)
        assert (cache.tick, cache.hits, cache.misses, len(cache._pending)) == before
        np.testing.assert_array_equal(cache._freq, freq)
        np.testing.assert_array_equal(cache._last_tick, ticks)

    def test_load_refuses_out_of_range_members(self):
        cache = self._three_tables(budget_rows=4)
        state = cache.state_dict()
        state["tables"]["b"]["members"] = np.array([-1, 7], dtype=np.int64)
        with pytest.raises(ValueError, match=r"member ids of table 'b' out of range \[0, 9\)"):
            cache.load_state_dict(state)


class TestRebalance:
    def test_popular_miss_displaces_cold_member(self):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4)
        # Member 0-2 stay warm; member 3 never appears; row 40 is hot.
        for _ in range(6):
            cache.observe({"t": np.array([[0, 1, 2, 40]])})
        delta = cache.rebalance()
        assert 40 in set(delta.promoted.get("t", np.array([])).tolist())
        assert 3 in set(delta.demoted.get("t", np.array([])).tolist())
        hot = cache.bags()["t"].hot_mask()
        assert hot[40]
        assert not hot[3]

    def test_budget_is_respected(self):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4)
        for _ in range(4):
            cache.observe({"t": np.arange(20).reshape(1, 20)})
        cache.rebalance()
        assert cache.hot_bytes <= cache.config.budget_bytes

    def test_unpopular_miss_not_admitted_when_full(self):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4)
        # Every member out-counts the one-off miss.
        for _ in range(5):
            cache.observe({"t": np.array([[0, 1, 2, 3]])})
        cache.observe({"t": np.array([[50]])})
        delta = cache.rebalance()
        assert delta.is_empty
        assert not cache.bags()["t"].hot_mask()[50]

    def test_empty_delta_keeps_version(self):
        cache = _cache()
        version = cache.version
        delta = cache.rebalance()
        assert delta.is_empty
        assert cache.version == version

    def test_membership_change_bumps_version(self):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4)
        for _ in range(6):
            cache.observe({"t": np.array([[40, 41]])})
        version = cache.version
        delta = cache.rebalance()
        assert not delta.is_empty
        assert cache.version == version + 1

    def test_auto_rebalance_window(self):
        cache = _cache(rebalance_every=3)
        assert not cache.should_rebalance()
        for _ in range(3):
            cache.observe({"t": np.array([[0]])})
        assert cache.should_rebalance()
        cache.rebalance()
        assert not cache.should_rebalance()

    def test_lru_evicts_oldest(self):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4, eviction="lru")
        cache.observe({"t": np.array([[3]])})  # 3 is most recent
        for _ in range(6):
            cache.observe({"t": np.array([[1, 2, 3, 40]])})
        delta = cache.rebalance()
        # 0 was never touched after init: the LRU victim.
        assert 0 in set(delta.demoted.get("t", np.array([])).tolist())

    def test_demoted_rows_hand_back_their_own_counters(self):
        # Rows 1 and 2 hold counters 9 and 3, so LFU evicts row 2 first:
        # eviction order [2, 1] differs from id order [1, 2].
        cache = _cache(hot_ids=(1, 2), budget_rows=2, decay=1.0)
        for row, hits in ((1, 8), (2, 2), (40, 20), (41, 20)):
            for _ in range(hits):
                cache.observe({"t": np.array([[row]])})
        plan = cache.plan_rebalance()
        assert plan.delta.demoted["t"].tolist() == [1, 2]
        cache.apply_rebalance(plan)
        sketch = _sketch(cache, cache.state_dict()["tables"]["t"])
        assert sketch.query(np.array([1, 2])).tolist() == [9, 3]

    def test_deterministic_across_instances(self):
        traffic = [np.array([[0, 1, 17, 40, 40]]), np.array([[2, 40, 51]])]
        outcomes = []
        for _ in range(2):
            cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4)
            for window in traffic:
                cache.observe({"t": window})
            cache.rebalance()
            outcomes.append(cache.bags()["t"].hot_ids.tolist())
        assert outcomes[0] == outcomes[1]


def _reference_plan(cache: EmbeddingHotCache) -> RebalancePlan:
    """The admission loop ``plan_rebalance`` had before PR 13, kept as the
    oracle: a masked ``argmin`` over every member per eviction, outputs
    gathered by per-member Python comprehensions."""
    tables = _tables(cache)
    names = sorted(tables)
    name_code = {name: i for i, name in enumerate(names)}

    m_code_parts, m_id_parts, m_freq_parts, m_tick_parts = [], [], [], []
    for name in names:
        members = tables[name]["members"]
        m_code_parts.append(np.full(members.size, name_code[name], dtype=np.int64))
        m_id_parts.append(members)
        m_freq_parts.append(tables[name]["freq"])
        m_tick_parts.append(tables[name]["last_tick"])
    m_code = np.concatenate(m_code_parts) if m_code_parts else np.zeros(0, np.int64)
    m_id = np.concatenate(m_id_parts) if m_id_parts else np.zeros(0, np.int64)
    m_freq = np.concatenate(m_freq_parts) if m_freq_parts else np.zeros(0, np.float64)
    m_tick = np.concatenate(m_tick_parts) if m_tick_parts else np.zeros(0, np.int64)
    m_bytes = np.array([tables[names[int(c)]]["dim"] * 4 for c in m_code], dtype=np.int64)
    alive = np.ones(m_id.size, dtype=bool)

    c_code_parts, c_id_parts, c_est_parts = [], [], []
    for name in names:
        pending = tables[name]["pending"]
        if not pending:
            continue
        cand = np.unique(np.concatenate(pending))
        if cand.size == 0:
            continue
        est = _sketch(cache, tables[name]).query(cand).astype(np.float64)
        c_code_parts.append(np.full(cand.size, name_code[name], dtype=np.int64))
        c_id_parts.append(cand)
        c_est_parts.append(est)
    if not c_id_parts:
        return RebalancePlan(delta=CacheDelta(), tick=cache.tick)
    c_code = np.concatenate(c_code_parts)
    c_id = np.concatenate(c_id_parts)
    c_est = np.concatenate(c_est_parts)
    order = np.lexsort((c_id, c_code, -c_est))

    used = int(np.sum(m_bytes[alive])) if m_id.size else 0
    spare = cache._tracked_budget - used
    priority = m_freq if cache.config.eviction == "lfu" else m_tick.astype(np.float64)

    admitted: list[tuple[int, int, float]] = []
    evicted_idx: list[int] = []
    for pos in order:
        code = int(c_code[pos])
        row_bytes = tables[names[code]]["dim"] * 4
        est = float(c_est[pos])
        while spare < row_bytes and alive.any():
            masked = np.where(alive, priority, np.inf)
            victim = int(np.argmin(masked))
            if est <= float(m_freq[victim]):
                break
            alive[victim] = False
            evicted_idx.append(victim)
            spare += int(m_bytes[victim])
        if spare >= row_bytes:
            admitted.append((code, int(c_id[pos]), est))
            spare -= row_bytes

    promoted, demoted = {}, {}
    for i, name in enumerate(names):
        promo = np.array(sorted(cid for code, cid, _ in admitted if code == i), dtype=np.int64)
        demo_idx = [j for j in evicted_idx if int(m_code[j]) == i]
        demo = (
            np.sort(m_id[demo_idx].astype(np.int64))
            if demo_idx
            else np.zeros(0, dtype=np.int64)
        )
        if promo.size:
            promoted[name] = promo
        if demo.size:
            demoted[name] = demo
    # The orders travel as keys: table base + id.
    base = np.array([tables[name]["base"] for name in names], dtype=np.int64)
    return RebalancePlan(
        delta=CacheDelta(promoted=promoted, demoted=demoted),
        tick=cache.tick,
        promoted_order=np.array([base[code] + cid for code, cid, _ in admitted], dtype=np.int64),
        promoted_est=np.array([e for _, _, e in admitted], dtype=np.float64),
        demoted_order=(base[m_code] + m_id)[evicted_idx].astype(np.int64),
    )


def _reference_merge(tables: dict, plan: RebalancePlan, name: str, tick: int):
    """Table ``name``'s (members, freq, last_tick) after ``plan``, merged as
    ``_apply_rebalance`` did before it located rows by ``searchsorted``:
    ``np.isin`` to drop the demoted, a stable argsort of kept-then-promoted.
    ``tables`` is ``_tables`` of the cache the plan was drawn from."""
    empty = np.zeros(0, dtype=np.int64)
    table = tables[name]
    keep = np.isin(
        table["members"], plan.delta.demoted.get(name, empty), assume_unique=True, invert=True
    )
    key = plan.promoted_order - table["base"]
    mine = (key >= 0) & (key < table["rows"])
    promoted = key[mine]
    merged = np.concatenate([table["members"][keep], promoted])
    freq = np.concatenate([table["freq"][keep], plan.promoted_est[mine]])
    last_tick = np.concatenate(
        [table["last_tick"][keep], np.full(promoted.size, tick, dtype=np.int64)]
    )
    sorter = np.argsort(merged, kind="stable")
    return merged[sorter], freq[sorter], last_tick[sorter]


def _assert_arrays_identical(got: dict, want: dict, what: str) -> None:
    assert list(got) == list(want), what
    for name in want:
        assert got[name].dtype == want[name].dtype, f"{what}[{name}] dtype"
        np.testing.assert_array_equal(got[name], want[name], err_msg=f"{what}[{name}]")


def _assert_same_plan(got: RebalancePlan, want: RebalancePlan) -> None:
    assert got.tick == want.tick
    _assert_arrays_identical(got.delta.promoted, want.delta.promoted, "promoted")
    _assert_arrays_identical(got.delta.demoted, want.delta.demoted, "demoted")
    orders = ("promoted_order", "promoted_est", "demoted_order")
    _assert_arrays_identical(
        {name: getattr(got, name) for name in orders},
        {name: getattr(want, name) for name in orders},
        "plan",
    )


_NUM_ROWS = 24

# Few distinct counters and estimates, so ties (the argmin/stable-sort
# tie-break) and exact est == counter standoffs are the common case.
_table_state = st.fixed_dictionaries(
    {
        "dim": st.sampled_from([2, 4, 8]),
        "member": st.lists(st.booleans(), min_size=_NUM_ROWS, max_size=_NUM_ROWS),
        "freq": st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.0]),
            min_size=_NUM_ROWS,
            max_size=_NUM_ROWS,
        ),
        "tick": st.lists(st.integers(0, 3), min_size=_NUM_ROWS, max_size=_NUM_ROWS),
        # Missed-id windows: (row, sketch weight) pairs; rows that turn out
        # to be members are dropped, as observe() never queues a member.
        "windows": st.lists(
            st.lists(
                st.tuples(st.integers(0, _NUM_ROWS - 1), st.sampled_from([0, 1, 2, 3, 8])),
                max_size=12,
            ),
            max_size=3,
        ),
    }
)


def _build_cache(tables, eviction, spare_rows, sketch_width):
    """A cache in an arbitrary reachable-looking state, without traffic."""
    bags, used = {}, 0
    for index, table in enumerate(tables):
        ids = np.flatnonzero(table["member"])
        bags[f"t{index}"] = _bag(f"t{index}", ids, num_rows=_NUM_ROWS, dim=table["dim"])
        used += ids.size * table["dim"] * 4
    # spare_rows counts dim-2 rows: 0 is "exactly full", negative is
    # over budget (more than one eviction per admission), large is "free".
    config = HotCacheConfig(
        budget_bytes=max(0, used + spare_rows * 8),
        eviction=eviction,
        sketch_width=sketch_width,
        sketch_depth=2,
    )
    cache = EmbeddingHotCache(bags, config)
    state = cache.state_dict()
    for index, table in enumerate(tables):
        entry = state["tables"][f"t{index}"]
        members = entry["members"]
        entry["freq"] = np.asarray(table["freq"], dtype=np.float64)[members]
        entry["last_tick"] = np.asarray(table["tick"], dtype=np.int64)[members]
        for window in table["windows"]:
            missed = [(row, w) for row, w in window if not table["member"][row]]
            if not missed:
                continue
            rows, weights = (np.asarray(x, dtype=np.int64) for x in zip(*missed))
            _miss(cache, entry, rows, weights)
    state["tick"] = 5
    cache.load_state_dict(state)
    return cache


class TestPlanIdentity:
    """ROADMAP 4b: plans are journaled and re-derived after a crash, so the
    sort-once planner must reproduce the argmin loop exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        tables=st.lists(_table_state, min_size=1, max_size=3),
        eviction=st.sampled_from(["lfu", "lru"]),
        spare_rows=st.sampled_from([-6, -1, 0, 0, 1, 3, 200]),
        sketch_width=st.sampled_from([4, 64]),
    )
    def test_matches_argmin_reference(self, tables, eviction, spare_rows, sketch_width):
        cache = _build_cache(tables, eviction, spare_rows, sketch_width)
        before = pickle.dumps(cache.state_dict())
        want = _reference_plan(cache)
        got = cache.plan_rebalance()
        _assert_same_plan(got, want)
        assert pickle.dumps(cache.state_dict()) == before  # planning is pure
        tables = _tables(cache)
        want_members = {name: _reference_merge(tables, got, name, cache.tick) for name in tables}
        drawn = pickle.dumps(got)
        cache.apply_rebalance(got)
        after = cache.state_dict()["tables"]
        for name, (members, freq, last_tick) in want_members.items():
            _assert_arrays_identical(
                {"members": after[name]["members"], "last_tick": after[name]["last_tick"]},
                {"members": members, "last_tick": last_tick},
                name,
            )
            # The window's decay ages every counter after the merge.
            want_freq = freq * cache.config.decay if cache.config.decay < 1.0 else freq
            np.testing.assert_array_equal(after[name]["freq"], want_freq)
        # The plan owns its arrays: applying it, and ageing the counters in
        # place afterwards, must not alias (and so corrupt) it.
        cache.rebalance()
        assert pickle.dumps(got) == drawn

    @pytest.mark.parametrize("eviction", ["lfu", "lru"])
    def test_empty_window(self, eviction):
        cache = _cache(eviction=eviction)
        cache.observe({"t": np.array([[0, 1, 2, 3]])})  # hits only
        _assert_same_plan(cache.plan_rebalance(), _reference_plan(cache))
        assert cache.plan_rebalance().delta.is_empty

    @pytest.mark.parametrize("eviction", ["lfu", "lru"])
    def test_every_member_evicted(self, eviction):
        cache = _cache(hot_ids=(0, 1, 2, 3), budget_rows=4, eviction=eviction)
        for _ in range(9):
            cache.observe({"t": np.array([[40, 41, 42, 43, 44, 45]])})
        plan = cache.plan_rebalance()
        _assert_same_plan(plan, _reference_plan(cache))
        assert plan.delta.demoted["t"].tolist() == [0, 1, 2, 3]
        assert plan.delta.promoted["t"].tolist() == [40, 41, 42, 43]

    def test_partial_eviction_without_admission(self):
        # A wide candidate evicts a narrow victim, then loses to the next
        # one: the first eviction stands although nothing was admitted
        # (the loop's behaviour, kept because plans are journaled).
        bags = {
            "narrow": _bag("narrow", (0, 1), dim=2),
            "wide": _bag("wide", (), dim=8),
        }
        cache = EmbeddingHotCache(bags, HotCacheConfig(budget_bytes=2 * 2 * 4))
        state = cache.state_dict()
        state["tables"]["narrow"]["freq"] = np.array([1.0, 9.0])
        _miss(cache, state["tables"]["wide"], np.array([7]), np.array([5]))
        cache.load_state_dict(state)
        plan = cache.plan_rebalance()
        _assert_same_plan(plan, _reference_plan(cache))
        assert plan.delta.demoted["narrow"].tolist() == [0]
        assert not plan.delta.promoted


    @settings(max_examples=200, deadline=None)
    @given(
        priority=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 7.0]), max_size=40),
        count=st.integers(1, 44),
        as_ticks=st.booleans(),
    )
    def test_sorted_head_is_a_prefix_of_the_stable_sort(self, priority, count, as_ticks):
        priority = np.asarray(priority, dtype=np.int64 if as_ticks else np.float64)
        head = hotcache._stable_argsort_head(priority, count)
        full = np.argsort(priority, kind="stable")
        assert head.size >= min(count, priority.size)
        np.testing.assert_array_equal(head, full[: head.size])
        if head.size < priority.size:  # a tie is never cut in two
            assert priority[full[head.size]] > priority[head[-1]]

    @pytest.mark.parametrize("eviction", ["lfu", "lru"])
    def test_walk_that_outruns_the_sorted_head_widens_it(self, eviction, monkeypatch):
        # 40 members in a budget of 4 rows: the one candidate's bytes
        # suggest a head of 2 victims, the walk needs 37.
        cache = _cache(hot_ids=range(40), budget_rows=4, eviction=eviction)
        state = cache.state_dict()
        table = state["tables"]["t"]
        table["freq"] = np.arange(40, dtype=np.float64)[::-1].copy()
        table["last_tick"] = np.arange(40, dtype=np.int64)
        _miss(cache, table, np.array([50]), np.array([1000]))
        cache.load_state_dict(state)
        reaches = []
        head = hotcache._stable_argsort_head
        monkeypatch.setattr(
            hotcache,
            "_stable_argsort_head",
            lambda priority, count: reaches.append(count) or head(priority, count),
        )
        plan = cache.plan_rebalance()
        assert reaches == [2, 4, 8, 16, 32, 64]
        monkeypatch.undo()
        _assert_same_plan(plan, _reference_plan(cache))
        assert plan.delta.promoted["t"].tolist() == [50]
        assert plan.delta.demoted["t"].size == 37


class TestBagsAndStats:
    def test_bags_are_classifier_compatible(self):
        cache = _cache(hot_ids=(5, 2, 9))
        bag = cache.bags()["t"]
        assert isinstance(bag, HotEmbeddingBagSpec)
        np.testing.assert_array_equal(bag.hot_ids, [2, 5, 9])
        assert not bag.whole_table

    def test_stats_shape(self):
        cache = _cache()
        cache.observe({"t": np.array([[0, 50]])})
        stats = cache.stats()
        for key in (
            "hits",
            "misses",
            "hit_rate",
            "hot_rows",
            "hot_bytes",
            "promotions",
            "demotions",
            "rebalances",
            "version",
        ):
            assert key in stats

    def test_from_schema_pins_small_tables(self, tiny_schema):
        cache = EmbeddingHotCache.from_schema(
            tiny_schema,
            HotCacheConfig(budget_bytes=8 * 1024),
            large_table_min_bytes=1024,
        )
        bags = cache.bags()
        # table_02 (12 rows x dim 8) is under the cutoff: pinned whole.
        assert bags["table_02"].whole_table
        assert not bags["table_00"].whole_table
        assert bags["table_00"].hot_ids.size == 0  # cold start


class TestCacheDelta:
    def test_counts_and_tables(self):
        delta = CacheDelta(
            promoted={"a": np.array([1, 2]), "b": np.array([], dtype=np.int64)},
            demoted={"a": np.array([9])},
        )
        assert delta.num_promoted == 2
        assert delta.num_demoted == 1
        assert not delta.is_empty
        assert delta.tables() == ["a"]


class TestRepackRemaining:
    def test_repack_preserves_rows_and_purity(self, tiny_log, tiny_fae_config):
        plan = fae_preprocess(tiny_log, tiny_fae_config, batch_size=64)
        cache = EmbeddingHotCache(
            plan.bags, HotCacheConfig(budget_bytes=tiny_fae_config.gpu_memory_budget)
        )
        # Promote fresh traffic so membership actually moves.
        rng = np.random.default_rng(5)
        for _ in range(8):
            cache.observe(
                {
                    name: rng.integers(0, spec.num_rows, size=(32, 1))
                    for name, spec in zip(
                        tiny_log.schema.table_names, tiny_log.schema.tables
                    )
                }
            )
        delta = cache.rebalance()
        if delta.is_empty:
            pytest.skip("no membership change to repack")
        new_bags = cache.bags()
        dataset = plan.dataset
        repacked, cursors = repack_remaining(
            tiny_log, dataset, {"hot": 0, "cold": 0}, delta, new_bags
        )
        assert cursors == {"hot": 0, "cold": 0}
        masks = {name: bag.hot_mask() for name, bag in new_bags.items()}
        total = sum(b.size for b in repacked.hot_batches) + sum(
            b.size for b in repacked.cold_batches
        )
        original = sum(b.size for b in dataset.hot_batches) + sum(
            b.size for b in dataset.cold_batches
        )
        assert total == original
        # Hot batches must be PURE hot under the new membership.
        for batch in repacked.hot_batches:
            for name, mask in masks.items():
                assert mask[tiny_log.sparse[name][batch]].all()
