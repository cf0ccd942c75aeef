"""A serving turnover split across the request boundary is invisible.

``InferenceEngine.rank_candidates`` plans a full window's turnover after
scoring and the cache applies the plan at its next call
(``EmbeddingHotCache.defer_rebalance``).  Whatever reads the cache, and
whenever, must see what an engine that rebalances in line would show.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.models.dlrm import DLRM, DLRMConfig
from repro.obs import get_registry
from repro.serve import InferenceEngine

# What may run between two requests; each one reads the shared cache.
_READERS = ("stats", "bags", "state", "mask", "health", "contains", "should")


def _build(schema, model, engines, eager, **knobs):
    """``engines`` engines over one fresh cache; ``eager`` engines turn the
    cache over in line, as every engine did before the split."""
    get_registry().reset()
    cache = EmbeddingHotCache.from_schema(
        schema, HotCacheConfig(**knobs), large_table_min_bytes=1024
    )
    if eager:
        cache.defer_rebalance = cache.rebalance
    return cache, [InferenceEngine(model, hot_cache=cache) for _ in range(engines)]


def _counts(cache) -> tuple:
    """What a caller reads without calling the cache: its attributes and
    the registry's ``hotcache.*`` counters and gauges."""
    registry = get_registry().snapshot()
    return (
        cache.version,
        cache.rebalances,
        cache.hits,
        cache.misses,
        cache.promotions,
        cache.demotions,
        cache.window_inputs,
        {name: value for name, value in registry.items() if name.startswith("hotcache.")},
    )


def _read(reader, cache, engines, log):
    if reader == "stats":
        return cache.stats()
    if reader == "bags":
        return {
            name: (bag.hot_ids.tobytes(), bag.whole_table) for name, bag in cache.bags().items()
        }
    if reader == "state":
        return pickle.dumps(cache.state_dict())
    if reader == "mask":
        return [engine.hot_request_mask(log, np.arange(300)).tobytes() for engine in engines]
    if reader == "health":
        return [engine.health() for engine in engines]
    if reader == "contains":
        return cache.contains("table_00", np.arange(600)).tobytes()
    assert reader == "should"
    return cache.should_rebalance()


def _replay(schema, model, log, steps, engines, eager, **knobs):
    """Every observation, in order, of one run of ``steps``."""
    cache, pool = _build(schema, model, engines, eager, **knobs)
    seen = []
    dense = log.dense[0]
    context = {name: ids[0] for name, ids in log.sparse.items()}
    for engine_index, table, candidates, readers in steps:
        ranked = pool[engine_index % engines].rank_candidates(
            dense, context, table, np.asarray(candidates), top_k=3
        )
        seen.append((ranked.item_ids.tobytes(), ranked.scores.tobytes()))
        seen.append(_counts(cache))
        for reader in readers:
            seen.append((reader, _read(reader, cache, pool, log)))
            seen.append(_counts(cache))
    for reader in _READERS:
        seen.append((reader, _read(reader, cache, pool, log)))
    return seen


_steps = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["table_00", "table_01"]),
        st.lists(st.integers(0, 59), min_size=1, max_size=12),
        # Mostly nothing between requests, so the next request's observe
        # is what applies a held plan.
        st.lists(st.sampled_from(_READERS), max_size=2) | st.just([]),
    ),
    min_size=1,
    max_size=14,
)


@pytest.fixture(scope="module")
def tiny_model(tiny_schema):
    return DLRM(tiny_schema, DLRMConfig("4-8", "8-1", seed=3))


class TestDeferredTurnover:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=_steps,
        engines=st.integers(1, 3),
        rebalance_every=st.integers(1, 20),
        budget_rows=st.integers(0, 24),
        eviction=st.sampled_from(["lfu", "lru"]),
    )
    def test_every_read_matches_inline_turnover(
        self, tiny_schema, tiny_model, tiny_log, steps, engines, rebalance_every,
        budget_rows, eviction,
    ):
        # 384 bytes pin table_02; the rest is room for dim-8 rows.
        knobs = dict(
            budget_bytes=384 + 32 * budget_rows,
            rebalance_every=rebalance_every,
            eviction=eviction,
            seed=5,
        )
        want = _replay(tiny_schema, tiny_model, tiny_log, steps, engines, True, **knobs)
        got = _replay(tiny_schema, tiny_model, tiny_log, steps, engines, False, **knobs)
        assert got == want

    def test_a_held_plan_does_not_leave_stale_masks(self, tiny_schema, tiny_model, tiny_log):
        # hot_request_mask compares the cache's version with the one its
        # masks were built at *before* it reads bags(): the version must
        # already count a held turnover, or the masks stay stale.
        knobs = dict(budget_bytes=384 + 32 * 16, rebalance_every=8, seed=5)
        dense = tiny_log.dense[0]
        context = {name: ids[0] for name, ids in tiny_log.sparse.items()}
        masks = []
        for eager in (True, False):
            cache, (engine,) = _build(tiny_schema, tiny_model, 1, eager, **knobs)
            engine.hot_request_mask(tiny_log)
            assert not engine._hot_masks["table_00"].any()
            engine.rank_candidates(dense, context, "table_00", np.arange(2, 10))
            assert cache.rebalances == 1
            masks.append(engine.hot_request_mask(tiny_log))
            assert engine._hot_masks["table_00"][2:10].all()
            assert cache._held is None  # the read applied the plan
        np.testing.assert_array_equal(masks[1], masks[0])

    def test_the_next_request_applies_the_plan(self, tiny_schema, tiny_model, tiny_log):
        cache, (engine,) = _build(
            tiny_schema, tiny_model, 1, False, budget_bytes=384 + 32 * 16, rebalance_every=8
        )
        dense = tiny_log.dense[0]
        context = {name: ids[0] for name, ids in tiny_log.sparse.items()}
        engine.rank_candidates(dense, context, "table_00", np.arange(2, 10))
        held = cache._held
        assert held is not None and held.delta.num_promoted == 8
        engine.rank_candidates(dense, context, "table_00", np.arange(2, 4))
        assert cache._held is None
        assert cache.stats()["hits"] == 2  # observed after the merge
