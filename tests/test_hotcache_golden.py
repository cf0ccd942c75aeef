"""Online cache bytes pinned across commits.

``tests/golden/hotcache_states.json`` holds, for one seeded stream of
rotating-head traffic over three tracked tables of different widths and
one pinned table, under both eviction policies and both ways of turning
over (in line through ``rebalance()``, and split through
``defer_rebalance()`` with the next ``observe`` applying the plan):

- before each turnover, the digest of ``state_dict()`` (certify's
  ``_tree_digest``: members, counters, ticks, miss windows, sketches);
- each turnover's ``CacheDelta`` (sorted promoted/demoted ids per table);
- the final state's digest and ``stats()``;
- how many turnovers demoted rows of one table out of id order (the
  eviction order differs from the sorted delta there, which is where a
  counter handed back against the wrong row would show).

Everything is compared with ``==``.  A change to the cache that claims
to leave its state alone must reproduce it byte for byte.  Record with
``python tests/test_hotcache_golden.py --record``, and only at a commit
whose cache states you mean to pin.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.resilience.certify import _tree_digest

GOLDEN = Path(__file__).parent / "golden" / "hotcache_states.json"
SEED = 17
TABLES = {"small": (16, 4), "ta": (300, 4), "tb": (500, 8), "tc": (200, 2)}  # rows, dim
BUDGET_BYTES = 16 * 4 * 4 + 1_200
OBSERVES = 48
TURNOVER_EVERY = 4
CONFIGS = [(eviction, turnover) for eviction in ("lfu", "lru") for turnover in ("inline", "deferred")]


def _initial_bags(rng) -> dict[str, HotEmbeddingBagSpec]:
    bags = {}
    for name, (rows, dim) in TABLES.items():
        whole = name == "small"
        hot = np.arange(rows) if whole else rng.choice(rows, size=rows // 25, replace=False)
        bags[name] = HotEmbeddingBagSpec(
            table_name=name,
            hot_ids=np.sort(hot).astype(np.int64),
            num_rows=rows,
            dim=dim,
            whole_table=whole,
        )
    return bags


def _traffic(rng, step: int) -> dict[str, np.ndarray]:
    """A 32 x 2 batch per table; a Zipf head whose rows rotate every 12 steps."""
    batch = {}
    for index, (name, (rows, _)) in enumerate(TABLES.items()):
        rank = np.minimum(rng.zipf(1.3, size=(32, 2)) - 1, rows - 1)
        shift = (step // 12) * 37 * (index + 1)
        batch[name] = (rank * 7 + shift) % rows
    return batch


def _demoted_out_of_id_order(state: dict, delta, eviction: str) -> bool:
    """Whether some table's victims, in eviction order, are not in id order:
    victims go in ascending (priority, id), so a priority that falls along
    the sorted demoted ids means the two orders differ."""
    for name, ids in delta.demoted.items():
        table = state["tables"][name]
        at = np.searchsorted(table["members"], ids)
        priority = table["freq" if eviction == "lfu" else "last_tick"][at]
        if np.any(np.diff(priority) < 0):
            return True
    return False


def record(eviction: str, turnover: str) -> dict:
    rng = np.random.default_rng(SEED)
    config = HotCacheConfig(budget_bytes=BUDGET_BYTES, eviction=eviction, decay=0.8, seed=3)
    cache = EmbeddingHotCache(_initial_bags(rng), config)
    turnovers, out_of_order = [], 0
    for step in range(1, OBSERVES + 1):
        cache.observe(_traffic(rng, step))
        if step % TURNOVER_EVERY:
            continue
        state = cache.state_dict()
        delta = cache.rebalance() if turnover == "inline" else cache.defer_rebalance()
        out_of_order += _demoted_out_of_id_order(state, delta, eviction)
        turnovers.append(
            {
                "state": _tree_digest(state),
                "promoted": {name: ids.tolist() for name, ids in delta.promoted.items()},
                "demoted": {name: ids.tolist() for name, ids in delta.demoted.items()},
            }
        )
    return {
        "turnovers": turnovers,
        "final_state": _tree_digest(cache.state_dict()),
        "stats": cache.stats(),
        "demoted_out_of_id_order": out_of_order,
    }


def key(eviction: str, turnover: str) -> str:
    return f"{eviction}/{turnover}"


@pytest.mark.parametrize("eviction,turnover", CONFIGS)
def test_cache_states_equal_the_golden(eviction, turnover):
    want = json.loads(GOLDEN.read_text())[key(eviction, turnover)]
    got = json.loads(json.dumps(record(eviction, turnover)))
    assert got["demoted_out_of_id_order"] > 0
    assert got["stats"]["promotions"] > 0 and got["stats"]["demotions"] > 0
    assert got == want


def test_deferred_turnover_reaches_the_inline_states():
    # The split only moves the merge to the next call: the same deltas,
    # and the same state at every point the stream reads it.
    for eviction in ("lfu", "lru"):
        golden = json.loads(GOLDEN.read_text())
        assert golden[key(eviction, "inline")] == golden[key(eviction, "deferred")]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_hotcache_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {key(*config): record(*config) for config in CONFIGS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
