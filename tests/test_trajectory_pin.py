"""Trajectory pin: 20 seeded training steps against a committed golden.

``tests/golden/nn_trajectory.json`` holds the per-step train loss of the
first 20 steps of a small DLRM and a small TBSM under ``FAETrainer`` and
``BaselineTrainer``, recorded at the commit *before* the nn kernels were
rewritten (PR 12) by ``python tests/test_trajectory_pin.py --record``.

The rewritten ReLU, bias add and dense SGD update leave the arithmetic
alone (same operations on the same operands, only fewer passes over the
buffers), so on their own they reproduce the golden bit for bit.  Only
``SparseGrad.coalesced`` may reorder a reduction (a segmented sum over
stably sorted rows in place of ``np.add.at``), hence the ``rtol=1e-5``
here rather than equality.

Placement must never change the math (ROADMAP 4a): an FAE run and a
``BaselineTrainer`` run fed the same batch order are compared *exactly*,
losses and every trained parameter, for DLRM and TBSM.  The baseline
replays the FAE order through its one cold pool, and the hot budget is
drawn from a few dozen hot rows to every row hot.

The ``exact`` entries were recorded at the parent of PR 14 (the last commit
with two trainer loops) and are compared with ``==``: every loss of the whole
run plus a digest of the trained parameters, for ``FAETrainer`` with and
without the online cache and for ``DistributedFAETrainer`` on two replicas
with the cache on (several rebalances and repacks land inside the run).  A
change to the segment engine that leaves the kernels alone must reproduce
them bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.data.loader as loader
from repro.core import FAEConfig, fae_preprocess
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.data import SyntheticClickLog, SyntheticConfig
from repro.data.loader import train_test_split
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.dist import DistributedFAETrainer
from repro.models import DLRM, TBSM, DLRMConfig, TBSMConfig
from repro.nn import BCEWithLogits
from repro.train import BaselineTrainer, FAETrainer

GOLDEN = Path(__file__).parent / "golden" / "nn_trajectory.json"
STEPS = 20
BATCH = 64
LR = 0.1

DLRM_SCHEMA = DatasetSchema(
    name="pin-dlrm",
    num_dense=4,
    tables=(
        EmbeddingTableSpec("table_00", num_rows=600, dim=8, zipf_exponent=1.2),
        EmbeddingTableSpec("table_01", num_rows=400, dim=8, zipf_exponent=1.1, multiplicity=3),
        EmbeddingTableSpec("table_02", num_rows=12, dim=8, zipf_exponent=0.5),
    ),
    num_samples=1600,
)

TBSM_SCHEMA = DatasetSchema(
    name="pin-tbsm",
    num_dense=3,
    tables=(
        EmbeddingTableSpec("user", num_rows=300, dim=8, zipf_exponent=1.1),
        EmbeddingTableSpec("item", num_rows=500, dim=8, zipf_exponent=1.4, multiplicity=4),
        EmbeddingTableSpec("cat", num_rows=20, dim=8, zipf_exponent=0.8, multiplicity=4),
    ),
    num_samples=1600,
)

CASES = {
    "dlrm": (DLRM_SCHEMA, lambda: DLRM(DLRM_SCHEMA, DLRMConfig("4-16-8", "16-8-1", seed=5))),
    "tbsm": (TBSM_SCHEMA, lambda: TBSM(TBSM_SCHEMA, TBSMConfig("3-8", "22-12-10", "30-12-1", seed=5))),
}

#: Models the trainers run but the golden does not pin.
MODELS = {
    **CASES,
    "dlrm-sum": (
        DLRM_SCHEMA,
        lambda: DLRM(DLRM_SCHEMA, DLRMConfig("4-16-8", "16-8-1", pooling="sum", seed=5)),
    ),
}


def _table_bytes(schema) -> int:
    return sum(spec.num_rows * spec.dim * 4 for spec in schema.tables)


def _data(schema, budget: int = 12 * 1024):
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=STEPS * BATCH + 320, seed=21))
    train, test = train_test_split(log, 320 / len(log), seed=4)
    config = FAEConfig(
        gpu_memory_budget=budget,
        sample_rate=0.2,
        # A budget that holds every table places each one whole: every row hot.
        large_table_min_bytes=1024 if budget < _table_bytes(schema) else budget + 1,
        chunk_size=32,
        scheduler_initial_rate=25,
        seed=3,
    )
    return train, test, fae_preprocess(train, config, batch_size=BATCH)


@contextmanager
def recorded_training():
    """Record each training step's loss and batch indices.

    A step is a loss forward followed by a loss backward (evaluation
    never calls backward); batches are noted where both trainers fetch
    them, ``repro.data.loader.fetch_batch``.
    """
    losses: list[float] = []
    batches: list[np.ndarray] = []
    forward, backward, fetch = BCEWithLogits.forward, BCEWithLogits.backward, loader.fetch_batch
    last = {}

    def traced_forward(self, logits, labels):
        last["loss"] = forward(self, logits, labels)
        return last["loss"]

    def traced_backward(self):
        losses.append(last["loss"])
        return backward(self)

    def traced_fetch(log, indices, *args, **kwargs):
        batches.append(np.array(indices))
        return fetch(log, indices, *args, **kwargs)

    BCEWithLogits.forward, BCEWithLogits.backward = traced_forward, traced_backward
    loader.fetch_batch = traced_fetch
    try:
        yield losses, batches
    finally:
        BCEWithLogits.forward, BCEWithLogits.backward = forward, backward
        loader.fetch_batch = fetch


def _cache(plan) -> EmbeddingHotCache:
    return EmbeddingHotCache(
        plan.bags,
        HotCacheConfig(budget_bytes=12 * 1024, rebalance_every=256, seed=3),
        profile=plan.calibration.profile,
    )


def run_fae(case: str, cached: bool = False, budget: int = 12 * 1024):
    schema, build = MODELS[case]
    train, test, plan = _data(schema, budget)
    model = build()
    cache = _cache(plan) if cached else None
    with recorded_training() as (losses, batches):
        FAETrainer(model, plan, lr=LR, cache=cache).train(
            train, test, epochs=1, eval_samples=128
        )
    return model, losses, batches, cache


def run_dist(case: str):
    """Two replicas with the online cache on; one recorded loss per shard."""
    schema, build = MODELS[case]
    train, test, plan = _data(schema)
    replicas = [build(), build()]
    cache = _cache(plan)
    with recorded_training() as (losses, _batches):
        DistributedFAETrainer(replicas, plan, lr=LR, cache=cache).train(
            train, test, epochs=1, eval_samples=128
        )
    return replicas[0], losses, cache


def _pin(model, losses, cache) -> dict:
    """Every loss of a run, a digest of what it trained, the cache's turnover."""
    digest = hashlib.sha256()
    for param in model.dense_parameters():
        digest.update(param.value.tobytes())
    for _name, table in sorted(model.tables.items()):
        digest.update(table.weight.value.tobytes())
    stats = cache.stats() if cache is not None else {}
    turnover = {key: stats.get(key, 0) for key in ("rebalances", "promotions", "demotions")}
    return {"losses": losses, "params": digest.hexdigest(), "turnover": turnover}


def _exact_fae(case: str, cached: bool) -> dict:
    model, losses, _batches, cache = run_fae(case, cached)
    return _pin(model, losses, cache)


EXACT_RUNS = {
    "fae": lambda case: _exact_fae(case, cached=False),
    "fae_cached": lambda case: _exact_fae(case, cached=True),
    "dist2_cached": lambda case: _pin(*run_dist(case)),
}


class Replay(BaselineTrainer):
    """A ``BaselineTrainer`` whose one epoch runs a recorded batch order."""

    def __init__(self, model, order: list[np.ndarray]) -> None:
        super().__init__(model, lr=LR, seed=9)
        self.order = order

    def _epoch_dataset(self, epoch, dataset):
        return replace(dataset, cold_batches=self.order)


def run_baseline(case: str, order: list[np.ndarray] | None = None):
    """A ``BaselineTrainer`` epoch: its own seeded shuffle, or ``order``."""
    schema, build = MODELS[case]
    train, test, _plan = _data(schema)
    model = build()
    trainer = BaselineTrainer(model, lr=LR, seed=9) if order is None else Replay(model, order)
    with recorded_training() as (losses, _batches):
        trainer.train(train, test, epochs=1, batch_size=BATCH, eval_samples=128)
    return model, losses


def _trajectories() -> dict[str, dict]:
    return {
        case: {
            "fae": run_fae(case)[1][:STEPS],
            "baseline": run_baseline(case)[1][:STEPS],
            "exact": {name: run(case) for name, run in EXACT_RUNS.items()},
        }
        for case in CASES
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_exercises_both_pools(case):
    _train, _test, plan = _data(CASES[case][0])
    assert plan.dataset.hot_batches and plan.dataset.cold_batches
    assert len(plan.dataset.hot_batches) + len(plan.dataset.cold_batches) >= STEPS


@pytest.mark.parametrize("trainer", ["fae", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_reproduces_parent_trajectory(case, trainer):
    golden = json.loads(GOLDEN.read_text())[case][trainer]
    losses = run_fae(case)[1] if trainer == "fae" else run_baseline(case)[1]
    assert len(golden) == STEPS
    np.testing.assert_allclose(losses[:STEPS], golden, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("run", sorted(EXACT_RUNS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_reproduces_parent_run_exactly(case, run):
    golden = json.loads(GOLDEN.read_text())[case]["exact"][run]
    assert len(golden["losses"]) >= STEPS
    if run.endswith("_cached"):  # the pin is only worth having across a repack
        assert golden["turnover"]["rebalances"] and golden["turnover"]["promotions"]
    assert EXACT_RUNS[run](case) == golden


def _assert_same_parameters(model, other, **tolerance):
    """Every dense parameter and table equal: exactly, or within ``tolerance``."""
    compare = (
        partial(np.testing.assert_allclose, **tolerance)
        if tolerance
        else np.testing.assert_array_equal
    )
    for mine, theirs in zip(model.dense_parameters(), other.dense_parameters()):
        compare(mine.value, theirs.value, err_msg=mine.name)
    for name, table in model.tables.items():
        compare(table.weight.value, other.tables[name].weight.value, err_msg=name)


#: From a few dozen hot rows (the smallest budget the threshold grid fits)
#: to every row of either schema hot.
TINY_BUDGET, FULL_BUDGET = 2 * 1024, max(_table_bytes(schema) for schema, _ in CASES.values())


@pytest.mark.parametrize("case", sorted(CASES))
@given(budget=st.integers(TINY_BUDGET, FULL_BUDGET))
@example(budget=TINY_BUDGET)
@example(budget=FULL_BUDGET)
@settings(max_examples=3, deadline=None)
def test_fae_equals_baseline_on_same_batch_order(case, budget):
    fae_model, fae_losses, order, _ = run_fae(case, budget=budget)
    base_model, base_losses = run_baseline(case, order=order)
    assert len(order) >= STEPS
    assert fae_losses == base_losses
    _assert_same_parameters(fae_model, base_model)


@pytest.mark.parametrize(
    "budget, why",
    [
        # table_02 (384 B) is the one small table; the grid's most selective
        # threshold also keeps some rows of the two large ones hot.
        (1_500, r"even the most selective threshold, [0-9.e-]+, needs up to \d+ B, "
                r"384 B of them the always-hot small tables$"),
        (300, r"the always-hot small tables alone take 384 B$"),
    ],
)
def test_a_budget_no_threshold_fits_names_its_bytes_and_cause(budget, why):
    with pytest.raises(ValueError, match=rf"^no threshold fits the GPU budget of {budget} B; {why}"):
        _data(DLRM_SCHEMA, budget)


def test_sum_pooled_fae_equals_baseline_on_same_batch_order():
    # The trainers take each table's pooling from the model: a sum-pooled
    # multi-hot table (table_01) must train as the baseline trains it, and
    # the two-replica trainer must land where the single-device one does.
    fae_model, fae_losses, order, cache = run_fae("dlrm-sum", cached=True)
    base_model, base_losses = run_baseline("dlrm-sum", order=order)
    assert len(order) >= STEPS and cache.rebalances
    assert fae_losses == base_losses
    _assert_same_parameters(fae_model, base_model)
    dist_model, _losses, _cache = run_dist("dlrm-sum")
    _assert_same_parameters(dist_model, fae_model, rtol=1e-5, atol=1e-6)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_trajectory_pin.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    kept = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = _trajectories()
    for case, recorded in golden.items():
        # The 20-step lists predate PR 12's kernels (hence their rtol): a
        # re-record refreshes the exact pins and leaves those as they are.
        recorded.update({k: v for k, v in kept.get(case, {}).items() if k != "exact"})
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
