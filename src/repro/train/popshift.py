"""Popularity-shift scenario: online hot cache vs the frozen hot set.

The experiment the online cache exists for.  A seeded multi-day stream
(:func:`repro.data.shift.popularity_shift_days`) rotates its Zipf head
mid-run; two arms train on identical data under an identical per-day
compute budget:

- **static** — the paper's pipeline: hot bags calibrated once on day 0
  and frozen.  After the shift the hot-input fraction collapses, every
  batch pays the cold-path cost, and fewer updates fit the day budget.
- **cached** — the same calibration seeds an
  :class:`~repro.core.hotcache.EmbeddingHotCache`; training traffic
  feeds the cache, drift checks on the day stream force turnover, and
  mid-day rebalances re-pack the remaining batches against the new hot
  set, so the arm recovers its hot hit rate (and update count) online.

The per-day budget is expressed in *simulated* batch cost (hot batches
are cheap, cold batches expensive — the paper's premise), so the
accuracy gap is a deterministic consequence of hit rate, not wall-clock
noise.  The report is a pure function of the config: sorted-key JSON,
logical counters only, byte-identical run to run.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.core import FAEConfig, fae_preprocess
from repro.core.drift import DriftDetector, recalibration_diff
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.core.input_processor import FAEDataset, InputProcessor
from repro.data import dataset_by_name
from repro.data.loader import train_test_split
from repro.data.shift import popularity_shift_days, write_day_shards
from repro.models import build_model, workload_for_dataset
from repro.obs import get_registry
from repro.train.metrics import evaluate_model
from repro.train.trainer import FAETrainer

__all__ = ["POPSHIFT_SCHEMA_VERSION", "PopShiftConfig", "run_popularity_shift"]

POPSHIFT_SCHEMA_VERSION = 1

#: Registry counters whose run deltas land in the report.
_REPORT_COUNTERS = (
    "hotcache.hits",
    "hotcache.misses",
    "hotcache.promotions",
    "hotcache.demotions",
    "hotcache.evictions",
    "hotcache.rebalances",
    "hotcache.repack.events",
    "hotcache.repack.flipped_inputs",
    "fae.refresh.events",
    "fae.refresh.bytes",
    "fae.refresh.rows.promoted",
    "fae.refresh.rows.demoted",
    "scheduler.repacks",
)


@dataclass(frozen=True)
class PopShiftConfig:
    """Knobs of one popularity-shift run.

    Attributes:
        dataset / scale: synthetic schema to stream.
        samples_per_day: clicks per day shard.
        num_days: total days (day 0 is calibration-only).
        shift_day: first day drawn from the rotated Zipf head.
        seed: master seed; the whole run is a pure function of it.
        batch_size: training mini-batch size.
        budget_bytes: GPU byte budget for hot rows (both arms).
        large_table_min_bytes: tables below this are whole-table hot.
        lr: SGD learning rate.
        test_fraction: per-day held-out split.
        eval_samples: evaluation subsample per day.
        hot_batch_cost / cold_batch_cost: simulated seconds per pure-hot
            / pure-cold batch (the FAE premise: hot is cheaper).
        affinity_scale / dense_signal: planted label-signal mix.  The
            default leans on the per-row affinities, so post-shift
            accuracy hinges on learning the *new head rows'* embeddings
            — the lookups hot-batch training concentrates on.
        budget_per_batch: per-day simulated-seconds budget, as a
            multiple of the day's batch count.  Between the two costs,
            so a mostly-hot day trains fully and an all-cold day cannot.
        cache_decay / cache_eviction / cache_rebalance_every: hot-cache
            knobs (see :class:`~repro.core.hotcache.HotCacheConfig`).
        drift_tolerance: relative hot-share drop that flags drift.
    """

    dataset: str = "criteo-kaggle"
    scale: str = "tiny"
    samples_per_day: int = 1500
    num_days: int = 6
    shift_day: int = 2
    seed: int = 12
    batch_size: int = 64
    budget_bytes: int = 32 * 1024
    large_table_min_bytes: int = 1024
    lr: float = 0.15
    test_fraction: float = 0.2
    eval_samples: int = 512
    hot_batch_cost: float = 1.0
    cold_batch_cost: float = 3.0
    budget_per_batch: float = 1.2
    affinity_scale: float = 2.5
    dense_signal: float = 0.5
    cache_decay: float = 0.5
    cache_eviction: str = "lfu"
    cache_rebalance_every: int = 400
    drift_tolerance: float = 0.6

    def __post_init__(self) -> None:
        if self.num_days < 2:
            raise ValueError("num_days must be >= 2 (day 0 is calibration)")
        if not 0 < self.shift_day < self.num_days:
            raise ValueError("shift_day must fall inside the trained days")
        if self.hot_batch_cost <= 0 or self.cold_batch_cost < self.hot_batch_cost:
            raise ValueError("need 0 < hot_batch_cost <= cold_batch_cost")
        if not self.hot_batch_cost <= self.budget_per_batch <= self.cold_batch_cost:
            raise ValueError(
                "budget_per_batch must sit between the hot and cold batch costs"
            )


class _PooledLog:
    """Concatenation of several logs' rows (evaluation only)."""

    def __init__(self, logs) -> None:
        self.dense = np.concatenate([log.dense for log in logs])
        self.sparse = {
            name: np.concatenate([log.sparse[name] for log in logs])
            for name in logs[0].sparse
        }
        self.labels = np.concatenate([log.labels for log in logs])

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def _membership_hit_rate(
    log, masks: dict[str, np.ndarray], tables: tuple[str, ...]
) -> float:
    """Fraction of the log's lookups into ``tables`` the membership resolves.

    Restricted to the contended (large) tables: whole-table pinned bags
    hit by construction in both arms, so including them only dilutes the
    signal the scenario measures.
    """
    hits = 0
    total = 0
    for name in tables:
        ids = log.sparse[name]
        hits += int(np.count_nonzero(masks[name][ids]))
        total += int(ids.size)
    return hits / total if total else 0.0


def _affordable_counts(
    num_hot: int,
    num_cold: int,
    hot_cost: float,
    cold_cost: float,
    budget: float,
) -> tuple[int, int]:
    """How many hot/cold batches fit the simulated day budget.

    Walks the two streams keeping their consumed fractions balanced
    (the scheduler interleaves them, so truncation must not starve one
    side), stopping when neither stream's next batch is affordable.
    Deterministic: pure integer/float arithmetic, hot preferred on ties.
    """
    taken_hot = 0
    taken_cold = 0
    spent = 0.0
    while True:
        hot_left = taken_hot < num_hot
        cold_left = taken_cold < num_cold
        if not hot_left and not cold_left:
            break
        hot_progress = taken_hot / num_hot if num_hot else 1.0
        cold_progress = taken_cold / num_cold if num_cold else 1.0
        prefer_hot = hot_left and (not cold_left or hot_progress <= cold_progress)
        first, second = ("hot", "cold") if prefer_hot else ("cold", "hot")
        advanced = False
        for stream in (first, second):
            if stream == "hot" and hot_left and spent + hot_cost <= budget:
                taken_hot += 1
                spent += hot_cost
                advanced = True
                break
            if stream == "cold" and cold_left and spent + cold_cost <= budget:
                taken_cold += 1
                spent += cold_cost
                advanced = True
                break
        if not advanced:
            break
    return taken_hot, taken_cold


def _truncate(dataset: FAEDataset, taken_hot: int, taken_cold: int) -> FAEDataset:
    return FAEDataset(
        hot_batches=list(dataset.hot_batches[:taken_hot]),
        cold_batches=list(dataset.cold_batches[:taken_cold]),
        hot_mask=dataset.hot_mask,
        batch_size=dataset.batch_size,
    )


def _run_arm_day(
    model,
    plan,
    bags,
    cache: EmbeddingHotCache | None,
    train_day,
    test_day,
    config: PopShiftConfig,
    day: int,
) -> dict:
    """Train one arm for one day under the simulated budget."""
    processor = InputProcessor(bags, seed=config.seed * 131 + day)
    packed = processor.pack(train_day, batch_size=config.batch_size, drop_last=False)
    num_hot, num_cold = packed.batch_counts()
    day_budget = config.budget_per_batch * (num_hot + num_cold)
    taken_hot, taken_cold = _affordable_counts(
        num_hot,
        num_cold,
        config.hot_batch_cost,
        config.cold_batch_cost,
        day_budget,
    )
    day_plan = replace(plan, bags=bags, dataset=_truncate(packed, taken_hot, taken_cold))
    trainer = FAETrainer(model, day_plan, lr=config.lr, cache=cache)
    result = trainer.train(
        train_day, test_day, epochs=1, eval_samples=config.eval_samples
    )
    return {
        "accuracy": float(result.final_test_accuracy),
        "loss": float(result.history.final.test_loss),
        "batches": taken_hot + taken_cold,
        "batches_packed": num_hot + num_cold,
        "hot_batches": taken_hot,
        "cold_batches": taken_cold,
        "sim_seconds": taken_hot * config.hot_batch_cost
        + taken_cold * config.cold_batch_cost,
    }


def run_popularity_shift(config: PopShiftConfig, shard_dir: str | None = None) -> dict:
    """Run the two-arm popularity-shift experiment; return the report.

    Args:
        config: scenario knobs.
        shard_dir: directory for the day shards (a temp dir when None).
            The day stream always round-trips through
            :class:`~repro.data.chunk_source.ShardChunkSource` — drift
            checks consume the *sharded* stream, as production would.
    """
    registry = get_registry()
    schema = dataset_by_name(config.dataset, config.scale)
    days = popularity_shift_days(
        schema,
        samples_per_day=config.samples_per_day,
        num_days=config.num_days,
        shift_day=config.shift_day,
        seed=config.seed,
        affinity_scale=config.affinity_scale,
        dense_signal=config.dense_signal,
    )
    if shard_dir is None:
        with tempfile.TemporaryDirectory(prefix="popshift-") as tmp:
            source = write_day_shards(tmp, days)
            day_stream = [chunk for _start, chunk in source]
    else:
        source = write_day_shards(shard_dir, days)
        day_stream = [chunk for _start, chunk in source]

    # Day 0: the static calibration both arms start from.
    fae_config = FAEConfig(
        gpu_memory_budget=config.budget_bytes,
        large_table_min_bytes=config.large_table_min_bytes,
        chunk_size=64,
        seed=config.seed,
    )
    plan = fae_preprocess(days[0], fae_config, batch_size=config.batch_size)
    static_bags = plan.bags
    static_masks = {name: bag.hot_mask() for name, bag in static_bags.items()}
    contended = tuple(
        sorted(name for name, bag in static_bags.items() if not bag.whole_table)
    )

    cache = EmbeddingHotCache(
        plan.bags,
        HotCacheConfig(
            budget_bytes=config.budget_bytes,
            eviction=config.cache_eviction,
            decay=config.cache_decay,
            rebalance_every=config.cache_rebalance_every,
            seed=config.seed,
        ),
        profile=plan.calibration.profile,
    )

    workload = workload_for_dataset(config.dataset)
    model_static = build_model(workload, schema=schema, seed=config.seed + 1)
    model_cached = build_model(workload, schema=schema, seed=config.seed + 1)

    static_detector = DriftDetector(
        static_bags,
        plan.hot_input_fraction,
        tolerance=config.drift_tolerance,
        seed=config.seed,
    )

    counter_start = {name: registry.counter(name).value for name in _REPORT_COUNTERS}

    day_reports = []
    post_shift_tests = []
    for day in range(1, config.num_days):
        day_log = days[day]
        stream_log = day_stream[day]
        rotated = day >= config.shift_day

        # Drift on the sharded stream: the static detector shows *when*
        # coverage broke; a cache-side detector (rebuilt each day from
        # live membership) forces turnover of the pending window.
        static_drift = static_detector.check(stream_log)
        cache_detector = DriftDetector(
            cache.bags(),
            plan.hot_input_fraction,
            tolerance=config.drift_tolerance,
            seed=config.seed,
        )
        cache_drift = cache_detector.check(stream_log)
        turnover = None
        if cache_drift.drifted:
            delta = cache.rebalance()
            turnover = {
                "promoted": int(delta.num_promoted),
                "demoted": int(delta.num_demoted),
            }

        train_day, test_day = train_test_split(
            day_log, config.test_fraction, seed=config.seed + day
        )
        if rotated:
            post_shift_tests.append(test_day)

        cached_bags = cache.bags()
        cached_masks = {name: bag.hot_mask() for name, bag in cached_bags.items()}
        static_start_hit = _membership_hit_rate(train_day, static_masks, contended)
        cached_start_hit = _membership_hit_rate(train_day, cached_masks, contended)

        hits_before, misses_before = cache.hits, cache.misses
        static_day = _run_arm_day(
            model_static, plan, static_bags, None, train_day, test_day, config, day
        )
        cached_day = _run_arm_day(
            model_cached, plan, cached_bags, cache, train_day, test_day, config, day
        )
        day_hits = cache.hits - hits_before
        day_misses = cache.misses - misses_before
        online_total = day_hits + day_misses

        static_day["hit_rate"] = static_start_hit
        cached_day["hit_rate"] = cached_start_hit
        cached_day["online_hit_rate"] = (
            day_hits / online_total if online_total else 0.0
        )
        day_reports.append(
            {
                "day": day,
                "rotated": rotated,
                "static": static_day,
                "cached": cached_day,
                "drift": {
                    "hot_input_fraction": static_drift.hot_input_fraction,
                    "relative_drop": static_drift.relative_drop,
                    "drifted": static_drift.drifted,
                },
                "turnover": turnover,
            }
        )

    def _mean(values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    post = [entry for entry in day_reports if entry["rotated"]]
    static_hit = _mean([e["static"]["hit_rate"] for e in post])
    cached_hit = _mean([e["cached"]["hit_rate"] for e in post])

    # Final-model accuracy over the POOLED post-shift test splits: the
    # per-day splits are too small to resolve the arms' loss gap, and the
    # gap compounds across days, so the end-of-run models on the full
    # rotated test set are the fair comparison.
    pooled = _PooledLog(post_shift_tests)
    static_loss, static_acc = evaluate_model(model_static, pooled)
    cached_loss, cached_acc = evaluate_model(model_cached, pooled)

    # Size the refresh traffic the cache shipped, vs frozen calibration.
    diff = recalibration_diff(static_bags, cache.bags())
    refresh = {
        name: {
            "added": added,
            "removed": removed,
            "added_bytes": added * static_bags[name].dim * 4,
        }
        for name, (added, removed) in sorted(diff.items())
    }

    counters = {
        name: int(registry.counter(name).value - counter_start[name])
        for name in _REPORT_COUNTERS
    }
    return {
        "schema_version": POPSHIFT_SCHEMA_VERSION,
        "kind": "popshift_report",
        "seed": config.seed,
        "config": asdict(config),
        "calibration": {
            "threshold": plan.threshold,
            "hot_input_fraction": plan.hot_input_fraction,
            "hot_bytes": plan.hot_bytes,
            "day_batches": int(
                math.ceil(config.samples_per_day * (1 - config.test_fraction))
                // config.batch_size
            ),
        },
        "days": day_reports,
        "post_shift": {
            "days": len(post),
            "test_samples": len(pooled),
            "static_hit_rate": static_hit,
            "cached_hit_rate": cached_hit,
            "hit_margin": cached_hit - static_hit,
            "static_accuracy": static_acc,
            "cached_accuracy": cached_acc,
            "accuracy_margin": cached_acc - static_acc,
            "static_loss": static_loss,
            "cached_loss": cached_loss,
            "loss_margin": static_loss - cached_loss,
        },
        "recalibration": refresh,
        "cache": cache.stats(),
        "counters": counters,
    }
