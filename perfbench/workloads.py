"""The four workloads.  Each builds its inputs from the seed, measures the
program through its public API, and checks what came back.

A workload has three parts the runner drives:

- ``setup()``: generate the inputs (timed by the runner as ``setup_s``);
- ``measure(seconds)``: the untraced run behind the end-to-end metrics;
- ``trace(seconds, trace_path)``: a short untraced reference, then the same
  operations under ``tracer.Tracer`` for the per-layer metrics.

Every workload is made of *passes* (one full preprocess, one epoch, one week
of days, one stream of requests through a fresh engine): a pass is a fixed
sequence of *operations* (preprocess, save, load; an epoch; a day; a request),
repeated on fresh state until the time is up.  Each pass is also cut into
*intervals* where the program hands control back at a fine grain: a shard has
been read, an optimizer step has ended, a request has returned.  Intervals
tile the pass, so their times sum to its wall, and every operation is a run of
whole intervals.  Because a pass is deterministic, interval ``k`` does the
same work in every pass and its outputs must be identical every time, which is
the first thing ``verify`` looks at.

Timings are *floors*: the floor of interval ``k`` is the fastest it ran in any
pass, an operation costs the sum of its intervals' floors and a pass the sum
of its operations.  The machines this runs on run 1.5-1.7x slower for seconds
at a time when a neighbour is busy (measured on a fixed numpy kernel; CPU time
rises with the wall, so it is not time spent descheduled).  That only ever
adds time, so the fastest of many repeats of the same deterministic work is
the steadiest estimate of what the code costs, and it only needs each interval
of some milliseconds, not a whole pass, to have run undisturbed once: over
minutes that held a slow spell, 22-second runs spread 45 % by their median
pass, 20 % by their fastest pass and 13 % by floors.
"""

from __future__ import annotations

import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import verify
from metrics import per_layer_metrics, read_counters
from tracer import Tracer, analyze

from repro.core import FAEConfig, fae_format, fae_preprocess, fae_preprocess_source
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.core.input_processor import InputProcessor
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name, train_test_split
from repro.data.chunk_source import ShardChunkSource, save_log_shards
from repro.data.shift import popularity_shift_days
from repro.data.zipf import ZipfSampler
from repro.dist import DistributedFAETrainer
from repro.models import build_model, workload_by_name
from repro.nn.optim import SGD
from repro.obs import get_tracer, tracing
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience.guards import CircuitBreaker
from repro.serve import InferenceEngine
from repro.serve.cluster import ServingCluster
from repro.serve.replay import VirtualClock
from repro.train import BaselineTrainer, FAETrainer


def _fae_config(budget_bytes: int, seed: int) -> FAEConfig:
    return FAEConfig(
        gpu_memory_budget=budget_bytes, large_table_min_bytes=1024, chunk_size=64, seed=seed
    )


def _cache_metrics(stats: dict) -> dict[str, float]:
    """``cache.stats()`` under the per-layer names."""
    return {
        "core.cache_hit_rate": stats["hit_rate"],
        "core.cache_promotions": stats["promotions"],
        "core.cache_demotions": stats["demotions"],
        "core.cache_rebalances": stats["rebalances"],
    }


@dataclass
class Measurement:
    """What one run found; a traced run fills only the checks.

    Attributes:
        attempted / failed: units of work tried, and found wrong.
        problems: what ``verify`` objected to (empty = correct).
        work_per_s: items of work in a pass over the sum of ``op_ms``.
        op_ms: each operation's floor (the sum of its intervals' floors).
        tail_ms: the tail of ``op_ms`` (see ``tail``).
        detail: sizes and side numbers for the human-readable report.
    """

    attempted: int
    failed: int
    problems: list[str]
    work_per_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    tail_ms: float = 0.0
    detail: dict = field(default_factory=dict)


@dataclass
class PassOutput:
    """One pass: how long each interval took, where each operation ends
    (a count of intervals; default: every interval is an operation), a light
    signature to compare across passes, and the heavy results the deep checks
    need."""

    interval_seconds: list[float]
    signature: object
    results: dict
    op_ends: list[int] | None = None


@contextmanager
def optimizer_step_marks():
    """The times at which optimizer steps ended, which cut a training pass
    into intervals of a step or less (with whatever the trainer does between
    two steps: load a batch, evaluate, synchronize, checkpoint).  This is the
    one hook an untraced run installs: a clock read after each ``SGD.step``.
    """
    marks: list[float] = []
    original = SGD.step

    def step(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        marks.append(time.perf_counter())
        return result

    SGD.step = step
    try:
        yield marks
    finally:
        SGD.step = original


class MarkedShards(ShardChunkSource):
    """The shard source, noting when each shard has been read."""

    def __init__(self, directory: Path, marks: list[float]) -> None:
        super().__init__(directory)
        self.marks = marks

    def chunks(self):
        for chunk in super().chunks():
            self.marks.append(time.perf_counter())
            yield chunk


def tail(op_ms: np.ndarray) -> float:
    """The highest percentile with ten operations beyond it; the slowest
    operation where a pass has too few operations for that."""
    ordered = np.sort(op_ms)
    return float(ordered[-11] if ordered.size >= 100 else ordered[-1])


class PassWorkload:
    """A workload that repeats one deterministic pass on fresh state."""

    name = ""
    sizes: dict
    items_per_pass = 0

    def __init__(self, seed: int, sizes: dict, work_dir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_pass(self):
        """Untimed: fresh models, caches, output directories."""
        raise NotImplementedError

    def run_pass(self, prepared) -> PassOutput:
        raise NotImplementedError

    def check_pass(self, last: PassOutput) -> tuple[int, list[str]]:
        """Deep checks of one pass: ``(units of work in a pass, problems)``."""
        raise NotImplementedError

    def verify(self, signatures: list, last: PassOutput) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` over every measured pass: the last
        pass is checked in depth, and every pass must carry its signature."""
        units, problems = self.check_pass(last)
        differing = sum(signature != last.signature for signature in signatures)
        if differing:
            problems.append(
                f"output differs from the last pass in {differing} of {len(signatures)} passes"
            )
        attempted = units * len(signatures)
        return attempted, min(attempted, units * differing + len(problems)), problems

    def layer_extras(self, last: PassOutput) -> dict[str, float]:
        """Per-layer values read from the last traced pass's results."""
        return {}

    def timed_passes(self, seconds: float, min_passes: int, root=None, between=None):
        """Run passes until they have used ``seconds`` (preparing included).

        Returns ``(pass walls, per-pass interval seconds, signatures, last
        output)``.  ``root`` opens a trace root span around each pass.
        ``between(share of the time used)`` runs after each pass, off the
        clock: the runner repeats set-up there, spread over the run.
        """
        walls: list[float] = []
        interval_seconds: list[list[float]] = []
        signatures = []
        last = None
        used = 0.0
        while len(walls) < min_passes or used + used / len(walls) <= seconds:
            begin = time.perf_counter()
            prepared = self.prepare_pass()
            start = time.perf_counter()
            if root is None:
                last = self.run_pass(prepared)
            else:
                with root():
                    last = self.run_pass(prepared)
            end = time.perf_counter()
            walls.append(end - start)
            used += end - begin
            interval_seconds.append(last.interval_seconds)
            signatures.append(last.signature)
            if between is not None:
                between(used / seconds)
        return walls, interval_seconds, signatures, last

    def measure(self, seconds: float, between=None) -> Measurement:
        self.run_pass(self.prepare_pass())  # warm-up, discarded
        walls, interval_seconds, signatures, last = self.timed_passes(
            seconds, min_passes=3, between=between
        )
        attempted, failed, problems = self.verify(signatures, last)
        count = len(last.interval_seconds)
        if any(len(intervals) != count for intervals in interval_seconds):
            problems.append("passes differ in their number of intervals")
            failed = max(failed, 1)
            interval_seconds = [i for i in interval_seconds if len(i) == count]
        floors = 1e3 * np.min(np.asarray(interval_seconds, dtype=np.float64), axis=0)
        op_ends = last.op_ends or range(1, count + 1)
        op_ms = np.add.reduceat(floors, [0, *op_ends[:-1]])
        return Measurement(
            attempted,
            failed,
            problems,
            work_per_s=self.items_per_pass / (1e-3 * float(op_ms.sum())),
            op_ms=op_ms.tolist(),
            tail_ms=tail(op_ms),
            detail={
                "passes": len(walls),
                "ops_per_pass": int(op_ms.size),
                "intervals_per_pass": count,
                "pass_floor_s": 1e-3 * float(op_ms.sum()),
                "pass_best_s": min(walls),
                "pass_median_s": statistics.median(walls),
                "items_per_pass": self.items_per_pass,
                **self.sizes,
            },
        )

    def trace(self, seconds: float, trace_path: Path) -> tuple[dict[str, float], Measurement]:
        self.run_pass(self.prepare_pass())  # warm-up, discarded
        reference, _ops, ref_signatures, _last = self.timed_passes(0.4 * seconds, min_passes=1)
        tracer = Tracer()
        tracer.install()
        try:
            before = read_counters()
            walls, _ops, signatures, last = self.timed_passes(
                0.6 * seconds, min_passes=1, root=tracer.root
            )
            after = read_counters()
        finally:
            tracer.remove()
        tracer.write_jsonl(trace_path)
        reference_s = min(reference)
        extra = self.layer_extras(last)
        extra["obs.trace_overhead_share"] = min(walls) / reference_s - 1.0
        extra.update(self.trace_extras(reference_s))
        values = per_layer_metrics(analyze(tracer), len(walls), before, after, extra=extra)
        attempted, failed, problems = self.verify(ref_signatures + signatures, last)
        return values, Measurement(attempted, failed, problems)

    def trace_extras(self, reference_pass_s: float) -> dict[str, float]:
        """Extra untraced side runs a workload wants in its traced report."""
        return {}


# ---------------------------------------------------------------------------
# preprocess-shards
# ---------------------------------------------------------------------------


class PreprocessShards(PassWorkload):
    """Two-pass shard read + calibrate + pack, then save and load back."""

    name = "preprocess-shards"
    SIZES = {
        "full": dict(samples=80_000, scale="medium", shard_samples=8_192,
                     budget_bytes=2_684_354, batch_size=1024, out_shard_batches=64),
        "smoke": dict(samples=16_000, scale="small", shard_samples=2_048,
                      budget_bytes=262_144, batch_size=256, out_shard_batches=16),
    }

    def setup(self) -> None:
        sizes = self.sizes
        schema = dataset_by_name("criteo-kaggle", sizes["scale"])
        log = SyntheticClickLog(
            schema, SyntheticConfig(num_samples=sizes["samples"], seed=self.seed)
        )
        self.shard_dir = self.work_dir / "log-shards"
        shutil.rmtree(self.shard_dir, ignore_errors=True)
        save_log_shards(self.shard_dir, log, sizes["shard_samples"])
        self.shard_bytes = sum(p.stat().st_size for p in self.shard_dir.iterdir())
        self.items_per_pass = sizes["samples"]
        self.config = _fae_config(sizes["budget_bytes"], self.seed)

    def prepare_pass(self) -> Path:
        out = self.work_dir / "fae-out"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run_pass(self, out: Path) -> PassOutput:
        # Three operations: preprocess, save, load.  Preprocess has an
        # interval per shard read (twice: calibrate, then classify and pack).
        marks = [time.perf_counter()]
        plan = fae_preprocess_source(
            MarkedShards(self.shard_dir, marks), self.config, batch_size=self.sizes["batch_size"]
        )
        marks.append(time.perf_counter())
        preprocessed = len(marks) - 1
        plan.save(out, shard_size=self.sizes["out_shard_batches"])
        marks.append(time.perf_counter())
        dataset, bags, threshold = fae_format.load_fae_dataset(out)
        # Loading is lazy; read every shard back so the load is in the time.
        dataset = replace(
            dataset,
            hot_batches=dataset.hot_batches.materialize(),
            cold_batches=dataset.cold_batches.materialize(),
        )
        marks.append(time.perf_counter())
        return PassOutput(
            interval_seconds=np.diff(marks).tolist(),
            signature=verify.packed_digest(dataset),
            results={"plan": plan, "loaded": (dataset, bags, threshold), "out": out},
            op_ends=[preprocessed, preprocessed + 1, preprocessed + 2],
        )

    def check_pass(self, last):
        plan, loaded = last.results["plan"], last.results["loaded"]
        problems = verify.check_packed_dataset(loaded[0], self.sizes["samples"])
        problems += verify.check_loaded_plan(plan, loaded)
        return sum(plan.dataset.batch_counts()), problems

    def layer_extras(self, last):
        out = last.results["out"]
        return {
            # two passes over the shards: calibrate, then classify + pack
            "data.shard_read_mib": 2 * self.shard_bytes / 2**20,
            "core.fae_bytes": sum(p.stat().st_size for p in out.iterdir()),
            "core.hot_input_fraction": last.results["plan"].hot_input_fraction,
        }


# ---------------------------------------------------------------------------
# train-dlrm-steady
# ---------------------------------------------------------------------------


def _trained_values(model) -> list[np.ndarray]:
    return [p.value for p in model.dense_parameters()] + [
        t.weight.value for t in model.tables.values()
    ]


class TrainDlrmSteady(PassWorkload):
    """One FAE epoch of DLRM over a static hot set: dense math dominates."""

    name = "train-dlrm-steady"
    SIZES = {
        "full": dict(samples=6_000, scale="small", budget_bytes=524_288,
                     batch_size=256, lr=0.15, test_fraction=0.15, eval_samples=512),
        "smoke": dict(samples=2_500, scale="small", budget_bytes=524_288,
                      batch_size=256, lr=0.15, test_fraction=0.15, eval_samples=512),
    }

    def setup(self) -> None:
        sizes = self.sizes
        self.schema = dataset_by_name("criteo-kaggle", sizes["scale"])
        log = SyntheticClickLog(
            self.schema, SyntheticConfig(num_samples=sizes["samples"], seed=self.seed)
        )
        self.train_log, self.test_log = train_test_split(
            log, sizes["test_fraction"], seed=self.seed
        )
        self.plan = fae_preprocess(
            self.train_log,
            _fae_config(sizes["budget_bytes"], self.seed),
            batch_size=sizes["batch_size"],
        )
        self.items_per_pass = len(self.train_log)
        majority = max(self.test_log.base_rate(), 1.0 - self.test_log.base_rate())
        # A short epoch barely beats the majority class; the floor catches a
        # model that broke, not one that is slow to learn.
        self.accuracy_floor = majority - 0.05

    def prepare_pass(self):
        return build_model(workload_by_name("RMC2"), schema=self.schema, seed=self.seed + 1)

    def run_pass(self, model) -> PassOutput:
        # A small per-segment evaluation: how many segments Eq. 7 schedules
        # depends on the seed, and the workload is about the steps between.
        with optimizer_step_marks() as marks:
            start = time.perf_counter()
            result = FAETrainer(model, self.plan, lr=self.sizes["lr"]).train(
                self.train_log, self.test_log, epochs=1, eval_samples=self.sizes["eval_samples"]
            )
            end = time.perf_counter()
        return PassOutput(
            interval_seconds=np.diff([start, *marks, end]).tolist(),
            signature=verify.history_signature(result),
            results={"result": result, "model": model},
            op_ends=[len(marks) + 1],  # one operation: the epoch
        )

    def check_pass(self, last):
        result = last.results["result"]
        problems = verify.check_training(
            [result], _trained_values(last.results["model"]), self.accuracy_floor
        )
        return result.history.final.iteration, problems

    def layer_extras(self, last):
        result = last.results["result"]
        return {
            "core.hot_input_fraction": self.plan.hot_input_fraction,
            "train.steps": result.history.final.iteration,
            "train.final_test_loss": result.history.final.test_loss,
            "train.test_accuracy": result.final_test_accuracy,
        }

    def trace_extras(self, reference_pass_s: float) -> dict[str, float]:
        # The plain single-worker run of the same task.
        model = self.prepare_pass()
        start = time.perf_counter()
        BaselineTrainer(model, lr=self.sizes["lr"], seed=self.seed).train(
            self.train_log, self.test_log, epochs=1, batch_size=self.sizes["batch_size"],
            eval_samples=self.sizes["eval_samples"],
        )
        baseline_s = time.perf_counter() - start
        # The program's own tracer, on: what its spans cost this workload.
        model = self.prepare_pass()
        with tracing(enabled=True):
            start = time.perf_counter()
            self.run_pass(model)
            program_traced_s = time.perf_counter() - start
        get_tracer().reset()
        return {
            "train.baseline_samples_per_s": self.items_per_pass / baseline_s,
            "train.fae_over_baseline": baseline_s / reference_pass_s,
            "obs.program_tracing_overhead_share": program_traced_s / reference_pass_s - 1.0,
        }


# ---------------------------------------------------------------------------
# train-tbsm-turnover
# ---------------------------------------------------------------------------


class TrainTbsmTurnover(PassWorkload):
    """Six days of TBSM on two replicas while the popular rows rotate: the
    online cache, delta replication, checkpoints and the journal all work."""

    name = "train-tbsm-turnover"
    SIZES = {
        "full": dict(samples_per_day=2_000, days=7, shift_day=4, scale="small",
                     budget_bytes=196_608, batch_size=256, lr=0.15, test_fraction=0.15,
                     rebalance_every=512, replicas=2, checkpoint_every=2, checkpoint_keep=2),
        "smoke": dict(samples_per_day=600, days=4, shift_day=2, scale="small",
                      budget_bytes=196_608, batch_size=128, lr=0.15, test_fraction=0.15,
                      rebalance_every=256, replicas=2, checkpoint_every=2, checkpoint_keep=2),
    }

    def setup(self) -> None:
        sizes = self.sizes
        self.schema = dataset_by_name("taobao", sizes["scale"])
        days = popularity_shift_days(
            self.schema,
            samples_per_day=sizes["samples_per_day"],
            num_days=sizes["days"],
            shift_day=sizes["shift_day"],
            seed=self.seed,
        )
        self.plan = fae_preprocess(
            days[0], _fae_config(sizes["budget_bytes"], self.seed), batch_size=sizes["batch_size"]
        )
        self.splits = [
            train_test_split(day, sizes["test_fraction"], seed=self.seed + index)
            for index, day in enumerate(days)
        ][1:]
        self.items_per_pass = sum(len(train) for train, _test in self.splits)
        # Days are label-balanced by construction, so 0.5 is chance.
        self.accuracy_floor = 0.5

    def prepare_pass(self):
        sizes = self.sizes
        directory = self.work_dir / "checkpoints"
        shutil.rmtree(directory, ignore_errors=True)
        cache = EmbeddingHotCache(
            self.plan.bags,
            HotCacheConfig(
                budget_bytes=sizes["budget_bytes"],
                rebalance_every=sizes["rebalance_every"],
                seed=self.seed,
            ),
            profile=self.plan.calibration.profile,
        )
        replicas = [
            build_model(workload_by_name("RMC1"), schema=self.schema, seed=self.seed + 1)
            for _ in range(sizes["replicas"])
        ]
        manager = checkpoint_module.CheckpointManager(
            directory, every=sizes["checkpoint_every"], keep=sizes["checkpoint_keep"]
        )
        return cache, replicas, manager

    def run_pass(self, prepared) -> PassOutput:
        cache, replicas, manager = prepared
        sizes = self.sizes
        results, hot_fractions, day_ends = [], [], []
        trainer = None
        with optimizer_step_marks() as marks:
            start = time.perf_counter()
            for day, (train_day, test_day) in enumerate(self.splits, start=1):
                bags = cache.bags()
                packed = InputProcessor(bags, seed=self.seed * 131 + day).pack(
                    train_day, batch_size=sizes["batch_size"], drop_last=False
                )
                trainer = DistributedFAETrainer(
                    replicas,
                    replace(self.plan, bags=bags, dataset=packed),
                    lr=sizes["lr"],
                    cache=cache,
                )
                results.append(trainer.train(train_day, test_day, epochs=1, checkpoint=manager))
                hot_fractions.append(packed.hot_input_fraction)
                if day == len(self.splits):  # the last day also loads what it saved
                    newest = manager.latest()
                    if newest is not None:
                        checkpoint_module.load_checkpoint(newest)
                marks.append(time.perf_counter())
                day_ends.append(len(marks))
        return PassOutput(
            interval_seconds=np.diff([start, *marks]).tolist(),
            op_ends=day_ends,  # one operation a day
            signature=tuple(verify.history_signature(result) for result in results),
            results={
                "results": results,
                "replicas": replicas,
                "cache": cache.stats(),
                "newest": newest,
                "hot_input_fraction": float(np.mean(hot_fractions)),
                "divergence": max(trainer.max_dense_divergence(), trainer.max_hot_divergence()),
            },
        )

    def check_pass(self, last):
        results = last.results["results"]
        problems = verify.check_training(
            results,
            _trained_values(last.results["replicas"][0]),
            self.accuracy_floor,
            divergence=last.results["divergence"],
        )
        problems += verify.check_checkpoint(last.results["newest"])
        return sum(result.history.final.iteration for result in results), problems

    def layer_extras(self, last):
        stats, final = last.results["cache"], last.results["results"][-1]
        return {
            **_cache_metrics(stats),
            "core.hot_input_fraction": last.results["hot_input_fraction"],
            "train.steps": sum(r.history.final.iteration for r in last.results["results"]),
            "train.final_test_loss": final.history.final.test_loss,
            "train.test_accuracy": final.final_test_accuracy,
            "dist.replica_divergence": last.results["divergence"],
        }


# ---------------------------------------------------------------------------
# serve-rank
# ---------------------------------------------------------------------------


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class ServeRank(PassWorkload):
    """Candidate ranking through one engine with a live hot cache.  A pass is
    a closed loop of ``requests`` requests through a fresh engine (one client:
    the next request leaves when the previous returns); each request is one
    operation."""

    name = "serve-rank"
    SIZES = {
        "full": dict(scale="small", candidates=256, top_k=10, pool=2_500, requests=384,
                     budget_bytes=524_288, rebalance_every=8_192, warmup=32, prewarm=1_024,
                     open_rps=70.0, open_hi_rps=120.0, cluster_requests=300, checked=50),
        "smoke": dict(scale="small", candidates=64, top_k=10, pool=400, requests=128,
                      budget_bytes=524_288, rebalance_every=2_048, warmup=16, prewarm=256,
                      open_rps=70.0, open_hi_rps=120.0, cluster_requests=60, checked=20),
    }

    def setup(self) -> None:
        sizes = self.sizes
        self.items_per_pass = sizes["requests"]
        self.schema = dataset_by_name("criteo-kaggle", sizes["scale"])
        self.model = build_model(workload_by_name("RMC2"), schema=self.schema, seed=self.seed + 1)
        pool = sizes["pool"]
        rng = np.random.default_rng(self.seed)
        self.dense = rng.normal(size=(pool, self.schema.num_dense)).astype(np.float32)
        self.context = {}
        for index, spec in enumerate(self.schema.tables):
            sampler = ZipfSampler(spec.num_rows, spec.zipf_exponent, seed=self.seed * 7919 + index)
            self.context[spec.name] = sampler.sample(pool * spec.multiplicity).reshape(
                pool, spec.multiplicity
            )
        largest = max(self.schema.tables, key=lambda spec: spec.num_rows)
        self.candidate_table = largest.name
        self.candidates = ZipfSampler(largest.num_rows, 1.05, seed=self.seed + 99).sample(
            pool * sizes["candidates"]
        ).reshape(pool, sizes["candidates"])
        # A server that has been up for a while: the cache has seen the
        # candidate traffic of ``prewarm`` requests (the pool's last ones) and
        # is full, so every rebalance in a pass both promotes and demotes.
        cache = self.fresh_cache()
        for slot in range(pool - sizes["prewarm"], pool):
            cache.observe({self.candidate_table: self.candidates[slot]})
            if cache.should_rebalance():
                cache.rebalance()
        self.warm_cache_state = cache.state_dict()

    def request(self, index: int):
        slot = index % self.sizes["pool"]
        return (
            self.dense[slot],
            {name: ids[slot] for name, ids in self.context.items()},
            self.candidates[slot],
        )

    def fresh_cache(self) -> EmbeddingHotCache:
        return EmbeddingHotCache.from_schema(
            self.schema,
            HotCacheConfig(
                budget_bytes=self.sizes["budget_bytes"],
                rebalance_every=self.sizes["rebalance_every"],
                seed=self.seed,
            ),
            large_table_min_bytes=1024,
        )

    def fresh_engine(self, clock=None) -> InferenceEngine:
        cache = self.fresh_cache()
        cache.load_state_dict(self.warm_cache_state)
        return InferenceEngine(
            self.model,
            hot_cache=cache,
            breaker=CircuitBreaker(window=32, failure_threshold=0.5, min_requests=8, cooldown=16),
            deadline_s=None,
            clock=clock,
        )

    def rank(self, engine, index: int):
        dense, context, candidates = self.request(index)
        return engine.rank_candidates(
            dense, context, self.candidate_table, candidates, top_k=self.sizes["top_k"]
        )

    def closed_loop(self, engine, seconds: float = float("inf"), requests: int = -1, root=None):
        """One client: the next request leaves when the previous returns,
        until ``seconds`` have passed or ``requests`` are answered."""
        for index in range(self.sizes["warmup"]):
            self.rank(engine, index)
        latencies, ranked = [], []
        index = self.sizes["warmup"]
        begin = time.perf_counter()
        deadline = begin + seconds
        while len(ranked) != requests:
            start = time.perf_counter()
            if start >= deadline:
                break
            if root is None:
                result = self.rank(engine, index)
            else:
                with root():
                    result = self.rank(engine, index)
            latencies.append(time.perf_counter() - start)
            ranked.append((index, result))
            index += 1
        return latencies, ranked, time.perf_counter() - begin

    def open_loop(self, engine, rate: float, seconds: float, salt: int):
        """Seeded Poisson arrivals at a fixed rate, sent whether or not the
        engine has caught up; each request is timed from when it was due."""
        for index in range(self.sizes["warmup"]):
            self.rank(engine, index)
        count = max(1, int(rate * seconds))
        rng = np.random.default_rng(self.seed * 1_000 + salt)
        due = np.cumsum(rng.exponential(1.0 / rate, size=count))
        latencies, late_starts = [], []
        begin = time.perf_counter()
        for offset in range(count):
            due_at = begin + due[offset]
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            started = time.perf_counter()
            self.rank(engine, self.sizes["warmup"] + offset)
            latencies.append(time.perf_counter() - due_at)
            late_starts.append(started - due_at)
        return latencies, late_starts

    def prepare_pass(self) -> InferenceEngine:
        return self.fresh_engine()

    def run_pass(self, engine) -> PassOutput:
        latencies, ranked, _wall = self.closed_loop(engine, requests=self.sizes["requests"])
        return PassOutput(
            interval_seconds=latencies,
            signature=verify.ranking_digest(result for _index, result in ranked),
            results={"engine": engine, "ranked": ranked},
        )

    def check_pass(self, last):
        attempted, _failed, problems = self.check_ranked(
            last.results["engine"], last.results["ranked"]
        )
        return attempted, problems

    def check_ranked(self, engine, ranked) -> tuple[int, int, list[str]]:
        """No request degraded, and a sample of them ranked as brute force
        does.  (A shed request raises out of ``rank`` and ends the run.)"""
        problems = []
        degraded = sum(result.degraded for _index, result in ranked)
        if degraded:
            problems.append(f"{degraded} requests were degraded")
        rng = np.random.default_rng(self.seed + 5)
        picks = rng.choice(len(ranked), size=min(self.sizes["checked"], len(ranked)), replace=False)
        wrong = 0
        for pick in picks:
            index, result = ranked[pick]
            dense, context, candidates = self.request(index)
            scores = verify.brute_force_scores(
                engine, dense, context, self.candidate_table, candidates
            )
            found = verify.check_top_k(result, candidates, scores, self.sizes["top_k"])
            if found:
                wrong += 1
                problems.append(f"request {index}: {found[0]}")
        return len(ranked), min(len(ranked), degraded + wrong), problems

    def trace(self, seconds: float, trace_path: Path) -> tuple[dict[str, float], Measurement]:
        # Untraced: closed-loop reference, then the two open-loop rates.  The
        # reference lasts as long as the traced loop, so the two cover the
        # same stretch of the request pool.
        reference, _ranked, _wall = self.closed_loop(self.fresh_engine(), seconds=0.2 * seconds)
        open_lat, open_late = self.open_loop(
            self.fresh_engine(), self.sizes["open_rps"], 0.25 * seconds, salt=1
        )
        open_hi_lat, _late = self.open_loop(
            self.fresh_engine(), self.sizes["open_hi_rps"], 0.15 * seconds, salt=2
        )
        # Traced: the closed loop again, one root span per request.
        engine = self.fresh_engine()
        tracer = Tracer()
        tracer.install()
        try:
            before = read_counters()
            latencies, ranked, _wall = self.closed_loop(
                engine, seconds=0.2 * seconds, root=tracer.root
            )
            after = read_counters()
        finally:
            tracer.remove()
        tracer.write_jsonl(trace_path)
        # What the cache did since the warm state every engine starts from.
        stats = engine.hot_cache.stats()
        for count in ("hits", "misses", "promotions", "demotions", "rebalances"):
            stats[count] -= self.warm_cache_state[count]
        stats["hit_rate"] = stats["hits"] / max(1, stats["hits"] + stats["misses"])
        extra = {
            **_cache_metrics(stats),
            "serve.rebalance_request_share": stats["rebalances"]
            / (len(latencies) + self.sizes["warmup"]),
            "serve.open_p50_ms": 1e3 * _percentile(open_lat, 50),
            "serve.open_p99_ms": 1e3 * _percentile(open_lat, 99),
            "serve.open_late_start_p99_ms": 1e3 * _percentile(open_late, 99),
            "serve.open120_p99_ms": 1e3 * _percentile(open_hi_lat, 99),
            "obs.trace_overhead_share": statistics.median(latencies)
            / statistics.median(reference)
            - 1.0,
            **self.cluster_overhead(),
        }
        # A request stream has no passes: times and counts are per request.
        values = per_layer_metrics(
            analyze(tracer), len(latencies), before, after, requests=len(latencies), extra=extra
        )
        return values, Measurement(*self.check_ranked(engine, ranked))

    def cluster_overhead(self) -> dict[str, float]:
        """What ``ServingCluster.submit`` adds around the engine's rank call,
        on virtual clocks: wall per submit minus the rank inside it."""
        count = self.sizes["cluster_requests"]
        engines = [self.fresh_engine(clock=VirtualClock()) for _ in range(2)]
        cluster = ServingCluster(engines, queue_capacity=64)
        rng = np.random.default_rng(self.seed + 17)
        arrivals = np.cumsum(rng.exponential(1.0 / 100.0, size=count))
        tracer = Tracer()
        tracer.install()
        virtual = []
        try:
            start = time.perf_counter()
            for index in range(count):
                dense, context, candidates = self.request(index)
                response = cluster.submit(
                    float(arrivals[index]), 0.0005, dense, context,
                    self.candidate_table, candidates, top_k=self.sizes["top_k"],
                )
                virtual.append(response.latency_s)
            wall = time.perf_counter() - start
        finally:
            tracer.remove()
        inside = sum(
            tracer.ends[i] - tracer.starts[i]
            for i, name in enumerate(tracer.names)
            if name == "serve.rank"
        )
        return {
            "serve.cluster_overhead_us": 1e6 * (wall - inside) / count,
            "serve.cluster_virtual_p99_ms": 1e3 * _percentile(virtual, 99),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (PreprocessShards, TrainDlrmSteady, TrainTbsmTurnover, ServeRank)
}
