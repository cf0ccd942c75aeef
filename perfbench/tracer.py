"""The benchmark's own tracer: timing wrappers around the program's entry points.

Layers are measured from outside.  ``install()`` replaces a fixed list of
public methods and module functions of ``repro`` (``ENTRY_POINTS``) with
wrappers that record one span per call; ``remove()`` puts the originals
back.  Nothing under ``src/`` is edited, and the wrappers are only in place
during a traced run -- end-to-end numbers are taken without them.

A span is ``(name, start, end, parent)``.  Spans live in memory and are
written as JSONL when the run ends.  A span's *self time* is its duration
minus the part its child spans cover; because everything runs on one thread
the children of a span never overlap, so the self times of a tree sum to its
root's duration -- ``analyze()`` reports how far off that sum is
(``obs.trace_conservation_error``), which is what catches a wrapper that
breaks the nesting.

Generator entry points are timed per ``next()``: the time the consumer spends
between items is not charged to the producer.  ``absorb`` entry points
(evaluation) swallow the spans below them, so their metric is the whole call:
an evaluation is one phase of training, not more forward passes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

CALL, GEN, ABSORB = "call", "gen", "absorb"

# (span name, "module:attribute path", kind).  The span name's first
# component is the layer (the package under src/repro/); a span's self time
# is reported as the per-layer metric ``<span name>_s``.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    # data
    ("data.shard_read", "repro.data.chunk_source:ShardChunkSource.chunks", GEN),
    ("data.batch_load", "repro.data.loader:iter_fae_batches", GEN),
    ("data.batch_load", "repro.data.loader:fetch_batch", CALL),
    ("data.batch_load", "repro.data.loader:batch_from_log", CALL),
    # core: static preprocessing
    ("core.calibrate", "repro.core.calibrator:Calibrator.calibrate_source", CALL),
    ("core.classify", "repro.core.classifier:EmbeddingClassifier.classify", CALL),
    ("core.pack", "repro.core.input_processor:InputProcessor.classify_and_pack_stream", CALL),
    ("core.pack", "repro.core.input_processor:InputProcessor.pack", CALL),
    ("core.fae_save", "repro.core.fae_format:save_fae_dataset_sharded", CALL),
    ("core.fae_load", "repro.core.fae_format:load_fae_dataset", CALL),
    ("core.fae_load", "repro.core.fae_format:ShardBatchSequence.materialize", CALL),
    # core: hot/cold runtime
    ("core.sync", "repro.core.replicator:EmbeddingReplicator.sync_to_master", CALL),
    ("core.sync", "repro.core.replicator:EmbeddingReplicator.sync_from_master", CALL),
    ("core.hot_allreduce", "repro.core.replicator:EmbeddingReplicator.all_reduce_gradients", CALL),
    ("core.hotbag", "repro.core.replicator:HotEmbeddingBag.forward", CALL),
    ("core.hotbag", "repro.core.replicator:HotEmbeddingBag.backward", CALL),
    ("core.hotbag", "repro.core.replicator:HotEmbeddingBag.sequence_forward", CALL),
    ("core.hotbag", "repro.core.replicator:HotEmbeddingBag.sequence_backward", CALL),
    # core: online cache
    ("core.cache_observe", "repro.core.hotcache:EmbeddingHotCache.observe", CALL),
    ("core.cache_plan", "repro.core.hotcache:EmbeddingHotCache.plan_rebalance", CALL),
    ("core.cache_apply", "repro.core.hotcache:EmbeddingHotCache.apply_rebalance", CALL),
    ("core.cache_apply", "repro.core.hotcache:EmbeddingHotCache.rebalance", CALL),
    ("core.cache_repack", "repro.core.hotcache:repack_remaining", CALL),
    ("core.replicator_delta", "repro.core.replicator:EmbeddingReplicator.apply_delta", CALL),
    ("core.sketch_add", "repro.core.sketch:CountMinSketch.add", CALL),
    # nn
    ("nn.embedding_fwd", "repro.nn.embedding:EmbeddingBag.forward", CALL),
    ("nn.embedding_fwd", "repro.nn.embedding:EmbeddingBag.sequence_forward", CALL),
    ("nn.embedding_bwd", "repro.nn.embedding:EmbeddingBag.backward", CALL),
    ("nn.embedding_bwd", "repro.nn.embedding:EmbeddingBag.sequence_backward", CALL),
    ("nn.mlp_fwd", "repro.nn.mlp:MLP.forward", CALL),
    ("nn.mlp_bwd", "repro.nn.mlp:MLP.backward", CALL),
    ("nn.interaction", "repro.nn.interaction:DotInteraction.forward", CALL),
    ("nn.interaction", "repro.nn.interaction:DotInteraction.backward", CALL),
    ("nn.attention", "repro.nn.attention:SequenceAttention.forward", CALL),
    ("nn.attention", "repro.nn.attention:SequenceAttention.backward", CALL),
    ("nn.loss", "repro.nn.losses:BCEWithLogits.forward", CALL),
    ("nn.loss", "repro.nn.losses:BCEWithLogits.backward", CALL),
    ("nn.optim_step", "repro.nn.optim:SGD.step", CALL),
    ("nn.optim_step", "repro.nn.optim:SGD.zero_grad", CALL),
    # models
    ("models.forward_self", "repro.models.dlrm:DLRM.forward", CALL),
    ("models.forward_self", "repro.models.tbsm:TBSM.forward", CALL),
    ("models.backward_self", "repro.models.dlrm:DLRM.backward", CALL),
    ("models.backward_self", "repro.models.tbsm:TBSM.backward", CALL),
    # train
    ("train.loop_self", "repro.train.trainer:FAETrainer.train", CALL),
    ("train.loop_self", "repro.train.trainer:BaselineTrainer.train", CALL),
    ("train.loop_self", "repro.dist.fae_parallel:DistributedFAETrainer.train", CALL),
    ("train.eval", "repro.train.metrics:evaluate_model", ABSORB),
    ("train.eval", "repro.train.trainer:evaluate_with_master_bags", ABSORB),
    # dist
    ("dist.allreduce", "repro.dist.collectives:ProcessGroup.all_reduce", CALL),
    ("dist.shard_batch", "repro.dist.parallel:shard_batch", CALL),
    # resilience
    ("resilience.checkpoint_save", "repro.resilience.checkpoint:CheckpointManager.save", CALL),
    ("resilience.checkpoint_load", "repro.resilience.checkpoint:load_checkpoint", CALL),
    ("resilience.journal", "repro.resilience.journal:RefreshJournal.begin", CALL),
    ("resilience.journal", "repro.resilience.journal:RefreshJournal.commit", CALL),
    # serve
    ("serve.rank", "repro.serve.engine:InferenceEngine.rank_candidates", CALL),
    ("serve.predict_batch", "repro.serve.engine:InferenceEngine.predict_batch", CALL),
)

SPAN_NAMES = tuple(sorted({name for name, _target, _kind in ENTRY_POINTS}))


class Tracer:
    """In-memory span store with a single-thread open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._absorbing = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed while {self.names[popped]!r} was innermost"
            )

    def root(self, name: str = "harness.pass"):
        """Context manager for the span a traced pass hangs under."""
        return _RootSpan(self, name)

    # -- wrappers -------------------------------------------------------

    def _wrap_call(self, fn, name: str, absorb: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._absorbing:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            if absorb:
                tracer._absorbing += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if absorb:
                    tracer._absorbing -= 1
                tracer.close(index)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if tracer._absorbing:
                yield from iterator
                return
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for name, target, kind in ENTRY_POINTS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            class_name, _, attribute = path.rpartition(".")
            if class_name:
                owners = [getattr(module, class_name)]
            else:
                # ``from x import f`` copies the binding: patch every loaded
                # repro module that holds this function, not only its home.
                function = getattr(module, attribute)
                owners = [
                    loaded
                    for loaded_name, loaded in list(sys.modules.items())
                    if loaded is not None
                    and loaded_name.startswith("repro")
                    and loaded.__dict__.get(attribute) is function
                ]
            original = owners[0].__dict__[attribute]
            wrapped = (
                self._wrap_generator(original, name)
                if kind == GEN
                else self._wrap_call(original, name, absorb=kind == ABSORB)
            )
            for owner in owners:
                setattr(owner, attribute, wrapped)
                self._patches.append((owner, attribute, original))

    def remove(self) -> None:
        """Restore the originals (safe to call twice)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": name.split(".", 1)[0],
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "run_id": self.run_ids[index],
                        }
                    )
                    + "\n"
                )


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_RootSpan":
        self.tracer.run_id += 1
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *_exc) -> None:
        self.tracer.close(self.index)


@dataclass(frozen=True)
class TraceAnalysis:
    """Self time per span name, over every root in the trace.

    Attributes:
        self_seconds: span name -> summed self time.
        roots_seconds: summed duration of the root spans.
        conservation_error: ``|sum(self) - roots| / roots``.
    """

    self_seconds: dict[str, float]
    roots_seconds: float
    conservation_error: float

    def seconds(self, *names: str) -> float:
        return sum(self.self_seconds.get(name, 0.0) for name in names)


def analyze(tracer: Tracer) -> TraceAnalysis:
    """Compute self times; frozen here so metric definitions do not move
    when ``repro.obs.analyze`` does."""
    count = len(tracer.names)
    covered = [0.0] * count
    for index in range(count):
        parent = tracer.parents[index]
        if parent >= 0:
            covered[parent] += tracer.ends[index] - tracer.starts[index]
    self_seconds: dict[str, float] = defaultdict(float)
    roots = 0.0
    total_self = 0.0
    for index in range(count):
        duration = tracer.ends[index] - tracer.starts[index]
        own = duration - covered[index]
        self_seconds[tracer.names[index]] += own
        total_self += own
        if tracer.parents[index] < 0:
            roots += duration
    error = abs(total_self - roots) / roots if roots > 0 else 0.0
    return TraceAnalysis(dict(self_seconds), roots, error)
