"""Forward-only inference over trained recommender models.

The engine wraps a :class:`~repro.models.base.RecModel` for batched
scoring and candidate ranking.  When given the hot bags of an FAE plan it
also classifies each request as *hot* (all its lookups are GPU-resident)
or *cold* — the quantity the serving simulator prices.

Serving hardening: ranking accepts a per-request *deadline*.  Candidates
are scored in chunks with the elapsed time checked between chunks; when
the deadline trips, the remaining candidates fall back to a cheap
embedding-only score (mean hidden activation of the candidate row,
squashed through a sigmoid) instead of the full model forward, so the
request completes degraded rather than late.  Fallback use is recorded
under ``serve.deadline.exceeded`` / ``serve.fallback.candidates`` and
flagged on the returned :class:`RankedItems`.

Admission control: candidate ids are bounds-checked against the
candidate table before any scoring (a single wild id would otherwise
index out of the embedding matrix deep inside the forward pass), and an
optional :class:`~repro.resilience.guards.CircuitBreaker` sheds load
when the recent degraded-request rate crosses its threshold —
:meth:`InferenceEngine.rank_candidates` raises
:class:`~repro.resilience.guards.LoadShedError` while the breaker is
open, and :meth:`InferenceEngine.health` reports the breaker state plus
request counters for external monitoring.  Logical requests
(``serve.requests``) and chunked forward calls (``serve.batches``) are
counted separately, and shed requests record their time-to-rejection in
``serve.rejected.latency`` so dropped traffic stays visible in latency
accounting.

:meth:`InferenceEngine.install` atomically swaps the served model and
hot bags between requests — the primitive the replicated serving tier
(:mod:`repro.serve.cluster`) builds zero-downtime generation reloads on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.hotcache import EmbeddingHotCache
from repro.data.loader import MiniBatch, batch_from_log
from repro.models.base import RecModel
from repro.nn.activations import sigmoid
from repro.obs import get_registry, span
from repro.resilience.guards import CircuitBreaker, LoadShedError

__all__ = ["InferenceEngine", "RankedItems"]


@dataclass(frozen=True)
class RankedItems:
    """Top-k ranking result for one request.

    Attributes:
        item_ids: candidate ids ordered best-first.
        scores: matching click probabilities.
        degraded: True when the deadline tripped and some candidates were
            scored by the cheap fallback path instead of the full model.
    """

    item_ids: np.ndarray
    scores: np.ndarray
    degraded: bool = False


class InferenceEngine:
    """Batched scoring and ranking over a trained model.

    Args:
        model: a trained recommender (forward-only use).
        hot_bags: optional FAE hot-bag specs for request classification.
        batch_size: maximum scoring batch.
        deadline_s: default per-request ranking deadline in seconds, or
            None for no deadline.
        breaker: optional circuit breaker; when its rolling degraded-rate
            trips, :meth:`rank_candidates` sheds requests with
            :class:`~repro.resilience.guards.LoadShedError` instead of
            queueing more work behind an overloaded model.
        clock: monotonic-seconds source used for latency measurement and
            deadline checks (``time.perf_counter`` by default).  The SLO
            replay harness injects a virtual clock here so a seeded load
            test measures byte-identical latencies run after run.
        hot_cache: optional
            :class:`~repro.core.hotcache.EmbeddingHotCache`.  When set,
            every ranking request's candidate lookups feed the cache
            (hit/miss counters), the request that fills an observation
            window plans the turnover after it is scored and the cache
            applies the plan at its next call
            (:meth:`~repro.core.hotcache.EmbeddingHotCache.defer_rebalance`),
            and hot-request classification follows the cache's *live*
            membership instead of a frozen bag set.
    """

    def __init__(
        self,
        model: RecModel,
        hot_bags: dict[str, HotEmbeddingBagSpec] | None = None,
        batch_size: int = 2048,
        deadline_s: float | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] | None = None,
        hot_cache: EmbeddingHotCache | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self.model = model
        self.batch_size = batch_size
        self.deadline_s = deadline_s
        self.breaker = breaker
        self.clock = clock or time.perf_counter
        self.hot_cache = hot_cache
        self._cache_mask_version: int | None = None
        self._hot_masks = (
            {name: bag.hot_mask() for name, bag in hot_bags.items()} if hot_bags else None
        )
        if hot_cache is not None and hot_bags is None:
            self._refresh_cache_masks()
        registry = get_registry()
        self._latency = registry.histogram("serve.request.latency")
        self._rank_latency = registry.histogram("serve.rank.latency")
        self._rejected_latency = registry.histogram("serve.rejected.latency")
        self._requests = registry.counter("serve.requests")
        self._batches = registry.counter("serve.batches")
        self._shed = registry.counter("serve.requests.shed")
        self._deadline_exceeded = registry.counter("serve.deadline.exceeded")
        self._fallback_candidates = registry.counter("serve.fallback.candidates")

    def predict_proba(self, log, indices: np.ndarray | None = None) -> np.ndarray:
        """Click probabilities for rows of a click log (one logical request)."""
        indices = np.arange(len(log)) if indices is None else np.asarray(indices)
        probs = np.empty(len(indices), dtype=np.float64)
        self._requests.inc()
        with span("serve.predict", rows=len(indices)):
            for start in range(0, len(indices), self.batch_size):
                chunk = indices[start : start + self.batch_size]
                probs[start : start + len(chunk)] = self.predict_batch(
                    batch_from_log(log, chunk)
                )
        return probs

    def predict_batch(self, batch: MiniBatch) -> np.ndarray:
        """Click probabilities for an already-built mini-batch.

        Scores through :meth:`RecModel.predict`, which factors a ranking
        chunk's shared context out of the forward.  Counts one
        ``serve.batches`` forward call — *not* a logical
        request: one ranking request fans out into many chunked forward
        calls, and conflating the two used to inflate
        ``health()["requests"]`` by the chunk count.
        """
        start = self.clock()
        logits = self.model.predict(batch)
        probs = sigmoid(np.asarray(logits, dtype=np.float64))
        self._latency.observe(self.clock() - start)
        self._batches.inc()
        return probs

    def rank_candidates(
        self,
        dense: np.ndarray,
        sparse_context: dict[str, np.ndarray],
        candidate_table: str,
        candidate_ids: np.ndarray,
        top_k: int = 10,
        deadline_s: float | None = None,
    ) -> RankedItems:
        """Score one request against ``candidate_ids`` and return the top-k.

        The request's context features are broadcast across candidates;
        ``candidate_table``'s ids are replaced per candidate — the
        standard candidate-ranking layout of a retrieval+ranking stack.

        Args:
            dense: ``(num_dense,)`` request features.
            sparse_context: table name -> ``(multiplicity,)`` context ids
                (must include every table, incl. the candidate table,
                whose value is overwritten per candidate).
            candidate_table: which table the candidates index.
            candidate_ids: ``(C,)`` candidate row ids.
            top_k: how many to return.
            deadline_s: per-request deadline; falls back to the engine
                default when None.  Candidates not scored before the
                deadline get the cheap fallback score and the result is
                marked ``degraded``.

        Raises:
            KeyError: if the candidate table is unknown.
            ValueError: if any candidate id is outside the table.
            LoadShedError: if the circuit breaker is open.
        """
        admission_start = self.clock()
        if self.breaker is not None and not self.breaker.allow():
            self._shed.inc()
            # Shed requests still took caller-visible time to reject;
            # without this sample they vanish from latency accounting
            # and P99 can look good by dropping traffic.
            self._rejected_latency.observe(self.clock() - admission_start)
            raise LoadShedError(
                f"serving circuit breaker is {self.breaker.state} "
                f"(recent failure rate {self.breaker.failure_rate():.2f}); "
                "request shed — retry after the cooldown"
            )
        self._requests.inc()
        if candidate_table not in self.model.tables:
            raise KeyError(f"unknown candidate table {candidate_table!r}")
        candidate_ids = self._check_candidate_ids(candidate_table, candidate_ids)
        count = len(candidate_ids)
        if count == 0:
            raise ValueError("need at least one candidate")
        if deadline_s is None:
            deadline_s = self.deadline_s
        if self.hot_cache is not None:
            # Serving traffic feeds the same cache the trainers consult.
            self.hot_cache.observe({candidate_table: candidate_ids})

        rank_start = self.clock()
        try:
            with span("serve.rank", candidates=count, top_k=top_k):
                result = self._rank(
                    dense, sparse_context, candidate_table, candidate_ids, top_k, deadline_s
                )
            self._rank_latency.observe(self.clock() - rank_start)
        finally:
            # A full window turns over across the request boundary: this
            # request plans once it is scored, and the cache's next call
            # (the next request's observe, or any reader) applies the plan
            # first.  Scoring reads only the model, so the order of cache
            # states is the in-line turnover's, and neither request pays
            # for a whole turnover.
            if self.hot_cache is not None and self.hot_cache.should_rebalance():
                self.hot_cache.defer_rebalance()
        if self.breaker is not None:
            # A degraded (deadline-tripped) response counts as a failure:
            # a sustained run of them means the engine cannot keep up and
            # should shed rather than degrade every caller.
            self.breaker.record(success=not result.degraded)
        return result

    def _check_candidate_ids(
        self, candidate_table: str, candidate_ids: np.ndarray
    ) -> np.ndarray:
        """Bounds-check candidate ids against the candidate table.

        Raises:
            ValueError: naming the table, the offending id, and the valid
                range — a wild id would otherwise fault deep inside the
                embedding gather where the cause is unrecoverable.
        """
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        num_rows = self.model.tables[candidate_table].num_rows
        # One compare: a negative id is a huge uint64, so it fails it too.
        bad = candidate_ids.view(np.uint64) >= num_rows
        if bad.any():
            offender = int(candidate_ids[bad][0])
            raise ValueError(
                f"candidate id {offender} is out of range for table "
                f"{candidate_table!r} (valid ids are [0, {num_rows}))"
            )
        return candidate_ids

    def _fallback_scores(self, candidate_table: str, candidate_ids: np.ndarray) -> np.ndarray:
        """Cheap deadline-fallback score: squashed mean of the candidate row.

        No MLP, no feature interaction — one embedding read per
        candidate.  Far less accurate than the full model, but orders of
        magnitude cheaper, which is the point of a deadline fallback.
        ``candidate_ids`` were already bounds-checked on admission in
        :meth:`rank_candidates`; re-validating here would burn time at
        exactly the moment the engine is behind deadline.
        """
        rows = self.model.tables[candidate_table].subset(candidate_ids)
        return sigmoid(rows.mean(axis=1).astype(np.float64))

    def _rank(
        self,
        dense: np.ndarray,
        sparse_context: dict[str, np.ndarray],
        candidate_table: str,
        candidate_ids: np.ndarray,
        top_k: int,
        deadline_s: float | None,
    ) -> RankedItems:
        count = len(candidate_ids)
        dense_row = np.asarray(dense, dtype=np.float32)
        # Every table's context ids side by side in one row, so a chunk's
        # batch is column slices of one read-only broadcast of it: one
        # broadcast a chunk instead of one copy per table (the lookup
        # copies the ids once anyway).
        context = [np.asarray(ids, dtype=np.int64) for ids in sparse_context.values()]
        context_row = np.concatenate(context)
        ends = np.cumsum([len(ids) for ids in context]).tolist()
        columns = dict(zip(sparse_context, zip([0, *ends], ends)))
        mult = len(sparse_context[candidate_table])

        # Small chunks under a deadline so the elapsed check fires often
        # enough to matter; full batches otherwise.
        chunk_size = self.batch_size if deadline_s is None else min(self.batch_size, 256)
        start_time = self.clock()
        scores = np.empty(count, dtype=np.float64)
        degraded = False
        for start in range(0, count, chunk_size):
            if deadline_s is not None and self.clock() - start_time > deadline_s:
                remaining = candidate_ids[start:]
                scores[start:] = self._fallback_scores(candidate_table, remaining)
                self._deadline_exceeded.inc()
                self._fallback_candidates.inc(len(remaining))
                degraded = True
                break
            chunk_ids = candidate_ids[start : start + chunk_size]
            chunk = len(chunk_ids)
            block = np.broadcast_to(context_row, (chunk, len(context_row)))
            sparse_block = {name: block[:, lo:hi] for name, (lo, hi) in columns.items()}
            sparse_block[candidate_table] = np.broadcast_to(chunk_ids[:, None], (chunk, mult))
            batch = MiniBatch(
                dense=np.broadcast_to(dense_row, (chunk, len(dense_row))),
                sparse=sparse_block,
                labels=np.zeros(chunk, dtype=np.float32),
                indices=np.arange(chunk, dtype=np.int64),
            )
            scores[start : start + chunk] = self.predict_batch(batch)
        order = np.argsort(scores)[::-1][:top_k]
        return RankedItems(
            item_ids=candidate_ids[order], scores=scores[order], degraded=degraded
        )

    def install(
        self,
        model: RecModel,
        hot_bags: dict[str, HotEmbeddingBagSpec] | None = None,
    ) -> None:
        """Atomically swap the served model (and hot-bag hot set).

        The swap is two attribute rebinds between requests — no request
        ever sees a half-installed state, which is what lets the
        replicated cluster reload a new FAE plan or parameter set
        replica-by-replica with zero downtime.  ``hot_bags=None``
        disables hot-request classification for the new generation
        (install a plan's bags to keep it).  An engine with a hot cache
        ignores ``hot_bags``: its classification keeps following the
        cache's live membership.  Counters and the breaker survive the
        swap: they describe the replica, not the generation.
        """
        if self.hot_cache is not None:
            self.model = model
            self._refresh_cache_masks()
            return
        hot_masks = (
            {name: bag.hot_mask() for name, bag in hot_bags.items()} if hot_bags else None
        )
        self.model = model
        self._hot_masks = hot_masks

    def health(self) -> dict:
        """JSON-ready serving health snapshot.

        Combines the engine's request counters with the breaker state (a
        ``breaker`` key, or None when admission control is disabled) —
        the payload a load balancer's health probe would poll.
        ``requests`` counts logical requests (one per ranking or
        prediction call); ``batches`` counts model forward calls, which
        a chunked ranking multiplies.
        """
        return {
            "requests": self._requests.value,
            "batches": self._batches.value,
            "shed": self._shed.value,
            "deadline_exceeded": self._deadline_exceeded.value,
            "fallback_candidates": self._fallback_candidates.value,
            "breaker": None if self.breaker is None else self.breaker.health(),
            "cache": None if self.hot_cache is None else self.hot_cache.stats(),
        }

    def _refresh_cache_masks(self) -> None:
        """Rebuild hot masks from the cache's current membership."""
        self._hot_masks = {
            name: bag.hot_mask() for name, bag in self.hot_cache.bags().items()
        }
        self._cache_mask_version = self.hot_cache.version

    def hot_request_mask(self, log, indices: np.ndarray | None = None) -> np.ndarray:
        """Which requests touch only hot rows (GPU-servable end to end).

        With a hot cache installed, the masks track the cache's live
        membership (lazily rebuilt when its version changes).

        Raises:
            RuntimeError: if the engine was built without hot bags.
        """
        if (
            self.hot_cache is not None
            and self._cache_mask_version != self.hot_cache.version
        ):
            self._refresh_cache_masks()
        if self._hot_masks is None:
            raise RuntimeError("engine was constructed without hot bags")
        indices = np.arange(len(log)) if indices is None else np.asarray(indices)
        hot = np.ones(len(indices), dtype=bool)
        for name, ids in log.sparse.items():
            mask = self._hot_masks[name]
            hot &= mask[ids[indices]].all(axis=1)
        return hot
