"""Deterministic fault injection for chaos testing the FAE runtime.

Production recommendation trainers live with constant preemption and
flaky interconnects; a resilience layer is only trustworthy if its
recovery paths are exercised.  A :class:`FaultPlan` is a *seeded* fault
schedule — every run with the same plan sees the same faults at the same
points — that the trainers and the collective layer consult:

- **transient collective failures** — :meth:`FaultPlan.check_collective`
  raises :class:`TransientCollectiveError` with a configured probability
  (the retry policy around each collective absorbs these);
- **permanent rank death** — at the N-th collective call one rank dies
  for good (:class:`PermanentRankFailure`); the distributed trainer
  responds by shrinking the world and continuing on the survivors;
- **loader hiccups** — :meth:`FaultPlan.check_loader` models transient
  data-path stalls/read errors (:class:`LoaderHiccup`);
- **hot-replica eviction** — :meth:`FaultPlan.should_evict_hot` fires
  once at a configured training iteration, simulating GPU memory
  pressure evicting the hot bags; the trainers degrade to the cold
  (CPU-master) path instead of crashing.

Data-corruption faults (exercising :mod:`repro.resilience.guards`):

- **ingest corruption** — :meth:`FaultPlan.corrupt_ingest` poisons a
  seeded subset of an in-memory log's rows (non-finite dense features,
  out-of-range sparse ids, invalid labels) *before* training, so ingest
  validation and the quarantine ledger have something to catch;
- **batch corruption** — :meth:`FaultPlan.maybe_corrupt_batch` poisons
  a fetched mini-batch's dense features with a configured probability
  (NaN or bit-flip, per ``corruption_mode``);
- **gradient corruption** — :meth:`FaultPlan.should_corrupt_gradient`
  fires once at a configured iteration; the trainer then passes its
  gradient buffers to :meth:`FaultPlan.corrupt_array`;
- **hot-row corruption** — :meth:`FaultPlan.should_corrupt_hot_row`
  fires once; the trainer poisons the same row of every hot replica
  (:meth:`FaultPlan.corrupt_row`), modeling the paper's worst case of a
  corrupted popular row replicated to every GPU.

Serving-replica faults (exercising :mod:`repro.serve.cluster`):

- **replica kill / slow / flap** — :meth:`FaultPlan.replica_alive` and
  :meth:`FaultPlan.replica_slow_multiplier` describe a per-request
  schedule of replica deaths (``kill_replica``), degraded-but-alive
  stragglers (``slow_replica``), and crash-loop flapping
  (``flap_replica``) that the serving replay applies to the replicated
  serving tier, proving failover, hedging, and probe re-admission.

Crash faults (exercising :mod:`repro.resilience.journal` and the
crash-anywhere certification harness):

- **phase-targeted refresh crash** — :meth:`FaultPlan.maybe_crash_refresh`
  SIGKILLs the *real* process when cache turnover number ``SEG`` reaches
  phase ``PHASE`` (``crash_refresh=SEG@PHASE``);
- **checkpoint-boundary crash** — :meth:`FaultPlan.maybe_crash_checkpoint`
  SIGKILLs right after the N-th checkpoint save (``crash_checkpoint=N``);
- **mid-segment crash** — :meth:`FaultPlan.maybe_crash_step` SIGKILLs
  after training iteration N (``crash_step=N``).

These are real ``SIGKILL``s, not exceptions: no ``finally`` blocks run,
no buffers flush — exactly the failure the durability layer must absorb.

Every injected fault increments a ``faults.*`` counter so chaos runs are
fully traceable through :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import get_registry

__all__ = [
    "FaultError",
    "FaultPlan",
    "LoaderHiccup",
    "PermanentRankFailure",
    "REFRESH_PHASES",
    "TransientCollectiveError",
    "popular_local_row",
]

#: Crash-injectable phases of one journaled cache refresh, in execution
#: order: after planning, after the journal intent record, after the
#: cache membership swap, after replica delta application, after the
#: batch repack, after the scheduler pool swap, and after the commit.
REFRESH_PHASES = ("plan", "intent", "apply", "replicas", "repack", "pools", "commit")


def popular_local_row(bag, global_ids: np.ndarray) -> int:
    """Bag-local row of the most frequent global id in ``global_ids``.

    Hot-row corruption must poison a row the model is about to *read*:
    hot ids are stored sorted by id, not by popularity, so a fixed local
    row (e.g. 0) may belong to an id that barely appears in training and
    the injected fault would never flow through a forward pass.  Callers
    pass the sparse ids of the upcoming hot batch — all of them are in
    the bag by construction — and poison the returned row, modeling the
    paper's worst case: the *popular* row, replicated to every GPU, goes
    bad.  Returns 0 when ``global_ids`` is empty.
    """
    ids = np.asarray(global_ids).ravel()
    if ids.size == 0:
        return 0
    values, counts = np.unique(ids, return_counts=True)
    target = values[int(np.argmax(counts))]
    return int(bag.to_local(np.asarray([target], dtype=np.int64))[0])


class FaultError(RuntimeError):
    """Base class for injected faults."""


class TransientCollectiveError(FaultError):
    """A collective failed this attempt but may succeed on retry."""


class PermanentRankFailure(FaultError):
    """A rank died and will never come back.

    Attributes:
        rank: the dead rank's index at the time of death.
    """

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"rank {rank} died (permanent failure)")
        self.rank = rank


class LoaderHiccup(FaultError):
    """A transient data-loading failure (stalled read, flaky storage)."""


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Attributes:
        seed: RNG seed; two plans with equal fields inject identically.
        collective_failure_rate: per-attempt probability that a collective
            raises :class:`TransientCollectiveError`.
        max_collective_failures: cap on injected transient collective
            failures (keeps bounded-retry runs terminating).
        rank_death: ``(rank, collective_call)`` — kill ``rank``
            permanently at that collective call count, or None.  The
            trainers exchange a step's gradients in one collective, so
            under them the count is the step number (attempts retried
            after a transient failure count too): ``(1, 3)`` kills rank
            1 in the third step's exchange.
        loader_hiccup_rate: per-fetch probability of a
            :class:`LoaderHiccup`.
        max_loader_hiccups: cap on injected loader hiccups.
        hot_eviction_at: training iteration at which the hot replicas are
            evicted (simulated GPU memory pressure), or None.
        ingest_corruption_rate: fraction of log rows poisoned by
            :meth:`corrupt_ingest` before training.
        max_ingest_corruptions: cap on poisoned ingest rows.
        batch_corruption_rate: per-batch probability that the fetched
            mini-batch's dense features are poisoned.
        max_batch_corruptions: cap on poisoned batches.
        gradient_corruption_at: iteration at which gradient buffers are
            poisoned once, or None.
        hot_row_corruption_at: iteration at which one hot-replica row is
            poisoned (identically on every replica) once, or None.
        corruption_mode: ``"nan"`` (values become NaN) or ``"bitflip"``
            (a high exponent bit is flipped, yielding huge-but-usually-
            finite values that trip the spike detector instead of the
            NaN checks).
        replica_kill: ``(replica, request_index)`` — serving replica
            dies permanently when the serving replay reaches that
            request, or None.  The cluster discovers the death the hard
            way (a failed dispatch → failover), as a real load balancer
            with a finite probe interval would.
        replica_slow: ``(replica, start, stop)`` — the replica's service
            cost is multiplied by ``replica_slow_factor`` over that
            request-index window (a degraded-but-alive straggler, the
            tail-latency case hedged requests exist for), or None.
        replica_slow_factor: service-cost multiplier inside the slow
            window.
        replica_flap: ``(replica, start, period)`` — from ``start`` on,
            the replica alternates ``period`` requests down / ``period``
            requests up (crash-loop or partition flapping); the cluster's
            health probe must re-admit it on each recovery, or None.
        worker_kill_task: elastic-pool task index whose first lease
            SIGKILLs its worker mid-task (real process death), or None.
        worker_hang_task: task index whose first lease wedges its worker
            — heartbeats stop, the task never returns — so the
            supervisor's heartbeat-miss budget must catch it.  None
            disables.
        worker_straggle_task: task index whose first lease sleeps
            ``worker_straggle_seconds`` before completing (a slow-start
            straggler for speculation to beat), or None.
        worker_straggle_seconds: straggler sleep length.
        crash_refresh: ``(refresh_index, phase)`` — SIGKILL the process
            when that cache turnover reaches that phase (one of
            :data:`REFRESH_PHASES`), or None.
        crash_checkpoint: SIGKILL the process immediately after the N-th
            (0-based) checkpoint save of this run, or None.
        crash_step: SIGKILL the process right after training iteration N
            completes (a mid-segment kill), or None.
    """

    seed: int = 0
    collective_failure_rate: float = 0.0
    max_collective_failures: int = 64
    rank_death: tuple[int, int] | None = None
    loader_hiccup_rate: float = 0.0
    max_loader_hiccups: int = 64
    hot_eviction_at: int | None = None
    ingest_corruption_rate: float = 0.0
    max_ingest_corruptions: int = 64
    batch_corruption_rate: float = 0.0
    max_batch_corruptions: int = 8
    gradient_corruption_at: int | None = None
    hot_row_corruption_at: int | None = None
    corruption_mode: str = "nan"
    replica_kill: tuple[int, int] | None = None
    replica_slow: tuple[int, int, int] | None = None
    replica_slow_factor: float = 20.0
    replica_flap: tuple[int, int, int] | None = None
    worker_kill_task: int | None = None
    worker_hang_task: int | None = None
    worker_straggle_task: int | None = None
    worker_straggle_seconds: float = 0.5
    crash_refresh: tuple[int, str] | None = None
    crash_checkpoint: int | None = None
    crash_step: int | None = None

    _rng: np.random.Generator = field(init=False, repr=False)
    _checkpoint_saves: int = field(default=0, init=False)
    _collective_calls: int = field(default=0, init=False)
    _collective_failures: int = field(default=0, init=False)
    _loader_hiccups: int = field(default=0, init=False)
    _rank_death_fired: bool = field(default=False, init=False)
    _eviction_fired: bool = field(default=False, init=False)
    _batch_corruptions: int = field(default=0, init=False)
    _gradient_corruption_fired: bool = field(default=False, init=False)
    _hot_row_corruption_fired: bool = field(default=False, init=False)
    _replica_kill_fired: bool = field(default=False, init=False)
    _replica_slow_fired: bool = field(default=False, init=False)
    _replica_flap_fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.collective_failure_rate < 1.0:
            raise ValueError("collective_failure_rate must be in [0, 1)")
        if not 0.0 <= self.loader_hiccup_rate < 1.0:
            raise ValueError("loader_hiccup_rate must be in [0, 1)")
        if not 0.0 <= self.ingest_corruption_rate < 1.0:
            raise ValueError("ingest_corruption_rate must be in [0, 1)")
        if not 0.0 <= self.batch_corruption_rate < 1.0:
            raise ValueError("batch_corruption_rate must be in [0, 1)")
        if self.corruption_mode not in ("nan", "bitflip"):
            raise ValueError(
                f"corruption_mode must be 'nan' or 'bitflip', got {self.corruption_mode!r}"
            )
        if self.rank_death is not None:
            rank, at_call = self.rank_death
            if rank < 0 or at_call < 1:
                raise ValueError(f"invalid rank_death {self.rank_death}")
        if self.replica_kill is not None:
            replica, at_request = self.replica_kill
            if replica < 0 or at_request < 0:
                raise ValueError(f"invalid replica_kill {self.replica_kill}")
        if self.replica_slow is not None:
            replica, start, stop = self.replica_slow
            if replica < 0 or start < 0 or stop <= start:
                raise ValueError(f"invalid replica_slow {self.replica_slow}")
        if self.replica_slow_factor <= 1.0:
            raise ValueError("replica_slow_factor must be > 1")
        if self.replica_flap is not None:
            replica, start, period = self.replica_flap
            if replica < 0 or start < 0 or period < 1:
                raise ValueError(f"invalid replica_flap {self.replica_flap}")
        for name in ("worker_kill_task", "worker_hang_task", "worker_straggle_task"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.worker_straggle_seconds <= 0:
            raise ValueError("worker_straggle_seconds must be positive")
        if self.crash_refresh is not None:
            refresh_index, phase = self.crash_refresh
            if refresh_index < 0 or phase not in REFRESH_PHASES:
                raise ValueError(
                    f"invalid crash_refresh {self.crash_refresh}: phase must "
                    f"be one of {REFRESH_PHASES}"
                )
        if self.crash_checkpoint is not None and self.crash_checkpoint < 0:
            raise ValueError("crash_checkpoint must be >= 0")
        if self.crash_step is not None and self.crash_step < 1:
            raise ValueError("crash_step must be >= 1")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------

    def check_collective(self, op: str = "collective") -> None:
        """Consulted once per collective attempt; may raise a fault."""
        self._collective_calls += 1
        if self.rank_death is not None and not self._rank_death_fired:
            rank, at_call = self.rank_death
            if self._collective_calls >= at_call:
                self._rank_death_fired = True
                get_registry().counter("faults.rank_death.injected").inc()
                raise PermanentRankFailure(
                    rank, f"rank {rank} died during {op} (injected at call {at_call})"
                )
        if (
            self.collective_failure_rate > 0.0
            and self._collective_failures < self.max_collective_failures
            and self._rng.random() < self.collective_failure_rate
        ):
            self._collective_failures += 1
            get_registry().counter("faults.collective.injected").inc()
            raise TransientCollectiveError(
                f"injected transient failure in {op} "
                f"(#{self._collective_failures} of at most {self.max_collective_failures})"
            )

    def check_loader(self) -> None:
        """Consulted once per batch fetch attempt; may raise a hiccup."""
        if (
            self.loader_hiccup_rate > 0.0
            and self._loader_hiccups < self.max_loader_hiccups
            and self._rng.random() < self.loader_hiccup_rate
        ):
            self._loader_hiccups += 1
            get_registry().counter("faults.loader.injected").inc()
            raise LoaderHiccup(
                f"injected loader hiccup (#{self._loader_hiccups} "
                f"of at most {self.max_loader_hiccups})"
            )

    def should_evict_hot(self, iteration: int) -> bool:
        """True exactly once, when ``iteration`` reaches the eviction point."""
        if self.hot_eviction_at is None or self._eviction_fired:
            return False
        if iteration >= self.hot_eviction_at:
            self._eviction_fired = True
            get_registry().counter("faults.hot_eviction.injected").inc()
            return True
        return False

    # ------------------------------------------------------------------
    # Data corruption (chaos for repro.resilience.guards)
    # ------------------------------------------------------------------

    def _poison(self, values: np.ndarray) -> np.ndarray:
        """Corrupt ``values`` per ``corruption_mode``; returns the result."""
        if self.corruption_mode == "nan":
            return np.full_like(values, np.nan)
        # Bit-flip: XOR the high exponent bit of each float32, turning
        # ordinary magnitudes into astronomically large (finite or inf)
        # ones — the classic silent-memory-corruption signature.
        bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
        return (bits ^ np.uint32(1 << 30)).view(np.float32).astype(values.dtype)

    def corrupt_array(self, array: np.ndarray, k: int = 4) -> None:
        """Poison up to ``k`` seeded positions of ``array`` in place."""
        size = array.size
        if size == 0:
            return
        positions = self._rng.integers(0, size, size=min(k, size))
        array.flat[positions] = self._poison(np.asarray(array.flat[positions]))

    def corrupt_row(self, matrix: np.ndarray, row: int = 0) -> None:
        """Poison one full row of a 2-D weight matrix in place.

        Callers apply this to the *same* row of every hot replica so the
        replicas stay bit-equal — the failure modeled is a corrupted
        popular row that FAE has replicated everywhere.
        """
        matrix[row, :] = self._poison(matrix[row, :])

    def corrupt_ingest(self, log) -> dict[int, str]:
        """Poison a seeded subset of ``log``'s rows in place, pre-training.

        Row selection uses a dedicated RNG substream derived from
        ``seed`` (not the shared fault stream), so the poisoned set is
        identical no matter how the log is later chunked, and the other
        fault draws are unperturbed.  Each poisoned row gets one of the
        three corruption kinds, round-robin: non-finite dense features,
        an out-of-range sparse id, or an invalid label.

        Returns:
            Mapping of poisoned row index -> corruption kind
            (``dense`` | ``sparse`` | ``label``).
        """
        if self.ingest_corruption_rate <= 0.0 or len(log) == 0:
            return {}
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xDA7A]))
        draws = rng.random(len(log))
        rows = np.flatnonzero(draws < self.ingest_corruption_rate)
        rows = rows[: self.max_ingest_corruptions]
        tables = sorted(log.sparse)
        kinds: dict[int, str] = {}
        for position, index in enumerate(rows.tolist()):
            kind = ("dense", "sparse", "label")[position % 3]
            if kind == "dense":
                log.dense[index, 0] = (
                    np.nan if self.corruption_mode == "nan" else np.inf
                )
            elif kind == "sparse":
                table = tables[position % len(tables)]
                log.sparse[table][index, 0] = log.schema.table(table).num_rows + 7
            else:
                log.labels[index] = np.nan if self.corruption_mode == "nan" else 3.0
            kinds[index] = kind
        if kinds:
            get_registry().counter("faults.ingest_corruption.injected").inc(len(kinds))
        return kinds

    def maybe_corrupt_batch(self, batch):
        """Return ``batch``, possibly with poisoned dense features.

        Fires with ``batch_corruption_rate`` per call, up to
        ``max_batch_corruptions`` times.  The batch arrays are copied
        before poisoning so the source log stays clean.
        """
        if (
            self.batch_corruption_rate <= 0.0
            or self._batch_corruptions >= self.max_batch_corruptions
            or self._rng.random() >= self.batch_corruption_rate
        ):
            return batch
        self._batch_corruptions += 1
        get_registry().counter("faults.batch_corruption.injected").inc()
        dense = batch.dense.copy()
        row = int(self._rng.integers(0, dense.shape[0])) if dense.shape[0] else 0
        dense[row, :] = self._poison(dense[row, :])
        return type(batch)(
            dense=dense,
            sparse=batch.sparse,
            labels=batch.labels,
            indices=batch.indices,
            hot=batch.hot,
        )

    def should_corrupt_gradient(self, iteration: int) -> bool:
        """True exactly once, at the configured gradient-poison point."""
        if self.gradient_corruption_at is None or self._gradient_corruption_fired:
            return False
        if iteration >= self.gradient_corruption_at:
            self._gradient_corruption_fired = True
            get_registry().counter("faults.gradient_corruption.injected").inc()
            return True
        return False

    def should_corrupt_hot_row(self, iteration: int) -> bool:
        """True exactly once, at the configured hot-row-poison point."""
        if self.hot_row_corruption_at is None or self._hot_row_corruption_fired:
            return False
        if iteration >= self.hot_row_corruption_at:
            self._hot_row_corruption_fired = True
            get_registry().counter("faults.hot_row_corruption.injected").inc()
            return True
        return False

    # ------------------------------------------------------------------
    # Crash faults (exercising repro.resilience.journal / certify)
    # ------------------------------------------------------------------

    @staticmethod
    def _sigkill() -> None:
        # A real, unhandled kill: the process dies here, mid-everything.
        os.kill(os.getpid(), signal.SIGKILL)

    def maybe_crash_refresh(self, refresh_index: int, phase: str) -> None:
        """SIGKILL when cache turnover ``refresh_index`` reaches ``phase``.

        The trainers call this at every phase boundary of every journaled
        refresh; the plan kills the process at exactly one of them.
        """
        if self.crash_refresh is None:
            return
        target_index, target_phase = self.crash_refresh
        if refresh_index == target_index and phase == target_phase:
            get_registry().counter("faults.crash_refresh.injected").inc()
            self._sigkill()

    def maybe_crash_checkpoint(self) -> None:
        """SIGKILL immediately after the configured checkpoint save."""
        save_index = self._checkpoint_saves
        self._checkpoint_saves += 1
        if self.crash_checkpoint is not None and save_index == self.crash_checkpoint:
            get_registry().counter("faults.crash_checkpoint.injected").inc()
            self._sigkill()

    def maybe_crash_step(self, iteration: int) -> None:
        """SIGKILL right after training iteration ``crash_step``."""
        if self.crash_step is not None and iteration == self.crash_step:
            get_registry().counter("faults.crash_step.injected").inc()
            self._sigkill()

    # ------------------------------------------------------------------
    # Serving-replica faults (exercising repro.serve.cluster)
    # ------------------------------------------------------------------

    def replica_alive(self, replica: int, request_index: int) -> bool:
        """Whether serving replica ``replica`` is up at ``request_index``.

        A pure function of the plan and the request index (no RNG draw),
        so the serving replay can consult it for every replica on every
        request without perturbing the other fault streams.
        """
        if self.replica_kill is not None:
            target, at_request = self.replica_kill
            if replica == target and request_index >= at_request:
                if not self._replica_kill_fired:
                    self._replica_kill_fired = True
                    get_registry().counter("faults.replica_kill.injected").inc()
                return False
        if self.replica_flap is not None:
            target, start, period = self.replica_flap
            if replica == target and request_index >= start:
                # Down for `period` requests, up for `period`, repeating.
                if ((request_index - start) // period) % 2 == 0:
                    if not self._replica_flap_fired:
                        self._replica_flap_fired = True
                        get_registry().counter("faults.replica_flap.injected").inc()
                    return False
        return True

    def replica_slow_multiplier(self, replica: int, request_index: int) -> float:
        """Service-cost multiplier for ``replica`` at ``request_index``."""
        if self.replica_slow is not None:
            target, start, stop = self.replica_slow
            if replica == target and start <= request_index < stop:
                if not self._replica_slow_fired:
                    self._replica_slow_fired = True
                    get_registry().counter("faults.replica_slow.injected").inc()
                return self.replica_slow_factor
        return 1.0

    # ------------------------------------------------------------------
    # Real-process faults (exercising repro.resilience.elastic)
    # ------------------------------------------------------------------

    def worker_faults(self) -> dict | None:
        """Picklable worker-side fault spec for the elastic pool.

        Workers consult the spec on each lease (faults fire on lease 0
        only, so re-dispatched work always completes).  Returns None when
        no real-process faults are configured.
        """
        spec: dict = {}
        if self.worker_kill_task is not None:
            spec["kill_task"] = self.worker_kill_task
        if self.worker_hang_task is not None:
            spec["hang_task"] = self.worker_hang_task
        if self.worker_straggle_task is not None:
            spec["straggle_task"] = self.worker_straggle_task
            spec["straggle_seconds"] = self.worker_straggle_seconds
        return spec or None

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable injection state (for checkpoints)."""
        return {
            "rng": self._rng.bit_generator.state,
            "collective_calls": self._collective_calls,
            "collective_failures": self._collective_failures,
            "loader_hiccups": self._loader_hiccups,
            "rank_death_fired": self._rank_death_fired,
            "eviction_fired": self._eviction_fired,
            "batch_corruptions": self._batch_corruptions,
            "gradient_corruption_fired": self._gradient_corruption_fired,
            "hot_row_corruption_fired": self._hot_row_corruption_fired,
            "replica_kill_fired": self._replica_kill_fired,
            "replica_slow_fired": self._replica_slow_fired,
            "replica_flap_fired": self._replica_flap_fired,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore injection state captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self._collective_calls = int(state["collective_calls"])
        self._collective_failures = int(state["collective_failures"])
        self._loader_hiccups = int(state["loader_hiccups"])
        self._rank_death_fired = bool(state["rank_death_fired"])
        self._eviction_fired = bool(state["eviction_fired"])
        self._batch_corruptions = int(state.get("batch_corruptions", 0))
        self._gradient_corruption_fired = bool(
            state.get("gradient_corruption_fired", False)
        )
        self._hot_row_corruption_fired = bool(
            state.get("hot_row_corruption_fired", False)
        )
        self._replica_kill_fired = bool(state.get("replica_kill_fired", False))
        self._replica_slow_fired = bool(state.get("replica_slow_fired", False))
        self._replica_flap_fired = bool(state.get("replica_flap_fired", False))

    # ------------------------------------------------------------------
    # CLI spec parsing
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        Comma-separated ``key=value`` entries::

            seed=7,collective=0.05,death=1@40,evict=80,loader=0.02
            seed=7,ingest=0.01,bad_batch=0.05,bad_row=40,corrupt=nan
            seed=7,kill_task=1,straggle_task=3,straggle_secs=0.8
            seed=7,kill_replica=1@120,slow_replica=2@40:160,flap_replica=0@30/25
            crash_refresh=0@repack
            crash_checkpoint=1
            crash_step=12

        Keys: ``seed``, ``collective`` (transient failure rate),
        ``max_collective``, ``loader`` (hiccup rate), ``max_loader``,
        ``death`` (``RANK@COLLECTIVE_CALL``), ``evict`` (iteration),
        ``ingest`` (row corruption rate), ``max_ingest``, ``bad_batch``
        (batch corruption rate), ``max_bad_batch``, ``bad_grad``
        (iteration), ``bad_row`` (iteration), ``corrupt``
        (``nan`` | ``bitflip``), ``kill_task`` / ``hang_task`` /
        ``straggle_task`` (elastic-pool task index), ``straggle_secs``,
        ``kill_replica`` (``REPLICA@REQUEST``), ``slow_replica``
        (``REPLICA@START:STOP``), ``slow_replica_factor``,
        ``flap_replica`` (``REPLICA@START/PERIOD``), ``crash_refresh``
        (``SEG@PHASE``, phase in :data:`REFRESH_PHASES`),
        ``crash_checkpoint`` (0-based save index), ``crash_step``
        (training iteration).

        Raises:
            ValueError: on an unknown key or malformed entry.
        """
        kwargs: dict = {}
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ValueError(f"fault spec entry {entry!r} is not key=value")
            key, _, value = entry.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "collective":
                    kwargs["collective_failure_rate"] = float(value)
                elif key == "max_collective":
                    kwargs["max_collective_failures"] = int(value)
                elif key == "loader":
                    kwargs["loader_hiccup_rate"] = float(value)
                elif key == "max_loader":
                    kwargs["max_loader_hiccups"] = int(value)
                elif key == "death":
                    rank_str, _, call_str = value.partition("@")
                    kwargs["rank_death"] = (int(rank_str), int(call_str))
                elif key == "evict":
                    kwargs["hot_eviction_at"] = int(value)
                elif key == "ingest":
                    kwargs["ingest_corruption_rate"] = float(value)
                elif key == "max_ingest":
                    kwargs["max_ingest_corruptions"] = int(value)
                elif key == "bad_batch":
                    kwargs["batch_corruption_rate"] = float(value)
                elif key == "max_bad_batch":
                    kwargs["max_batch_corruptions"] = int(value)
                elif key == "bad_grad":
                    kwargs["gradient_corruption_at"] = int(value)
                elif key == "bad_row":
                    kwargs["hot_row_corruption_at"] = int(value)
                elif key == "corrupt":
                    kwargs["corruption_mode"] = value
                elif key == "kill_task":
                    kwargs["worker_kill_task"] = int(value)
                elif key == "hang_task":
                    kwargs["worker_hang_task"] = int(value)
                elif key == "straggle_task":
                    kwargs["worker_straggle_task"] = int(value)
                elif key == "straggle_secs":
                    kwargs["worker_straggle_seconds"] = float(value)
                elif key == "kill_replica":
                    replica_str, _, request_str = value.partition("@")
                    kwargs["replica_kill"] = (int(replica_str), int(request_str))
                elif key == "slow_replica":
                    replica_str, _, window = value.partition("@")
                    start_str, _, stop_str = window.partition(":")
                    kwargs["replica_slow"] = (
                        int(replica_str), int(start_str), int(stop_str)
                    )
                elif key == "slow_replica_factor":
                    kwargs["replica_slow_factor"] = float(value)
                elif key == "flap_replica":
                    replica_str, _, window = value.partition("@")
                    start_str, _, period_str = window.partition("/")
                    kwargs["replica_flap"] = (
                        int(replica_str), int(start_str), int(period_str)
                    )
                elif key == "crash_refresh":
                    index_str, _, phase = value.partition("@")
                    kwargs["crash_refresh"] = (int(index_str), phase.strip())
                elif key == "crash_checkpoint":
                    kwargs["crash_checkpoint"] = int(value)
                elif key == "crash_step":
                    kwargs["crash_step"] = int(value)
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
            except ValueError as exc:
                raise ValueError(f"bad fault spec entry {entry!r}: {exc}") from exc
        return cls(**kwargs)
