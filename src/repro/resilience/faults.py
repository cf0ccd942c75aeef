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

The plan is tables: spec key → field (read by :func:`parse_spec`, the one
``key=value`` grammar of ``--faults``, ``--guards`` and ``--validate``),
field → check, and fault kind → checkpointed state.  A kind doubles as
its ``faults.<kind>.injected`` counter, so chaos runs are fully
traceable through :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from repro.obs.metrics import get_registry

__all__ = [
    "FaultError",
    "FaultPlan",
    "LoaderHiccup",
    "PermanentRankFailure",
    "REFRESH_PHASES",
    "TransientCollectiveError",
    "parse_spec",
    "popular_local_row",
]

#: Crash-injectable phases of one journaled cache refresh, in execution
#: order: after planning, after the journal intent record, after the
#: cache membership swap, after replica delta application, after the
#: batch repack, after the scheduler pool swap, and after the commit.
REFRESH_PHASES = ("plan", "intent", "apply", "replicas", "repack", "pools", "commit")


def parse_spec(spec: str, keys: Mapping[str, tuple[str, Callable]], what: str) -> dict:
    """Constructor kwargs from comma-separated ``key=value`` entries.

    ``keys`` maps each spec key to ``(field, cast)``; blank entries are
    skipped.  ``what`` names the spec in errors (``"fault spec"``).

    Raises:
        ValueError: on an entry without ``=``, an unknown or repeated
            key, or a value its cast rejects.
    """
    kwargs: dict = {}
    seen: set[str] = set()
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, value = entry.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{what} entry {entry!r} is not key=value")
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r} (have {sorted(keys)})")
        if key in seen:
            raise ValueError(f"{what} key {key!r} given twice")
        seen.add(key)
        name, cast = keys[key]
        try:
            kwargs[name] = cast(value.strip())
        except ValueError as exc:
            raise ValueError(f"bad {what} entry {entry!r}: {exc}") from exc
    return kwargs


def _split(separators: str, *casts: Callable) -> Callable[[str], tuple]:
    """Cast reading ``R@A:B`` as ``(R, A, B)`` for ``_split("@:", int, int, int)``.

    Splits on each separator in turn; a missing part is ``""``, which ``int`` rejects.
    """

    def cast(value: str) -> tuple:
        parts = []
        for separator in separators:
            head, _, value = value.partition(separator)
            parts.append(head)
        parts.append(value)
        return tuple(convert(part) for convert, part in zip(casts, parts))

    return cast


#: CLI spec key -> (FaultPlan field, cast); the table is the key list.
_SPEC_KEYS: dict[str, tuple[str, Callable]] = {
    "seed": ("seed", int),
    "collective": ("collective_failure_rate", float),
    "max_collective": ("max_collective_failures", int),
    "loader": ("loader_hiccup_rate", float),
    "max_loader": ("max_loader_hiccups", int),
    "death": ("rank_death", _split("@", int, int)),  # RANK@COLLECTIVE_CALL
    "evict": ("hot_eviction_at", int),
    "ingest": ("ingest_corruption_rate", float),
    "max_ingest": ("max_ingest_corruptions", int),
    "bad_batch": ("batch_corruption_rate", float),
    "max_bad_batch": ("max_batch_corruptions", int),
    "bad_grad": ("gradient_corruption_at", int),
    "bad_row": ("hot_row_corruption_at", int),
    "corrupt": ("corruption_mode", str),
    "kill_replica": ("replica_kill", _split("@", int, int)),  # REPLICA@REQUEST
    "slow_replica": ("replica_slow", _split("@:", int, int, int)),  # REPLICA@START:STOP
    "slow_replica_factor": ("replica_slow_factor", float),
    "flap_replica": ("replica_flap", _split("@/", int, int, int)),  # REPLICA@START/PERIOD
    "crash_refresh": ("crash_refresh", _split("@", int, str.strip)),  # SEG@PHASE
    "crash_checkpoint": ("crash_checkpoint", int),
    "crash_step": ("crash_step", int),
}

_RATE = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")

#: Field -> (predicate, what the value must be); None fields are unset.
_VALID: dict[str, tuple[Callable, str]] = {
    "collective_failure_rate": _RATE,
    "loader_hiccup_rate": _RATE,
    "ingest_corruption_rate": _RATE,
    "batch_corruption_rate": _RATE,
    "corruption_mode": (lambda v: v in ("nan", "bitflip"), "'nan' or 'bitflip'"),
    "rank_death": (lambda v: v[0] >= 0 and v[1] >= 1, "(rank >= 0, call >= 1)"),
    "replica_kill": (lambda v: min(v) >= 0, "(replica >= 0, request >= 0)"),
    "replica_slow": (lambda v: min(v) >= 0 and v[2] > v[1], "(replica >= 0, 0 <= start < stop)"),
    "replica_slow_factor": (lambda v: v > 1.0, "> 1"),
    "replica_flap": (lambda v: min(v[:2]) >= 0 and v[2] >= 1, "(replica, start >= 0, period >= 1)"),
    "crash_refresh": (
        lambda v: v[0] >= 0 and v[1] in REFRESH_PHASES, f"(index >= 0, phase in {REFRESH_PHASES})"
    ),
    "crash_checkpoint": (lambda v: v >= 0, ">= 0"),
    "crash_step": (lambda v: v >= 1, ">= 1"),
}

#: Fault kind -> state_dict key, in checkpoint meta order.  A ``*_fired``
#: flag marks a fire-once kind (_ONCE), a count a capped rate one (_RATED).
_STATE: dict[str, str] = {
    "collective": "collective_failures",
    "loader": "loader_hiccups",
    "rank_death": "rank_death_fired",
    "hot_eviction": "eviction_fired",
    "batch_corruption": "batch_corruptions",
    "gradient_corruption": "gradient_corruption_fired",
    "hot_row_corruption": "hot_row_corruption_fired",
    "replica_kill": "replica_kill_fired",
    "replica_slow": "replica_slow_fired",
    "replica_flap": "replica_flap_fired",
}
_ONCE = {kind: key for kind, key in _STATE.items() if key.endswith("_fired")}
_RATED = {kind: key for kind, key in _STATE.items() if kind not in _ONCE}


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
    crash_refresh: tuple[int, str] | None = None
    crash_checkpoint: int | None = None
    crash_step: int | None = None

    _rng: np.random.Generator = field(init=False, repr=False)
    _checkpoint_saves: int = field(default=0, init=False)
    _collective_calls: int = field(default=0, init=False)
    _fired: dict[str, bool] = field(init=False, repr=False)
    _injected: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, (ok, must) in _VALID.items():
            value = getattr(self, name)
            if value is not None and not ok(value):
                raise ValueError(f"{name} must be {must}, got {value!r}")
        self._rng = np.random.default_rng(self.seed)
        self._fired = dict.fromkeys(_ONCE, False)
        self._injected = dict.fromkeys(_RATED, 0)

    def _once(self, kind: str, due: bool) -> bool:
        """True (and counted) the first time ``due`` holds for ``kind``."""
        if not due or self._fired[kind]:
            return False
        self._fired[kind] = True
        get_registry().counter(f"faults.{kind}.injected").inc()
        return True

    def _draw(self, kind: str, rate: float, cap: int) -> bool:
        """One seeded draw of capped rate fault ``kind``; True (and counted) if it fires.

        The RNG is consulted only past the rate and cap checks, so a
        disabled or exhausted fault leaves the shared stream untouched.
        """
        if rate <= 0.0 or self._injected[kind] >= cap or self._rng.random() >= rate:
            return False
        self._injected[kind] += 1
        get_registry().counter(f"faults.{kind}.injected").inc()
        return True

    # -- Injection points ------------------------------------------------

    def check_collective(self, op: str = "collective") -> None:
        """Consulted once per collective attempt; may raise a fault."""
        self._collective_calls += 1
        if self.rank_death is not None:
            rank, at_call = self.rank_death
            if self._once("rank_death", self._collective_calls >= at_call):
                raise PermanentRankFailure(
                    rank, f"rank {rank} died during {op} (injected at call {at_call})"
                )
        cap = self.max_collective_failures
        if self._draw("collective", self.collective_failure_rate, cap):
            raise TransientCollectiveError(
                f"injected transient failure in {op} "
                f"(#{self._injected['collective']} of at most {cap})"
            )

    def check_loader(self) -> None:
        """Consulted once per batch fetch attempt; may raise a hiccup."""
        cap = self.max_loader_hiccups
        if self._draw("loader", self.loader_hiccup_rate, cap):
            raise LoaderHiccup(
                f"injected loader hiccup (#{self._injected['loader']} of at most {cap})"
            )

    def should_evict_hot(self, iteration: int) -> bool:
        """True exactly once, when ``iteration`` reaches the eviction point."""
        at = self.hot_eviction_at
        return at is not None and self._once("hot_eviction", iteration >= at)

    # -- Data corruption (chaos for repro.resilience.guards) -------------

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
        an out-of-range sparse id, or an invalid label.  ``log`` must own
        its columns, as a ``take`` (the training split) does: a decoded
        log shard's columns are read-only views of the file's bytes, and
        numpy refuses the first write with ``ValueError``.

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
        if not self._draw(
            "batch_corruption", self.batch_corruption_rate, self.max_batch_corruptions
        ):
            return batch
        dense = batch.dense.copy()
        row = int(self._rng.integers(0, dense.shape[0])) if dense.shape[0] else 0
        dense[row, :] = self._poison(dense[row, :])
        return replace(batch, dense=dense)

    def should_corrupt_gradient(self, iteration: int) -> bool:
        """True exactly once, at the configured gradient-poison point."""
        at = self.gradient_corruption_at
        return at is not None and self._once("gradient_corruption", iteration >= at)

    def should_corrupt_hot_row(self, iteration: int) -> bool:
        """True exactly once, at the configured hot-row-poison point."""
        at = self.hot_row_corruption_at
        return at is not None and self._once("hot_row_corruption", iteration >= at)

    # -- Crash faults (exercising repro.resilience.journal / certify) ----

    @staticmethod
    def _sigkill() -> None:
        # A real, unhandled kill: the process dies here, mid-everything.
        os.kill(os.getpid(), signal.SIGKILL)

    def _crash(self, kind: str, due: bool) -> None:
        if due:
            get_registry().counter(f"faults.{kind}.injected").inc()
            self._sigkill()

    def maybe_crash_refresh(self, refresh_index: int, phase: str) -> None:
        """SIGKILL when cache turnover ``refresh_index`` reaches ``phase``.

        The trainers call this at every phase boundary of every journaled
        refresh; the plan kills the process at exactly one of them.
        """
        self._crash("crash_refresh", self.crash_refresh == (refresh_index, phase))

    def maybe_crash_checkpoint(self) -> None:
        """SIGKILL immediately after the configured checkpoint save."""
        save_index = self._checkpoint_saves
        self._checkpoint_saves += 1
        self._crash("crash_checkpoint", self.crash_checkpoint == save_index)

    def maybe_crash_step(self, iteration: int) -> None:
        """SIGKILL right after training iteration ``crash_step``."""
        self._crash("crash_step", self.crash_step == iteration)

    # -- Serving-replica faults (exercising repro.serve.cluster) ---------

    def replica_alive(self, replica: int, request_index: int) -> bool:
        """Whether serving replica ``replica`` is up at ``request_index``.

        A pure function of the plan and the request index (no RNG draw),
        so the serving replay can consult it for every replica on every
        request without perturbing the other fault streams.
        """
        if self.replica_kill is not None:
            target, at_request = self.replica_kill
            if replica == target and request_index >= at_request:
                self._once("replica_kill", True)
                return False
        if self.replica_flap is not None:
            target, start, period = self.replica_flap
            # Down for `period` requests, up for `period`, repeating.
            down = start <= request_index and (request_index - start) // period % 2 == 0
            if replica == target and down:
                self._once("replica_flap", True)
                return False
        return True

    def replica_slow_multiplier(self, replica: int, request_index: int) -> float:
        """Service-cost multiplier for ``replica`` at ``request_index``."""
        if self.replica_slow is not None:
            target, start, stop = self.replica_slow
            if replica == target and start <= request_index < stop:
                self._once("replica_slow", True)
                return self.replica_slow_factor
        return 1.0

    # -- Checkpointable state --------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable injection state (for checkpoints)."""
        state: dict = {
            "rng": self._rng.bit_generator.state,
            "collective_calls": self._collective_calls,
        }
        for kind, key in _STATE.items():
            state[key] = self._fired[kind] if kind in _ONCE else self._injected[kind]
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; keys an older plan lacks load as unfired / 0."""
        self._rng.bit_generator.state = state["rng"]
        self._collective_calls = int(state["collective_calls"])
        for kind, key in _ONCE.items():
            self._fired[kind] = bool(state.get(key, False))
        for kind, key in _RATED.items():
            self._injected[kind] = int(state.get(key, 0))

    # -- CLI spec parsing ------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        Comma-separated ``key=value`` entries (:func:`parse_spec`), each
        key at most once; :data:`_SPEC_KEYS` lists the keys and their
        value grammar::

            seed=7,collective=0.05,death=1@40,evict=80,loader=0.02
            seed=7,ingest=0.01,bad_batch=0.05,bad_row=40,corrupt=nan
            seed=7,kill_replica=1@120,slow_replica=2@40:160,flap_replica=0@30/25
            crash_refresh=0@repack
            crash_checkpoint=1
            crash_step=12

        Raises:
            ValueError: on an unknown or repeated key, a malformed entry,
                or a value out of range.
        """
        return cls(**parse_spec(spec, _SPEC_KEYS, "fault spec"))
