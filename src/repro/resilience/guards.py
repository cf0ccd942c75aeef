"""Data-integrity guardrails: ingest validation, numeric guards, breakers.

PR 2 hardened the *infrastructure* (checkpoints, retries, rank death);
this layer hardens the *data and numerics*.  Skewed pipelines concentrate
damage — a corrupted hot row is replicated to every GPU and poisons the
majority of accesses — so the guards sit at the three places bad values
enter or spread:

- **Ingest** — :class:`IngestPolicy` assigns a per-field policy
  (``raise`` | ``clamp`` | ``quarantine``) for out-of-range sparse ids,
  non-finite dense features, and invalid labels.
  :class:`~repro.data.validate.ValidatingChunkSource` applies it chunk
  by chunk over any :class:`~repro.data.chunk_source.ChunkSource`;
  quarantined records go to an atomic JSONL :class:`QuarantineLedger`
  with machine-readable reasons.  Decisions are per-row and content-based, so the surviving
  stream and the ledger are byte-identical across chunk sizes.
- **Training** — :class:`NumericGuard` checks batches before the
  forward pass, the loss after it (non-finite, or an EMA spike), and the
  gradients before the optimizer step.  Poisoned *inputs* are skipped;
  poisoned *state* (a clean batch producing a non-finite or spiking
  loss) triggers :class:`LossSpikeError`, which the trainers answer by
  rolling back to the last good checkpoint with learning-rate backoff,
  bounded by a retry budget.
- **Serving** — :class:`CircuitBreaker` watches a rolling window of
  request outcomes (deadline misses / fallbacks) and sheds load while
  open, recovering through a half-open probe.

Every guard event flows through :mod:`repro.obs` (``guards.*``
counters), and terminal failures raise :class:`GuardAbort`, which the
CLI renders with the ledger / checkpoint locations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.parameter import sparse_stores
from repro.obs.metrics import get_registry
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import parse_spec

if TYPE_CHECKING:  # avoid a repro.data import cycle at runtime
    from repro.data.log import ClickLog

__all__ = [
    "GUARD_POLICIES",
    "CircuitBreaker",
    "GuardAbort",
    "GuardError",
    "IngestPolicy",
    "IngestValidationError",
    "LoadShedError",
    "LossSpikeError",
    "NumericGuard",
    "NumericGuardConfig",
    "QuarantineLedger",
    "validate_chunk",
]

GUARD_POLICIES = ("raise", "clamp", "quarantine")

#: ``--validate`` spec key -> (IngestPolicy field, cast).
_POLICY_SPEC_KEYS = {name: (name, str) for name in ("sparse", "dense", "labels")}

#: ``--guards`` spec key -> (NumericGuardConfig field, cast).
_GUARD_SPEC_KEYS = {
    "ema": ("ema_beta", float),
    "spike": ("spike_factor", float),
    "warmup": ("warmup_steps", int),
    "rollbacks": ("max_rollbacks", int),
    "backoff": ("lr_backoff", float),
    "skips": ("max_skipped_steps", int),
}


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


class GuardError(RuntimeError):
    """Base class for data-integrity guard failures."""


class IngestValidationError(GuardError):
    """A record failed ingest validation under the ``raise`` policy.

    Attributes:
        index: global sample index of the offending record.
        reason: machine-readable reason tag (e.g. ``sparse.table_00.oov``).
    """

    def __init__(self, index: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.index = index
        self.reason = reason


class LossSpikeError(GuardError):
    """Training numerics went bad from clean inputs: state is poisoned.

    Raised by :class:`NumericGuard` and caught by the trainers, which
    roll back to the last good checkpoint with learning-rate backoff.

    Attributes:
        iteration: global step at which the guard tripped.
        loss: the offending loss value.
        ema: the loss EMA at trip time (None during warmup).
    """

    def __init__(self, iteration: int, loss: float, ema: float | None, detail: str) -> None:
        super().__init__(detail)
        self.iteration = iteration
        self.loss = loss
        self.ema = ema


class GuardAbort(GuardError):
    """A guard exhausted its recovery options; the run cannot continue.

    Attributes:
        guard: which guard gave up (``ingest`` | ``numeric`` | ``serving``).
        ledger_path: quarantine ledger location, if one exists.
        checkpoint_dir: checkpoint directory, if one was configured.
    """

    def __init__(
        self,
        guard: str,
        detail: str,
        ledger_path: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        super().__init__(detail)
        self.guard = guard
        self.ledger_path = str(ledger_path) if ledger_path is not None else None
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir is not None else None

    def hints(self) -> list[str]:
        """Actionable follow-up lines for the CLI error handler."""
        lines = []
        if self.ledger_path is not None:
            lines.append(f"quarantine ledger: {self.ledger_path}")
        if self.checkpoint_dir is not None:
            lines.append(f"last good checkpoints: {self.checkpoint_dir}")
        return lines


class LoadShedError(GuardError):
    """The serving circuit breaker is open; the request was shed."""


# ----------------------------------------------------------------------
# Ingest validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IngestPolicy:
    """Per-field handling of invalid records at ingest.

    Attributes:
        sparse: policy for out-of-range (OOV / negative) sparse ids.
        dense: policy for non-finite dense features.
        labels: policy for non-finite or non-{0,1} labels.

    ``raise`` aborts on the first bad record (the historical behavior),
    ``clamp`` repairs the record into fresh arrays, never writing into the
    chunk's own (ids clipped into range, non-finite dense
    zeroed, labels thresholded), ``quarantine`` drops the record and
    writes it to the ledger.
    """

    sparse: str = "raise"
    dense: str = "raise"
    labels: str = "raise"

    def __post_init__(self) -> None:
        for name in ("sparse", "dense", "labels"):
            value = getattr(self, name)
            if value not in GUARD_POLICIES:
                raise ValueError(
                    f"{name} policy must be one of {GUARD_POLICIES}, got {value!r}"
                )

    @property
    def quarantines(self) -> bool:
        """Whether any field can drop records (stream length may shrink)."""
        return "quarantine" in (self.sparse, self.dense, self.labels)

    @classmethod
    def parse(cls, spec: str) -> "IngestPolicy":
        """Build a policy from a compact CLI spec.

        A bare policy name applies to every field
        (``"quarantine"``); comma-separated ``field=policy`` entries
        (:func:`~repro.resilience.faults.parse_spec`) set fields
        individually (``"sparse=quarantine,dense=clamp"``).
        """
        spec = spec.strip()
        if spec in GUARD_POLICIES:
            return cls(sparse=spec, dense=spec, labels=spec)
        return cls(**parse_spec(spec, _POLICY_SPEC_KEYS, "ingest policy"))


class QuarantineLedger:
    """Append-and-flush JSONL ledger of quarantined records.

    Records accumulate in memory (deduplicated by global sample index,
    because the preprocess pipeline iterates its source twice) and
    :meth:`flush` rewrites the ledger file atomically, sorted by index
    with sorted keys — so the ledger bytes are deterministic for a given
    set of decisions regardless of chunking or pass count.

    Args:
        directory: ledger directory; the file is ``quarantine.jsonl``.
    """

    FILENAME = "quarantine.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self._records: dict[int, dict] = {}
        self._counter = get_registry().counter("guards.quarantined")

    def __len__(self) -> int:
        return len(self._records)

    def record(self, index: int, reasons: list[str], detail: dict | None = None) -> None:
        """Register one quarantined record (idempotent per index)."""
        index = int(index)
        if index in self._records:
            return
        entry = {"index": index, "reasons": sorted(reasons)}
        if detail:
            entry["detail"] = detail
        self._records[index] = entry
        self._counter.inc()

    @property
    def indices(self) -> list[int]:
        """Quarantined global sample indices, ascending."""
        return sorted(self._records)

    def flush(self) -> Path:
        """Atomically (re)write the ledger file; returns its path."""
        lines = [
            json.dumps(self._records[index], sort_keys=True)
            for index in sorted(self._records)
        ]
        atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        return self.path

    @staticmethod
    def load(path: str | Path) -> list[dict]:
        """Parse a ledger file back into its records.

        Raises:
            GuardError: if a line is not valid JSON (the error names the
                file and line number).
        """
        records = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise GuardError(f"quarantine ledger {path}:{lineno} is corrupt: {exc}") from exc
        return records


def _bad_dense_rows(dense: np.ndarray) -> np.ndarray:
    return ~np.isfinite(dense).all(axis=1)


def _bad_label_rows(labels: np.ndarray) -> np.ndarray:
    finite = np.isfinite(labels)
    valid = finite & ((labels == 0.0) | (labels == 1.0))
    return ~valid


def validate_chunk(
    chunk: ClickLog,
    start: int,
    policy: IngestPolicy,
    ledger: QuarantineLedger | None = None,
) -> tuple[ClickLog, int]:
    """Validate one chunk under ``policy``; returns ``(clean, dropped)``.

    Per-row checks: non-finite dense features, labels outside {0, 1},
    and sparse ids outside ``[0, num_rows)`` for each table.  Decisions
    depend only on row content and the row's global index (``start`` +
    offset), never on chunk boundaries.

    Raises:
        IngestValidationError: on the first bad record of a field whose
            policy is ``raise``.
    """
    schema = chunk.schema
    n = len(chunk)
    if n == 0:
        return chunk, 0

    dense = chunk.dense
    labels = chunk.labels
    sparse = chunk.sparse
    drop = np.zeros(n, dtype=bool)
    reasons: dict[int, list[str]] = {}
    detail: dict[int, dict] = {}

    def _flag(rows: np.ndarray, reason: str, info: dict[int, object] | None = None) -> None:
        for offset in np.flatnonzero(rows):
            index = start + int(offset)
            reasons.setdefault(index, []).append(reason)
            if info is not None:
                detail.setdefault(index, {})[reason] = info[int(offset)]
        drop[rows] = True

    bad_dense = _bad_dense_rows(dense)
    if bad_dense.any():
        if policy.dense == "raise":
            offset = int(np.flatnonzero(bad_dense)[0])
            raise IngestValidationError(
                start + offset,
                "dense.nonfinite",
                f"sample {start + offset}: non-finite dense features",
            )
        if policy.dense == "clamp":
            dense = np.nan_to_num(dense, nan=0.0, posinf=0.0, neginf=0.0)
        else:
            _flag(
                bad_dense,
                "dense.nonfinite",
                {
                    int(o): int((~np.isfinite(chunk.dense[o])).sum())
                    for o in np.flatnonzero(bad_dense)
                },
            )

    bad_labels = _bad_label_rows(labels)
    if bad_labels.any():
        if policy.labels == "raise":
            offset = int(np.flatnonzero(bad_labels)[0])
            raise IngestValidationError(
                start + offset,
                "label.invalid",
                f"sample {start + offset}: label {labels[offset]!r} is not in {{0, 1}}",
            )
        if policy.labels == "clamp":
            labels = np.where(
                np.nan_to_num(labels, nan=0.0, posinf=1.0, neginf=0.0) >= 0.5, 1.0, 0.0
            ).astype(np.float32)
        else:
            _flag(
                bad_labels,
                "label.invalid",
                {int(o): float(labels[o]) for o in np.flatnonzero(bad_labels)},
            )

    clamped_sparse: dict[str, np.ndarray] = {}
    for spec in schema.tables:
        ids = sparse[spec.name]
        bad_ids = (ids < 0) | (ids >= spec.num_rows)
        bad_rows = bad_ids.any(axis=1)
        if bad_rows.any():
            if policy.sparse == "raise":
                offset = int(np.flatnonzero(bad_rows)[0])
                offending = int(ids[offset][bad_ids[offset]][0])
                raise IngestValidationError(
                    start + offset,
                    f"sparse.{spec.name}.oov",
                    f"sample {start + offset}: {spec.name} id {offending} "
                    f"out of range [0, {spec.num_rows})",
                )
            if policy.sparse == "clamp":
                clamped_sparse[spec.name] = np.clip(ids, 0, spec.num_rows - 1)
            else:
                _flag(
                    bad_rows,
                    f"sparse.{spec.name}.oov",
                    {
                        int(o): int(ids[o][bad_ids[o]][0])
                        for o in np.flatnonzero(bad_rows)
                    },
                )

    dropped = int(drop.sum())
    if dropped and ledger is not None:
        for index in sorted(reasons):
            ledger.record(index, reasons[index], detail.get(index))

    if not dropped and dense is chunk.dense and labels is chunk.labels and not clamped_sparse:
        return chunk, 0

    from repro.data.log import ClickLog  # deferred: avoids an import cycle

    keep = ~drop
    clean_sparse = {
        name: clamped_sparse.get(name, sparse[name])[keep] for name in sparse
    }
    clean = ClickLog.from_trusted(
        schema=schema,
        dense=np.ascontiguousarray(dense[keep], dtype=np.float32),
        sparse={k: np.ascontiguousarray(v, dtype=np.int64) for k, v in clean_sparse.items()},
        labels=np.ascontiguousarray(labels[keep], dtype=np.float32),
    )
    return clean, dropped


# ----------------------------------------------------------------------
# Numeric guards (training)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NumericGuardConfig:
    """Thresholds for the training-time numeric guard.

    Attributes:
        ema_beta: smoothing factor of the loss EMA (higher = slower).
        spike_factor: a loss above ``spike_factor * ema`` is a spike.
        warmup_steps: loss observations before spike detection arms
            (early losses are legitimately noisy).
        max_rollbacks: rollback budget; exceeding it raises
            :class:`GuardAbort`.
        lr_backoff: learning-rate multiplier applied at each rollback.
        max_skipped_steps: discarded optimizer steps tolerated between
            rollbacks before the guard concludes the *parameters* are
            poisoned and escalates to a rollback.  (A NaN weight row can
            hide from the loss check — ReLU maps NaN activations to 0 in
            the forward pass (DESIGN.md §15) — but it keeps
            producing non-finite gradients.)
    """

    ema_beta: float = 0.9
    spike_factor: float = 4.0
    warmup_steps: int = 8
    max_rollbacks: int = 2
    lr_backoff: float = 0.5
    max_skipped_steps: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.ema_beta < 1.0:
            raise ValueError("ema_beta must be in (0, 1)")
        if self.spike_factor <= 1.0:
            raise ValueError("spike_factor must be > 1")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError("lr_backoff must be in (0, 1]")
        if self.max_skipped_steps < 1:
            raise ValueError("max_skipped_steps must be >= 1")

    @classmethod
    def parse(cls, spec: str) -> "NumericGuardConfig":
        """Build a config from a compact CLI spec.

        Comma-separated ``key=value`` entries
        (:func:`~repro.resilience.faults.parse_spec`, keys in
        :data:`_GUARD_SPEC_KEYS`)::

            spike=4.0,ema=0.9,warmup=8,rollbacks=2,backoff=0.5,skips=16

        An empty spec (or the literal ``default``) yields the defaults.
        """
        spec = spec.strip()
        if spec in ("", "default"):
            return cls()
        return cls(**parse_spec(spec, _GUARD_SPEC_KEYS, "guard spec"))


class NumericGuard:
    """NaN/Inf and loss-spike detection around every optimizer step.

    The guard distinguishes *input* corruption from *state* corruption:

    - a batch with non-finite features/labels is **skipped** before the
      forward pass (``guards.batch.skipped``) — dropping one bad batch
      costs one update;
    - non-finite gradients from a clean batch are **discarded** before
      the step (``guards.step.skipped``) — the parameters stay good; but
      more than ``max_skipped_steps`` of them between rollbacks means
      the parameters themselves are producing the poison (a NaN weight
      row can hide from the loss check behind a NaN -> 0 ReLU), and
      the guard escalates to a rollback;
    - a non-finite or spiking loss from a clean batch means the
      *parameters* are already poisoned (e.g. a corrupted hot-replica
      row): :meth:`check_loss` raises :class:`LossSpikeError` and the
      trainer rolls back to the last good checkpoint with LR backoff.

    One guard instance is shared across a trainer's rollback attempts,
    so the rollback budget is global to the run.
    """

    def __init__(self, config: NumericGuardConfig | None = None) -> None:
        self.config = config or NumericGuardConfig()
        self.ema: float | None = None
        self.observations = 0
        self.rollbacks = 0
        self.skipped_batches = 0
        self.skipped_steps = 0
        self.rejected_checkpoints = 0
        self._skips_since_reset = 0
        registry = get_registry()
        self._batch_counter = registry.counter("guards.batch.skipped")
        self._step_counter = registry.counter("guards.step.skipped")
        self._rollback_counter = registry.counter("guards.rollbacks")
        self._ckpt_counter = registry.counter("guards.checkpoint.rejected")

    # -- input checks ---------------------------------------------------

    def batch_ok(self, batch) -> bool:
        """False (and count) if the batch carries non-finite values."""
        if np.isfinite(batch.dense).all() and np.isfinite(batch.labels).all():
            return True
        self.skipped_batches += 1
        self._batch_counter.inc()
        return False

    def grads_ok(self, parameters, iteration: int = 0) -> bool:
        """False (and count) if any accumulated gradient is non-finite.

        Raises:
            LossSpikeError: when more than ``max_skipped_steps`` steps
                have been discarded since the last rollback — persistent
                gradient poison means the parameters are the source.
        """

        def _bad() -> bool:
            for param in parameters:
                if param.grad is not None and not np.isfinite(param.grad).all():
                    return True
            for store in sparse_stores(parameters):
                for record in store.sparse_grads:
                    if not np.isfinite(record.values).all():
                        return True
            return False

        if not _bad():
            return True
        self.skipped_steps += 1
        self._skips_since_reset += 1
        self._step_counter.inc()
        if self._skips_since_reset > self.config.max_skipped_steps:
            raise LossSpikeError(
                iteration, float("nan"), self.ema,
                f"{self._skips_since_reset} non-finite-gradient steps discarded "
                f"since the last rollback (> {self.config.max_skipped_steps}): "
                "the parameters are likely poisoned",
            )
        return False

    # -- state checks ---------------------------------------------------

    def check_loss(self, loss: float, iteration: int) -> None:
        """Observe one training loss; raise on poisoned state.

        Raises:
            LossSpikeError: when the loss is non-finite, or exceeds
                ``spike_factor`` times the EMA after warmup.
        """
        loss = float(loss)
        if not math.isfinite(loss):
            raise LossSpikeError(
                iteration, loss, self.ema,
                f"non-finite training loss {loss!r} at iteration {iteration}",
            )
        if (
            self.ema is not None
            and self.observations >= self.config.warmup_steps
            and loss > self.config.spike_factor * self.ema
        ):
            raise LossSpikeError(
                iteration, loss, self.ema,
                f"loss spike at iteration {iteration}: {loss:.4f} > "
                f"{self.config.spike_factor:g} x EMA {self.ema:.4f}",
            )
        beta = self.config.ema_beta
        self.ema = loss if self.ema is None else beta * self.ema + (1.0 - beta) * loss
        self.observations += 1

    def check_eval_loss(self, loss: float, iteration: int) -> None:
        """A non-finite *evaluation* loss also means poisoned state.

        Raises:
            LossSpikeError: when ``loss`` is NaN/Inf.
        """
        if not math.isfinite(float(loss)):
            raise LossSpikeError(
                iteration, float(loss), self.ema,
                f"non-finite evaluation loss at iteration {iteration}",
            )

    def state_ok(self, arrays) -> bool:
        """Whether a parameter snapshot is finite (checkpoint hygiene).

        Trainers call this before persisting a checkpoint; a snapshot
        carrying NaN/Inf is refused so rollback never restores poison.
        """
        for value in (arrays.values() if isinstance(arrays, dict) else arrays):
            if not np.isfinite(value).all():
                self.rejected_checkpoints += 1
                self._ckpt_counter.inc()
                return False
        return True

    # -- rollback budget ------------------------------------------------

    def note_rollback(self, detail: str, checkpoint_dir=None, ledger_path=None) -> None:
        """Record one rollback; raise when the budget is exhausted.

        Raises:
            GuardAbort: after more than ``max_rollbacks`` rollbacks.
        """
        self.rollbacks += 1
        self._rollback_counter.inc()
        if self.rollbacks > self.config.max_rollbacks:
            raise GuardAbort(
                "numeric",
                f"rollback budget exhausted "
                f"({self.rollbacks} > {self.config.max_rollbacks}): {detail}",
                ledger_path=ledger_path,
                checkpoint_dir=checkpoint_dir,
            )
        # The EMA tracked the pre-rollback trajectory; re-warm it so the
        # replayed (lower-LR) losses are not judged against stale state.
        self.ema = None
        self.observations = 0
        self._skips_since_reset = 0

    def snapshot(self) -> dict:
        """JSON-ready guard activity summary."""
        return {
            "rollbacks": self.rollbacks,
            "skipped_batches": self.skipped_batches,
            "skipped_steps": self.skipped_steps,
            "rejected_checkpoints": self.rejected_checkpoints,
            "loss_ema": self.ema,
        }


# ----------------------------------------------------------------------
# Serving circuit breaker
# ----------------------------------------------------------------------


@dataclass
class CircuitBreaker:
    """Rolling-window circuit breaker over request outcomes.

    Closed: requests flow, outcomes are recorded.  When the failure
    fraction over the last ``window`` requests reaches
    ``failure_threshold`` (with at least ``min_requests`` observed), the
    breaker **opens** and sheds load.  After ``cooldown`` shed requests
    it goes **half-open**: one probe request is admitted; success closes
    the breaker (window cleared), failure re-opens it.

    Request counts (not wall time) drive the cooldown so behavior is
    deterministic under test.

    Attributes:
        window: outcomes retained for the failure-rate computation.
        failure_threshold: failure fraction that opens the breaker.
        min_requests: observations required before the breaker may trip.
        cooldown: shed requests before a half-open probe is admitted.
    """

    window: int = 64
    failure_threshold: float = 0.5
    min_requests: int = 16
    cooldown: int = 32

    state: str = field(default="closed", init=False)
    trips: int = field(default=0, init=False)
    shed_requests: int = field(default=0, init=False)
    _outcomes: list[bool] = field(default_factory=list, init=False, repr=False)
    _shed_since_open: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_requests < 1 or self.cooldown < 0:
            raise ValueError("window/min_requests must be >= 1, cooldown >= 0")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        registry = get_registry()
        self._trip_counter = registry.counter("guards.breaker.trips")
        self._shed_counter = registry.counter("guards.breaker.shed")

    def failure_rate(self) -> float:
        """Failure fraction over the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return 1.0 - (sum(self._outcomes) / len(self._outcomes))

    def allow(self) -> bool:
        """Whether the next request may proceed (False = shed it)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._shed_since_open >= self.cooldown:
                self.state = "half_open"
                return True
            self._shed_since_open += 1
            self.shed_requests += 1
            self._shed_counter.inc()
            return False
        # half_open: the in-flight probe owns the slot.
        self.shed_requests += 1
        self._shed_counter.inc()
        return False

    def record(self, success: bool) -> None:
        """Report the outcome of an admitted request."""
        if self.state == "half_open":
            if success:
                self.state = "closed"
                self._outcomes = []
            else:
                self.state = "open"
                self._shed_since_open = 0
            return
        self._outcomes.append(bool(success))
        if len(self._outcomes) > self.window:
            del self._outcomes[: len(self._outcomes) - self.window]
        if (
            self.state == "closed"
            and len(self._outcomes) >= self.min_requests
            and self.failure_rate() >= self.failure_threshold
        ):
            self.state = "open"
            self._shed_since_open = 0
            self.trips += 1
            self._trip_counter.inc()

    def health(self) -> dict:
        """JSON-ready health snapshot."""
        return {
            "state": self.state,
            "failure_rate": self.failure_rate(),
            "window_size": len(self._outcomes),
            "trips": self.trips,
            "shed_requests": self.shed_requests,
        }
