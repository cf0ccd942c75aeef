"""Resilience: checkpoint/resume, fault injection, and recovery policies.

FAE's value proposition is long training runs over huge embedding
tables; at that horizon failures are routine, not exceptional.  This
package is the robustness backbone the rest of the stack leans on:

- :mod:`repro.resilience.atomic` — temp-file + ``os.replace`` writes so
  interrupted runs never leave truncated artifacts, recycling spare
  inodes in checkpoint directories (freeing blocks, not fsync, is slow);
- :mod:`repro.resilience.checkpoint` — atomic, SHA-256-checksummed
  training snapshots (parameters, scheduler state, cursors, RNG state)
  written by the one npz writer, with corruption detection and
  newest-good resolution for resume (v2 archives only);
- :mod:`repro.resilience.journal` — a write-ahead ``refresh.journal``
  that turns hot-cache turnover into a crash-consistent transaction
  (intent before mutation, commit after ``repack_pools``, deterministic
  roll-forward verification on resume);
- :mod:`repro.resilience.faults` — a seedable :class:`FaultPlan` that
  deterministically injects transient collective failures, permanent
  rank deaths, loader hiccups, hot-replica evictions, data corruption,
  serving-replica and worker faults, and SIGKILL crash points targeted
  at refresh phases / checkpoint boundaries / steps.  The plan is key,
  check and state tables, and its ``parse_spec`` is the one
  ``key=value`` grammar of ``--faults``, ``--guards`` and ``--validate``
  (each key at most once);
- :mod:`repro.resilience.retry` — bounded exponential-backoff retry
  (with seeded, reproducible jitter) around transient faults;
- :mod:`repro.resilience.elastic` — a supervised real-process worker
  pool: heartbeat liveness, bounded task leases with poison-task
  quarantine, speculative duplicate execution for stragglers, and
  graceful degradation to deterministic in-process execution;
- :mod:`repro.resilience.guards` — data-integrity guardrails: ingest
  validation with per-field ``raise``/``clamp``/``quarantine`` policies
  and an atomic JSONL quarantine ledger, NaN/loss-spike detection with
  checkpoint rollback, and a serving circuit breaker.

Recovery policies live where the state lives: the collectives retry
in :class:`~repro.dist.collectives.ProcessGroup`, the distributed FAE
trainer shrinks the world on permanent rank death, and the segment
engine both trainers run on (:mod:`repro.train.engine`) degrades hot
execution to the cold (CPU-master) path when the hot replicas are
evicted.  Every fault, retry, recovery, and degradation is
emitted through :mod:`repro.obs`.
"""

from repro.resilience.atomic import atomic_write, atomic_write_text
from repro.resilience.elastic import (
    ElasticConfig,
    ElasticError,
    SupervisorEventLog,
    TaskQuarantinedError,
    WorkerPool,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    TrainerCheckpoint,
    capture_training_state,
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_meta,
    restore_training_state,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience.journal import JOURNAL_VERSION, JournalError, RefreshJournal
from repro.resilience.guards import (
    GUARD_POLICIES,
    CircuitBreaker,
    GuardAbort,
    GuardError,
    IngestPolicy,
    IngestValidationError,
    LoadShedError,
    LossSpikeError,
    NumericGuard,
    NumericGuardConfig,
    QuarantineLedger,
    validate_chunk,
)
from repro.resilience.faults import (
    FaultError,
    FaultPlan,
    LoaderHiccup,
    PermanentRankFailure,
    TransientCollectiveError,
)
from repro.resilience.retry import (
    RETRYABLE_FAULTS,
    RetryExhaustedError,
    RetryPolicy,
    with_retries,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "ElasticConfig",
    "ElasticError",
    "FaultError",
    "FaultPlan",
    "GUARD_POLICIES",
    "GuardAbort",
    "GuardError",
    "IngestPolicy",
    "IngestValidationError",
    "JOURNAL_VERSION",
    "JournalError",
    "LoadShedError",
    "LoaderHiccup",
    "LossSpikeError",
    "NumericGuard",
    "NumericGuardConfig",
    "PermanentRankFailure",
    "QuarantineLedger",
    "RefreshJournal",
    "RETRYABLE_FAULTS",
    "RetryExhaustedError",
    "RetryPolicy",
    "SupervisorEventLog",
    "TaskQuarantinedError",
    "TrainerCheckpoint",
    "TransientCollectiveError",
    "atomic_write",
    "atomic_write_text",
    "validate_chunk",
    "capture_training_state",
    "latest_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "restore_training_state",
    "save_checkpoint",
    "verify_checkpoint",
    "with_retries",
    "WorkerPool",
]
